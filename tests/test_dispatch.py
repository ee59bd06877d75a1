"""Result bytes that do not depend on numpy's CPU dispatch.

The golden default and stress configs and ``tools/identity.py``'s
``low-snr-sweep`` run as CSV and JSON in this process, and again in a fresh
interpreter whose ``NPY_DISABLE_CPU_FEATURES`` switches off every AVX-512
target of numpy's dispatch that this CPU has (``tools/identity.py``'s
list); the result files must match byte for byte. On a host without
AVX-512 that list is empty, both runs take the same kernels, and the test
passes trivially.
"""

import json
import os
import subprocess
import sys

from uavsec.cli import main

from helpers import ROOT, load_tool

identity = load_tool("identity")

CONFIGS = ("golden-default", "golden-stress", "low-snr-sweep")
FILES = [(name, fmt) for name in CONFIGS for fmt in ("csv", "json")]


def _argvs(tmp, side: str) -> list[list[str]]:
    """The CLI arguments of every (config, format), writing under ``tmp/side``."""
    (tmp / side).mkdir()
    for name in CONFIGS:
        (tmp / f"{name}.cfg").write_text(identity.CONFIGS[name][0])
    return [["run", "--config", str(tmp / f"{name}.cfg"), "--set", f"output.format={fmt}",
             "--out", str(tmp / side / f"{name}.{fmt}")] for name, fmt in FILES]


def test_results_are_the_same_bytes_with_avx512_off(tmp_path, capsys):
    for argv in _argvs(tmp_path, "here"):
        assert main(argv) == 0
    capsys.readouterr()
    off = " ".join(identity._avx512_targets())
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = "import json, sys\nfrom uavsec.cli import main\nsys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    subprocess.run([sys.executable, "-c", script, json.dumps(_argvs(tmp_path, "off"))], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": off})
    for name, fmt in FILES:
        here, there = ((tmp_path / side / f"{name}.{fmt}").read_bytes() for side in ("here", "off"))
        assert here == there, f"{name} {fmt} differs with NPY_DISABLE_CPU_FEATURES={off!r}"
