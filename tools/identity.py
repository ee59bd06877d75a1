"""Byte-identity matrix: the same configs through ``uavsec.cli.main``, hashed.

Runs a fixed list of configs, each as CSV and as JSON, through the CLI's
entry point in this process and prints one line per (config, format): the
exit code and the sha256 of the result file ("-" when none is written), of
stdout with the temporary directory written as ``<tmp>``, and of stderr
likewise. The configs are the three benchmark workloads (read from
``benchmarks/run.py``) at seeds 0, 3 and 7, the golden default and stress
configs, a low-SNR point and sweep, the mixed-strategy config, an SR-vs-M
sweep, ``--set`` overrides, an eavesdropper 1e200 m away, a tight-epsilon config whose points hit the
iteration cap, a config whose second power overflows, and configs that must
end in one ``error:`` line.

Usage::

    python tools/identity.py                 # the matrix on this tree's src
    python tools/identity.py --against DIR   # also on DIR/src; list what differs

``--against`` runs the matrix on ``DIR/src`` in a subprocess and prints the
pairs of lines that differ, then how many. Differences are a report: the
exit code is 0 whenever both matrices ran.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOW_SNR = "noise.bob_dbm=-60\nnoise.eve_dbm=-60\n"

# name -> (config text, extra CLI arguments after --out).
CONFIGS = {
    "golden-default": ("", []),
    # The stress config of tests/test_golden.py.
    "golden-stress": ("strategies=ais,grid_oracle,fixed:0.5\nsweep.antennas=4,64,256\nsweep.power_dbm=-10,20,50\n"
                      "geometry.flight_end=200,0,20\ngeometry.eve=203,1.5,0\n", []),
    "low-snr-point": (LOW_SNR + "sweep.power_dbm=0\nsweep.antennas=2\nstrategies=ais\n", []),
    "low-snr-sweep": (LOW_SNR + "sweep.power_dbm=0,10,20\nsweep.antennas=2,4,8,64\nstrategies=ais,fixed:0.5\n", []),
    "mixed": ("strategies=grid_oracle,fixed:0.5,ais,fixed:0.25\nsweep.antennas=64,4\nsweep.power_dbm=30,-20,10\n"
              "geometry.eve=-150,120,0\n", []),
    "sr-vs-m": ("sweep.antennas=2,4,8,16,32,64,128,256,512,1024\n", []),
    "set-overrides": ("sweep.power_dbm=10,20\n", ["--set", "sweep.antennas=4,64", "--set", "sweep.power_dbm=-10,50"]),
    "eve-1e200": ("geometry.eve=1e200,0,0\n", []),
    "tight-epsilon-cap": ("ais.epsilon=1e-12\nsweep.power_dbm=0,10\nnoise.bob_dbm=-80\n", []),
    "overflow-second-power": ("geometry.reference_gain=1e290\nsweep.power_dbm=10,200\n", []),
    # Each of these ends in one error: line.
    "error-antennas": ("sweep.antennas=1\n", []),
    "error-speed": ("geometry.speed=0\n", []),
    "error-spacing": ("array.spacing=1e20\n", []),
    "error-dbm": ("noise.eve_dbm=-4000\n", []),
    "error-iterations": ("ais.max_iterations=0\n", []),
    "error-split": ("strategies=ais,fixed:1\n", []),
    "error-grid-step-range": ("grid.step=0.02\n", []),
    "error-grid-step-not-1/n": ("strategies=grid_oracle\ngrid.step=0.003\n", []),
    "error-duplicates": ("sweep.power_dbm=10,10\n", []),
    "error-long-value": ("sweep.antennas=" + "1" * 5000 + "\n", []),
    "error-dense-sampling": ("geometry.sample_interval=1e-5\n", []),
    "error-alice-on-flight": ("geometry.alice=8.0,0.0,20.0\n", []),
    "error-eve-gain": ("geometry.eve=1e-200,0,0\n", []),
    "error-unknown-key": ("bogus.key=1\n", []),
    "error-no-equals": ("just words\n", []),
    "error-empty-output-path": ("", ["--set", "output.path="]),
    "error-grid-step-tiny": ("strategies=grid_oracle\ngrid.step=5e-324\n", []),
    "error-long-output-path": ("", ["--out", "o" * 300 + ".csv"]),
}


def _benchmark_configs() -> dict:
    """The benchmark workloads' configs at seeds 0, 3 and 7."""
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmarks" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(bench)
    return {f"{name}-seed{seed}": (bench.config_text(workload, bench.eve_position(seed)), [])
            for name, workload in bench.WORKLOADS.items() for seed in (0, 3, 7)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix(main) -> list[str]:
    """One line per (config, format), run through ``main``, the CLI's."""
    lines = []
    for name, (text, extra) in {**_benchmark_configs(), **CONFIGS}.items():
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as tmp:
                cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / f"results.{fmt}"
                cfg.write_text(text)
                argv = ["run", "--config", str(cfg), "--set", f"output.format={fmt}", "--out", str(out), *extra]
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except (Exception, SystemExit) as exc:  # a traceback is a result too
                        code = f"raised-{type(exc).__name__}"
                        print(exc, file=sys.stderr)
                result = _digest(out.read_bytes()) if out.is_file() else "-"
                streams = [_digest(s.getvalue().replace(tmp, "<tmp>").encode()) for s in (stdout, stderr)]
            lines.append(f"{name} {fmt} exit={code} file={result} stdout={streams[0]} stderr={streams[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", help="a checkout whose src to compare with")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import uavsec.cli

    if Path(uavsec.cli.__file__).resolve().parents[1] != Path(args.src).resolve():
        raise SystemExit(f"error: imported uavsec from {uavsec.cli.__file__}, not {args.src}")
    ours = matrix(uavsec.cli.main)
    if args.against is None:
        print("\n".join(ours))
        return 0
    theirs = subprocess.run([sys.executable, __file__, "--src", str(Path(args.against) / "src")],
                            check=True, capture_output=True, text=True).stdout.splitlines()
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    print(f"{len(differ)} of {len(ours)} lines differ from {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
