"""Byte-identity matrix: the same configs through ``uavsec.cli.main``, hashed.

Runs a fixed list of configs, each as CSV and as JSON, through the CLI's
entry point in this process and prints one line per (config, format): the
exit code and the sha256 of the result file ("-" when none is written), of
stdout with the temporary directory written as ``<tmp>``, and of stderr
likewise. The configs are the three benchmark workloads (read from
``benchmarks/run.py``) at seeds 0, 3 and 7, the golden default and stress
configs, a low-SNR point and sweep, the mixed-strategy config, a sweep of
600-lane rate columns a quarter to three quarters of whose lanes are zeros
or exponent-form values (``long-mixed``: the digit tables' other lanes,
replaced from the %-format call, in every column), a spacing of 1.7
wavelengths (grating lobes), an SR-vs-M sweep, ``--set`` overrides, an
eavesdropper 1e200 m away, a tight-epsilon config whose points hit the
iteration cap, a config whose second power overflows, a config of valid
values in unusual spellings (``+8``, ``0_64``, ``1E-6``, ``.5``, ``-0.0``,
spaces around commas), a flight 10^9 m down the array axis whose bearings
are about 2e-8 rad, and configs that must end in one ``error:`` line, among
them an eavesdropper whose offset from the array overflows float64.

Usage::

    python tools/identity.py                 # the matrix on this tree's src
    python tools/identity.py --against DIR   # also on DIR/src; list what differs
    python tools/identity.py --dispatch      # also with AVX-512 off; list what differs

``--against`` runs the matrix on ``DIR/src`` in a subprocess and prints the
pairs of lines that differ, then how many. ``--dispatch`` runs it again on
this tree's src in a subprocess whose ``NPY_DISABLE_CPU_FEATURES`` switches
off numpy's AVX-512 kernels (every AVX-512 target in numpy's
``__cpu_dispatch__``, with ``X86_V4`` where numpy has it: ``AVX512F`` alone
leaves some kernels, ``np.arccos`` among them, on their AVX-512 path in
numpy 2.4), and lists the lines that differ by dispatch alone, so a
change's own differences can be told from the host's. On a host without
AVX-512 both runs take the same kernels and that list is empty.
Differences are a report: the exit code is 0 whenever the matrices ran.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import os
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
    # The golden stress config; tests/test_golden.py reads both golden configs here.
    "golden-stress": ("strategies=ais,grid_oracle,fixed:0.5\nsweep.antennas=4,64,256\nsweep.power_dbm=-10,20,50\n"
                      "geometry.flight_end=200,0,20\ngeometry.eve=203,1.5,0\n", []),
    "low-snr-point": (LOW_SNR + "sweep.power_dbm=0\nsweep.antennas=2\nstrategies=ais\n", []),
    "low-snr-sweep": (LOW_SNR + "sweep.power_dbm=0,10,20\nsweep.antennas=2,4,8,64\nstrategies=ais,fixed:0.5\n", []),
    "mixed": ("strategies=grid_oracle,fixed:0.5,ais,fixed:0.25\nsweep.antennas=64,4\nsweep.power_dbm=30,-20,10\n"
              "geometry.eve=-150,120,0\n", []),
    # Low powers: 600-lane R_b, R_e and R_s columns that take the digit
    # tables, with 25-73% of their lanes zeros or in exponent form.
    "long-mixed": ("strategies=fixed:0.5,ais\nsweep.power_dbm=-100,-95,-90,-85,-80,-75\n", []),
    "grating": ("array.spacing=1.7\nsweep.antennas=4,64\nstrategies=ais,fixed:0.5\ngeometry.eve=-150,120,0\n", []),
    "sr-vs-m": ("sweep.antennas=2,4,8,16,32,64,128,256,512,1024\n", []),
    "set-overrides": ("sweep.power_dbm=10,20\n", ["--set", "sweep.antennas=4,64", "--set", "sweep.power_dbm=-10,50"]),
    "eve-1e200": ("geometry.eve=1e200,0,0\n", []),
    "tight-epsilon-cap": ("ais.epsilon=1e-12\nsweep.power_dbm=0,10\nnoise.bob_dbm=-80\n", []),
    "overflow-second-power": ("geometry.reference_gain=1e290\nsweep.power_dbm=10,200\n", []),
    # Valid values spelled as the parsers accept them but serialize_config never writes them.
    "odd-spellings": ("sweep.antennas=+8,0_64\nais.epsilon=1E-6\nstrategies=fixed:.5, ais\n"
                      "geometry.eve=2e2, 0 ,-0.0\nsweep.power_dbm=1_0,2e1\nais.max_iterations=0050\n", []),
    # A flight 10^9 m down the array axis: bearings of about 2e-8 rad.
    "near-axis": ("geometry.flight_start=1e9,0,20\ngeometry.flight_end=1000000800,0,20\ngeometry.eve=200,0.5,0\n"
                  "sweep.power_dbm=60\nnoise.bob_dbm=-150\nnoise.eve_dbm=-150\nstrategies=ais\n", []),
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
    "error-eve-offset-overflow": ("geometry.alice=-1e308,0,0\ngeometry.eve=1e308,0,0\n"
                                  "geometry.flight_start=-1e308,0,20\ngeometry.flight_end=-1e308,800,20\n", []),
}


def load_benchmark(root: Path):
    """``root``'s ``benchmarks/run.py``, loaded as a module without running it."""
    spec = importlib.util.spec_from_file_location("benchmark_run", root / "benchmarks" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(bench)
    return bench


def _benchmark_configs() -> dict:
    """The benchmark workloads' configs at seeds 0, 3 and 7."""
    bench = load_benchmark(ROOT)
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


def _avx512_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__
            if (t == "X86_V4" or t.startswith("AVX512")) and umath.__cpu_features__.get(t)]


def _subprocess_matrix(src, env=None) -> list[str]:
    return subprocess.run([sys.executable, __file__, "--src", str(src)], check=True, capture_output=True,
                          text=True, env=env).stdout.splitlines()


def _report(theirs: list[str], ours: list[str], what: str):
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    print(f"{len(differ)} of {len(ours)} lines differ {what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", help="a checkout whose src to compare with")
    parser.add_argument("--dispatch", action="store_true",
                        help="compare with this tree's src run with numpy's AVX-512 kernels off")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import uavsec.cli

    if Path(uavsec.cli.__file__).resolve().parents[1] != Path(args.src).resolve():
        raise SystemExit(f"error: imported uavsec from {uavsec.cli.__file__}, not {args.src}")
    ours = matrix(uavsec.cli.main)
    if args.against is None and not args.dispatch:
        print("\n".join(ours))
        return 0
    if args.against is not None:
        _report(_subprocess_matrix(Path(args.against) / "src"), ours, f"from {args.against}")
    if args.dispatch:
        off = " ".join(_avx512_targets())
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": off}
        _report(_subprocess_matrix(args.src, env), ours, f"by dispatch alone (NPY_DISABLE_CPU_FEATURES={off!r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
