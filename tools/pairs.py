"""Parent-versus-change timing: the benchmark run in two trees, in pairs.

Runs ``benchmarks/run.py --workload W --trace 0`` in this tree and in
another checkout (``--against DIR``), one after the other, ``--pairs`` times
per workload; the side that runs first alternates from pair to pair, so a
drift in machine speed falls on both sides alike. Before the first run,
both trees' ``src`` and ``benchmarks`` are byte-compiled, and every run
keeps its bytecode caches (``PYTHONDONTWRITEBYTECODE`` is cleared), so the
two sides import from the same cache state.

For each workload it prints, per metric of the result line, the median and
quartiles [q1, q3] of each side's values over its runs, and in how many
pairs the change's value is better, with "better" as ``BENCHMARK.json``
states it (lower where a metric is not listed there), and the failed
records of each side.

Usage::

    python tools/pairs.py --against DIR                       # flight_default, 10 pairs
    python tools/pairs.py --against DIR --workload array_power_sweep --pairs 5 --seconds 5 --seed 3

The exit code is 0 whenever every run wrote a result line: the numbers are
a report, not a gate.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(tree: Path, workload: str, extra: list[str]) -> dict:
    """The result line (the last line of output) of one benchmark run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--trace", "0", *extra],
                         cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    """``median [q1, q3]``, the quartiles as the benchmark computes them."""
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def report(workload: str, runs: dict, better: dict) -> list[str]:
    """The lines for one workload: per metric, each side's spread and the
    pairs the change wins."""
    parent, change = runs["parent"], runs["change"]
    lines = [f"{workload}: {len(change)} pairs; failed records: parent "
             f"{sum(r['failed'] for r in parent)}, change {sum(r['failed'] for r in change)}"]
    for name, metric in change[0]["metrics"].items():
        ours = [r["metrics"][name]["value"] for r in change]
        theirs = [r["metrics"][name]["value"] for r in parent]
        lower = better.get(name, "lower") == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(theirs, ours))
        lines.append(f"  {name} ({metric['unit']}, {'lower' if lower else 'higher'} is better): "
                     f"parent {spread(theirs)}, change {spread(ours)}; change better in {wins}/{len(ours)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", required=True, help="the parent's checkout")
    parser.add_argument("--workload", action="append", help="a benchmark workload (repeatable; "
                        "default flight_default)")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload (default 10)")
    parser.add_argument("--seconds", type=int, help="passed to benchmarks/run.py (default: its own)")
    parser.add_argument("--seed", type=int, help="passed to benchmarks/run.py (default: its own)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"change": ROOT, "parent": Path(args.against).resolve()}
    for tree in trees.values():
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"no benchmarks/run.py under {tree}")
        for part in ("src", "benchmarks"):
            compileall.compile_dir(tree / part, quiet=1)
    extra = [f"--{name}={value}" for name, value in (("seconds", args.seconds), ("seed", args.seed))
             if value is not None]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    for workload in args.workload or ["flight_default"]:
        runs = {"change": [], "parent": []}
        for i in range(args.pairs):
            for side in ("change", "parent") if i % 2 else ("parent", "change"):
                runs[side].append(run_benchmark(trees[side], workload, extra))
        print("\n".join(report(workload, runs, better)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
