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
records of each side. Then it prints each side's work on the workload,
counted from one in-process run of the workload's config at the runs' seed
with that tree's ``src`` (in a subprocess, through the hidden ``--src``
flag): the lane-cycles the iterating blocks need (every lane's cycle count,
summed), the lane-cycles they execute (a block runs all its lanes until its
last one stops: its largest count times its lanes), and the grid points of
the ``grid_oracle`` blocks (their executed lane-cycles times the round(1/step)
+ 1 points of the grid). Timings vary from host to host; these counts do not.

``--json PATH`` also writes the same figures as JSON (each side's median,
q1, q3 and n per metric, the pairs the change wins, the failed records, the
``work`` counts),
with a ``meta`` block: each tree's ``git rev-parse HEAD`` ("unknown" for a
tree that is not a git checkout, with ``-dirty`` appended when its ``src``
or ``benchmarks`` has uncommitted changes) and ``src`` code and physical
lines, as they were before the first run, the Python and numpy versions, the usable CPU count, the run length
in seconds passed to every run (``--seconds``, by default
``BENCHMARK.json``'s ``run_seconds``), and the seed that the runs' own
``meta`` lines report (a list of the seeds where they differ).

Usage::

    python tools/pairs.py --against DIR                       # flight_default, 10 pairs
    python tools/pairs.py --against DIR --workload array_power_sweep --pairs 5 --seconds 5 --seed 3
    python tools/pairs.py --against DIR --seed 0 --json pairs.json

The exit code is 0 whenever every run wrote a result line: the numbers are
a report, not a gate.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from code_lines import count

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(tree: Path, workload: str, extra: list[str]) -> tuple[dict, dict]:
    """The result line (the last line of output) of one benchmark run in
    ``tree``, and its ``meta`` line (the one before it, after ``meta``)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--trace", "0", *extra],
                         cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    *_, meta, result = out.strip().splitlines()
    return json.loads(result), json.loads(meta.removeprefix("meta "))


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and count, the quartiles as the benchmark computes them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(stats: dict) -> str:
    """``median [q1, q3]``, or the one value of a single run."""
    if stats["n"] < 2:
        return f"{stats['median']:.6g}"
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"


def summarize(runs: dict, better: dict) -> dict:
    """One workload's figures: the failed records of each side, and per
    metric each side's quartiles and the pairs the change wins."""
    parent, change = runs["parent"], runs["change"]
    metrics = {}
    for name, metric in change[0]["metrics"].items():
        ours = [r["metrics"][name]["value"] for r in change]
        theirs = [r["metrics"][name]["value"] for r in parent]
        lower = better.get(name, "lower") == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(theirs, ours))
        metrics[name] = {"unit": metric["unit"], "better": "lower" if lower else "higher",
                         "parent": quartiles(theirs), "change": quartiles(ours), "change_better": wins}
    return {"pairs": len(change),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in ("parent", "change")},
            "metrics": metrics}


def report(workload: str, summary: dict) -> list[str]:
    """The printed lines for one workload's figures."""
    failed, n = summary["failed"], summary["pairs"]
    lines = [f"{workload}: {n} pairs; failed records: parent {failed['parent']}, change {failed['change']}"]
    for name, m in summary["metrics"].items():
        lines.append(f"  {name} ({m['unit']}, {m['better']} is better): parent {spread(m['parent'])}, "
                     f"change {spread(m['change'])}; change better in {m['change_better']}/{n}")
    for side in ("parent", "change"):
        work = summary["work"][side]
        lines.append(f"  work ({side}): lane-cycles needed {work['lane_cycles_needed']}, "
                     f"executed {work['lane_cycles_executed']}; grid points {work['grid_points']}")
    return lines


def work_counts(blocks, grid_step: float) -> dict:
    """Lane-cycles needed and executed by a sweep's iterating blocks, and the
    grid points that its ``grid_oracle`` blocks score (see the module text).
    Blocks that do not iterate (fixed splits) count nothing."""
    needed = executed = grid_points = 0
    for block in blocks:
        if block.iterations is None:
            continue
        cycles = int(block.iterations.max()) * block.iterations.size
        needed += int(block.iterations.sum())
        executed += cycles
        if block.strategy == "grid_oracle":
            grid_points += cycles * (round(1.0 / grid_step) + 1)
    return {"lane_cycles_needed": needed, "lane_cycles_executed": executed, "grid_points": grid_points}


def src_work(src: Path, workload: str, seed: int) -> dict:
    """``work_counts`` of one run, in this process, of ``workload``'s config
    at ``seed`` on the package under ``src``; the config comes from the
    ``benchmarks/run.py`` next to ``src``."""
    sys.path.insert(0, str(src))
    from uavsec.harness import parse_config_text, run_experiment

    if Path(run_experiment.__code__.co_filename).resolve().parents[1] != src:
        raise SystemExit(f"error: imported uavsec from {run_experiment.__code__.co_filename}, not {src}")
    spec = importlib.util.spec_from_file_location("benchmark_run", src.parent / "benchmarks" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(bench)
    cfg = parse_config_text(bench.config_text(bench.WORKLOADS[workload], bench.eve_position(seed)))
    return work_counts(run_experiment(cfg).blocks, cfg.grid_step)


def tree_work(tree: Path, workload: str, seed: int) -> dict:
    """``src_work`` on ``tree``'s ``src``, in a fresh process."""
    out = subprocess.run([sys.executable, __file__, "--src", str(tree / "src"), "--workload", workload,
                          "--seed", str(seed)], check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def tree_meta(tree: Path) -> dict:
    """A tree's commit and its ``src`` code and physical lines. The commit is
    ``"unknown"`` outside a git checkout of the tree, and ends ``-dirty``
    when ``src`` or ``benchmarks`` differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)

    head = git("rev-parse", "--show-toplevel", "HEAD")
    top, _, rev = head.stdout.strip().partition("\n")
    if head.returncode or Path(top).resolve() != tree:
        rev = "unknown"
    elif git("status", "--porcelain", "--", "src", "benchmarks").stdout:
        rev += "-dirty"
    counts = [count(path) for path in sorted((tree / "src").rglob("*.py"))]
    return {"rev": rev, "src_code_lines": sum(c for c, _ in counts),
            "src_physical_lines": sum(p for _, p in counts)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR", help="the parent's checkout (required)")
    parser.add_argument("--workload", action="append", help="a benchmark workload (repeatable; "
                        "default flight_default)")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload (default 10)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="passed to benchmarks/run.py (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, help="passed to benchmarks/run.py (default: its own)")
    parser.add_argument("--json", metavar="PATH", help="also write the figures and run metadata here")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.src is not None:
        seed = 0 if args.seed is None else args.seed
        print(json.dumps(src_work(args.src.resolve(), (args.workload or ["flight_default"])[0], seed)))
        return 0
    if args.against is None:
        parser.error("the following arguments are required: --against")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"change": ROOT, "parent": Path(args.against).resolve()}
    for tree in trees.values():
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"no benchmarks/run.py under {tree}")
        for part in ("src", "benchmarks"):
            compileall.compile_dir(tree / part, quiet=1)
    # Read before the runs, so that an edit made while they run cannot pass
    # for the code that ran.
    tree_metas = {side: tree_meta(tree) for side, tree in trees.items()}
    extra = [f"--{name}={value}" for name, value in (("seconds", args.seconds), ("seed", args.seed))
             if value is not None]
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    results, seeds = {}, set()
    for workload in args.workload or ["flight_default"]:
        runs = {"change": [], "parent": []}
        for i in range(args.pairs):
            for side in ("change", "parent") if i % 2 else ("parent", "change"):
                result, run_meta = run_benchmark(trees[side], workload, extra)
                runs[side].append(result)
                seeds.add(run_meta["seed"])
        work = {side: tree_work(trees[side], workload, run_meta["seed"]) for side in ("parent", "change")}
        results[workload] = {**summarize(runs, better), "work": work}
        print("\n".join(report(workload, results[workload])), flush=True)
    if args.json:
        meta = {**tree_metas,
                "python": platform.python_version(), "numpy": metadata.version("numpy"),
                "nproc": len(os.sched_getaffinity(0)), "seconds": args.seconds,
                "seed": seeds.pop() if len(seeds) == 1 else sorted(seeds)}
        Path(args.json).write_text(json.dumps({"meta": meta, "workloads": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
