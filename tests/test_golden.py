"""Golden outputs: today's sweeps must reproduce the stored result files.

``golden/default.csv.gz`` is the empty config (900 rows). ``golden/stress.csv.gz``
runs every strategy at M 4/64/256 and Ps -10/20/50 dBm with the eavesdropper
next to a short flight line (675 rows). Row order and the iteration columns
must match exactly; beta and the three rates within 1e-9 absolute.

The benchmark's workloads, at its default seed, must also pass the
benchmark's own check against ``benchmarks/reference``: the rows it counts as
failed records are its correctness verdict.
"""

import gzip
import importlib.util
import sys
from pathlib import Path

import pytest

from uavsec.cli import main
from uavsec.harness import parse_config_text, run_experiment

from helpers import read_results_csv, records_of

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-9


def _benchmark():
    """``benchmarks/run.py``, loaded as a module without running it."""
    spec = importlib.util.spec_from_file_location("benchmark_run", Path(__file__).parents[1] / "benchmarks" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(bench)
    return bench


BENCH = _benchmark()

CONFIGS = {
    "default": "",
    "stress": (
        "strategies=ais,grid_oracle,fixed:0.5\n"
        "sweep.antennas=4,64,256\n"
        "sweep.power_dbm=-10,20,50\n"
        "geometry.flight_end=200,0,20\n"
        "geometry.eve=203,1.5,0\n"
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_matches_golden_file(name, tmp_path):
    stored = tmp_path / f"{name}.csv"
    stored.write_bytes(gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes()))
    want = read_results_csv(stored)
    got = records_of(run_experiment(parse_config_text(CONFIGS[name])))
    assert [(r.strategy, r.m, r.ps_dbm, r.n) for r in got] == [
        (r.strategy, r.m, r.ps_dbm, r.n) for r in want
    ]
    for g, w in zip(got, want):
        for field in ("beta", "rate_bob", "rate_eve", "secrecy"):
            assert abs(getattr(g, field) - getattr(w, field)) <= TOL, (g, w)
        assert (g.iterations, g.converged) == (w.iterations, w.converged), (g, w)


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_benchmark_workload_passes_its_reference_check(name, tmp_path, capsys):
    workload = BENCH.WORKLOADS[name]
    cfg_path = tmp_path / "workload.cfg"
    cfg_path.write_text(BENCH.config_text(workload, BENCH.eve_position(BENCH.DEFAULT_SEED)))
    out = tmp_path / f"results.{workload.fmt}"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = BENCH.read_rows(out, workload.fmt)
    assert BENCH.count_failures(workload, rows, BENCH.load_reference(workload)) == 0
