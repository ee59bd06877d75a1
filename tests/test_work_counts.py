"""``tools/pairs.py``'s work counts: the lane-cycles that a sweep's iterating
blocks need and execute, and the grid points of its ``grid_oracle`` blocks,
pinned on the golden configs, a low-SNR sweep and the benchmark workloads."""

import pytest

from uavsec.harness import parse_config_text, run_experiment

from helpers import ROOT, load_tool

pairs = load_tool("pairs")
identity = load_tool("identity")


def _work(config: str, m=None) -> tuple[int, int, int]:
    cfg = parse_config_text(identity.CONFIGS[config][0])
    blocks = [block for block in run_experiment(cfg).blocks if m is None or block.m == m]
    work = pairs.work_counts(blocks, cfg.grid_step)
    return work["lane_cycles_needed"], work["lane_cycles_executed"], work["grid_points"]


def test_the_golden_configs_execute_only_the_cycles_they_need():
    # Every AIS and grid lane stops at cycle 2: 300 lanes of one M, and
    # 150 lanes of three M for each of two strategies, on a 1001-point grid.
    assert _work("golden-default") == (600, 600, 0)
    assert _work("golden-stress") == (900, 900, 3 * 150 * 1001)


def test_a_capped_block_executes_every_lane_to_the_cap():
    # At M = 2 some lanes hit the cap of 50, so all 300 lanes run 50 cycles.
    assert _work("low-snr-sweep") == (3631, 17_100, 0)
    assert _work("low-snr-sweep", m=2) == (1823, 15_000, 0)


@pytest.mark.parametrize("workload, counts", [
    ("flight_default", (600, 600, 0)),
    ("grid_oracle", (5200, 5200, 52_005_200)),
    ("array_power_sweep", (0, 0, 0)),
])
def test_the_benchmark_workloads_at_seed_0(workload, counts):
    # Through the hidden --src flag, in a fresh process, as the paired runs count.
    work = pairs.tree_work(ROOT, workload, 0)
    assert (work["lane_cycles_needed"], work["lane_cycles_executed"], work["grid_points"]) == counts
