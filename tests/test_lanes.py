"""Batched lanes against the same lanes evaluated one at a time.

A sweep evaluates every sample point and transmit power of an antenna count
as one lane array; each lane must come out exactly as it would alone,
whatever the other lanes do and wherever a chunk boundary falls.
"""

import math

import numpy as np
import pytest

from uavsec import ais
from uavsec.geometry import array_separation
from uavsec.ais import beta_grid_oracle, closed_form, leakage_pair

import oracle
from helpers import eve_silent_link, random_instance, stack_links, stack_powers, symmetric_link


def test_batched_separation_equals_per_point():
    rng = np.random.default_rng(12)
    theta_b = rng.uniform(0.0, math.pi, 200)
    batch = array_separation(theta_b, 1.2, 1025, 0.5)
    assert [array_separation(t, 1.2, 1025, 0.5) for t in theta_b] == batch.tolist()


def test_chunked_grid_oracle_equals_one_chunk(monkeypatch):
    rng = np.random.default_rng(14)
    links, powers = zip(*(random_instance(rng, i, 8, 20.0) for i in range(40)))
    batch, batch_powers = stack_links(links), stack_powers(powers)
    # 1001 grid points per lane: the 40 lanes span at least three chunks.
    assert ais.CHUNK_ELEMENTS // 1001 < 20
    chunked = beta_grid_oracle(batch, batch_powers, 1e-3)
    monkeypatch.setattr(ais, "CHUNK_ELEMENTS", 1 << 30)
    one_chunk = beta_grid_oracle(batch, batch_powers, 1e-3)
    assert [a.tobytes() for a in chunked] == [a.tobytes() for a in one_chunk]


def test_power_allocation_lanes_match_per_lane():
    rng = np.random.default_rng(13)
    instances = [random_instance(rng, i, 8, 20.0) for i in range(40)]
    links, powers = zip(*instances)
    batch, batch_powers = stack_links(links), stack_powers(powers)
    assert {"root1", "root2"} & {oracle.optimal_beta(link, p).winning_candidate for link, p in instances}
    rows = closed_form(batch, batch_powers)
    for i, (link, p) in enumerate(instances):
        assert rows[:, i].tobytes() == closed_form(link, p).tobytes()
    # Several lanes per chunk on the coarser grid, one on the finer.
    for step in (1e-3, 1e-4):
        grid = beta_grid_oracle(batch, batch_powers, step)
        for i, (link, p) in enumerate(instances):
            assert tuple(v[i] for v in grid) == beta_grid_oracle(link, p, step)


def test_range_checks_cover_every_lane():
    link = stack_links([symmetric_link(), eve_silent_link()])
    with pytest.raises(ValueError, match="g_ab"):
        link._replace(g_ab=np.array([1e-4, 0.0]))
    with pytest.raises(ValueError):
        leakage_pair(link, np.array([0.5, 1.5]))


def test_steered_link_lanes_leave_out_its_vectors():
    # A SteeredLink's lane shape is its LinkState fields' alone, so 3 lanes
    # build at M = 8, whose two steering vectors hold 8 entries each.
    link = oracle.steered_link(math.pi / 2, 1.2, 8, 0.5, g_ab=np.full(3, 1e-4), g_ae=1e-4,
                               sigma2_b=1e-11, sigma2_e=1e-11, p_s=1.0)
    assert link.shape == (3,)
