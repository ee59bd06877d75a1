"""Batched lanes against the same lanes evaluated one at a time.

A sweep evaluates every sample point and transmit power of an antenna count
as one lane array; each lane must come out exactly as it would alone,
whatever the other lanes do and wherever a chunk boundary falls.
"""

import math

import numpy as np
import pytest

from uavsec import ArrayConfig, array_separation, beta_grid_oracle, leakage_pair, optimal_beta
from uavsec import geometry

from helpers import eve_silent_link, random_instance, stack_links, stack_powers, symmetric_link


def test_chunked_separation_equals_unchunked(monkeypatch):
    rng = np.random.default_rng(12)
    arr = ArrayConfig(1025)
    theta_b = rng.uniform(0.0, math.pi, 200)
    # 1024 terms per point: the 200 points span several chunks.
    assert geometry.CHUNK_ELEMENTS // 1024 < len(theta_b)
    chunked = array_separation(theta_b, 1.2, arr)
    monkeypatch.setattr(geometry, "CHUNK_ELEMENTS", 1 << 30)
    unchunked = array_separation(theta_b, 1.2, arr)
    assert np.array_equal(chunked, unchunked)
    assert [array_separation(t, 1.2, arr) for t in theta_b] == chunked.tolist()


def test_power_allocation_lanes_match_per_lane():
    rng = np.random.default_rng(13)
    instances = [random_instance(rng, i, 8, 20.0) for i in range(40)]
    links, powers = zip(*instances)
    batch, batch_powers = stack_links(links), stack_powers(powers)
    sol = optimal_beta(batch, batch_powers)
    assert {"root1", "root2"} & set(sol.winning_candidate)
    for i, (link, p) in enumerate(instances):
        alone = optimal_beta(link, p)
        assert (sol.beta_star[i], sol.secrecy_rate_at_beta[i], sol.winning_candidate[i]) == (
            alone.beta_star, alone.secrecy_rate_at_beta, alone.winning_candidate)
    # Several lanes per chunk on the coarser grid, one on the finer.
    for step in (1e-3, 1e-4):
        beta_g, f_g = beta_grid_oracle(batch, batch_powers, step)
        for i, (link, p) in enumerate(instances):
            assert (beta_g[i], f_g[i]) == beta_grid_oracle(link, p, step)


def test_range_checks_cover_every_lane():
    link = stack_links([symmetric_link(), eve_silent_link()])
    with pytest.raises(ValueError, match="g_ab"):
        link._replace(g_ab=np.array([1e-4, 0.0]))
    with pytest.raises(ValueError):
        leakage_pair(link, np.array([0.5, 1.5]))
