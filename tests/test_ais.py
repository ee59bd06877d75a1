import numpy as np
import pytest

from uavsec.ais import AisConfig, AisTrace, closed_form, leakage_pair, optimize_point, split_rates
from uavsec.geometry import ScenarioGeometry

import oracle
from helpers import eve_silent_link, flight_links, random_link, stack_links, symmetric_link
from oracle import f_value, rational_coefficients, stationary_points


def default_scenario_links(p_s=100.0, m=8, noise=1e-11):
    geom = ScenarioGeometry()
    return flight_links(geom, m, 0.5, sigma2_b=noise, sigma2_e=noise, p_s=p_s)


def test_symmetric_links_converge_immediately():
    link = symmetric_link()
    _, _, trace = optimize_point(link)
    assert trace.converged
    assert trace.iterations_used == 1
    assert trace.rate_bob - trace.rate_eve == 0.0


def test_default_scenario_converges_fast():
    for link in default_scenario_links()[::10]:
        _, _, trace = optimize_point(link)
        assert trace.converged
        assert trace.iterations_used <= 3


def test_trace_values_match_rate_layer():
    rng = np.random.default_rng(0)
    for _ in range(10):
        link = random_link(rng, 8)
        _, _, trace = optimize_point(link)
        # The loop is deterministic, so a run capped at k cycles ends on
        # cycle k's split and rates. Cycle k's vectors come from the split
        # cycle k - 1 chose; here they are built as vectors and projected.
        previous = AisConfig().beta_init
        for k in range(1, trace.iterations_used + 1):
            _, beta, run = optimize_point(link, AisConfig(max_iterations=k))
            assert run.iterations_used == k
            powers = oracle.projected_powers(link, oracle.leakage_pair(link, previous))
            r_b, r_e = split_rates(link, powers, beta)
            direct = r_b - r_e
            assert abs((run.rate_bob - run.rate_eve) - direct) <= 1e-9
            previous = beta


def test_final_split_optimal_for_final_vectors():
    rng = np.random.default_rng(1)
    for _ in range(10):
        link = random_link(rng, 8)
        powers, beta, trace = optimize_point(link)
        assert trace.converged
        beta_star, f_star, _, _ = closed_form(link, powers)
        assert beta_star == beta
        assert f_star == trace.rate_bob - trace.rate_eve
        coeffs = rational_coefficients(link, powers)
        assert f_star >= f_value(coeffs, 1.0) - 1e-9
        sp = stationary_points(coeffs)
        for beta in (sp.beta1, sp.beta2, sp.beta3):
            if beta is not None and 0.0 < beta < 1.0:
                assert f_star >= f_value(coeffs, beta) - 1e-9


def test_terminates_within_cap():
    rng = np.random.default_rng(2)
    cfg = AisConfig(max_iterations=10)
    for _ in range(20):
        link = random_link(rng, 8)
        _, _, trace = optimize_point(link, cfg)
        assert trace.iterations_used <= 10


def test_deterministic():
    rng = np.random.default_rng(3)
    link = random_link(rng, 8)
    powers1, beta1, t1 = optimize_point(link)
    powers2, beta2, t2 = optimize_point(link)
    assert beta1 == beta2
    assert split_rates(link, powers1, beta1) == split_rates(link, powers2, beta2)
    assert powers1 == powers2
    assert t1.iterations_used == t2.iterations_used


def test_soft_nonconvergence_with_tight_cap():
    rng = np.random.default_rng(4)
    # epsilon far below anything the first cycle can satisfy on a generic link
    cfg = AisConfig(beta_init=0.1, epsilon=1e-300, max_iterations=1)
    link = random_link(rng, 8)
    _, beta, trace = optimize_point(link, cfg)
    assert not trace.converged
    assert trace.iterations_used == 1
    assert 0.0 < beta <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        AisConfig(beta_init=0.0)
    with pytest.raises(ValueError):
        AisConfig(beta_init=1.0)
    with pytest.raises(ValueError):
        AisConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        AisConfig(max_iterations=0)


class TestBaseline:
    """A fixed split: the leakage vectors at that split, scored there."""

    def test_symmetric_links_zero_secrecy(self):
        link = symmetric_link()
        r_b, r_e = split_rates(link, leakage_pair(link, 0.5), 0.5)
        assert max(0.0, r_b - r_e) == 0.0

    def test_silent_eve_secrecy_equals_bob_rate(self):
        link = eve_silent_link()
        r_b, r_e = split_rates(link, leakage_pair(link, 0.9), 0.9)
        assert abs(max(0.0, r_b - r_e) - r_b) < 1e-12

    def test_vectors_match_single_alternating_cycle(self):
        rng = np.random.default_rng(5)
        link = random_link(rng, 8)
        cfg = AisConfig(beta_init=0.4, epsilon=1e-300, max_iterations=1)
        powers_ais, _, _ = optimize_point(link, cfg)
        assert leakage_pair(link, 0.4) == powers_ais


def test_a_scalar_link_is_one_lane():
    # The loop runs on flat 1-D lanes: a scalar link runs as one lane and
    # comes back as scalars, equal to that lane of a batch.
    link = random_link(np.random.default_rng(21), 8, 20.0)
    powers, beta, trace = optimize_point(link)
    powers_1, beta_1, trace_1 = optimize_point(stack_links([link]))
    alone = (beta, *powers, *trace)
    assert all(np.ndim(value) == 0 for value in alone)
    assert alone == (beta_1[0], *(p[0] for p in powers_1), *(v[0] for v in trace_1))
    assert (trace.rate_bob, trace.rate_eve) == split_rates(link, powers, beta)


def test_trace_is_the_final_state_per_lane():
    # The trace keeps no per-cycle history: per lane, the stop flag, the
    # cycle count and the rates at the final split, equal to that lane's
    # run alone.
    assert AisTrace._fields == ("converged", "iterations_used", "rate_bob", "rate_eve")
    rng = np.random.default_rng(23)
    links = [random_link(rng, 8, p_s_dbm) for p_s_dbm in (0.0, 20.0, 40.0)]
    _, _, batch = optimize_point(stack_links(links), AisConfig(max_iterations=3))
    assert all(np.shape(field) == (3,) for field in batch)
    for i, link in enumerate(links):
        _, _, alone = optimize_point(link, AisConfig(max_iterations=3))
        assert tuple(alone) == tuple(field[i] for field in batch)
