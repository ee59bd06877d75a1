import numpy as np
import pytest

from uavsec.ais import AisConfig, optimize_point
from uavsec.beamforming import leakage_pair
from uavsec.geometry import ArrayConfig, ScenarioGeometry
from uavsec.power_allocation import optimal_beta
from uavsec.rates import split_rates

import oracle
from helpers import eve_silent_link, flight_links, random_link, symmetric_link
from oracle import f_value, rational_coefficients, stationary_points


def default_scenario_links(p_s=100.0, m=8, noise=1e-11):
    geom = ScenarioGeometry()
    arr = ArrayConfig(m)
    return flight_links(geom, arr, sigma2_b=noise, sigma2_e=noise, p_s=p_s)


def test_symmetric_links_converge_immediately():
    link = symmetric_link()
    _, _, trace = optimize_point(link)
    assert trace.converged
    assert trace.iterations_used == 1
    assert trace.iterations[-1].f_value == 0.0


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
        # Each cycle's vectors come from the split the previous cycle chose;
        # here they are built as vectors and projected.
        previous = AisConfig().beta_init
        for it in trace.iterations:
            powers = oracle.projected_powers(link, oracle.leakage_pair(link, previous))
            r_b, r_e = split_rates(link, powers, it.beta)
            direct = r_b - r_e
            assert abs(it.f_value - direct) <= 1e-9
            previous = it.beta


def test_final_split_optimal_for_final_vectors():
    rng = np.random.default_rng(1)
    for _ in range(10):
        link = random_link(rng, 8)
        powers, beta, trace = optimize_point(link)
        assert trace.converged
        pa = optimal_beta(link, powers)
        assert pa.beta_star == beta
        f_star = pa.secrecy_rate_at_beta
        assert f_star == trace.iterations[-1].f_value
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
