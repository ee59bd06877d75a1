from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsec import power_allocation
from uavsec.beamforming import leakage_pair
from uavsec.geometry import (ArrayConfig, ConfigError, LinkState, ScenarioGeometry, array_separation, link_state_at,
                             sample_trajectory)
from uavsec.power_allocation import beta_grid_oracle, closed_form
from uavsec.harness import ExperimentConfig, dbm_to_mw, parse_config_text
from uavsec.rates import ProjectedPowers, split_rates

import oracle
from helpers import (flight_links, random_instance, random_link, random_pair, stack_links, stack_powers,
                     symmetric_link)
from oracle import RationalCoefficients, f_value, phi, rational_coefficients, stationary_points


def _oracle_instances():
    """The default flight across M, Ps and the incoming split, then random
    links with leakage-optimal or random vectors, then one link whose
    stationary quadratic is linear and one whose leading coefficient is 1. With an incoming split of 1, which the
    loop feeds back after an endpoint win, the AN vector's leakage into Bob
    dwarfs Bob's noise floor."""
    geom = ScenarioGeometry()
    noise = dbm_to_mw(-110.0)
    for m in (4, 8, 16, 32, 64, 128):
        arr = ArrayConfig(m)
        for ps_dbm in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0):
            for link in flight_links(geom, arr, noise, noise, dbm_to_mw(ps_dbm))[::10]:
                for beta in (0.1, 0.5, 1.0):
                    yield link, leakage_pair(link, beta)
    rng = np.random.default_rng(10)
    for i in range(300):
        yield random_instance(rng, i, (4, 8, 16)[i % 3], (0.0, 10.0, 20.0, 30.0)[i % 4])
    # w_b = 0 makes r2 = 0 and u_e = w_e makes r3 = 0, so q = 0 exactly while
    # h != 0: the one stationary point is the degenerate root.
    yield (LinkState(8, 10.0, 1e-4, 1e-4, 1e-11, 1e-11, 10.0),
           ProjectedPowers(u_b=6.0, w_b=0.0, u_e=0.5, w_e=0.5))
    # q = 1.0 exactly (u_b tuned to the ulp), where root2 wins near beta = 1.
    yield (LinkState(8, 49.834453035406064, 1e-4, 1e-4, 1e-11, 1e-11, 1.6888746193562834),
           ProjectedPowers(u_b=0.5291812277919429, w_b=0.22047290594454694, u_e=6.028104869398453,
                           w_e=4.305146505754226))


def test_float_solution_matches_exact_oracle():
    count = 0
    smallest_factor = 1.0
    labels = set()
    for link, powers in _oracle_instances():
        beta, f, _, _ = closed_form(link, powers)
        exact = oracle.optimal_beta(link, powers)
        assert abs(beta - exact.beta_star) <= 1e-12
        assert abs(f - exact.secrecy_rate_at_beta) <= 1e-10
        labels.add(exact.winning_candidate)
        # 1 + r2 = sigma2_b / den_b0 and 1 + r4 = sigma2_e / den_e0, the
        # interference-plus-noise factors that cancel as beta -> 1.
        for gain, w, sigma2 in ((link.g_ab, powers.w_b, link.sigma2_b),
                                (link.g_ae, powers.w_e, link.sigma2_e)):
            smallest_factor = min(smallest_factor, sigma2 / (gain * link.p_s * w + sigma2))
        count += 1
    assert count >= 1000
    # The default flight reaches the cancelling case.
    assert smallest_factor < 1e-8
    assert "degenerate_root" in labels


def _fold_one_call_per_candidate(link, powers):
    """``closed_form`` as it was before its candidates were stacked: each
    candidate scored by its own ``split_rates`` call, then the same fold.
    Also returns the winning slot per lane: 0 and 1 for the two roots and 2
    for the endpoint."""
    pa = power_allocation
    roots, real = pa._stationary_candidates(link, powers)
    candidates = [(np.minimum(beta, pa._BELOW_ONE), real & (0.0 < beta) & (beta <= 1.0))
                  for beta in roots] + [(1.0, True)]
    have, best_beta, best_f, best_slot = np.False_, np.nan, np.nan, 2
    for slot, (beta, valid) in enumerate(candidates):
        r_b, r_e = split_rates(link, powers, np.where(valid, beta, 1.0))
        value = r_b - r_e
        tie = abs(value - best_f) <= pa._TIE_BITS
        take = valid & (~have | np.where(tie, beta > best_beta, value > best_f))
        best_beta = np.where(take, beta, best_beta)
        best_f = np.where(take, value, best_f)
        best_slot = np.where(take, slot, best_slot)
        have = have | valid
    return best_beta, best_f, best_slot


def _stacked_instances():
    """Batched links: random instances, the default flight, and the low-SNR
    flight (-60 dBm noise, 0 dBm, M = 2) where AIS alternates near beta = 1."""
    rng = np.random.default_rng(15)
    instances = [random_instance(rng, i, 8, 20.0) for i in range(60)]
    links, powers = zip(*instances)
    yield stack_links(links), stack_powers(powers)
    yield from instances[:4]
    geom = ScenarioGeometry()
    traj = sample_trajectory(geom)
    for noise_dbm, m, powers_dbm in ((-110.0, 8, (10.0, 20.0, 30.0)), (-60.0, 2, (0.0, 10.0))):
        noise = dbm_to_mw(noise_dbm)
        p_s = np.array([dbm_to_mw(ps) for ps in powers_dbm])[:, None]
        link = link_state_at(traj, geom, ArrayConfig(m), noise, noise, p_s)
        for beta in (0.1, 0.5, 0.9189, 1.0):
            yield link, leakage_pair(link, beta)


def test_stacked_candidates_equal_one_call_each():
    slots = set()
    for link, powers in _stacked_instances():
        rows = closed_form(link, powers)
        beta, f, slot = _fold_one_call_per_candidate(link, powers)
        assert np.array_equal(rows[0].view(np.int64), beta.view(np.int64))
        assert np.array_equal(rows[1].view(np.int64), f.view(np.int64))
        slots.update(np.ravel(slot).tolist())
    # root2 and the endpoint each win somewhere.
    assert {1, 2} <= slots


def test_rows_take_the_shape_link_and_powers_broadcast_to():
    # A one-lane link against three lanes of powers: the candidates
    # broadcast to three lanes, so closed_form returns (4, 3) rows, and
    # each lane is bit for bit the call on that lane's powers alone, with
    # f exactly R_b - R_e.
    rng = np.random.default_rng(22)
    link = random_link(rng, 8, 20.0)
    lanes = [leakage_pair(link, beta) for beta in (0.2, 0.6, 1.0)]
    rows = closed_form(link, stack_powers(lanes))
    assert rows.shape == (4, 3)
    for i, powers in enumerate(lanes):
        alone = closed_form(link, powers)
        assert alone.shape == (4,)
        assert np.array_equal(rows[:, i].view(np.int64), alone.view(np.int64))
    assert np.array_equal(rows[1].view(np.int64), (rows[2] - rows[3]).view(np.int64))


# The lanes whose stationary equation is not a quadratic with real roots,
# with the oracle's label for each, then random lanes (label None).
LANE_KINDS = ("linear", "symmetric", "eve_gain_zero", "random")


@st.composite
def lanes(draw, m):
    """One (link, powers, kind) lane on an m-element array, drawn the way
    ``helpers.random_link`` draws links."""
    kind = draw(st.sampled_from(LANE_KINDS))
    p_s = 10.0 ** (draw(st.floats(0.0, 30.0)) / 10.0)
    theta_b, theta_e = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, np.pi))
    g_ab, g_ae = (10.0 ** draw(st.floats(-5.0, -3.0)) for _ in range(2))
    inv_snr_b, inv_snr_e = (10.0 ** draw(st.floats(-3.0, -1.0)) for _ in range(2))
    link = LinkState(m, array_separation(theta_b, theta_e, ArrayConfig(m)), g_ab, g_ae,
                     g_ab * p_s * m * inv_snr_b, g_ae * p_s * m * inv_snr_e, p_s)
    powers = leakage_pair(link, draw(st.floats(0.0, 1.0)))
    if kind == "linear":
        # w_b = 0 and u_e = w_e give q = 0 exactly, and h = -a_b a_e with
        # a_b = u_b / (m inv_snr_b) and a_e = w_e / (w_e + m inv_snr_e), so
        # 1e-10 < |h| < 1e6, well inside [2^-511, 2^512).
        u_b, w_e = (draw(st.floats(0.01, float(m))) for _ in range(2))
        powers = ProjectedPowers(u_b=u_b, w_b=0.0, u_e=w_e, w_e=w_e)
    elif kind == "symmetric":
        # Eve's link and powers are Bob's: h = c = 0.
        link = link._replace(g_ae=g_ab, sigma2_e=link.sigma2_b)
        powers = powers._replace(u_e=powers.u_b, w_e=powers.w_b)
    elif kind == "eve_gain_zero":
        # Eve's path gain underflowed: q = h = 0 while c != 0.
        link = link._replace(g_ae=0.0)
    return link, powers, kind


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 8, 64)).flatmap(lambda m: st.lists(lanes(m), min_size=1, max_size=6)))
def test_special_lanes_match_the_oracle(drawn):
    links, powers, kinds = zip(*drawn)
    rows = closed_form(stack_links(links), stack_powers(powers))
    for i, (link, lane_powers, kind) in enumerate(drawn):
        exact = oracle.optimal_beta(link, lane_powers)
        alone = closed_form(link, lane_powers)
        assert np.array_equal(rows[:, i].view(np.int64), alone.view(np.int64))
        assert abs(alone[0] - exact.beta_star) <= 1e-12
        assert abs(alone[1] - exact.secrecy_rate_at_beta) <= 1e-10
        if kind == "linear":
            assert stationary_points(exact.coefficients).beta3 is not None
        elif kind == "symmetric":
            assert exact.winning_candidate == "constant_function"
        elif kind == "eve_gain_zero":
            assert exact.winning_candidate == "endpoint_1"


def test_symmetric_links_give_constant_ratio():
    link = symmetric_link()
    powers = leakage_pair(link, 0.5)
    assert oracle.optimal_beta(link, powers).winning_candidate == "constant_function"
    beta, f, _, _ = closed_form(link, powers)
    assert beta == 1.0
    assert f == 0.0


def test_ratio_is_one_at_beta_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        link = random_link(rng, 8)
        coeffs = rational_coefficients(link, oracle.projected_powers(link, random_pair(rng, 8)))
        assert phi(coeffs, 0) == 1
        assert f_value(coeffs, 0) == 0.0
        assert coeffs.f == coeffs.c


def test_coefficient_identity_on_dense_grid():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 100)
    for i in range(10):
        link, powers = random_instance(rng, i, 8, 20.0)
        coeffs = rational_coefficients(link, powers)
        for beta in grid:
            r_b, r_e = split_rates(link, powers, float(beta))
            assert abs(f_value(coeffs, float(beta)) - (r_b - r_e)) <= 1e-9


def test_denominator_positive_on_unit_interval():
    rng = np.random.default_rng(2)
    for i in range(20):
        link, powers = random_instance(rng, i, 8, 20.0)
        coeffs = rational_coefficients(link, powers)
        for beta in np.linspace(0.0, 1.0, 50):
            b = Fraction(float(beta))
            assert (coeffs.d * b + coeffs.e) * b + coeffs.f > 0


def test_stationary_points_are_derivative_roots():
    rng = np.random.default_rng(3)
    checked = 0
    for i in range(40):
        link, powers = random_instance(rng, i, 8, 20.0)
        coeffs = rational_coefficients(link, powers)
        sp = stationary_points(coeffs)
        q = coeffs.a * coeffs.e - coeffs.b * coeffs.d
        lin = 2 * coeffs.c * (coeffs.a - coeffs.d)
        const = coeffs.c * (coeffs.b - coeffs.e)
        scale = max(abs(float(q)), abs(float(lin)), abs(float(const)))
        for beta in (sp.beta1, sp.beta2, sp.beta3):
            if beta is None:
                continue
            residual = float(q) * beta * beta + float(lin) * beta + float(const)
            assert abs(residual) <= 1e-8 * scale * max(1.0, beta * beta)
            checked += 1
    assert checked > 0


def test_negative_discriminant_has_no_roots():
    coeffs = RationalCoefficients(
        a=Fraction(-1), b=Fraction(2), c=Fraction(1),
        d=Fraction(-1), e=Fraction(0), f=Fraction(1),
    )
    sp = stationary_points(coeffs)
    assert sp.delta < 0
    assert sp.beta1 is None and sp.beta2 is None and sp.beta3 is None


def test_closed_form_matches_grid_search():
    rng = np.random.default_rng(4)
    step = 1e-4
    for i in range(60):
        link, powers = random_instance(rng, i, 8, 20.0)
        beta, f, _, _ = closed_form(link, powers)
        beta_g, f_g, _, _ = beta_grid_oracle(link, powers, step)
        assert abs(max(0.0, f) - max(0.0, f_g)) <= 1e-6
        if f > 1e-6:
            assert abs(beta - beta_g) <= step + 1e-12


def test_solution_rate_matches_rate_layer():
    rng = np.random.default_rng(5)
    for i in range(20):
        link, powers = random_instance(rng, i, 8, 10.0)
        beta, f, _, _ = closed_form(link, powers)
        r_b, r_e = split_rates(link, powers, beta)
        assert abs(f - (r_b - r_e)) <= 1e-9
        assert 0.0 < beta <= 1.0


def test_winning_candidate_labels_are_known():
    rng = np.random.default_rng(6)
    labels = set()
    for i in range(60):
        link, powers = random_instance(rng, i, 8, 20.0)
        label = oracle.optimal_beta(link, powers).winning_candidate
        labels.add(label)
        if label in ("root1", "root2"):
            assert closed_form(link, powers)[0] < 1.0
    assert labels <= {"root1", "root2", "degenerate_root", "endpoint_1", "constant_function"}
    assert labels & {"root1", "root2"}  # interior optima do occur


def test_root_within_one_ulp_of_one_is_kept():
    # At 300 dBm over a -300 dBm floor, vectors whose leakage nulls are
    # resolved only to rounding (here the vector reference's) put the
    # interior optimum within one ulp of 1: the root rounds to 1.0, and
    # scoring it at the endpoint, where the artificial noise vanishes
    # exactly, loses tens of bits.
    rng = np.random.default_rng(11)
    for _ in range(20):
        link = random_link(rng, 64)._replace(p_s=1e30, sigma2_b=1e-30, sigma2_e=1e-30)
        bf = oracle.leakage_pair(link, rng.uniform(0.05, 0.95))
        powers = oracle.projected_powers(link, bf)
        _, f_grid, _, _ = beta_grid_oracle(link, powers, 1e-4)
        assert closed_form(link, powers)[1] >= f_grid - 1e-9


def test_discriminant_negative_by_rounding_is_a_double_root():
    # At 300 dBm over a -300 dBm floor, random unit vectors can put a double
    # root of the stationary quadratic within ~1e-56 of beta = 1; there
    # h^2 - qc rounds to a few ulps below zero (instances 17, 27 and 38, by
    # -3.6e-16 to -1.2e-15 of h^2), and treating that as no root lost up to
    # 0.94 bits to the grid.
    rng = np.random.default_rng(11)
    for _ in range(40):
        link = random_link(rng, 64)._replace(p_s=1e30, sigma2_b=1e-30, sigma2_e=1e-30)
        powers = oracle.projected_powers(link, random_pair(rng, 64))
        _, f_grid, _, _ = beta_grid_oracle(link, powers, 1e-4)
        assert closed_form(link, powers)[1] >= f_grid - 1e-9


class TestGridOracle:
    def test_grid_beats_every_grid_point(self):
        rng = np.random.default_rng(7)
        link, powers = random_instance(rng, 0, 8, 20.0)
        beta_g, f_g, _, _ = beta_grid_oracle(link, powers, 1e-2)
        for beta in np.linspace(0.0, 1.0, 101):
            r_b, r_e = split_rates(link, powers, float(beta))
            assert f_g >= r_b - r_e - 1e-12

    def test_finer_grid_never_worse(self):
        rng = np.random.default_rng(8)
        for i in range(5):
            link, powers = random_instance(rng, i, 8, 20.0)
            _, coarse, _, _ = beta_grid_oracle(link, powers, 1e-2)
            _, fine, _, _ = beta_grid_oracle(link, powers, 1e-4)
            assert fine >= coarse - 1e-12

    def test_step_validated(self):
        rng = np.random.default_rng(9)
        link, powers = random_instance(rng, 0, 4, 10.0)
        with pytest.raises(ValueError):
            beta_grid_oracle(link, powers, 0.0)
        with pytest.raises(ValueError):
            beta_grid_oracle(link, powers, 0.5)

    def test_step_rule_is_the_config_keys(self):
        # One rule for the step, with the grid.step parser's message.
        link, powers = random_instance(np.random.default_rng(9), 0, 4, 10.0)
        with pytest.raises(ConfigError, match=r"^grid.step: 0.02 is outside \[1e-06, 0.01\]$"):
            beta_grid_oracle(link, powers, step=0.02)

    def test_step_is_one_over_an_integer(self):
        # The grid is {0, 1/n, ..., 1} with n = round(1/step): a step that is
        # not 1/n, such as 0.003 (n = 333, a 0.003003 grid), is rejected.
        link, powers = random_instance(np.random.default_rng(9), 0, 4, 10.0)
        for step in (1e-2, 5e-3, 2.5e-3, 1e-3, 1e-4, 0.0033333333333, 1e-6):
            assert parse_config_text(f"grid.step={step!r}").grid_step == step
            assert ExperimentConfig(grid_step=step).grid_step == step
        for step in (1e-2, 5e-3, 2.5e-3, 1e-3):
            beta, _, _, _ = beta_grid_oracle(link, powers, step=step)
            assert beta in np.linspace(0.0, 1.0, round(1 / step) + 1)
        for build in (lambda: parse_config_text("grid.step=0.003"), lambda: ExperimentConfig(grid_step=0.003),
                      lambda: beta_grid_oracle(link, powers, step=0.003)):
            with pytest.raises(ConfigError, match=r"^grid.step: 0.003 is not 1/n for an integer n$"):
                build()
        with pytest.raises(ConfigError, match=r"^grid.step: 0.00333333 is not 1/n for an integer n$"):
            parse_config_text("grid.step=0.00333333")

    def test_symmetric_links_zero_everywhere(self):
        link = symmetric_link()
        _, f_g, _, _ = beta_grid_oracle(link, leakage_pair(link, 0.3), 1e-3)
        assert abs(f_g) < 1e-12

    def test_no_positive_split_gives_beta_one(self):
        # Same direction, weaker Bob: every split in (0, 1] leaks more than
        # it delivers, so both searches fall back to beta=1.
        link = LinkState(num_antennas=8, separation=0.0, g_ab=1e-5, g_ae=1e-4,
                         sigma2_b=1e-9, sigma2_e=1e-9, p_s=10.0)
        powers = leakage_pair(link, 0.5)
        beta_g, f_g, _, _ = beta_grid_oracle(link, powers, 1e-3)
        beta, f, _, _ = closed_form(link, powers)
        assert beta_g == beta == 1.0
        assert f_g < 0.0
        assert abs(f_g - f) <= 1e-9
