"""Property tests of the alternating loop on drawn links, with both PA steps.

Links are drawn the way ``helpers.random_link`` draws them: any pair of
directions, log-uniform path gains, and noise floors putting the full-array
SNR between ~10 and ~30 dB; ``extreme_links`` adds an absolute noise floor
and extreme powers and directions. The runs are derandomized so the suite
stays reproducible.
"""

import math
from functools import lru_cache, partial

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from uavsec.geometry import LinkState, ScenarioGeometry, array_separation
from uavsec.harness import dbm_to_mw
from uavsec.ais import AisConfig, beta_grid_oracle, closed_form, leakage_pair, optimize_point, split_rates

from helpers import flight_links, random_instance, stack_links

CFG = AisConfig()
GRID_STEP = 1e-3
PA_STEPS = {"closed_form": closed_form, "grid": partial(beta_grid_oracle, step=GRID_STEP)}


def secrecy(link, powers, beta):
    """The per-point secrecy rate max{0, R_b - R_e}, as a sweep reports it."""
    r_b, r_e = split_rates(link, powers, beta)
    return max(0.0, r_b - r_e)


@st.composite
def links(draw, antennas=st.sampled_from((4, 8, 16))):
    m = draw(antennas)
    p_s = 10.0 ** (draw(st.floats(0.0, 30.0)) / 10.0)
    theta_b, theta_e = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, math.pi))
    g_ab, g_ae = (10.0 ** draw(st.floats(-5.0, -3.0)) for _ in range(2))
    inv_snr_b, inv_snr_e = (10.0 ** draw(st.floats(-3.0, -1.0)) for _ in range(2))
    return LinkState(
        num_antennas=m,
        separation=array_separation(theta_b, theta_e, m, 0.5),
        g_ab=g_ab,
        g_ae=g_ae,
        sigma2_b=g_ab * p_s * m * inv_snr_b,
        sigma2_e=g_ae * p_s * m * inv_snr_e,
        p_s=p_s,
    )


property_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@property_settings
@given(link=links(), step=st.sampled_from(sorted(PA_STEPS)))
def test_loop_output_is_a_valid_point(link, step):
    powers, beta, trace = optimize_point(link, CFG, PA_STEPS[step])
    assert secrecy(link, powers, beta) >= 0.0
    assert all(math.isfinite(r) for r in split_rates(link, powers, beta))
    assert 0.0 < beta <= 1.0
    assert 1 <= trace.iterations_used <= CFG.max_iterations


@property_settings
@given(link=links(), step=st.sampled_from(sorted(PA_STEPS)))
def test_closed_form_at_least_grid_at_same_vectors(link, step):
    powers, _, _ = optimize_point(link, CFG, PA_STEPS[step])
    closed = closed_form(link, powers)[1]
    _, grid, _, _ = beta_grid_oracle(link, powers, GRID_STEP)
    assert closed >= grid - 1e-9


@property_settings
@given(link=links())
def test_ais_beats_fixed_splits_at_its_final_vectors(link):
    powers, beta, _ = optimize_point(link, CFG)
    for fixed in (0.5, 0.9):
        assert secrecy(link, powers, beta) >= secrecy(link, powers, fixed) - 1e-9


@property_settings
@given(link=links(), exponent=st.integers(-40, 40))
def test_joint_noise_and_power_scaling_leaves_the_point_unchanged(link, exponent):
    # The loop should see P_s and the noise only through their ratios. A
    # power-of-two factor rescales every float exactly, so only code that is
    # not scale-free can move the result. (A decimal factor also rounds, and
    # channels 1e-10 rad apart amplify that rounding: beta moved by 3e-4.)
    c = 2.0 ** exponent
    scaled = link._replace(sigma2_b=c * link.sigma2_b, sigma2_e=c * link.sigma2_e, p_s=c * link.p_s)
    powers, beta, _ = optimize_point(link, CFG)
    powers_c, beta_c, _ = optimize_point(scaled, CFG)
    assert abs(beta_c - beta) <= 1e-12
    assert abs(secrecy(scaled, powers_c, beta_c) - secrecy(link, powers, beta)) <= 1e-9


@st.composite
def extreme_links(draw):
    """Absolute -110 dBm noise with Ps from -30 to 80 dBm, path gains of a
    20-1000 m link, and Eve either endfire or within 1e-6 rad of Bob."""
    m = draw(st.sampled_from((4, 8, 64)))
    p_s = 10.0 ** (draw(st.floats(-30.0, 80.0)) / 10.0)
    theta_b = draw(st.floats(0.0, math.pi))
    offset = st.floats(-1e-6, 1e-6).map(lambda d: min(max(theta_b + d, 0.0), math.pi))
    theta_e = draw(st.one_of(st.sampled_from((0.0, math.pi)), offset))
    g_ab, g_ae = (draw(st.floats(20.0, 1000.0)) ** -2.0 for _ in range(2))
    return LinkState(
        num_antennas=m,
        separation=array_separation(theta_b, theta_e, m, 0.5),
        g_ab=g_ab,
        g_ae=g_ae,
        sigma2_b=1e-11,
        sigma2_e=1e-11,
        p_s=p_s,
    )


@property_settings
@given(link=extreme_links(), step=st.sampled_from(sorted(PA_STEPS)))
def test_extreme_inputs_give_a_valid_point(link, step):
    powers, beta, trace = optimize_point(link, CFG, PA_STEPS[step])
    rate_bob, rate_eve = split_rates(link, powers, beta)
    secrecy_rate = secrecy(link, powers, beta)
    assert all(math.isfinite(r) for r in (rate_bob, rate_eve, secrecy_rate))
    assert secrecy_rate >= 0.0
    assert 0.0 < beta <= 1.0
    assert 1 <= trace.iterations_used <= CFG.max_iterations


@st.composite
def contested_links(draw, m):
    """Eve 1e-3 to 0.3 rad from Bob with a far stronger link: the optimal
    split is often interior, and the loop can take many cycles to settle."""
    p_s = 10.0 ** (draw(st.floats(0.0, 30.0)) / 10.0)
    theta_b = draw(st.floats(0.5, math.pi - 0.5))
    theta_e = theta_b + draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3.0, -0.5))
    g_ab, g_ae = (10.0 ** draw(st.floats(-5.0, -3.0)) for _ in range(2))
    snr_b, snr_e = 10.0 ** draw(st.floats(-2.0, 3.0)), 10.0 ** draw(st.floats(3.0, 9.0))
    return LinkState(
        num_antennas=m,
        separation=array_separation(theta_b, theta_e, m, 0.5),
        g_ab=g_ab,
        g_ae=g_ae,
        sigma2_b=g_ab * p_s * m / snr_b,
        sigma2_e=g_ae * p_s * m / snr_e,
        p_s=p_s,
    )


@st.composite
def lane_batches(draw):
    """Two to six links on one array, as a sweep batches them."""
    m = draw(st.sampled_from((4, 8, 16)))
    return draw(st.lists(st.one_of(links(st.just(m)), contested_links(m)), min_size=2, max_size=6))


# The default loop, a tight tolerance under a short cap (lanes stop at
# different iterations, some at the cap) and a one-cycle cap.
LANE_CONFIGS = (CFG, AisConfig(epsilon=1e-12, max_iterations=3), AisConfig(epsilon=1e-300, max_iterations=1))


@property_settings
@given(lanes=lane_batches(), cfg=st.sampled_from(LANE_CONFIGS), step=st.sampled_from(sorted(PA_STEPS)))
def test_a_lane_in_a_batch_equals_the_lane_alone(lanes, cfg, step):
    batch = stack_links(lanes)
    powers, beta, trace = optimize_point(batch, cfg, PA_STEPS[step])
    r_b, r_e = split_rates(batch, powers, beta)
    for i, link in enumerate(lanes):
        powers_i, beta_i, trace_i = optimize_point(link, cfg, PA_STEPS[step])
        assert (beta[i], r_b[i], r_e[i]) == (beta_i, *split_rates(link, powers_i, beta_i))
        assert (trace.iterations_used[i], trace.converged[i]) == (trace_i.iterations_used, trace_i.converged)


@lru_cache(maxsize=None)
def _low_snr_flight(m, ps_dbm):
    """The default flight's lanes at -60 dBm noise, where the loop can
    alternate near beta = 1 until the cap."""
    noise = dbm_to_mw(-60.0)
    return tuple(flight_links(ScenarioGeometry(), m, 0.5, noise, noise, dbm_to_mw(ps_dbm)))


def low_snr_links(m):
    return st.builds(lambda ps_dbm, n: _low_snr_flight(m, ps_dbm)[n], st.sampled_from((0.0, 10.0)),
                     st.integers(0, 99))


def instance_links(m):
    """The links of ``helpers.random_instance``, from a drawn seed."""
    return st.integers(0, 2**32 - 1).map(lambda seed: random_instance(np.random.default_rng(seed), 0, m, 20.0)[0])


@st.composite
def rate_batches(draw):
    """Two to six random-instance, contested and low-SNR links on one array."""
    m = draw(st.sampled_from((2, 4, 8)))
    lanes = st.one_of(instance_links(m), contested_links(m), low_snr_links(m))
    return draw(st.lists(lanes, min_size=2, max_size=6))


@property_settings
@given(lanes=rate_batches(), cfg=st.sampled_from(LANE_CONFIGS), step=st.sampled_from(sorted(PA_STEPS)),
       incoming=st.sampled_from((0.1, 0.5, 0.9189, 1.0)))
def test_loop_rates_are_the_rates_at_its_split(lanes, cfg, step, incoming):
    # The loop hands back the rates its PA step scored at the split it chose,
    # with no second scoring: they are split_rates there, bit for bit.
    batch = stack_links(lanes)
    powers, beta, trace = optimize_point(batch, cfg, PA_STEPS[step])
    r_b, r_e = split_rates(batch, powers, beta)
    assert trace.rate_bob.tobytes() == r_b.tobytes()
    assert trace.rate_eve.tobytes() == r_e.tobytes()
    # The step's own contract, on the batch and on each lane alone, at the
    # leakage vectors of an incoming split: rows (split, f, R_b, R_e) with
    # R_b and R_e the rates at the split and f = R_b - R_e, bit for bit.
    for link in (batch, *lanes):
        powers = leakage_pair(link, incoming)
        split, f, r_b, r_e = PA_STEPS[step](link, powers)
        assert [np.asarray(v).tobytes() for v in (r_b, r_e)] == [
            np.asarray(v).tobytes() for v in split_rates(link, powers, split)]
        assert np.asarray(f).tobytes() == np.asarray(r_b - r_e).tobytes()
