import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavsec import geometry
from uavsec.geometry import (
    ConfigError,
    LinkState,
    ScenarioGeometry,
    _direction_angle,
    array_separation,
    path_loss,
    sample_trajectory,
)

from oracle import steering_vector, summed_separation

EPS = 2.0**-52


class TestSteeringVector:
    def test_broadside_all_ones(self):
        h = steering_vector(math.pi / 2, 4, 0.5)
        assert np.allclose(h, np.ones(4), atol=1e-12)

    def test_norm_is_sqrt_m(self):
        for theta in (0.0, 0.3, 1.1, 2.9, math.pi):
            h = steering_vector(theta, 8, 0.5)
            assert abs(np.linalg.norm(h) - math.sqrt(8)) < 1e-12

    def test_unit_modulus_entries(self):
        h = steering_vector(0.7, 16, 0.5)
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)

    def test_two_element_closed_form(self):
        # theta=pi/3, M=2, d/lambda=0.5: phases are +/- pi/4
        h = steering_vector(math.pi / 3, 2, 0.5)
        expected = np.array([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
        assert np.allclose(h, expected, atol=1e-12)

    def test_out_of_range_theta_rejected(self):
        with pytest.raises(ValueError):
            steering_vector(-0.1, 4, 0.5)
        with pytest.raises(ValueError):
            steering_vector(math.pi + 0.1, 4, 0.5)

    def test_conjugate_symmetry_about_center(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, math.pi, size=20):
            h = steering_vector(theta, 9, 0.5)
            assert np.allclose(h, np.conj(h[::-1]), atol=1e-12)


def separation_tolerance(m, spacing, theta_b, theta_e, d):
    """How far the closed-form D and the summed oracle may differ.

    Both see the directions through y = pi (d/lambda)(cos theta_b -
    cos theta_e), which carries a rounding of a few ulp of |y|, and its
    distance e from the nearest multiple of pi (the main or a grating lobe).
    That moves D by up to |dD/de| ~ M^3 min(1, M |e|) times it; each form
    also rounds D itself to a few ulp.
    """
    y = -2.0 * math.pi * spacing * math.sin(0.5 * (theta_b + theta_e)) * math.sin(0.5 * (theta_b - theta_e))
    e = y - math.pi * round(y / math.pi)
    return 8 * EPS * (d + abs(y) * m**3 * min(1.0, m * (abs(e) + EPS * abs(y))))


@st.composite
def separation_cases(draw):
    """(M, d/lambda, theta_b, theta_e): any two directions; or y within 10^-12
    to 3 of the main lobe (k = 0) or a grating lobe (k != 0) in units of 1/M,
    which puts |M e| on both sides of the series branch at 1."""
    m = draw(st.integers(2, 4096))
    kind = draw(st.sampled_from(("any", "main lobe", "grating lobe")))
    spacing = draw(st.floats(0.5 if kind == "grating lobe" else 0.05, 2.0))
    if kind == "any":
        return m, spacing, draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, math.pi))
    lobes = int(2 * spacing)
    k = 0 if kind == "main lobe" else draw(st.integers(1, lobes)) * draw(st.sampled_from((-1, 1)))
    me = draw(st.sampled_from((-1, 1))) * 10.0 ** draw(st.floats(-12.0, 0.5))
    # cos theta_b - cos theta_e = delta, with both cosines in [-1, 1].
    delta = (k + me / (math.pi * m)) / spacing
    assume(abs(delta) <= 2.0)
    cos_b = -1.0 + max(delta, 0.0) + draw(st.floats(0.0, 1.0)) * (2.0 - abs(delta))
    cos_e = cos_b - delta
    return m, spacing, math.acos(min(1.0, max(-1.0, cos_b))), math.acos(min(1.0, max(-1.0, cos_e)))


class TestArraySeparation:
    def test_matches_steering_vectors(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 8, 64, 1024):
            spacing = rng.uniform(0.1, 1.0)
            for theta_b, theta_e in rng.uniform(0, math.pi, size=(20, 2)):
                h_b, h_e = steering_vector(theta_b, m, spacing), steering_vector(theta_e, m, spacing)
                d = m * m - abs(np.vdot(h_e, h_b)) ** 2
                assert abs(array_separation(theta_b, theta_e, m, spacing) - d) <= 1e-12 * m * m

    def test_near_parallel_limit(self):
        # D -> M^2 (M^2 - 1) y^2 / 3 as y -> 0, where M^2 - |h_e^H h_b|^2
        # from the vectors is all rounding error.
        rng = np.random.default_rng(4)
        for m in (2, 4, 64, 1024):
            for theta_b in rng.uniform(0.1, math.pi - 0.1, size=10):
                theta_e = theta_b + 10.0 ** rng.uniform(-14, -9)
                y = 2.0 * math.pi * 0.5 * math.sin(0.5 * (theta_b + theta_e)) \
                    * math.sin(0.5 * (theta_e - theta_b))
                assert (m * y) ** 2 <= 1e-13
                limit = m * m * (m * m - 1) * y * y / 3.0
                d = array_separation(theta_b, theta_e, m, 0.5)
                assert abs(d - limit) <= 1e-12 * limit

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=separation_cases())
    def test_matches_summed_oracle(self, case):
        m, spacing, theta_b, theta_e = case
        closed = array_separation(theta_b, theta_e, m, spacing)
        summed = summed_separation(theta_b, theta_e, m, spacing)
        assert abs(closed - summed) <= separation_tolerance(m, spacing, theta_b, theta_e, summed)

    def test_million_elements_match_summed_oracle(self):
        # A generic pair, a near-parallel one (|My| ~ 0.01) and one at the
        # series' edge (|My| ~ 0.8).
        m = 1_000_000
        for theta_e in (2.0, 1.0 + 1e-8, 1.0 + 6e-7):
            summed = summed_separation(1.0, theta_e, m, 0.5)
            closed = array_separation(1.0, theta_e, m, 0.5)
            assert abs(closed - summed) <= separation_tolerance(m, 0.5, 1.0, theta_e, summed)

    def test_identical_and_orthogonal_directions(self):
        assert array_separation(1.0, 1.0, 8, 0.5) == 0.0
        # Broadside and arccos(1/2) are orthogonal on a half-wavelength M=4 ULA.
        assert array_separation(math.pi / 2, math.acos(0.5), 4, 0.5) == pytest.approx(16.0)


class TestTrajectory:
    def test_default_scenario_has_100_points(self):
        traj = sample_trajectory(ScenarioGeometry())
        assert len(traj) == 100
        assert traj.sample_index.tolist() == list(range(1, 101))

    def test_points_equally_spaced(self):
        # The default flight runs along x in the y = 0 plane, so each point's
        # x is d_ab cos(theta_b).
        geom = ScenarioGeometry()
        traj = sample_trajectory(geom)
        steps = np.diff(traj.d_ab * np.cos(traj.theta_b))
        assert np.allclose(steps, geom.speed * geom.sample_interval, atol=1e-9)

    def test_eve_angle_constant(self):
        # One angle for the whole flight: a scalar, not a per-point array.
        assert np.shape(sample_trajectory(ScenarioGeometry()).theta_e) == ()

    def test_distance_recomputed_independently(self):
        geom = ScenarioGeometry()
        traj = sample_trajectory(geom)
        # Point 50 sits 50 * 8 m along the flight, at (400, 0, 20).
        d = np.linalg.norm(np.array([400.0, 0.0, 20.0]) - np.asarray(geom.alice))
        assert abs(traj.d_ab[49] - d) < 1e-9

    def test_extreme_distances_neither_underflow_nor_overflow(self):
        # At exponent 1 the near eavesdropper's path gain, 1e200, is finite.
        near = sample_trajectory(ScenarioGeometry(eve=(1e-200, 0.0, 0.0), path_loss_exponent=1.0))
        assert (near.theta_e, near.d_ae) == (0.0, 1e-200)
        far = sample_trajectory(ScenarioGeometry(eve=(1e200, 1e200, 0.0)))
        assert far.theta_e == pytest.approx(math.pi / 4) and far.d_ae == pytest.approx(math.sqrt(2) * 1e200)
        # In the normal range each distance is the rounded root of its rounded squared norm.
        traj = sample_trajectory(ScenarioGeometry())
        positions = [np.array([8.0 * n, 0.0, 20.0]) for n in traj.sample_index.tolist()]
        assert traj.d_ab.tolist() == [math.sqrt(float(p @ p)) for p in positions]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3),  # near the array
        st.tuples(st.sampled_from([1e200, -1e200, 3e199]), st.sampled_from([0.0, 1e200, -5.0]), st.just(0.0)),
        st.tuples(*[st.floats(-1e4, 0.0)] * 3),  # at negative coordinates
        st.tuples(st.floats(0.0, 800.0) | st.sampled_from([8.0, 400.0, 800.0]), st.just(0.0), st.just(0.0)),
    ))
    def test_eve_is_one_more_row_of_the_flight_pass(self, eve):
        # Eve's angle and distance are bit for bit those of a pass over her
        # point alone, and the UAV rows those of a pass without her.
        try:
            geom = ScenarioGeometry(eve=eve)
        except ConfigError:
            assume(False)
        targets = []

        def spy(origin, target):
            targets.append(target)
            return _direction_angle(origin, target)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_direction_angle", spy)
            traj = sample_trajectory(geom)
        (target,) = targets
        alice = np.asarray(geom.alice, dtype=float)
        assert target[-1].tobytes() == np.asarray(eve, dtype=float).tobytes()
        theta_e, d_ae = _direction_angle(alice, np.asarray(eve, dtype=float))
        assert np.array([traj.theta_e, traj.d_ae]).tobytes() == np.array([theta_e, d_ae]).tobytes()
        theta_b, d_ab = _direction_angle(alice, target[:-1])
        assert traj.theta_b.tobytes() == theta_b.tobytes() and traj.d_ab.tobytes() == d_ab.tobytes()

    def test_overhead_point_is_perpendicular(self):
        geom = ScenarioGeometry(
            flight_start=(0.0, -8.0, 20.0), flight_end=(0.0, 8.0, 20.0)
        )
        traj = sample_trajectory(geom)
        # The first point, one 8 m step from (0, -8, 20), is (0, 0, 20).
        assert traj.d_ab[0] == 20.0
        assert abs(traj.theta_b[0] - math.pi / 2) < 1e-12

    def test_too_short_flight_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioGeometry(flight_end=(4.0, 0.0, 20.0))

    def test_geometry_validation(self):
        with pytest.raises(ConfigError, match=r"^geometry.speed: 0.0 is outside \(0, inf\)$"):
            ScenarioGeometry(speed=0.0)
        with pytest.raises(ConfigError):
            ScenarioGeometry(flight_start=(0, 0, 10.0))  # off the altitude plane
        with pytest.raises(ConfigError):
            ScenarioGeometry(flight_end=(0.0, 0.0, 20.0))  # zero-length flight


class TestPathLoss:
    def test_inverse_square_values(self):
        geom = ScenarioGeometry()
        assert abs(path_loss(100.0, geom) - 1e-4) < 1e-18
        assert abs(path_loss(1.0, geom) - 1.0) < 1e-15
        assert abs(path_loss(200.0, geom) - 2.5e-5) < 1e-18

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0, ScenarioGeometry())

    def test_strictly_decreasing(self):
        geom = ScenarioGeometry(path_loss_exponent=2.7)
        d = np.linspace(1.0, 500.0, 200)
        g = [path_loss(x, geom) for x in d]
        assert all(b < a for a, b in zip(g, g[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*[st.floats(1e-300, 1e300)] * 2),
           st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 10.0, exclude_min=True)),
           st.floats(1e-300, 1e300))
    def test_a_pair_of_distances_gives_each_scalar_gain(self, distances, exponent, gain):
        # ScenarioGeometry's check takes Eve's gain and the far end's in one
        # call; each must be bit for bit the scalar call's, overflow and
        # underflow included. path_loss reads only the gain and exponent.
        geom = SimpleNamespace(reference_gain=gain, path_loss_exponent=exponent)
        pair = path_loss(distances, geom)
        alone = np.array([path_loss(d, geom) for d in distances])
        assert np.array_equal(pair.view(np.int64), alone.view(np.int64))


class TestLinkState:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            LinkState(num_antennas=4, separation=0.0, g_ab=0.0, g_ae=1e-4,
                      sigma2_b=1e-7, sigma2_e=1e-7, p_s=10.0)
        with pytest.raises(ValueError):
            LinkState(num_antennas=4, separation=0.0, g_ab=1e-4, g_ae=1e-4,
                      sigma2_b=1e-7, sigma2_e=-1e-7, p_s=10.0)
        with pytest.raises(ValueError, match="g_ae must be nonnegative"):
            LinkState(num_antennas=4, separation=0.0, g_ab=1e-4, g_ae=-1e-4,
                      sigma2_b=1e-7, sigma2_e=1e-7, p_s=10.0)
        # An eavesdropper gain that underflowed to 0 is allowed.
        LinkState(num_antennas=4, separation=0.0, g_ab=1e-4, g_ae=0.0,
                  sigma2_b=1e-7, sigma2_e=1e-7, p_s=10.0)
