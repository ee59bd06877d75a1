"""The float formulas against 50-digit references, at the bounds their
docstrings state.

The direction pass: each bearing within 2 eps relative and each distance
within 2 ulp of mpmath's values for the same float offsets, on the default
flight, offsets near the array axis on both sides, huge and tiny
normal-range components, Eve on the axis and overhead points.
"""

import math

import mpmath
import numpy as np

from uavsec.geometry import ScenarioGeometry, _direction_angle

EPS = np.finfo(float).eps


def _offsets() -> np.ndarray:
    """The float offsets of the sample, one per row, from a fixed seed."""
    rng = np.random.default_rng(20)
    geom = ScenarioGeometry()
    flight = [(8.0 * n, 0.0, 20.0) for n in range(1, 101)] + [geom.eve]
    # The 10^9 m flight at 20 m altitude: bearings of about 2e-8 rad.
    far_flight = [(1e9 + 8.0 * n, 0.0, 20.0) for n in (1, 50, 100)]
    # Within 1e-12 to 1e-1 rad of the axis, ahead of the array and behind it.
    dx = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-3, 4, 200)
    off = np.abs(dx) * 10.0 ** rng.uniform(-12, -1, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    near_axis = np.column_stack((dx, off * np.cos(phi), off * np.sin(phi)))
    # Components whose squares overflow, or underflow, float64.
    signs = rng.choice([-1.0, 1.0], (2, 100, 3))
    huge = signs[0] * 10.0 ** rng.uniform(250, 300, (100, 3))
    tiny = signs[1] * 10.0 ** rng.uniform(-300, -250, (100, 3))
    overhead = [(0.0, 0.0, 20.0), (0.0, -3.0, 4.0), (0.0, 1e-300, 0.0), (-0.0, 0.0, 1e300)]
    return np.vstack((flight, far_flight, near_axis, huge, tiny, overhead))


def test_direction_pass_is_within_2_eps_of_the_exact_bearing_and_2_ulp_of_the_distance():
    origin = np.array([0.0, 0.0, 0.0])
    offsets = _offsets()
    theta, dist = _direction_angle(origin, offsets)
    with mpmath.workdps(50):
        for (x, y, z), t, d in zip(offsets.tolist(), theta.tolist(), dist.tolist()):
            x, y, z = map(mpmath.mpf, (x, y, z))
            exact_t = mpmath.atan2(mpmath.sqrt(y * y + z * z), x)
            exact_d = mpmath.sqrt(x * x + y * y + z * z)
            assert abs(t - exact_t) <= 2 * EPS * exact_t, (x, y, z)
            assert abs(d - exact_d) <= 2 * math.ulp(float(exact_d)), (x, y, z)
