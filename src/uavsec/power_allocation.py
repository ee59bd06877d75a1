"""Closed-form Max-SR power allocation for fixed beamforming vectors.

Each receiver's 1 + SINR at power split beta is a ratio of two linear
factors, so the signed secrecy rate is f(beta) = log2 phi(beta) with

    phi(beta) = (1 + r1 b)(1 + r4 b) / ((1 + r2 b)(1 + r3 b)).

For Bob, with k = g_ab Ps and den0 = k w_b + sigma2_b (his interference plus
noise at beta=0), a_b = k u_b / den0, r2 = -k w_b / den0 and r1 = a_b + r2;
Eve's side gives a_e, r4 and r3 = a_e + r4 the same way. phi is stationary
where a_b (1 + r3 b)(1 + r4 b) = a_e (1 + r1 b)(1 + r2 b).

Multiplying phi out into a ratio of two quadratics is what cancels: when the
leakage beamformers leave k w far above sigma2, 1 + r2 = sigma2 / den0 is
tiny, and near beta = 1 the quadratics are small differences of coefficients
12+ orders of magnitude larger. The factored form never builds those
coefficients. The stationary quadratic's roots come from the
cancellation-free formula, and each candidate is scored with the rate
layer's ``split_rates``, which forms a denominator as (1 - beta) k w + sigma2
rather than as den0 (1 + r2 beta). All of it runs in float64; the
exact-rational expansion is kept as the test oracle (``tests/oracle.py``).

Both searches run elementwise over the lanes of a batched link: every
candidate is scored on every lane, and ``np.where`` keeps the winner of
each. The closed form scores its three candidates (the two roots and the
endpoint 1; a root that rounds to 1 is scored at the largest float below
1) in one ``split_rates`` call, stacked along a leading axis, then folds
them in two steps, root2 against root1 and the endpoint against that
winner, keeping the winner's split, f, R_b and R_e together.

Both searches are power-allocation steps of the alternating loop and return
only the rows (split, f, R_b, R_e) per lane, the rates being those they
scored the chosen split with.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import LinkState, lane_link, parse_grid_step
from . import rates
from .rates import ProjectedPowers

# Candidates whose phi values agree to a relative 1e-12 tie; the larger beta
# wins. On f = log2(phi) that width is log2(1 + 1e-12).
_TIE_BITS = math.log2(1.0 + 1e-12)

_BELOW_ONE = math.nextafter(1.0, 0.0)

# The width, relative to h^2 + |qc|, within which a negative discriminant is
# rounding: four ulps.
_ROUNDING = 4.0 * np.finfo(float).eps

# Elements per (lanes x grid) array of the grid search: it takes its lanes in
# chunks of this size, or one lane at a time when a grid is longer. 2^14
# doubles stay in cache; larger chunks ran slower.
CHUNK_ELEMENTS = 1 << 14


def _factors(gain, p_s, u, w, sigma2):
    """(a, r_num, r_den) with 1 + SINR(beta) = (1 + r_num b) / (1 + r_den b)."""
    k = gain * p_s
    kw = k * w
    den0 = kw + sigma2
    a = k * u / den0
    # -(kw / den0) is (-k w) / den0 bit for bit: negation is exact.
    r_den = -(kw / den0)
    return a, a + r_den, r_den


def _stationary_candidates(link: LinkState, powers: ProjectedPowers):
    """Stationary points of phi on the whole real line, per lane.

    The stationary condition expands to q b^2 + 2h b + c = 0. Returns its
    roots as one (2, *lanes) array, root1 = (-h + sqrt(h^2 - qc)) / q first
    (the sign convention of the expanded rational form, whose derivative
    numerator is this quadratic times a positive constant), and ``real``,
    where the discriminant is not negative. With t = -h - sign(h) sqrt(disc)
    the formula needs no special cases: where h = c = 0 (phi is constant)
    t = -0.0 and the roots are +-0 and NaN; where q = 0 != h (the equation
    is linear) sqrt(fl(h^2)) = |h| in binary64, so t = -2h and c/t is
    -c/(2h) bit for bit, with +-inf beside it; where q = h = 0 != c (Eve's
    gain underflowed to 0) they are NaN and +-inf. None of +-0, NaN and +-inf
    lies in (0, 1]. The linear root is exact for 2^-511 <= |h| < 2^512,
    where h^2 is normal, as every quadratic lane needs; below, it is
    perturbed, and above, lost.
    """
    a_b, r1, r2 = _factors(link.g_ab, link.p_s, powers.u_b, powers.w_b, link.sigma2_b)
    a_e, r3, r4 = _factors(link.g_ae, link.p_s, powers.u_e, powers.w_e, link.sigma2_e)
    q = a_b * r3 * r4 - a_e * r1 * r2
    h = 0.5 * (a_b * (r3 + r4) - a_e * (r1 + r2))
    c = a_b - a_e
    hh, qc = h * h, q * c
    disc = hh - qc
    # A discriminant that is negative only by rounding (h^2 and qc agree to
    # a few ulps) is a double root, -h/q; dropping it can lose an optimum
    # next to beta = 1. The root below reads it as 0.
    real = disc >= -_ROUNDING * (hh + abs(qc))
    hpos = h >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # Form the larger-magnitude root from -h and -sign(h) sqrt(disc),
        # which add without cancelling, and the other from the product of
        # roots c/q.
        root = np.sqrt(np.maximum(disc, 0.0))
        t = np.where(hpos, -(h + root), root - h)
        far, near = t / q, c / t
    return np.where(hpos, (near, far), (far, near)), real


def _beats(new, old):
    """Per lane, whether candidate row ``new`` (split, f, ...) beats ``old``:
    a larger f, or an f within the tie width at a larger split."""
    tie = abs(new[1] - old[1]) <= _TIE_BITS
    return np.where(tie, new[0] > old[0], new[1] > old[1])


def closed_form(link: LinkState, powers: ProjectedPowers):
    """The closed-form Max-SR split per lane, as the rows (split, f, R_b,
    R_e) of one array: the alternating loop's default PA step.

    Candidates are the stationary points of phi inside (0,1) plus the
    endpoint 1; beta=0 is excluded since f(0)=0 identically. When phi is
    monotonically decreasing the best remaining candidate is beta=1 with
    f(1) <= 0, and the rate layer's clamp makes the achieved secrecy zero,
    matching what beta=0 would have given. Where phi is identically 1 any
    beta is optimal, 1 by convention.
    """
    roots, real = _stationary_candidates(link, powers)
    # Rows of (split, f, R_b, R_e) for the two roots and the endpoint 1, in
    # the shape the link and powers broadcast to. A root that rounded to 1.0
    # may be an interior optimum within one ulp of the endpoint, where
    # (1-beta) Ps w still dwarfs the noise floor: it is scored one ulp below
    # 1, and the tie rule still lets the endpoint win. An invalid root keeps
    # the split 1. With no interior stationary point (including a negative
    # discriminant, where phi is monotone) the endpoint is the sole survivor.
    valid = real & (0.0 < roots) & (roots <= 1.0)
    betas = np.ones((3, *roots.shape[1:]))
    np.minimum(roots, _BELOW_ONE, out=betas[:2], where=valid)
    # All candidates are scored in one call, along a leading axis.
    r_b, r_e = rates.split_rates(link, powers, betas)
    rows = np.stack((betas, r_b - r_e, r_b, r_e), axis=1)
    # The fold in two steps. root2 replaces root1 where root1 is invalid, or
    # where root2 is better, or tied at a larger beta (more confidential
    # power); the endpoint then replaces that winner on the same rule, or
    # where neither root is valid.
    take_root2 = valid[1] & (~valid[0] | _beats(rows[1], rows[0]))
    best = np.where(take_root2, rows[1], rows[0])
    take_endpoint = ~(valid[0] | valid[1]) | _beats(rows[2], best)
    return np.where(take_endpoint, rows[2], best)


def beta_grid_oracle(link: LinkState, powers: ProjectedPowers, step: float):
    """Exhaustive search over a uniform beta grid, straight from the rates.

    Independent of the stationary-point solve: evaluates the factored
    R_b - R_e on the grid {0, 1/n, ..., 1}, n = round(1/step) (the step must
    pass ``geometry.parse_grid_step``; each call checks it again, as a step
    such as 1e-9 would build rows of 10^9 elements), and keeps each lane's
    first maximum. When no split beats beta=0, where the secrecy rate
    vanishes, it returns beta=1 as closed_form does. The lanes are taken in
    chunks of rows so that no (lanes x grid) array holds more than
    ``CHUNK_ELEMENTS`` elements or one row; R_b and R_e at each lane's chosen
    split are then evaluated over all lanes at once, with the same arithmetic
    as on the grid. Returns (split, f, R_b, R_e) per lane, the alternating
    loop's PA step contract.
    """
    n = round(1.0 / parse_grid_step("grid.step", str(step)))
    grid = np.linspace(0.0, 1.0, n + 1)
    shape = np.broadcast_shapes(link.shape, *(np.shape(p) for p in powers))
    # One row per lane, with the grid along the contiguous last axis.
    lanes = [np.broadcast_to(v, shape).reshape(-1, 1) for v in (*link[1 : len(LinkState._fields)], *powers)]
    best = np.empty(math.prod(shape), dtype=int)
    rows = max(1, CHUNK_ELEMENTS // grid.size)
    for lo in range(0, best.size, rows):
        part = [v[lo : lo + rows] for v in lanes]
        r_b, r_e = rates.split_rates(lane_link(link, part[:6]), ProjectedPowers(*part[6:]), grid)
        best[lo : lo + rows] = (r_b - r_e).argmax(axis=1)
    # A maximum at beta=0 means no split gives positive secrecy.
    best[best == 0] = n
    beta = grid[best].reshape(shape)
    r_b, r_e = rates.split_rates(link, powers, beta)
    return beta[()], (r_b - r_e)[()], r_b[()], r_e[()]
