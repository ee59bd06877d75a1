"""The alternating iterative structure (AIS): leakage beamforming, Max-SR
power allocation, and the loop that alternates between them.

Per sampling point: compute both beamformers for the current power split,
re-optimize the split for those vectors, and repeat until the signed secrecy
rate stops moving. The power-allocation (PA) step is the closed form by
default; the grid-oracle strategy passes the exhaustive grid search, so both
run the same loop and stopping rule. The beamforming step optimizes leakage
ratios, not the secrecy rate itself, so the iteration is not guaranteed
monotone; the stopping rule plus an iteration cap handle that.

The beamformers. The confidential-message vector v_b maximizes the
signal-to-leakage-and-noise ratio (SLNR) toward the UAV: it is
(beta Ps h_e h_e^H + sigma_b^2 I)^{-1} h_b, normalized. The artificial-noise
vector v_an maximizes the AN-and-leakage-to-noise ratio (ANLNR) toward the
eavesdropper: ((1-beta) Ps h_b h_b^H + sigma_e^2 I)^{-1} h_e, normalized.
Everything downstream (the rates, the power allocation and the loop) sees
them only through |h^H v|^2, the four numbers of ``ProjectedPowers``, so no
steering or beamforming vector is ever formed. With a rank-one whitening
term those four numbers are closed forms in M and the array separation
D = M^2 - |h_e^H h_b|^2 (the leakage precoder of Sadek, Tarighat and Sayed,
IEEE TWC 2007). With rho^2 = M^2 - D and the noise shares

    t_b = sigma_b^2 / (sigma_b^2 + beta Ps M),
    t_e = sigma_e^2 / (sigma_e^2 + (1-beta) Ps M),

    u_b = (D + t_b rho^2)^2 / (M (D + t_b^2 rho^2)),   u_e = M t_b^2 rho^2 / (D + t_b^2 rho^2),
    w_e = (D + t_e rho^2)^2 / (M (D + t_e^2 rho^2)),   w_b = M t_e^2 rho^2 / (D + t_e^2 rho^2).

D is never subtracted from a nearly equal number, so near-parallel
directions (D -> 0) keep full relative precision; rho^2 cancels only for
near-orthogonal ones, where it leaves u_e and w_b an absolute error of order
eps * M. The steering vectors, the Sherman-Morrison solve and both
beamformers are kept in the tests as the reference (``tests/oracle.py``).
``split_rates`` gives Bob's and Eve's rates from the four numbers, in
bits/s/Hz (log base 2); all powers are linear mW. All of it is arithmetic,
so it runs elementwise over the lanes of a batched link and split.

The closed form. Each receiver's 1 + SINR at power split beta is a ratio of
two linear factors, so the signed secrecy rate is f(beta) = log2 phi(beta)
with

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
formula ``split_rates``, which forms a denominator as
(1 - beta) k w + sigma2 rather than as den0 (1 + r2 beta). All of it runs in
float64; the exact-rational expansion is kept as the test oracle
(``tests/oracle.py``).

Both PA steps run elementwise over the lanes of a batched link: every
candidate is scored on every lane, and ``np.where`` keeps the winner of
each. The closed form scores its three candidates (the two roots and the
endpoint 1; a root that rounds to 1 is scored at the largest float below
1) in one ``split_rates`` call, stacked along a leading axis, then folds
them in two steps, root2 against root1 and the endpoint against that
winner, keeping the winner's split, f, R_b and R_e together.

A batched link runs all its lanes through the loop together, as one
contiguous 1-D array per field (``geometry.lane_link``). Each lane retires on
its own stopping test and keeps its own iteration count and result, exactly
as if it ran alone; the loop ends when the last lane stops. Until the first
lane retires every lane takes each cycle's values, so the per-lane masks run
only from then on. Every PA step returns the rows (split, f, R_b, R_e) per
lane, the rates being those it scored the chosen split with, so the loop
scores no split after it ends and keeps no per-cycle history: per lane it
returns the final split, the final vectors' projected powers, the stop flag,
the cycle count and its last PA step's R_b and R_e.
"""

import math
from collections import namedtuple

import numpy as np

from .geometry import _ITERATIONS, _POSITIVE, _SPLIT, LinkState, _record, lane_link, parse_grid_step


class ProjectedPowers(namedtuple("ProjectedPowers", "u_b w_b u_e w_e")):
    """|h^H v|^2 for the four steering-vector / beamformer pairs: the
    confidential stream at Bob, u_b = |h_b^H v_b|^2, and the artificial noise
    there, w_b = |h_b^H v_an|^2; at Eve, u_e = |h_e^H v_b|^2 and
    w_e = |h_e^H v_an|^2."""

    __slots__ = ()


def _toward_and_away(m: int, d, rho2, t):
    """(|h^H v|^2 toward the intended direction, toward the other one) for
    the leakage vector whose noise share is t.

    (D + t rho^2)^2 / (M den) is evaluated as away + D (D + t (2-t) rho^2) /
    (M den), the same value as a sum of nonnegative terms, which is exactly
    M, like away, when D = 0.
    """
    leak = t * t * rho2
    den = d + leak
    away = m * (leak / den)
    return away + d * (d + t * (2.0 - t) * rho2) / (m * den), away


def leakage_pair(link: LinkState, beta) -> ProjectedPowers:
    """Projected powers of the Max-SLNR and Max-ANLNR vectors at split beta.

    beta=0 gives the matched filter v_b = h_b/sqrt(M), beta=1 gives
    v_an = h_e/sqrt(M); both ends are allowed.
    """
    if not np.all((0.0 <= beta) & (beta <= 1.0)):
        raise ValueError("beta must lie in [0, 1]")
    # M as a 0-d float array: the same products as with the int (M < 2^53),
    # and numpy multiplies an array by it faster than by a Python number.
    m, d = np.asarray(link.num_antennas, dtype=float), link.separation
    rho2 = m * m - d
    t_b = link.sigma2_b / (link.sigma2_b + beta * link.p_s * m)
    t_e = link.sigma2_e / (link.sigma2_e + (1.0 - beta) * link.p_s * m)
    u_b, u_e = _toward_and_away(m, d, rho2, t_b)
    w_e, w_b = _toward_and_away(m, d, rho2, t_e)
    return ProjectedPowers(u_b=u_b, w_b=w_b, u_e=u_e, w_e=w_e)


def split_rates(link: LinkState, powers: ProjectedPowers, beta):
    """(R_b, R_e) at power split ``beta``, broadcast against the lanes.

    Each receiver sees the confidential share beta*Ps through u and the
    artificial-noise share (1-beta)*Ps through w, on top of its noise floor.
    Of ``link`` only g_ab, g_ae, sigma2_b, sigma2_e and p_s are read.

    The rates are accurate in absolute terms, not relative ones: log2 reads
    1 + SINR rounded to a double, which costs up to about 1.6e-16 bits
    whatever the rate. So a rate below about 1e-4 bits keeps fewer correct
    digits than the 12 a result file prints, and an SINR below eps/2 gives
    exactly 0.
    """

    def rate(gain, u, w, sigma2):
        signal = gain * beta * link.p_s * u
        return np.log2(1.0 + signal / (gain * (1.0 - beta) * link.p_s * w + sigma2))

    return (
        rate(link.g_ab, powers.u_b, powers.w_b, link.sigma2_b),
        rate(link.g_ae, powers.u_e, powers.w_e, link.sigma2_e),
    )


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
    r_b, r_e = split_rates(link, powers, betas)
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
        r_b, r_e = split_rates(lane_link(link, part[:6]), ProjectedPowers(*part[6:]), grid)
        best[lo : lo + rows] = (r_b - r_e).argmax(axis=1)
    # A maximum at beta=0 means no split gives positive secrecy.
    best[best == 0] = n
    beta = grid[best].reshape(shape)
    r_b, r_e = split_rates(link, powers, beta)
    return beta[()], (r_b - r_e)[()], r_b[()], r_e[()]


_AIS_ROWS = {"beta_init": ("ais.beta_init", _SPLIT, repr, 0.1),
             "epsilon": ("ais.epsilon", _POSITIVE, repr, 1e-6),
             "max_iterations": ("ais.max_iterations", _ITERATIONS, repr, 50)}


class AisConfig(_record("AisConfig", _AIS_ROWS)):
    """The initial split, the stopping tolerance on f and the iteration cap."""

    __slots__ = ()


class AisTrace(namedtuple("AisTrace", "converged iterations_used rate_bob rate_eve")):
    """Per lane: whether it stopped before the iteration cap (bool), its
    cycle count (int), and Bob's and Eve's rates at its final split (float),
    as its last PA step scored them."""

    __slots__ = ()


def optimize_point(
    link: LinkState, cfg: AisConfig = AisConfig(), pa_step=closed_form
) -> tuple[ProjectedPowers, float, AisTrace]:
    """Run the alternating iteration at one sampling point, or at every lane
    of a batched link.

    ``pa_step(lanes, powers)`` returns the rows (split, f, R_b, R_e): the
    best split for the projected powers of the current vectors, and the
    signed secrecy rate and Bob's and Eve's rates there. Returns the final
    vectors' projected powers, the final split and the trace, whose rates
    are those the last step handed back, each per lane. A lane
    stops once its PA step moves f by at most ``cfg.epsilon``. Hitting the
    iteration cap is a soft failure: the last iterate is returned with
    ``converged=False`` so a flight sweep can keep going.
    """
    shape = link.shape
    lanes = lane_link(link)
    beta = np.full(lanes.p_s.shape, cfg.beta_init)
    active = np.ones(beta.shape, dtype=bool)
    used = np.zeros(beta.shape, dtype=int)
    retired = False
    for _ in range(cfg.max_iterations):
        powers = leakage_pair(lanes, beta)
        # Convergence compares f at the incoming and re-optimized splits
        # under the same (current) vectors: once the PA step stops moving
        # the secrecy rate, the lane is done.
        r_b, r_e = split_rates(lanes, powers, beta)
        step = (*powers, *pa_step(lanes, powers))
        done = abs(step[5] - (r_b - r_e)) <= cfg.epsilon
        # A lane that stopped keeps its final values; until one has, every
        # lane takes the new ones.
        state = [np.where(active, new, old) for new, old in zip(step, state)] if retired else step
        beta = state[4]
        used += active
        active &= ~done
        retired = (remaining := np.count_nonzero(active)) < active.size
        if not remaining:
            break
    out = [v.reshape(shape)[()] for v in (*state[:5], ~active, used, *state[6:])]
    return ProjectedPowers(*out[:4]), out[4], AisTrace(*out[5:])
