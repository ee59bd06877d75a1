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

Candidates are the stationary points inside (0,1) and beta=1; beta=0 always
gives zero secrecy and is excluded. A stationary point that rounds to 1 is
scored at the largest float below 1. Both searches run elementwise over the
lanes of a batched link: every candidate is scored on every lane, and
``np.where`` keeps the winner of each. The closed form scores its three
candidates (root1 or the degenerate root, root2, and the endpoint 1) in one
``split_rates`` call, stacked along a leading axis, then folds the rows in
that order.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .geometry import ConfigError, LinkState
from . import rates
from .rates import ProjectedPowers

# Candidates whose phi values agree to a relative 1e-12 tie; the larger beta
# wins. On f = log2(phi) that width is log2(1 + 1e-12).
_TIE_BITS = math.log2(1.0 + 1e-12)

_BELOW_ONE = math.nextafter(1.0, 0.0)

# The link fields ``rates.split_rates`` reads, all a chunk of lanes carries.
_RATE_FIELDS = ("g_ab", "g_ae", "sigma2_b", "sigma2_e", "p_s")

# Elements per (lanes x grid) array of the grid search: it takes its lanes in
# chunks of this size, or one lane at a time when a grid is longer. 2^14
# doubles stay in cache; larger chunks ran slower.
CHUNK_ELEMENTS = 1 << 14

_LABELS = ("root1", "root2", "degenerate_root", "endpoint_1", "constant_function")
_ROOT1, _ROOT2, _DEGENERATE, _ENDPOINT, _CONSTANT = range(len(_LABELS))


class PaSolution(NamedTuple):
    """The split, the signed secrecy rate there and the name of the winning
    candidate (one of ``_LABELS``), per lane."""

    beta_star: float
    secrecy_rate_at_beta: float
    winning_candidate: str


def _factors(gain, p_s, u, w, sigma2):
    """(a, r_num, r_den) with 1 + SINR(beta) = (1 + r_num b) / (1 + r_den b)."""
    k = gain * p_s
    den0 = k * w + sigma2
    a = k * u / den0
    r_den = -k * w / den0
    return a, a + r_den, r_den


def _stationary_candidates(link: LinkState, powers: ProjectedPowers):
    """Stationary points of phi on the whole real line, per lane.

    Returns the lanes where phi is constant and two (beta, label, exists)
    slots: root1 (or degenerate_root where the quadratic is linear) and
    root2. The stationary condition expands to q b^2 + 2h b + c = 0;
    ``root1`` is (-h + sqrt(h^2 - qc)) / q, the sign convention of the
    expanded rational form, whose derivative numerator is this quadratic
    times a positive constant.
    """
    a_b, r1, r2 = _factors(link.g_ab, link.p_s, powers.u_b, powers.w_b, link.sigma2_b)
    a_e, r3, r4 = _factors(link.g_ae, link.p_s, powers.u_e, powers.w_e, link.sigma2_e)
    q = np.asarray(a_b * r3 * r4 - a_e * r1 * r2)
    h = np.asarray(0.5 * (a_b * (r3 + r4) - a_e * (r1 + r2)))
    c = np.asarray(a_b - a_e)
    constant = (h == 0.0) & (c == 0.0)
    linear = ~constant & (q == 0.0) & (h != 0.0)
    disc = h * h - q * c
    # A discriminant that is negative only by rounding (h^2 and qc agree to
    # a few ulps) is a double root, -h/q; dropping it can lose an optimum
    # next to beta = 1.
    rounding = 4.0 * np.finfo(float).eps * (h * h + abs(q * c))
    disc = np.where((disc < 0.0) & (disc >= -rounding), 0.0, disc)
    quadratic = ~constant & (q != 0.0) & (disc >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Form the larger-magnitude root from -h and -sign(h) sqrt(disc),
        # which add without cancelling, and the other from the product of
        # roots c/q.
        root = np.sqrt(np.maximum(disc, 0.0))
        t = np.where(h >= 0.0, -(h + root), root - h)
        far, near = t / q, c / t
        root1 = np.where(h >= 0.0, near, far)
        root2 = np.where(h >= 0.0, far, near)
        degenerate = -c / (2.0 * h)
    return constant, [
        (np.where(linear, degenerate, root1), np.where(linear, _DEGENERATE, _ROOT1), linear | quadratic),
        (root2, _ROOT2, quadratic),
    ]


def optimal_beta(link: LinkState, powers: ProjectedPowers) -> PaSolution:
    """Closed-form Max-SR power split for fixed beamforming vectors.

    Candidates are the stationary points of phi inside (0,1) plus the
    endpoint 1; beta=0 is excluded since f(0)=0 identically. When phi is
    monotonically decreasing the best remaining candidate is beta=1 with
    f(1) <= 0, and the rate layer's clamp makes the achieved secrecy zero,
    matching what beta=0 would have given. Where phi is identically 1 any
    beta is optimal, 1 by convention.
    """
    constant, stationary = _stationary_candidates(link, powers)
    # A root that rounded to 1.0 may be an interior optimum within one ulp of
    # the endpoint, where (1-beta) Ps w still dwarfs the noise floor: it is
    # scored one ulp below 1, and the tie rule still lets the endpoint win.
    # With no interior stationary point (including a negative discriminant,
    # where phi is monotone) the endpoint is the sole survivor.
    candidates = [
        (np.minimum(beta, _BELOW_ONE), label, exists & (0.0 < beta) & (beta <= 1.0))
        for beta, label, exists in stationary
    ] + [(np.ones(constant.shape), _ENDPOINT, True)]
    # All candidates are scored in one call, along a leading axis.
    values = _signed_rate(link, powers, np.stack([np.where(v, b, 1.0) for b, _, v in candidates]))
    # Fold the candidates in order: the first valid one is the best so far,
    # and a later one replaces it when better, or when tied (preferring the
    # larger beta, more confidential power).
    have, best_beta, best_f, best_label = np.False_, np.nan, np.nan, _ENDPOINT
    for (beta, label, valid), value in zip(candidates, values):
        tie = abs(value - best_f) <= _TIE_BITS
        take = valid & (~have | np.where(tie, beta > best_beta, value > best_f))
        best_beta = np.where(take, beta, best_beta)
        best_f = np.where(take, value, best_f)
        best_label = np.where(take, label, best_label)
        have = have | valid
    best_label = np.where(constant, _CONSTANT, best_label)
    return PaSolution(best_beta[()], best_f[()], np.asarray(_LABELS)[best_label])


def _signed_rate(link: LinkState, powers: ProjectedPowers, beta):
    r_b, r_e = rates.split_rates(link, powers, beta)
    return r_b - r_e


def check_grid_step(step: float) -> float:
    """The grid step, which ``grid.step`` sets: it must lie in (0, 1e-2]."""
    if not 0.0 < step <= 1e-2:
        raise ConfigError("grid.step: must lie in (0, 1e-2]")
    return step


def beta_grid_oracle(link: LinkState, powers: ProjectedPowers, step: float = 1e-4):
    """Exhaustive search over a uniform beta grid, straight from the rates.

    Independent of the stationary-point solve: evaluates the factored
    R_b - R_e on the grid {0, step, ..., 1} and keeps each lane's first
    maximum. When no split beats beta=0, where the secrecy rate vanishes, it
    returns beta=1 as optimal_beta does. The lanes are taken in chunks of
    rows so that no (lanes x grid) array holds more than ``CHUNK_ELEMENTS``
    elements or one row; the rate at each lane's chosen split is then
    evaluated over all lanes at once, with the same arithmetic as on the grid.
    """
    n = int(round(1.0 / check_grid_step(step)))
    grid = np.linspace(0.0, 1.0, n + 1)
    shape = np.broadcast_shapes(link.shape, *(np.shape(p) for p in powers))
    # One row per lane, with the grid along the contiguous last axis.
    lanes = [np.broadcast_to(v, shape).reshape(-1, 1)
             for v in (*(getattr(link, name) for name in _RATE_FIELDS), *powers)]
    best = np.empty(math.prod(shape), dtype=int)
    rows = max(1, CHUNK_ELEMENTS // grid.size)
    for lo in range(0, best.size, rows):
        part = [v[lo : lo + rows] for v in lanes]
        chunk = SimpleNamespace(**dict(zip(_RATE_FIELDS, part)))
        r_b, r_e = rates.split_rates(chunk, ProjectedPowers(*part[5:]), grid)
        best[lo : lo + rows] = (r_b - r_e).argmax(axis=1)
    # A maximum at beta=0 means no split gives positive secrecy.
    best[best == 0] = n
    beta = grid[best].reshape(shape)
    return beta[()], _signed_rate(link, powers, beta)[()]
