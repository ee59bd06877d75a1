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
scored at the largest float below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LinkState
from . import rates
from .rates import ProjectedPowers

# Candidates whose phi values agree to a relative 1e-12 tie; the larger beta
# wins. On f = log2(phi) that width is log2(1 + 1e-12).
_TIE_BITS = math.log2(1.0 + 1e-12)

_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class PaSolution:
    beta_star: float
    secrecy_rate_at_beta: float
    winning_candidate: str


def _factors(gain: float, p_s: float, u: float, w: float, sigma2: float) -> tuple[float, float, float]:
    """(a, r_num, r_den) with 1 + SINR(beta) = (1 + r_num b) / (1 + r_den b)."""
    k = gain * p_s
    den0 = k * w + sigma2
    a = k * u / den0
    r_den = -k * w / den0
    return a, a + r_den, r_den


def _stationary_candidates(link: LinkState, powers: ProjectedPowers) -> list[tuple[float, str]] | None:
    """Stationary points of phi as (beta, label), on the whole real line.

    Returns None when phi is constant. The stationary condition expands to
    q b^2 + 2h b + c = 0; ``root1`` is (-h + sqrt(h^2 - qc)) / q, the sign
    convention of the expanded rational form, whose derivative numerator is
    this quadratic times a positive constant.
    """
    a_b, r1, r2 = _factors(link.g_ab, link.p_s, powers.u_b, powers.w_b, link.sigma2_b)
    a_e, r3, r4 = _factors(link.g_ae, link.p_s, powers.u_e, powers.w_e, link.sigma2_e)
    q = a_b * r3 * r4 - a_e * r1 * r2
    h = 0.5 * (a_b * (r3 + r4) - a_e * (r1 + r2))
    c = a_b - a_e
    if h == 0.0 and c == 0.0:
        return None
    if q == 0.0:
        return [(-c / (2.0 * h), "degenerate_root")] if h != 0.0 else []
    disc = h * h - q * c
    if disc < 0.0:
        return []
    # Form the larger-magnitude root from -h and -sign(h) sqrt(disc), which
    # add without cancelling, and the other from the product of roots c/q.
    t = -(h + math.sqrt(disc)) if h >= 0.0 else math.sqrt(disc) - h
    far, near = t / q, c / t
    root1, root2 = (near, far) if h >= 0.0 else (far, near)
    return [(root1, "root1"), (root2, "root2")]


def optimal_beta(link: LinkState, powers: ProjectedPowers) -> PaSolution:
    """Closed-form Max-SR power split for fixed beamforming vectors.

    Candidates are the stationary points of phi inside (0,1) plus the
    endpoint 1; beta=0 is excluded since f(0)=0 identically. When phi is
    monotonically decreasing the best remaining candidate is beta=1 with
    f(1) <= 0, and the rate layer's clamp makes the achieved secrecy zero,
    matching what beta=0 would have given.
    """
    stationary = _stationary_candidates(link, powers)
    if stationary is None:
        # phi is identically 1: any beta is optimal, 1 by convention.
        return PaSolution(1.0, _signed_rate(link, powers, 1.0), "constant_function")
    # A root that rounded to 1.0 may be an interior optimum within one ulp of
    # the endpoint, where (1-beta) Ps w still dwarfs the noise floor: it is
    # scored one ulp below 1, and the tie rule still lets the endpoint win.
    candidates = [
        (min(beta, _BELOW_ONE), label) for beta, label in stationary if 0.0 < beta <= 1.0
    ]
    # With no interior stationary point (including a negative discriminant,
    # where phi is monotone) the endpoint is the sole survivor.
    candidates.append((1.0, "endpoint_1"))

    best_beta, best_label = candidates[0]
    best_f = _signed_rate(link, powers, best_beta)
    for beta, label in candidates[1:]:
        value = _signed_rate(link, powers, beta)
        if abs(value - best_f) <= _TIE_BITS:
            # Tie: prefer the larger beta (more confidential power).
            if beta > best_beta:
                best_beta, best_label, best_f = beta, label, value
        elif value > best_f:
            best_beta, best_label, best_f = beta, label, value
    return PaSolution(best_beta, best_f, best_label)


def _signed_rate(link: LinkState, powers: ProjectedPowers, beta: float) -> float:
    r_b, r_e = rates.split_rates(link, powers, beta)
    return r_b - r_e


def beta_grid_oracle(
    link: LinkState, powers: ProjectedPowers, step: float = 1e-4
) -> tuple[float, float]:
    """Exhaustive search over a uniform beta grid, straight from the rates.

    Independent of the stationary-point solve: evaluates the factored
    R_b - R_e on the grid {0, step, ..., 1}. When no split beats beta=0,
    where the secrecy rate vanishes, it returns beta=1 as optimal_beta does.
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError("step must lie in (0, 1e-2]")
    n = int(round(1.0 / step))
    grid = np.linspace(0.0, 1.0, n + 1)
    r_b, r_e = rates.split_rates(link, powers, grid)
    diff = r_b - r_e
    best = int(np.argmax(diff)) or n
    return float(grid[best]), float(diff[best])
