"""Test oracles: the steering-vector beamformers and the exact-rational PA.

Beamforming. The library reduces the Max-SLNR and Max-ANLNR beamformers to
their four projected powers in closed form over the array separation
(``uavsec.ais.leakage_pair``). The vector path it replaced lives here
unchanged: steering vectors, the Sherman-Morrison solve of the rank-one
whitening matrix, both normalized beamformers with their SLNR/ANLNR values,
and the projection ``projected_powers``. ``SteeredLink`` has the fields and
checks of a ``LinkState`` and also carries the two steering vectors it was
built from. The array separation the library takes from the Dirichlet kernel
in closed form (``uavsec.geometry.array_separation``) is also kept here as
the sum of M - 1 nonnegative terms it replaced, ``summed_separation``.

Power allocation. The signed secrecy rate as a function of the power split
beta is log2 of a ratio of two quadratics. This module expands that ratio
into its quadratic coefficients in exact rational arithmetic
(fractions.Fraction over the float inputs), finds the stationary points of
the rational function analytically and picks the best candidate in (0,1)
against the beta=1 endpoint. Expanded
in floats, the quadratics cancel by 12+ orders of magnitude when the leakage
beamformers drive both interference terms down to the noise floor; exactness
sidesteps that and makes the degeneracy tests (AE-BD = 0, A = D) true sign
tests. ``uavsec.ais.closed_form`` solves the same problem in
float64 from the factored form and is checked against ``optimal_beta`` here,
whose answer also names the winning candidate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from uavsec.ais import ProjectedPowers, split_rates
from uavsec.geometry import LinkState, Validated, array_separation

# Relative tie width on phi when ranking candidates.
_TIE_RTOL = Fraction(1, 10**12)


class CoefficientConsistencyError(RuntimeError):
    """The quadratic-ratio coefficients disagree with the rate formulas."""


@dataclass(frozen=True)
class RationalCoefficients:
    """Coefficients of phi(beta) = (A b^2 + B b + C) / (D b^2 + E b + F).

    F equals C by construction, so phi(0) = 1 and the secrecy rate vanishes
    at beta = 0. Stored as exact rationals.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction


@dataclass(frozen=True)
class StationaryPoints:
    """Real stationary points of phi, wherever they exist on the real line."""

    delta: float
    beta1: Optional[float] = None
    beta2: Optional[float] = None
    beta3: Optional[float] = None


@dataclass(frozen=True)
class PaSolution:
    beta_star: float
    secrecy_rate_at_beta: float
    winning_candidate: str
    delta: float
    coefficients: RationalCoefficients


def _coefficients_raw(link: LinkState, powers: ProjectedPowers) -> RationalCoefficients:
    u_b, w_b, u_e, w_e = map(Fraction, powers)
    gab, gae = Fraction(link.g_ab), Fraction(link.g_ae)
    ps = Fraction(link.p_s)
    s2b, s2e = Fraction(link.sigma2_b), Fraction(link.sigma2_e)

    den_b0 = gab * ps * w_b + s2b  # Bob's interference-plus-noise at beta=0
    den_e0 = gae * ps * w_e + s2e
    a = gab * gae * ps * ps * w_e * (w_b - u_b)
    b = den_e0 * gab * ps * (u_b - w_b) - gae * ps * w_e * den_b0
    c = den_b0 * den_e0
    d = gab * gae * ps * ps * w_b * (w_e - u_e)
    e = den_b0 * gae * ps * (u_e - w_e) - gab * ps * w_b * den_e0
    return RationalCoefficients(a=a, b=b, c=c, d=d, e=e, f=c)


def phi(coeffs: RationalCoefficients, beta) -> Fraction:
    """Rate-ratio rational function, evaluated exactly."""
    b = Fraction(beta)
    num = (coeffs.a * b + coeffs.b) * b + coeffs.c
    den = (coeffs.d * b + coeffs.e) * b + coeffs.f
    return num / den


def f_value(coeffs: RationalCoefficients, beta) -> float:
    """Signed secrecy rate f(beta) = log2 phi(beta) in bits/s/Hz."""
    value = phi(coeffs, beta)
    # math.log2(float(.)) would lose the exponent if the ratio were extreme;
    # split into numerator and denominator logs instead.
    return math.log2(value.numerator) - math.log2(value.denominator)


def rational_coefficients(link: LinkState, powers: ProjectedPowers) -> RationalCoefficients:
    """Coefficients A..F with a built-in cross-check against the rate layer.

    The exact expanded ratio log2 phi(beta) must reproduce the float factored
    rates R_b - R_e of the same projected powers to 1e-9 at five probe
    points; a violation means a coefficient bug, not bad input.
    """
    coeffs = _coefficients_raw(link, powers)
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        r_b, r_e = split_rates(link, powers, beta)
        direct = r_b - r_e
        if abs(f_value(coeffs, beta) - direct) > 1e-9:
            raise CoefficientConsistencyError(
                f"coefficient identity broken at beta={beta}: "
                f"{f_value(coeffs, beta)} vs {direct}"
            )
    return coeffs


def stationary_points(coeffs: RationalCoefficients) -> StationaryPoints:
    """Real roots of the derivative numerator of phi.

    The numerator is (AE-BD) beta^2 + 2C(A-D) beta + C(B-E). Quadratic-case
    roots are returned whether or not they lie in (0,1); the degenerate case
    (AE-BD = 0, A != D) has the single root beta3. Absent roots are None.
    """
    a, b, c, d, e = coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e
    q = a * e - b * d
    delta = c * c * (a - d) ** 2 - c * q * (b - e)
    if q == 0:
        if a == d:
            return StationaryPoints(delta=float(delta))
        beta3 = (e - b) / (2 * (a - d))
        return StationaryPoints(delta=float(delta), beta3=float(beta3))
    if delta < 0:
        return StationaryPoints(delta=float(delta))
    root = Fraction(math.sqrt(delta))
    beta1 = (-c * (a - d) + root) / q
    beta2 = (-c * (a - d) - root) / q
    return StationaryPoints(delta=float(delta), beta1=float(beta1), beta2=float(beta2))


def optimal_beta(link: LinkState, powers: ProjectedPowers) -> PaSolution:
    """Closed-form Max-SR power split for fixed beamforming vectors.

    Candidates are the stationary points of phi inside (0,1) plus the
    endpoint 1; beta=0 is excluded since f(0)=0 identically. When phi is
    monotonically decreasing the best remaining candidate is beta=1 with
    f(1) <= 0, and the rate layer's clamp makes the achieved secrecy zero,
    matching what beta=0 would have given.
    """
    coeffs = rational_coefficients(link, powers)
    sp = stationary_points(coeffs)

    if coeffs.a == coeffs.d and coeffs.b == coeffs.e:
        # phi is identically 1 (F=C): any beta is optimal, 1 by convention.
        return _solution(coeffs, sp, 1.0, "constant_function")

    candidates: list[tuple[float, str]] = []
    for beta, label in ((sp.beta1, "root1"), (sp.beta2, "root2"), (sp.beta3, "degenerate_root")):
        if beta is not None and 0.0 < beta < 1.0:
            candidates.append((beta, label))
    # With no interior stationary point (including Delta < 0, where phi is
    # monotone with the sign of AE-BD) the endpoint is the sole survivor.
    candidates.append((1.0, "endpoint_1"))

    best_beta, best_label = candidates[0]
    best_phi = phi(coeffs, best_beta)
    for beta, label in candidates[1:]:
        value = phi(coeffs, beta)
        if abs(value - best_phi) <= _TIE_RTOL * best_phi:
            # Tie: prefer the larger beta (more confidential power).
            if beta > best_beta:
                best_beta, best_label, best_phi = beta, label, value
        elif value > best_phi:
            best_beta, best_label, best_phi = beta, label, value
    return _solution(coeffs, sp, best_beta, best_label)


def _solution(
    coeffs: RationalCoefficients, sp: StationaryPoints, beta: float, label: str
) -> PaSolution:
    return PaSolution(
        beta_star=float(beta),
        secrecy_rate_at_beta=f_value(coeffs, beta),
        winning_candidate=label,
        delta=sp.delta,
        coefficients=coeffs,
    )


# ------------------------------------------------------------- beamforming


def summed_separation(theta_b, theta_e, m: int, spacing: float):
    """D = M^2 - |h_e^H h_b|^2 as the sum 4 sum_{k=1}^{M-1} (M-k) sin^2(k y)
    of nonnegative terms, y = pi (d/lambda)(cos theta_b - cos theta_e) formed
    as a product of sines; capped at M^2 like the closed form."""
    y = -2.0 * math.pi * spacing * np.sin(0.5 * (theta_b + theta_e)) * np.sin(
        0.5 * (theta_b - theta_e)
    )
    k = np.arange(1.0, m)
    terms = np.sin(np.reshape(y, -1)[:, None] * k) ** 2
    total = (terms[:, None, :] @ (m - k)[:, None])[:, 0, 0]
    return np.minimum(4.0 * total, float(m * m)).reshape(np.shape(y))[()]


def steering_vector(theta: float, m: int, spacing: float) -> np.ndarray:
    """Unit-modulus response of an ``m``-element array at spacing d/lambda =
    ``spacing`` toward direction ``theta``.

    Entry k (1-based) is exp(-j*2*pi*(k-(M+1)/2)*(d/lambda)*cos(theta)), so
    the phase profile is antisymmetric about the array center and the vector
    has Euclidean norm sqrt(M).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    k = np.arange(1, m + 1)
    phase = -(k - (m + 1) / 2.0) * spacing * math.cos(theta)
    return np.exp(2j * math.pi * phase)


class SteeredLink(Validated, namedtuple("SteeredLink", (*LinkState._fields, "h_b", "h_e"),
                                          defaults=(None, None))):
    """A link state plus the steering vectors toward the UAV and Eve: checked
    as a ``LinkState`` is, with the same ``shape``; ``_replace`` keeps the
    vectors."""

    __slots__ = ()
    _validate = LinkState._validate
    shape = LinkState.shape


def steered_link(theta_b: float, theta_e: float, m: int, spacing: float, **fields) -> SteeredLink:
    """Link state of an ``m``-element array at spacing ``spacing`` toward two
    directions, with its separation and vectors."""
    return SteeredLink(
        num_antennas=m,
        separation=array_separation(theta_b, theta_e, m, spacing),
        h_b=steering_vector(theta_b, m, spacing),
        h_e=steering_vector(theta_e, m, spacing),
        **fields,
    )


@dataclass(frozen=True)
class BeamformingPair:
    """Unit-norm confidential-message vector and artificial-noise vector."""

    v_b: np.ndarray = field(repr=False)
    v_an: np.ndarray = field(repr=False)


def rank1_inverse_apply(a: float, scale: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Compute (a*I + scale*x x^H)^{-1} y via the Sherman-Morrison identity.

    The component of y along x is scaled by 1/(a + scale*|x|^2) and the rest
    by 1/a. The textbook form (y - x*c)/a cancels to a zero vector when y is
    parallel to x and c rounds to 1.
    """
    if a <= 0:
        raise ValueError("diagonal loading must be positive")
    xx = np.vdot(x, x).real
    along = x * (np.vdot(x, y) / xx)
    # Scaling by reciprocals: a complex array divides several times slower
    # than it multiplies.
    return along * (1.0 / (a + scale * xx)) + (y - along) * (1.0 / a)


def _normalize(v: np.ndarray) -> np.ndarray:
    # Global phase fixed so the first entry is real nonnegative; rates only
    # see |h^H v|^2, so this is purely for reproducibility.
    v = v / np.linalg.norm(v)
    lead = v[0]
    if abs(lead) > 0:
        v = v * (lead.conjugate() / abs(lead))
    return v


def slnr_value(v: np.ndarray, link: SteeredLink, beta: float) -> float:
    """SLNR of a unit-norm candidate vector at the given power split."""
    signal = beta * link.p_s * abs(np.vdot(link.h_b, v)) ** 2
    leak = beta * link.p_s * abs(np.vdot(link.h_e, v)) ** 2
    noise = link.sigma2_b * np.vdot(v, v).real
    return signal / (leak + noise)


def slnr_beamformer(link: SteeredLink, beta: float) -> np.ndarray:
    """Max-SLNR confidential-message vector.

    Closed form: normalized (beta*Ps*h_e h_e^H + sigma_b^2 I)^{-1} h_b. At
    beta=0 the whitening matrix degenerates to sigma_b^2*I and the result is
    the matched filter h_b/sqrt(M); that input is allowed.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    raw = rank1_inverse_apply(link.sigma2_b, beta * link.p_s, link.h_e, link.h_b)
    return _normalize(raw)


def anlnr_value(v: np.ndarray, link: SteeredLink, beta: float) -> float:
    """ANLNR of a unit-norm candidate vector at the given power split."""
    signal = (1.0 - beta) * link.p_s * abs(np.vdot(link.h_e, v)) ** 2
    leak = (1.0 - beta) * link.p_s * abs(np.vdot(link.h_b, v)) ** 2
    noise = link.sigma2_e * np.vdot(v, v).real
    return signal / (leak + noise)


def anlnr_beamformer(link: SteeredLink, beta: float) -> np.ndarray:
    """Max-ANLNR artificial-noise vector.

    Closed form: normalized ((1-beta)*Ps*h_b h_b^H + sigma_e^2 I)^{-1} h_e;
    beta=1 degenerates gracefully to h_e/sqrt(M).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    raw = rank1_inverse_apply(link.sigma2_e, (1.0 - beta) * link.p_s, link.h_b, link.h_e)
    return _normalize(raw)


def leakage_pair(link: SteeredLink, beta: float) -> BeamformingPair:
    """Both leakage-optimal vectors for one power split."""
    return BeamformingPair(
        v_b=slnr_beamformer(link, beta),
        v_an=anlnr_beamformer(link, beta),
    )


def projected_powers(link: SteeredLink, bf: BeamformingPair) -> ProjectedPowers:
    """Project both beamformers onto both steering vectors.

    The powers are returned as Python floats: the scalar arithmetic of the
    power allocation and the loop runs faster on them than on numpy scalars,
    with the same IEEE results.
    """
    return ProjectedPowers(
        *(float(abs(np.vdot(h, v)) ** 2) for h in (link.h_b, link.h_e) for v in (bf.v_b, bf.v_an))
    )
