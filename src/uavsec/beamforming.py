"""Leakage-based transmit beamformers.

The confidential-message vector maximizes the signal-to-leakage-and-noise
ratio (SLNR) toward the UAV; the artificial-noise vector maximizes the
AN-and-leakage-to-noise ratio (ANLNR) toward the eavesdropper. Both have
closed forms: the whitening matrix is identity plus a rank-one term, so its
inverse is applied in O(M) without a general solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import LinkState


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


def slnr_value(v: np.ndarray, link: LinkState, beta: float) -> float:
    """SLNR of a unit-norm candidate vector at the given power split."""
    signal = beta * link.p_s * abs(np.vdot(link.h_b, v)) ** 2
    leak = beta * link.p_s * abs(np.vdot(link.h_e, v)) ** 2
    noise = link.sigma2_b * np.vdot(v, v).real
    return signal / (leak + noise)


def slnr_beamformer(link: LinkState, beta: float) -> np.ndarray:
    """Max-SLNR confidential-message vector.

    Closed form: normalized (beta*Ps*h_e h_e^H + sigma_b^2 I)^{-1} h_b. At
    beta=0 the whitening matrix degenerates to sigma_b^2*I and the result is
    the matched filter h_b/sqrt(M); that input is allowed.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    raw = rank1_inverse_apply(link.sigma2_b, beta * link.p_s, link.h_e, link.h_b)
    return _normalize(raw)


def anlnr_value(v: np.ndarray, link: LinkState, beta: float) -> float:
    """ANLNR of a unit-norm candidate vector at the given power split."""
    signal = (1.0 - beta) * link.p_s * abs(np.vdot(link.h_e, v)) ** 2
    leak = (1.0 - beta) * link.p_s * abs(np.vdot(link.h_b, v)) ** 2
    noise = link.sigma2_e * np.vdot(v, v).real
    return signal / (leak + noise)


def anlnr_beamformer(link: LinkState, beta: float) -> np.ndarray:
    """Max-ANLNR artificial-noise vector.

    Closed form: normalized ((1-beta)*Ps*h_b h_b^H + sigma_e^2 I)^{-1} h_e;
    beta=1 degenerates gracefully to h_e/sqrt(M).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    raw = rank1_inverse_apply(link.sigma2_e, (1.0 - beta) * link.p_s, link.h_b, link.h_e)
    return _normalize(raw)


def leakage_pair(link: LinkState, beta: float) -> BeamformingPair:
    """Both leakage-optimal vectors for one power split."""
    return BeamformingPair(
        v_b=slnr_beamformer(link, beta),
        v_an=anlnr_beamformer(link, beta),
    )
