"""Leakage-based transmit beamformers, reduced to their four projected powers,
and the achievable rates at a power split over them.

The confidential-message vector v_b maximizes the signal-to-leakage-and-noise
ratio (SLNR) toward the UAV: it is (beta Ps h_e h_e^H + sigma_b^2 I)^{-1} h_b,
normalized. The artificial-noise vector v_an maximizes the
AN-and-leakage-to-noise ratio (ANLNR) toward the eavesdropper:
((1-beta) Ps h_b h_b^H + sigma_e^2 I)^{-1} h_e, normalized. Everything
downstream (the rates, the power allocation and the alternating loop) sees
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
"""

from collections import namedtuple

import numpy as np

from .geometry import LinkState


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
    """

    def rate(gain, u, w, sigma2):
        signal = gain * beta * link.p_s * u
        return np.log2(1.0 + signal / (gain * (1.0 - beta) * link.p_s * w + sigma2))

    return (
        rate(link.g_ab, powers.u_b, powers.w_b, link.sigma2_b),
        rate(link.g_ae, powers.u_e, powers.w_e, link.sigma2_e),
    )
