"""Achievable rates at a power split.

All rates are in bits/s/Hz (log base 2); all powers are linear mW. The rates,
the power allocation and the alternating loop see the beamformers only
through the four projected powers of ``ProjectedPowers``, which
``beamforming.leakage_pair`` gives in closed form; no steering or beamforming
vector is ever formed (projecting actual vectors is the tests' reference).
Every function is elementwise over the lanes of a batched ``LinkState``.
"""

from __future__ import annotations

from collections import namedtuple

from .geometry import LinkState

import numpy as np


class ProjectedPowers(namedtuple("ProjectedPowers", "u_b w_b u_e w_e")):
    """|h^H v|^2 for the four steering-vector / beamformer pairs: the
    confidential stream at Bob, u_b = |h_b^H v_b|^2, and the artificial noise
    there, w_b = |h_b^H v_an|^2; at Eve, u_e = |h_e^H v_b|^2 and
    w_e = |h_e^H v_an|^2."""

    __slots__ = ()


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
