"""Achievable rates, per-point secrecy rate, and the flight-level sum rate.

All rates are in bits/s/Hz (log base 2); all powers are linear mW. The rates,
the power allocation and the alternating loop see the beamformers only
through the four projected powers of ``ProjectedPowers``, which
``beamforming.leakage_pair`` gives in closed form; no steering or beamforming
vector is ever formed (projecting actual vectors is the tests' reference).
Every function is elementwise over the lanes of a batched ``LinkState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .geometry import LinkState

import numpy as np


class ProjectedPowers(NamedTuple):
    """|h^H v|^2 for the four steering-vector / beamformer pairs."""

    u_b: float  # confidential stream at Bob, |h_b^H v_b|^2
    w_b: float  # artificial noise at Bob, |h_b^H v_an|^2
    u_e: float  # confidential stream at Eve, |h_e^H v_b|^2
    w_e: float  # artificial noise at Eve, |h_e^H v_an|^2


@dataclass(frozen=True)
class RateBreakdown:
    rate_bob: float
    rate_eve: float
    secrecy_rate: float


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


def rates_at(link: LinkState, powers: ProjectedPowers, beta: float) -> RateBreakdown:
    """Bob's and Eve's rates and the secrecy rate max{0, R_b - R_e}."""
    if not np.all((0.0 <= beta) & (beta <= 1.0)):
        raise ValueError("beta must lie in [0, 1]")
    r_b, r_e = split_rates(link, powers, beta)
    diff = r_b - r_e
    # max{0, diff} as Python's max(0.0, diff) gives it: 0 for a NaN difference.
    return RateBreakdown(rate_bob=r_b, rate_eve=r_e, secrecy_rate=np.where(diff > 0.0, diff, 0.0)[()])


def secrecy_sum_rate(rate_differences: Iterable[float]) -> float:
    """Whole-flight sum rate max{0, sum_n (R_b,n - R_e,n)}.

    Takes the signed per-point differences; clamping happens on the sum, not
    per point. The per-point-clamped variant is just sum(max(0, .)) and is
    reported separately by the harness.
    """
    values = list(rate_differences)
    if not values:
        raise ValueError("secrecy_sum_rate needs at least one sampling point")
    return max(0.0, math.fsum(values))
