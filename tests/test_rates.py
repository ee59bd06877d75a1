"""The rate layer on the projected powers of arbitrary unit vectors, which
the vector reference (``oracle.projected_powers``) supplies."""

import math

import numpy as np

from uavsec.ais import split_rates

from helpers import random_link, random_pair, random_unit, symmetric_link
from oracle import BeamformingPair, projected_powers


def rate_bob(link, bf, beta):
    return split_rates(link, projected_powers(link, bf), beta)[0]


def rate_eve(link, bf, beta):
    return split_rates(link, projected_powers(link, bf), beta)[1]


def secrecy_rate(link, bf, beta):
    """The per-point secrecy rate max{0, R_b - R_e}, as a sweep reports it."""
    r_b, r_e = split_rates(link, projected_powers(link, bf), beta)
    return max(0.0, r_b - r_e)


def manual_rate(g, beta, p_s, h, v_b, v_an, sigma2):
    signal = g * beta * p_s * abs(np.vdot(h, v_b)) ** 2
    interference = g * (1 - beta) * p_s * abs(np.vdot(h, v_an)) ** 2
    return math.log2(1 + signal / (interference + sigma2))


def test_rate_bob_zero_without_confidential_power():
    rng = np.random.default_rng(0)
    link = random_link(rng, 4)
    assert rate_bob(link, random_pair(rng, 4), 0.0) == 0.0


def test_rate_bob_orthogonal_an_full_power():
    rng = np.random.default_rng(1)
    link = random_link(rng, 8)
    v_b = random_unit(rng, 8)
    # v_an orthogonal to h_b: no interference term at any beta
    v = random_unit(rng, 8)
    v_an = v - link.h_b * (np.vdot(link.h_b, v) / np.vdot(link.h_b, link.h_b))
    v_an /= np.linalg.norm(v_an)
    bf = BeamformingPair(v_b=v_b, v_an=v_an)
    expected = math.log2(
        1 + link.g_ab * link.p_s * abs(np.vdot(link.h_b, v_b)) ** 2 / link.sigma2_b
    )
    assert abs(rate_bob(link, bf, 1.0) - expected) < 1e-12


def test_rate_bob_term_by_term():
    rng = np.random.default_rng(2)
    for _ in range(20):
        link = random_link(rng, 4)
        bf = random_pair(rng, 4)
        beta = rng.uniform(0, 1)
        expected = manual_rate(
            link.g_ab, beta, link.p_s, link.h_b, bf.v_b, bf.v_an, link.sigma2_b
        )
        assert abs(rate_bob(link, bf, beta) - expected) < 1e-12


def test_rate_eve_term_by_term():
    rng = np.random.default_rng(3)
    for _ in range(20):
        link = random_link(rng, 8)
        bf = random_pair(rng, 8)
        beta = rng.uniform(0, 1)
        expected = manual_rate(
            link.g_ae, beta, link.p_s, link.h_e, bf.v_b, bf.v_an, link.sigma2_e
        )
        assert abs(rate_eve(link, bf, beta) - expected) < 1e-12
    assert rate_eve(link, bf, 0.0) == 0.0


def test_rate_eve_vanishes_without_path_gain():
    rng = np.random.default_rng(4)
    link = random_link(rng, 8)
    weak = link._replace(g_ae=1e-30)
    bf = random_pair(rng, 8)
    for beta in (0.1, 0.5, 0.9, 1.0):
        assert rate_eve(weak, bf, beta) < 1e-15


def test_secrecy_rate_symmetric_links_zero():
    rng = np.random.default_rng(5)
    link = symmetric_link()
    bf = random_pair(rng, 8)
    for beta in np.linspace(0, 1, 11):
        assert secrecy_rate(link, bf, float(beta)) == 0.0


def test_secrecy_rate_composition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        link = random_link(rng, 8)
        bf = random_pair(rng, 8)
        beta = rng.uniform(0, 1)
        rs = secrecy_rate(link, bf, beta)
        expected = max(0.0, rate_bob(link, bf, beta) - rate_eve(link, bf, beta))
        assert abs(rs - expected) < 1e-12
        assert rs >= 0.0
    assert secrecy_rate(link, bf, 0.0) == 0.0


def test_rate_bob_nondecreasing_in_beta():
    rng = np.random.default_rng(7)
    grid = np.linspace(0, 1, 200)
    for _ in range(10):
        link = random_link(rng, 8)
        bf = random_pair(rng, 8)
        values = [rate_bob(link, bf, float(b)) for b in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_global_phase_invariance():
    rng = np.random.default_rng(8)
    link = random_link(rng, 8)
    bf = random_pair(rng, 8)
    rotated = BeamformingPair(
        v_b=bf.v_b * np.exp(1j * 0.73), v_an=bf.v_an * np.exp(1j * 2.1)
    )
    for beta in (0.2, 0.7):
        assert abs(rate_bob(link, bf, beta) - rate_bob(link, rotated, beta)) < 1e-12
        assert abs(rate_eve(link, bf, beta) - rate_eve(link, rotated, beta)) < 1e-12


def test_joint_noise_power_scaling_invariance():
    rng = np.random.default_rng(9)
    link = random_link(rng, 8)
    scaled = link._replace(
        sigma2_b=link.sigma2_b * 37.0, sigma2_e=link.sigma2_e * 37.0, p_s=link.p_s * 37.0
    )
    bf = random_pair(rng, 8)
    for beta in (0.3, 0.8):
        assert abs(rate_bob(link, bf, beta) - rate_bob(scaled, bf, beta)) < 1e-10
        assert abs(rate_eve(link, bf, beta) - rate_eve(scaled, bf, beta)) < 1e-10
