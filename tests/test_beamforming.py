"""The closed-form projected powers against the vector reference, and the
vector reference (``oracle``) against first principles."""

import math

import numpy as np
import pytest

from uavsec.ais import leakage_pair, split_rates

from helpers import random_link, random_unit, symmetric_link
from oracle import (
    anlnr_beamformer,
    anlnr_value,
    projected_powers,
    rank1_inverse_apply,
    slnr_beamformer,
    slnr_value,
    steered_link,
)
import oracle


def orthogonal_steering_link(p_s=10.0):
    """M=4 half-wavelength ULA: broadside and arccos(1/2) are orthogonal."""
    link = steered_link(math.pi / 2, math.acos(0.5), 4, 0.5, g_ab=1e-4, g_ae=1e-4,
                        sigma2_b=1e-5, sigma2_e=1e-5, p_s=p_s)
    assert abs(np.vdot(link.h_b, link.h_e)) < 1e-12
    return link


def cosine_similarity(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def dominant_eigenvector(matrix):
    w, v = np.linalg.eig(matrix)
    return v[:, np.argmax(np.abs(w))]


class TestSlnr:
    def test_value_zero_for_orthogonal_probe(self):
        link = orthogonal_steering_link()
        rng = np.random.default_rng(0)
        v = random_unit(rng, 4)
        v = v - link.h_b * (np.vdot(link.h_b, v) / np.vdot(link.h_b, link.h_b))
        v /= np.linalg.norm(v)
        assert slnr_value(v, link, 0.5) < 1e-24

    def test_value_matched_filter_no_leakage(self):
        link = orthogonal_steering_link()
        v = link.h_b / np.linalg.norm(link.h_b)
        beta = 0.3
        expected = beta * link.p_s * 4 / link.sigma2_b
        assert abs(slnr_value(v, link, beta) - expected) < 1e-9 * expected

    def test_value_term_by_term(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            link = random_link(rng, 8)
            v = random_unit(rng, 8)
            beta = rng.uniform(0.05, 1.0)
            num = beta * link.p_s * abs(np.vdot(link.h_b, v)) ** 2
            den = beta * link.p_s * abs(np.vdot(link.h_e, v)) ** 2 + link.sigma2_b
            assert abs(slnr_value(v, link, beta) - num / den) < 1e-12 * (num / den)

    def test_beamformer_matched_filter_when_orthogonal(self):
        link = orthogonal_steering_link()
        v_b = slnr_beamformer(link, 0.4)
        assert cosine_similarity(v_b, link.h_b) > 1 - 1e-12

    def test_beamformer_matches_eigen_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            link = random_link(rng, 8)
            beta = rng.uniform(0.05, 0.95)
            v_b = slnr_beamformer(link, beta)
            whitening = beta * link.p_s * np.outer(link.h_e, link.h_e.conj()) \
                + link.sigma2_b * np.eye(8)
            target = np.linalg.solve(whitening, np.outer(link.h_b, link.h_b.conj()))
            assert cosine_similarity(v_b, dominant_eigenvector(target)) >= 1 - 1e-10

    def test_beamformer_beats_random_probes(self):
        rng = np.random.default_rng(3)
        link = random_link(rng, 8)
        beta = 0.6
        best = slnr_value(slnr_beamformer(link, beta), link, beta)
        for _ in range(1000):
            assert best >= slnr_value(random_unit(rng, 8), link, beta)

    def test_beta_zero_degenerates_to_matched_filter(self):
        rng = np.random.default_rng(4)
        link = random_link(rng, 8)
        assert cosine_similarity(slnr_beamformer(link, 0.0), link.h_b) > 1 - 1e-12

    def test_depends_only_on_beta_ps_over_noise(self):
        rng = np.random.default_rng(5)
        link = random_link(rng, 8)
        # beta1 * Ps / sigma2 kept fixed while each factor changes
        scaled = link._replace(sigma2_b=link.sigma2_b * 4.0, p_s=link.p_s * 8.0)
        v1 = slnr_beamformer(link, 0.5)
        v2 = slnr_beamformer(scaled, 0.25)
        assert np.allclose(v1, v2, atol=1e-12)


class TestAnlnr:
    def test_value_zero_for_orthogonal_probe(self):
        link = orthogonal_steering_link()
        rng = np.random.default_rng(6)
        v = random_unit(rng, 4)
        v = v - link.h_e * (np.vdot(link.h_e, v) / np.vdot(link.h_e, link.h_e))
        v /= np.linalg.norm(v)
        assert anlnr_value(v, link, 0.5) < 1e-24

    def test_value_matched_to_eve_no_leakage(self):
        link = orthogonal_steering_link()
        v = link.h_e / np.linalg.norm(link.h_e)
        beta = 0.3
        expected = (1 - beta) * link.p_s * 4 / link.sigma2_e
        assert abs(anlnr_value(v, link, beta) - expected) < 1e-9 * expected

    def test_value_term_by_term(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            link = random_link(rng, 8)
            v = random_unit(rng, 8)
            beta = rng.uniform(0.0, 0.95)
            num = (1 - beta) * link.p_s * abs(np.vdot(link.h_e, v)) ** 2
            den = (1 - beta) * link.p_s * abs(np.vdot(link.h_b, v)) ** 2 + link.sigma2_e
            assert abs(anlnr_value(v, link, beta) - num / den) < 1e-12 * (num / den)

    def test_beamformer_matches_eigen_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            link = random_link(rng, 8)
            beta = rng.uniform(0.05, 0.95)
            v_an = anlnr_beamformer(link, beta)
            whitening = (1 - beta) * link.p_s * np.outer(link.h_b, link.h_b.conj()) \
                + link.sigma2_e * np.eye(8)
            target = np.linalg.solve(whitening, np.outer(link.h_e, link.h_e.conj()))
            assert cosine_similarity(v_an, dominant_eigenvector(target)) >= 1 - 1e-10

    def test_beamformer_beats_random_probes(self):
        rng = np.random.default_rng(9)
        link = random_link(rng, 8)
        beta = 0.4
        best = anlnr_value(anlnr_beamformer(link, beta), link, beta)
        for _ in range(1000):
            assert best >= anlnr_value(random_unit(rng, 8), link, beta)

    def test_beta_one_limit_is_eve_matched_filter(self):
        rng = np.random.default_rng(10)
        link = random_link(rng, 8)
        assert cosine_similarity(anlnr_beamformer(link, 1.0), link.h_e) > 1 - 1e-12


def test_outputs_unit_norm_and_deterministic_phase():
    rng = np.random.default_rng(11)
    for _ in range(20):
        link = random_link(rng, 16)
        beta = rng.uniform(0, 1)
        bf = oracle.leakage_pair(link, beta)
        assert abs(np.linalg.norm(bf.v_b) - 1.0) < 1e-12
        assert abs(np.linalg.norm(bf.v_an) - 1.0) < 1e-12
        assert bf.v_b[0].real >= 0 and abs(bf.v_b[0].imag) < 1e-12
        assert bf.v_an[0].real >= 0 and abs(bf.v_an[0].imag) < 1e-12


def test_rank1_identity_matches_dense_solve():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.choice([4, 8, 16]))
        x = random_unit(rng, m) * rng.uniform(0.5, 3.0)
        y = random_unit(rng, m)
        a = 10.0 ** rng.uniform(-6, 0)
        scale = 10.0 ** rng.uniform(-3, 3)
        matrix = a * np.eye(m) + scale * np.outer(x, x.conj())
        fast = rank1_inverse_apply(a, scale, x, y)
        dense = np.linalg.solve(matrix, y)
        # the dense reference itself loses digits with the conditioning
        tol = 1e-14 * max(1.0, np.linalg.cond(matrix))
        assert np.linalg.norm(fast - dense) <= tol * np.linalg.norm(dense)


def test_parallel_channels_at_high_power_stay_finite():
    # h_b == h_e at 50 dBm over a -110 dBm noise floor: D = 0, so both
    # vectors are the matched filter whatever the split, and each projected
    # power is the full array gain M.
    for m in (3, 8, 1024):
        link = symmetric_link(m, p_s=1e5)._replace(sigma2_b=1e-11, sigma2_e=1e-11)
        assert link.separation == 0.0
        for beta in (0.1, 0.5, 0.9):
            powers = leakage_pair(link, beta)
            assert powers.u_b == powers.w_e == powers.u_e == powers.w_b == m
            r_b, r_e = split_rates(link, powers, beta)
            assert all(math.isfinite(r) for r in (r_b, r_e))
            assert max(0.0, r_b - r_e) == 0.0


@pytest.mark.parametrize("m", [2, 4, 8, 64, 256, 1024])
def test_closed_form_matches_vector_projections(m):
    rng = np.random.default_rng(m)
    worst = 0.0
    for _ in range(60):
        theta_b, theta_e = rng.uniform(0.0, math.pi, size=2)
        if abs(theta_b - theta_e) < 0.05:
            continue
        p_s, sigma2_e = 10.0 ** rng.uniform(-4, 19), 10.0 ** rng.uniform(-1, 1)
        link = steered_link(theta_b, theta_e, m, 0.5, g_ab=1.0, g_ae=1.0, sigma2_b=1.0,
                            sigma2_e=sigma2_e, p_s=p_s)
        for beta in (0.0, rng.uniform(0.0, 1.0), 1.0):
            closed = leakage_pair(link, beta)
            vector = projected_powers(link, oracle.leakage_pair(link, beta))
            worst = max(worst, max(abs(c - v) for c, v in zip(closed, vector)))
    assert worst <= 1e-12 * m
