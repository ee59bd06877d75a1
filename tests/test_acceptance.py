"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a report
when run with ``pytest -s tests/test_acceptance.py``.
"""

import math
import statistics
import time

import numpy as np

from uavsec.ais import AisConfig, optimize_point
from uavsec.beamforming import leakage_pair
from uavsec.geometry import ArrayConfig, ScenarioGeometry
from uavsec.power_allocation import beta_grid_oracle, closed_form
from uavsec.harness import dbm_to_mw, parse_config_text, run_experiment, write_results
from oracle import anlnr_beamformer, f_value, rational_coefficients, slnr_beamformer
from uavsec.rates import split_rates

from helpers import flight_links, random_instance, random_link, symmetric_link


def _report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} [{detail}]")
    assert ok, f"acceptance {number} failed: {detail}"


def _cosine(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def _dominant(matrix):
    w, v = np.linalg.eig(matrix)
    return v[:, np.argmax(np.abs(w))]


def _default_links(m, ps_dbm):
    geom = ScenarioGeometry()
    arr = ArrayConfig(m)
    noise = dbm_to_mw(-110.0)
    ps = dbm_to_mw(ps_dbm)
    return flight_links(geom, arr, sigma2_b=noise, sigma2_e=noise, p_s=ps)


_MEAN_SR_CACHE: dict = {}


def _mean_sr(m, ps_dbm, strategy):
    """Trajectory-mean secrecy rate for one (M, Ps, strategy) combination."""
    key = (m, ps_dbm, strategy)
    if key not in _MEAN_SR_CACHE:
        values = []
        for link in _default_links(m, ps_dbm):
            if strategy == "ais":
                _, _, trace = optimize_point(link)
                values.append(max(0.0, trace.rate_bob - trace.rate_eve))
            else:
                r_b, r_e = split_rates(link, leakage_pair(link, strategy), strategy)
                values.append(max(0.0, r_b - r_e))
        _MEAN_SR_CACHE[key] = math.fsum(values) / len(values)
    return _MEAN_SR_CACHE[key]


def test_acceptance_1_beamformers_match_eigen_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 1.0
    for m in (4, 8, 16):
        eye = np.eye(m)
        for _ in range(300):
            link = random_link(rng, m)
            beta = rng.uniform(0.05, 0.95)
            cov_b = beta * link.p_s * np.outer(link.h_e, link.h_e.conj()) + link.sigma2_b * eye
            cov_e = (1 - beta) * link.p_s * np.outer(link.h_b, link.h_b.conj()) + link.sigma2_e * eye
            sim_b = _cosine(
                slnr_beamformer(link, beta),
                _dominant(np.linalg.solve(cov_b, np.outer(link.h_b, link.h_b.conj()))),
            )
            sim_e = _cosine(
                anlnr_beamformer(link, beta),
                _dominant(np.linalg.solve(cov_e, np.outer(link.h_e, link.h_e.conj()))),
            )
            worst = min(worst, sim_b, sim_e)
    elapsed = time.monotonic() - start
    ok = worst >= 1 - 1e-10 and elapsed < 10.0
    _report(1, "beamformers match dominant eigenvectors",
            ok, f"worst cosine {worst:.3e}, {elapsed:.1f}s")


def test_acceptance_2_closed_form_matches_fine_grid():
    rng = np.random.default_rng(20240817)
    start = time.monotonic()
    worst = 0.0
    count = 0
    for m in (4, 8, 16):
        for ps_dbm in (10.0, 20.0, 30.0):
            for i in range(112):
                link, powers = random_instance(rng, i, m, ps_dbm)
                _, f_closed, _, _ = closed_form(link, powers)
                _, f_grid, _, _ = beta_grid_oracle(link, powers, 1e-4)
                worst = max(worst, abs(max(0.0, f_closed) - max(0.0, f_grid)))
                count += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(2, "closed-form power split matches 1e-4 grid search",
            ok, f"{count} instances, worst gap {worst:.3e}, {elapsed:.1f}s")


def test_acceptance_3_coefficient_identity():
    rng = np.random.default_rng(303)
    grid = np.linspace(0.0, 1.0, 100)
    worst = 0.0
    for i in range(200):
        m = (4, 8, 16)[i % 3]
        link, powers = random_instance(rng, i, m, (10.0, 20.0, 30.0)[i % 3])
        coeffs = rational_coefficients(link, powers)
        for beta in grid:
            r_b, r_e = split_rates(link, powers, float(beta))
            worst = max(worst, abs(f_value(coeffs, float(beta)) - (r_b - r_e)))
    ok = worst <= 1e-9
    _report(3, "quadratic-ratio coefficients reproduce the rate difference",
            ok, f"worst gap {worst:.3e}")


def test_acceptance_4_fast_convergence_on_default_flight():
    cfg = AisConfig(epsilon=1e-6)
    counts = []
    all_converged = True
    for ps_dbm in (10.0, 20.0, 30.0):
        for link in _default_links(8, ps_dbm):
            _, _, trace = optimize_point(link, cfg)
            counts.append(trace.iterations_used)
            all_converged &= trace.converged
    ok = all_converged and max(counts) <= 5 and statistics.median(counts) <= 2
    _report(4, "alternating loop converges fast on the default flight",
            ok, f"max {max(counts)}, median {statistics.median(counts)}, "
                f"all converged {all_converged}")


def test_acceptance_5_adaptive_split_dominates_fixed():
    ok = True
    worst_margin = math.inf
    for m in (4, 8, 16):
        for ps_dbm in (10.0, 20.0, 30.0):
            adaptive = _mean_sr(m, ps_dbm, "ais")
            for fixed in (0.5, 0.9):
                margin = adaptive - _mean_sr(m, ps_dbm, fixed)
                worst_margin = min(worst_margin, margin)
                ok &= margin >= -1e-9
    _report(5, "adaptive power split dominates fixed splits",
            ok, f"worst margin {worst_margin:.4f} bits")


def test_acceptance_6_power_and_antenna_trends():
    powers = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    monotone = True
    for m in (4, 16):
        means = [_mean_sr(m, p, "ais") for p in powers]
        monotone &= all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
    gain_small = _mean_sr(8, 20.0, "ais") - _mean_sr(4, 20.0, "ais")
    gain_large = _mean_sr(32, 20.0, "ais") - _mean_sr(16, 20.0, "ais")
    saturating = gain_large < gain_small
    ok = monotone and saturating
    _report(6, "secrecy grows with power and saturates with antennas",
            ok, f"monotone {monotone}, gain 4->8 {gain_small:.3f}, "
                f"gain 16->32 {gain_large:.3f}")


def test_acceptance_7_identical_channels_leak_nothing():
    link = symmetric_link()
    worst = 0.0
    _, _, trace = optimize_point(link)
    worst = max(worst, max(0.0, trace.rate_bob - trace.rate_eve))
    for beta in (0.5, 0.9):
        r_b, r_e = split_rates(link, leakage_pair(link, beta), beta)
        worst = max(worst, max(0.0, r_b - r_e))
    _, f_grid, _, _ = beta_grid_oracle(link, leakage_pair(link, 0.5), 1e-3)
    worst = max(worst, max(0.0, f_grid))
    ok = worst <= 1e-12
    _report(7, "identical Bob/Eve channels give zero secrecy",
            ok, f"worst secrecy {worst:.3e}")


def test_acceptance_8_reruns_are_byte_identical(tmp_path):
    cfg = parse_config_text(
        "geometry.flight_end=80,0,20\n"
        "sweep.power_dbm=10,20\nsweep.antennas=8\n"
        "strategies=ais,fixed:0.5\n"
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_results(run_experiment(cfg), "csv", first)
    write_results(run_experiment(cfg), "csv", second)
    ok = first.read_bytes() == second.read_bytes()
    _report(8, "repeated runs produce byte-identical results",
            ok, f"{len(first.read_bytes())} bytes compared")
