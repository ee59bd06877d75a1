"""The rates of a large-array sweep against their large-M limit.

Where Eve is outside Bob's main and grating lobes, sin e != 0 with
e = pi (z - round z), z = (d/lambda)(cos theta_b - cos theta_e), and
|h_e^H h_b|^2 = r^2 = sin^2(Me)/sin^2 e <= 1/sin^2 e stays bounded as M grows,
while D = M^2 - r^2. At beta = 1 the artificial noise gets no power, and the
leakage beamformer's u_b = (D + t_b r^2)^2 / (M (D + t_b^2 r^2)) lies in
[D/M, M], so 0 <= M - u_b <= r^2/M. Bob's rate then trails
R_lim = log2(1 + g_ab Ps M / sigma_b^2) by log2((sigma_b^2 + g_ab Ps M) /
(sigma_b^2 + g_ab Ps u_b)), which lies in [0, log2(M^2 / (M^2 - r^2))], and so

    0 <= R_lim - R_s <= r^2 / ((M^2 - r^2) ln 2),

as long as Eve's rate, about g_ae sigma_b^4 r^2 / (sigma_e^2 Ps M^3 ln 2), is
far below the bound (it rounds to 0 on every lane here). The secrecy rate
grows by one bit per doubling of M: the model has no ceiling. The grid
oracle holds beta = 1 exactly (1 = 100 steps of 1e-2), picks it, and meets
the same bound.

A fixed split B < 1 gives the artificial noise (1 - B) Ps, and its limit is
R_lim(B) = log2(1 + g_ab B Ps M / sigma_b^2), which trails beta = 1 by
log2(1/B) as M grows. Bob's rate is log2(1 + S / (sigma_b^2 + N)) with
S = g_ab B Ps u_b and the noise's leakage to him N = g_ab (1 - B) Ps w_b, so

    R_lim(B) - R_b = log2((sigma_b^2 + g_ab B Ps M) / (sigma_b^2 + N + S))
                     + log2(1 + N / sigma_b^2).

Both terms together are >= 0 (the second makes up for the N in the first),
the first is at most log2(M / u_b), as at beta = 1, and the second is at most
N / (sigma_b^2 ln 2). The AN beamformer's w_b = M t_e^2 r^2 / (D + t_e^2 r^2)
is at most M t_e^2 r^2 / (M^2 - r^2), with its noise share
t_e = sigma_e^2 / (sigma_e^2 + (1 - B) Ps M) < sigma_e^2 / ((1 - B) Ps M), so
N / sigma_b^2 <= g_ab sigma_e^4 r^2 / ((1 - B) Ps M sigma_b^2 (M^2 - r^2)), and

    0 <= R_lim(B) - R_s <= (r^2 / ((M^2 - r^2) ln 2))
                           (1 + g_ab sigma_e^4 / ((1 - B) Ps M sigma_b^2)),

the beta = 1 bound widened by the leakage term, with Eve's rate, which the
noise beamed at her makes smaller still, far below it. On Bob's
bearing (D = 0) every projected power is M, and the secrecy rate at beta = 1
is max(0, log2((sigma^2 + g_ab Ps M) / (sigma^2 + g_ae Ps M))): 0 only where
Eve hears Bob's signal at least as strongly as Bob does.
"""

import math

import numpy as np
import pytest

from uavsec.geometry import link_state_at, path_loss, sample_trajectory
from uavsec.harness import dbm_to_mw, parse_config_text, run_experiment

EPS = 2.0**-52


def _sweep(text):
    cfg = parse_config_text("strategies=ais\n" + text)
    return cfg, sample_trajectory(cfg.geometry), run_experiment(cfg)


@pytest.mark.parametrize("noise_dbm", [-110.0, -60.0])
def test_secrecy_rate_tends_to_bobs_full_array_rate(noise_dbm):
    cfg, traj, result = _sweep(f"noise.bob_dbm={noise_dbm!r}\nnoise.eve_dbm={noise_dbm!r}\n"
                               "sweep.antennas=16384,262144,1000000\nsweep.power_dbm=10,20,30\n"
                               "strategies=ais,grid_oracle,fixed:0.5,fixed:0.9\ngrid.step=1e-2\n")
    g_ab = path_loss(traj.d_ab, cfg.geometry)
    p_s = np.array([dbm_to_mw(ps) for ps in result.powers_dbm])[:, None]
    sigma2 = dbm_to_mw(noise_dbm)
    z = cfg.array_spacing * (np.cos(traj.theta_b) - np.cos(traj.theta_e))
    e = math.pi * (z - np.rint(z))
    r2 = 1.0 / np.sin(e) ** 2
    assert [(block.strategy, block.m) for block in result.blocks] == [
        (name, m) for name in ("ais", "fixed:0.5", "fixed:0.9", "grid_oracle") for m in (16384, 262144, 1_000_000)]
    for block in result.blocks:
        m = block.m
        split = float(block.strategy.removeprefix("fixed:")) if block.strategy.startswith("fixed:") else 1.0
        # Bob is outside Eve's main lobe at every point.
        assert np.abs(m * e).min() >= 8.0
        assert np.all(block.beta == split)
        limit = np.log2(1.0 + g_ab * split * p_s * m / sigma2)
        # The artificial noise's leakage to Bob (none at beta = 1); the two
        # noise floors are equal, so sigma_e^4 / sigma_b^2 = sigma^2.
        leakage = 0.0 if split == 1.0 else g_ab * sigma2 / ((1.0 - split) * p_s * m)
        gap = limit - block.secrecy
        rounding = 64 * EPS * limit
        assert (gap >= -rounding).all()
        assert (gap <= r2 / ((m * m - r2) * math.log(2.0)) * (1.0 + leakage) + rounding).all()


@pytest.mark.parametrize("eve, secrecy_is_zero", [("16,0,40", False), ("8,0,20", True)],
                         ids=["twice-as-far", "at-bob"])
def test_eve_on_bobs_bearing(eve, secrecy_is_zero):
    # Sample point 1 is (8, 0, 20). Eve there, or twice as far along its
    # bearing, sees the array in Bob's direction bit for bit: D = 0.
    cfg, traj, result = _sweep(f"geometry.eve={eve}\nsweep.antennas=2,64,262144,1000000\n")
    assert traj.theta_e == traj.theta_b[0]
    sigma2_b, sigma2_e = dbm_to_mw(cfg.noise_dbm_bob), dbm_to_mw(cfg.noise_dbm_eve)
    p_s = np.array([dbm_to_mw(ps) for ps in result.powers_dbm])
    for block in result.blocks:
        m = block.m
        link = link_state_at(traj, cfg.geometry, m, cfg.array_spacing, sigma2_b, sigma2_e, p_s[:, None])
        assert link.separation[0] == 0.0
        assert (block.beta[:, 0] == 1.0).all()
        if secrecy_is_zero:
            assert (block.secrecy[:, 0] == 0.0).all()
        else:
            expected = np.maximum(0.0, np.log2((sigma2_b + link.g_ab[0] * p_s * m) / (sigma2_e + link.g_ae * p_s * m)))
            assert expected.min() > 1.9
            assert np.abs(block.secrecy[:, 0] - expected).max() <= 64 * EPS * expected.max()
