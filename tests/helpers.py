"""Shared random-instance builders for the test suite.

All randomness flows through explicitly seeded numpy generators so every
test run is reproducible; seeds are given at the call sites. Links are
``oracle.SteeredLink``s, so the vector reference can run on them too.
"""

import numpy as np

from uavsec import ArrayConfig, LinkState
from uavsec.beamforming import leakage_pair
from uavsec.rates import ProjectedPowers

from oracle import BeamformingPair, projected_powers, steered_link


def random_link(rng, m=8, p_s_dbm=10.0):
    """Random physically-plausible link: random directions, log-uniform path
    gains, and noise floors placing the full-array SNR between ~10 and ~30 dB
    (keeps the secrecy-rate peak wide enough for a 1e-4 grid to resolve)."""
    theta_b, theta_e = rng.uniform(0.0, np.pi, size=2)
    ps = 10.0 ** (p_s_dbm / 10.0)
    g_ab = 10.0 ** rng.uniform(-5, -3)
    g_ae = 10.0 ** rng.uniform(-5, -3)
    return steered_link(
        theta_b,
        theta_e,
        ArrayConfig(m),
        g_ab=g_ab,
        g_ae=g_ae,
        sigma2_b=g_ab * ps * m * 10.0 ** rng.uniform(-3, -1),
        sigma2_e=g_ae * ps * m * 10.0 ** rng.uniform(-3, -1),
        p_s=ps,
    )


def random_unit(rng, m):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


def random_pair(rng, m):
    return BeamformingPair(v_b=random_unit(rng, m), v_an=random_unit(rng, m))


def random_instance(rng, i, m, p_s_dbm):
    """Link plus projected powers; alternates the leakage-optimal powers
    (what the alternating loop produces) with those of fully random unit
    vectors."""
    link = random_link(rng, m, p_s_dbm)
    if i % 2 == 0:
        powers = leakage_pair(link, rng.uniform(0.05, 0.95))
    else:
        powers = projected_powers(link, random_pair(rng, m))
    return link, powers


def symmetric_link(m=8, p_s=10.0):
    """Bob and Eve see identical channels: secrecy must be exactly zero."""
    return steered_link(
        1.0, 1.0, ArrayConfig(m), g_ab=1e-4, g_ae=1e-4,
        sigma2_b=1e-7, sigma2_e=1e-7, p_s=p_s,
    )


def eve_silent_link(m=8, p_s=10.0):
    """Eve's path gain is negligibly small; secrecy reduces to Bob's rate."""
    return steered_link(
        1.2, 2.1, ArrayConfig(m),
        g_ab=1e-4, g_ae=1e-30,
        sigma2_b=1e-7, sigma2_e=1e-7, p_s=p_s,
    )


def stack_links(links):
    """One batched ``LinkState`` whose lanes are the given links (one M)."""
    (m,) = {link.num_antennas for link in links}
    names = ("separation", "g_ab", "g_ae", "sigma2_b", "sigma2_e", "p_s")
    return LinkState(m, **{name: np.array([getattr(link, name) for link in links]) for name in names})


def stack_powers(powers):
    return ProjectedPowers(*np.array(powers, dtype=float).T)
