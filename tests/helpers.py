"""Shared random-instance builders for the test suite.

All randomness flows through explicitly seeded numpy generators so every
test run is reproducible; seeds are given at the call sites. Links are
``oracle.SteeredLink``s, so the vector reference can run on them too.
"""

import importlib.util
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from uavsec.geometry import LinkState, link_state_at, sample_trajectory
from uavsec.harness import CSV_HEADER, ResultBlock, SweepResult
from uavsec.ais import ProjectedPowers, leakage_pair

from oracle import BeamformingPair, projected_powers, steered_link

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """``tools/<name>.py``, loaded as a module without running it; the tools
    import each other, so ``tools/`` is on ``sys.path`` while it loads."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return module


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
        m,
        0.5,
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
        1.0, 1.0, m, 0.5, g_ab=1e-4, g_ae=1e-4,
        sigma2_b=1e-7, sigma2_e=1e-7, p_s=p_s,
    )


def eve_silent_link(m=8, p_s=10.0):
    """Eve's path gain is negligibly small; secrecy reduces to Bob's rate."""
    return steered_link(
        1.2, 2.1, m, 0.5,
        g_ab=1e-4, g_ae=1e-30,
        sigma2_b=1e-7, sigma2_e=1e-7, p_s=p_s,
    )


def flight_links(geom, m, spacing, sigma2_b, sigma2_e, p_s):
    """One scalar ``LinkState`` (not a steered link) per sample point of the
    flight: the lanes of the batched link ``link_state_at`` builds for it."""
    link = link_state_at(sample_trajectory(geom), geom, m, spacing, sigma2_b, sigma2_e, p_s)
    return [link._replace(separation=float(d), g_ab=float(g))
            for d, g in zip(link.separation, link.g_ab)]


def stack_links(links):
    """One batched ``LinkState`` whose lanes are the given links (one M)."""
    (m,) = {link.num_antennas for link in links}
    names = ("separation", "g_ab", "g_ae", "sigma2_b", "sigma2_e", "p_s")
    return LinkState(m, **{name: np.array([getattr(link, name) for link in links]) for name in names})


def stack_powers(powers):
    return ProjectedPowers(*np.array(powers, dtype=float).T)


class Record(NamedTuple):
    """One result row, as the CSV header lists its fields."""

    strategy: str
    m: int
    ps_dbm: float
    n: int
    theta_b: float
    beta: float
    rate_bob: float
    rate_eve: float
    secrecy: float
    iterations: Optional[int] = None
    converged: Optional[bool] = None


def records_of(result):
    """A sweep's columns as one ``Record`` per row, in row order."""
    records = []
    for block in result.blocks:
        shape = (len(result.powers_dbm), len(result.n))
        lanes = [None if v is None else np.broadcast_to(v, shape).tolist()
                 for v in (block.beta, block.rate_bob, block.rate_eve, block.secrecy,
                           block.iterations, block.converged)]
        for i, ps in enumerate(result.powers_dbm):
            for j, (n, theta) in enumerate(zip(result.n.tolist(), result.theta_b.tolist())):
                records.append(Record(block.strategy, block.m, ps, n, theta,
                                      *(None if v is None else v[i][j] for v in lanes)))
    return records


def result_of(records):
    """The columns of rows sorted by (strategy, M, Ps, n) that cover every
    (Ps, n) pair in each (strategy, M) block; the inverse of ``records_of``."""
    powers = tuple(sorted({r.ps_dbm for r in records}))
    points = sorted({(r.n, r.theta_b) for r in records})
    shape = (len(powers), len(points))
    blocks = []
    for strategy, m in sorted({(r.strategy, r.m) for r in records}):
        rows = [r for r in records if (r.strategy, r.m) == (strategy, m)]
        lanes = [np.array([getattr(r, name) for r in rows]).reshape(shape)
                 for name in ("beta", "rate_bob", "rate_eve", "secrecy")]
        extra = [None if getattr(rows[0], name) is None
                 else np.array([getattr(r, name) for r in rows]).reshape(shape)
                 for name in ("iterations", "converged")]
        blocks.append(ResultBlock(strategy, m, *lanes, *extra))
    n, theta = (np.array(column) for column in zip(*points))
    return SweepResult(powers, n, theta, tuple(blocks))


def read_results_csv(path):
    """Parse a results CSV written by ``write_results`` back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 11:
            raise ValueError(f"{path}: malformed row {line!r}")
        records.append(
            Record(
                strategy=parts[0],
                m=int(parts[1]),
                ps_dbm=float(parts[2]),
                n=int(parts[3]),
                theta_b=float(parts[4]),
                beta=float(parts[5]),
                rate_bob=float(parts[6]),
                rate_eve=float(parts[7]),
                secrecy=float(parts[8]),
                iterations=None if parts[9] == "" else int(parts[9]),
                converged=None if parts[10] == "" else parts[10] == "true",
            )
        )
    return records


def reference_summary(records):
    """``harness.summarize`` computed record by record: group the rows by
    (strategy, M, Ps), then sum each group with ``math.fsum``."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.m, rec.ps_dbm), []).append(rec)
    out = []
    for (strategy, m, ps), recs in sorted(groups.items()):
        out.append(
            {
                "strategy": strategy,
                "M": m,
                "Ps_dbm": ps,
                "points": len(recs),
                "mean_secrecy_rate": math.fsum(r.secrecy for r in recs) / len(recs),
                "ssr_per_point_clamped": math.fsum(r.secrecy for r in recs),
                "ssr_sum_clamped": max(0.0, math.fsum(r.rate_bob - r.rate_eve for r in recs)),
                "nonconverged": sum(r.converged is False for r in recs),
            }
        )
    return out
