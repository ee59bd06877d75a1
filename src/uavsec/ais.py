"""Alternating loop between leakage beamforming and Max-SR power allocation.

Per sampling point: compute both beamformers for the current power split,
re-optimize the split for those vectors, and repeat until the signed secrecy
rate stops moving. The power-allocation (PA) step is the closed form by
default; the grid-oracle strategy passes the exhaustive grid search, so both
run the same loop and stopping rule. The beamforming step optimizes leakage
ratios, not the secrecy rate itself, so the iteration is not guaranteed
monotone; the stopping rule plus an iteration cap handle that.

A batched link runs all its lanes through the loop together. Each lane
retires on its own stopping test (a per-lane mask) and keeps its own
iteration count and result, exactly as if it ran alone; the loop ends when
the last lane stops. It returns each lane's split and the projected powers
of its final vectors; the harness scores them as it does a fixed split.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import power_allocation
from .beamforming import leakage_pair
from .geometry import LinkState, Validated, _parse_cap, _parse_positive, _parse_split
from .rates import ProjectedPowers, split_rates


class AisConfig(Validated, namedtuple("AisConfig", "beta_init epsilon max_iterations",
                                      defaults=(0.1, 1e-6, 50))):
    """The initial split, the stopping tolerance on f and the iteration cap."""

    __slots__ = ()
    _FIELD_KEYS = {"beta_init": ("ais.beta_init", _parse_split, repr),
                   "epsilon": ("ais.epsilon", _parse_positive, repr),
                   "max_iterations": ("ais.max_iterations", _parse_cap, repr)}


class AisIteration(NamedTuple):
    """State after one beamform-then-reallocate cycle.

    ``beta`` is the freshly optimized split; ``f_value`` is the signed
    secrecy rate at that split with the vectors computed this cycle. Lanes
    that already stopped keep their final values.
    """

    beta: float
    f_value: float


class AisTrace(NamedTuple):
    iterations: tuple[AisIteration, ...]
    converged: bool
    iterations_used: int


def closed_form_step(link: LinkState, powers: ProjectedPowers):
    """The default PA step: the closed-form Max-SR split."""
    sol = power_allocation.optimal_beta(link, powers)
    return sol.beta_star, sol.secrecy_rate_at_beta


def optimize_point(
    link: LinkState, cfg: AisConfig = AisConfig(), pa_step=closed_form_step
) -> tuple[ProjectedPowers, float, AisTrace]:
    """Run the alternating iteration at one sampling point, or at every lane
    of a batched link.

    ``pa_step(link, powers)`` returns the best split for the projected powers
    of the current vectors and the signed secrecy rate there. Returns the
    final vectors' projected powers, the final split and the trace, each per
    lane. A lane stops once its PA step moves f by at most ``cfg.epsilon``.
    Hitting the iteration cap is a soft failure: the last iterate is
    returned with ``converged=False`` so a flight sweep can keep going.
    """
    shape = link.shape
    beta = np.full(shape, cfg.beta_init)
    f = np.zeros(shape)
    powers = ProjectedPowers(f, f, f, f)
    active = np.ones(shape, dtype=bool)
    used = np.zeros(shape, dtype=int)
    records: list[AisIteration] = []
    for _ in range(cfg.max_iterations):
        new_powers = leakage_pair(link, beta)
        # Convergence compares f at the incoming and re-optimized splits
        # under the same (current) vectors: once the PA step stops moving
        # the secrecy rate, the lane is done.
        r_b, r_e = split_rates(link, new_powers, beta)
        new_beta, new_f = pa_step(link, new_powers)
        done = abs(new_f - (r_b - r_e)) <= cfg.epsilon
        powers = ProjectedPowers(*np.where(active, new_powers, powers))
        beta = np.where(active, new_beta, beta)
        f = np.where(active, new_f, f)
        used += active
        active &= ~done
        records.append(AisIteration(beta=beta[()], f_value=f[()]))
        if not active.any():
            break
    powers = ProjectedPowers(*(p[()] for p in powers))
    trace = AisTrace(iterations=tuple(records), converged=(~active)[()], iterations_used=used[()])
    return powers, beta[()], trace

