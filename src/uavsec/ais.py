"""Alternating loop between leakage beamforming and Max-SR power allocation.

Per sampling point: compute both beamformers for the current power split,
re-optimize the split for those vectors, and repeat until the signed secrecy
rate stops moving. The power-allocation (PA) step is the closed form by
default; the grid-oracle strategy passes the exhaustive grid search, so both
run the same loop and stopping rule. The beamforming step optimizes leakage
ratios, not the secrecy rate itself, so the iteration is not guaranteed
monotone; the stopping rule plus an iteration cap handle that.

A batched link runs all its lanes through the loop together, as one
contiguous 1-D array per field (``geometry.lane_link``). Each lane retires on
its own stopping test and keeps its own iteration count and result, exactly
as if it ran alone; the loop ends when the last lane stops. Until the first
lane retires every lane takes each cycle's values, so the per-lane masks run
only from then on. Every PA step returns the rows (split, f, R_b, R_e) per
lane, so the loop scores no split after it ends and keeps no per-cycle
history: per lane it returns the final split, the final vectors' projected
powers, the stop flag, the cycle count and its last PA step's R_b and R_e.
"""

from collections import namedtuple

import numpy as np

from .beamforming import ProjectedPowers, leakage_pair, split_rates
from .geometry import _ITERATIONS, _POSITIVE, _SPLIT, LinkState, Validated, _record, lane_link
from .power_allocation import closed_form


_AIS_ROWS = {"beta_init": ("ais.beta_init", _SPLIT, repr, 0.1),
             "epsilon": ("ais.epsilon", _POSITIVE, repr, 1e-6),
             "max_iterations": ("ais.max_iterations", _ITERATIONS, repr, 50)}


class AisConfig(Validated, _record("AisConfig", _AIS_ROWS)):
    """The initial split, the stopping tolerance on f and the iteration cap."""

    __slots__ = ()
    _FIELD_KEYS = _AIS_ROWS


class AisTrace(namedtuple("AisTrace", "converged iterations_used rate_bob rate_eve")):
    """Per lane: whether it stopped before the iteration cap (bool), its
    cycle count (int), and Bob's and Eve's rates at its final split (float),
    as its last PA step scored them."""

    __slots__ = ()


def optimize_point(
    link: LinkState, cfg: AisConfig = AisConfig(), pa_step=closed_form
) -> tuple[ProjectedPowers, float, AisTrace]:
    """Run the alternating iteration at one sampling point, or at every lane
    of a batched link.

    ``pa_step(lanes, powers)`` returns the rows (split, f, R_b, R_e): the
    best split for the projected powers of the current vectors, and the
    signed secrecy rate and Bob's and Eve's rates there. Returns the final
    vectors' projected powers, the final split and the trace, whose rates
    are those the last step handed back, each per lane. A lane
    stops once its PA step moves f by at most ``cfg.epsilon``. Hitting the
    iteration cap is a soft failure: the last iterate is returned with
    ``converged=False`` so a flight sweep can keep going.
    """
    shape = link.shape
    lanes = lane_link(link)
    beta = np.full(lanes.p_s.shape, cfg.beta_init)
    active = np.ones(beta.shape, dtype=bool)
    used = np.zeros(beta.shape, dtype=int)
    retired = False
    for _ in range(cfg.max_iterations):
        powers = leakage_pair(lanes, beta)
        # Convergence compares f at the incoming and re-optimized splits
        # under the same (current) vectors: once the PA step stops moving
        # the secrecy rate, the lane is done.
        r_b, r_e = split_rates(lanes, powers, beta)
        step = (*powers, *pa_step(lanes, powers))
        done = abs(step[5] - (r_b - r_e)) <= cfg.epsilon
        # A lane that stopped keeps its final values; until one has, every
        # lane takes the new ones.
        state = [np.where(active, new, old) for new, old in zip(step, state)] if retired else step
        beta = state[4]
        used += active
        active &= ~done
        retired = (remaining := np.count_nonzero(active)) < active.size
        if not remaining:
            break
    out = [v.reshape(shape)[()] for v in (*state[:5], ~active, used, *state[6:])]
    return ProjectedPowers(*out[:4]), out[4], AisTrace(*out[5:])
