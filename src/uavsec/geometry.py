"""Array geometry, steering vectors, flight trajectory sampling, and path loss.

Everything here is deterministic and unit-agnostic: distances in meters,
powers in linear mW, angles in radians measured from the +x array axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class ConfigurationError(ValueError):
    """A scenario or sweep configuration violates an invariant."""


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array at the transmitter.

    ``spacing`` is the element spacing over the carrier wavelength (d/lambda).
    """

    num_antennas: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.num_antennas < 2:
            raise ConfigurationError("num_antennas must be >= 2")
        if self.spacing <= 0:
            raise ConfigurationError("spacing (d/lambda) must be positive")


def steering_vector(theta: float, array: ArrayConfig) -> np.ndarray:
    """Unit-modulus array response toward direction ``theta``.

    Entry m (1-based) is exp(-j*2*pi*(m-(M+1)/2)*(d/lambda)*cos(theta)), so
    the phase profile is antisymmetric about the array center and the vector
    has Euclidean norm sqrt(M).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    m = np.arange(1, array.num_antennas + 1)
    phase = -(m - (array.num_antennas + 1) / 2.0) * array.spacing * math.cos(theta)
    return np.exp(2j * math.pi * phase)


@dataclass(frozen=True)
class ScenarioGeometry:
    """Fixed ground nodes plus the UAV's straight flight segment.

    Default layout: Alice (the transmit array) at the origin with the array
    axis along +x, Eve 200 m away on the ground, and the UAV flying 800 m
    parallel to the array axis at 20 m altitude. The flight is level: both
    endpoints share one positive z, the altitude.
    """

    alice: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eve: tuple[float, float, float] = (200.0, 0.0, 0.0)
    flight_start: tuple[float, float, float] = (0.0, 0.0, 20.0)
    flight_end: tuple[float, float, float] = (800.0, 0.0, 20.0)
    speed: float = 8.0
    sample_interval: float = 1.0
    path_loss_exponent: float = 2.0
    reference_gain: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.flight_start, dtype=float)
        d = np.asarray(self.flight_end, dtype=float)
        if np.linalg.norm(d - s) <= 0:
            raise ConfigurationError("flight_start and flight_end must differ")
        if self.speed <= 0:
            raise ConfigurationError("speed must be positive")
        if self.sample_interval <= 0:
            raise ConfigurationError("sample_interval must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigurationError("path_loss_exponent must be positive")
        if self.reference_gain <= 0:
            raise ConfigurationError("reference_gain must be positive")
        if not (s[2] > 0 and math.isclose(s[2], d[2])):
            raise ConfigurationError(
                "flight_start and flight_end must sit at one positive altitude (z)"
            )

    @property
    def flight_length(self) -> float:
        s = np.asarray(self.flight_start, dtype=float)
        d = np.asarray(self.flight_end, dtype=float)
        return float(np.linalg.norm(d - s))


class TrajectoryPoint(NamedTuple):
    sample_index: int
    bob_position: tuple[float, float, float]
    theta_b: float
    theta_e: float
    d_ab: float
    d_ae: float


def _direction_angle(origin: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """Angle from the +x array axis to the origin->target line, and distance."""
    delta = target - origin
    dist = float(np.linalg.norm(delta))
    if dist == 0:
        raise ValueError("coincident points have no direction angle")
    return float(np.arccos(np.clip(delta[0] / dist, -1.0, 1.0))), dist


def sample_trajectory(geom: ScenarioGeometry) -> list[TrajectoryPoint]:
    """Equally spaced UAV positions with per-point angles and distances.

    N = floor((L/V)/dt) points, indexed 1..N; the eavesdropper angle and
    distance are constant across the flight.
    """
    alice = np.asarray(geom.alice, dtype=float)
    eve = np.asarray(geom.eve, dtype=float)
    s = np.asarray(geom.flight_start, dtype=float)
    d = np.asarray(geom.flight_end, dtype=float)
    length = geom.flight_length
    n_points = int(math.floor((length / geom.speed) / geom.sample_interval))
    if n_points == 0:
        raise ConfigurationError(
            "trajectory shorter than one sample interval; no points to evaluate"
        )
    unit = (d - s) / length
    theta_e, d_ae = _direction_angle(alice, eve)
    points = []
    for n in range(1, n_points + 1):
        pos = s + (n * geom.sample_interval * geom.speed) * unit
        theta_b, d_ab = _direction_angle(alice, pos)
        points.append(
            TrajectoryPoint(
                n, (float(pos[0]), float(pos[1]), float(pos[2])), theta_b, theta_e, d_ab, d_ae
            )
        )
    return points


def path_loss(distance: float, geom: ScenarioGeometry) -> float:
    """Linear power gain alpha/d^c at the given distance in meters."""
    if distance <= 0:
        raise ValueError("path loss undefined at zero distance")
    return geom.reference_gain / distance**geom.path_loss_exponent


@dataclass(frozen=True)
class LinkState:
    """Everything needed to evaluate one sampling point.

    ``h_b``/``h_e`` are the steering vectors toward the UAV and the
    eavesdropper; gains are linear, powers and noise variances in mW.
    """

    h_b: np.ndarray = field(repr=False)
    h_e: np.ndarray = field(repr=False)
    g_ab: float
    g_ae: float
    sigma2_b: float
    sigma2_e: float
    p_s: float
    sample_index: int = 0

    def __post_init__(self):
        for name in ("g_ab", "g_ae", "sigma2_b", "sigma2_e", "p_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.h_b.shape != self.h_e.shape:
            raise ValueError("steering vectors must have equal length")

    @property
    def num_antennas(self) -> int:
        return self.h_b.shape[0]


def link_state_at(
    point: TrajectoryPoint,
    geom: ScenarioGeometry,
    array: ArrayConfig,
    sigma2_b: float,
    sigma2_e: float,
    p_s: float,
) -> LinkState:
    """Assemble the per-point link state from geometry and array config."""
    return LinkState(
        h_b=steering_vector(point.theta_b, array),
        h_e=steering_vector(point.theta_e, array),
        g_ab=path_loss(point.d_ab, geom),
        g_ae=path_loss(point.d_ae, geom),
        sigma2_b=sigma2_b,
        sigma2_e=sigma2_e,
        p_s=p_s,
        sample_index=point.sample_index,
    )
