"""Experiment runner: config parsing, strategy sweeps, and result files.

Configs are flat ``section.key=value`` text; defaults reproduce the baseline
scenario (half-wavelength spacing, free-space-like exponent 2, 800 m flight
at 20 m altitude and 8 m/s, eavesdropper 200 m from the array). dBm to mW
conversion happens only here; everything below works in linear power.

A run samples the trajectory once and builds one batched link state per
antenna count M, with P x N lanes over the P transmit powers and N sample
points; each strategy then evaluates all lanes of an M in one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .ais import AisConfig, closed_form_step, optimize_point, run_baseline
from .geometry import (
    ArrayConfig,
    ConfigurationError,
    LinkState,
    ScenarioGeometry,
    link_state_at,
    sample_trajectory,
)
from .power_allocation import beta_grid_oracle
from .rates import secrecy_sum_rate

CSV_HEADER = "strategy,M,Ps_dbm,n,theta_b,beta,Rb,Re,Rs,iterations,converged"

_VALID_FORMATS = ("csv", "json")

# Transmit powers and noise floors, in dBm, must lie within this magnitude:
# 300 dBm is about the Sun's total output, and the linear mW values of the
# whole range stay well inside float64.
MAX_ABS_DBM = 300.0

# Upper bound on the trajectory samples one sweep combination may evaluate.
MAX_SAMPLES = 1_000_000

# Upper bound on the array size; the array separation of each sample point
# sums M - 1 terms.
MAX_ANTENNAS = 1_000_000


class ConfigError(ConfigurationError):
    """A config file key is missing, malformed, or violates an invariant."""


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class Strategy:
    """One of the sweepable per-point optimizers.

    kind: 'ais' (alternating closed-form loop), 'fixed' (leakage beamformers
    at a fixed split, no iteration), or 'grid_oracle' (the same alternating
    loop with exhaustive-search power allocation).
    """

    kind: str
    fixed_beta: Optional[float] = None

    @property
    def name(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.fixed_beta:g}"
        return self.kind


def parse_strategy(token: str) -> Strategy:
    token = token.strip()
    if token == "ais":
        return Strategy("ais")
    if token == "grid_oracle":
        return Strategy("grid_oracle")
    for prefix, suffix in (("fixed:", ""), ("fixed(", ")")):
        if token.startswith(prefix) and token.endswith(suffix):
            body = token[len(prefix) : len(token) - len(suffix)]
            try:
                beta = float(body)
            except ValueError:
                raise ConfigError(f"strategies: bad fixed beta {body!r}") from None
            if not 0.0 < beta < 1.0:
                raise ConfigError("strategies: fixed beta must lie in (0, 1)")
            return Strategy("fixed", beta)
    raise ConfigError(f"strategies: unknown strategy {token!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: ScenarioGeometry = ScenarioGeometry()
    array_spacing: float = 0.5
    # Noise floor consistent with ~1 MHz bandwidth and a small noise figure;
    # low enough that the whole flight stays in the high-SNR regime where the
    # antenna-sweep trends are visible.
    noise_dbm_bob: float = -110.0
    noise_dbm_eve: float = -110.0
    power_sweep_dbm: tuple[float, ...] = (10.0, 20.0, 30.0)
    antenna_sweep: tuple[int, ...] = (8,)
    strategies: tuple[Strategy, ...] = (
        Strategy("ais"),
        Strategy("fixed", 0.5),
        Strategy("fixed", 0.9),
    )
    ais: AisConfig = AisConfig()
    grid_step: float = 1e-3
    output_path: str = "results.csv"
    output_format: str = "csv"

    def __post_init__(self):
        if not self.power_sweep_dbm:
            raise ConfigError("sweep.power_dbm: sweep must be nonempty")
        if not self.antenna_sweep:
            raise ConfigError("sweep.antennas: sweep must be nonempty")
        if not self.strategies:
            raise ConfigError("strategies: at least one strategy required")
        if not 0.0 < self.grid_step <= 1e-2:
            raise ConfigError("grid.step: must lie in (0, 1e-2]")
        if self.output_format not in _VALID_FORMATS:
            raise ConfigError(f"output.format: must be one of {_VALID_FORMATS}")


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_dbm(key: str, raw: str) -> float:
    value = _parse_float(key, raw)
    if abs(value) > MAX_ABS_DBM:
        raise ConfigError(f"{key}: {raw} dBm is outside [-{MAX_ABS_DBM:g}, {MAX_ABS_DBM:g}] dBm")
    return value


def _parse_point(key: str, raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated coordinates")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_antennas(key: str, raw: str) -> int:
    value = _parse_int(key, raw)
    if not 2 <= value <= MAX_ANTENNAS:
        raise ConfigError(f"{key}: {value} is outside [2, {MAX_ANTENNAS}] antennas")
    return value


def _parse_list(key: str, raw: str, conv) -> tuple:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    values = tuple(conv(key, item) for item in items)
    if len(set(values)) != len(values):
        raise ConfigError(f"{key}: duplicate entries in {raw!r}")
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    """Build a validated config from flat key=value text.

    Unknown keys and malformed values raise ConfigError naming the key;
    an empty document yields the all-defaults config.
    """
    geometry_kwargs: dict = {}
    fields: dict = {}
    ais_kwargs: dict = {}
    geometry_keys = {
        "geometry.alice": ("alice", _parse_point),
        "geometry.eve": ("eve", _parse_point),
        "geometry.flight_start": ("flight_start", _parse_point),
        "geometry.flight_end": ("flight_end", _parse_point),
        "geometry.speed": ("speed", _parse_float),
        "geometry.sample_interval": ("sample_interval", _parse_float),
        "geometry.path_loss_exponent": ("path_loss_exponent", _parse_float),
        "geometry.reference_gain": ("reference_gain", _parse_float),
    }
    simple_keys = {
        "array.spacing": ("array_spacing", _parse_float),
        "noise.bob_dbm": ("noise_dbm_bob", _parse_dbm),
        "noise.eve_dbm": ("noise_dbm_eve", _parse_dbm),
        "grid.step": ("grid_step", _parse_float),
        "output.path": ("output_path", lambda k, v: v),
        "output.format": ("output_format", lambda k, v: v),
    }
    ais_keys = {
        "ais.beta_init": ("beta_init", _parse_float),
        "ais.epsilon": ("epsilon", _parse_float),
        "ais.max_iterations": ("max_iterations", _parse_int),
    }
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in geometry_keys:
            name, conv = geometry_keys[key]
            geometry_kwargs[name] = conv(key, raw)
        elif key in simple_keys:
            name, conv = simple_keys[key]
            fields[name] = conv(key, raw)
        elif key in ais_keys:
            name, conv = ais_keys[key]
            ais_kwargs[name] = conv(key, raw)
        elif key == "sweep.power_dbm":
            fields["power_sweep_dbm"] = _parse_list(key, raw, _parse_dbm)
        elif key == "sweep.antennas":
            fields["antenna_sweep"] = _parse_list(key, raw, _parse_antennas)
        elif key == "strategies":
            fields["strategies"] = _parse_list(key, raw, lambda k, tok: parse_strategy(tok))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        geometry = ScenarioGeometry(**geometry_kwargs)
    except ConfigurationError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    samples = geometry.flight_length / geometry.speed / geometry.sample_interval
    if not samples <= MAX_SAMPLES:
        raise ConfigError(
            f"geometry.speed, geometry.sample_interval: the {geometry.flight_length:g} m "
            f"flight gives {samples:.3g} samples, more than {MAX_SAMPLES}"
        )
    try:
        ais_cfg = AisConfig(**ais_kwargs)
    except ValueError as exc:
        raise ConfigError(f"ais: {exc}") from exc
    return ExperimentConfig(geometry=geometry, ais=ais_cfg, **fields)


def parse_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the config in the same flat format parse_config_text accepts."""
    g = cfg.geometry

    def pt(p):
        return ",".join(f"{v:g}" for v in p)

    lines = [
        f"geometry.alice={pt(g.alice)}",
        f"geometry.eve={pt(g.eve)}",
        f"geometry.flight_start={pt(g.flight_start)}",
        f"geometry.flight_end={pt(g.flight_end)}",
        f"geometry.speed={g.speed:g}",
        f"geometry.sample_interval={g.sample_interval:g}",
        f"geometry.path_loss_exponent={g.path_loss_exponent:g}",
        f"geometry.reference_gain={g.reference_gain:g}",
        f"array.spacing={cfg.array_spacing:g}",
        f"noise.bob_dbm={cfg.noise_dbm_bob:g}",
        f"noise.eve_dbm={cfg.noise_dbm_eve:g}",
        "sweep.power_dbm=" + ",".join(f"{p:g}" for p in cfg.power_sweep_dbm),
        "sweep.antennas=" + ",".join(str(m) for m in cfg.antenna_sweep),
        "strategies=" + ",".join(s.name for s in cfg.strategies),
        f"ais.beta_init={cfg.ais.beta_init:g}",
        f"ais.epsilon={cfg.ais.epsilon:g}",
        f"ais.max_iterations={cfg.ais.max_iterations}",
        f"grid.step={cfg.grid_step:g}",
        f"output.path={cfg.output_path}",
        f"output.format={cfg.output_format}",
    ]
    return "\n".join(lines) + "\n"


class ResultRecord(NamedTuple):
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


def _run_strategy(cfg: ExperimentConfig, strategy: Strategy, link: LinkState):
    """(beta, rates, iterations, converged) of one strategy on every lane of
    ``link``; the last two are None for a fixed split."""
    if strategy.kind == "fixed":
        _, breakdown = run_baseline(link, strategy.fixed_beta)
        return strategy.fixed_beta, breakdown, None, None
    if strategy.kind == "grid_oracle":
        pa_step = partial(beta_grid_oracle, step=cfg.grid_step)
    else:
        pa_step = closed_form_step
    _, beta, breakdown, trace = optimize_point(link, cfg.ais, pa_step)
    return beta, breakdown, trace.iterations_used, trace.converged


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Evaluate every (strategy, M, Ps) combination along the trajectory.

    Output order is deterministic: sorted by strategy name, M, Ps, n.
    """
    traj = sample_trajectory(cfg.geometry)
    powers = cfg.power_sweep_dbm
    p_s = np.array([dbm_to_mw(ps) for ps in powers])[:, None]
    sigma2_b = dbm_to_mw(cfg.noise_dbm_bob)
    sigma2_e = dbm_to_mw(cfg.noise_dbm_eve)
    links = [
        (m, link_state_at(traj, cfg.geometry, ArrayConfig(m, cfg.array_spacing), sigma2_b, sigma2_e, p_s))
        for m in cfg.antenna_sweep
    ]
    shape = (len(powers), len(traj))
    lanes = (
        np.repeat(powers, len(traj)).tolist(),
        np.tile(traj.sample_index, len(powers)).tolist(),
        np.tile(traj.theta_b, len(powers)).tolist(),
    )
    records = []
    for strategy in cfg.strategies:
        for m, link in links:
            beta, breakdown, iterations, converged = _run_strategy(cfg, strategy, link)
            columns = [
                repeat(None) if v is None else np.broadcast_to(v, shape).ravel().tolist()
                for v in (beta, breakdown.rate_bob, breakdown.rate_eve, breakdown.secrecy_rate,
                          iterations, converged)
            ]
            records.extend(map(ResultRecord, repeat(strategy.name), repeat(m), *lanes, *columns))
    # By (strategy, M, Ps, n), the first four fields.
    records.sort(key=itemgetter(0, 1, 2, 3))
    return records


def summarize(records: Iterable[ResultRecord]) -> list[dict]:
    """Per-(strategy, M, Ps) aggregates: mean per-point secrecy rate, the
    per-point-clamped sum, the whole-flight clamped sum, and the number of
    points that hit the iteration cap without converging."""
    groups: dict[tuple, list[ResultRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.m, rec.ps_dbm), []).append(rec)
    out = []
    for (strategy, m, ps), recs in sorted(groups.items()):
        diffs = [r.rate_bob - r.rate_eve for r in recs]
        out.append(
            {
                "strategy": strategy,
                "M": m,
                "Ps_dbm": ps,
                "points": len(recs),
                "mean_secrecy_rate": math.fsum(r.secrecy for r in recs) / len(recs),
                "ssr_per_point_clamped": math.fsum(r.secrecy for r in recs),
                "ssr_sum_clamped": secrecy_sum_rate(diffs),
                "nonconverged": sum(r.converged is False for r in recs),
            }
        )
    return out


# The record fields, in CSV header order, that hold floats.
_FLOAT_COLUMNS = (2, 4, 5, 6, 7, 8)

# One record as a CSV line, and as an element of ``json.dumps(rows, indent=2)``.
_CSV_RECORD = ",".join(["{}"] * len(CSV_HEADER.split(",")))
_JSON_RECORD = "  {{\n" + ",\n".join(f'    "{key}": {{}}' for key in CSV_HEADER.split(",")) + "\n  }}"

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _text_columns(records: list[ResultRecord], null: str) -> list:
    """The records' fields as columns: floats as 12-digit text, the absent
    iteration fields as ``null``. Each column is one C-level ``map`` pass."""
    columns = list(zip(*records))
    for i in _FLOAT_COLUMNS:
        columns[i] = map("{:.12g}".format, columns[i])
    columns[9] = map({None: null}.get, columns[9], columns[9])
    columns[10] = map({None: null, True: "true", False: "false"}.get, columns[10])
    return columns


def _json_floats(texts) -> list[str]:
    """Each 12-digit value as ``json.dumps`` writes the float it parses to."""
    texts = list(map(repr, map(float, texts)))
    return list(map(_JSON_NONFINITE.get, texts, texts))


def write_results(records: list[ResultRecord], fmt: str, path: str | Path):
    """Write records as CSV (fixed header) or a JSON array, 12 significant
    digits for floats in both.

    The JSON bytes are those of ``json.dumps(rows, indent=2)`` over one dict
    per record, written from a per-record template: with ``indent`` set,
    ``json`` falls back to its pure-Python encoder.
    """
    if not records:
        raise ValueError("no records to write")
    if fmt not in _VALID_FORMATS:
        raise ValueError(f"format must be one of {_VALID_FORMATS}")
    path = Path(path)
    try:
        if fmt == "csv":
            lines = [CSV_HEADER, *map(_CSV_RECORD.format, *_text_columns(records, ""))]
            path.write_text("\n".join(lines) + "\n")
        else:
            columns = _text_columns(records, "null")
            columns[0] = map({name: json.dumps(name) for name in set(columns[0])}.get, columns[0])
            for i in _FLOAT_COLUMNS:
                columns[i] = _json_floats(columns[i])
            path.write_text("[\n" + ",\n".join(map(_JSON_RECORD.format, *columns)) + "\n]\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results_csv(path: str | Path) -> list[ResultRecord]:
    """Parse a results CSV written by write_results back into records."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 11:
            raise ValueError(f"{path}: malformed row {line!r}")
        records.append(
            ResultRecord(
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


def with_overrides(
    cfg: ExperimentConfig,
    power_sweep_dbm: Optional[Iterable[float]] = None,
    antenna_sweep: Optional[Iterable[int]] = None,
) -> ExperimentConfig:
    """Copy of cfg with sweep lists replaced (CLI convenience subcommands)."""
    updates = {}
    if power_sweep_dbm is not None:
        updates["power_sweep_dbm"] = tuple(power_sweep_dbm)
    if antenna_sweep is not None:
        updates["antenna_sweep"] = tuple(antenna_sweep)
    return replace(cfg, **updates) if updates else cfg
