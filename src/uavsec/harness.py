"""Experiment runner: config parsing, strategy sweeps, and result files.

Configs are flat ``section.key=value`` text; defaults reproduce the baseline
scenario (half-wavelength spacing, free-space-like exponent 2, 800 m flight
at 20 m altitude and 8 m/s, eavesdropper 200 m from the array). dBm to mW
conversion happens only here; everything below works in linear power. A
config is an ``ExperimentConfig``, a validated named tuple holding a
``ScenarioGeometry`` and an ``AisConfig``, and like them it is valid when
its text parses back to it: each key's value, written as
``serialize_config`` writes it, must parse with that key's parser to a value
of the same repr. The parsers hold every per-key check and message, and each
record declares its keys; the key table here joins them in the order of
``ExperimentConfig``'s fields. ``ExperimentConfig``'s own check is that its
``geometry`` and ``ais`` fields are exactly those records; whether the
scenario can be evaluated is ``ScenarioGeometry``'s to decide. A config built
in code runs every key's round trip; ``parse_config_text`` builds its records
from the values the parsers just returned, which already parse back to
themselves, so a parsed config runs only the records' cross-field rules.

A run samples the trajectory once and builds one batched link state per
antenna count M, with P x N lanes over the P transmit powers and N sample
points. The fixed splits of an M are scored together: one ``leakage_pair``
and one ``split_rates`` call over a leading axis of splits, shaped
(F, 1, 1), with each fixed block a view of that stack. An iterating
strategy picks the split of all lanes of an M in one ``optimize_point``
call, whose trace holds R_b and R_e there as its last PA step handed them
back; the block's rates are those and one clamp. The results stay in those
lane arrays, one block per (strategy, M), which ``summarize`` reads row by
row: in a block where no lane was clamped (R_s = R_b - R_e bit for bit), the
clamped flight sum max(0, sum(R_b - R_e)) of a row is max(0, sum(R_s)), one
sum. The writers format each block's columns straight from those arrays; the
values a sweep repeats are found from the rate identities (a column of one
double, R_s = R_b where R_e = 0 on every lane) and from equal lanes (an
iteration or converged column of one value), not from a sort. The float
texts come from ``uavsec.floattext`` as plain lists: the other lanes of a
column are formatted together, by one %-format call or, for a long column,
mostly from digit tables. A block's text is one flat list of pieces, filled
by slice assignment, and one join.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from itertools import chain, groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .ais import AisConfig, optimize_point
from .beamforming import leakage_pair
from .geometry import (
    _ANTENNAS,
    _DBM,
    _SPACING,
    _SPLIT,
    ArrayConfig,
    ConfigError,
    ScenarioGeometry,
    Validated,
    _echo,
    _join,
    _parse_list,
    link_state_at,
    parse_grid_step,
    sample_trajectory,
)
from .power_allocation import beta_grid_oracle, closed_form
from .rates import split_rates

CSV_HEADER = "strategy,M,Ps_dbm,n,theta_b,beta,Rb,Re,Rs,iterations,converged"
_FIELDS = CSV_HEADER.split(",")

_VALID_FORMATS = ("csv", "json")


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


class Strategy(namedtuple("Strategy", "kind fixed_beta", defaults=(None,))):
    """One of the sweepable per-point optimizers.

    kind: 'ais' (alternating closed-form loop), 'fixed' (leakage beamformers
    at a fixed split, no iteration), or 'grid_oracle' (the same alternating
    loop with exhaustive-search power allocation). fixed_beta: the split of
    a 'fixed' strategy (a float), None for the others.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        """The kind, with the exact split for 'fixed': rows are grouped and
        sorted by name, and two distinct strategies never share one."""
        if self.kind == "fixed":
            return f"fixed:{self.fixed_beta!r}"
        return self.kind


def parse_strategy(token: str) -> Strategy:
    token = token.strip()
    if token in ("ais", "grid_oracle"):
        return Strategy(token)
    if token.startswith("fixed:"):
        return Strategy("fixed", _SPLIT("strategies", token[len("fixed:") :]))
    raise ConfigError(f"strategies: unknown strategy {_echo(token, repr)}")


def _parse_path(key: str, raw: str) -> str:
    # The path is written as one config line, which the parser strips; an
    # empty one names the current directory, which no file can be written to.
    if not raw:
        raise ConfigError(f"{key}: empty path")
    if raw != raw.strip() or len(raw.splitlines()) > 1:
        raise ConfigError(f"{key}: {_echo(raw, repr)} holds a line break or surrounding whitespace")
    if "\0" in raw:
        raise ConfigError(f"{key}: {_echo(raw, repr)} holds a NUL byte")
    return raw


def _parse_format(key: str, raw: str) -> str:
    if raw not in _VALID_FORMATS:
        raise ConfigError(f"{key}: must be one of {_VALID_FORMATS}")
    return raw


_EXPERIMENT_DEFAULTS = {
    "geometry": ScenarioGeometry(),
    "array_spacing": ArrayConfig._field_defaults["spacing"],
    # Noise floor consistent with ~1 MHz bandwidth and a small noise figure;
    # low enough that the whole flight stays in the high-SNR regime where the
    # antenna-sweep trends are visible.
    "noise_dbm_bob": -110.0,
    "noise_dbm_eve": -110.0,
    "power_sweep_dbm": (10.0, 20.0, 30.0),
    "antenna_sweep": (8,),
    "strategies": (Strategy("ais"), Strategy("fixed", 0.5), Strategy("fixed", 0.9)),
    "ais": AisConfig(),
    "grid_step": 1e-3,
    "output_path": "results.csv",
    "output_format": "csv",
}


# The fields of an ExperimentConfig that are records with keys of their own.
_SECTIONS = {"geometry": ScenarioGeometry, "ais": AisConfig}


class ExperimentConfig(Validated, namedtuple("ExperimentConfig", _EXPERIMENT_DEFAULTS,
                                             defaults=_EXPERIMENT_DEFAULTS.values())):
    """A whole sweep: the scenario, the swept powers (dBm), antenna counts and
    strategies, the loop settings and the output file."""

    __slots__ = ()
    _FIELD_KEYS = {
        "array_spacing": ("array.spacing", _SPACING, repr),
        "noise_dbm_bob": ("noise.bob_dbm", _DBM, repr),
        "noise_dbm_eve": ("noise.eve_dbm", _DBM, repr),
        "power_sweep_dbm": ("sweep.power_dbm", _parse_list(_DBM), _join),
        "antenna_sweep": ("sweep.antennas", _parse_list(_ANTENNAS), _join),
        "strategies": ("strategies", _parse_list(lambda key, token: parse_strategy(token)),
                       lambda strategies: ",".join(s.name for s in strategies)),
        "grid_step": ("grid.step", parse_grid_step, repr),
        "output_path": ("output.path", _parse_path, str),
        "output_format": ("output.format", _parse_format, str),
    }

    def _validate(self):
        for section, record in _SECTIONS.items():
            if type(getattr(self, section)) is not record:
                raise ConfigError(f"{section}: {_echo(repr(getattr(self, section)))} is not of type {record.__name__}")


# Every config key: key -> (section, field, parse, format), in the order of
# ExperimentConfig's fields, with the geometry and ais records' keys in their
# places. The value is ``cfg.<section>.<field>``, or ``cfg.<field>`` when
# section is None; ``format`` writes text that ``parse(key, text)`` reads back
# exactly (as repr does floats).
_KEYS = {
    key: (section, field, parse, fmt)
    for name in ExperimentConfig._fields
    for section, table in [(name, _SECTIONS[name]._FIELD_KEYS) if name in _SECTIONS
                           else (None, {name: ExperimentConfig._FIELD_KEYS[name]})]
    for field, (key, parse, fmt) in table.items()
}


def parse_config_text(text: str, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Build a validated config from flat key=value text, then the
    ``overrides``, each one more line after the text's.

    Unknown keys and malformed values raise ConfigError naming the key; a
    line without '=' is named by its number, or as ``--set`` (the CLI option
    that passes overrides); a key given twice keeps its last value; an empty
    document yields the all-defaults config. Each value is checked once, by
    its key's parser; the records then run only their cross-field rules.
    """
    kwargs: dict = {section: {} for section in (*_SECTIONS, None)}
    numbered = [(f"line {n}", line) for n, line in enumerate(text.splitlines(), start=1)]
    for where, line in numbered + [("--set", line) for line in overrides]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {_echo(line, repr)}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {_echo(key, repr)}")
        section, field, parse, _ = _KEYS[key]
        kwargs[section][field] = parse(key, raw)
    sections = {section: record._parsed(**kwargs[section]) for section, record in _SECTIONS.items()}
    return ExperimentConfig._parsed(**sections, **kwargs[None])


def parse_config(path: str | Path, overrides: Iterable[str] = ()) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        # The OS text quotes the path again, uncut: only its reason is kept.
        raise ConfigError(f"cannot read config {_echo(str(path))}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {_echo(str(path))}: not UTF-8 at byte {exc.start}") from exc
    return parse_config_text(text, overrides)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit every key in the flat format parse_config_text accepts; the text
    parses back to an equal config, as ExperimentConfig checks key by key."""
    return "".join(f"{key}={fmt(getattr(cfg if section is None else getattr(cfg, section), field))}\n"
                   for key, (section, field, _, fmt) in _KEYS.items())


class ResultBlock(namedtuple("ResultBlock", "strategy m beta rate_bob rate_eve secrecy iterations converged",
                             defaults=(None, None))):
    """One (strategy, M) run over every (Ps, n) lane: the strategy's name,
    the antenna count, then ``beta`` and the rates as (P x N) arrays, rows in
    the order of ``SweepResult.powers_dbm``, with ``beta`` one float for the
    whole block (a fixed split). ``iterations`` and ``converged`` are (P x N)
    arrays, or None for a strategy that does not iterate.
    """

    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "powers_dbm n theta_b blocks")):
    """A sweep's results as columns, one row per (strategy, M, Ps, n).

    Rows run over ``blocks`` in order, then over ``powers_dbm``, then over
    the trajectory points ``n`` (whose bearings are ``theta_b``).
    """

    __slots__ = ()

    @property
    def rows(self) -> int:
        """The number of result rows."""
        return len(self.blocks) * len(self.powers_dbm) * len(self.n)


def _score(rate_bob, rate_eve):
    """(R_b, R_e, R_s) from the rates at a split."""
    diff = rate_bob - rate_eve
    # R_s = max{0, R_b - R_e}, and 0 where the difference is NaN.
    return rate_bob, rate_eve, np.where(diff > 0.0, diff, 0.0)


def _check_finite(block: ResultBlock, powers: tuple[float, ...]):
    """Raise ConfigError naming the first power whose lanes hold a
    non-finite split or rate (finite rates give a finite secrecy rate)."""
    finite = np.isfinite(block.beta) & np.isfinite(block.rate_bob) & np.isfinite(block.rate_eve)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise ConfigError(
            f"strategy={block.strategy} M={block.m} Ps={powers[row]:g}dBm: non-finite rates; "
            "the received powers leave float64 range (check geometry.reference_gain, "
            "sweep.power_dbm and noise.*_dbm)"
        )


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Evaluate every (strategy, M, Ps) combination along the trajectory.

    Output order is deterministic: sorted by strategy name, M, Ps, n. Raises
    ConfigError naming the first (strategy, M, Ps) whose rates are not all
    finite.
    """
    traj = sample_trajectory(cfg.geometry)
    powers = tuple(sorted(cfg.power_sweep_dbm))
    p_s = np.array([dbm_to_mw(ps) for ps in powers])[:, None]
    sigma2_b = dbm_to_mw(cfg.noise_dbm_bob)
    sigma2_e = dbm_to_mw(cfg.noise_dbm_eve)
    links = [
        (m, link_state_at(traj, cfg.geometry, ArrayConfig._parsed(m, cfg.array_spacing), sigma2_b, sigma2_e, p_s))
        for m in sorted(cfg.antenna_sweep)
    ]
    strategies = sorted(cfg.strategies, key=attrgetter("name"))
    fixed = [s for s in strategies if s.kind == "fixed"]
    betas = np.array([s.fixed_beta for s in fixed])[:, None, None]
    pa_steps = {"ais": closed_form, "grid_oracle": partial(beta_grid_oracle, step=cfg.grid_step)}
    blocks = []
    # An overflowing config shows as non-finite rates, checked below.
    with np.errstate(all="ignore"):
        # Every fixed split of an M in one call, along a leading axis.
        stacks = [dict(zip(fixed, zip(*_score(*split_rates(link, leakage_pair(link, betas), betas)))))
                  if fixed else {} for _, link in links]
        for strategy in strategies:
            for (m, link), stack in zip(links, stacks):
                if strategy.kind == "fixed":
                    block = ResultBlock(strategy.name, m, strategy.fixed_beta, *stack[strategy])
                else:
                    _, beta, trace = optimize_point(link, cfg.ais, pa_steps[strategy.kind])
                    block = ResultBlock(strategy.name, m, beta, *_score(trace.rate_bob, trace.rate_eve),
                                        trace.iterations_used, trace.converged)
                _check_finite(block, powers)
                blocks.append(block)
    return SweepResult(powers, traj.sample_index, traj.theta_b, tuple(blocks))


def summarize(result: SweepResult) -> list[dict]:
    """Per-(strategy, M, Ps) aggregates: mean per-point secrecy rate, the
    per-point-clamped sum, the whole-flight clamped sum, and the number of
    points that hit the iteration cap without converging.

    The whole-flight sum is max{0, sum_n (R_b,n - R_e,n)}, clamped on the
    sum and not per point. It takes a second ``math.fsum`` only in a block
    with a clamped lane: where R_s equals R_b - R_e bit for bit on every lane
    (the usual case), it is the per-point-clamped sum, clamped at 0."""
    points = len(result.n)
    out = []
    for block in result.blocks:
        if block.converged is None:
            nonconverged = repeat(0)
        else:
            nonconverged = np.count_nonzero(~block.converged, axis=1).tolist()
        diffs = block.rate_bob - block.rate_eve
        unclamped = block.secrecy.tobytes() == diffs.tobytes()
        rows = zip(result.powers_dbm, block.secrecy.tolist(),
                   repeat(None) if unclamped else diffs.tolist(), nonconverged)
        for ps, secrecy, row_diffs, capped in rows:
            total = math.fsum(secrecy)
            out.append(
                {
                    "strategy": block.strategy,
                    "M": block.m,
                    "Ps_dbm": ps,
                    "points": points,
                    "mean_secrecy_rate": total / points,
                    "ssr_per_point_clamped": total,
                    "ssr_sum_clamped": max(0.0, total if unclamped else math.fsum(row_diffs)),
                    "nonconverged": capped,
                }
            )
    return out


# The separator before a row, the text before each of its fields, and the
# text after its last field: a row is a CSV line, or one element of
# ``json.dumps(rows, indent=2)``.
_CSV_LAYOUT = ("\n", [""] + [","] * (len(_FIELDS) - 1), "")
_JSON_LAYOUT = (",\n", ["  {\n" + f'    "{_FIELDS[0]}": '] + [f',\n    "{key}": ' for key in _FIELDS[1:]],
                "\n  }")


def _one_text(lanes: np.ndarray, text):
    """The texts of an int or bool column: one str when every lane holds
    one value (every lane of the default sweep stops after two cycles)."""
    return text(lanes.item(0)) if (lanes == lanes[0]).all() else list(map(text, lanes.tolist()))


def _format_blocks(result: SweepResult, is_json: bool) -> Iterator[str]:
    """The text of each block's rows, straight from the columns. Every row
    starts with the row separator, except the file's first row.

    Each float column goes through ``floattext.column_texts``; the secrecy
    rate reuses the Bob rate's texts where R_e = 0 on every lane, since
    R_s = max(0, R_b - R_e) is then exactly R_b. The Ps, ``n`` and
    ``theta_b`` texts of each lane are joined once, as one list shared by
    every block. A row is a run of pieces: a str shared by every row (runs
    of them merged, such as a fixed split's), that lane prefix, or a lane
    column. Each piece fills every k-th slot of one flat list by slice
    assignment, and the block is one join over it.
    """
    # Loaded here, not at import: parsing a config never needs it.
    from .floattext import column_texts, twelve_digits

    (row_sep, separators, end), null = (_JSON_LAYOUT, "null") if is_json else (_CSV_LAYOUT, "")
    point_texts = [f"{separators[3]}{n}{separators[4]}{theta}" for n, theta in
                   zip(result.n.tolist(), twelve_digits(result.theta_b, is_json))]
    prefix = [ps + point for ps in twelve_digits(np.array(result.powers_dbm, dtype=float), is_json)
              for point in point_texts]
    for k, block in enumerate(result.blocks):
        # A name is "ais", "grid_oracle" or "fixed:" and a float's repr: no
        # character JSON escapes.
        name = f'"{block.strategy}"' if is_json else block.strategy
        bob = column_texts(block.rate_bob, is_json)
        columns = (column_texts(block.beta, is_json), bob, column_texts(block.rate_eve, is_json),
                   column_texts(block.secrecy, is_json, (block.rate_bob, bob)))
        if block.iterations is None:
            counts = flags = null
        else:
            counts, flags = (_one_text(column.ravel(), text) for column, text in
                             ((block.iterations, str), (block.converged, ("false", "true").__getitem__)))
        row = [row_sep + separators[0] + name + separators[1] + str(block.m) + separators[2], prefix,
               *chain.from_iterable(zip(separators[5:], (*columns, counts, flags))), end]
        pieces = [piece for is_text, run in groupby(row, lambda p: isinstance(p, str))
                  for piece in (["".join(run)] if is_text else run)]
        texts = [""] * (len(prefix) * len(pieces))
        for i, piece in enumerate(pieces):
            texts[i::len(pieces)] = [piece] * len(prefix) if isinstance(piece, str) else piece
        text = "".join(texts)
        yield text[len(row_sep):] if k == 0 else text


def write_results(result: SweepResult, fmt: str, path: str | Path):
    """Write the rows as CSV (fixed header) or a JSON array, 12 significant
    digits for floats in both.

    The JSON bytes are those of ``json.dumps(rows, indent=2)`` over one dict
    per row, with each float the 12-digit value. They are formatted from the
    columns, because with ``indent`` set ``json`` falls back to its
    pure-Python encoder.
    """
    if not result.rows:
        raise ValueError("no records to write")
    if fmt not in _VALID_FORMATS:
        raise ValueError(f"format must be one of {_VALID_FORMATS}")
    path = Path(path)
    is_json = fmt == "json"
    head, tail = ("[\n", "\n]\n") if is_json else (CSV_HEADER + "\n", "\n")
    try:
        with path.open("w") as fh:
            fh.write(head)
            fh.writelines(_format_blocks(result, is_json))
            fh.write(tail)
    except OSError as exc:
        raise OSError(f"cannot write results to {_echo(str(path))}: {exc.strerror or exc}") from exc
