import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import uavsec
from uavsec.ais import AisConfig, beta_grid_oracle, closed_form, leakage_pair, optimize_point, split_rates
from uavsec.geometry import (
    MAX_ABS_DBM,
    MAX_ANTENNAS,
    MAX_SPACING,
    ConfigError,
    ScenarioGeometry,
    _echo,
    link_state_at,
    sample_trajectory,
)
from uavsec.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultBlock,
    Strategy,
    SweepResult,
    dbm_to_mw,
    parse_config_text,
    parse_strategy,
    run_experiment,
    serialize_config,
    summarize,
    write_results,
)
from uavsec.cli import _PARSER, main
from uavsec import floattext
from uavsec.floattext import _TABLE_CHUNK, _TABLE_MIN, group_texts, twelve_digits

from helpers import read_results_csv, records_of, reference_summary, result_of


SHORT_CONFIG = """
# ten-point flight for fast tests
geometry.flight_end=80,0,20
sweep.power_dbm=20
sweep.antennas=4
strategies=fixed:0.5
"""
# Columns of 2000 lanes (400 points x 5 powers), which take the digit tables.
LANES_CONFIG = "geometry.sample_interval=0.25\nsweep.power_dbm=0,10,20,30,40\nsweep.antennas=64,1024\n"
# Every strategy kind, each sweep given out of order, Eve off the axis.
MIXED_CONFIG = ("strategies=grid_oracle,fixed:0.5,ais,fixed:0.25\nsweep.antennas=64,4\nsweep.power_dbm=30,-20,10\n"
                "geometry.eve=-150,120,0\n")
# Low SNR: some ais points hit the iteration cap, and 4 of the 24 (strategy,
# M, Ps) rows hold clamped lanes (R_b < R_e).
LOW_SNR_CONFIG = ("noise.bob_dbm=-60\nnoise.eve_dbm=-60\nsweep.power_dbm=0,10,20\nsweep.antennas=2,4,8,64\n"
                  "strategies=ais,fixed:0.5\n")


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


_POSITIVE = _finite(min_value=0.0, exclude_min=True)
_DBM = _finite(min_value=-MAX_ABS_DBM, max_value=MAX_ABS_DBM)
_SPLIT = _finite(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def configs(draw):
    """Any config the parser accepts, every key drawn over its valid range
    (subnormals and signed zeros included where valid)."""
    point = st.tuples(_finite(), _finite(), _finite())
    alice, start = draw(point), draw(st.tuples(_finite(), _finite(), _POSITIVE))
    end = (draw(_finite()), draw(_finite()), start[2])
    reference_gain = draw(_POSITIVE)
    # The UAV's path gain reference_gain / d**c must not underflow at the
    # flight's far end: where d > 1, that bounds the exponent c.
    d_far = max(math.dist(start, alice), math.dist(end, alice))
    bound = (math.log(reference_gain) - math.log(5e-324)) / math.log(d_far) if d_far > 1 else None
    assume(bound is None or bound > 0)
    # At least one sample point: (L/V)/dt >= 1, so dt <= L/V.
    speed = draw(_POSITIVE)
    duration = min(math.hypot(*(e - s for s, e in zip(start, end))) / speed, sys.float_info.max)
    assume(duration > 0)
    try:
        geometry = ScenarioGeometry(
            alice=alice, eve=draw(point), flight_start=start, flight_end=end, speed=speed,
            sample_interval=draw(_finite(min_value=0.0, max_value=duration, exclude_min=True)),
            path_loss_exponent=draw(_finite(min_value=0.0, max_value=bound, exclude_min=True)),
            reference_gain=reference_gain,
        )
    except ConfigError:  # the sample count, Eve at the array or a path gain
        assume(False)
    strategy = st.one_of(st.just(Strategy("ais")), st.just(Strategy("grid_oracle")),
                         _SPLIT.map(lambda beta: Strategy("fixed", beta)))
    path = st.text().filter(lambda text: text == text.strip() and len(text.splitlines()) == 1 and "\0" not in text)
    return ExperimentConfig(
        geometry=geometry,
        array_spacing=draw(_finite(min_value=0.0, max_value=MAX_SPACING, exclude_min=True)),
        noise_dbm_bob=draw(_DBM),
        noise_dbm_eve=draw(_DBM),
        power_sweep_dbm=tuple(draw(st.lists(_DBM, min_size=1, max_size=4, unique=True))),
        antenna_sweep=tuple(draw(st.lists(st.integers(2, MAX_ANTENNAS), min_size=1, max_size=4,
                                          unique=True))),
        strategies=tuple(draw(st.lists(strategy, min_size=1, max_size=4, unique=True))),
        ais=AisConfig(draw(_SPLIT), draw(_POSITIVE), draw(st.integers(min_value=1))),
        # 1/n for an integer n, inside the key's interval [1e-6, 1e-2].
        grid_step=draw(st.integers(100, 10**6).map(lambda n: 1.0 / n)),
        output_path=draw(path),
        output_format=draw(st.sampled_from(("csv", "json"))),
    )


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()
        assert cfg.noise_dbm_bob == -110.0
        assert cfg.power_sweep_dbm == (10.0, 20.0, 30.0)
        assert [s.name for s in cfg.strategies] == ["ais", "fixed:0.5", "fixed:0.9"]

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("geometry.velocity=8")

    def test_malformed_line_reported(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words")

    def test_round_trip_through_serializer(self, tmp_path, capsys):
        cfg = parse_config_text(SHORT_CONFIG)
        assert parse_config_text(serialize_config(cfg)) == cfg
        default = ExperimentConfig()
        assert parse_config_text(serialize_config(default)) == default
        # More digits than a 6-digit float format keeps.
        for text in ("geometry.speed=8.1234567", "noise.bob_dbm=-110.123456",
                     "strategies=ais,fixed:0.1234567"):
            cfg = parse_config_text(text)
            assert parse_config_text(serialize_config(cfg)) == cfg
        # The default, and a config built in code that the default cannot
        # reach, each sweep given out of order: run from its text, each
        # writes the bytes that write_results writes in process.
        code_built = ExperimentConfig(
            geometry=ScenarioGeometry(eve=(-150.0, 120.0, 0.0), flight_end=(400.0, 0.0, 20.0)),
            power_sweep_dbm=(30.0, -20.0, 10.0),
            antenna_sweep=(64, 4),
            strategies=(Strategy("grid_oracle"), Strategy("fixed", 0.25), Strategy("ais")),
            ais=AisConfig(0.3, 1e-8, 20),
        )
        assert parse_config_text(serialize_config(code_built)) == code_built
        for cfg in (default, code_built):
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(serialize_config(cfg))
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli.csv")]) == 0
            assert capsys.readouterr().err == ""
            write_results(run_experiment(cfg), "csv", tmp_path / "api.csv")
            assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "api.csv").read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(configs())
    @example(ExperimentConfig(
        geometry=ScenarioGeometry(eve=(5e-324, -0.0, 1e308), speed=8.1234567),
        strategies=(Strategy("fixed", 0.1234567), Strategy("fixed", 0.5000001)),
    ))
    def test_every_config_round_trips(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_strategy_tokens(self):
        assert parse_strategy("ais") == Strategy("ais")
        assert parse_strategy("grid_oracle") == Strategy("grid_oracle")
        assert parse_strategy("fixed:0.25") == Strategy("fixed", 0.25)
        assert parse_strategy("fixed:2.5e-1") == Strategy("fixed", 0.25)
        assert Strategy("fixed", 0.5).name == "fixed:0.5"
        with pytest.raises(ConfigError):
            parse_strategy("fixed:1.5")
        with pytest.raises(ConfigError):
            parse_strategy("annealing")
        # Equal splits are one strategy however they are spelled.
        with pytest.raises(ConfigError, match="duplicate entries"):
            parse_config_text("strategies=fixed:0.5,fixed:0.50")

    def test_dbm_conversion(self):
        assert dbm_to_mw(0.0) == 1.0
        assert abs(dbm_to_mw(30.0) - 1000.0) < 1e-9
        assert abs(dbm_to_mw(-110.0) - 1e-11) < 1e-22

    def test_overrides(self):
        # _replace validates the new config: a valid field is taken, and an
        # invalid one raises the key's ConfigError.
        cfg = ExperimentConfig()
        out = cfg._replace(power_sweep_dbm=(5.0,), antenna_sweep=(4, 8))
        assert out.power_sweep_dbm == (5.0,)
        assert out.antenna_sweep == (4, 8)
        assert cfg._replace() == cfg
        with pytest.raises(ConfigError, match="sweep.power_dbm"):
            cfg._replace(power_sweep_dbm=())


class TestRunExperiment:
    def test_record_count_full_trajectory(self):
        cfg = parse_config_text(
            "sweep.power_dbm=20\nsweep.antennas=8\nstrategies=fixed:0.5\n"
        )
        records = records_of(run_experiment(cfg))
        assert len(records) == 100
        assert [r.n for r in records] == list(range(1, 101))
        assert all(r.strategy == "fixed:0.5" and r.m == 8 for r in records)

    def test_record_count_is_cartesian_product(self):
        cfg = parse_config_text(
            "geometry.flight_end=80,0,20\n"
            "sweep.power_dbm=10,20\nsweep.antennas=4,8\n"
            "strategies=fixed:0.5,fixed:0.9\n"
        )
        records = records_of(run_experiment(cfg))
        assert len(records) == 2 * 2 * 2 * 10

    def test_eve_on_a_sample_bearing_gives_finite_rows(self):
        # Eve at (100, 50, 0) sees the array on the same bearing as the UAV
        # at sample 5, (40, 0, 20); at 50 dBm the two channels coincide.
        cfg = parse_config_text(
            "geometry.eve=100,50,0\nsweep.power_dbm=50\nsweep.antennas=8\n"
            "strategies=ais,fixed:0.5\n"
        )
        records = records_of(run_experiment(cfg))
        assert len(records) == 200
        for r in records:
            assert all(math.isfinite(v) for v in (r.beta, r.rate_bob, r.rate_eve, r.secrecy))
            assert 0.0 < r.beta <= 1.0

    def test_eve_on_trajectory_kills_secrecy(self):
        # Eve placed exactly where Bob passes at n=50: identical channels
        cfg = parse_config_text(
            "geometry.eve=400,0,20\nsweep.power_dbm=20\nsweep.antennas=8\n"
            "strategies=fixed:0.5\n"
        )
        records = records_of(run_experiment(cfg))
        at_eve = [r for r in records if r.n == 50]
        assert len(at_eve) == 1
        assert at_eve[0].secrecy <= 1e-9

    def test_ais_close_to_grid_oracle(self):
        cfg = parse_config_text(
            "geometry.flight_end=80,0,20\nsweep.power_dbm=20\nsweep.antennas=8\n"
            "strategies=ais,grid_oracle\ngrid.step=1e-4\n"
        )
        records = records_of(run_experiment(cfg))
        ais = {r.n: r for r in records if r.strategy == "ais"}
        grid = {r.n: r for r in records if r.strategy == "grid_oracle"}
        assert set(ais) == set(grid) and len(ais) == 10
        for n in ais:
            assert abs(ais[n].secrecy - grid[n].secrecy) <= 1e-3
            assert ais[n].converged and grid[n].converged

    @pytest.mark.parametrize("spacing", [0.5, 1.7])
    def test_blocks_are_the_rates_at_each_strategy_split(self, spacing):
        # Every block holds split_rates at its strategy's split and the
        # projected powers of the vectors there, bit for bit, clamped once,
        # on the array of the config's array.spacing: at 1.7 the rows are not
        # the half-wavelength ones. Eve at (30, 0, 15) out-hears Bob at some
        # points of every block.
        text = (SHORT_CONFIG + "strategies=ais,fixed:0.5,grid_oracle\n"
                "sweep.antennas=4,64\nsweep.power_dbm=30,0\ngeometry.eve=30,0,15\n")
        cfg = parse_config_text(text + f"array.spacing={spacing!r}\n")
        result = run_experiment(cfg)
        if spacing != 0.5:
            half = run_experiment(parse_config_text(text))
            assert any((block.rate_bob != other.rate_bob).any() for block, other in zip(result.blocks, half.blocks))
        assert [(block.strategy, block.m) for block in result.blocks] == [
            ("ais", 4), ("ais", 64), ("fixed:0.5", 4), ("fixed:0.5", 64), ("grid_oracle", 4), ("grid_oracle", 64)]
        traj = sample_trajectory(cfg.geometry)
        p_s = np.array([dbm_to_mw(ps) for ps in result.powers_dbm])[:, None]
        steps = {"ais": closed_form, "grid_oracle": partial(beta_grid_oracle, step=cfg.grid_step)}

        def bits(values):
            return np.asarray(values, dtype=float).view(np.int64)

        for block in result.blocks:
            link = link_state_at(traj, cfg.geometry, block.m, cfg.array_spacing,
                                 dbm_to_mw(cfg.noise_dbm_bob), dbm_to_mw(cfg.noise_dbm_eve), p_s)
            if block.strategy in steps:
                powers, beta, _ = optimize_point(link, cfg.ais, steps[block.strategy])
            else:
                beta = 0.5
                powers = leakage_pair(link, beta)
            r_b, r_e = split_rates(link, powers, beta)
            assert np.array_equal(bits(block.beta), bits(beta))
            assert np.array_equal(bits(block.rate_bob), bits(r_b))
            assert np.array_equal(bits(block.rate_eve), bits(r_e))
            diff = block.rate_bob - block.rate_eve
            assert (diff < 0).any() and (diff > 0).any()
            assert np.array_equal(bits(block.secrecy), bits(np.where(diff > 0, diff, 0)))

    def test_stacked_fixed_splits_equal_each_split_alone(self):
        # The fixed splits of one M are scored in one stacked call; each
        # block is bit for bit the block of a sweep of that split alone, and
        # the blocks keep their sorted order around the ais ones, and in
        # MIXED_CONFIG around the grid_oracle ones too.
        text = ("geometry.flight_end=160,0,20\nsweep.power_dbm=40,-20,10\nsweep.antennas=64,4\n"
                "geometry.eve=-150,120,0\nstrategies=fixed:0.9,ais,fixed:0.25,fixed:0.5\n")
        result = run_experiment(parse_config_text(text))
        assert [(block.strategy, block.m) for block in result.blocks] == [
            (name, m) for name in ("ais", "fixed:0.25", "fixed:0.5", "fixed:0.9") for m in (4, 64)]
        mixed = run_experiment(parse_config_text(MIXED_CONFIG))
        assert [(block.strategy, block.m) for block in mixed.blocks] == [
            (name, m) for name in ("ais", "fixed:0.25", "fixed:0.5", "grid_oracle") for m in (4, 64)]

        def bits(values):
            return np.asarray(values, dtype=float).view(np.int64)

        for config, fixed in ((text, result.blocks[2:]), (MIXED_CONFIG, mixed.blocks[2:6])):
            for block in fixed:
                # The later strategies line wins.
                alone = run_experiment(parse_config_text(config + f"strategies={block.strategy}\n"))
                (same,) = [b for b in alone.blocks if b.m == block.m]
                assert block.beta == same.beta and block.iterations is same.iterations is None
                for field in ("rate_bob", "rate_eve", "secrecy"):
                    assert np.array_equal(bits(getattr(block, field)), bits(getattr(same, field)))

    @pytest.mark.parametrize("config", [
        SHORT_CONFIG,
        SHORT_CONFIG + "strategies=ais\n",
        SHORT_CONFIG + "strategies=grid_oracle\n",
        LOW_SNR_CONFIG,
    ], ids=["fixed", "ais", "grid_oracle", "LOW_SNR_CONFIG"])
    def test_run_is_deterministic(self, config):
        # Each strategy kind: the closed-form pass, the alternating loop (with
        # its iteration counts and, at low SNR, the capped lanes) and the grid
        # search give the same records bit for bit on a second run.
        cfg = parse_config_text(config)
        serial_a = records_of(run_experiment(cfg))
        serial_b = records_of(run_experiment(cfg))
        assert serial_a == serial_b and serial_a
        # Bit for bit: == would let 0.0 and -0.0 pass.
        rates = [np.array([r[5:9] for r in serial], dtype=float).view(np.int64) for serial in (serial_a, serial_b)]
        assert np.array_equal(*rates)

    def test_summary_mean_matches_records(self):
        cfg = parse_config_text(SHORT_CONFIG)
        result = run_experiment(cfg)
        records = records_of(result)
        (row,) = summarize(result)
        assert row["points"] == 10
        assert abs(
            row["mean_secrecy_rate"] - math.fsum(r.secrecy for r in records) / 10
        ) < 1e-12
        assert row["ssr_sum_clamped"] <= row["ssr_per_point_clamped"] + 1e-12

    @pytest.mark.parametrize("config", [
        "",
        "geometry.flight_end=200,0,20\ngeometry.eve=203,1.5,0\nsweep.power_dbm=50,-10,20\n"
        "sweep.antennas=64,4\nstrategies=grid_oracle,fixed:0.5,ais\nais.max_iterations=2\n",
        # The clamped rows' blocks take the two-sum path.
        LOW_SNR_CONFIG,
        LANES_CONFIG,
        MIXED_CONFIG,
    ])
    def test_summary_equals_record_reference(self, tmp_path, capsys, config):
        cfg = parse_config_text(config)
        result = run_experiment(cfg)
        want = reference_summary(records_of(result))
        assert summarize(result) == want
        # The CLI prints each row's sums to 6 decimals, and a warning for each
        # row with capped points on stderr, whichever format it writes.
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config)
        warned = "".join(
            f"warning: strategy={row['strategy']} M={row['M']} Ps={row['Ps_dbm']:g}dBm: {row['nonconverged']} of "
            f"{row['points']} points hit the iteration cap (ais.max_iterations={cfg.ais.max_iterations}) "
            "without converging\n" for row in want if row["nonconverged"])
        for fmt in ("csv", "json"):
            argv = ["run", "--config", str(cfg_path), "--set", f"output.format={fmt}", "--out", str(tmp_path / "r")]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == warned
            printed = re.findall(r"^strategy=(\S+) M=(\d+) Ps=(\S+)dBm mean_SR=(\S+) SSR=(\S+) SSR_sum_clamped=(\S+)$",
                                 captured.out, re.M)
            assert [(name, int(m), float(ps)) for name, m, ps, *_ in printed] == [
                (row["strategy"], row["M"], row["Ps_dbm"]) for row in want]
            for (*_, mean, ssr, clamped), row in zip(printed, want):
                assert [float(mean), float(ssr), float(clamped)] == pytest.approx(
                    [row["mean_secrecy_rate"], row["ssr_per_point_clamped"], row["ssr_sum_clamped"]], rel=0, abs=1e-6)

    @pytest.mark.parametrize(
        "diffs, ssr, ssr_sum_clamped, one_sum",
        [
            ([0.0, 0.0, 0.0], 0.0, 0.0, True),
            ([1.25], 1.25, 1.25, True),
            ([0.5, 1.5, -0.25], 2.0, 1.75, False),
            ([-1.0, 0.25], 0.25, 0.0, False),  # clamped on the sum
        ],
    )
    def test_flight_sum_is_clamped_on_the_sum(self, diffs, ssr, ssr_sum_clamped, one_sum):
        # The whole-flight sum max{0, sum_n (R_b,n - R_e,n)} of one block at one
        # power whose R_b - R_e is exactly ``diffs``. The ``one_sum`` cases have
        # R_s = R_b - R_e on every point; the others have a clamped point.
        d = np.array([diffs])
        rate_bob, rate_eve, secrecy = np.maximum(d, 0.0), np.maximum(-d, 0.0), np.maximum(d, 0.0)
        assert np.array_equal(rate_bob - rate_eve, d)
        assert np.array_equal(secrecy, d) == one_sum
        block = ResultBlock("fixed:0.5", 8, 0.5, rate_bob, rate_eve, secrecy)
        points = np.arange(1, len(diffs) + 1)
        [row] = summarize(SweepResult((10.0,), points, np.zeros(len(diffs)), (block,)))
        assert (row["ssr_per_point_clamped"], row["ssr_sum_clamped"]) == (ssr, ssr_sum_clamped)


def _assert_writers_match_reference(result, tmp_path):
    """Both writers' texts of a result equal those of the standard encoders:
    ``json.dumps(rows, indent=2)`` and ``f"{v:.12g}"``."""
    def twelve_digits(v):
        return float(f"{v:.12g}")

    records = records_of(result)
    rows = [
        dict(zip(CSV_HEADER.split(","), (r.strategy, r.m, twelve_digits(r.ps_dbm), r.n,
                                         *map(twelve_digits, r[4:9]), r.iterations, r.converged)))
        for r in records
    ]
    lines = [CSV_HEADER] + [
        ",".join([r.strategy, str(r.m), f"{r.ps_dbm:.12g}", str(r.n), *(f"{v:.12g}" for v in r[4:9]),
                  "" if r.iterations is None else str(r.iterations),
                  "" if r.converged is None else str(r.converged).lower()])
        for r in records
    ]
    write_results(result, "json", tmp_path / "r.json")
    write_results(result, "csv", tmp_path / "r.csv")
    assert (tmp_path / "r.json").read_text() == json.dumps(rows, indent=2) + "\n"
    assert (tmp_path / "r.csv").read_text() == "\n".join(lines) + "\n"


def _repeated_values_result():
    """Columns that repeat doubles within and across blocks: 0.0 next to
    -0.0, NaNs with different payloads and signs, one value in every column."""
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000],
                    dtype=np.uint64).view(float)
    pool = np.concatenate([[0.0, -0.0, 0.25, 1e-300, -0.0, 0.25, 100.0, 0.0], nans])

    def lanes(k):
        return np.resize(np.roll(pool, k), (2, 3))

    iterations = np.array([[2, 2, 50], [2, 1, 2]])
    blocks = (
        ResultBlock("ais", 4, lanes(0), lanes(1), lanes(2), lanes(3), iterations, iterations < 50),
        ResultBlock("fixed:0.25", 4, 0.25, lanes(4), lanes(5), lanes(6)),
        ResultBlock("fixed:0.25", 8, 0.25, lanes(7), -lanes(8), lanes(9)),
    )
    return SweepResult((-0.0, 0.25), np.arange(1, 4), np.array([0.25, -0.0, 0.0]), blocks)


# Doubles a sweep repeats or the JSON text rule turns on: signed zeros, NaN
# payloads, infinities, integral values, values 12 digits round to an
# integer, and values at and next to the edges 1e-4 and 1e11 of the range
# where a 12-digit text always has a point and no exponent.
_WRITER_EDGES = [0.0, -0.0, math.nan, float(np.uint64(0x7FF8000000000001).view(float)), math.inf,
                 2.0, 2.0000000000001, 0.5, 1e15, 1e16, 123456789012.0, 99999999999.99999,
                 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9.99999999999999e-5,
                 1e11, math.nextafter(1e11, 0.0), math.nextafter(1e11, math.inf), 99999999999.5, 5e-324]
# Doubles at the edges of the digit tables' lanes: the range ends 1e-4 and
# 1e11 and their predecessors, an exact 13th-digit tie, values that round up
# to the next decade or to an integer, integral values, negatives, signed
# zero, the smallest subnormal and non-finite values.
_TABLE_EDGES = [1e-4, math.nextafter(1e-4, 0.0), 1e11, math.nextafter(1e11, 0.0), 12345678901.25,
                99999999999.96, 9.9999999999996, 0.0999999999999996, 2.0, 100.0, 123456789012.0,
                -0.5, -12.25, -3.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]
_WRITER_VALUES = st.one_of(st.floats(), st.sampled_from(_WRITER_EDGES),
                           st.sampled_from(_WRITER_EDGES).map(lambda v: -v))


@st.composite
def sweep_results(draw):
    """Results whose columns repeat doubles as sweeps do: one value in every
    lane, Rs bitwise equal to Rb on some lanes, and ``_WRITER_EDGES``."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    size = shape[0] * shape[1]

    def lanes(elements):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    def column():
        return np.full(shape, draw(_WRITER_VALUES)) if draw(st.booleans()) else lanes(_WRITER_VALUES)

    blocks = []
    for strategy in draw(st.lists(st.sampled_from(["ais", "fixed:0.25", "grid_oracle"]), min_size=1, max_size=3)):
        bob = column()
        secrecy = np.where(lanes(st.booleans()), bob, column())
        beta = draw(_WRITER_VALUES) if draw(st.booleans()) else column()
        iterations = lanes(st.integers(1, 60)) if draw(st.booleans()) else None
        converged = None if iterations is None else iterations < 50
        blocks.append(ResultBlock(strategy, 8, beta, bob, column(), secrecy, iterations, converged))
    powers = tuple(draw(st.lists(_WRITER_VALUES, min_size=shape[0], max_size=shape[0])))
    return SweepResult(powers, np.arange(1, shape[1] + 1), column()[0], tuple(blocks))


@st.composite
def column_groups(draw):
    """Groups of float columns as the writer hands them to ``group_texts``:
    columns of one double, copies of an earlier column of the group (some
    with one lane's sign flipped), and columns that mix plain lanes with
    negative, integral, exponent-form, subnormal, signed-zero, non-finite
    and near-tie values, some of at least ``_TABLE_MIN`` lanes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = np.array(_TABLE_EDGES + _WRITER_EDGES + [-v for v in _WRITER_EDGES] + [1e-7, 3e13, 1e-310]
                       + [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**11, 10**12, 16).tolist(),
                                                             rng.integers(-16, -1, 16).tolist())])
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        group = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["one double", "copy", "mixed"] if group else ["one double", "mixed"]))
            size = draw(st.sampled_from([1, 2, 300, _TABLE_MIN - 1, _TABLE_MIN, 1500]))
            if kind == "one double":
                column = np.full(size, draw(_WRITER_VALUES))
            elif kind == "copy":
                column = draw(st.sampled_from(group)).copy()
                if draw(st.booleans()):
                    lane = draw(st.integers(0, column.size - 1))
                    column[lane] = -column[lane]
            else:
                column = 10.0 ** rng.uniform(-5, 12, size)
                odd = rng.random(size) < draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
                column[odd] = rng.choice(special, odd.sum())
            group.append(column)
        groups.append(group)
    return groups


class TestResultFiles:
    def test_csv_round_trip_byte_identical(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        result = run_experiment(cfg)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_results(result, "csv", first)
        write_results(result_of(read_results_csv(first)), "csv", second)
        assert first.read_bytes() == second.read_bytes()

    def test_writers_match_reference_encoders(self, tmp_path):
        # Every strategy name; negative, exponent-form, integral, subnormal
        # and non-finite floats (12g and repr disagree on the form of 1.5e13,
        # 123456789012345.0, 100 and 5e-324); a block-wide and a per-lane
        # beta; iteration fields absent, true and false.
        names = [parse_strategy(t).name for t in ("ais", "fixed:0.25", "fixed:0.5", "grid_oracle")]
        pool = np.array([0.999999999999, 1.0, 0.5, 0.9, 12.5, 1.0 / 3.0, 100.0, 1e-7, -3.25e-5, 0.0,
                         -2.5e-12, 1.5e13, 7e20, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                         123456789012345.0])
        shape = (4, 4)

        def lanes(k):
            return np.resize(np.roll(pool, 5 * k), shape)

        iterations = np.resize([2, 50, 1], shape)
        converged = iterations < 50
        blocks = (
            ResultBlock(names[0], 8, lanes(0), lanes(1), lanes(2), lanes(3), iterations, converged),
            ResultBlock(names[1], 16, 0.25, lanes(4), lanes(5), lanes(6)),
            ResultBlock(names[2], 32, 0.5, lanes(7), lanes(8), lanes(9)),
            ResultBlock(names[3], 64, lanes(10), lanes(11), lanes(12), lanes(13), iterations, ~converged),
        )
        result = SweepResult((-10.0, 0.0, 20.0, 50.0), np.arange(1, 5),
                             np.array([1.2, 1e-300, 3.14159265358979, 2.0]), blocks)
        assert len(records_of(result)) == result.rows == 64
        _assert_writers_match_reference(result, tmp_path)

    def test_repeated_values_match_reference_encoders(self, tmp_path):
        # The empty config repeats many doubles: ais splits of exactly 1 and
        # Eve rates of exactly 0 (with Rs == Rb there); the fixed splits at
        # M=64 null Eve on every lane.
        default = run_experiment(parse_config_text(""))
        ais = default.blocks[0]
        assert ais.strategy == "ais" and (ais.beta == 1.0).all()
        zero_eve = [(block.rate_eve == 0) & (block.secrecy == block.rate_bob) for block in default.blocks]
        assert all(lanes.any() for lanes in zero_eve)
        nulled = run_experiment(parse_config_text("strategies=fixed:0.1,fixed:0.9\nsweep.antennas=64"))
        assert all((block.rate_eve == 0).all() and (block.secrecy == block.rate_bob).all()
                   for block in nulled.blocks)
        for result in (default, nulled, _repeated_values_result()):
            _assert_writers_match_reference(result, tmp_path)

    @pytest.mark.parametrize("config", [
        # A one-point flight with one power: one block of one row.
        "geometry.flight_end=8,0,20\nsweep.power_dbm=10\nstrategies=ais",
        # One block, whose split is a scalar.
        "strategies=fixed:0.5\nsweep.power_dbm=10,20",
        # Several blocks, the first of one row.
        "geometry.flight_end=8,0,20\nsweep.power_dbm=10\nsweep.antennas=4,8\n"
        "strategies=ais,fixed:0.5,grid_oracle",
        # Columns of 600 lanes, which take the digit tables.
        "strategies=fixed:0.5,fixed:0.9\nsweep.power_dbm=0,10,20,30,40,50\nsweep.antennas=8,64",
        LANES_CONFIG,
        MIXED_CONFIG,
        LOW_SNR_CONFIG,
    ])
    def test_edge_shapes_match_reference_encoders(self, tmp_path, config):
        # The file's first row has no row separator before it.
        result = run_experiment(parse_config_text(config))
        _assert_writers_match_reference(result, tmp_path)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sweep_results())
    def test_synthetic_results_match_reference_encoders(self, tmp_path_factory, result):
        tmp_path = tmp_path_factory.mktemp("writer")
        _assert_writers_match_reference(result, tmp_path)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), max_size=8))
    @example([0.0, -0.0, 0.0])
    def test_float_texts_match_json_dumps(self, values):
        # Any double, subnormals, signed zeros and non-finite values included.
        array = np.array(values, dtype=float)
        assert twelve_digits(array, is_json=True) == [json.dumps(float(f"{v:.12g}")) for v in values]
        assert twelve_digits(array, is_json=False) == [f"{v:.12g}" for v in values]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(_WRITER_VALUES, max_size=16), st.integers(0, 2**32 - 1), st.integers(0, _TABLE_CHUNK))
    def test_table_texts_match_json_dumps(self, drawn, seed, extra):
        # Arrays long enough for the digit tables: the drawn doubles among a
        # seeded bulk spread over 1e-5 to 1e12, 13-digit decimals ending in 5
        # (12-digit ties that parse to a double on either side) and
        # ``_TABLE_EDGES``; some arrays span more than one table pass.
        rng = np.random.default_rng(seed)
        ties = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**11, 10**12, 64).tolist(),
                                                    rng.integers(-16, -1, 64).tolist())]
        values = rng.permutation(np.concatenate([10.0 ** rng.uniform(-5, 12, _TABLE_MIN + extra), ties,
                                                 _TABLE_EDGES, drawn]))
        assert twelve_digits(values, is_json=False) == [f"{v:.12g}" for v in values.tolist()]
        assert twelve_digits(values, is_json=True) == [json.dumps(float(f"{v:.12g}")) for v in values.tolist()]

    @pytest.mark.parametrize("is_json", [False, True])
    def test_group_texts_match_per_lane_texts(self, is_json):
        # A column with no zero or repeated lane, one whose lanes all equal an
        # earlier column's, one that mixes zeros (and a -0.0), lanes of an
        # earlier column and lanes of its own, and a column of one double.
        # -0.0 stays apart from 0.0: a column of zeros with one -0.0 is not
        # one double, and a column equal to another but for one zero's sign
        # does not take that column's texts.
        def want(values):
            texts = [f"{v:.12g}" for v in values.ravel().tolist()]
            return [json.dumps(float(text)) for text in texts] if is_json else texts

        rng = np.random.default_rng(16)
        bob = rng.uniform(0.5, 40.0, (3, 7))
        mixed = np.where(rng.random(bob.shape) < 0.5, bob, rng.uniform(0.5, 40.0, bob.shape))
        mixed[0, :3] = 0.0
        mixed[1, 1] = -0.0
        signed = mixed.copy()
        signed[0, 1] = -0.0
        zeros = np.zeros(5)
        zeros[3] = -0.0
        (texts,) = group_texts([(bob, bob.copy(), mixed, signed, np.full((2, 2), 0.25), zeros)], is_json)
        assert texts[0] == want(bob)
        assert texts[1] == texts[0]
        assert texts[2] == want(mixed)
        assert texts[3] == want(signed) != texts[2]
        assert texts[4] == want(np.array([0.25]))[0]
        assert texts[5] == want(zeros)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(column_groups(), st.sampled_from([1, 700, 1 << 16]), st.booleans())
    def test_group_texts_match_each_column_alone(self, groups, budget, is_json):
        # Every column's texts are its lanes' own, one str exactly when every
        # lane holds one double, and what the column gets when it is
        # formatted alone, whether the groups share one pass or not.
        def want(values):
            texts = [f"{v:.12g}" for v in values.tolist()]
            return [json.dumps(float(text)) for text in texts] if is_json else texts

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(floattext, "_PASS_LANES", budget)
            got = list(group_texts(groups, is_json))
        assert len(got) == len(groups)
        for group, texts in zip(groups, got):
            assert len(texts) == len(group)
            for column, text in zip(group, texts):
                bits = column.view(np.int64)
                assert isinstance(text, str) == (bits == bits[0]).all()
                assert ([text] * column.size if isinstance(text, str) else text) == want(column)
                assert list(group_texts([(column,)], is_json)) == [[text]]

    def test_short_columns_build_no_digit_table(self, tmp_path, monkeypatch):
        # 9 blocks of 300-lane columns: a pass of 2 700 Rb lanes and more,
        # whose longest column is still shorter than _TABLE_MIN.
        def tables():
            raise AssertionError("digit tables built")

        monkeypatch.setattr(floattext, "_digit_tables", tables)
        result = run_experiment(parse_config_text("sweep.antennas=8,16,32"))
        assert len(result.blocks) == 9 and sum(block.rate_bob.size for block in result.blocks) == 2700
        for fmt in ("csv", "json"):
            write_results(result, fmt, tmp_path / f"r.{fmt}")

    def test_small_lane_budget_splits_passes_with_the_same_bytes(self, tmp_path, monkeypatch):
        # With the default budget a sweep of 2000-lane columns is one pass.
        # With a budget of 4000 lanes it is five: the 405 Ps and theta_b
        # lanes, the first ais block's 6000 lanes alone, then two passes of
        # two blocks of 2000 and one of the last block. With a budget of 1
        # each of the 7 groups is a pass. Every pass formats each lane of
        # its columns once, 16 405 in all, and the files are the same.
        result = run_experiment(parse_config_text(LANES_CONFIG))
        passes = []
        one_pass = floattext._pass_texts

        def counted(batch, lanes, is_json):
            passes.append(sum(map(len, lanes)))
            return one_pass(batch, lanes, is_json)

        monkeypatch.setattr(floattext, "_pass_texts", counted)
        assert floattext._PASS_LANES == 1 << 16
        for fmt in ("csv", "json"):
            files = []
            for budget in (1 << 16, 4000, 1):
                monkeypatch.setattr(floattext, "_PASS_LANES", budget)
                passes.clear()
                write_results(result, fmt, tmp_path / f"{budget}.{fmt}")
                files.append((tmp_path / f"{budget}.{fmt}").read_bytes())
                assert len(passes) == {1 << 16: 1, 4000: 5, 1: 7}[budget] and sum(passes) == 16_405
            assert files[1] == files[0] and files[2] == files[0]

    def test_empty_and_bad_format_rejected(self, tmp_path):
        cfg = parse_config_text(SHORT_CONFIG)
        result = run_experiment(cfg)
        with pytest.raises(ValueError):
            write_results(result._replace(blocks=()), "csv", tmp_path / "x.csv")
        with pytest.raises(ValueError):
            write_results(result, "yaml", tmp_path / "x.yaml")

    def test_reader_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_results_csv(bad)


class TestCli:
    def _write_config(self, tmp_path, text=SHORT_CONFIG):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_run_success(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        stdout = capsys.readouterr().out
        assert "wrote 10 records" in stdout
        assert "mean_SR=" in stdout
        # The empty config, with the smallest array next to a 1024-element one
        # and next to the largest the parser accepts, and as JSON, over a power
        # list that starts with '-': no warning, nothing on stderr.
        for sets, rows in (([], 900), (["sweep.antennas=2,1024"], 1800), (["sweep.antennas=2,1000000"], 1800),
                           (["output.format=json"], 900), (["sweep.power_dbm=-10,50", "output.format=json"], 600)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                argv = ["run", "--config", os.devnull, "--out", str(out)]
                assert main(argv + [arg for line in sets for arg in ("--set", line)]) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and f"wrote {rows} records" in captured.out
            if "output.format=json" in sets:
                assert len(json.loads(out.read_text())) == rows

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, "geometry.speed=0\n")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error: geometry.speed: 0 is outside (0, inf)\n" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_iteration_cap_warns_on_stderr_only(self, tmp_path, capsys):
        text = SHORT_CONFIG + "strategies=ais,fixed:0.5\nsweep.power_dbm=10,20\nais.max_iterations=1\n"
        out = tmp_path / "capped.csv"
        assert main(["run", "--config", str(self._write_config(tmp_path, text)), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: strategy=ais M=4 Ps={ps}dBm: 10 of 10 points hit the iteration cap "
            "(ais.max_iterations=1) without converging"
            for ps in (10, 20)
        ]
        assert "warning" not in captured.out
        reference = tmp_path / "reference.csv"
        write_results(run_experiment(parse_config_text(text)), "csv", reference)
        assert out.read_bytes() == reference.read_bytes()

    def test_close_splits_keep_their_own_rows(self, tmp_path):
        # Strategy names are the exact split, so near-equal splits stay apart.
        text = SHORT_CONFIG + "strategies=fixed:0.5,fixed:0.5000001\n"
        out = tmp_path / "close.csv"
        assert main(["run", "--config", str(self._write_config(tmp_path, text)), "--out", str(out)]) == 0
        records = read_results_csv(out)
        assert [r.strategy for r in records] == ["fixed:0.5"] * 10 + ["fixed:0.5000001"] * 10
        assert {r.beta for r in records} == {0.5, 0.5000001}

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        # The path is quoted once, cut as every echo is, then the OS reason.
        assert err.startswith(f"error: cannot write results to {_echo(str(tmp_path))}: ") and err.count("\n") == 1
        assert len(err) <= 121

    @pytest.mark.parametrize("line", ["sweep.power_dbm=-10,50", "sweep.antennas=2,4",
                                      "geometry.eve=-150,120,0", "output.format=json",
                                      "sweep.power_dbm=10,20", "sweep.antennas=4,64"])
    def test_set_is_a_config_line_after_the_file(self, tmp_path, capsys, line):
        # On the short config and on the empty one: the same line in the
        # file, once through --set, through --set after an earlier --set of
        # the same key, and through --set with the output path given as the
        # config line output.path=O instead of --out O: one result file, one
        # stdout.
        key = line.partition("=")[0]
        earlier = {"sweep.power_dbm": "1,2", "sweep.antennas": "16", "geometry.eve": "10,0,0",
                   "output.format": "csv"}[key]
        by_out, by_set = ("--out", "{}"), ("--set", "output.path={}")
        for base in (SHORT_CONFIG, ""):
            cfg_path = self._write_config(tmp_path, base)
            in_file = tmp_path / "in_file.cfg"
            in_file.write_text(base + line + "\n")
            outputs = []
            for config, sets, to in ((in_file, [], by_out), (cfg_path, ["--set", line], by_out),
                                     (cfg_path, ["--set", f"{key}={earlier}", "--set", line], by_out),
                                     (cfg_path, ["--set", line], by_set)):
                out = tmp_path / f"r{len(outputs)}"
                assert main(["run", "--config", str(config), *sets, *(arg.format(out) for arg in to)]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                outputs.append((out.read_bytes(), captured.out.replace(str(out), "OUT")))
            assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
            if key.startswith("sweep."):
                # The rows hold exactly the line's powers or antenna counts.
                field, kind = {"sweep.power_dbm": ("ps_dbm", float), "sweep.antennas": ("m", int)}[key]
                values = {getattr(r, field) for r in read_results_csv(tmp_path / "r0")}
                assert values == {kind(v) for v in line.partition("=")[2].split(",")}

    @pytest.mark.parametrize("argv, message", [
        (["run"], "the following arguments are required: --config"),
        ([], "the following arguments are required: command"),
        (["simulate", "--config", "c"], "argument command: invalid choice: 'simulate'"),
        (["run", "--config", "c", "--powers", "10"], "unrecognized arguments: --powers 10"),
        (["run", "--config", "c", "--set"], "argument --set: expected one argument"),
        (["run", "--config", os.devnull, "--set", "output.format=xml"],
         "output.format: must be one of ('csv', 'json')"),
    ])
    def test_bad_arguments_are_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_main_keeps_no_state_between_calls(self, tmp_path, capsys):
        # The parser is shared by every call: neither a --set nor a usage
        # error may reach a later run.
        cfg_path = self._write_config(tmp_path)
        a, b = tmp_path / "A.csv", tmp_path / "B.csv"
        assert main(["run", "--config", str(cfg_path), "--set", "sweep.power_dbm=1,2", "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--set"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
        reference = tmp_path / "reference.csv"
        write_results(run_experiment(parse_config_text(SHORT_CONFIG)), "csv", reference)
        assert b.read_bytes() == reference.read_bytes()
        assert _PARSER.get_default("overrides") == []

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: uavsec")


@pytest.mark.parametrize(
    "config, command, message",
    [
        ("noise.bob_dbm=nan", ["run"], "noise.bob_dbm: expected a finite number"),
        ("geometry.reference_gain=inf", ["run"], "geometry.reference_gain: expected a finite"),
        ("ais.epsilon=nan", ["run"], "ais.epsilon: expected a finite number"),
        ("geometry.eve=200,nan,0", ["run"], "geometry.eve: expected a finite number"),
        ("strategies=ais,ais", ["run"], "strategies: duplicate entries"),
        ("sweep.power_dbm=10,10", ["run"], "sweep.power_dbm: duplicate entries"),
        ("geometry.flight_start=0,0,0\ngeometry.flight_end=800,0,0", ["run"], "positive altitude"),
        ("geometry.flight_end=800,0,30", ["run"], "positive altitude"),
        ("", ["run", "--set", "sweep.power_dbm=nan"], "sweep.power_dbm: expected a finite number"),
        ("", ["run", "--set", "sweep.power_dbm=abc"], "sweep.power_dbm: expected a number"),
        ("", ["run", "--set", "sweep.power_dbm=10,10"], "sweep.power_dbm: duplicate entries"),
        ("", ["run", "--set", "sweep.antennas=8,8"], "sweep.antennas: duplicate entries"),
        ("", ["run", "--set", "sweep.antennas=four"], "sweep.antennas: expected an integer"),
        # Finite but out of range: rejected while parsing, naming the key.
        ("noise.bob_dbm=4000", ["run"], "noise.bob_dbm: "),
        ("geometry.speed=1e-320", ["run"], "geometry.speed"),
        ("noise.eve_dbm=-4000", ["run"], "noise.eve_dbm: -4000 is outside [-300, 300] dBm"),
        ("sweep.power_dbm=10,301", ["run"], "sweep.power_dbm: 301 is outside [-300, 300] dBm"),
        ("", ["run", "--set", "sweep.power_dbm=-400"], "sweep.power_dbm: -400 is outside [-300, 300] dBm"),
        ("geometry.sample_interval=1e-9", ["run"], "geometry.sample_interval: the 800 m"),
        ("sweep.antennas=1", ["run"], "sweep.antennas: 1 is outside [2, 1000000]"),
        ("sweep.antennas=1000000000000", ["run"], "sweep.antennas: 1000000000000 is outside"),
        ("", ["run", "--set", "sweep.antennas=0"], "sweep.antennas: 0 is outside [2, 1000000]"),
        ("", ["run", "--set", "sweep.antennas=8,1000001"], "sweep.antennas: 1000001 is outside"),
        ("strategies=ais,fixed:1", ["run"], "strategies: 1 is outside (0, 1)"),
        # Parses, but the received powers overflow float64.
        ("geometry.reference_gain=1e300\nsweep.power_dbm=300\nnoise.bob_dbm=-300\n"
         "noise.eve_dbm=-300\nstrategies=ais,fixed:0.5,grid_oracle", ["run"],
         "strategy=ais M=8 Ps=300dBm: non-finite rates"),
        # Only the second power's lanes overflow: the error names that row.
        ("geometry.reference_gain=1e290\nsweep.power_dbm=10,200", ["run"],
         "strategy=ais M=8 Ps=200dBm: non-finite rates"),
        # The flight's length does not overflow: no numpy warning, a finite length.
        ("geometry.flight_end=1e200,0,20", ["run"], "the 1e+200 m flight gives 1.25e+199 samples"),
        ("array.spacing=0", ["run"], "array.spacing: 0 is outside (0, 100000]"),
        # A spacing so wide that z keeps too few fractional bits for the phase.
        ("array.spacing=1e20", ["run"], "array.spacing: 1e20 is outside (0, 100000]"),
        ("array.spacing=1.7976931348623157e308", ["run"], "array.spacing: 1.7976931348623157e308 is outside"),
        ("geometry.eve=0,0,0", ["run"], "geometry.eve, geometry.alice: "),
        # A path gain that overflows, and a flight whose length does.
        ("geometry.eve=1e-200,0,0", ["run"], "geometry.eve: at d = 1e-200 m from the array"),
        ("geometry.flight_start=-1.5e308,0,20\ngeometry.flight_end=1.5e308,0,20", ["run"],
         "geometry.flight_start, geometry.flight_end: the flight's length overflows float64"),
        # A flight so far from the array that the UAV's path gain underflows to 0.
        ("geometry.flight_start=1e200,0,20\ngeometry.flight_end=2e200,0,20\ngeometry.speed=1e196", ["run"],
         "geometry.flight_start, geometry.flight_end: at d = 2e+200 m from the array"),
        ("strategies=fixed(0.5)", ["run"], "strategies: unknown strategy"),
        # A --set list that starts with '-' reaches the list parser.
        ("", ["run", "--set", "sweep.antennas=-2,4"], "sweep.antennas: -2 is outside [2, 1000000]"),
        # A bad --set quotes its text and cites no line of the file.
        ("", ["run", "--set", "foo"], "error: --set: expected key=value, got 'foo'\n"),
        ("", ["run", "--set", "bogus.key=1"], "error: unknown config key 'bogus.key'\n"),
        # An empty output path names a directory: rejected before the sweep runs.
        ("", ["run", "--set", "output.path="], "error: output.path: empty path\n"),
        ("", ["run", "--out", ""], "error: output.path: empty path\n"),
        # A long value is quoted by its first 32 characters and its length.
        ("", ["run", "--set", "sweep.antennas=" + "7" * 5000],
         "error: sweep.antennas: expected an integer, got '" + "7" * 31 + "... (5000 chars)\n"),
        ("", ["run", "--set", "x" * 5000], "error: --set: expected key=value, got '" + "x" * 31 + "... (5000 chars)\n"),
        # A grid step too fine for a grid row to fit in memory: rejected while
        # parsing, naming the key, before the links are built.
        ("strategies=grid_oracle", ["run", "--set", "grid.step=5e-324"],
         "error: grid.step: 5e-324 is outside [1e-06, 0.01]\n"),
        ("strategies=grid_oracle", ["run", "--set", "grid.step=1e-300"],
         "error: grid.step: 1e-300 is outside [1e-06, 0.01]\n"),
        # An over-long path is quoted once, cut as every echo is, then the OS
        # reason: one line of at most 120 characters.
        ("", ["run", "--out", "o" * 300 + ".csv"],
         "error: cannot write results to " + "o" * 32 + "... (304 chars): File name too long\n"),
        ("", ["run", "--config", "c" * 300],
         "error: cannot read config " + "c" * 32 + "... (300 chars): File name too long\n"),
        # Alice on sample point 1, (8, 0, 20): only a sample point can sit at the array.
        ("geometry.alice=8.0,0.0,20.0", ["run"],
         "error: geometry.alice, geometry.flight_start, geometry.flight_end: a sample point of the flight sits"),
        # A flight shorter than one sample interval has no point to evaluate.
        ("geometry.sample_interval=1e300", ["run"],
         "geometry.speed, geometry.sample_interval: the 800 m flight lasts 100.0 s, shorter than one"),
        # 10^7 samples, just over MAX_SAMPLES.
        ("geometry.sample_interval=1e-5", ["run"],
         "geometry.sample_interval: the 800 m flight gives 1e+07 samples, more than 1000000\n"),
        # An empty --out given with '=', and a 300-character one.
        ("", ["run", "--out="], "error: output.path: empty path\n"),
        ("", ["run", "--out", "o" * 300],
         "error: cannot write results to " + "o" * 32 + "... (300 chars): File name too long\n"),
        # A NUL byte cannot be in a file name: rejected before the sweep runs.
        ("", ["run", "--out", "a\x00b.csv"], "error: output.path: 'a\\x00b.csv' holds a NUL byte\n"),
        ("", ["run", "--set", "output.path=a\x00b.csv"], "error: output.path: 'a\\x00b.csv' holds a NUL byte\n"),
        # Eve's offset from Alice overflows along the array axis, then across
        # it: no bearing to steer by, and no numpy warning on the way.
        ("geometry.alice=-1e308,0,0\ngeometry.eve=1e308,0,0\ngeometry.flight_start=-1e308,0,20\n"
         "geometry.flight_end=-1e308,800,20", ["run"],
         "error: geometry.eve, geometry.alice: the eavesdropper's offset from the array, along or across its axis, "
         "overflows float64\n"),
        ("geometry.eve=1e308,1.5e308,1.5e308", ["run"], "error: geometry.eve, geometry.alice: the eavesdropper's"),
    ],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, config, command, message):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config + "\n")
    out = tmp_path / "r.csv"
    argv = [command[0], "--config", str(cfg_path), "--out", str(out), *command[1:]]
    # A warning would print to stderr next to the error line.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(b"\xff\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot read config {_echo(str(cfg_path))}: not UTF-8 at byte 0\n"
    assert not out.exists()


def test_config_not_utf8_after_a_byte_order_mark_counts_the_mark(tmp_path, capsys):
    # The offset is the file's: the three bytes of the mark, then "ab".
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(b"\xef\xbb\xbfab\xff")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == f"error: cannot read config {_echo(str(cfg_path))}: not UTF-8 at byte 5\n"


def test_config_that_starts_with_a_byte_order_mark_reads(tmp_path, capsys):
    # Windows Notepad writes a UTF-8 byte-order mark before the text; it is
    # not part of the first key.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(b"\xef\xbb\xbfsweep.power_dbm=10\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_results_csv(out)
    assert len(rows) == 300
    assert {row.ps_dbm for row in rows} == {10.0}


def test_config_is_read_as_utf8_whatever_the_locale(tmp_path):
    # Under the C locale, with neither UTF-8 mode nor locale coercion, the
    # locale's encoding is ASCII; a config's non-ASCII comment still reads.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes("# débit\nsweep.power_dbm=10\n".encode())
    out = tmp_path / "r.csv"
    src = str(Path(uavsec.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "uavsec.cli", "run", "--config", str(cfg_path), "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    # Three strategies at one power over the 100 points of the default flight.
    assert len(read_results_csv(out)) == 300


def test_eavesdropper_whose_gain_underflows_hears_nothing(tmp_path, capsys):
    # At 1e200 m Eve's path gain underflows to 0: the sweep runs, without a
    # warning, and every row has an Eve rate of exactly 0.
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("geometry.eve=1e200,0,0\n")
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    records = read_results_csv(out)
    assert len(records) == 900
    assert all(r.rate_eve == 0.0 for r in records)


def test_eavesdropper_beyond_float_range_keeps_its_bearing(tmp_path, capsys):
    # Eve's distance overflows to inf, but her bearing is pi/4, as at
    # (1e300, 0, 1e300): Bob's beams and rates are those, and Eve hears
    # nothing, without a warning.
    bob_rates = []
    for eve in ("1.7976931348623157e308,300,1.7976931348623157e308", "1e300,0,1e300"):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"geometry.eve={eve}\n")
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        records = read_results_csv(out)
        assert len(records) == 900
        assert all(r.rate_eve == 0.0 for r in records)
        bob_rates.append([r.rate_bob for r in records])
    assert bob_rates[0] == bob_rates[1]
