"""The public records: how the package starts up, immutability, equality and
hashing, validation on every way of building a config, and the writer's
JSON form of a strategy name."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavsec.ais import AisConfig, optimize_point
from uavsec.beamforming import leakage_pair
from uavsec.floattext import _TABLE_MIN
from uavsec.geometry import (
    ArrayConfig,
    ConfigurationError,
    LinkState,
    ScenarioGeometry,
    link_state_at,
    sample_trajectory,
)
from uavsec.harness import (
    ConfigError,
    ExperimentConfig,
    ResultBlock,
    Strategy,
    SweepResult,
    _format_blocks,
    parse_config_text,
    parse_strategy,
    run_experiment,
    serialize_config,
)
from uavsec.power_allocation import optimal_beta

_STARTUP = """
import sys
import numpy
baseline = set(sys.modules)
import uavsec
cfg = uavsec.parse_config(sys.argv[1])
print(" ".join(sorted(set(sys.modules) - baseline)))
built = []
for powers in ((10.0, 20.0, 30.0), (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)):
    result = uavsec.harness.run_experiment(cfg._replace(power_sweep_dbm=powers))
    for fmt in ("csv", "json"):
        uavsec.harness.write_results(result, fmt, sys.argv[2] + "." + fmt)
    built.append(sys.modules["uavsec.floattext"]._digit_tables.cache_info().currsize)
print(*built)
"""


def test_startup_imports_neither_dataclasses_nor_json(tmp_path):
    # A fresh interpreter: the modules importing uavsec and parsing the empty
    # config load on top of numpy's; the writer's float texts are not among
    # them. Writing a sweep whose columns hold fewer than _TABLE_MIN lanes
    # (the empty config's 3 x 100) builds no digit table; one of 6 x 100
    # lanes does.
    assert 300 < _TABLE_MIN <= 600
    config = tmp_path / "empty.cfg"
    config.write_text("")
    modules, built = subprocess.run([sys.executable, "-c", _STARTUP, str(config), str(tmp_path / "r")],
                                    check=True, capture_output=True, text=True).stdout.splitlines()
    added = modules.split()
    assert "uavsec.harness" in added
    assert "dataclasses" not in added
    assert "json" not in added
    assert "uavsec.floattext" not in added
    assert built.split() == ["0", "1"]


def _records():
    """One instance of every public record type."""
    cfg = parse_config_text("geometry.flight_end=40,0,20\nsweep.power_dbm=20\nsweep.antennas=4\n")
    traj = sample_trajectory(cfg.geometry)
    link = link_state_at(traj, cfg.geometry, ArrayConfig(4), 1e-11, 1e-11, 100.0)
    powers, _, trace = optimize_point(link, cfg.ais)
    result = run_experiment(cfg)
    return [ArrayConfig(4), cfg.geometry, cfg.ais, cfg, cfg.strategies[0], traj, link,
            leakage_pair(link, 0.5), optimal_beta(link, powers), trace, trace.iterations[0],
            result, result.blocks[0]]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_strategy_is_hashable_and_equal_by_value():
    assert Strategy("fixed", 0.5) == Strategy("fixed", 0.5) == parse_strategy("fixed:5e-1")
    assert Strategy("fixed", 0.5) != Strategy("fixed", 0.9)
    assert Strategy("ais") != Strategy("grid_oracle")
    assert hash(Strategy("fixed", 0.5)) == hash(parse_strategy("fixed:0.50"))
    assert len({Strategy("ais"), Strategy("ais"), Strategy("fixed", 0.5), Strategy("fixed", 0.5)}) == 2
    assert {Strategy("ais"): 1}[parse_strategy("ais")] == 1


def test_configs_are_equal_by_value_and_round_trip():
    cfg = parse_config_text("sweep.power_dbm=5,15\nstrategies=grid_oracle,fixed:0.25\nais.epsilon=1e-9\n")
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg and hash(again) == hash(cfg)
    assert again is not cfg and again.geometry == cfg.geometry and again.ais == cfg.ais
    assert parse_config_text("") == ExperimentConfig()
    assert hash(parse_config_text("")) == hash(ExperimentConfig())
    assert cfg != ExperimentConfig()


def test_holders_compare_field_by_field():
    cfg = ExperimentConfig()
    traj = sample_trajectory(cfg.geometry)
    link = link_state_at(traj, cfg.geometry, ArrayConfig(8), 1e-11, 1e-11, 10.0)
    assert link == link._replace() and link._replace(p_s=20.0) != link
    assert traj == traj._replace() and traj._replace(d_ae=1.0) != traj
    assert link._replace(p_s=np.array([[1.0], [2.0]])).shape == (2, len(traj))
    assert SweepResult((), (), (), ()) == SweepResult((), (), (), ())
    assert hash(SweepResult((), (), (), ())) == hash(SweepResult((), (), (), ()))


@pytest.mark.parametrize("build, error, message", [
    (lambda: ArrayConfig(8)._replace(num_antennas=1), ConfigurationError, "num_antennas must be >= 2"),
    (lambda: ArrayConfig._make((8, 0.0)), ConfigurationError, "spacing"),
    (lambda: ArrayConfig(8, float("nan")), ConfigurationError, "spacing \\(d/lambda\\) nan is outside"),
    # Far above MAX_SPACING the array phase keeps no fractional bits.
    (lambda: ArrayConfig(8, 1e20), ConfigurationError, "spacing \\(d/lambda\\) 1e\\+20 is outside \\(0, 100000\\]"),
    (lambda: ScenarioGeometry()._replace(speed=0.0), ConfigurationError, "speed must be positive"),
    # The parser's types: a scalar is exactly an int or float, a point a
    # tuple of three of them; serialize_config writes anything else as text
    # that does not parse back to it.
    (lambda: ScenarioGeometry(speed=np.float64(8.0)), ConfigurationError,
     r"speed must be int or float, got np.float64\(8.0\)"),
    (lambda: ScenarioGeometry()._replace(speed=True), ConfigurationError, "speed must be int or float, got True"),
    (lambda: ScenarioGeometry(eve=(np.float64(200.0), 0, 0)), ConfigurationError,
     r"eve must be a tuple of 3 ints or floats, got \(np.float64\(200.0\), 0, 0\)"),
    (lambda: ScenarioGeometry(eve=[200.0, 0.0, 0.0]), ConfigurationError,
     r"eve must be a tuple of 3 ints or floats, got \[200.0, 0.0, 0.0\]"),
    (lambda: ScenarioGeometry._make(((0.0, 0.0), *ScenarioGeometry()[1:])), ConfigurationError,
     "alice must be a tuple of 3 ints or floats"),
    (lambda: AisConfig()._replace(max_iterations=0), ValueError, "max_iterations must be at least 1"),
    # The parser's types, which serialize_config writes back as parseable text.
    (lambda: AisConfig(max_iterations=2.5), ValueError, "max_iterations must be int, got 2.5"),
    (lambda: AisConfig()._replace(max_iterations=True), ValueError, "max_iterations must be int, got True"),
    (lambda: AisConfig(beta_init=np.float64(0.1)), ValueError,
     r"beta_init must be int or float, got np.float64\(0.1\)"),
    (lambda: AisConfig._make((0.1, False, 50)), ValueError, "epsilon must be int or float, got False"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=()), ConfigError, "sweep.antennas"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:-1], "xml")), ConfigError, "output.format"),
    # An output path is written as one line of the config, which the parser
    # strips: a line break would start another key.
    (lambda: ExperimentConfig(output_path="a\nsweep.antennas=64"), ConfigError,
     r"output.path: 'a\\nsweep.antennas=64' holds a line break"),
    (lambda: ExperimentConfig(output_path=" out.csv"), ConfigError,
     "output.path: ' out.csv' holds a line break or surrounding whitespace"),
    (lambda: ExperimentConfig()._replace(output_path=Path("out.csv")), ConfigError,
     r"output.path: expected str, got .*Path\('out.csv'\)"),
    (lambda: ExperimentConfig(geometry=ScenarioGeometry(sample_interval=1e300)), ConfigError,
     "geometry.speed, geometry.sample_interval: .* shorter than one sample interval"),
    (lambda: ExperimentConfig(geometry=ScenarioGeometry(sample_interval=1e-5)), ConfigError,
     "geometry.speed, geometry.sample_interval: .* 1e\\+07 samples, more than 1000000"),
    # The parser's per-value checks, with its messages.
    (lambda: ExperimentConfig(power_sweep_dbm=(10.0, 10.0)), ConfigError,
     "sweep.power_dbm: duplicate entries in '10.0,10.0'"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=(8, 64, 8)), ConfigError, "sweep.antennas: duplicate entries"),
    (lambda: ExperimentConfig(strategies=(Strategy("ais"), Strategy("ais"))), ConfigError,
     "strategies: duplicate entries in 'ais,ais'"),
    # A strategy must be the one its written name parses to.
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", 0.0),)), ConfigError,
     r"strategies: fixed beta must lie in \(0, 1\)"),
    (lambda: ExperimentConfig()._replace(strategies=(Strategy("ais"), Strategy("fixed", 1.0))), ConfigError,
     r"strategies: fixed beta must lie in \(0, 1\)"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", 1.5),)), ConfigError,
     r"strategies: fixed beta must lie in \(0, 1\)"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", np.float64(0.5)),)), ConfigError,
     r"strategies: bad fixed beta 'np.float64\(0.5\)'"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", True),)), ConfigError,
     "strategies: bad fixed beta 'True'"),
    (lambda: ExperimentConfig(strategies=(Strategy("bogus"),)), ConfigError, "strategies: unknown strategy 'bogus'"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:6], (Strategy("ais", 0.3),), *ExperimentConfig()[7:])),
     ConfigError, r"strategies: Strategy\(kind='ais', fixed_beta=0.3\) is not a Strategy that parses back"),
    (lambda: ExperimentConfig(strategies=("ais",)), ConfigError, "strategies: 'ais' is not a Strategy"),
    (lambda: ExperimentConfig(power_sweep_dbm=(1e308,)), ConfigError,
     "sweep.power_dbm: 1e\\+308 dBm is outside \\[-300, 300\\] dBm"),
    (lambda: ExperimentConfig(power_sweep_dbm=(10.0, float("nan"))), ConfigError, "sweep.power_dbm: nan dBm is outside"),
    (lambda: ExperimentConfig(noise_dbm_bob=1e308), ConfigError, "noise.bob_dbm: 1e\\+308 dBm is outside"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:3], -301.0, *ExperimentConfig()[4:])), ConfigError,
     "noise.eve_dbm: -301.0 dBm is outside"),
    (lambda: ExperimentConfig(antenna_sweep=(1,)), ConfigError, "sweep.antennas: 1 is outside \\[2, 1000000\\] antennas"),
    (lambda: ExperimentConfig(antenna_sweep=(8, 1_000_001)), ConfigError, "sweep.antennas: 1000001 is outside"),
    # Types: an antenna count is exactly an int, a dBm, spacing or grid step
    # exactly an int or float, whichever way the config is built.
    (lambda: ExperimentConfig(antenna_sweep=(8.0,)), ConfigError, "sweep.antennas: expected int, got 8.0"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=(8, True)), ConfigError,
     "sweep.antennas: expected int, got True"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:5], (np.int64(8),), *ExperimentConfig()[6:])),
     ConfigError, r"sweep.antennas: expected int, got np.int64\(8\)"),
    (lambda: ExperimentConfig(power_sweep_dbm=(np.float64(10.0),)), ConfigError,
     r"sweep.power_dbm: expected int or float, got np.float64\(10.0\)"),
    (lambda: ExperimentConfig()._replace(noise_dbm_bob=np.float64(-110.0)), ConfigError,
     "noise.bob_dbm: expected int or float"),
    (lambda: ExperimentConfig()._replace(noise_dbm_eve=False), ConfigError,
     "noise.eve_dbm: expected int or float, got False"),
    (lambda: ExperimentConfig._make((ScenarioGeometry(), np.float64(0.5), *ExperimentConfig()[2:])), ConfigError,
     "array.spacing: expected int or float"),
    (lambda: ExperimentConfig(grid_step=np.float32(1e-3)), ConfigError, "grid.step: expected int or float"),
    (lambda: LinkState(8, 1.0, -1e-4, 1e-4, 1e-11, 1e-11, 10.0), ValueError, "g_ab must be strictly positive"),
    (lambda: LinkState._make((8, 1.0, -1e-4, 1e-4, 1e-11, 1e-11, 10.0)), ValueError,
     "g_ab must be strictly positive"),
    (lambda: LinkState(8, 1.0, 1e-4, 1e-4, 1e-11, 1e-11, 10.0)._replace(g_ab=np.array([1e-4, -1e-4])),
     ValueError, "g_ab must be strictly positive"),
])
def test_every_way_of_building_a_config_validates(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _one_block_result(name: str) -> SweepResult:
    block = ResultBlock(name, 8, 0.5, np.array([[1.0]]), np.array([[0.5]]), np.array([[0.5]]))
    return SweepResult((10.0,), np.array([1]), np.array([0.5]), (block,))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.sampled_from(("ais", "grid_oracle")),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    .map(lambda beta: Strategy("fixed", beta).name),
))
@example("fixed:1e-05")
@example("fixed:5e-324")
@example("fixed:2.2250738585072014e-308")
@example("fixed:0.9999999999999999")
def test_written_strategy_name_is_its_json_string(name):
    assert parse_strategy(name).name == name
    text = "".join(_format_blocks(_one_block_result(name), is_json=True))
    quoted = text.split('"strategy": ', 1)[1].split(",\n", 1)[0]
    assert quoted == json.dumps(name)
