"""The public records: how the package starts up, immutability, equality and
hashing, validation on every way of building a config, the round trip of a
config built in code through its text, and the writer's JSON form of a
strategy name."""

import json
import math
import os
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
    ConfigError,
    LinkState,
    ScenarioGeometry,
    link_state_at,
    sample_trajectory,
)
from uavsec.harness import (
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
from uavsec.cli import main

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
    _, _, trace = optimize_point(link, cfg.ais)
    result = run_experiment(cfg)
    return [ArrayConfig(4), cfg.geometry, cfg.ais, cfg, cfg.strategies[0], traj, link,
            leakage_pair(link, 0.5), trace, result, result.blocks[0]]


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
    (lambda: ArrayConfig(8)._replace(num_antennas=1), ConfigError,
     r"^sweep.antennas: 1 is outside \[2, 1000000\] antennas$"),
    (lambda: ArrayConfig._make((8, 0.0)), ConfigError, r"^array.spacing: 0.0 is outside \(0, 100000\]$"),
    (lambda: ArrayConfig(8, float("nan")), ConfigError, "^array.spacing: expected a finite number, got 'nan'$"),
    # Far above MAX_SPACING the array phase keeps no fractional bits.
    (lambda: ArrayConfig(8, 1e20), ConfigError, r"^array.spacing: 1e\+20 is outside \(0, 100000\]$"),
    (lambda: ScenarioGeometry()._replace(speed=0.0), ConfigError, r"^geometry.speed: 0.0 is outside \(0, inf\)$"),
    # NaN fails every "positive" field's parser, whichever field holds it.
    (lambda: ScenarioGeometry(speed=float("nan")), ConfigError, "^geometry.speed: expected a finite number, got 'nan'$"),
    (lambda: ScenarioGeometry()._replace(sample_interval=float("nan")), ConfigError,
     "^geometry.sample_interval: expected a finite number, got 'nan'$"),
    (lambda: ScenarioGeometry(path_loss_exponent=float("nan")), ConfigError,
     "^geometry.path_loss_exponent: expected a finite number, got 'nan'$"),
    (lambda: ScenarioGeometry(reference_gain=float("nan")), ConfigError,
     "^geometry.reference_gain: expected a finite number, got 'nan'$"),
    # Every record's fields follow the round-trip rule of their config keys:
    # a value whose text the parser rejects gets the parser's message; one
    # that reads back as another value (an int where a float belongs, a
    # list) is named with what it reads as.
    (lambda: ScenarioGeometry(speed=np.float64(8.0)), ConfigError,
     r"^geometry.speed: expected a number, got 'np.float64\(8.0\)'$"),
    (lambda: ScenarioGeometry()._replace(speed=True), ConfigError, "^geometry.speed: expected a number, got 'True'$"),
    (lambda: ScenarioGeometry(eve=(np.float64(200.0), 0, 0)), ConfigError,
     r"^geometry.eve: expected a number, got 'np.float64\(200.0\)'$"),
    (lambda: ScenarioGeometry(eve=[200.0, 0.0, 0.0]), ConfigError,
     r"^geometry.eve: \[200.0, 0.0, 0.0\] does not parse back from its text \(it reads as \(200.0, 0.0, 0.0\)\)$"),
    (lambda: ScenarioGeometry._make(((0.0, 0.0), *ScenarioGeometry()[1:])), ConfigError,
     "^geometry.alice: expected 3 comma-separated coordinates$"),
    (lambda: AisConfig()._replace(max_iterations=0), ConfigError, r"^ais.max_iterations: 0 is outside \[1, inf\)$"),
    (lambda: AisConfig(max_iterations=2.5), ConfigError, "^ais.max_iterations: expected an integer, got '2.5'$"),
    (lambda: AisConfig()._replace(max_iterations=True), ConfigError,
     "^ais.max_iterations: expected an integer, got 'True'$"),
    (lambda: AisConfig(beta_init=np.float64(0.1)), ConfigError,
     r"^ais.beta_init: expected a number, got 'np.float64\(0.1\)'$"),
    (lambda: AisConfig._make((0.1, False, 50)), ConfigError, "^ais.epsilon: expected a number, got 'False'$"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=()), ConfigError, "sweep.antennas"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:-1], "xml")), ConfigError, "output.format"),
    # An output path is written as one line of the config, which the parser
    # strips: a line break would start another key.
    (lambda: ExperimentConfig(output_path="a\nsweep.antennas=64"), ConfigError,
     r"output.path: 'a\\nsweep.antennas=64' holds a line break"),
    (lambda: ExperimentConfig(output_path=" out.csv"), ConfigError,
     "output.path: ' out.csv' holds a line break or surrounding whitespace"),
    (lambda: ExperimentConfig()._replace(output_path=Path("out.csv")), ConfigError,
     r"output.path: .*Path\('out.csv'\) does not parse back from its text \(it reads as 'out.csv'\)"),
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
     r"^strategies: 0.0 is outside \(0, 1\)$"),
    (lambda: ExperimentConfig()._replace(strategies=(Strategy("ais"), Strategy("fixed", 1.0))), ConfigError,
     r"^strategies: 1.0 is outside \(0, 1\)$"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", 1.5),)), ConfigError,
     r"^strategies: 1.5 is outside \(0, 1\)$"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", np.float64(0.5)),)), ConfigError,
     r"^strategies: expected a number, got 'np.float64\(0.5\)'$"),
    (lambda: ExperimentConfig(strategies=(Strategy("fixed", True),)), ConfigError,
     "^strategies: expected a number, got 'True'$"),
    (lambda: ExperimentConfig(strategies=(Strategy("bogus"),)), ConfigError, "strategies: unknown strategy 'bogus'"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:6], (Strategy("ais", 0.3),), *ExperimentConfig()[7:])),
     ConfigError, r"strategies: \(Strategy\(kind='ais', fixed_beta=0.3\),\) does not parse back"),
    (lambda: ExperimentConfig(strategies=("ais",)), ConfigError,
     r"strategies: \('ais',\) does not parse back from its text \(it reads as nothing\)"),
    (lambda: ExperimentConfig(power_sweep_dbm=(1e308,)), ConfigError,
     r"^sweep.power_dbm: 1e\+308 is outside \[-300, 300\] dBm$"),
    (lambda: ExperimentConfig(power_sweep_dbm=(10.0, float("nan"))), ConfigError,
     "sweep.power_dbm: expected a finite number, got 'nan'"),
    (lambda: ExperimentConfig(noise_dbm_bob=1e308), ConfigError, "noise.bob_dbm: 1e\\+308 is outside"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:3], -301.0, *ExperimentConfig()[4:])), ConfigError,
     "noise.eve_dbm: -301.0 is outside"),
    (lambda: ExperimentConfig(antenna_sweep=(1,)), ConfigError, "sweep.antennas: 1 is outside \\[2, 1000000\\] antennas"),
    (lambda: ExperimentConfig(antenna_sweep=(8, 1_000_001)), ConfigError, "sweep.antennas: 1000001 is outside"),
    # Each value must be the one its text parses back to, whichever way the
    # config is built: a value whose text the parser rejects gets the
    # parser's message; one that reads back as another value (an int where a
    # float belongs, a list, a bare scalar) is named with what it reads as.
    (lambda: ExperimentConfig(power_sweep_dbm=10.0), ConfigError,
     r"sweep.power_dbm: 10.0 does not parse back from its text \(it reads as nothing\)"),
    (lambda: ExperimentConfig(antenna_sweep=8), ConfigError,
     r"sweep.antennas: 8 does not parse back from its text \(it reads as nothing\)"),
    (lambda: ExperimentConfig(power_sweep_dbm=[10.0, 20.0]), ConfigError,
     r"sweep.power_dbm: \[10.0, 20.0\] does not parse back from its text \(it reads as \(10.0, 20.0\)\)"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=[8]), ConfigError,
     r"sweep.antennas: \[8\] does not parse back from its text \(it reads as \(8,\)\)"),
    (lambda: ExperimentConfig(strategies=[Strategy("ais")]), ConfigError,
     r"strategies: \[Strategy\(kind='ais', fixed_beta=None\)\] does not parse back"),
    (lambda: ExperimentConfig(geometry=ScenarioGeometry(eve=(200.0, float("nan"), 0.0))), ConfigError,
     "^geometry.eve: expected a finite number, got 'nan'$"),
    (lambda: ExperimentConfig(array_spacing=1), ConfigError,
     r"array.spacing: 1 does not parse back from its text \(it reads as 1.0\)"),
    (lambda: ExperimentConfig(geometry=ScenarioGeometry(flight_end=(400, 0, 20))), ConfigError,
     r"geometry.flight_end: \(400, 0, 20\) does not parse back from its text "
     r"\(it reads as \(400.0, 0.0, 20.0\)\)"),
    (lambda: ExperimentConfig(antenna_sweep=(8.0,)), ConfigError, "sweep.antennas: expected an integer, got '8.0'"),
    (lambda: ExperimentConfig()._replace(antenna_sweep=(8, True)), ConfigError,
     "sweep.antennas: expected an integer, got 'True'"),
    (lambda: ExperimentConfig._make((*ExperimentConfig()[:5], (np.int64(8),), *ExperimentConfig()[6:])),
     ConfigError, r"sweep.antennas: expected an integer, got 'np.int64\(8\)'"),
    (lambda: ExperimentConfig(power_sweep_dbm=(np.float64(10.0),)), ConfigError,
     r"sweep.power_dbm: expected a number, got 'np.float64\(10.0\)'"),
    (lambda: ExperimentConfig()._replace(noise_dbm_bob=np.float64(-110.0)), ConfigError,
     r"noise.bob_dbm: expected a number, got 'np.float64\(-110.0\)'"),
    (lambda: ExperimentConfig()._replace(noise_dbm_eve=False), ConfigError,
     "noise.eve_dbm: expected a number, got 'False'"),
    (lambda: ExperimentConfig._make((ScenarioGeometry(), np.float64(0.5), *ExperimentConfig()[2:])), ConfigError,
     r"array.spacing: expected a number, got 'np.float64\(0.5\)'"),
    (lambda: ExperimentConfig(grid_step=np.float32(1e-3)), ConfigError,
     r"grid.step: expected a number, got 'np.float32\(0.001\)'"),
    (lambda: LinkState(8, 1.0, -1e-4, 1e-4, 1e-11, 1e-11, 10.0), ValueError, "g_ab must be strictly positive"),
    (lambda: LinkState._make((8, 1.0, -1e-4, 1e-4, 1e-11, 1e-11, 10.0)), ValueError,
     "g_ab must be strictly positive"),
    (lambda: LinkState(8, 1.0, 1e-4, 1e-4, 1e-11, 1e-11, 10.0)._replace(g_ab=np.array([1e-4, -1e-4])),
     ValueError, "g_ab must be strictly positive"),
    # A point must be finite: NaN would give NaN angles and distances, and an
    # infinite or out-of-range coordinate an infinite or NaN flight length.
    (lambda: ScenarioGeometry(eve=(math.nan, 0.0, 0.0)), ConfigError, "geometry.eve: expected a finite number"),
    (lambda: ScenarioGeometry(flight_start=(math.nan, 0.0, 20.0)), ConfigError,
     "^geometry.flight_start: expected a finite number, got 'nan'$"),
    (lambda: ScenarioGeometry()._replace(flight_end=(800.0, -math.inf, 20.0)), ConfigError,
     "^geometry.flight_end: expected a finite number, got '-inf'$"),
    (lambda: ScenarioGeometry(alice=(0, 10**400, 0)), ConfigError,
     r"^geometry.alice: expected a finite number, got '10{30}\.\.\. \(401 chars\)$"),
    # An int whose repr Python refuses (more than 4300 digits by default).
    (lambda: ExperimentConfig(ais=AisConfig(max_iterations=10**5000)), ConfigError,
     "^ais.max_iterations: an integer too long to write as text$"),
    (lambda: ExperimentConfig(antenna_sweep=(8, 10**5000)), ConfigError,
     "^sweep.antennas: an integer too long to write as text$"),
    # The direct API: an int too large for a float or for its text, a str
    # antenna count, and values beyond the parser's ranges.
    (lambda: sample_trajectory(ScenarioGeometry(speed=10**400)), ConfigError,
     r"^geometry.speed: expected a finite number, got '10{30}\.\.\. \(401 chars\)$"),
    (lambda: ScenarioGeometry(eve=[10**5000, 0, 0]), ConfigError, "^geometry.eve: an integer too long to write as text$"),
    (lambda: ArrayConfig("8"), ConfigError, "^sweep.antennas: expected an integer, got \"'8'\"$"),
    (lambda: ArrayConfig(10**400, 0.5), ConfigError,
     r"^sweep.antennas: 10{31}\.\.\. \(401 chars\) is outside \[2, 1000000\] antennas$"),
    (lambda: ArrayConfig(8, 10**400), ConfigError,
     r"^array.spacing: expected a finite number, got '10{30}\.\.\. \(401 chars\)$"),
    # The parser's types hold in the direct API as in an ExperimentConfig.
    (lambda: ScenarioGeometry(flight_end=(400, 0, 20)), ConfigError,
     r"^geometry.flight_end: \(400, 0, 20\) does not parse back from its text \(it reads as \(400.0, 0.0, 20.0\)\)$"),
    (lambda: AisConfig(epsilon=1), ConfigError, r"^ais.epsilon: 1 does not parse back from its text \(it reads as 1.0\)$"),
    # The scenario's rules hold for a geometry built on its own: the sample
    # count, Eve off the array with a finite gain, the UAV's gain nonzero.
    (lambda: ScenarioGeometry(sample_interval=1e-9), ConfigError,
     r"^geometry.speed, geometry.sample_interval: the 800 m flight gives 1e\+11 samples, more than 1000000$"),
    (lambda: ScenarioGeometry(eve=(1e-200, 0.0, 0.0)), ConfigError,
     "^geometry.eve: at d = 1e-200 m from the array, the eavesdropper's path gain .* overflows float64$"),
    (lambda: ScenarioGeometry(flight_start=(1e200, 0.0, 20.0), flight_end=(2e200, 0.0, 20.0), speed=1e196),
     ConfigError, r"^geometry.flight_start, geometry.flight_end: at d = 2e\+200 m from the array, the UAV's "
     "path gain .* underflows to 0$"),
    # A section of an ExperimentConfig is exactly its record.
    (lambda: ExperimentConfig(ais=(0.1, 1e-6, 50)), ConfigError, r"^ais: \(0.1, 1e-06, 50\) is not of type AisConfig$"),
    (lambda: ExperimentConfig(geometry=ScenarioGeometry()._asdict()), ConfigError,
     "^geometry: .* is not of type ScenarioGeometry$"),
])
def test_every_way_of_building_a_config_validates(build, error, message):
    with pytest.raises(error, match=message):
        build()


# Values a config built in code may hold: the parser's own, ints where a
# float belongs, numpy scalars and bools, NaN, +-inf and +-max float. Each
# field draws the parser's values for it about half the time, so that some
# drawn configs are valid.
_MAX = sys.float_info.max
_REALS = [0.0, -0.0, 1e-3, 0.5, 8.0, 20.0, -110.0, 1e-2, 300.0, _MAX, -_MAX, math.nan, math.inf, -math.inf,
          0, 1, 8, 64]
_SCALARS = st.sampled_from(_REALS + [2, 1_000_001, np.float64(0.5), np.float64(10.0), np.int64(8), True, False])
_STRATEGIES = [Strategy("ais"), Strategy("grid_oracle"), Strategy("fixed", 0.5), Strategy("fixed", 0.9)]
_STRATEGY = st.sampled_from(_STRATEGIES + [Strategy("fixed", 1), Strategy("fixed", math.nan), Strategy("ais", 0.3),
                                           Strategy("fixed", np.float64(0.5)), Strategy("bogus"), "ais", "fixed:0.5"])


def _scalar(*good):
    return st.one_of(st.sampled_from(good), _SCALARS)


def _sweep(good, items=_SCALARS):
    """A tuple of distinct ``good`` values, as the parser gives; or a tuple,
    a list or a bare value drawn from ``items``."""
    return st.one_of(st.lists(st.sampled_from(good), min_size=1, max_size=3, unique=True).map(tuple),
                     st.lists(items, max_size=3).map(tuple), st.lists(items, max_size=3), items)


# The two record fields draw their record's arguments, and the test builds
# the record: a rejected argument is one more ConfigError.
_RECORDS = {"geometry": ScenarioGeometry, "ais": AisConfig}
_CONFIG_FIELDS = {
    "geometry": st.one_of(st.just({"eve": (-150.0, 120.0, 0.0)}),
                          st.fixed_dictionaries({"eve": st.tuples(*[st.sampled_from(_REALS)] * 3),
                                                 "speed": st.sampled_from([8.0, 8, 0.5, math.inf, _MAX])})),
    "array_spacing": _scalar(0.5, 1e-3, 8.0),
    "noise_dbm_bob": _scalar(-110.0, -0.0, 300.0),
    "noise_dbm_eve": _scalar(-110.0, 20.0),
    "power_sweep_dbm": _sweep([10.0, -0.0, -300.0, 20.5]),
    "antenna_sweep": _sweep([2, 8, 64, 1_000_000]),
    "strategies": _sweep(_STRATEGIES, _STRATEGY),
    "ais": st.fixed_dictionaries({"beta_init": st.sampled_from([0.1, 0.5]),
                                  "epsilon": st.sampled_from([1e-6, 1, 1.0, math.inf, _MAX]),
                                  "max_iterations": st.sampled_from([1, 50])}),
    "grid_step": _scalar(1e-3, 1e-2),
    "output_path": st.one_of(st.sampled_from(["results.csv", "out dir/r.json"]),
                             st.sampled_from(["", " out.csv", "out.csv\n", "a\nb", "a\x0bb", "a\u2028b",
                                              Path("out.csv")])),
    "output_format": st.one_of(st.sampled_from(["csv", "json"]), st.sampled_from(["xml", " csv", Path("csv")])),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries({}, optional=_CONFIG_FIELDS))
def test_a_config_built_in_code_parses_back_from_its_text(fields):
    # Building a config, with its geometry and ais records, either fails with
    # one ConfigError or gives a config that its text rebuilds exactly, down
    # to the type of every value.
    try:
        cfg = ExperimentConfig(**{name: _RECORDS[name](**value) if name in _RECORDS else value
                                  for name, value in fields.items()})
    except ConfigError:
        return
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg and repr(again) == repr(cfg)


# Every numeric config key's interval as the README's config table states
# it: (kind, low, high, low end open, high end open). An infinite end admits
# every finite value. Each key's config line puts the value in its text, and
# its record is built with the value in the matching field.
_INF = math.inf
_INTERVALS = {
    "geometry.alice": (float, -_INF, _INF, True, True),
    "geometry.eve": (float, -_INF, _INF, True, True),
    "geometry.flight_start": (float, -_INF, _INF, True, True),
    "geometry.flight_end": (float, -_INF, _INF, True, True),
    "geometry.speed": (float, 0.0, _INF, True, True),
    "geometry.sample_interval": (float, 0.0, _INF, True, True),
    "geometry.path_loss_exponent": (float, 0.0, _INF, True, True),
    "geometry.reference_gain": (float, 0.0, _INF, True, True),
    "array.spacing": (float, 0.0, 1e5, True, False),
    "noise.bob_dbm": (float, -300.0, 300.0, False, False),
    "noise.eve_dbm": (float, -300.0, 300.0, False, False),
    "sweep.power_dbm": (float, -300.0, 300.0, False, False),
    "sweep.antennas": (int, 2, 1_000_000, False, False),
    "strategies": (float, 0.0, 1.0, True, True),
    "ais.beta_init": (float, 0.0, 1.0, True, True),
    "ais.epsilon": (float, 0.0, _INF, True, True),
    "ais.max_iterations": (int, 1, _INF, False, True),
    "grid.step": (float, 1e-6, 1e-2, False, False),
}
_LINES = {"geometry.alice": "{},0,0", "geometry.eve": "{},0,0", "geometry.flight_start": "{},0,20",
          "geometry.flight_end": "{},0,20", "strategies": "fixed:{}"}
_BUILDS = {
    "geometry.alice": lambda v: ScenarioGeometry(alice=(v, 0.0, 0.0)),
    "geometry.eve": lambda v: ScenarioGeometry(eve=(v, 0.0, 0.0)),
    "geometry.flight_start": lambda v: ScenarioGeometry(flight_start=(v, 0.0, 20.0)),
    "geometry.flight_end": lambda v: ScenarioGeometry(flight_end=(v, 0.0, 20.0)),
    "geometry.speed": lambda v: ScenarioGeometry(speed=v),
    "geometry.sample_interval": lambda v: ScenarioGeometry(sample_interval=v),
    "geometry.path_loss_exponent": lambda v: ScenarioGeometry(path_loss_exponent=v),
    "geometry.reference_gain": lambda v: ScenarioGeometry(reference_gain=v),
    "array.spacing": lambda v: ArrayConfig(8, v),
    "noise.bob_dbm": lambda v: ExperimentConfig(noise_dbm_bob=v),
    "noise.eve_dbm": lambda v: ExperimentConfig(noise_dbm_eve=v),
    "sweep.power_dbm": lambda v: ExperimentConfig(power_sweep_dbm=(v,)),
    "sweep.antennas": lambda v: ArrayConfig(v),
    "strategies": lambda v: ExperimentConfig(strategies=(Strategy("fixed", v),)),
    "ais.beta_init": lambda v: AisConfig(beta_init=v),
    "ais.epsilon": lambda v: AisConfig(epsilon=v),
    "ais.max_iterations": lambda v: AisConfig(max_iterations=v),
    "grid.step": lambda v: ExperimentConfig(grid_step=v),
}


def _edge_values(kind, low, high, open_low, open_high):
    """(value, inside) at each end of the interval: the end itself, and the
    values one ulp (or 1, for an int) inside and outside it. An infinite end
    gives the largest finite value (an int of 4300 digits, the most Python
    reads), inside, and the infinity, outside."""
    for end, is_open, sign in ((low, open_low, -1), (high, open_high, 1)):
        if math.isinf(end):
            yield sign * (10**4299 if kind is int else sys.float_info.max), True
            yield end, False
        elif kind is int:
            yield from ((end, not is_open), (end - sign, True), (end + sign, False))
        else:
            yield from ((end, not is_open), (math.nextafter(end, -sign * _INF), True),
                        (math.nextafter(end, sign * _INF), False))


def _own_error(key, build):
    """The message of ``key``'s own rule that ``build()`` raises, or None:
    a rule that spans several keys (the sample count, a path gain) names
    them all and is not the key's own."""
    try:
        build()
    except ConfigError as exc:
        return str(exc) if str(exc).startswith(f"{key}: ") else None
    return None


@pytest.mark.parametrize("key", _INTERVALS)
def test_each_numeric_key_accepts_exactly_its_interval(key):
    for value, inside in _edge_values(*_INTERVALS[key]):
        line = f"{key}={_LINES.get(key, '{}').format(repr(value))}"
        for build in (lambda: parse_config_text(line), lambda: _BUILDS[key](value)):
            message = _own_error(key, build)
            assert (message is None) == inside, (value, message)


@pytest.mark.parametrize("key", _INTERVALS)
def test_a_5000_character_value_is_one_short_error_line(key, tmp_path, capsys):
    outside = [v for v, inside in _edge_values(*_INTERVALS[key]) if not inside and math.isfinite(v)]
    prefix, suffix = _LINES.get(key, "{}").split("{}")
    width = 5000 - len(prefix) - len(suffix)
    # Leading zeros keep a number's value: out of range, or too many digits for an int.
    padded = [f"{'-' * (v < 0)}{str(abs(v)).zfill(width - (v < 0))}" for v in outside]
    for value in ["9" * width, "x" * width, *padded]:
        value = prefix + value + suffix
        assert len(value) == 5000
        argv = ["run", "--config", os.devnull, "--set", f"{key}={value}", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}: ") and len(err.rstrip("\n")) <= 120, err


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
