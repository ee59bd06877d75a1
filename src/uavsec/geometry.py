"""Array geometry, flight trajectory sampling, path loss and the one array term.

Everything here is deterministic and unit-agnostic: distances in meters,
powers in linear mW, angles in radians measured from the +x array axis.

The uniform linear array is two numbers, its element count M and spacing
d/lambda, which ``array_separation`` checks with the parsers of the config
keys that hold them, ``sweep.antennas`` and ``array.spacing``. It enters the
model only through D = M^2 - |h_e^H h_b|^2, where h is the steering vector
with entries exp(-j 2 pi (m - (M+1)/2) (d/lambda) cos(theta)): how far apart
the array sees the UAV and the eavesdropper. ``array_separation`` computes D
in closed form from the Dirichlet kernel, in O(1) per point, without forming
either vector; the vectors and the sum of M - 1 terms it replaced are kept as
test oracles.

The sweep works on lanes: ``sample_trajectory`` returns the whole flight as
arrays, ``link_state_at`` builds the link of every point at once, and
everything downstream takes arrays (or scalars) elementwise, so one call
covers every sample point and transmit power of a sweep.

The package's records compile no code when it is imported, which keeps its
start-up short. Every record is a ``collections.namedtuple`` subclass; those
with checks (the configs and ``LinkState``) sit behind the ``Validated``
mixin, which runs them however the record is built.

Each field of a config record is one row of its table, (key, parser,
formatter, default), declared once; the record's namedtuple base takes its
field order and defaults from the rows (``_record``). A section, a field
that holds a record with keys of its own, is a row whose parser is that
record type and whose formatter is None. Every other field's one rule is its
key's parser: the value must be what its text parses back to. Every
numeric key's parser comes from one factory, ``_number``, with its interval
declared here once, and every message that quotes input quotes it through
``_echo``; every rejected field, whether the record was built in code or
parsed, is one ``ConfigError`` that names the key. A record built in code
runs that round trip field by field; a parsed one holds what its parsers
returned, so it runs only its cross-field rules. Every rule that reads only
the scenario (the sample count, Eve off the array, the path gains) is
``ScenarioGeometry``'s, so a geometry built in code is checked as a parsed
one is.
"""

import math
from collections import namedtuple
from functools import reduce

import numpy as np


class ConfigError(ValueError):
    """A config value is malformed or violates an invariant; the message
    starts with its config key, or with the keys of a rule that spans several."""


def _echo(text: str, quote=str) -> str:
    """``text`` as a message quotes it: ``quote(text)``, cut to its first 32
    characters and the length of ``text`` where it is longer than 40."""
    shown = quote(text)
    return shown if len(shown) <= 40 else f"{shown[:32]}... ({len(text)} chars)"


def _number(kind, low, high, open_low=False, open_high=False, unit=""):
    """The parser of a key whose value is one ``kind`` (``int`` or
    ``float``, as ``kind(text)`` reads it; a float must be finite) in the
    interval from ``low`` to ``high``, each end open or closed. A value
    outside is ``<key>: <text> is outside <interval><unit>``."""
    interval = f"{'[('[open_low]}{low:.12g}, {high:.12g}{'])'[open_high]}{unit}"

    def parse(key: str, raw: str):
        try:
            value = kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {noun}, got {_echo(raw, repr)}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {_echo(raw, repr)}")
        if value < low or value > high or (open_low and value == low) or (open_high and value == high):
            raise ConfigError(f"{key}: {_echo(raw)} is outside {interval}")
        return value

    return parse


# Upper bound on the array size. No cost grows with M (the array separation
# is a closed form), so this only bounds the input to a sane range.
MAX_ANTENNAS = 1_000_000

# Upper bound on the element spacing (d/lambda). The array phase pi z is
# taken modulo pi, and |z| <= 2 spacing rounds by up to ulp(2 spacing), which
# M elements turn into a phase error of pi M ulp(2 spacing): about 9e-5 rad
# at this bound and 10^6 elements. Far above it z keeps no fractional bits
# (at 1e20 every lane sees Eve in Bob's direction, D = 0).
MAX_SPACING = 1e5

# Transmit powers and noise floors, in dBm, must lie within this magnitude:
# 300 dBm is about the Sun's total output, and the linear mW values of the
# whole range stay well inside float64.
MAX_ABS_DBM = 300.0

# The value of every numeric config key, its kind and interval declared once.
_COORDINATE = _number(float, -math.inf, math.inf)  # each coordinate of a geometry point
_POSITIVE = _number(float, 0.0, math.inf, open_low=True, open_high=True)  # geometry scalars, ais.epsilon
_SPLIT = _number(float, 0.0, 1.0, open_low=True, open_high=True)  # ais.beta_init, fixed:B
_ITERATIONS = _number(int, 1, math.inf, open_high=True)
_ANTENNAS = _number(int, 2, MAX_ANTENNAS, unit=" antennas")
_SPACING = _number(float, 0.0, MAX_SPACING, open_low=True)
_DBM = _number(float, -MAX_ABS_DBM, MAX_ABS_DBM, unit=" dBm")
# The grid oracle scores a row of round(1/step) + 1 splits per lane (a chunk
# of lanes is one row when the grid is longer than ``CHUNK_ELEMENTS``); at
# 1e-6 that row is 10^6 + 1 doubles, 8 MB, and the rate arithmetic holds a few
# such rows at once.
_GRID_STEP = _number(float, 1e-6, 1e-2)


def parse_grid_step(key: str, raw: str) -> float:
    """The ``grid.step`` parser: a step in [1e-6, 1e-2] that is 1/n for an
    integer n, the grid's interval count, to within |n step - 1| <= 1e-9.

    1/n itself rounds by far less (n step is within 2^-52 of 1), and a 1/n
    written to 10 or more digits, such as 0.0033333333333, passes; 0.003
    does not (333 steps of it end at 0.999).
    """
    step = _GRID_STEP(key, raw)
    if abs(round(1.0 / step) * step - 1.0) > 1e-9:
        raise ConfigError(f"{key}: {_echo(raw)} is not 1/n for an integer n")
    return step


def _parse_list(conv, count: int | None = None):
    """A parser of comma-separated ``conv`` values: exactly ``count`` of them
    (a point), or else a nonempty sweep without duplicates (empty items are
    skipped)."""

    def parse(key: str, raw: str) -> tuple:
        items = [p.strip() for p in raw.split(",")]
        if count is None:
            items = [p for p in items if p]
            if not items:
                raise ConfigError(f"{key}: empty list")
        elif len(items) != count:
            raise ConfigError(f"{key}: expected {count} comma-separated coordinates")
        values = tuple(conv(key, item) for item in items)
        if count is None and len(set(values)) != len(values):
            raise ConfigError(f"{key}: duplicate entries in {_echo(raw, repr)}")
        return values

    return parse


def _join(values) -> str:
    return ",".join(map(repr, values))


def _round_trip(key: str, parse, fmt, value):
    """Raise ``key``'s ``ConfigError`` unless ``value``, written by ``fmt``,
    parses back to a value of the same repr."""
    try:
        text = fmt(value)
    except (TypeError, AttributeError):  # a scalar where a tuple belongs, a str strategy
        text = None
    except ValueError:  # an int past sys.get_int_max_str_digits(), which repr refuses
        raise ConfigError(f"{key}: an integer too long to write as text") from None
    back = "nothing" if text is None else repr(parse(key, text))
    if back != repr(value):
        raise ConfigError(f"{key}: {_echo(repr(value))} does not parse back from its text "
                          f"(it reads as {_echo(back)})")


class Validated:
    """Mixin in front of a ``collections.namedtuple`` base: the constructor,
    ``_make`` and ``_replace`` all build the record through ``__new__``,
    which checks it.

    ``_FIELD_KEYS`` is the record's one row per field, field -> (key,
    parser, formatter, default), in field order; ``_record`` builds the
    namedtuple base from it. A field is valid when its value, written by the
    formatter as ``serialize_config`` writes it, parses back to a value of
    the same repr: the parser's checks, with its messages, and no value (an
    int where a float belongs, a list, a numpy number) that the text would
    not keep. A section, a field that is a record with keys of its own, has
    that record type as its parser and no formatter: its value must be
    exactly that type, which checked itself when it was built. ``_validate``
    then runs the checks that span several fields.

    ``_parsed`` builds a record from values that its keys' parsers just
    returned, or from the fields of a checked record, which already are
    what their text parses back to: it runs only ``_validate``.
    """

    __slots__ = ()
    _FIELD_KEYS: dict = {}

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, (key, parse, fmt, _) in cls._FIELD_KEYS.items():
            value = getattr(self, field)
            if fmt is not None:
                _round_trip(key, parse, fmt, value)
            elif type(value) is not parse:
                raise ConfigError(f"{key}: {_echo(repr(value))} is not of type {parse.__name__}")
        self._validate()
        return self

    def _validate(self):
        pass

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def _parsed(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self


def _record(name: str, rows: dict):
    """The namedtuple base of a config record whose ``_FIELD_KEYS`` is
    ``rows``: its fields and their defaults, in the rows' order."""
    return namedtuple(name, rows, defaults=[default for *_, default in rows.values()])


# (-1)^(j+1) / (2j+1)!, j = 1..8: times 1 - M^-2j, the Taylor coefficients of
# (M sin e - sin Me) / (Me)^3 in (Me)^2. Where |Me| < 1, term j is at most
# 8/(2j+1)! of the sum, so the first term left out (j = 9) is below 2^-53 of it.
_TAYLOR = [(-1) ** (j + 1) / math.factorial(2 * j + 1) for j in range(1, 9)]

def array_separation(theta_b, theta_e, num_antennas: int, spacing: float):
    """D = M^2 - |h_e^H h_b|^2 for the steering vectors toward two directions
    of an M = ``num_antennas`` element array with spacing d/lambda = ``spacing``.

    The ULA's Dirichlet kernel gives |h_e^H h_b| = |r|, r = sin(My)/sin(y),
    y = pi z, z = (d/lambda)(cos theta_b - cos theta_e), so D = (M - r)(M + r)
    in O(1) per point. z is formed as a product of sines, which does not
    cancel for near-parallel directions. D depends on y modulo pi, so
    e = pi (z - k), k the integer nearest z (nonzero near a grating lobe,
    which d/lambda >= 1/2 can reach), stands in for y. Where |Me| < 1,
    M - r = (M sin e - sin Me)/sin e cancels, so its numerator comes from its
    Taylor series, whose terms shrink by 16x or more; each factor is divided
    by sin e on its own, so no tiny sin e is squared. D is then correct to a
    few ulp of itself. Near a grating lobe, z's own rounding (a few ulp of
    |z|) limits that to about |z| / |z - k| ulp, as it would any formula.
    D = 0 where sin e = 0 (identical directions), and 0 <= D <= M^2.

    The angles may be arrays (one D per element of their broadcast shape),
    and each point's D depends on that point alone. M and d/lambda must be
    what a config's ``sweep.antennas`` and ``array.spacing`` parsers would
    give (their ``repr`` parses back to them), or this raises that key's
    ``ConfigError``.
    """
    for key, parse, value in (("sweep.antennas", _ANTENNAS, num_antennas), ("array.spacing", _SPACING, spacing)):
        _round_trip(key, parse, repr, value)
    m = num_antennas
    z = -2.0 * spacing * np.sin(0.5 * (theta_b + theta_e)) * np.sin(0.5 * (theta_b - theta_e))
    flat = z.reshape(-1)
    e = math.pi * (flat - np.rint(flat))
    u = m * e
    # sin e = 0 only at e = 0, where u = 0 makes both numerators, and D, 0.
    s = np.sin(e)
    s[s == 0] = 1.0
    gap = m - np.sin(u) / s
    near = np.abs(u) < 1.0
    un = u[near]
    if un.size:
        # The series over (Me)^3, in t = (Me)^2 by Horner's scheme.
        t = un * un
        coefficients = [c * (1.0 - float(m) ** (-2 * j)) for j, c in enumerate(_TAYLOR, start=1)]
        gap[near] = un / s[near] * t * reduce(lambda p, c: p * t + c, reversed(coefficients))
    # M + r = 2M - (M - r); both factors are positive, so D >= 0.
    return np.minimum(gap * (2 * m - gap), float(m * m)).reshape(z.shape)[()]

# Upper bound on the trajectory samples one sweep combination may evaluate.
MAX_SAMPLES = 1_000_000

# ScenarioGeometry's rows: field -> (key, parser, formatter, default).
_GEOMETRY_ROWS = {
    **{name: (f"geometry.{name}", _parse_list(_COORDINATE, 3), _join, point) for name, point in [
        ("alice", (0.0, 0.0, 0.0)), ("eve", (200.0, 0.0, 0.0)),
        ("flight_start", (0.0, 0.0, 20.0)), ("flight_end", (800.0, 0.0, 20.0))]},
    **{name: (f"geometry.{name}", _POSITIVE, repr, value) for name, value in [
        ("speed", 8.0), ("sample_interval", 1.0), ("path_loss_exponent", 2.0), ("reference_gain", 1.0)]},
}


class ScenarioGeometry(Validated, _record("ScenarioGeometry", _GEOMETRY_ROWS)):
    """Fixed ground nodes plus the UAV's straight flight segment.

    Points are (x, y, z) tuples of floats, in meters. Default layout: Alice
    (the transmit array) at the origin with the array axis along +x, Eve
    200 m away on the ground, and the UAV flying 800 m parallel to the array
    axis at 20 m altitude and 8 m/s, sampled once a second. The flight is
    level: both endpoints share one positive z, the altitude.

    A geometry that builds can be evaluated: its flight has 1 to
    ``MAX_SAMPLES`` sample points, Eve is off the array with a finite path
    gain, her offset along the array axis and her distance from it are
    finite (her distance from the array may overflow to inf), and the UAV's
    path gain is nonzero at every point. Only a sample point on the array is
    left to ``sample_trajectory``, which computes them.
    """

    __slots__ = ()
    _FIELD_KEYS = _GEOMETRY_ROWS

    def _validate(self):
        length = self.flight_length
        if length <= 0:
            raise ConfigError("geometry.flight_start, geometry.flight_end: must differ")
        if length == math.inf:
            raise ConfigError("geometry.flight_start, geometry.flight_end: the flight's length overflows float64")
        z_start, z_end = self.flight_start[2], self.flight_end[2]
        if not (z_start > 0 and math.isclose(z_start, z_end)):
            raise ConfigError("geometry.flight_start, geometry.flight_end: must sit at one positive altitude (z)")
        samples = self.samples
        if not samples <= MAX_SAMPLES:
            raise ConfigError(
                f"geometry.speed, geometry.sample_interval: the {length:g} m "
                f"flight gives {samples:.3g} samples, more than {MAX_SAMPLES}"
            )
        if samples < 1:
            raise ConfigError(
                f"geometry.speed, geometry.sample_interval: the {length:g} m flight "
                f"lasts {length / self.speed!r} s, shorter than one sample "
                f"interval ({self.sample_interval!r} s); no points to evaluate"
            )
        dx, dy, dz = (e - a for e, a in zip(self.eve, self.alice))
        if not (math.isfinite(dx) and math.isfinite(math.hypot(dy, dz))):
            raise ConfigError("geometry.eve, geometry.alice: the eavesdropper's offset from the array, along or "
                              "across its axis, overflows float64")
        d_ae = math.dist(self.eve, self.alice)
        if d_ae == 0:
            raise ConfigError("geometry.eve, geometry.alice: the eavesdropper must not sit at the array")
        # Every sample lies on the flight segment, no farther from the array
        # than its farther end, so no sample's gain is smaller than that end's.
        d_far = max(math.dist(self.flight_start, self.alice), math.dist(self.flight_end, self.alice))
        g_ae, g_far = path_loss((d_ae, d_far), self)
        if not np.isfinite(g_ae):
            raise ConfigError(
                f"geometry.eve: at d = {d_ae:g} m from the array, the eavesdropper's path gain "
                "geometry.reference_gain / d**geometry.path_loss_exponent overflows float64"
            )
        if g_far == 0:
            raise ConfigError(
                f"geometry.flight_start, geometry.flight_end: at d = {d_far:g} m from the array, the "
                "UAV's path gain geometry.reference_gain / d**geometry.path_loss_exponent underflows to 0"
            )

    @property
    def flight_length(self) -> float:
        # hypot of Python floats: no overflowing square for a huge flight.
        return math.hypot(*(e - s for s, e in zip(self.flight_start, self.flight_end)))

    @property
    def samples(self) -> float:
        """(L/V)/dt: its floor is N, the number of sample points."""
        return self.flight_length / self.speed / self.sample_interval


class Trajectory(namedtuple("Trajectory", "sample_index theta_b theta_e d_ab d_ae")):
    """The sampled flight as arrays over its N points; the eavesdropper's
    angle and distance are scalars."""

    __slots__ = ()

    def __len__(self) -> int:
        """The number of sample points, N (not the field count)."""
        return len(self.sample_index)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make rejects a len() other than the field count.
        return cls(*iterable)


def _direction_angle(origin: np.ndarray, target: np.ndarray):
    """Angle in [0, pi] from the +x array axis to each origin->target line,
    and its length, each row from that row alone.

    ``hypot`` neither underflows nor overflows on the way, and ``arctan2``
    stays accurate near the axis: the angle is within 2 eps relative and the
    distance within 2 ulp of the exact values for the float offsets. A
    distance beyond float64 range is inf, and its angle keeps its bits."""
    dx, dy, dz = (target - origin).T
    across = np.hypot(dy, dz)
    with np.errstate(over="ignore"):
        dist = np.hypot(dx, across)
    # A valid geometry keeps Eve off the array, so only a sample point can sit there.
    if np.any(dist == 0):
        raise ConfigError("geometry.alice, geometry.flight_start, geometry.flight_end: a sample point of the "
                          "flight sits at the array")
    return np.arctan2(across, dx), dist


def sample_trajectory(geom: ScenarioGeometry) -> Trajectory:
    """Equally spaced UAV positions with per-point angles and distances.

    N = floor((L/V)/dt) points, indexed 1..N; the eavesdropper angle and
    distance are constant across the flight. Eve is one more row of the
    flight's direction pass: each row's angle and distance depend on that
    row alone, so hers are those of a pass over her point alone.
    """
    alice = np.asarray(geom.alice, dtype=float)
    s = np.asarray(geom.flight_start, dtype=float)
    d = np.asarray(geom.flight_end, dtype=float)
    unit = (d - s) / geom.flight_length
    n = np.arange(1, math.floor(geom.samples) + 1)
    pos = s + (n * geom.sample_interval * geom.speed)[:, None] * unit
    theta, dist = _direction_angle(alice, np.vstack((pos, geom.eve)))
    return Trajectory(n, theta[:-1], float(theta[-1]), dist[:-1], float(dist[-1]))


def path_loss(distance, geom: ScenarioGeometry):
    """Linear power gain alpha/d^c at the given distance(s) in meters, in
    float64: a gain beyond its range is inf (or 0), without a warning."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("path loss undefined at zero distance")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return (geom.reference_gain / distance**geom.path_loss_exponent)[()]


class LinkState(Validated, namedtuple("LinkState", "num_antennas separation g_ab g_ae sigma2_b sigma2_e p_s")):
    """Everything needed to evaluate one sampling point, or a batch of them.

    ``separation`` is ``array_separation`` for the UAV and eavesdropper
    directions on a ``num_antennas``-element array; gains are linear, powers
    and noise variances in mW. Each field after ``num_antennas`` is a scalar
    or an array; their broadcast shape, ``shape``, is the lane shape of the
    batch, and every computation on the link is elementwise over it. The
    eavesdropper's gain may be 0 (its path gain underflowed), which makes
    its rate exactly 0; every other gain, power and noise is positive, and
    all of them are finite. M is what the ``sweep.antennas`` parser would
    give (or this raises that key's ``ConfigError``), 0 <= D <= M^2 on every
    lane, and the fields broadcast together.
    """

    __slots__ = ()

    def _validate(self):
        _round_trip("sweep.antennas", _ANTENNAS, repr, self.num_antennas)
        if not np.all((0 <= self.separation) & (self.separation <= self.num_antennas**2)):
            raise ValueError("separation must lie in [0, num_antennas^2]")
        # Every lane lies above its field's floor and below inf. Eve's gain
        # may be 0: its floor is the largest float below 0.
        for name, value, floor in zip(self._fields[2:], self[2:], (0.0, -math.ulp(0.0), 0.0, 0.0, 0.0)):
            if not np.all((floor < value) & (value < math.inf)):
                raise ValueError(f"{name} must be {'nonnegative' if floor else 'strictly positive'} and finite")
        # Raises numpy's ValueError where the lanes do not broadcast together.
        np.broadcast(*self[1:])

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast(*self[1:]).shape


def lane_link(link, fields=None) -> LinkState:
    """A ``LinkState`` with ``link``'s antenna count and ``fields`` for the
    others; by default, ``link``'s own, each broadcast to its lane shape and
    copied into one contiguous 1-D array of lanes. The values are cut from a
    checked link, so they are not checked again."""
    if fields is None:
        values = link[1 : len(LinkState._fields)]
        fields = np.empty((len(values), *link.shape))
        for i, value in enumerate(values):
            fields[i, ...] = value
        fields = fields.reshape(len(values), -1)
    return tuple.__new__(LinkState, (link.num_antennas, *fields))


def link_state_at(
    traj: Trajectory,
    geom: ScenarioGeometry,
    num_antennas: int,
    spacing: float,
    sigma2_b,
    sigma2_e,
    p_s,
) -> LinkState:
    """Assemble the link state of every trajectory point from the geometry
    and the array, M = ``num_antennas`` elements at spacing d/lambda =
    ``spacing`` (checked by ``array_separation``); the powers and noise
    floors broadcast against the points (``p_s`` of shape (P, 1) gives
    P x N lanes)."""
    return LinkState(
        num_antennas=num_antennas,
        separation=array_separation(traj.theta_b, traj.theta_e, num_antennas, spacing),
        g_ab=path_loss(traj.d_ab, geom),
        g_ae=path_loss(traj.d_ae, geom),
        sigma2_b=sigma2_b,
        sigma2_e=sigma2_e,
        p_s=p_s,
    )
