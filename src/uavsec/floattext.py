"""Float texts of the result files: each double at 12 significant digits as
``%.12g`` writes it, or for JSON as ``json.dumps`` writes the double that
text parses to.

``_pass_texts`` alone picks the path of a pass. One whose longest column
holds fewer than ``_TABLE_MIN`` lanes goes through one %-format call. Any
other goes through ``twelve_digits``, which builds the texts of its plain
lanes with numpy arithmetic from digit tables, built on first use. A plain
lane is positive and prints with a point and no exponent, so its text is also
its JSON form. The other lanes are formatted as placeholders there and then
replaced, by index, from one %-format call. The texts are plain lists:
``group_texts`` gives a column of one double as one str, that double
formatted alone with ``%.12g`` (and, for JSON, ``_json_number``) and no array
pass; a column whose lanes equal an earlier column's of its group as that
column's list; and any other column as its slice of one ``twelve_digits``
pass over the lanes of consecutive groups. The writers load this module on
their first call, so importing the package does not compile it.
"""

from functools import cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(text: str) -> str:
    """``json.dumps`` of the float a 12-digit text parses to.

    The float's shortest repr spells the same digits the same way when the
    text has a point and no exponent, or an exponent e with -308 < e < 12.
    It differs for integral text ("100" against "100.0"), for e from 12 to
    15 (repr stays positional below 1e16) and for subnormals (fewer digits
    round-trip).
    """
    _, e, exponent = text.partition("e")
    if e and -308 < int(exponent) < 12:
        return text
    return _JSON_NONFINITE.get(text) or repr(float(text))


def _percent_texts(values: np.ndarray, is_json: bool) -> list[str]:
    """``twelve_digits`` of any values, in one %-format call."""
    # No text contains a newline.
    texts = ("%.12g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]
    if is_json:
        size = np.abs(values)
        # Only these values can print without a point or with an exponent:
        # elsewhere 12-digit rounding moves v by at most 0.5e-11 |v|, so the
        # text keeps a fractional part and its exponent stays in [-4, 11].
        with np.errstate(invalid="ignore"):
            odd = ~((1e-4 <= size) & (size < 1e11) & (np.abs(values - np.rint(values)) > 1e-9 * size))
        for i in np.flatnonzero(odd).tolist():
            texts[i] = _json_number(texts[i])
    return texts


# A pass whose longest column is shorter takes one %-format call. The tables
# win a call from about 200 lanes on (README), but below 512 they save too
# little to be worth their one-time build in a run of columns that short.
_TABLE_MIN = 512
# ``twelve_digits`` takes the digit tables this many lanes at a time, so that
# the temporaries of one pass stay in cache.
_TABLE_CHUNK = 4096
# ``group_texts`` formats the lanes of consecutive groups in one pass up to
# this many lanes, so that a writer holds the texts of at most about this many
# lanes at once; a longer group is a pass of its own.
_PASS_LANES = 1 << 16

# A plain lane's text is written into seven 4-byte words, NUL where a digit
# is dropped: 11 integer digits, the point, 15 fraction digits, a newline.
#   dddd dddd ddd. dddd dddd dddd ddd\n
# Word i holds one 3- or 4-digit group q[i] - carry[i] q[i - 1] of x, where
# q[i] = floor(x / divisor[i]); x is the integer part for words 0-2 and the
# fraction digits as an integer for words 3-6.
_WORD_DIVISOR = np.array([1e7, 1e3, 1.0, 1e11, 1e7, 1e3, 1.0])[:, None]
_WORD_CARRY = np.array([0.0, 1e4, 1e3, 0.0, 1e4, 1e4, 1e3])[:, None]
# Offsets of the variants in ``_digit_tables``.
_FULL, _LEAD, _TRAIL, _POINT, _LEAD_POINT, _TRAIL_NEWLINE = 0, 10_000, 20_000, 30_000, 31_000, 32_000
_WORD_BASE = np.array([_LEAD, _FULL, _POINT, _FULL, _FULL, _FULL, _TRAIL_NEWLINE], dtype=float)[:, None]
# Words 1 and 2 drop leading zeros when every digit before them is 0.
_LEAD_SHIFT = np.array([_LEAD - _FULL, _LEAD_POINT - _POINT], dtype=float)[:, None]
# Exact powers of ten, and the decade bounds: as many of them lie at or
# below v as e + 4, where e = floor(log10 v) clipped to [-4, 10].
_POW10 = np.array([float(10**j) for j in range(16)])
_DECADES = 10.0 ** np.arange(-3, 11)


@cache
def _digit_tables() -> np.ndarray:
    """The words of ``_table_texts``, ASCII in uint32, read-only: each 4-digit
    group 0000-9999 in full, then with its leading zeros as NUL, then with its
    trailing zeros as NUL; each 3-digit group 000-999 and a point, then with
    its leading zeros but the last as NUL and a point, then with its trailing
    zeros as NUL and a newline."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    zero = digits == 0
    words = np.empty((33_000, 4), np.uint8)
    full, lead, trail = words[:10_000], words[10_000:20_000], words[20_000:30_000]
    full[:] = lead[:] = trail[:] = digits + np.uint8(ord("0"))
    lead[np.logical_and.accumulate(zero, axis=1)] = 0
    trail[np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]] = 0
    point, lead_point, trail_newline = words[30_000:31_000], words[31_000:32_000], words[32_000:]
    point[:, :3] = lead_point[:, :3] = full[:1000, 1:]
    lead_point[:, :2] = lead[:1000, 1:3]
    trail_newline[:, :3] = trail[:1000, 1:]
    point[:, 3] = lead_point[:, 3] = ord(".")
    trail_newline[:, 3] = ord("\n")
    words = words.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


def _table_texts(values: np.ndarray, is_json: bool) -> list[str]:
    """``twelve_digits`` of 1-D values: the plain lanes from the digit
    tables, every other lane through ``_percent_texts``.

    A lane is plain when its text has a point and no exponent, so that it
    reads the same in JSON. With e its decimal exponent, the 12-digit
    mantissa is m = rint(s), s = v 10^(11-e) for an exact power of ten.
    Where m < 10^12 < 2^40 the product errs by at most 2^-14, so m is the
    correctly rounded mantissa unless s lies within 2^-13 of a tie; such
    lanes fall back. The lane is plain when 10^11 <= s and m < 10^12 (e is
    the text's exponent, within [-4, 10]) and m 10^(e-11) is not an integer.
    """
    k = np.searchsorted(_DECADES, values, side="right")
    scale = _POW10[15 - k]
    with np.errstate(over="ignore", invalid="ignore"):
        s = values * scale
        m = np.rint(s)
        # Exact: m / scale rounds to no integer above its floor.
        whole = np.floor(m / scale)
        fraction = m - whole * scale
        plain = (s >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.5 - 2.0**-13) & (fraction != 0)
    # Placeholder digits on the other lanes: their texts are replaced below.
    other = np.flatnonzero(~plain)
    whole[other] = fraction[other] = 0.0
    digits = fraction * _POW10[k]
    # Every quotient and product below is an exact integer under 2^53. Row
    # i + 1 of ``q`` is the q[i] of word i, and row 0 is 0.
    q = np.zeros((8, values.size))
    np.divide(whole, _WORD_DIVISOR[:3], out=q[1:4])
    np.divide(digits, _WORD_DIVISOR[3:], out=q[4:])
    np.floor(q, out=q)
    index = q[1:] - q[:-1] * _WORD_CARRY + _WORD_BASE
    np.add(index[1:3], _LEAD_SHIFT, out=index[1:3], where=q[1:3] == 0)
    # Words 3-5 drop trailing zeros when every fraction digit after them is 0.
    np.add(index[3:6], _TRAIL - _FULL, out=index[3:6], where=q[4:7] * _WORD_DIVISOR[3:6] == digits)
    # Words 0 and 1 are NUL in every lane whose integer part is below 10^7 and
    # 10^3: leave out the words that are NUL in all lanes.
    top = whole.max()
    first = 2 if top < 1e3 else 1 if top < 1e7 else 0
    rows = _digit_tables()[index[first:].astype(np.intp)].T.tobytes()
    texts = rows.translate(None, b"\0").decode().split("\n")[:-1]
    for i, text in zip(other.tolist(), _percent_texts(values[other], is_json)):
        texts[i] = text
    return texts


def twelve_digits(values: np.ndarray, is_json: bool) -> list[str]:
    """Each of the 1-D float64 ``values`` at 12 significant digits; for JSON,
    as ``json.dumps`` writes the float that text parses to.

    Any number of values take ``_table_texts``, ``_TABLE_CHUNK`` at a time;
    ``_pass_texts`` alone decides where that pays.
    """
    return list(chain.from_iterable(_table_texts(values[start:start + _TABLE_CHUNK], is_json)
                                    for start in range(0, values.size, _TABLE_CHUNK)))


def _pass_texts(batch: list, lanes: list, is_json: bool) -> Iterator[list]:
    """The texts of the groups of one ``group_texts`` pass. ``batch`` holds
    each group's columns as texts or as int64 lanes to format (a column equal
    to an earlier one as that column's array), and ``lanes`` each array once."""
    values = np.concatenate([np.empty(0, np.int64), *lanes]).view(float)
    # The tables are taken by the longest column, as a column alone takes
    # them: a sweep of short columns only builds none.
    texts = (twelve_digits if max(map(len, lanes), default=0) >= _TABLE_MIN else _percent_texts)(values, is_json)
    lists, end = {}, 0
    for flat in lanes:
        lists[id(flat)], end = texts[end:end + flat.size], end + flat.size
    for columns in batch:
        yield [lists[id(column)] if isinstance(column, np.ndarray) else column for column in columns]


def group_texts(groups: Iterable[tuple], is_json: bool) -> Iterator[list]:
    """The texts of each group of float columns, one entry per column: one
    str when every lane holds one double (formatted alone, with no array
    pass); an earlier column's list when every lane equals its lane there;
    else the ``twelve_digits`` list of the lanes, in C order.

    Lanes are compared by bit pattern, so -0.0 stays apart from 0.0. The
    lanes to format of consecutive groups, up to ``_PASS_LANES``, are
    formatted in one pass: one ``twelve_digits`` call over them all, which
    takes the digit tables when the pass's longest column holds at least
    ``_TABLE_MIN`` lanes. A group's texts are yielded once its pass is done.
    """
    batch, lanes, size = [], [], 0
    for group in groups:
        columns, own = [], []
        for values in group:
            flat = np.asarray(values, dtype=float).view(np.int64).ravel()
            # A few lanes are compared alone first: most columns differ there.
            if flat[0] == flat[-1] and (flat == flat[0]).all():
                columns.append((_json_number if is_json else str)("%.12g" % flat[:1].view(float)[0]))
                continue
            same = [column for column in own if column.size == flat.size and column[0] == flat[0]
                    and (column == flat).all()]
            columns.append(same[0] if same else flat)
            own += [] if same else [flat]
        if batch and size + sum(map(len, own)) > _PASS_LANES:
            yield from _pass_texts(batch, lanes, is_json)
            batch, lanes, size = [], [], 0
        batch.append(columns)
        lanes += own
        size += sum(map(len, own))
    yield from _pass_texts(batch, lanes, is_json)
