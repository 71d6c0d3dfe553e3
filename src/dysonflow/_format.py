"""The bytes of the CSV and JSON tables, formed in numpy: heads, rows, tails and floats, as Python writes them.

_write_tables writes every table file, chunk by chunk (see _table_format
for its bytes). It cuts each chunk's rows into contiguous ranges, one per
process, each process formatting each bit-distinct column of its range
once for all the tables that show it; however the rows are cut,
identical configs give byte-identical files. A block of about
_BLOCK_VALUES values, all the distinct columns over as many rows as fit,
goes through one call of a numpy kernel, so that the call's fixed cost is
a small part of its time (237 ns a value for CSV and 347 for JSON, against
308 and 581 on 128-row blocks; see _BLOCK_VALUES), and its strings are
joined into rows _BLOCK_ROWS rows at a time. For CSV, format_g17(values)
gives, for every value v, the bytes of ``b"%.17g" % v``: 17 significant
digits.
For JSON, format_repr(values) gives the bytes ``json.dump`` writes for v:
its repr, the shortest that round-trips, or NaN, Infinity and -Infinity.
Each value is one fixed-width "S24" record (the longest such string,
"-1.2345678901234567e-308", has 24 bytes; a shorter one is padded with
NUL bytes, which numpy drops on reading). Both kernels work on the whole
array at once, in five steps:

1. Exponent. The decimal exponent E of |v| is estimated by np.log10, then
   corrected by the range of the scaled value below. So the strings do not
   depend on how np.log10 rounds.
2. Digits. |v| 10^(16 - E) is formed in double-double arithmetic: |v|,
   scaled by a power of two into [0.5, 20), times a table's pair hi + lo of
   doubles for 10^(16 - E) times the inverse power of two, with Dekker's
   split for the exact product of the leading parts. Its floor, an int64 of
   17 digits, and the fraction above it come out within 2^-40 of the exact
   ones. "%.17g" rounds them to the nearest integer. repr takes the
   shortest digits that read back as v (the digits of D. M. Gay's
   correctly rounded conversion, which CPython's repr runs): v's spacing,
   read from its mantissa bits, bounds the interval of reals that read back
   as v to under 23 units of the 17th digit, so the nearest multiples of
   100 and of 10 are the only shorter candidates (_shortest). The digits
   are read out through a table of 4-digit groups.
3. Trim. Trailing zeros are dropped, as "%g" and repr drop them; they
   are counted through a table of each 4-digit group's trailing zeros.
4. Layout. The values are sorted by layout key (sign, notation and E, and
   in exponent notation the digit count); each key's strings are filled by
   contiguous slice copies, then the records are put back in the values'
   order. Fixed notation is -4 <= E <= 16 for "%.17g" and -4 <= E <= 15
   for repr, where a whole value ends in ".0".
5. Special values. 0, -0, nan (whatever its sign bit), inf and -inf get
   their strings by mask: "0.0", "-0.0", "NaN", "Infinity" and "-Infinity"
   for repr.

A value whose fraction lies within _MARGIN of one half is left undecided
by step 2, whose error is far below _MARGIN: exact ties round half to even,
which only the exact value decides. So is a value whose corrected
exponent still misses the range, which no double does, and for repr a
value with a candidate within _MARGIN of an end of its interval (see
_shortest). Only those go through Python's per-value ``"%.17g"`` or repr,
in _exact and _exact_repr. The tables are built on first use, in numpy
from the exact integer powers of five.
"""

import json
import shutil
import tempfile
from contextlib import ExitStack
from functools import cache

import numpy as np

from ._parallel import _fork_map, _usable_cpus

_WIDTH = 24
_MARGIN = 2.0**-20
# every decimal exponent a double has, [-324, 308], with one to spare each way for step 1's correction
_E_MIN, _E_MAX = -325, 309
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for doubles
_ZERO, _MINUS, _DOT, _E, _PLUS = b"0-.e+"
# the bytes of a value's row of digits: 3 is its leading digit, 4-19 the 16 others, 20-23 its exponent
_LEAD, _EXP = 3, 20


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for doubles far from overflow."""
    p = a * b
    c = a * _SPLIT
    a_hi = c - (c - a)
    c = b * _SPLIT
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@cache
def _tables():
    """The tables of steps 2, 3 and 4, as (scale, quads, exponents, trailing).

    Column E - _E_MIN of the (6, columns) float64 ``scale`` holds two powers
    of two whose product 2^-s takes a value of decimal exponent E into
    [0.5, 20), then hi, its Dekker split hi_hi + hi_lo, and lo, where
    hi + lo is 10^(16 - E) 2^s = 5^(16 - E) 2^(16 - E + s) to within 2^-100.
    A power 5^j, j >= 0, is its integer rounded to a double plus the
    remainder rounded; 5^-j is its double-double reciprocal. ``quads[q]``,
    a uint32, holds the four ASCII digits of q < 10^4 in memory order,
    ``exponents[E - _E_MIN]`` the sign and the two or three digits of E,
    right-aligned, and the int64 ``trailing[q]`` the trailing zeros of q's
    four digits, 4 for q = 0. The integer work runs in Python, and numpy
    runs only the float64 arithmetic and the copies that the kernel runs
    anyway: each further numpy loop a process runs keeps its machine code
    resident, 64 KB at a time.
    """
    e10 = range(_E_MIN, _E_MAX + 1)
    s = [e * 1701 // 512 for e in e10]  # floor(E log2(10)), to within one
    fives, five = [], 1  # 5^j as the double nearest it and the remainder's
    for _ in range(16 - _E_MIN + 1):
        fives.append((float(five), float(five - int(float(five)))))
        five *= 5
    hi, lo = np.array([fives[abs(16 - e)] for e in e10]).T
    inverse = np.array([e > 16 for e in e10])  # 1 / (hi + lo): one Newton step from 1 / hi
    q = 1.0 / hi[inverse]
    p, err = _two_product(q, hi[inverse])
    c = ((1.0 - p) - err - q * lo[inverse]) * q
    hi[inverse] = q + c
    lo[inverse] = c - (hi[inverse] - q)
    two_to = lambda exponents: np.array([2.0**x for x in exponents])
    shift = two_to(16 - e + x for e, x in zip(e10, s))  # 10^k = 5^k 2^k, and 2^s
    hi *= shift
    lo *= shift
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    half = [-x // 2 for x in s]
    scale = np.stack([two_to(half), two_to(-x - h for x, h in zip(s, half)), hi, hi_hi, hi - hi_hi, lo])
    pairs = np.frombuffer(b"".join(b"%02d" % q for q in range(100)), dtype=np.uint16)
    quads = np.empty((100, 100, 2), dtype=np.uint16)  # the digits of q // 100, then of q % 100
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    exponents = np.frombuffer(b"".join(b"%4s" % (b"%+03d" % e) for e in e10), dtype=np.uint32)
    trailing = [0] * 10_000
    for k in range(1, 5):  # a multiple of 10^k ends in k zeros or more
        trailing[:: 10**k] = [k] * (10_000 // 10**k)
    return scale, quads.view(np.uint32).ravel(), exponents, np.array(trailing)


def _scaled(a, e10):
    """floor(a 10^(16 - e10)) as int64 and the fraction above it, each within 2^-40 of the exact ones.

    The product is _two_product's, with the table's split of hi, formed in
    place so that few arrays of the block's size live at once.
    """
    scale = _tables()[0]
    column = e10 - _E_MIN
    take = lambda i, out=None: scale[i].take(column, out=out, mode="clip")  # "clip": the indices are in range
    t = take(0)
    m = a * t
    m *= take(1, t)  # exact: two powers of two, with no overflow or underflow between them
    m_hi = m * _SPLIT
    m_hi -= m_hi - m
    m_lo = m - m_hi
    p = m * take(2, t)
    hi_hi = take(3)
    err = m_hi * hi_hi
    err -= p
    m_hi *= take(4, t)  # each product into an operand it was the last use of
    err += m_hi
    hi_hi *= m_lo
    err += hi_hi
    t *= m_lo
    err += t  # now p + err is m hi exactly
    m *= take(5, t)
    err += m
    del t, m, m_hi, m_lo, hi_hi
    y = p + err  # an integer: y >= 2^53 wherever it counts
    p -= y
    p += err  # y + p is the sum exactly
    floor = np.floor(p)
    p -= floor
    y = y.astype(np.int64)
    y += floor.astype(np.int64)
    return y, p


def _exact(values):
    """Python's own "%.17g" of each value: the fallback for what step 2 leaves undecided."""
    return [b"%.17g" % v for v in values.tolist()]


def _exact_repr(values):
    """Python's own repr of each value: the fallback for what format_repr leaves undecided."""
    return [float.__repr__(v).encode() for v in values.tolist()]


def format_g17(values):
    """The "%.17g" bytes of every float64 of ``values``, as an "S24" array of its shape (see the module)."""
    return _format(values, shortest=False)


def format_repr(values):
    """The bytes ``json.dump`` writes for every float64 of ``values``, as an "S24" array of its shape.

    That is the repr of a finite value, NaN (whatever its sign bit),
    Infinity and -Infinity (see the module).
    """
    return _format(values, shortest=True)


# the bytes of 0, -0, nan, inf and -inf: as "%.17g" writes them, and (shortest) as json does
_SPECIAL = {False: (b"0", b"-0", b"nan", b"inf", b"-inf"), True: (b"0.0", b"-0.0", b"NaN", b"Infinity", b"-Infinity")}


def _format(values, shortest):
    """The records of format_g17, or with ``shortest`` those of format_repr."""
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    regular = np.isfinite(flat) & (flat != 0.0)
    neg = np.signbit(flat)
    d, frac, e10, undecided = _digits(flat, regular)
    if shortest:
        step, near = _shortest(flat, d, frac)
        d += step
    else:
        near = np.abs(frac - 0.5) < _MARGIN
        d[frac > 0.5] += 1
    undecided |= regular & near
    del frac, near  # before _layout's arrays of the block's size
    carry = d == 10**17
    d[carry] = 10**16
    e10[carry] += 1
    records = _layout(d, e10, _kept(d, regular), neg, regular, shortest)
    zero, minus_zero, nan, inf, minus_inf = _SPECIAL[shortest]
    mask = flat == 0.0
    records[mask] = np.where(neg[mask], minus_zero, zero)
    records[np.isnan(flat)] = nan
    mask = np.isinf(flat)
    records[mask] = np.where(neg[mask], minus_inf, inf)
    if undecided.any():
        records[undecided] = (_exact_repr if shortest else _exact)(flat[undecided])
    return records.reshape(x.shape)


def _digits(flat, regular):
    """Steps 1 and 2 up to rounding: (d, frac, E, the values whose E stays out of range).

    d is the floor of each regular value's 17 significant digits, an int64,
    and frac the fraction above it.
    """
    a = np.abs(flat)
    a[~regular] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)  # in [-324, 308], so one step either way stays in the tables
    d, frac = _scaled(a, e10)
    out_of_range = (d < 10**16) | (d >= 10**17)
    if out_of_range.any():  # np.log10 put |v| on the wrong side of a power of ten
        fix = np.flatnonzero(out_of_range)
        e10[fix] += np.where(d[fix] < 10**16, -1, 1)
        d[fix], frac[fix] = _scaled(a[fix], e10[fix])
        out_of_range = (d < 10**16) | (d >= 10**17)
    return d, frac, e10, regular & out_of_range


def _shortest(flat, d, frac):
    """The step from each floor ``d`` to the digits of the shortest repr, and the values it leaves undecided.

    With y = d + frac, |v| in units of its 17th digit, the reals that read
    back as v lie within h above y and h_low below it: h = y ulp(v) / (2
    |v|) = y / (2 m), m the 53-bit integer mantissa, and h_low = h but h / 2
    for a power of two, whose lower gap is half its upper one. h lies in
    [0.55, 11.1], so the interval is narrower
    than 23 units. Repr takes the fewest digits, then the nearest: a
    multiple of 100 in the interval, unique and trimmed of its zeros by
    _kept, else the nearer multiple of 10 in it, else the nearest integer,
    always in it. Left undecided: a candidate within _MARGIN of an end of the
    interval, which is in or out by the mantissa's parity; a tie between two
    multiples of 10 or two integers; and subnormals and the least normal,
    whose gaps are not those of h. A tie between two multiples of 100 lies
    50 units from both, outside every interval.
    """
    mantissa = flat.view(np.int64) & (2**52 - 1)
    h = (d + frac) / (2 * (mantissa + 2**52))
    h_low = np.where(mantissa == 0, 0.5 * h, h)
    r100 = d % 100
    r10 = r100 % 10
    low100, low10 = r100 + frac, r10 + frac  # from the multiples of 100 and of 10 below y
    high100, high10 = 100.0 - low100, 10.0 - low10  # and to those above it
    up100, up10 = high100 <= h, high10 <= h
    in100, in10 = up100 | (low100 <= h_low), up10 | (low10 <= h_low)
    up10 &= (low10 > h_low) | (low10 > 5.0)
    step = np.where(
        in100,
        np.where(up100, 100, 0) - r100,
        np.where(in10, np.where(up10, 10, 0) - r10, np.where(frac > 0.5, 1, 0)),
    )
    near = np.abs(flat) <= 2.0**-1022
    for x, end in ((low100, h_low), (high100, h), (low10, h_low), (high10, h), (low10, 5.0), (frac, 0.5)):
        near |= np.abs(x - end) < _MARGIN  # one end at a time, so a block's six are never held at once
    return step, near


def _kept(d, regular):
    """Step 3: the count of digits each value keeps, 17 less its trailing zeros, four digits at a time.

    A group of four digits, from the last, gives its trailing zeros from the
    table; a value goes on to its next group only while all its groups so
    far are zeros. The leading digit is never 0, so a value keeps at least
    one digit. On 5,632 values of a su2-generic run's columns this took 24
    ns a value after repr's rounding and 15 after "%.17g"'s, where counting
    one digit at a time took 54 and 36.
    """
    trailing = _tables()[3]
    kept = np.full(len(d), 17)
    more, rest = np.flatnonzero(regular), d[regular]
    while more.size:
        rest, group = np.divmod(rest, 10_000)
        zeros = trailing[group]
        kept[more] -= zeros
        all_zero = zeros == 4
        more, rest = more[all_zero], rest[all_zero]
    return kept


def _layout(d, e10, kept, neg, regular, shortest):
    """Step 4: the records of the regular values, sorted by layout key, each key's filled by _fill, then unsorted.

    The key is the sign, then E + 4 in fixed notation, and in exponent
    notation 21 or 22 (two or three exponent digits) times 32 plus the
    digits kept. Fixed notation is -4 <= E <= 16 for "%.17g", where a whole
    value drops its point, and -4 <= E <= 15 for repr (``shortest``), where
    it ends in ".0".
    """
    fixed = (e10 >= -4) & (e10 <= (15 if shortest else 16))
    form = np.where(fixed, e10 + 4, np.where((e10 > -100) & (e10 < 100), 21 * 32, 22 * 32) + kept)
    key = (form + np.where(neg, 1024, 0)).astype(np.int16)
    del form
    key[~regular] = -1
    order = np.argsort(key, kind="stable")  # a radix sort on int16
    key, e10, kept, fixed = key[order], e10[order], kept[order], fixed[order] & regular[order]
    row = _rows(d[order], e10)
    # fixed notation copies all 17 places: blank those past the digits it shows
    short = np.flatnonzero(fixed & (kept < 17))
    if short.size:
        digits = row[short, _LEAD : _LEAD + 17]
        digits[np.arange(17) >= np.maximum(kept[short], e10[short] + 1)[:, None]] = 0
        row[short, _LEAD : _LEAD + 17] = digits

    n = len(key)
    chars = np.zeros((n, _WIDTH), dtype=np.uint8)
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), n] if n else [0]
    for lo, hi in zip(bounds, bounds[1:]):
        code = int(key[lo])
        if code >= 0:
            _fill(chars[lo:hi], row[lo:hi], code >> 10, code & 1023)
    del row
    whole = short[kept[short] <= e10[short] + 1]  # no digit after the point: blank it, or show "0" there
    chars[whole, neg[order][whole] + e10[whole] + 1 + shortest] = _ZERO if shortest else 0
    records = np.empty(n, dtype=f"S{_WIDTH}")
    records[order] = chars.view(f"S{_WIDTH}").ravel()
    return records


def _rows(d, e10):
    """The values' rows of digits, (n, 24) uint8: the 17 digits from byte _LEAD, the exponent in bytes _EXP to 23.

    ``d`` is used up: it is divided in place.
    """
    quads, exponents = _tables()[1:3]
    row = np.empty((len(d), 6), dtype=np.uint32)
    group = np.empty_like(d)
    for k in (4, 3, 2, 1):  # four digits at a time from the last, then the leading one
        np.divmod(d, 10_000, out=(d, group))
        row[:, k] = quads[group]
    row[:, 0] = quads[d]
    row[:, 5] = exponents[e10 - _E_MIN]
    return row.view(np.uint8)


def _fill(chars, row, sign, form):
    """Fill ``chars`` of values that share one layout, ``sign`` and ``form`` of its key, from their rows.

    Fixed notation copies all 17 places, which _layout has blanked past the
    digits shown; exponent notation copies the digits kept.
    """
    p = sign
    if sign:
        chars[:, 0] = _MINUS
    if form <= 20:
        e10 = form - 4
        if e10 >= 0:
            chars[:, p : p + e10 + 1] = row[:, _LEAD : _LEAD + e10 + 1]
            if e10 < 16:
                chars[:, p + e10 + 1] = _DOT
                chars[:, p + e10 + 2 : p + 18] = row[:, _LEAD + e10 + 1 : _LEAD + 17]
        else:
            chars[:, p : p + 1 - e10] = _ZERO
            chars[:, p + 1] = _DOT
            chars[:, p + 1 - e10 : p + 18 - e10] = row[:, _LEAD : _LEAD + 17]
        return
    kept = form & 31
    chars[:, p] = row[:, _LEAD]
    if kept > 1:
        chars[:, p + 1] = _DOT
        chars[:, p + 2 : p + kept + 1] = row[:, _LEAD + 1 : _LEAD + kept]
        p += kept
    width = 3 if form >= 22 * 32 else 2
    chars[:, p + 1] = _E
    chars[:, p + 2 : p + 3 + width] = row[:, _EXP + 3 - width : _EXP + 4]


# values per kernel call: a block of _BLOCK_VALUES // (distinct columns) rows,
# one at least, goes through one call of format_g17 or format_repr. A call
# costs 0.1-0.3 ms whatever its size, a third to a half of the kernel's time
# on the 128-row blocks it once took; 5,632 values are 256 rows of the 22
# columns of a yang-lee-closed run's 7 series and 512 of su2-generic's
# propagator, states and energies. On one CPU of a 2-CPU Xeon the kernel's
# time per value, that fixed cost included, went from 308 to 237 ns on
# those CSV tables and from 581 to 347 ns on those JSON ones. A call's
# arrays peak at about 100 (CSV) and 130 (JSON) bytes a value
_BLOCK_VALUES = 5632
# rows per string block: a kernel block's records are turned into Python
# bytes and joined into rows this many rows at a time, so only one string
# block's bytes are held at once. Holding whole 256-row blocks as strings
# took 13 % less time on closed-emit than 128-row ones, but raised its peak
# RSS by about 0.5 MB more; _BLOCK_VALUES gains that time without it. The
# row ranges are counted in these blocks too
_BLOCK_ROWS = 128
# at most this many row ranges of a chunk, so processes: each range past the
# first holds one temporary file per table and a pipe open in this process
# until the chunk's rows are appended
_MAX_RANGES = 16


def _csv_rows(strings, first):
    """A block of CSV rows from the bytes of its columns: each row's joined by "," and ended by "\n"."""
    return b"\n".join(map(b",".join, zip(*strings))) + b"\n"


def _table_format(header, fmt: str, metadata: dict):
    """The head of a table and the template of its rows: (order, rows).

    ``rows(strings, first)`` gives the bytes of a block of rows from the
    bytes of its columns in ``order`` (format_g17's for "csv", format_repr's
    for "json"), ``first`` when the block is the table's first. A CSV row is
    its strings joined by "," and ended by "\n": floats keep 17 significant
    digits. JSON rows are joined by ",\n", and a block starts with one,
    except the first, which starts with "\n". A JSON file holds the bytes
    ``json.dump(indent=2, sort_keys=True)`` writes for {"columns",
    "metadata", key: one dict per row}, key being "samples" for a time
    series (first column t) and "rows" for a sweep: floats in their
    shortest round-trip repr, a repeated name keeping its last value as
    ``dict(zip(header, row))`` would. Only the head goes through ``json``;
    the rows are filled into a bytes template (``bytes.__mod__``), because
    ``json`` drops to its pure-Python encoder when ``indent`` is set. The
    head leaves the list of rows open: its tail depends on whether the
    table has any.
    """
    if fmt != "json":
        return ",".join(header) + "\n", (range(len(header)), _csv_rows)
    last = {field: i for i, field in enumerate(header)}
    order = [last[field] for field in sorted(last)]
    key = "samples" if header[0] == "t" else "rows"
    head = json.dumps({"columns": list(header), "metadata": metadata}, indent=2, sort_keys=True)
    row = ",\n".join(f"      {json.dumps(header[i]).replace('%', '%%')}: %s" for i in order)
    fill = ("    {\n" + row + "\n    }").encode().__mod__

    def rows(strings, first):
        return (b"\n" if first else b",\n") + b",\n".join(map(fill, zip(*strings)))

    # key sorts after "metadata": reopen the head's closing "\n}" for it
    return f'{head[:-2]},\n  "{key}": [', (order, rows)


def _write_tables(out_dir, chunks, fmt: str, metadata: dict):
    """Write tables chunk by chunk, as <name>.csv or <name>.json (``fmt``; see _table_format).

    ``chunks`` yields, for each chunk of rows in order, the same tables,
    each (name, header, columns), of one row count within the chunk; a JSON
    head holds ``metadata``. The first chunk opens the files and writes
    their heads. The rows of each chunk are cut into min(usable CPUs,
    ceil(rows / _BLOCK_ROWS), _MAX_RANGES) contiguous ranges, one per
    process (``_parallel._fork_map``), so a chunk of one block is written
    by this process alone: a fork costs more than it saves there. A
    process walks its range in kernel blocks of _BLOCK_VALUES // (distinct
    columns) rows, at least one, and formats each distinct column of the
    block once, in one call of format_g17 or format_repr (237 ns a value
    for CSV and 347 for JSON, against 308 and 581 on 128-row blocks; see
    _BLOCK_VALUES); it turns the strings into Python bytes and writes every
    table's rows _BLOCK_ROWS rows at a time. Columns are told apart by
    their float64 bits over the chunk, not by identity, so -0.0 stays apart
    from 0.0 and NaNs of one bit pattern merge: the strings depend only on
    the bits. This process writes the first range straight into the files;
    each worker writes its range into unnamed temporary files in
    ``out_dir``, opened before the fork so that nothing is left behind when
    a process fails, and this process appends them in range order before it
    takes the next chunk. The tails follow the last chunk. A chunk without
    tables writes nothing and forks nothing. The bytes depend neither on
    the ranges, nor on the kernel blocks, nor on how the rows are cut into
    chunks; every line ends in "\n" on every platform. When the chunks
    raise or any range fails, the table files opened are removed before the
    error is raised. Returns the paths, in table order.
    """
    kernel = format_repr if fmt == "json" else format_g17
    paths, files, formats = [], [], []
    done = 0  # rows written so far

    def write_rows(targets, columns, layouts, lo, hi):
        step = max(1, _BLOCK_VALUES // len(columns))  # rows per kernel call
        for start in range(lo, hi, step):
            records = kernel(np.array([col[start : min(start + step, hi)] for col in columns]))
            for sub in range(0, records.shape[1], _BLOCK_ROWS):
                strings = records[:, sub : sub + _BLOCK_ROWS].tolist()
                for fh, (order, rows) in zip(targets, layouts):
                    fh.write(rows([strings[i] for i in order], not done + start + sub))
        for fh in targets:
            fh.flush()  # a worker leaves through os._exit, which flushes nothing

    def write_chunk(tables):
        columns, layouts, seen = [], [], {}  # hash of a column's bytes -> indices in columns

        def index(col):  # the index in columns of the column with col's bits, appended if new
            col = np.asarray(col, dtype=float)
            same = seen.setdefault(hash(col.tobytes()), [])  # the bytes are dropped at once
            k = next((k for k in same if np.array_equal(columns[k].view(np.int64), col.view(np.int64))), None)
            if k is None:
                same.append(k := len(columns))
                columns.append(col)
            return k

        for (_, _, cols), (order, rows) in zip(tables, formats, strict=True):
            layouts.append(([index(cols[i]) for i in order], rows))
        n = len(columns[0])
        ranges = max(1, min(_usable_cpus(), -(-n // _BLOCK_ROWS), _MAX_RANGES))
        bounds = [n * k // ranges for k in range(ranges + 1)]
        with ExitStack() as stack:
            temporary = lambda: stack.enter_context(tempfile.TemporaryFile(dir=out_dir))
            spills = [[temporary() for _ in files] for _ in range(ranges - 1)]
            targets = [files, *spills]
            _fork_map(lambda k: write_rows(targets[k], columns, layouts, bounds[k], bounds[k + 1]), range(ranges))
            for j, fh in enumerate(files):
                for spill in spills:
                    spill[j].seek(0)
                    shutil.copyfileobj(spill[j], fh, 1 << 20)
        return n

    try:
        with ExitStack() as stack:
            for tables in chunks:
                for name, header, _ in () if files else tables:  # the first chunk opens the files
                    head, template = _table_format(header, fmt, metadata)
                    files.append(stack.enter_context(open(path := out_dir / f"{name}.{fmt}", "wb")))
                    paths.append(path)  # once open: the cleanup removes only what this writer opened
                    files[-1].write(head.encode())
                    formats.append(template)
                done += write_chunk(tables) if tables else 0
                del tables  # before the next chunk is formed
            for fh in files:  # a JSON tail closes the list of rows the head left open
                fh.write((("\n  ]" if done else "]") + "\n}\n" if fmt == "json" else "").encode())
    except BaseException:
        for path in paths:  # a table cut short would still parse: leave none
            path.unlink(missing_ok=True)
        raise
    return paths
