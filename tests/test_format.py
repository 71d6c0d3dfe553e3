"""format_g17 against Python's own "%.17g", and format_repr against repr and json's spellings, byte for byte."""

import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dysonflow import _format
from dysonflow._format import format_g17, format_repr


def python_g17(values):
    return np.array([b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()], dtype="S24")


def json_float(v):
    """A float as json writes it, and as the JSON writer spelled it value by value: NaN, Infinity, -Infinity, repr."""
    if v != v:
        return b"NaN"
    if math.isinf(v):
        return b"Infinity" if v > 0 else b"-Infinity"
    return float.__repr__(v).encode()


def python_repr(values):
    return np.array([json_float(v) for v in np.asarray(values, dtype=float).ravel().tolist()], dtype="S24")


def assert_matches_python(values, kernel=format_g17, python=python_g17):
    values = np.asarray(values, dtype=float).ravel()
    got, want = kernel(values), python(values)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(values[i], got[i], want[i]) for i in bad[:5]]


def assert_matches_repr(values):
    assert_matches_python(values, format_repr, python_repr)


def test_random_bit_patterns():
    # every exponent field, so subnormals, infinities and NaNs of either sign too
    bits = np.random.default_rng(17).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (np.abs(values[np.isfinite(values)]) < 2.2250738585072014e-308).any()
    assert_matches_python(values)


def test_nans_of_either_sign_print_nan():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert format_g17(nans.view(np.float64)).tolist() == [b"nan"] * 4


def test_scaled_integers():
    # k 10^j over every decade a double has, with k of one to seventeen digits
    rng = np.random.default_rng(3)
    k = np.concatenate([np.arange(1, 1000), rng.integers(1, 10**17, 4000)]).astype(float)
    for j in range(-323, 292, 7):
        assert_matches_python(k * float(f"1e{j}"))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    assert_matches_python(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_exact_ties_round_half_to_even():
    ties = [123456789012345.625, 123456789012345.875, -123456789012345.625, 1234567890123456.25, 1234567890123456.75]
    assert format_g17(ties).tolist() == [
        b"123456789012345.62", b"123456789012345.88", b"-123456789012345.62", b"1234567890123456.2",
        b"1234567890123456.8",
    ]
    assert_matches_python(ties)


def test_notation_boundaries():
    # fixed notation for -4 <= E <= 16, exponents of two and three digits
    values = [1e-5, 1.5e-5, 9.9999999999999995e-5, 1e-4, 0.00012345, 1e16, 1.2345e16, 9.9999999999999998e16, 1e17]
    values += [x * s for x in (1e99, 1e100, 1e-99, 1e-100, 1e308, 1e-308, 1.7976931348623157e308) for s in (1, -1)]
    values += [5e-324, 1.5, 100.0, 120.0, 1234567.0, 0.1, 1 / 3]
    assert_matches_python(values)
    assert format_g17([1e-5, 1e-4, 1e16, 1e17, 1e100, -1e-100]).tolist() == [
        b"1.0000000000000001e-05", b"0.0001", b"10000000000000000", b"1e+17", b"1e+100", b"-1e-100",
    ]


def test_zeros_and_infinities():
    assert format_g17([0.0, -0.0, math.inf, -math.inf, math.nan]).tolist() == [b"0", b"-0", b"inf", b"-inf", b"nan"]


def test_shapes():
    block = np.arange(6.0).reshape(2, 3) - 2.5
    out = format_g17(block)
    assert out.shape == (2, 3) and out.dtype == np.dtype("S24")
    assert out.tolist() == [[b"-2.5", b"-1.5", b"-0.5"], [b"0.5", b"1.5", b"2.5"]]
    assert format_g17(np.empty((3, 0))).shape == (3, 0)
    assert format_g17(7.0).tolist() == b"7"


def test_a_value_formats_alone_as_anywhere_in_a_block():
    rng = np.random.default_rng(29)
    block = rng.standard_normal(257) * 10.0 ** rng.integers(-30, 30, 257)
    edge = [0.0, -0.0, math.nan, math.inf, 123456789012345.625, 1e-320, 1.0, -1e16, 2.5, 1e-5, 7e300, 1e17, 1e23]
    edge += [2.0, 1e15, 9999999999999998.0, -0.002, 2.0**54 + 4]
    block[::7] = np.resize(edge, len(block[::7]))
    for kernel in (format_g17, format_repr):
        alone = [kernel(block[i : i + 1])[0] for i in range(len(block))]
        for lo, hi in ((0, 257), (3, 200), (100, 101), (250, 257)):
            assert kernel(block[lo:hi]).tolist() == alone[lo:hi]
        assert kernel(block[::-1]).tolist() == alone[::-1]
        assert kernel(block.reshape(1, 257)).tolist() == [alone]


def exact_scaled(v):
    """|v| 10^(16 - E) as an exact Fraction, and E, the exact decimal exponent of |v|."""
    x = abs(Fraction(v))
    e10 = math.floor(math.log10(abs(v)))
    while Fraction(10) ** e10 > x:
        e10 -= 1
    while Fraction(10) ** (e10 + 1) <= x:
        e10 += 1
    return x * Fraction(10) ** (16 - e10), e10


def exact_fraction_above(v):
    """The fraction of |v| 10^(16 - E) above its floor, E the exact decimal exponent of |v|."""
    y, _ = exact_scaled(v)
    return y - math.floor(y)


def near_tie():
    """A double x = m 2^31 in [10^25, 10^26) whose digits past its 17th read 500000256: 2.56e-7 above a tie."""
    residue = 5 * 10**8 + 256
    # m 2^31 = residue modulo 10^9: divide both by 2^9 and solve modulo 5^9
    m = residue // 2**9 * pow(2**22, -1, 5**9) % 5**9
    least = -(-(10**25) // 2**31)  # the least m with m 2^31 >= 10^25
    m += -(-(least - m) // 5**9) * 5**9
    x = float(m * 2**31)
    assert int(x) == m * 2**31 and 10**25 <= x < 10**26 and int(x) % 10**9 == residue
    return x


def test_only_values_within_the_margin_of_a_tie_fall_back(monkeypatch):
    exact, fallback = _format._exact, []
    monkeypatch.setattr(_format, "_exact", lambda values: fallback.extend(values.tolist()) or exact(values))
    ties = [123456789012345.625, -123456789012345.875, 1234567890123456.75]
    decided = [1.0, 0.1, 1 / 3, 2.5, 1e-320, 5e-324, 1e23, 1.7976931348623157e308, -7.25e-200, 2.0**60]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values = [*ties, near_tie(), *decided, *special]
    regular = [v for v in values if v != 0.0 and math.isfinite(v)]
    undecided = [v for v in regular if abs(exact_fraction_above(v) - Fraction(1, 2)) < Fraction(2) ** -20]
    assert len(undecided) == 4 and exact_fraction_above(near_tie()) != Fraction(1, 2)
    assert_matches_python(values)
    assert sorted(fallback) == sorted(undecided)


def test_the_power_table_is_within_2_to_the_minus_100():
    scale = _format._tables()[0]
    for column, e10 in enumerate(range(_format._E_MIN, _format._E_MAX + 1)):
        two_a, two_b, hi, hi_hi, hi_lo, lo = scale[:, column].tolist()
        product = Fraction(two_a) * Fraction(two_b)
        s = product.denominator.bit_length() - product.numerator.bit_length()
        assert product == Fraction(2) ** -s  # so |v| 2^-s is exact
        exact = Fraction(10) ** (16 - e10) * Fraction(2) ** s
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(2) ** -100, e10
        assert hi_hi + hi_lo == hi and (math.frexp(hi_hi)[0] * 2**27).is_integer()  # Dekker's split


@pytest.mark.parametrize("rows", [1, 64, 128])
def test_the_writer_columns_of_a_closed_run(rows):
    # the kind of columns the writer hands over: grid times, entries of the
    # Dyson map and of the propagator, residuals near rounding, and zeros
    rng = np.random.default_rng(rows)
    t = -1.996476351947283 + 0.001 * np.arange(rows)
    residual = rng.random(rows) * 1e-16
    block = np.stack([t, np.cos(t) * 1.3, -np.sin(2 * t), residual, np.zeros(rows), np.full(rows, -0.0)])
    assert_matches_python(block)


# --- format_repr ---------------------------------------------------------


def test_repr_random_bit_patterns_raise_no_warning():
    # every exponent field, so subnormals, infinities and NaNs of either sign too
    bits = np.random.default_rng(19).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_repr(values)


def test_repr_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    assert_matches_repr(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_repr_powers_of_two_subnormals_and_the_extremes():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tiny = np.random.default_rng(23).integers(1, 2**52, 2000, dtype=np.int64).view(np.float64)  # subnormals
    extremes = [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), tiny, extremes])
    assert_matches_repr(np.concatenate([values, -values]))


def test_repr_round_values():
    # the times of a grid and other values with few digits
    k = np.arange(-12_000, 12_000)
    assert_matches_repr(np.concatenate([0.002 * k, k / 8, 0.1 * k, k * 1e-7, k * 1e10]))


def test_repr_notation_edges():
    # fixed notation for -4 <= E <= 15, where a whole value ends in ".0"
    values = [1e-5, 1.5e-5, 9.9999999999999995e-5, 1e-4, 0.00012345, 2.0, -7.0, 100.0, 1e15, 1.5e15]
    values += [123456789012345.6, 1234567890123456.0, 9999999999999998.0, 1e16, 1.2345e16, 12345678901234568.0]
    values += [x * s for x in (1e99, 1e100, 1e-99, 1e-100, 1e308, 1e-308) for s in (1, -1)]
    assert_matches_repr(values)
    assert format_repr([1e-5, 1e-4, 2.0, -7.0, 1e15, 9999999999999998.0, 1e16, 1e100, -1e-100]).tolist() == [
        b"1e-05", b"0.0001", b"2.0", b"-7.0", b"1000000000000000.0", b"9999999999999998.0", b"1e+16", b"1e+100",
        b"-1e-100",
    ]


def test_repr_special_values_are_spelled_as_json_spells_them():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert format_repr(nans.view(np.float64)).tolist() == [b"NaN"] * 4
    assert format_repr([0.0, -0.0, math.inf, -math.inf]).tolist() == [b"0.0", b"-0.0", b"Infinity", b"-Infinity"]
    block = format_repr(np.array([[0.5, -0.0], [math.nan, 3.0]]))
    assert block.shape == (2, 2) and block.dtype == np.dtype("S24")
    assert block.tolist() == [[b"0.5", b"-0.0"], [b"NaN", b"3.0"]]


def undecided_shortest(v):
    """Whether format_repr must leave a regular value to repr, decided in exact arithmetic (see _shortest)."""
    a = abs(v)
    if a <= 2.0**-1022:  # subnormals and the least normal
        return True
    x = Fraction(a)
    e10 = math.floor(math.log10(a))
    while Fraction(10) ** e10 > x:
        e10 -= 1
    while Fraction(10) ** (e10 + 1) <= x:
        e10 += 1
    unit = Fraction(10) ** (16 - e10)
    y, h = x * unit, Fraction(math.ulp(a)) / 2 * unit
    h_low = h / 2 if math.frexp(a)[0] == 0.5 else h  # a power of two
    o100, o10 = y % 100, y % 10
    ends = [o100 - h_low, 100 - o100 - h, o10 - h_low, 10 - o10 - h, o10 - 5, y % 1 - Fraction(1, 2)]
    return any(abs(end) < Fraction(2) ** -20 for end in ends)


def test_repr_falls_back_on_exactly_the_undecided_values(monkeypatch):
    exact, fallback = _format._exact_repr, []
    monkeypatch.setattr(_format, "_exact_repr", lambda values: fallback.extend(values.tolist()) or exact(values))
    # a multiple of 100 or of 10 exactly at an end of the interval, the last one of a power of two
    ends = [1e23, 2.0**54 + 4, 55337847035328944.0, 9999999999999998.0, 2.0**53]
    ties = [1234567890123455.5, 123456789012345.625, near_tie()]  # at 10, at one half, and near one half
    tiny = [2.2250738585072014e-308, 1e-320, 5e-324]  # the least normal and subnormals
    twos = [2.0, 0.5, 2.0**60, 2.0**-51, 2.0**-1021, 2.0**1023]  # powers of two, decided
    decided = [0.1, 1 / 3, 2.5, -7.25e-200, 0.002, 1e15, 100.0, 1.7976931348623157e308]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values = [*ends, *ties, *tiny, *twos, *decided, *special]
    regular = [v for v in values if v != 0.0 and math.isfinite(v)]
    undecided = [v for v in regular if undecided_shortest(v)]
    assert sorted(undecided) == sorted([*ends, *ties, *tiny])
    assert_matches_repr(values)
    assert sorted(fallback) == sorted(undecided)


# --- trailing zeros ------------------------------------------------------


def python_digits(v, shortest):
    """The 17 significant digits Python writes for v: those of "%.17g", or repr's padded with zeros."""
    mantissa = (float.__repr__(abs(v)) if shortest else "%.16e" % abs(v)).split("e")[0]
    return mantissa.replace(".", "").lstrip("0").ljust(17, "0")


def python_exponent(v, shortest):
    """The decimal exponent E of the digits python_digits gives."""
    return Decimal(float.__repr__(v) if shortest else "%.16e" % v).adjusted()


def trailing_zeros(v, shortest):
    digits = python_digits(v, shortest)
    return len(digits) - len(digits.rstrip("0"))


def with_trailing_zeros(shortest):
    """{(k, fixed, sign): v} for every k in 0..16: values whose 17 digits end in exactly k zeros.

    Found among decimals of 17 - k digits, the last one not 0, and their
    neighbouring doubles, in fixed notation (-4 <= E <= 15) and in exponent
    notation, of both signs.
    """
    rng = random.Random(41)
    found = {}
    for k in range(17):
        for fixed in (True, False):
            for sign in (1.0, -1.0):
                for _ in range(10_000):
                    e10 = rng.randint(-4, 15) if fixed else rng.choice([rng.randint(-300, -5), rng.randint(17, 300)])
                    c = rng.randrange(10 ** (16 - k), 10 ** (17 - k))
                    if c % 10 == 0:
                        continue
                    v = sign * float(f"{c}e{e10 - 16 + k}")
                    v = next((u for u in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf * sign))
                              if trailing_zeros(u, shortest) == k
                              and (-4 <= python_exponent(u, shortest) <= 15) == fixed), None)
                    if v is not None:
                        found[k, fixed, sign] = v
                        break
                assert (k, fixed, sign) in found, (k, fixed, sign)
    return found


@pytest.mark.parametrize("shortest", [False, True])
def test_every_count_of_trailing_zeros(shortest):
    # each k puts the 17-digit integer on a multiple of 10^k and not of
    # 10^(k + 1): on a multiple of 10^4, 10^8, 10^12 and 10^16, and one
    # digit either side of each, whole groups of four digits and parts of them
    kernel, python = (format_repr, python_repr) if shortest else (format_g17, python_g17)
    found = with_trailing_zeros(shortest)
    assert len(found) == 17 * 2 * 2
    values = list(found.values())
    assert_matches_python(values, kernel, python)
    assert_matches_python(np.array(values) * 3.0, kernel, python)  # the same exponents with other digits
    for (k, _, _), v in found.items():  # as the kernel counts them
        d = int(python_digits(v, shortest))
        assert _format._kept(np.array([d]), np.array([True])).tolist() == [17 - k], (k, v)


def test_repr_rounding_up_into_new_zero_groups():
    # _shortest steps up from the floor of the 17 digits: to a multiple of
    # 100 that carries out of the last group of four digits (through every
    # group for 0.3), to a multiple of 10 that carries into the 16th digit,
    # and to 10^17, which moves E up by one
    carries, to_ten, to_power = [0.3, -0.29, 0.7], [8.474337369372327, -8.474337369372327], [1e-07, -1e-07]
    for v in carries + to_ten + to_power:
        y, e10 = exact_scaled(v)
        floor = math.floor(y)
        digits = int(python_digits(v, True)) * 10 ** (python_exponent(v, True) - e10)
        assert digits > floor
        if v in to_power:
            assert digits == 10**17
        elif v in carries:
            assert digits % 10**4 == 0 and floor % 10**4 > 9_900  # the last group rolls over to 0000
        else:
            assert digits % 100 and digits // 10 != floor // 10
    assert_matches_repr(carries + to_ten + to_power)
    assert format_repr([0.3, -0.29, 1e-07]).tolist() == [b"0.3", b"-0.29", b"1e-07"]
