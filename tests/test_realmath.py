"""Tests for the fixed-point scalar type and the two numeric backends."""

import hashlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgetrack.realmath import (
    FixedArray,
    FixedBackend,
    FloatBackend,
    MathDomainError,
    MathOverflowError,
    Q40_23,
    Q47_16,
    QFormat,
    get_backend,
)

from conftest import FixedQ40_23, FixedQ47_16, fixed_type

FIXED_CLASSES = [FixedQ40_23, FixedQ47_16]


def test_qformat_bit_budget():
    assert Q40_23.integer_bits + Q40_23.fraction_bits == 63
    assert Q47_16.integer_bits + Q47_16.fraction_bits == 63
    assert list(QFormat) == [Q40_23, Q47_16]
    assert QFormat((40, 23)) is Q40_23
    with pytest.raises(ValueError):
        QFormat((40, 16))


def test_qformat_resolution():
    assert Q40_23.resolution == 2.0 ** -23
    assert Q47_16.resolution == 2.0 ** -16
    assert str(Q40_23) == "Q40.23"


def test_fixed_type_rejects_other_formats():
    with pytest.raises(ValueError):
        fixed_type((31, 32))
    with pytest.raises(ValueError):
        FixedBackend((31, 32))
    be = FixedBackend(Q40_23)
    assert be.format is Q40_23 and be.array([1.0]).format is Q40_23
    assert (be.array([1.0]) + get_backend("q40_23").array([2.0])).raw.tolist() == [3 << 23]


# ---------------------------------------------------------------------------
# Conversions.

def test_from_float_examples():
    assert FixedQ40_23.from_float(1.0).raw == 8388608
    assert FixedQ40_23.from_float(0.0).raw == 0
    assert FixedQ47_16.from_float(-0.5).raw == -32768


def test_from_float_rounds_half_away_from_zero():
    # 2^-24 is one half-ulp of Q40.23: ties go away from zero.
    assert FixedQ40_23.from_float(2.0 ** -24).raw == 1
    assert FixedQ40_23.from_float(-(2.0 ** -24)).raw == -1
    assert FixedQ40_23.from_float(3 * 2.0 ** -25).raw == 1  # below the tie


def test_from_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(MathDomainError):
            FixedQ40_23.from_float(bad)


def test_from_float_overflow():
    with pytest.raises(MathOverflowError):
        FixedQ40_23.from_float(2.0 ** 40)
    with pytest.raises(MathOverflowError):
        FixedQ47_16.from_float(2.0 ** 47)
    with pytest.raises(MathOverflowError):
        FixedQ40_23.from_float(-(2.0 ** 40) - 1.0)
    # The negative end -2^integer_bits itself is representable.
    assert FixedQ40_23.from_float(-(2.0 ** 40)).raw == -(1 << 63)


def test_round_trip_exactly_representable():
    rng = np.random.default_rng(11)
    for cls in FIXED_CLASSES:
        frac = cls.FRAC_BITS
        for _ in range(2000):
            raw = int(rng.integers(-(1 << 40), 1 << 40))
            v = raw / (1 << frac)  # exact in double: |raw| < 2^52
            assert cls.from_float(v).to_float() == v


def test_floor_to_int():
    assert FixedQ40_23.from_float(1.75).floor_to_int() == 1
    assert FixedQ40_23.from_float(-1.25).floor_to_int() == -2
    assert FixedQ40_23.from_float(3.0).floor_to_int() == 3
    assert get_backend("float").floor_array(np.array(-1.25)) == -2


# ---------------------------------------------------------------------------
# backend.array, words.from_float and FixedPoint.from_float against exact
# rational rounding.

def numbers(fmt):
    """Floats and ints at the edges of the rounding and the range of fmt:
    exact ties (k + 1/2) 2**-F, values whose scaled magnitude is near 2**52
    (where rounding stops), the ends of the word range, inf and NaN, ints,
    and any float."""
    ulp, top = 2.0 ** -fmt.fraction_bits, 2.0 ** fmt.integer_bits
    sign = st.sampled_from([1.0, -1.0])
    ties = st.integers(-(1 << 51), 1 << 51).map(lambda k: (k + 0.5) * ulp)
    near_2_52 = st.builds(lambda s, k: s * (2.0 ** 52 + 0.5 * k) * ulp, sign, st.integers(-6, 6))
    ends = st.builds(lambda s, d: float(np.nextafter(s * top, s * d * math.inf)) if d else s * top,
                     sign, st.integers(-1, 1))
    int_ends = st.builds(lambda s, d: int(s) * (1 << fmt.integer_bits) + d,
                         sign, st.integers(-2, 2))
    specials = st.sampled_from([math.inf, -math.inf, math.nan])
    return st.one_of(ties, near_2_52, ends, int_ends, specials, st.integers(-(1 << 70), 1 << 70),
                     st.integers(-1000, 1000), st.floats())


def conversion(fn):
    """What a conversion gives: its value, or the class of what it raised."""
    try:
        return fn()
    except (MathOverflowError, MathDomainError) as exc:
        return type(exc)


def exact_word(value, fmt):
    """What converting value to a word of fmt must give, from rational
    arithmetic alone: value * 2**F rounded half away from zero, or
    MathDomainError for inf and NaN and MathOverflowError for a word
    outside the signed 64-bit range."""
    if isinstance(value, float) and not math.isfinite(value):
        return MathDomainError
    scaled = Fraction(value) * 2 ** fmt.fraction_bits
    word = math.floor(abs(scaled) + Fraction(1, 2)) * (1 if scaled >= 0 else -1)
    return word if -(1 << 63) <= word < 1 << 63 else MathOverflowError


@pytest.mark.parametrize("fmt", [Q40_23, Q47_16], ids=str)
def test_conversions_round_as_exact_arithmetic(fmt):
    # Scaled magnitudes around 2**52, where a float can no longer hold
    # x + 1/2 exactly, next to ties, the word range's ends and small values.
    ulp = 2.0 ** -fmt.fraction_bits
    values = [(2 ** 52 + k) * ulp for k in range(-3, 4)] + [(k + 0.5) * ulp for k in (0, 1, 2, -3)]
    values += [2.0 ** fmt.integer_bits, 2.0 ** fmt.integer_bits - ulp, -2.0 ** fmt.integer_bits,
               0.1, -0.1, 1 / 3, 7]
    be, cls = FixedBackend(fmt), fixed_type(fmt)
    for value in values + [-v for v in values]:
        want = exact_word(value, fmt)
        assert conversion(lambda: be.words.from_float(value)) == want, value
        assert conversion(lambda: cls.from_float(value).raw) == want, value
        arr = conversion(lambda: be.array(value))
        assert (arr if isinstance(want, type) else arr.raw.tolist()) == want, value


@pytest.mark.parametrize("fmt", [Q40_23, Q47_16], ids=str)
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_array_and_words_convert_as_from_float(fmt, data):
    be, cls = FixedBackend(fmt), fixed_type(fmt)
    value = data.draw(numbers(fmt))
    want = exact_word(value, fmt)
    assert conversion(lambda: cls.from_float(value).raw) == want
    assert conversion(lambda: be.words.from_float(value)) == want
    arr = conversion(lambda: be.array(value))
    if isinstance(want, type):
        assert arr is want
    else:
        assert arr.raw.shape == () and arr.raw.tolist() == want and arr.bound >= abs(want)

    # Nested lists of such numbers, ints and floats mixed: the array of
    # their shape, or the error of the first element that raises.
    shape = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple))
    flat = data.draw(st.lists(numbers(fmt), min_size=math.prod(shape), max_size=math.prod(shape)))
    nested = np.array(flat, dtype=object).reshape(shape).tolist()
    words = [exact_word(v, fmt) for v in flat]
    assert [conversion(lambda v=v: cls.from_float(v).raw) for v in flat] == words
    want = next((w for w in words if isinstance(w, type)), None)
    got = conversion(lambda: be.array(nested))
    if want is not None:
        assert got is want
    else:
        assert got.raw.shape == shape
        assert got.raw.tolist() == np.array(words, dtype=np.int64).reshape(shape).tolist()
        assert got.bound >= max(map(abs, words), default=0)


# ---------------------------------------------------------------------------
# Arithmetic.

def test_mul_examples():
    a = FixedQ40_23.from_float(2.0) * FixedQ40_23.from_float(3.0)
    assert a.to_float() == 6.0
    b = FixedQ40_23.from_float(0.5) * FixedQ40_23.from_float(0.5)
    assert b.to_float() == 0.25


def test_add_overflow_at_top_of_range():
    top = FixedQ40_23((1 << 63) - 1)  # 2^40 - 2^-23, the largest value
    with pytest.raises(MathOverflowError):
        top + top
    with pytest.raises(MathOverflowError):
        top + FixedQ40_23.from_float(1.0)
    assert (top + FixedQ40_23(0)).raw == (1 << 63) - 1


def test_add_sub_exact_in_range():
    rng = np.random.default_rng(12)
    for cls in FIXED_CLASSES:
        for _ in range(2000):
            a = int(rng.integers(-(1 << 60), 1 << 60))
            b = int(rng.integers(-(1 << 60), 1 << 60))
            assert (cls(a) + cls(b)).raw == a + b
            assert (cls(a) - cls(b)).raw == a - b


def test_mul_div_truncate_toward_zero():
    third = FixedQ40_23.from_float(1.0) / FixedQ40_23.from_float(3.0)
    assert third.raw == (1 << 46) // (3 << 23)  # positive: plain floor
    neg_third = FixedQ40_23.from_float(-1.0) / FixedQ40_23.from_float(3.0)
    assert neg_third.raw == -third.raw  # symmetric, not floored past zero


def test_mul_div_error_bound():
    rng = np.random.default_rng(13)
    for cls in FIXED_CLASSES:
        ulp = 2.0 ** -cls.FRAC_BITS
        for _ in range(2000):
            x = float(rng.uniform(-100.0, 100.0))
            y = float(rng.uniform(0.1, 100.0)) * (1 if rng.integers(2) else -1)
            a, b = cls.from_float(x), cls.from_float(y)
            assert abs((a * b).to_float() - a.to_float() * b.to_float()) <= ulp
            assert abs((a / b).to_float() - a.to_float() / b.to_float()) <= ulp


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        FixedQ40_23.from_float(1.0) / FixedQ40_23(0)
    with pytest.raises(ZeroDivisionError):
        1 / FixedQ40_23(0)


def test_int_operands_mix_exactly():
    a = FixedQ40_23.from_float(2.5)
    assert (a + 1).to_float() == 3.5
    assert (1 + a).to_float() == 3.5
    assert (a * 2).to_float() == 5.0
    assert (a - 3).to_float() == -0.5
    assert (5 - a).to_float() == 2.5
    assert (a / 2).to_float() == 1.25
    assert (5 / FixedQ40_23.from_float(2.0)).to_float() == 2.5


def test_float_operands_rejected():
    a = FixedQ40_23.from_float(2.5)
    with pytest.raises(TypeError):
        a + 0.5
    with pytest.raises(TypeError):
        0.5 * a


def test_formats_do_not_mix():
    with pytest.raises(TypeError):
        FixedQ40_23.from_float(1.0) + FixedQ47_16.from_float(1.0)


def test_neg_abs_bool():
    a = FixedQ40_23.from_float(-2.5)
    assert (-a).to_float() == 2.5
    assert abs(a).to_float() == 2.5
    assert bool(a)
    assert not bool(FixedQ40_23(0))


def test_comparisons():
    a = FixedQ40_23.from_float(1.5)
    b = FixedQ40_23.from_float(2.0)
    assert a < b and b > a and a <= a and a >= a and a == a and a != b
    assert a < 2 and a > 1 and b == 2
    # Comparing against a huge int must not overflow.
    assert a < (1 << 80)
    assert a > -(1 << 80)


def test_overflow_property_against_exact_reference():
    # Randomized operands spanning small to near-boundary magnitudes; an
    # unbounded-int reference decides whether each op must succeed or raise.
    import random

    rng = random.Random(14)
    lo, hi = -(1 << 63), (1 << 63) - 1
    for cls in FIXED_CLASSES:
        frac = cls.FRAC_BITS
        for _ in range(4000):
            a = rng.getrandbits(rng.randint(1, 64))
            b = rng.getrandbits(rng.randint(1, 64))
            if rng.random() < 0.5:
                a = -a
            if rng.random() < 0.5:
                b = -b
            a = max(lo, min(hi, a))
            b = max(lo, min(hi, b))
            fa, fb = cls(a), cls(b)
            cases = [(a + b, lambda: fa + fb), (a - b, lambda: fa - fb)]
            p = a * b
            cases.append((p // (1 << frac) if p >= 0 else -((-p) >> frac), lambda: fa * fb))
            if b != 0:
                q = abs(a << frac) // abs(b)
                if (a >= 0) != (b >= 0):
                    q = -q
                cases.append((q, lambda: fa / fb))
            for expect_raw, op in cases:
                if lo <= expect_raw <= hi:
                    assert op().raw == expect_raw
                else:
                    with pytest.raises(MathOverflowError):
                        op()


# ---------------------------------------------------------------------------
# Square root.

def test_sqrt_examples():
    assert abs(FixedQ40_23.from_float(4.0).sqrt().to_float() - 2.0) <= 2.0 ** -22
    assert FixedQ40_23(0).sqrt().raw == 0
    r = FixedQ40_23.from_float(2.0).sqrt().to_float()
    assert abs(r - math.sqrt(2.0)) <= 2 * 2.0 ** -23


def test_sqrt_negative_raises():
    with pytest.raises(MathDomainError):
        FixedQ40_23.from_float(-1.0).sqrt()


def test_sqrt_accuracy_random():
    rng = np.random.default_rng(15)
    for cls in FIXED_CLASSES:
        tol = 2 * 2.0 ** -cls.FRAC_BITS
        for _ in range(100_000 // len(FIXED_CLASSES)):
            v = float(rng.uniform(0.0, 1.0e6))
            a = cls.from_float(v)
            assert abs(a.sqrt().to_float() - math.sqrt(a.to_float())) <= tol


# ---------------------------------------------------------------------------
# Trigonometry.

def test_trig_examples():
    for name in ("q40_23", "q47_16"):
        be = get_backend(name)
        w = be.words
        assert w.sin(w.from_float(0)) == 0
        assert w.to_float(w.cos(w.from_float(0))) == 1.0
        assert abs(w.to_float(w.sin(w.from_float(math.pi / 2))) - 1.0) <= 2.0 ** -16
        assert abs(w.to_float(w.cos(w.from_float(math.pi))) + 1.0) <= 2.0 ** -16


def test_sin_cos_accuracy_random():
    rng = np.random.default_rng(16)
    n = 100_000 // 2
    for name in ("q40_23", "q47_16"):
        be = get_backend(name)
        w = be.words
        for _ in range(n // 2):
            x = float(rng.uniform(-math.pi, math.pi))
            a = w.from_float(x)
            xa = w.to_float(a)
            assert abs(w.to_float(w.sin(a)) - math.sin(xa)) <= 2.0 ** -16
            assert abs(w.to_float(w.cos(a)) - math.cos(xa)) <= 2.0 ** -16


def test_trig_bit_determinism():
    be1 = get_backend("q40_23")
    be2 = get_backend("q40_23")
    x = be1.words.from_float(0.7123)
    assert be1.words.sin(x) == be2.words.sin(x)
    assert be1.words.cos(x) == be2.words.cos(x)


# sha256 of "sin:cos,..." over _trig_sweep's words, as text: the kernels'
# words, which a change to how they are computed must keep.
TRIG_SWEEP_SHA256 = {
    "q40_23": "18863d6e15312ac9a9cf63caf224b4b102c08966dd88cc8d67b2b9086fbbcb3c",
    "q47_16": "dfcc0fa2d60ce9ffedd1cb8ab322bcd012be05d3bfd026b2e148f5b4bcba9f5e",
}


def _trig_sweep(frac_bits):
    """Words spread over [-13, 13] rad, about 20 000 of them, plus the two
    words either side of every multiple of pi/4 in [-4 pi, 4 pi]: the
    quadrant edges of the argument reduction."""
    one = 1 << frac_bits
    words = list(range(-13 * one, 13 * one + 1, (26 * one) // 20000))
    for k in range(-16, 17):
        edge = round(k * math.pi / 4 * one)
        words += range(edge - 2, edge + 3)
    return words


@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_trig_sweep_words_are_recorded(name):
    w = get_backend(name).words
    sweep = _trig_sweep(get_backend(name).format.fraction_bits)
    text = ",".join(f"{w.sin(x)}:{w.cos(x)}" for x in sweep)
    assert hashlib.sha256(text.encode()).hexdigest() == TRIG_SWEEP_SHA256[name]


# ---------------------------------------------------------------------------
# Backend protocol.

def test_get_backend_names():
    assert isinstance(get_backend("float"), FloatBackend)
    assert isinstance(get_backend("q40_23"), FixedBackend)
    assert get_backend("q40_23").format is Q40_23
    assert get_backend("q47_16").format is Q47_16
    with pytest.raises(ValueError):
        get_backend("q32_31")


def test_float_backend_sqrt_domain():
    with pytest.raises(MathDomainError):
        get_backend("float").sqrt(-1.0)
    # Arrays: elementwise math.sqrt, and a raise when any element is negative.
    values = np.concatenate([[0.0, 1.0, 4.0, 2.0], np.random.default_rng(610).uniform(0.0, 1e6, 200)])
    assert FloatBackend.sqrt(values).tolist() == [math.sqrt(v) for v in values.tolist()]
    with pytest.raises(MathDomainError):
        FloatBackend.sqrt(np.array([1.0, -1e-300]))


def test_backend_constants_consistent():
    for name in ("float", "q40_23", "q47_16"):
        be = get_backend(name)
        assert be.to_float(be.array(1)) == 1.0
        assert be.to_float(be.array(0)) == 0.0


def test_word_constants_convert_as_from_float_once(monkeypatch):
    # words.constant gives from_float's word; a fixed-point backend converts
    # each value once and then returns its stored word.
    import edgetrack.realmath as realmath

    for name in ("float", "q40_23", "q47_16"):
        w = get_backend(name).words
        for v in (0.0, 1, 1e-4, -2.5, 1e4):
            assert w.constant(v) == w.from_float(v)
    be = FixedBackend(Q40_23)
    converted, word = [], realmath._float_word
    monkeypatch.setattr(realmath, "_float_word", lambda v, fmt: converted.append(v) or word(v, fmt))
    assert [be.words.constant(v) for v in (0.125, 0.125, 3.0, 0.125)] == [1 << 20, 1 << 20,
                                                                        3 << 23, 1 << 20]
    assert converted == [0.125, 3.0]


@pytest.mark.parametrize("name", ["q40_23", "q47_16"])
def test_fixed_array_iterates_as_ndarray(name):
    # Iteration yields the rows along axis 0 as the float backend's arrays
    # do, each keeping the array's bound; a 0-d array raises TypeError, and
    # unpacking the wrong number of rows raises numpy's ValueError.
    fixed, flt = get_backend(name), get_backend("float")
    for values in (1.5, [1.5, -2.0, 3.25], [[1.0, 2.0, 3.0], [-4.0, 5.5, 6.0]]):
        a, f = fixed.array(values), flt.array(values)
        if f.ndim == 0:
            for arr in (a, f):
                with pytest.raises(TypeError, match="iteration over a 0-d array"):
                    list(arr)
            continue
        rows = list(a)
        assert len(rows) == len(f)
        for row, want in zip(rows, f):
            assert type(row) is FixedArray and row.format is a.format and row.bound == a.bound
            assert row.raw.shape == want.shape
            assert row.to_float().tolist() == want.tolist()
    a, f = fixed.array([[1.0, 2.0], [3.0, 4.0]]), flt.array([[1.0, 2.0], [3.0, 4.0]])
    x, y = a
    assert x.to_float().tolist() == [1.0, 2.0] and y.to_float().tolist() == [3.0, 4.0]
    for arr in (a, f):
        with pytest.raises(ValueError, match="not enough values to unpack"):
            x, y, z = arr
        with pytest.raises(ValueError, match="too many values to unpack"):
            (x,) = arr


# ---------------------------------------------------------------------------
# FixedArray: arrays must match FixedPoint operation by operation.

def point(cls, raw):
    """A 0-d FixedArray holding the word raw."""
    return FixedArray(np.array(raw, dtype=np.int64), cls.FORMAT)


def random_raw_values(rng, count):
    """Raw words over every magnitude, both signs, and the range ends."""
    ends = [-(1 << 63), -(1 << 63) + 1, (1 << 63) - 1, (1 << 63) - 2, 0, 1, -1]
    out = []
    for _ in range(count):
        if rng.random() < 0.1:
            out.append(int(rng.choice(ends)))
        else:
            bits = int(rng.integers(0, 64))
            out.append(int(rng.integers(-(1 << bits), 1 << bits, endpoint=True)) if bits < 63
                       else int(rng.integers(-(1 << 63), (1 << 63) - 1, endpoint=True)))
    return out


def scalar_outcome(fn):
    """Raw result of a scalar operation, or the class of what it raised."""
    try:
        out = fn()
    except (MathOverflowError, MathDomainError, ZeroDivisionError) as exc:
        return type(exc)
    return out.raw


BINARY_OPS = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / b),
]


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_fixed_array_matches_scalar_per_element(cls):
    rng = np.random.default_rng(606)
    a_raw = random_raw_values(rng, 1500)
    b_raw = random_raw_values(rng, 1500)
    ints = [int(v) for v in rng.integers(-(1 << 45), 1 << 45, 1500)]
    raised = 0
    for a, b, k in zip(a_raw, b_raw, ints):
        fa = FixedArray(np.array([a], dtype=np.int64), cls.FORMAT)
        fb = FixedArray(np.array([b], dtype=np.int64), cls.FORMAT)
        ka = np.array([k], dtype=np.int64)
        cases = [(name, lambda op=op: op(cls(a), cls(b)), lambda op=op: op(fa, fb))
                 for name, op in BINARY_OPS]
        cases += [(name + " int", lambda op=op: op(cls(a), k), lambda op=op: op(fa, ka))
                  for name, op in BINARY_OPS]
        cases += [(name + " rint", lambda op=op: op(k, cls(a)), lambda op=op: op(ka, fa))
                  for name, op in BINARY_OPS]
        cases += [(name + " 0-d", lambda op=op: op(cls(a), cls(b)),
                   lambda op=op: op(fa, point(cls, b))) for name, op in BINARY_OPS]
        # 0-d on both sides, and with ints: numpy gives bare Python ints for
        # operations on 0-d object arrays, which the wide path must take.
        pa, pb = point(cls, a), point(cls, b)
        cases += [("0-d " + name, lambda op=op: op(cls(a), cls(b)), lambda op=op: op(pa, pb))
                  for name, op in BINARY_OPS]
        cases += [("0-d " + name + " int", lambda op=op: op(cls(a), k), lambda op=op: op(pa, k))
                  for name, op in BINARY_OPS]
        cases += [("0-d " + name + " rint", lambda op=op: op(k, cls(a)), lambda op=op: op(k, pa))
                  for name, op in BINARY_OPS]
        cases += [("neg", lambda: -cls(a), lambda: -fa), ("abs", lambda: abs(cls(a)), lambda: abs(fa)),
                  ("sqrt", lambda: cls(a).sqrt(), lambda: fa.sqrt()),
                  ("0-d neg", lambda: -cls(a), lambda: -pa), ("0-d abs", lambda: abs(cls(a)), lambda: abs(pa))]
        for name, scalar, array in cases:
            want = scalar_outcome(scalar)
            try:
                out = array()
            except (MathOverflowError, MathDomainError, ZeroDivisionError) as exc:
                got = type(exc)
            else:
                assert out.raw.dtype == np.int64 and out.raw.shape == (() if name.startswith("0-d") else (1,))
                got = out.raw.reshape(-1).tolist()[0]
            assert got == want, (name, a, b, k)
            raised += isinstance(want, type)
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
            assert getattr(fa, op)(fb).tolist() == [getattr(cls(a), op)(cls(b))]
            assert getattr(fa, op)(k).tolist() == [getattr(cls(a), op)(k)]
    assert raised > 1000  # the range ends were exercised

    # 0-d operations whose intermediates pass 2**63: in range, and out of it.
    big = (1 << (62 - cls.FRAC_BITS)) << cls.FRAC_BITS  # the int 2**(62 - F), as a word
    for a, b, op in [(400 << cls.FRAC_BITS, 400 << cls.FRAC_BITS, operator.mul),
                     ((1 << 39) << cls.FRAC_BITS, 3 << cls.FRAC_BITS, operator.truediv),
                     (big, big, operator.add), (big, big, operator.mul), (-big, big, operator.sub),
                     (big, 1, operator.truediv), (-(1 << 63), 0, lambda x, _: -x)]:
        want = scalar_outcome(lambda: op(cls(a), cls(b)))
        try:
            got = op(point(cls, a), point(cls, b)).raw.tolist()
        except MathOverflowError as exc:
            got = type(exc)
        assert got == want, (a, b)
    assert (point(cls, 400 << cls.FRAC_BITS) * point(cls, 400 << cls.FRAC_BITS)).raw.tolist() == (
        160000 << cls.FRAC_BITS)

    # sqrt over whole arrays: 0, perfect squares, the largest raw word, and
    # a raise when any element is negative.
    be = FixedBackend(cls.FORMAT)
    roots = [0, 1, 3, 1000, (1 << 20) - 1]  # k * k fits both formats
    values = [0, 1, (1 << 63) - 1, *a_raw[:50]] + [(k * k) << cls.FRAC_BITS for k in roots]
    values = [v for v in values if v >= 0]
    got = FixedArray(np.array(values, dtype=np.int64), cls.FORMAT).sqrt()
    assert got.raw.tolist() == [cls(v).sqrt().raw for v in values]
    assert got.raw.tolist()[-len(roots):] == [k << cls.FRAC_BITS for k in roots]
    assert be.sqrt(be.words.array(values)).raw.tolist() == got.raw.tolist()
    with pytest.raises(MathDomainError):
        FixedArray(np.array([4, -1, 9], dtype=np.int64), cls.FORMAT).sqrt()

    # where: per element the operand the mask picks, of arrays or 0-d arrays.
    mask = rng.random(len(a_raw)) < 0.5
    fa = FixedArray(np.array(a_raw, dtype=np.int64), cls.FORMAT)
    fb = FixedArray(np.array(b_raw, dtype=np.int64), cls.FORMAT)
    assert be.where(mask, fa, fb).raw.tolist() == [x if m else y for m, x, y in zip(mask, a_raw, b_raw)]
    assert be.where(mask, point(cls, a_raw[0]), fb).raw.tolist() == [
        a_raw[0] if m else y for m, y in zip(mask, b_raw)]
    with pytest.raises(TypeError):
        be.where(mask, fa, 1.0)
    other = FIXED_CLASSES[1] if cls is FIXED_CLASSES[0] else FIXED_CLASSES[0]
    with pytest.raises(TypeError):
        be.where(mask, fa, FixedArray(fb.raw, other.FORMAT))


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_fixed_array_raises_where_any_element_does(cls):
    # Whole arrays: equal to the scalar results when no element fails, and
    # raising MathOverflowError when some element would overflow.
    rng = np.random.default_rng(607)
    for _ in range(400):
        size = int(rng.integers(1, 12))
        a = random_raw_values(rng, size)
        b = [v if v != 0 else 1 for v in random_raw_values(rng, size)]
        fa = FixedArray(np.array(a, dtype=np.int64), cls.FORMAT)
        fb = FixedArray(np.array(b, dtype=np.int64), cls.FORMAT)
        for _, op in BINARY_OPS:
            want = [scalar_outcome(lambda x=x, y=y: op(cls(x), cls(y))) for x, y in zip(a, b)]
            if MathOverflowError in want:
                with pytest.raises(MathOverflowError):
                    op(fa, fb)
            else:
                assert op(fa, fb).raw.tolist() == want


def test_fixed_array_truncates_negative_products_and_quotients():
    be = FixedBackend(Q40_23)
    a = FixedArray(np.array([-3, -1, 3, -(5 << 23)], dtype=np.int64), be.format)
    assert (a * be.array(0.5)).raw.tolist() == [-1, 0, 1, -(5 << 22)]
    assert (a / 2).raw.tolist() == [-1, 0, 1, -(5 << 22)]
    assert (a / be.array(-3)).raw.tolist() == [1, 0, -1, (5 << 23) // 3]
    with pytest.raises(ZeroDivisionError):
        a / be.array(0)


def test_fixed_array_conversions_match_scalar():
    rng = np.random.default_rng(608)
    values = np.concatenate([rng.normal(0.0, 1e3, 500), rng.integers(-64, 64, 100) * 2.0 ** -24])
    for cls in FIXED_CLASSES:
        be = FixedBackend(cls.FORMAT)
        scalars = [cls.from_float(float(v)) for v in values]
        arr = be.array(values)
        assert arr.raw.tolist() == [x.raw for x in scalars]
        assert arr.to_float().tolist() == [x.to_float() for x in scalars]
        assert be.floor_array(arr).tolist() == [x.floor_to_int() for x in scalars]
        assert isinstance(arr[3], FixedArray) and arr[3].raw.shape == ()
        assert arr[3].raw == arr.raw[3]
        assert arr[2:5].raw.tolist() == arr.raw[2:5].tolist()
        assert be.stack([arr, arr]).raw.tolist() == [arr.raw.tolist()] * 2


def test_fixed_array_rejects_floats_and_other_formats():
    a = FixedArray(np.array([1, 2], dtype=np.int64), FixedQ40_23.FORMAT)
    b = FixedArray(np.array([1, 2], dtype=np.int64), FixedQ47_16.FORMAT)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        a + np.array([0.5, 0.5])
    with pytest.raises(TypeError):
        bool(a)
    # Comparisons too, == and != included: neither gives a bare bool.
    for other in (0.5, np.array([0.5, 1.0]), b, FixedQ40_23(1)):
        for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(TypeError):
                getattr(a, op)(other)
    with pytest.raises(TypeError):
        a == 0.5  # noqa: B015
    with pytest.raises(TypeError):
        0.5 != a  # noqa: B015
    # A non-number is no operand: == and != fall back to identity, as for any
    # Python object, and the orderings raise.
    assert (a == None) is False and (a != None) is True  # noqa: E711
    assert None != a  # noqa: E711
    with pytest.raises(TypeError):
        a < None  # noqa: B015


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_row_sums_match_scalar_accumulation(cls):
    rng = np.random.default_rng(609)
    for size in (0, 1, 7, 80):
        rows = [random_raw_values(rng, size) for _ in range(4)]
        rows.append([(1 << 62)] * size)  # partial sums leave the range from the 2nd term
        got = FixedArray(np.array(rows, dtype=np.int64).reshape(len(rows), size), cls.FORMAT)
        for row in rows:
            acc = cls(0)
            try:
                for v in row:
                    acc = acc + cls(v)
                want = acc.raw
            except MathOverflowError:
                want = MathOverflowError
            single = FixedArray(np.array(row, dtype=np.int64), cls.FORMAT)
            try:
                assert single.row_sums()[0] == want
            except MathOverflowError:
                assert want is MathOverflowError
    # Float rows add left to right from 0.0, as a loop does.
    values = rng.normal(0.0, 1.0, (3, 1000)) * 10.0 ** rng.integers(-8, 8, (3, 1000))
    loop = []
    for row in values:
        acc = 0.0
        for v in row.tolist():
            acc += v
        loop.append(acc)
    assert FloatBackend.row_sums(values) == loop
    assert FloatBackend.row_sums(np.array([[-0.0, -0.0]])) == [0.0]
    assert math.copysign(1.0, FloatBackend.row_sums(np.array([[-0.0, -0.0]]))[0]) == 1.0


# ---------------------------------------------------------------------------
# FixedArray bounds: propagated through operation chains, never below the
# words they bound, and never changing a word or an error.

def expected_outcome(outcomes):
    """What an array operation gives for these per-element scalar outcomes:
    the raw words, or the error the array raises first."""
    for exc in (ZeroDivisionError, MathDomainError, MathOverflowError):
        if exc in outcomes:
            return exc
    return outcomes


CHAIN_OPS = [  # (name, array op, scalar op on element i), operands x, y, s, k, mask
    ("add", lambda x, y, s, k, m: x + y, lambda x, y, s, k, m, i: x[i] + y[i]),
    ("sub", lambda x, y, s, k, m: x - y, lambda x, y, s, k, m, i: x[i] - y[i]),
    ("mul", lambda x, y, s, k, m: x * y, lambda x, y, s, k, m, i: x[i] * y[i]),
    ("div", lambda x, y, s, k, m: x / y, lambda x, y, s, k, m, i: x[i] / y[i]),
    ("radd int", lambda x, y, s, k, m: k + x, lambda x, y, s, k, m, i: k + x[i]),
    ("rsub int", lambda x, y, s, k, m: k - x, lambda x, y, s, k, m, i: k - x[i]),
    ("rmul int", lambda x, y, s, k, m: k * x, lambda x, y, s, k, m, i: k * x[i]),
    ("rdiv int", lambda x, y, s, k, m: k / x, lambda x, y, s, k, m, i: k / x[i]),
    ("rsub scalar", lambda x, y, s, k, m: s - x, lambda x, y, s, k, m, i: s - x[i]),
    ("mul scalar", lambda x, y, s, k, m: x * s, lambda x, y, s, k, m, i: x[i] * s),
    ("div scalar", lambda x, y, s, k, m: x / s, lambda x, y, s, k, m, i: x[i] / s),
    ("neg", lambda x, y, s, k, m: -x, lambda x, y, s, k, m, i: -x[i]),
    ("abs", lambda x, y, s, k, m: abs(x), lambda x, y, s, k, m, i: abs(x[i])),
    ("sqrt", lambda x, y, s, k, m: x.sqrt(), lambda x, y, s, k, m, i: x[i].sqrt()),
    ("slice", lambda x, y, s, k, m: x[::-1], lambda x, y, s, k, m, i: x[-1 - i]),
    ("where", lambda x, y, s, k, m: FixedBackend(x.format).where(m, x, y),
     lambda x, y, s, k, m, i: x[i] if m[i] else y[i]),
]


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_fixed_array_bounds_hold_through_operation_chains(cls):
    from edgetrack.realmath import _max_abs

    rng = np.random.default_rng(610)
    size = 6

    def random_array(max_bits):
        bits = rng.integers(0, max_bits, size)
        raw = [int(rng.integers(-(1 << int(b)), 1 << int(b), endpoint=True)) for b in bits]
        return FixedArray(np.array(raw, dtype=np.int64), cls.FORMAT)

    counts = {"ok": 0, "raised": 0}
    for _ in range(60):
        pool = [random_array(int(rng.integers(8, 63))) for _ in range(4)]
        for _ in range(25):
            name, array_op, scalar_op = CHAIN_OPS[int(rng.integers(len(CHAIN_OPS)))]
            x, y = (pool[int(j)] for j in rng.integers(len(pool), size=2))
            s = cls(int(rng.integers(-(1 << 40), 1 << 40)))
            k = int(rng.integers(-(1 << 20), 1 << 20))
            mask = rng.random(size) < 0.5
            xs, ys = [cls(v) for v in x.raw.tolist()], [cls(v) for v in y.raw.tolist()]
            want = expected_outcome([scalar_outcome(lambda i=i: scalar_op(xs, ys, s, k, mask, i))
                                     for i in range(size)])
            try:
                got = array_op(x, y, point(cls, s.raw), k, mask)
            except (MathOverflowError, MathDomainError, ZeroDivisionError) as exc:
                assert type(exc) is want, name
                counts["raised"] += 1
                continue
            assert got.raw.dtype == np.int64 and got.raw.tolist() == want, name
            assert got._bound is None or got._bound >= _max_abs(got.raw), name
            pool = pool[1:] + [got]
            counts["ok"] += 1

            # row_sums of the result, against a left-to-right scalar sum.
            acc = cls(0)
            want_sum = scalar_outcome(lambda: sum((cls(v) for v in got.raw.tolist()), acc))
            assert scalar_outcome(lambda: cls(got.row_sums()[0])) == want_sum
    assert counts["ok"] > 600 and counts["raised"] > 50

    # Propagated bounds past 2**63 on values that fit: a rescan finds the
    # tight bound and the words stay int64, as the scalar path gives them.
    a = FixedArray(np.array([1 << 62, -(1 << 62), 5, 0], dtype=np.int64), cls.FORMAT)
    b = FixedArray(np.array([-(1 << 62) + 3, (1 << 62) - 7, -5, 9], dtype=np.int64), cls.FORMAT)
    c = a + b
    assert c.raw.tolist() == [3, -7, 0, 9] and c._bound > 1 << 62
    for got, op in ((c + c, lambda u, v: u + v), (c * c, lambda u, v: u * v),
                    ((c + c) - c, lambda u, v: u + v - u)):
        assert got._bound < 1 << 63
        assert got.raw.tolist() == [op(cls(v), cls(v)).raw for v in c.raw.tolist()]

    # True overflows raise where the scalar path raises.
    big = (1 << 62) + 1
    quarter = cls.from_float(0.25)
    for op in (lambda u, q: u + u, lambda u, q: u - (-u), lambda u, q: u * u, lambda u, q: u * 4,
               lambda u, q: u / q):
        with pytest.raises(MathOverflowError):
            op(cls(big), quarter)
        with pytest.raises(MathOverflowError):
            op(FixedArray(np.array([3, big, -7], dtype=np.int64), cls.FORMAT), point(cls, quarter.raw))


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_stack_bound_is_the_items_largest(cls):
    # A stack carries the largest of its items' bounds, none when an item
    # has none; its words, and the words and errors of operations on it,
    # are those of the same stack scanned.  The items are arrays, or 0-d
    # arrays of single elements.
    from edgetrack.realmath import _max_abs

    be = FixedBackend(cls.FORMAT)
    rng = np.random.default_rng(611)

    def outcome(fn):
        try:
            return fn().raw.tolist()
        except MathOverflowError:
            return MathOverflowError

    def random_array(max_bits, size=5):
        bits = rng.integers(0, max_bits, size)
        raw = [int(rng.integers(-(1 << int(b)), 1 << int(b), endpoint=True)) for b in bits]
        return FixedArray(np.array(raw, dtype=np.int64), cls.FORMAT)

    raised = 0
    for _ in range(150):
        x, y = random_array(int(rng.integers(8, 63))), random_array(int(rng.integers(8, 40)))
        try:
            items = [x * y if rng.random() < 0.8 else x / (y + 1), x + x, -y]
        except MathOverflowError:
            continue
        items = items[:int(rng.integers(1, 4))]
        for stack_items in (items, [x[int(i)] for i in rng.integers(0, 5, 4)]):
            got = be.stack(stack_items)
            assert got.raw.tolist() == [v.raw.tolist() for v in stack_items]
            bounds = [v._bound for v in stack_items]
            assert got._bound == (None if None in bounds else max(bounds))
            assert got._bound is None or got._bound >= _max_abs(got.raw)
            scanned = FixedArray(got.raw.copy(), cls.FORMAT)
            for op in (lambda a: a * a, lambda a: a + a, lambda a: a - a * 3, lambda a: -a):
                want = outcome(lambda: op(scanned))
                assert outcome(lambda: op(got)) == want
                raised += want is MathOverflowError
    assert raised > 20
    assert be.stack([]).raw.size == 0


@pytest.mark.parametrize("cls", FIXED_CLASSES)
def test_word_array_bound_is_the_words_largest_magnitude(cls, monkeypatch):
    # An array made from words carries their largest magnitude as its bound,
    # so neither it nor an operation on it scans; the words are unchanged.
    from edgetrack import realmath

    w = FixedBackend(cls.FORMAT).words
    words = [[3 << 20, -(7 << 30), 5], [0, 1, -(1 << 36)]]
    monkeypatch.setattr(realmath, "_max_abs", lambda raw: pytest.fail("scanned"))
    arr = w.array(words)
    assert arr.raw.tolist() == words and arr.bound == 1 << 36
    assert (arr * arr).raw.tolist() == [[w.mul(v, v) for v in row] for row in words]
    assert w.array([5, -9]).bound == 9 and w.array([]).bound == 0


# ---------------------------------------------------------------------------
# Word operations, the integer-operand multiply and the in-place truncation
# of int64 products, against FixedPoint.

WORD_LIMIT = 1 << 63


def raw_words():
    """Raw words at every magnitude, of both signs, and at the range ends."""
    ends = st.sampled_from([-WORD_LIMIT, -WORD_LIMIT + 1, WORD_LIMIT - 1, WORD_LIMIT - 2, 0, 1, -1])
    sized = st.integers(0, 63).flatmap(lambda b: st.integers(-(1 << b), (1 << b) - 1))
    return st.one_of(ends, sized)


def outcome(fn):
    """A word or array operation's words, or the class of what it raised."""
    try:
        out = fn()
    except (MathOverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return out.raw.tolist() if isinstance(out, FixedArray) else out


WORD_OPS = [("add", operator.add), ("sub", operator.sub), ("mul", operator.mul),
            ("div", operator.truediv)]


@pytest.mark.parametrize("fmt", [Q40_23, Q47_16], ids=str)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=raw_words(), b=raw_words())
def test_word_operations_match_fixed_point(fmt, a, b):
    # Each word operation gives FixedPoint's word and raises its error; the
    # listed pairs truncate negative results and reach both range ends.
    cls, w = fixed_type(fmt), FixedBackend(fmt).words
    half, two = 1 << (fmt.fraction_bits - 1), 2 << fmt.fraction_bits
    pairs = [(a, b), (-3, half), (3, -half), (-3, two), (3, -two), (-1, 1), (WORD_LIMIT - 1, 1),
             (-WORD_LIMIT, 1), (-WORD_LIMIT, -1), (1 << 62, 1 << 62), (1 << 62, 1), (a, 0)]
    for x, y in pairs:
        for name, op in WORD_OPS:
            want = scalar_outcome(lambda: op(cls(x), cls(y)))
            assert outcome(lambda: getattr(w, name)(x, y)) == want, (name, x, y)
        assert outcome(lambda: w.neg(x)) == scalar_outcome(lambda: -cls(x)), x


def int_operands():
    """Ints whose words lie in the range of either format, and ints at and
    past its ends (k << F is a word for -2**I <= k < 2**I)."""
    ends = [s * (1 << bits) + d for bits in (40, 47) for s in (1, -1) for d in (-1, 0, 1)]
    return st.one_of(st.integers(-300, 300), st.integers(-(1 << 47), 1 << 47), st.sampled_from(ends))


NEAR_LIMIT = (WORD_LIMIT - 1) // 3  # times 3 a product just below 2**63


@pytest.mark.parametrize("fmt", [Q40_23, Q47_16], ids=str)
@settings(derandomize=True, max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(raw_words(), int_operands()), min_size=1, max_size=5),
       slack=st.sampled_from([0, 1, 1 << 40, WORD_LIMIT]))
@example(pairs=[(NEAR_LIMIT, 3), (-NEAR_LIMIT, 3), (NEAR_LIMIT, -3), (-NEAR_LIMIT, -3)], slack=0)
@example(pairs=[(1, 1 << 47), (1, 1 << 40)], slack=0)  # each past the range of one format
def test_fixed_array_times_int_matches_fixed_point(fmt, pairs, slack):
    # x * k for an int or an integer ndarray k: per element FixedPoint's
    # word, MathOverflowError where an element or k's word overflows, and a
    # propagated bound no smaller than the result's largest magnitude.  The
    # operand carries a bound at or above its own, so that both the
    # propagated bound and a rescan decide the path.
    from edgetrack.realmath import _max_abs

    cls = fixed_type(fmt)
    raw, ks = (list(c) for c in zip(*pairs))
    x = FixedArray(np.array(raw, dtype=np.int64), cls.FORMAT, _max_abs(np.array(raw)) + slack)
    cases = [(ks[0], [scalar_outcome(lambda v=v: cls(v) * ks[0]) for v in raw]),
             (np.array(ks), [scalar_outcome(lambda v=v, k=k: cls(v) * k) for v, k in zip(raw, ks)])]
    for k, per_element in cases:
        want = expected_outcome(per_element)
        for got in (lambda: x * k, lambda: k * x):
            assert outcome(got) == want, (raw, k)
        if not isinstance(want, type):
            out = x * k
            assert out.raw.dtype == np.int64
            assert out._bound is not None and out._bound >= _max_abs(out.raw)


@pytest.mark.parametrize("fmt", [Q40_23, Q47_16], ids=str)
@settings(derandomize=True, max_examples=80, deadline=None)
@given(a=raw_words().map(abs).filter(lambda v: 0 < v < WORD_LIMIT), gap=st.integers(0, 1 << 20),
       signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
def test_int64_products_near_the_word_limit_truncate_toward_zero(fmt, a, gap, signs):
    # Products of both signs within a little of 2**63 in magnitude run in
    # int64 and are truncated in place: FixedPoint's words, for arrays and
    # 0-d arrays.
    cls = fixed_type(fmt)
    b = max(1, (WORD_LIMIT - 1) // a - gap)  # a b < 2**63, near it when gap is small
    x, y = signs[0] * a, signs[1] * b
    want = [scalar_outcome(lambda v=v: cls(v) * cls(y)) for v in (x, -x, 0)]
    fx = FixedArray(np.array([x, -x, 0], dtype=np.int64), cls.FORMAT)
    fy = FixedArray(np.array([y, y, y], dtype=np.int64), cls.FORMAT)
    assert (fx * fy).raw.tolist() == want
    assert (point(cls, x) * point(cls, y)).raw.tolist() == want[0]
