"""Real-number backends for the tracker: native floats or 64-bit fixed point.

All tracker math is written against a small backend protocol (``FloatBackend``
/ ``FixedBackend``) so the same code runs in double precision or in
deterministic Q-format fixed point.  Two Q formats are supported: Q40.23
(default) and Q47.16.  Fixed-point values are immutable and every operation
detects overflow instead of wrapping.

The protocol has a scalar half (``FixedPoint`` values) and an array half
(``FixedArray``, float64 ndarrays on the float backend) with the same
per-element results, so per-edge and per-point stages run once over all
edges or points.  ``sqrt`` takes either half; ``where`` selects between
arrays or scalars by a mask.  A ``FixedArray`` carries a bound on its raw
magnitudes from operation to operation, and its words are scanned only
where no bound was propagated or the propagated bounds fail to prove an
operation exact.  ``backend.words`` (``WordOps``) runs scalar arithmetic
on the plain numbers the scalars hold, for loops of many scalar steps.

Rounding rules, fixed so runs are bit-reproducible:

* float -> fixed conversion rounds to nearest, ties away from zero;
* add/sub are exact on the raw representation;
* mul/div go through a double-width intermediate and truncate toward zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partialmethod
from math import isqrt
from typing import Callable, ClassVar, NamedTuple

import numpy as np


class MathOverflowError(OverflowError):
    """A fixed-point result fell outside the representable range."""


class MathDomainError(ValueError):
    """An operation was called outside its mathematical domain."""


@dataclass(frozen=True)
class QFormat:
    """Bit layout of a 64-bit signed fixed-point word (sign bit excluded)."""

    integer_bits: int
    fraction_bits: int

    def __post_init__(self):
        if 1 + self.integer_bits + self.fraction_bits != 64:
            raise ValueError(
                f"Q{self.integer_bits}.{self.fraction_bits}: sign + integer "
                "+ fraction bits must total 64"
            )

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.fraction_bits

    def __str__(self) -> str:
        return f"Q{self.integer_bits}.{self.fraction_bits}"


Q40_23 = QFormat(integer_bits=40, fraction_bits=23)
Q47_16 = QFormat(integer_bits=47, fraction_bits=16)


# ---------------------------------------------------------------------------
# Integer helpers (arbitrary-precision Python ints stand in for the
# double-width intermediates).

_WORD_LIMIT = 1 << 63  # a magnitude below this fits a signed 64-bit word


def _word(raw: int) -> int:
    """raw as a fixed-point word: MathOverflowError unless it lies in the
    signed 64-bit range, the range check of every FixedPoint result."""
    if not -_WORD_LIMIT <= raw < _WORD_LIMIT:
        raise MathOverflowError(f"raw value {raw} outside the 64-bit word range")
    return raw


def _trunc_shift(n: int, shift: int) -> int:
    """n >> shift, truncating toward zero rather than toward -inf."""
    if n >= 0:
        return n >> shift
    return -((-n) >> shift)


def _trunc_div(a: int, b: int) -> int:
    """a / b truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _round_half_away(n: int, shift: int) -> int:
    """n >> shift rounded to nearest, ties away from zero."""
    half = 1 << (shift - 1)
    if n >= 0:
        return (n + half) >> shift
    return -((-n + half) >> shift)


def _round_div(a: int, b: int) -> int:
    """a / b rounded to nearest, ties away from zero (b > 0)."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((2 * (-a) + b) // (2 * b))


# ---------------------------------------------------------------------------
# Trigonometric kernels.
#
# Polynomials are evaluated in a 30-fraction-bit integer format regardless of
# the target Q format, then rounded once at the end.  Evaluating directly in
# Q47.16 would accumulate ~5 ulp of truncation error through the Horner chain
# and miss the 2^-16 accuracy contract; the guard bits make the final rounding
# the dominant error.

_G = 30
_ONE_G = 1 << _G
_HALF_PI_G = int(round(0.5 * math.pi * _ONE_G))


def _mul_g(a: int, b: int) -> int:
    return _trunc_shift(a * b, _G)


def _sin_poly(x: int) -> int:
    # sin(x) = x(1 - u/6(1 - u/20(1 - u/42(1 - u/72)))), u = x^2, |x| <= pi/4
    u = _mul_g(x, x)
    w = _ONE_G - u // 72
    w = _ONE_G - _mul_g(u, w) // 42
    w = _ONE_G - _mul_g(u, w) // 20
    w = _ONE_G - _mul_g(u, w) // 6
    return _mul_g(x, w)


def _cos_poly(x: int) -> int:
    # cos(x) = 1 - u/2(1 - u/12(1 - u/30(1 - u/56))), u = x^2, |x| <= pi/4
    u = _mul_g(x, x)
    w = _ONE_G - u // 56
    w = _ONE_G - _mul_g(u, w) // 30
    w = _ONE_G - _mul_g(u, w) // 12
    return _ONE_G - _mul_g(u, w) // 2


def _reduce_quadrant(x: int) -> tuple[int, int]:
    """Return (r, q) with x = r + q * pi/2, |r| <= pi/4, q in 0..3."""
    k = _round_div(x, _HALF_PI_G)
    return x - k * _HALF_PI_G, k % 4


def _sin_core(x: int) -> int:
    r, q = _reduce_quadrant(x)
    if q == 0:
        return _sin_poly(r)
    if q == 1:
        return _cos_poly(r)
    if q == 2:
        return -_sin_poly(r)
    return -_cos_poly(r)


def _cos_core(x: int) -> int:
    r, q = _reduce_quadrant(x)
    if q == 0:
        return _cos_poly(r)
    if q == 1:
        return -_sin_poly(r)
    if q == 2:
        return -_cos_poly(r)
    return _sin_poly(r)


def _sin_raw(raw: int, frac_bits: int) -> int:
    return _round_half_away(_sin_core(raw << (_G - frac_bits)), _G - frac_bits)


def _cos_raw(raw: int, frac_bits: int) -> int:
    return _round_half_away(_cos_core(raw << (_G - frac_bits)), _G - frac_bits)


# ---------------------------------------------------------------------------
# Fixed-point scalar.

class FixedPoint:
    """Immutable 64-bit signed fixed-point number.

    Use the concrete per-format subclasses (see :func:`fixed_type`); values of
    different formats never mix in one expression.  Plain ints mix freely and
    are converted exactly; floats are rejected so precision cannot leak in
    silently.
    """

    __slots__ = ("raw",)

    FORMAT: ClassVar[QFormat]
    FRAC_BITS: ClassVar[int]

    def __init__(self, raw: int):
        self.raw = _word(raw)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_float(cls, value: float) -> "FixedPoint":
        if isinstance(value, int):
            return cls.from_int(value)
        if not math.isfinite(value):
            raise MathDomainError(f"cannot represent {value!r} in {cls.FORMAT}")
        scaled = value * (1 << cls.FRAC_BITS)  # exact: power-of-two scale
        if abs(scaled) >= 2.0 ** 52:
            raw = int(scaled)
        elif scaled >= 0.0:
            raw = math.floor(scaled + 0.5)
        else:
            raw = math.ceil(scaled - 0.5)
        return cls(raw)

    @classmethod
    def from_int(cls, value: int) -> "FixedPoint":
        return cls(value << cls.FRAC_BITS)

    # -- conversion ---------------------------------------------------------

    def to_float(self) -> float:
        return self.raw / (1 << self.FRAC_BITS)

    def floor_to_int(self) -> int:
        return self.raw >> self.FRAC_BITS

    # -- arithmetic ---------------------------------------------------------

    def _operand_raw(self, other):
        """Raw value of a compatible operand, range-checked; None if unsupported."""
        if type(other) is type(self):
            return other.raw
        if isinstance(other, int):
            raw = other << self.FRAC_BITS
            if not -_WORD_LIMIT <= raw < _WORD_LIMIT:
                raise MathOverflowError(f"int operand {other} outside {self.FORMAT} range")
            return raw
        return None

    def __add__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        return type(self)(self.raw + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        return type(self)(self.raw - o)

    def __rsub__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        return type(self)(o - self.raw)

    def __mul__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        return type(self)(_trunc_shift(self.raw * o, self.FRAC_BITS))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        if o == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return type(self)(_trunc_div(self.raw << self.FRAC_BITS, o))

    def __rtruediv__(self, other):
        o = self._operand_raw(other)
        if o is None:
            return NotImplemented
        if self.raw == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return type(self)(_trunc_div(o << self.FRAC_BITS, self.raw))

    def __neg__(self):
        return type(self)(-self.raw)

    def __pos__(self):
        return self

    def __abs__(self):
        return type(self)(abs(self.raw))

    # -- comparisons --------------------------------------------------------

    def _cmp_raw(self, other):
        """Raw value for comparison; ints compare exactly, no range limit."""
        if type(other) is type(self):
            return other.raw
        if isinstance(other, int):
            return other << self.FRAC_BITS
        return None

    def __eq__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw == o

    def __ne__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw != o

    def __lt__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw < o

    def __le__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw <= o

    def __gt__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw > o

    def __ge__(self, other):
        o = self._cmp_raw(other)
        return NotImplemented if o is None else self.raw >= o

    def __bool__(self):
        return self.raw != 0

    # -- elementary functions -----------------------------------------------

    def sqrt(self) -> "FixedPoint":
        """Square root, error within 2 ulp; exact for perfect squares."""
        if self.raw < 0:
            raise MathDomainError("sqrt of negative fixed-point value")
        return type(self)(isqrt(self.raw << self.FRAC_BITS))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_float()!r})"


def _make_fixed_class(fmt: QFormat) -> type[FixedPoint]:
    name = f"FixedQ{fmt.integer_bits}_{fmt.fraction_bits}"
    return type(
        name,
        (FixedPoint,),
        {
            "__slots__": (),
            "FORMAT": fmt,
            "FRAC_BITS": fmt.fraction_bits,
        },
    )


FixedQ40_23 = _make_fixed_class(Q40_23)
FixedQ47_16 = _make_fixed_class(Q47_16)

_FIXED_TYPES = {Q40_23: FixedQ40_23, Q47_16: FixedQ47_16}


def fixed_type(fmt: QFormat) -> type[FixedPoint]:
    """Concrete FixedPoint subclass for one of the two supported formats."""
    try:
        return _FIXED_TYPES[fmt]
    except KeyError:
        raise ValueError(f"unsupported fixed-point format {fmt}") from None


# ---------------------------------------------------------------------------
# Fixed-point arrays.

def _max_abs(raw) -> int:
    """Largest magnitude in an integer array, as a Python int (0 when empty)."""
    if raw.size == 0:
        return 0
    return max(-int(raw.min()), int(raw.max()))


def _nonzero(divisor):
    """The divisor words, or ZeroDivisionError when one of them is zero."""
    if not (divisor.all() if isinstance(divisor, np.ndarray) else divisor):
        raise ZeroDivisionError("fixed-point division by zero")
    return divisor


def _trunc_shift_array(p, shift: int):
    """Elementwise p >> shift truncated toward zero; numpy's >> floors."""
    if p.dtype == object:
        return np.where(p < 0, -((-p) >> shift), p >> shift)
    # int64: adding 2**shift - 1 to the negative words first makes the
    # floor shift truncate, without a branch.
    return (p + ((p >> 63) & ((1 << shift) - 1))) >> shift


def _trunc_div_array(a, b):
    """Elementwise a / b truncated toward zero; numpy's // floors."""
    if (a if isinstance(a, np.ndarray) else b).dtype == object:
        q = abs(a) // abs(b)
        return np.where((a < 0) != (b < 0), -q, q)
    # int64: fmod leaves the remainder with a's sign, so a minus it is the
    # multiple of b next toward zero and the floor division is exact.
    return (a - np.fmod(a, b)) // b


class FixedArray:
    """Array of fixed-point numbers with the per-element semantics of FixedPoint.

    ``raw`` is an int64 ndarray of raw words in ``scalar_type``'s format.
    Every operation gives, element by element, the raw word the FixedPoint
    operation gives, and raises MathOverflowError exactly when one of those
    would.  It computes in int64 only where the operands' magnitudes prove
    the result exact, and in Python ints otherwise, so nothing ever wraps.

    The magnitudes come from ``bound``, an upper bound on the raw
    magnitudes that each result carries from its operands' bounds: a + b and
    a - b give ba + bb, a * b gives (ba * bb) >> F, negation, abs and
    slicing keep the bound, ``where`` takes the larger, sqrt gives
    isqrt(b << F).  The words are scanned (one min and one max reduction)
    only for an array without a bound (quotients, stacks) and when the
    propagated bounds fail to prove an operation exact; the tight bounds of
    that rescan then decide, as a scan of every operand would.

    Operands are arrays or scalars of the same format, ints and integer
    ndarrays (scaled by 2**F as plain ints are); floats are rejected.
    Integer indices return FixedPoint scalars, other indices FixedArrays.
    """

    __slots__ = ("raw", "scalar_type", "_bound", "_scanned")

    # ndarray OP FixedArray returns NotImplemented, so the reflected method
    # here runs instead of numpy building an object array of FixedPoints.
    __array_ufunc__ = None

    def __init__(self, raw: np.ndarray, scalar_type: type[FixedPoint], bound=None):
        self.raw = raw
        self.scalar_type = scalar_type
        self._bound = bound
        self._scanned = False

    @property
    def FORMAT(self) -> QFormat:
        return self.scalar_type.FORMAT

    @property
    def bound(self) -> int:
        """Upper bound on the raw magnitudes; scanned when none was propagated."""
        return self._scan() if self._bound is None else self._bound

    def _scan(self) -> int:
        """Largest raw magnitude, which becomes the bound; scanned once."""
        if not self._scanned:
            self._bound = _max_abs(self.raw)
            self._scanned = True
        return self._bound

    def _new(self, raw, bound) -> "FixedArray":
        """Wrap an exact raw result with a bound on its magnitudes; a
        Python-int result is range-checked, which also gives its tight bound."""
        st = self.scalar_type
        if raw.dtype != object:
            return FixedArray(raw, st, bound)
        lo, hi = (int(raw.min()), int(raw.max())) if raw.size else (0, 0)
        if lo < -_WORD_LIMIT or hi >= _WORD_LIMIT:
            raise MathOverflowError(f"raw value outside {st.FORMAT} range")
        out = FixedArray(raw.astype(np.int64), st, max(-lo, hi))
        out._scanned = True
        return out

    def _words(self, other, need):
        """Raw words of this array and of a compatible operand, and
        need(bound, operand bound): a bound on the magnitudes of the
        operation's intermediates and result; None if the operand is
        unsupported.  Int operands are range-checked.

        The words stay int64 when the propagated bounds prove every
        intermediate below 2**63.  Otherwise the arrays are scanned for
        tight bounds and need is taken again; only when even those fail do
        the words come back as Python ints.
        """
        st = self.scalar_type
        arr = None
        if type(other) is FixedArray:
            if other.scalar_type is not st:
                return None
            raw, arr = other.raw, other
            bound = other._scan() if other._bound is None else other._bound
        elif type(other) is st:
            raw = other.raw
            bound = abs(raw)
        elif isinstance(other, (int, np.integer)):
            raw = int(other) << st.FRAC_BITS
            if not -_WORD_LIMIT <= raw < _WORD_LIMIT:
                raise MathOverflowError(f"int operand {other} outside {st.FORMAT} range")
            bound = abs(raw)
        elif isinstance(other, np.ndarray) and other.dtype.kind in "iu":
            lo, hi = (int(other.min()), int(other.max())) if other.size else (0, 0)
            if lo << st.FRAC_BITS < -_WORD_LIMIT or hi << st.FRAC_BITS >= _WORD_LIMIT:
                raise MathOverflowError(f"int operand outside {st.FORMAT} range")
            raw, bound = other.astype(np.int64) << st.FRAC_BITS, max(-lo, hi) << st.FRAC_BITS
        else:
            return None
        n = need(self._scan() if self._bound is None else self._bound, bound)
        if n >= _WORD_LIMIT:
            n = need(self._scan(), bound if arr is None else arr._scan())
            if n >= _WORD_LIMIT:  # Python ints, in which nothing can wrap
                wide = raw.astype(object) if isinstance(raw, np.ndarray) else raw
                return self.raw.astype(object), wide, n
        return self.raw, raw, n

    def _own_words(self, factor: int = 1):
        """The raw words as _words gives them, for an operation on this
        array alone whose intermediates reach factor times its magnitudes."""
        if factor * self.bound >= _WORD_LIMIT and factor * self._scan() >= _WORD_LIMIT:
            return self.raw.astype(object)
        return self.raw

    # -- conversion ---------------------------------------------------------

    def to_float(self) -> np.ndarray:
        return self.raw / (1 << self.scalar_type.FRAC_BITS)

    def floor_to_int(self) -> np.ndarray:
        return self.raw >> self.scalar_type.FRAC_BITS

    def __getitem__(self, key):
        raw = self.raw[key]
        if isinstance(raw, np.ndarray):
            return FixedArray(raw, self.scalar_type, self._bound)
        return self.scalar_type(int(raw))

    def __bool__(self):
        raise TypeError("the truth value of a FixedArray is ambiguous")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        w = self._words(other, operator.add)
        if w is None:
            return NotImplemented
        a, b, bound = w
        return self._new(a + b, bound)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._words(other, operator.add)
        if w is None:
            return NotImplemented
        a, b, bound = w
        return self._new(a - b, bound)

    def __rsub__(self, other):
        w = self._words(other, operator.add)
        if w is None:
            return NotImplemented
        a, b, bound = w
        return self._new(b - a, bound)

    def __mul__(self, other):
        w = self._words(other, operator.mul)
        if w is None:
            return NotImplemented
        a, b, bound = w
        shift = self.scalar_type.FRAC_BITS
        return self._new(_trunc_shift_array(a * b, shift), bound >> shift)

    __rmul__ = __mul__

    # Division gives (a << F) / b truncated toward zero, as FixedPoint's
    # __truediv__ and __rtruediv__ do; a quotient carries no bound.

    def __truediv__(self, other):
        shift = self.scalar_type.FRAC_BITS
        w = self._words(other, lambda ba, bb: max(ba << shift, bb))
        if w is None:
            return NotImplemented
        a, b, _ = w
        return self._new(_trunc_div_array(a << shift, _nonzero(b)), None)

    def __rtruediv__(self, other):
        shift = self.scalar_type.FRAC_BITS
        w = self._words(other, lambda bb, ba: max(ba << shift, bb))
        if w is None:
            return NotImplemented
        b, a, _ = w
        return self._new(_trunc_div_array(a << shift, _nonzero(b)), None)

    def __neg__(self):
        return self._new(-self._own_words(), self.bound)

    def __abs__(self):
        return self._new(abs(self._own_words()), self.bound)

    def sqrt(self) -> "FixedArray":
        """Elementwise FixedPoint.sqrt; MathDomainError if any element is negative."""
        if np.any(self.raw < 0):
            raise MathDomainError("sqrt of negative fixed-point value")
        shift = self.scalar_type.FRAC_BITS
        root = [isqrt(r << shift) for r in self.raw.ravel().tolist()]
        bound = None if self._bound is None else isqrt(self._bound << shift)
        return FixedArray(np.array(root, dtype=np.int64).reshape(self.raw.shape),
                          self.scalar_type, bound)

    # -- comparisons --------------------------------------------------------

    def _compare(self, other, op):
        """Elementwise comparison; ints compare exactly, with no range limit."""
        st = self.scalar_type
        if type(other) is st or (isinstance(other, FixedArray) and other.scalar_type is st):
            return op(self.raw, other.raw)
        if isinstance(other, (int, np.integer)):
            return op(self.raw, int(other) << st.FRAC_BITS)
        return NotImplemented

    __eq__ = partialmethod(_compare, op=operator.eq)
    __ne__ = partialmethod(_compare, op=operator.ne)
    __lt__ = partialmethod(_compare, op=operator.lt)
    __le__ = partialmethod(_compare, op=operator.le)
    __gt__ = partialmethod(_compare, op=operator.gt)
    __ge__ = partialmethod(_compare, op=operator.ge)
    __hash__ = None

    # -- reductions ---------------------------------------------------------

    def row_sums(self) -> list:
        """Sum along the last axis, left to right from zero, one FixedPoint
        per row; every partial sum is range-checked, as FixedPoint's + does."""
        st = self.scalar_type
        *rows, count = self.raw.shape
        if count == 0:
            return [st(0) for _ in range(math.prod(rows))]
        raw = self._own_words(count).reshape(-1, count)
        partial = self._new(np.cumsum(raw, axis=1), None).raw
        return [st(int(v)) for v in partial[:, -1]]


# ---------------------------------------------------------------------------
# Backends.

class WordOps(NamedTuple):
    """Scalar arithmetic on a backend's words, the plain numbers its scalars
    hold: floats, or raw fixed-point words as Python ints, rounded and
    range-checked as FixedPoint's own operators round and check them.  A
    loop of many scalar steps runs on words and skips the scalar objects."""

    word: Callable  # backend scalar -> word
    scalar: Callable  # word -> backend scalar
    to_float: Callable  # word -> float, as the backend's to_float gives it
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    div: Callable


def _same(x):
    return x


def _fixed_word_ops(st: type[FixedPoint]) -> WordOps:
    """WordOps on the raw words of the format of st."""
    shift = st.FRAC_BITS
    scale = 1 << shift

    def mul(a: int, b: int) -> int:
        return _word(_trunc_shift(a * b, shift))

    def div(a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return _word(_trunc_div(a << shift, b))

    return WordOps(word=operator.attrgetter("raw"), scalar=st, to_float=lambda w: w / scale,
                   add=lambda a, b: _word(a + b), sub=lambda a, b: _word(a - b),
                   neg=lambda a: _word(-a), mul=mul, div=div)


class FloatBackend:
    """Native double-precision arithmetic."""

    name = "float"
    is_fixed = False
    zero = 0.0
    one = 1.0

    @staticmethod
    def from_float(value: float) -> float:
        return float(value)

    @staticmethod
    def from_int(value: int) -> float:
        return float(value)

    @staticmethod
    def to_float(value: float) -> float:
        return value

    @staticmethod
    def sqrt(value):
        """Square root of a float or, elementwise, of a float64 ndarray."""
        if isinstance(value, np.ndarray):
            if np.any(value < 0.0):
                raise MathDomainError("sqrt of negative value")
            return np.sqrt(value)
        if value < 0.0:
            raise MathDomainError("sqrt of negative value")
        return math.sqrt(value)

    @staticmethod
    def sin(value: float) -> float:
        return math.sin(value)

    @staticmethod
    def cos(value: float) -> float:
        return math.cos(value)

    @staticmethod
    def floor_to_int(value: float) -> int:
        return math.floor(value)

    words = WordOps(word=_same, scalar=_same, to_float=_same, add=operator.add,
                    sub=operator.sub, neg=operator.neg, mul=operator.mul, div=operator.truediv)

    # -- array half: float64 ndarrays -----------------------------------------

    @staticmethod
    def stack(items) -> np.ndarray:
        """Array of backend scalars, or of equal-shape arrays one axis up."""
        return np.array(items, dtype=np.float64)

    @staticmethod
    def floor_array(values: np.ndarray) -> np.ndarray:
        return np.floor(values).astype(np.int64)

    @staticmethod
    def where(mask, x, y) -> np.ndarray:
        """Elementwise x where mask holds, else y."""
        return np.where(mask, x, y)

    @staticmethod
    def row_sums(values: np.ndarray) -> list:
        """Sum along the last axis, left to right from 0.0, one float per row.

        np.sum sums pairwise, which rounds differently from a scalar loop;
        an accumulation runs in order.
        """
        *rows, count = values.shape
        if count == 0:
            return [0.0] * math.prod(rows)
        return (0.0 + np.cumsum(values.reshape(-1, count), axis=1)[:, -1]).tolist()

    def __repr__(self):
        return "FloatBackend()"


class FixedBackend:
    """Deterministic fixed-point arithmetic in a given Q format."""

    is_fixed = True

    def __init__(self, fmt: QFormat):
        self.format = fmt
        self.scalar_type = fixed_type(fmt)
        self.name = f"q{fmt.integer_bits}_{fmt.fraction_bits}"
        self.zero = self.scalar_type(0)
        self.one = self.scalar_type.from_int(1)
        self.words = _fixed_word_ops(self.scalar_type)

    def from_float(self, value: float) -> FixedPoint:
        return self.scalar_type.from_float(value)

    def from_int(self, value: int) -> FixedPoint:
        return self.scalar_type.from_int(value)

    @staticmethod
    def to_float(value: FixedPoint) -> float:
        return value.to_float()

    @staticmethod
    def sqrt(value):
        """FixedPoint.sqrt of a scalar, or FixedArray.sqrt of an array."""
        return value.sqrt()

    def sin(self, value: FixedPoint) -> FixedPoint:
        return self.scalar_type(_sin_raw(value.raw, value.FRAC_BITS))

    def cos(self, value: FixedPoint) -> FixedPoint:
        return self.scalar_type(_cos_raw(value.raw, value.FRAC_BITS))

    @staticmethod
    def floor_to_int(value: FixedPoint) -> int:
        return value.floor_to_int()

    # -- array half: FixedArray -----------------------------------------------

    def stack(self, items) -> FixedArray:
        """Array of backend scalars, or of equal-shape arrays one axis up."""
        return FixedArray(np.array([x.raw for x in items], dtype=np.int64), self.scalar_type)

    @staticmethod
    def floor_array(values: FixedArray) -> np.ndarray:
        return values.floor_to_int()

    def where(self, mask, x, y) -> FixedArray:
        """Elementwise x where mask holds, else y; arrays or scalars of this format."""
        st = self.scalar_type
        for v in (x, y):
            if not (type(v) is st or (isinstance(v, FixedArray) and v.scalar_type is st)):
                raise TypeError(f"where needs {st.FORMAT} values, got {type(v).__name__}")
        bounds = [v._bound if type(v) is FixedArray else abs(v.raw) for v in (x, y)]
        bound = None if None in bounds else max(bounds)
        return FixedArray(np.where(mask, x.raw, y.raw), st, bound)

    @staticmethod
    def row_sums(values: FixedArray) -> list:
        return values.row_sums()

    def __repr__(self):
        return f"FixedBackend({self.format})"


BACKEND_NAMES = ("float", "q40_23", "q47_16")


def get_backend(name: str):
    """Backend instance for a CLI/config name: float, q40_23 or q47_16."""
    if name == "float":
        return FloatBackend()
    if name == "q40_23":
        return FixedBackend(Q40_23)
    if name == "q47_16":
        return FixedBackend(Q47_16)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
