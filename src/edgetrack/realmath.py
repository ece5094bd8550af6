"""Real-number backends for the tracker: native floats or 64-bit fixed point.

All tracker math is written against a small backend protocol (``FloatBackend``
/ ``FixedBackend``) so the same code runs in double precision or in
deterministic Q-format fixed point.  Two Q formats are supported: Q40.23
(default) and Q47.16.  Fixed-point values are immutable and every operation
detects overflow instead of wrapping.

A backend holds numbers in two forms.  Arrays (``FixedArray``, float64
ndarrays on the float backend), 0-d for a single number, carry the
per-edge and per-point stages, which run once over all edges or points;
``backend.array`` is the one conversion from numbers to them.  Words, the
plain numbers in an array (floats, or raw fixed-point words as Python
ints), carry loops of many scalar steps: ``backend.words`` (``WordOps``)
converts numbers to words and runs arithmetic, sqrt, sin and cos on them,
and turns nested lists of them into arrays.  Each fixed-point word
operation is one call, with its truncation and range check inline.  A
``FixedArray`` carries a bound on its raw magnitudes from operation to
operation, and its words are scanned only where no bound was propagated or
the propagated bounds fail to prove an operation exact.  An integer
operand multiplies a ``FixedArray`` without a shift, since FixedPoint's
x * k is exactly x k.

What stays fixed over a run is converted once: `get_backend` builds one
backend per name, ``backend.constant`` keeps the arrays of numbers such as
the settings, ``words.constant`` the words of loop constants such as LM's
tolerances, and the camera and the model keep their own conversions
(``CameraIntrinsics.to_backend``, ``WireframeModel.used_vertices``).

Arrays, word operations and backends carry their ``QFormat``, one of the
module constants Q40_23 and Q47_16, and compare formats by identity.
``FixedPoint`` is the fixed-point scalar: no tracker path builds one, the
tests build its per-format subclasses and compare arrays and words against
them, operation by operation.

Rounding rules, fixed so runs are bit-reproducible:

* float -> fixed conversion rounds to nearest, ties away from zero;
* add/sub are exact on the raw representation;
* mul/div go through a double-width intermediate and truncate toward zero.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cache, partialmethod
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


def _float_word(value, fmt: QFormat) -> int:
    """A number as a word of the format fmt: ints exactly (value * 2**F),
    floats rounded to nearest, ties away from zero.  MathDomainError for
    inf and NaN, MathOverflowError outside the word range."""
    if isinstance(value, int):
        return _word(value << fmt.fraction_bits)
    if not math.isfinite(value):
        raise MathDomainError(f"cannot represent {value!r} in {fmt}")
    scaled = value * (1 << fmt.fraction_bits)  # exact: power-of-two scale
    if abs(scaled) >= 2.0 ** 52:
        return _word(int(scaled))
    if scaled >= 0.0:
        return math.floor(scaled + 0.5)
    return math.ceil(scaled - 0.5)


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


def _sin_core(x: int, quarter: int = 0) -> int:
    """sin(x + quarter * pi/2); quarter 1 gives cos(x)."""
    r, q = _reduce_quadrant(x)
    q = (q + quarter) % 4
    if q == 0:
        return _sin_poly(r)
    if q == 1:
        return _cos_poly(r)
    if q == 2:
        return -_sin_poly(r)
    return -_cos_poly(r)


def _sin_raw(raw: int, frac_bits: int, quarter: int = 0) -> int:
    return _round_half_away(_sin_core(raw << (_G - frac_bits), quarter), _G - frac_bits)


# ---------------------------------------------------------------------------
# Fixed-point scalar.

class FixedPoint:
    """Immutable 64-bit signed fixed-point number.

    A concrete subclass per format sets ``FORMAT`` and ``FRAC_BITS``; values
    of different formats never mix in one expression.  Plain ints mix freely and
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
        return cls(_float_word(value, cls.FORMAT))

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


def _wide(words):
    """int64 words as Python ints: an object array, or an int for 0-d words."""
    return words.astype(object) if words.ndim else int(words)


def _is_wide(words) -> bool:
    """Python ints (an int or an object array), not int64 words."""
    return isinstance(words, int) or words.dtype == object


def _trunc_shift_array(p, shift: int):
    """Elementwise p >> shift truncated toward zero: numpy's >> floors, so
    2**shift - 1 is added to the negative words first, without a branch.

    An int64 product is shifted in place, where p >> 63 is its sign mask;
    Python ints (an int or an object array) get the formula, since on them
    p >> 63 is no sign mask."""
    if _is_wide(p):
        return (p + (p < 0) * ((1 << shift) - 1)) >> shift
    p += (p >> 63) & ((1 << shift) - 1)
    p >>= shift
    return p


def _trunc_div_array(a, b):
    """Elementwise a / b truncated toward zero; numpy's // floors."""
    if _is_wide(a):  # the divisor is then wide too
        return abs(a) // abs(b) * (1 - 2 * ((a < 0) != (b < 0)))
    # int64: fmod leaves the remainder with a's sign, so a minus it is the
    # multiple of b next toward zero and the floor division is exact.
    return (a - np.fmod(a, b)) // b


class FixedArray:
    """Array of fixed-point numbers with the per-element semantics of FixedPoint.

    ``raw`` is an int64 ndarray of raw words in the QFormat ``format``, one
    of the module constants Q40_23 and Q47_16, compared by identity.
    Every operation gives, element by element, the raw word the FixedPoint
    operation gives, and raises MathOverflowError exactly when one of those
    would.  It computes in int64 only where the operands' magnitudes prove
    the result exact, and in Python ints otherwise, so nothing ever wraps.

    The magnitudes come from ``bound``, an upper bound on the raw
    magnitudes that each result carries from its operands' bounds: a + b and
    a - b give ba + bb, a * b gives (ba * bb) >> F, negation, abs,
    slicing and reshaping keep the bound, ``where`` and ``stack`` take the
    largest, sqrt gives isqrt(b << F), and ``FixedBackend.array`` and
    ``WordOps.array`` take the largest magnitude of their words.  The words
    are scanned (one min and one max reduction) only for an array without a
    bound (quotients, and stacks and selections of them) and when the
    propagated bounds fail to prove an operation exact; the tight bounds of
    that rescan then decide, as a scan of every operand would.

    Operands are arrays of the same format, 0-d for a single number, ints
    and integer ndarrays (scaled by 2**F as plain ints are); floats are
    rejected, by comparisons too, while == with a non-number such as None
    is False, as for any Python object.  Every index returns a FixedArray,
    0-d for an integer index.
    """

    __slots__ = ("raw", "format", "_bound", "_scanned")

    # ndarray OP FixedArray returns NotImplemented, so the reflected method
    # here runs instead of numpy building an object array of FixedPoints.
    __array_ufunc__ = None

    def __init__(self, raw: np.ndarray, fmt: QFormat, bound=None):
        self.raw = raw
        self.format = fmt
        self._bound = bound
        self._scanned = False

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
        fmt = self.format
        if type(raw) is np.ndarray and raw.dtype.kind == "i":  # int64 words
            return FixedArray(raw, fmt, bound)
        if not _is_wide(raw):  # an int64 scalar, from 0-d operands
            return FixedArray(np.asarray(raw), fmt, bound)
        raw = np.asarray(raw, dtype=object)
        lo, hi = (int(raw.min()), int(raw.max())) if raw.size else (0, 0)
        if lo < -_WORD_LIMIT or hi >= _WORD_LIMIT:
            raise MathOverflowError(f"raw value outside {fmt} range")
        out = FixedArray(raw.astype(np.int64), fmt, max(-lo, hi))
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
        arr = None
        if type(other) is FixedArray:
            if other.format is not self.format:
                return None
            raw, arr = other.raw, other
            bound = other._scan() if other._bound is None else other._bound
        else:
            k = self._int_operand(other)
            if k is None:
                return None
            shift = self.format.fraction_bits
            raw, bound = k[0] << shift, k[1] << shift
        n = need(self._scan() if self._bound is None else self._bound, bound)
        if n >= _WORD_LIMIT:
            n = need(self._scan(), bound if arr is None else arr._scan())
            if n >= _WORD_LIMIT:  # Python ints, in which nothing can wrap
                return _wide(self.raw), _wide(raw), n
        return self.raw, raw, n

    def _int_operand(self, other):
        """An int or integer-ndarray operand k as int64 words and max |k|;
        None for any other operand.  MathOverflowError unless k << F, the
        raw word FixedPoint makes of an int, lies in the word range."""
        fmt = self.format
        shift = fmt.fraction_bits
        if isinstance(other, (int, np.integer)):
            k = int(other)
            if not -_WORD_LIMIT <= k << shift < _WORD_LIMIT:
                raise MathOverflowError(f"int operand {other} outside {fmt} range")
            return np.int64(k), abs(k)
        if isinstance(other, np.ndarray) and other.dtype.kind in "iu":
            lo, hi = (int(other.min()), int(other.max())) if other.size else (0, 0)
            if lo << shift < -_WORD_LIMIT or hi << shift >= _WORD_LIMIT:
                raise MathOverflowError(f"int operand outside {fmt} range")
            return other.astype(np.int64, copy=False), max(-lo, hi)
        return None

    def _own_words(self, factor: int = 1):
        """The raw words as _words gives them, for an operation on this
        array alone whose intermediates reach factor times its magnitudes."""
        if factor * self.bound >= _WORD_LIMIT and factor * self._scan() >= _WORD_LIMIT:
            return _wide(self.raw)
        return self.raw

    # -- conversion ---------------------------------------------------------

    def to_float(self) -> np.ndarray:
        return self.raw / (1 << self.format.fraction_bits)

    def __getitem__(self, key):
        raw = self.raw[key]
        if type(raw) is not np.ndarray:  # an integer index gives an int64 scalar
            raw = np.asarray(raw)
        return FixedArray(raw, self.format, self._bound)

    def __iter__(self):
        """The rows along axis 0, as ndarray iterates, each keeping the
        bound; TypeError for a 0-d array."""
        if self.raw.ndim == 0:
            raise TypeError("iteration over a 0-d array")
        return (self[k] for k in range(len(self.raw)))

    def reshape(self, *shape) -> "FixedArray":
        return FixedArray(self.raw.reshape(*shape), self.format, self._bound)

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
        if type(other) is not FixedArray:
            k = self._int_operand(other)
            # FixedPoint's x * k is (x (k << F)) >> F truncated, which is
            # x k exactly: no shift, and int64 while bound * max|k| is.
            if k is not None and self.bound * k[1] < _WORD_LIMIT:
                return self._new(self.raw * k[0], self._bound * k[1])
        w = self._words(other, operator.mul)
        if w is None:
            return NotImplemented
        a, b, bound = w
        shift = self.format.fraction_bits
        return self._new(_trunc_shift_array(a * b, shift), bound >> shift)

    __rmul__ = __mul__

    # Division gives (a << F) / b truncated toward zero, as FixedPoint's
    # __truediv__ and __rtruediv__ do; a quotient carries no bound.

    def __truediv__(self, other):
        shift = self.format.fraction_bits
        w = self._words(other, lambda ba, bb: max(ba << shift, bb))
        if w is None:
            return NotImplemented
        a, b, _ = w
        return self._new(_trunc_div_array(a << shift, _nonzero(b)), None)

    def __rtruediv__(self, other):
        shift = self.format.fraction_bits
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
        shift = self.format.fraction_bits
        root = [isqrt(r << shift) for r in self.raw.ravel().tolist()]
        bound = None if self._bound is None else isqrt(self._bound << shift)
        return FixedArray(np.array(root, dtype=np.int64).reshape(self.raw.shape), self.format, bound)

    # -- comparisons --------------------------------------------------------

    def _compare(self, other, op):
        """Elementwise comparison with an array of this format or an int;
        ints compare exactly, with no range limit.  TypeError for any other
        number or array, so that == and != give no bare bool for a float."""
        fmt = self.format
        if isinstance(other, FixedArray) and other.format is fmt:
            return op(self.raw, other.raw)
        if isinstance(other, (int, np.integer)):
            return op(self.raw, int(other) << fmt.fraction_bits)
        if isinstance(other, (numbers.Number, np.ndarray, FixedArray, FixedPoint)):
            raise TypeError(f"cannot compare a {fmt} array with {type(other).__name__}")
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
        """Sum along the last axis, left to right from zero, one raw word
        (a Python int) per row; every partial sum is range-checked, as
        FixedPoint's + does."""
        *rows, count = self.raw.shape
        if count == 0:
            return [0] * math.prod(rows)
        raw = self._own_words(count).reshape(-1, count)
        return self._new(np.cumsum(raw, axis=1), None).raw[:, -1].tolist()


# ---------------------------------------------------------------------------
# Backends.

class WordOps(NamedTuple):
    """Scalar arithmetic on a backend's words, the plain numbers its arrays
    hold: floats, or raw fixed-point words as Python ints, rounded and
    range-checked as FixedPoint's own operators round and check them.  A
    loop of many scalar steps runs on words."""

    from_float: Callable  # number -> word, rounded as backend.array rounds it
    constant: Callable  # from_float for a number fixed over a run: converted once
    to_float: Callable  # word -> float, as the backend's to_float gives it
    array: Callable  # nested lists of words -> backend array
    add: Callable
    sub: Callable
    neg: Callable
    mul: Callable
    div: Callable
    sqrt: Callable  # as the backend's sqrt, MathDomainError below zero
    sin: Callable
    cos: Callable


def _same(x):
    return x


def _float_sqrt(value: float) -> float:
    if value < 0.0:
        raise MathDomainError("sqrt of negative value")
    return math.sqrt(value)


def _fixed_word_ops(fmt: QFormat) -> WordOps:
    """WordOps on the raw words of the format fmt.

    Each arithmetic operation is one call: it truncates toward zero and
    range-checks inline, as _trunc_shift, _trunc_div and _word do for
    FixedPoint, and raises the same errors.
    """
    shift = fmt.fraction_bits
    scale = 1 << shift
    lo, hi = -_WORD_LIMIT, _WORD_LIMIT

    def overflow(raw: int):
        return MathOverflowError(f"raw value {raw} outside the 64-bit word range")

    def add(a: int, b: int) -> int:
        r = a + b
        if lo <= r < hi:
            return r
        raise overflow(r)

    def sub(a: int, b: int) -> int:
        r = a - b
        if lo <= r < hi:
            return r
        raise overflow(r)

    def neg(a: int) -> int:
        r = -a
        if lo <= r < hi:
            return r
        raise overflow(r)

    def mul(a: int, b: int) -> int:
        p = a * b
        r = p >> shift if p >= 0 else -(-p >> shift)
        if lo <= r < hi:
            return r
        raise overflow(r)

    def div(a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        n = a << shift
        r = n // b
        if r < 0 and r * b != n:  # floor division went below the quotient
            r += 1
        if lo <= r < hi:
            return r
        raise overflow(r)

    def sqrt(a: int) -> int:
        if a < 0:
            raise MathDomainError("sqrt of negative fixed-point value")
        return isqrt(a << shift)

    constants = {}

    def constant(value) -> int:
        if value not in constants:
            constants[value] = _float_word(value, fmt)
        return constants[value]

    def array(words) -> FixedArray:
        """The words as an array whose bound is their largest magnitude, taken
        over the Python ints, which is quicker than a scan of the array."""
        raw = np.array(words, dtype=np.int64)
        out = FixedArray(raw, fmt, max(map(abs, raw.ravel().tolist()), default=0))
        out._scanned = True
        return out

    return WordOps(from_float=lambda v: _float_word(v, fmt), constant=constant,
                   to_float=lambda w: w / scale, array=array, add=add, sub=sub, neg=neg,
                   mul=mul, div=div, sqrt=sqrt,
                   sin=lambda a: _sin_raw(a, shift), cos=lambda a: _sin_raw(a, shift, 1))


class FloatBackend:
    """Native double-precision arithmetic."""

    name = "float"
    is_fixed = False

    @staticmethod
    def array(values) -> np.ndarray:
        """A number (as a 0-d array), nested lists or an ndarray as float64."""
        return np.asarray(values, dtype=np.float64)

    # A number fixed over a run (see FixedBackend.constant): converting a
    # float costs no more than looking it up.
    constant = array

    @staticmethod
    def to_float(values: np.ndarray) -> np.ndarray:
        return values

    @staticmethod
    def sqrt(values: np.ndarray) -> np.ndarray:
        """Elementwise square root; MathDomainError if any element is negative."""
        if np.any(values < 0.0):
            raise MathDomainError("sqrt of negative value")
        return np.sqrt(values)

    words = WordOps(from_float=float, constant=float, to_float=_same,
                    array=lambda words: np.array(words, dtype=np.float64), add=operator.add,
                    sub=operator.sub, neg=operator.neg, mul=operator.mul, div=operator.truediv,
                    sqrt=_float_sqrt, sin=math.sin, cos=math.cos)

    @staticmethod
    def stack(items) -> np.ndarray:
        """Equal-shape arrays stacked one axis up."""
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
        """Sum along the last axis, left to right from 0.0, one float (the
        backend's word) per row.

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
        """A backend for one of the formats Q40_23 and Q47_16; ValueError for
        any other.  Its arrays carry the module constant itself, so that
        arrays compare their formats by identity."""
        if fmt not in (Q40_23, Q47_16):
            raise ValueError(f"unsupported fixed-point format {fmt}")
        self.format = fmt = Q40_23 if fmt == Q40_23 else Q47_16
        self.name = f"q{fmt.integer_bits}_{fmt.fraction_bits}"
        self.words = _fixed_word_ops(fmt)
        self._constants = {}

    def constant(self, value) -> FixedArray:
        """array(value) for a number fixed over a run, such as a setting:
        converted on its first use, then the same array."""
        if value not in self._constants:
            self._constants[value] = self.array(value)
        return self._constants[value]

    def array(self, values) -> FixedArray:
        """A number (as a 0-d array), nested lists or an ndarray as an array
        of their shape, each element converted as ``words.from_float``
        converts it, so as FixedPoint.from_float does; its bound is the
        largest magnitude of its words."""
        values = np.asarray(values)
        words = list(map(self.words.from_float, values.ravel().tolist()))
        return FixedArray(np.array(words, dtype=np.int64).reshape(values.shape), self.format,
                          max(map(abs, words), default=0))

    @staticmethod
    def to_float(values: FixedArray) -> np.ndarray:
        return values.to_float()

    @staticmethod
    def sqrt(values: FixedArray) -> FixedArray:
        return values.sqrt()

    def stack(self, items) -> FixedArray:
        """Equal-shape arrays of this format stacked one axis up.

        Its bound is the largest of the items' bounds, or none when an item
        has none.
        """
        bounds = [x._bound for x in items]
        bound = None if None in bounds else max(bounds, default=0)
        raw = np.array([x.raw for x in items], dtype=np.int64)
        return FixedArray(raw, self.format, bound)

    @staticmethod
    def floor_array(values: FixedArray) -> np.ndarray:
        return values.raw >> values.format.fraction_bits

    def where(self, mask, x, y) -> FixedArray:
        """Elementwise x where mask holds, else y; arrays of this format."""
        fmt = self.format
        for v in (x, y):
            if not (isinstance(v, FixedArray) and v.format is fmt):
                raise TypeError(f"where needs {fmt} arrays, got {type(v).__name__}")
        bound = None if None in (x._bound, y._bound) else max(x._bound, y._bound)
        return FixedArray(np.where(mask, x.raw, y.raw), fmt, bound)

    @staticmethod
    def row_sums(values: FixedArray) -> list:
        """FixedArray.row_sums: one word (``words``) per row."""
        return values.row_sums()

    def __repr__(self):
        return f"FixedBackend({self.format})"


BACKEND_NAMES = ("float", "q40_23", "q47_16")


@cache
def get_backend(name: str):
    """The backend instance for a CLI/config name: float, q40_23 or q47_16,
    built on the first call for that name, so its run constants
    (``constant``) are converted once."""
    if name == "float":
        return FloatBackend()
    if name == "q40_23":
        return FixedBackend(Q40_23)
    if name == "q47_16":
        return FixedBackend(Q47_16)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
