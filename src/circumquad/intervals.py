"""Outward-rounded rational interval arithmetic and certified comparisons.

The numeric core is :class:`Interval`, a pair of Fractions with exact
endpoint arithmetic.  Square roots come from integer square roots of scaled
numerators (:func:`sqrt_enclosure`), so every enclosure is sound by
construction: the true real value always lies inside the returned interval.

On top of intervals sits a tiny lazy expression type, :class:`Expr`, closed
under +, -, *, / and sqrt.  An expression evaluates to an enclosure at a
requested precision; denominators are capped by outward dyadic rounding after
every operation so that repeated arithmetic cannot blow up coefficient sizes.
Refining the precision only ever shrinks enclosures, which gives the
comparison verdicts their one-sided stability: a PROVEN or DISPROVEN verdict
cannot be revoked by more precision, while UNDECIDABLE can be.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import (
    BadParams,
    DivisionByIntervalContainingZero,
    NegativeRadicand,
    _as_int,
)

RationalLike = Union[int, Fraction]

# Extra bits used internally so that rounding noise stays below the
# width guarantee of the requested precision.
_GUARD_BITS = 16


def _check_precision(bits) -> None:
    """BadParams unless ``bits`` is an integer of at least 8, the precision floor."""
    if _as_int(bits, "precision_bits") < 8:
        raise BadParams("precision_bits must be at least 8")


def _floor_dyadic(q: Fraction, bits: int) -> Fraction:
    return Fraction((q.numerator << bits) // q.denominator, 1 << bits)


def _ceil_dyadic(q: Fraction, bits: int) -> Fraction:
    return Fraction(-((-q.numerator << bits) // q.denominator), 1 << bits)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise BadParams(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: RationalLike) -> "Interval":
        q = Fraction(value)
        return cls(q, q)

    def outward(self, bits: int) -> "Interval":
        """Round endpoints outward onto the dyadic grid 2**-bits.

        Caps denominators at 2**bits; the result contains self.
        """
        return Interval(_floor_dyadic(self.lo, bits), _ceil_dyadic(self.hi, bits))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0 <= other.hi:
            raise DivisionByIntervalContainingZero(
                f"divisor [{other.lo}, {other.hi}] contains zero"
            )
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))


def sqrt_enclosure(value: RationalLike, precision_bits: int = 128) -> Interval:
    """Sound enclosure of sqrt(value) with width at most 2**-precision_bits
    times max(1, sqrt(value)).

    Uses math.isqrt on the scaled numerator, so the endpoints satisfy
    lo**2 <= value <= hi**2 exactly.  Perfect squares of rationals come back
    as zero-width intervals.
    """
    _check_precision(precision_bits)
    q = Fraction(value)
    if q < 0:
        raise NegativeRadicand(f"sqrt of negative rational {q}")
    if q == 0:
        return Interval.point(0)
    n, d = q.numerator, q.denominator
    work = precision_bits + _GUARD_BITS
    # sqrt(n/d) = sqrt(n*d) / d; isqrt gives floor(2**work * sqrt(n*d)).
    m = n * d
    s = math.isqrt(m << (2 * work))
    scale = d << work
    if s * s == m << (2 * work):
        return Interval.point(Fraction(s, scale))
    lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    # Cap denominators; the guard bits absorb the rounding widening.
    out = Interval(lo, hi).outward(precision_bits + 2)
    return Interval(max(out.lo, Fraction(0)), out.hi)


class Verdict(enum.Enum):
    PROVEN = "proven"
    DISPROVEN = "disproven"
    UNDECIDABLE = "undecidable-at-precision"


class Expr:
    """Lazy closed-form expression evaluating to a sound enclosure.

    Build expressions from rationals via :func:`const`, combine with the
    arithmetic operators, and take square roots with :func:`esqrt`.  Nothing
    is computed until :meth:`enclosure` is called with a precision.
    """

    __slots__ = ("_eval", "text")

    def __init__(self, eval_fn: Callable[[int], Interval], text: str):
        self._eval = eval_fn
        self.text = text

    def enclosure(self, precision_bits: int) -> Interval:
        return self._eval(precision_bits)

    def __repr__(self) -> str:
        return f"Expr({self.text})"

    def _binary(self, other, op, sym) -> "Expr":
        other = as_expr(other)

        def ev(bits: int) -> Interval:
            raw = op(self.enclosure(bits), other.enclosure(bits))
            return raw.outward(bits + _GUARD_BITS)

        return Expr(ev, f"({self.text} {sym} {other.text})")

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b, "+")

    def __radd__(self, other):
        return as_expr(other).__add__(self)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b, "-")

    def __rsub__(self, other):
        return as_expr(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b, "*")

    def __rmul__(self, other):
        return as_expr(other).__mul__(self)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b, "/")

    def __rtruediv__(self, other):
        return as_expr(other).__truediv__(self)

    def __neg__(self):
        return Expr(lambda bits: -self.enclosure(bits), f"(-{self.text})")


def const(value: RationalLike, text: str | None = None) -> Expr:
    iv = Interval.point(value)
    return Expr(lambda bits: iv, text if text is not None else str(Fraction(value)))


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return const(value)


def esqrt(operand) -> Expr:
    operand = as_expr(operand)

    def ev(bits: int) -> Interval:
        inner = operand.enclosure(bits)
        if inner.hi < 0:
            raise NegativeRadicand(f"sqrt of negative expression {operand.text}")
        # An enclosure may dip below zero from outward rounding even when the
        # true value is nonnegative; clamping keeps the result sound.
        lo_arg = max(inner.lo, Fraction(0))
        lo = sqrt_enclosure(lo_arg, bits).lo
        hi = sqrt_enclosure(inner.hi, bits).hi
        return Interval(lo, hi)

    return Expr(ev, f"sqrt({operand.text})")


@dataclass(frozen=True)
class CertifiedComparison:
    """Outcome of a certified comparison between two closed-form values."""

    lhs_text: str
    relation: str
    rhs_text: str
    verdict: Verdict
    precision_bits: int
    lhs_interval: Interval
    rhs_interval: Interval

    @property
    def claim(self) -> str:
        return f"{self.lhs_text} {self.relation} {self.rhs_text}"


def certify_less(lhs, rhs, precision_bits: int = 128) -> CertifiedComparison:
    """Certify the strict inequality ``lhs < rhs`` by interval evaluation.

    PROVEN when the enclosures separate in the claimed order, DISPROVEN when
    they separate the other way, UNDECIDABLE when they overlap at this
    precision.  Refining precision can only move UNDECIDABLE to one of the
    definite verdicts, never flip a definite verdict.
    """
    _check_precision(precision_bits)
    le = as_expr(lhs)
    re_ = as_expr(rhs)
    li = le.enclosure(precision_bits)
    ri = re_.enclosure(precision_bits)
    if li.hi < ri.lo:
        verdict = Verdict.PROVEN
    elif li.lo >= ri.hi:
        verdict = Verdict.DISPROVEN
    else:
        verdict = Verdict.UNDECIDABLE
    return CertifiedComparison(
        lhs_text=le.text,
        relation="<",
        rhs_text=re_.text,
        verdict=verdict,
        precision_bits=precision_bits,
        lhs_interval=li,
        rhs_interval=ri,
    )

