"""Constants of the improved circumscribed-quadrilateral bound, certified.

The headline factor (1 - 2.6e-7) * sqrt(2) rests on a handful of numerical
constants whose defining inequalities must actually hold.  They involve
nested radicals, so the checks run in outward-rounded rational interval
arithmetic (:mod:`circumquad.intervals`): a PROVEN verdict is a machine proof
of the inequality, not a floating-point observation.

The three case factors of the main theorem coincide by construction:
``c2 = 1 + sqrt(8 c1 (c1 - 1))`` makes ``(c2 - 1)^2 / (8 c1) = c1 - 1``, and
``r = sqrt(32 (sqrt(c1) - 1))`` makes ``1 + r^2 / 32 = sqrt(c1)``, so all
three reduce to ``1 / sqrt(c1)``, the one case factor.  c2 and r are always
derived from c1, so :func:`certify_constants` reports the coincidence as
proven by construction instead of comparing approximations.  Nothing here
holds a float: the case ladder's float thresholds are derived once in
:mod:`circumquad.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .errors import BadParams, _as_fraction
from .intervals import (
    CertifiedComparison,
    Expr,
    Interval,
    Verdict,
    as_expr,
    certify_less,
    const,
    esqrt,
)
from .zeta import cut_domain_violation, zeta_bound

# Bounds certified against the constants (right-hand sides of the checks).
_C2_BOUND = Fraction(1) + Fraction(206, 100_000)
_R_BOUND = Fraction(2913, 1_000_000)
_AREA_BOUND = Fraction(795359, 100_000)
_FINAL_BOUND = Fraction(7_999_996, 1_000_000)
_FACTOR_BOUND = Fraction(99_999_974, 100_000_000)


@dataclass(frozen=True)
class TheoremConstants:
    """The exact constant bundle that :func:`certify_constants` checks.

    The case ladder reads float thresholds derived from the default bundle.
    The fields are exact rationals.  c2 and r are always their defining
    radicals in terms of c1, kept as expressions (:meth:`c2_expr`,
    :meth:`r_expr`).  A field that is not a finite number or numeric string
    raises BadParams naming it.
    """

    c1: Fraction = Fraction(1) + Fraction(53, 100_000_000)
    c3: Fraction = Fraction(283_134, 100_000)
    delta: Fraction = Fraction(2824, 100_000)

    def __post_init__(self):
        for name in ("c1", "c3", "delta"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name), name))
        if not self.c1 > 1:
            raise BadParams("c1 must exceed 1")
        problem = cut_domain_violation(self.c3, self.delta)
        if problem:
            raise BadParams(f"c3 and delta: {problem}")

    def c2_expr(self) -> Expr:
        inner = const(8 * self.c1 * (self.c1 - 1), "8*c1*(c1-1)")
        return (1 + esqrt(inner))

    def r_expr(self) -> Expr:
        return esqrt(32 * (esqrt(const(self.c1, "c1")) - 1))


def _enclosed_once(expr: Expr) -> Expr:
    """``expr`` with each precision's enclosure computed on first use only.

    The memo lives as long as the returned expression, so a radical shared
    by several checks of one :func:`certify_constants` call is enclosed once
    in that call, and the next call encloses it again.  A plain dict: a
    ``functools.cache`` wrapper would add about 0.9 kB to the call's peak.
    """
    memo = {}

    def ev(bits: int) -> Interval:
        if bits not in memo:
            memo[bits] = expr.enclosure(bits)
        return memo[bits]

    return Expr(ev, expr.text)


def _corner_cut_peak(consts: TheoremConstants) -> Fraction:
    """Largest corner-cut quadrilateral area, c(c(1+delta)+2 delta)/(1+2 delta)."""
    c, d = consts.c3, consts.delta
    return c * (c * (1 + d) + 2 * d) / (1 + 2 * d)


def certify_constants(
    consts: TheoremConstants, precision_bits: int = 128
) -> List[CertifiedComparison]:
    """Certify the eight comparisons the improved bound rests on.

    Returns one :class:`CertifiedComparison` per check, in a fixed order:

    1. c2 < 1 + 2.06e-3
    2. r < 2.913e-3
    3. sqrt(8 c1 c2) < c3
    4. corner-cut area bound < 7.95359
    5. balanced-cut area bound (zeta at -c3/2) < 7.95359
    6. (1 + r)^2 * max(4., 5.) < 7.999996
    7. 1/sqrt(c1) < 0.99999974
    8. the three case factors coincide (by construction)

    Definite verdicts are stable under precision refinement; expect all eight
    PROVEN at the default constants and 128 bits.  ``precision_bits`` must be
    an integer of at least 8, else BadParams.
    """
    c1e = const(consts.c1, "c1")
    # c2 enters checks 1 and 3, r checks 2, 6 (twice) and 8.  Each is enclosed
    # at its first use, inside a certify_less that has checked the precision.
    c2e = _enclosed_once(consts.c2_expr())
    re_ = _enclosed_once(consts.r_expr())

    out: List[CertifiedComparison] = []
    out.append(certify_less(c2e, const(_C2_BOUND, "1 + 2.06e-3"), precision_bits))
    out.append(certify_less(re_, const(_R_BOUND, "2.913e-3"), precision_bits))
    out.append(
        certify_less(
            esqrt(8 * c1e * c2e), const(consts.c3, "c3"), precision_bits
        )
    )

    corner_peak = _corner_cut_peak(consts)
    balanced_peak = zeta_bound(consts.c3, consts.delta)
    out.append(
        certify_less(
            const(corner_peak, "corner-cut area peak"),
            const(_AREA_BOUND, "7.95359"),
            precision_bits,
        )
    )
    out.append(
        certify_less(
            const(balanced_peak, "balanced-cut area peak"),
            const(_AREA_BOUND, "7.95359"),
            precision_bits,
        )
    )
    dilated = (1 + re_) * (1 + re_) * const(
        max(corner_peak, balanced_peak), "max cut-area peak"
    )
    out.append(
        certify_less(dilated, const(_FINAL_BOUND, "7.999996"), precision_bits)
    )
    out.append(
        certify_less(
            1 / esqrt(c1e), const(_FACTOR_BOUND, "0.99999974"), precision_bits
        )
    )
    out.append(_certify_factor_coincidence(out[6].lhs_interval, re_, precision_bits))
    return out


def _certify_factor_coincidence(
    factor1: Interval, r: Expr, precision_bits: int
) -> CertifiedComparison:
    """The three case factors are pairwise equal, by construction.

    Works on the defining equations: (c2 - 1)^2 = 8 c1 (c1 - 1) collapses
    the second factor to 1/sqrt(c1), and (1 + r^2/32)^2 = c1 collapses the
    third.  c2 and r are derived from c1 so that these hold, so the verdict
    is PROVEN.  ``factor1`` is check 7's enclosure of the first factor,
    1/sqrt(c1); the third is enclosed here from ``r``.
    """
    factor3 = (1 / (1 + r * r / 32)).enclosure(precision_bits)
    return CertifiedComparison(
        lhs_text="1/sqrt(1+(c2-1)^2/(8*c1)) and 1/(1+r^2/32)",
        relation="=",
        rhs_text="1/sqrt(c1)",
        verdict=Verdict.PROVEN,
        precision_bits=precision_bits,
        lhs_interval=factor3,
        rhs_interval=factor1,
    )
