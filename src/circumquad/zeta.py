"""The corner-cut area function ``zeta`` and its calculus.

``zeta(c, delta, t)`` is the area of the best cut quadrilateral available in
the balanced branch of the octagon lemma, as a function of the left contact
abscissa ``t``.  It is a rational function of all three arguments, decreasing
in ``t`` on ``[-c/2, inf)``, so its value at ``t = -c/2`` bounds the whole
admissible range; :func:`zeta_bound` evaluates that endpoint in closed form.

All functions accept Fractions (exact) or floats through the same code path;
literal constants are Fractions, which Python coerces as needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .geometry import Scalar, _slack

_C_MIN = Fraction(14, 5)
_DELTA_MAX = Fraction(1, 10)


def cut_domain_violation(c: Scalar, delta: Scalar) -> Optional[str]:
    """Name the bound that ``(c, delta)`` breaks, or None inside the domain.

    The domain of the cut parameters is c >= 14/5 and 0 <= delta <= 1/10;
    for float input every bound is widened by ``geometry.FLOAT_SLACK``.
    """
    slack = _slack(c, delta)
    if not c >= _C_MIN - slack:
        return f"cut size c = {c} must be at least 14/5"
    if not (-slack <= delta <= _DELTA_MAX + slack):
        return f"tilt parameter delta = {delta} must lie in [0, 1/10]"
    return None


def _validate_params(c: Scalar, delta: Scalar) -> None:
    problem = cut_domain_violation(c, delta)
    if problem:
        raise DomainError(problem)


def zeta_denominator(c: Scalar, delta: Scalar, t: Scalar) -> Scalar:
    return c * (9 - 20 * delta + 20 * delta * delta) + 4 * (t - 1)


def zeta(c: Scalar, delta: Scalar, t: Scalar) -> Scalar:
    """Cut-quadrilateral area at left contact abscissa ``t``.

    Requires c >= 14/5 and delta in [0, 1/10]; the rational expression must
    have a nonzero denominator (guaranteed for t > -c/2, and for t = -c/2 as
    used by :func:`zeta_bound`).
    """
    _validate_params(c, delta)
    den = zeta_denominator(c, delta, t)
    if den == 0:
        raise DomainError(f"zeta denominator vanishes at t = {t}")
    lead = c / (5 * (1 - 2 * delta))
    first = c * (3 - 4 * delta) + t - 1
    second = 4 * c * (3 - 4 * delta) + (7 + 4 * delta - 20 * delta * delta) * (t - 1)
    return lead * (first * second / den - (3 - 4 * delta) * (t - 1))


def zeta_derivative(c: Scalar, delta: Scalar, t: Scalar) -> Scalar:
    """d zeta / dt; strictly negative for t >= -c/2.

    Only defined for t > -c/2 (the denominator is then bounded away from 0).
    """
    _validate_params(c, delta)
    if not t > -c / 2:
        raise DomainError(f"derivative needs t > -c/2, got t = {t}")
    den = zeta_denominator(c, delta, t)
    d2 = delta * delta
    d3 = d2 * delta
    quadratic = (
        c * c * (9 - 48 * delta + 108 * d2 - 80 * d3)
        + c * (9 - 20 * delta + 20 * d2) * (t - 1)
        + 2 * (t - 1) * (t - 1)
    )
    return -2 * c * (1 - 2 * delta) * quadratic / (den * den)


def zeta_derivative_roots(c: Scalar, delta: Scalar):
    """Roots (in t) of the quadratic numerator factor of the derivative.

    The quadratic  c^2 (9 - 48 d + 108 d^2 - 80 d^3)
                 + c (9 - 20 d + 20 d^2) (t - 1) + 2 (t - 1)^2
    factors exactly as 2 (t - r1) (t - r2) with the roots returned here; both
    lie left of -c/2 for admissible (c, delta), which is what makes zeta
    monotone decreasing on [-c/2, inf).
    """
    _validate_params(c, delta)
    r1 = 1 - c * (3 - 4 * delta)
    r2 = 1 - c * (3 - 12 * delta + 20 * delta * delta) / 2
    return r1, r2


def zeta_bound(c: Scalar, delta: Scalar) -> Scalar:
    """Closed form of zeta at the left endpoint t = -c/2.

    Equals ``zeta(c, delta, -c/2)`` identically; kept separate so exact
    certification does not have to trust the generic evaluator.
    """
    _validate_params(c, delta)
    tail_num = (c - 2) * (c * (43 - 54 * delta) - 22 - 20 * delta)
    tail_den = c * (7 - 20 * delta + 20 * delta * delta) - 4
    return (c / 20) * (8 * (c + 2) + 4 * c / (1 - 2 * delta) + tail_num / tail_den)
