"""Exception hierarchy for circumquad.

Every error raised by the library derives from CircumquadError so callers can
catch library failures without swallowing genuine bugs.  The leaf classes are
deliberately fine-grained: the CLI maps them to exit codes, and tests assert
on them directly.
"""

import operator
from fractions import Fraction


class CircumquadError(Exception):
    """Base class for all circumquad errors."""


class BadParams(CircumquadError):
    """User-supplied parameters are malformed or out of range."""


def _as_int(value, name: str) -> int:
    """``value`` as an int (Python and numpy ints pass); BadParams otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParams(f"{name} must be an integer, got {value!r}") from None


def _as_fraction(value, name: str) -> Fraction:
    """``value`` as a Fraction (numbers and numeric strings); BadParams otherwise.

    NaN, infinities, ``"1/0"`` and values that are not numbers all raise
    BadParams naming ``name``.
    """
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise BadParams(f"bad {name} {value!r}: {exc}") from exc


# --- geometry ---------------------------------------------------------------

class DegenerateInput(CircumquadError):
    """Point set has no proper convex hull (fewer than 3 distinct points,
    or all points collinear), or polygon vertices fail strict convexity."""


class SingularMap(CircumquadError):
    """Affine map has zero determinant and cannot act on polygons."""


# --- solver -----------------------------------------------------------------

class DegenerateBody(CircumquadError):
    """Input body has (numerically) zero area."""


class NoFeasibleQuadruple(CircumquadError):
    """No quadruple of support directions cuts out a circumscribed polygon."""


class SolverFailure(CircumquadError):
    """The solver produced a quadrilateral that fails its own certificate."""


# --- rational intervals -----------------------------------------------------

class NegativeRadicand(CircumquadError):
    """Square root requested of a quantity that is certainly negative."""


class DivisionByIntervalContainingZero(CircumquadError):
    """Interval division where the divisor encloses zero."""


# --- pipeline ---------------------------------------------------------------

class DegenerateParallelogram(CircumquadError):
    """Edge-midpoint parallelogram is (numerically) flat; no normalization."""


class NormalizationViolated(CircumquadError):
    """A normalized scene fails an invariant it is supposed to satisfy."""


class AreaIdentityViolated(CircumquadError):
    """Octagon area disagrees with the box-width identity x + y."""


class HypothesisViolated(CircumquadError):
    """Contact configuration violates a hypothesis of the octagon lemma."""


class DomainError(CircumquadError):
    """Argument outside the mathematical domain of a function."""


class InconsistentCase(CircumquadError):
    """Case analysis reached a state that contradicts the certified bounds."""
