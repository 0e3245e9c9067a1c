"""Minimum-area circumscribed quadrilaterals of planar convex bodies.

Every convex body K admits a circumscribed quadrilateral of area strictly
below (1 - 2.6e-7) * sqrt(2) * |K|.  This package provides the numerical
solver for the minimum quadrilateral, the normalization pipeline and case
analysis behind that bound, exact evaluation of the cut-area function, and
interval-arithmetic certification of the constants involved.

The names exported here cover the solver, the case machine and the checks of
the theorem; the modules (``circumquad.geometry``, ``circumquad.pipeline``,
...) hold the rest.
"""

from .constants import TheoremConstants, certify_constants
from .corpus import gen_corpus, regular_polygon
from .errors import (
    AreaIdentityViolated,
    BadParams,
    CircumquadError,
    DegenerateBody,
    DegenerateInput,
    DegenerateParallelogram,
    DivisionByIntervalContainingZero,
    DomainError,
    HypothesisViolated,
    InconsistentCase,
    NegativeRadicand,
    NoFeasibleQuadruple,
    NormalizationViolated,
    SingularMap,
    SolverFailure,
)
from .geometry import ConvexPolygon, Point, contains_polygon, convex_hull
from .intervals import Verdict
from .minquad import (
    CircumscriptionCertificate,
    Quadrilateral,
    brute_force_min_quad,
    min_circumscribed_quadrilateral,
    varignon,
)
from .pipeline import (
    CaseId,
    CaseReport,
    ContactBox,
    case_machine,
    inner_ball_inclusion,
    lemma_octagon_quad,
    normalize_to_square,
    outer_ball_check,
)
from .zeta import zeta, zeta_bound, zeta_derivative, zeta_derivative_roots

__version__ = "0.1.0"

__all__ = [
    "AreaIdentityViolated",
    "BadParams",
    "CaseId",
    "CaseReport",
    "CircumquadError",
    "CircumscriptionCertificate",
    "ContactBox",
    "ConvexPolygon",
    "DegenerateBody",
    "DegenerateInput",
    "DegenerateParallelogram",
    "DivisionByIntervalContainingZero",
    "DomainError",
    "HypothesisViolated",
    "InconsistentCase",
    "NegativeRadicand",
    "NoFeasibleQuadruple",
    "NormalizationViolated",
    "Point",
    "Quadrilateral",
    "SingularMap",
    "SolverFailure",
    "TheoremConstants",
    "Verdict",
    "brute_force_min_quad",
    "case_machine",
    "certify_constants",
    "contains_polygon",
    "convex_hull",
    "gen_corpus",
    "inner_ball_inclusion",
    "lemma_octagon_quad",
    "min_circumscribed_quadrilateral",
    "normalize_to_square",
    "outer_ball_check",
    "regular_polygon",
    "varignon",
    "zeta",
    "zeta_bound",
    "zeta_derivative",
    "zeta_derivative_roots",
]
