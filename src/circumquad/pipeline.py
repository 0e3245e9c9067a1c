"""Normalization pipeline and the case analysis behind the area bound.

Given a convex body K and a minimum-area circumscribed quadrilateral Q, an
affine map sends the parallelogram spanned by Q's edge midpoints onto the
square [-1, 1]^2.  In those coordinates K touches all four square edges, an
axis-aligned bounding box and a contact octagon are available, and the body
falls into one of a handful of certified cases.  Each case certifies the
same factor 1/sqrt(c1) < 1 for the ratio |Q| / (sqrt(2) |K|), since c2 and
r are derived from c1.  The ladder reads its thresholds as module floats
derived once at import from the default :class:`TheoremConstants`.

Everything here works on either numeric backend, and no function takes a
tolerance: each check allows the slack ``geometry.FLOAT_SLACK`` when its
input holds a float and none on exact input (see :func:`geometry._slack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

from .constants import TheoremConstants
from .errors import (
    AreaIdentityViolated,
    DegenerateParallelogram,
    DomainError,
    HypothesisViolated,
    InconsistentCase,
    NormalizationViolated,
)
from .geometry import (
    AffineMap,
    ConvexPolygon,
    Point,
    Scalar,
    Support,
    _AXES,
    _candidates,
    _div,
    _slack,
    contains_polygon,
    convex_hull,
    linf_ball,
    linf_distance_to_polygon,
)
from .minquad import Quadrilateral, min_circumscribed_quadrilateral, varignon
from .zeta import _validate_params

HALF = Fraction(1, 2)


_EXACT_SQUARE = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
_FLOAT_SQUARE = _EXACT_SQUARE.to_float()


def unit_square(exact: bool = True) -> ConvexPolygon:
    """The square [-1, 1]^2, counterclockwise from the bottom-left corner.

    Polygons are immutable, so every call returns one of two instances built
    at import.
    """
    return _EXACT_SQUARE if exact else _FLOAT_SQUARE


@dataclass(frozen=True)
class ContactBox:
    """Axis-aligned bounding box of a normalized body, with contact points.

    The box is [a1, b1] x [a2, b2]; v1 and v2 realize the left and bottom
    extremes, w1 and w2 the right and top ones.  For a body normalized to
    touch all four edges of [-1, 1]^2 the invariants a1, a2 <= -1 and
    b1, b2 >= 1 hold (up to the float slack); the dataclass itself only
    enforces the structural ties between extremes and contact coordinates.
    """

    a1: Scalar
    a2: Scalar
    b1: Scalar
    b2: Scalar
    v1: Point
    v2: Point
    w1: Point
    w2: Point

    def __post_init__(self):
        if self.a1 > self.b1 or self.a2 > self.b2:
            raise DomainError("bounding box has negative extent")
        checks = (
            (self.v1.x, self.a1, "v1 must lie on the left edge"),
            (self.v2.y, self.a2, "v2 must lie on the bottom edge"),
            (self.w1.x, self.b1, "w1 must lie on the right edge"),
            (self.w2.y, self.b2, "w2 must lie on the top edge"),
        )
        for got, want, msg in checks:
            if got != want:
                raise DomainError(msg)

    @property
    def x(self) -> Scalar:
        """Horizontal box extent b1 - a1."""
        return self.b1 - self.a1

    @property
    def y(self) -> Scalar:
        """Vertical box extent b2 - a2."""
        return self.b2 - self.a2

    @property
    def box_area(self) -> Scalar:
        return self.x * self.y

    @property
    def contacts(self) -> Tuple[Point, Point, Point, Point]:
        return (self.v1, self.v2, self.w1, self.w2)


@dataclass(frozen=True)
class OctagonScene:
    """Contact octagon of a normalized body and its area."""

    octagon: ConvexPolygon
    octagon_area: Scalar


def normalize_to_square(quad: Quadrilateral) -> AffineMap:
    """The affine map sending Q's midpoint parallelogram onto [-1, 1]^2.

    The parallelogram spanned by Q's edge midpoints is centrally symmetric;
    the map taking it to the standard square sends Q to a quadrilateral of
    area 8 and preserves the area ratio |Q| / |K|.  Corner v0 of the
    parallelogram goes to (-1, -1).  The body is read under the map through
    its :class:`Support` oracle (:meth:`Support.under`), not mapped.  Raises
    :class:`BadParams` for a triangle and :class:`DegenerateParallelogram`
    when the parallelogram is flat.
    """
    para = varignon(quad)
    verts = para.vertices
    center = Point(
        _div(sum(v.x for v in verts), 4), _div(sum(v.y for v in verts), 4)
    )
    e1 = verts[1] - verts[0]
    e2 = verts[3] - verts[0]
    # Send center + s*e1/... : solve the linear map B taking e1/2+e2/2-combos
    # onto the square's half-diagonals.  Columns of B are the half-edges.
    m11 = _div(e1.x, 2)
    m21 = _div(e1.y, 2)
    m12 = _div(e2.x, 2)
    m22 = _div(e2.y, 2)
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise DegenerateParallelogram("midpoint parallelogram is flat")
    # Invert p -> B p + center; the parallelogram corners then land on the
    # square corners.
    return AffineMap(m11, m12, m21, m22, center.x, center.y).inverse()


def axis_box_with_contacts(body: Union[ConvexPolygon, Support]) -> ContactBox:
    """Bounding box and contact points of a body normalized to [-1,1]^2.

    ``body`` is a polygon, or the :class:`Support` oracle of the normalized
    body, which answers with four queries.  Requires the box to cover the
    unit square up to the input's slack; raises
    :class:`NormalizationViolated` otherwise.  When several vertices attain
    an extreme, the contact with the smallest absolute value of the other
    coordinate is chosen (ties broken toward the smaller signed value), so
    the result is deterministic and reflection-friendly.
    """
    left, bottom, right, top = (_candidates(body, ux, uy) for ux, uy in _AXES)
    a1 = min(v.x for v in left)
    b1 = max(v.x for v in right)
    a2 = min(v.y for v in bottom)
    b2 = max(v.y for v in top)
    tol = _slack(a1)
    if a1 > -1 + tol or a2 > -1 + tol or b1 < 1 - tol or b2 < 1 - tol:
        raise NormalizationViolated(
            "bounding box does not cover the unit square: "
            f"[{a1}, {b1}] x [{a2}, {b2}]"
        )

    def pick(cands: List[Point], other: int) -> Point:
        return min(cands, key=lambda p: (abs(p[other]), p[other]))

    v1 = pick([v for v in left if v.x == a1], 1)
    w1 = pick([v for v in right if v.x == b1], 1)
    v2 = pick([v for v in bottom if v.y == a2], 0)
    w2 = pick([v for v in top if v.y == b2], 0)
    return ContactBox(a1=a1, a2=a2, b1=b1, b2=b2, v1=v1, v2=v2, w1=w1, w2=w2)


def build_octagon(body: Union[ConvexPolygon, Support], contacts: ContactBox) -> OctagonScene:
    """Convex hull of the unit square and the four box contacts.

    Checks the area identity |octagon| = x + y (box extents) and, for a
    polygon ``body``, that the octagon sits inside it, both up to the slack
    of the contacts, which come from ``body`` and have its number type.  On
    the :class:`Support` oracle of a normalized body the contacts are body
    vertices by construction, and the square's corners are the images of
    the witness's edge midpoints, whose distances to the body the
    certificate measures; :func:`case_machine` checks those instead.
    """
    # The float square has the exact one's coordinates: float contacts would
    # turn its Fractions into the same floats.
    square = unit_square(exact=not isinstance(contacts.a1, float))
    octagon = convex_hull(list(square.vertices) + list(contacts.contacts))
    area = octagon.area
    ident = contacts.x + contacts.y
    slack = _slack(ident)
    if abs(area - ident) > slack * max(1, abs(ident)):
        raise AreaIdentityViolated(f"octagon area {area} != box half-perimeter {ident}")
    if isinstance(body, ConvexPolygon) and not contains_polygon(body, octagon, slack):
        raise NormalizationViolated("contact octagon escapes the body")
    return OctagonScene(octagon=octagon, octagon_area=area)


def reflection_normalize(
    contacts: ContactBox,
) -> Tuple[ContactBox, Tuple[bool, bool]]:
    """Flip axes so the left/bottom contacts are the shallow ones.

    After normalization -a1 <= b1 and -a2 <= b2, i.e. the v-side extremes
    are at most as deep as the w-side ones.  Reflections of the plane fix
    the unit square setwise, so they act on normalized scenes.  Returns the
    new configuration and the (flip_x, flip_y) flags applied.
    """
    flip_x = -contacts.a1 > contacts.b1
    flip_y = -contacts.a2 > contacts.b2

    def flip(p: Point) -> Point:
        return Point(-p.x if flip_x else p.x, -p.y if flip_y else p.y)

    v1, w1 = contacts.v1, contacts.w1
    a1, b1 = contacts.a1, contacts.b1
    if flip_x:
        v1, w1 = w1, v1
        a1, b1 = -b1, -a1
    v2, w2 = contacts.v2, contacts.w2
    a2, b2 = contacts.a2, contacts.b2
    if flip_y:
        v2, w2 = w2, v2
        a2, b2 = -b2, -a2
    normed = ContactBox(
        a1=a1, a2=a2, b1=b1, b2=b2, v1=flip(v1), v2=flip(v2), w1=flip(w1), w2=flip(w2)
    )
    return normed, (flip_x, flip_y)


class LemmaBranch(Enum):
    """Which cut construction produced the small covering quadrilateral.

    The branch names the square edge through which the slanted cut line
    passes: U_TOP when the right contact sits low (below the tilt band),
    U_BOTTOM when it sits high, U_RIGHT / U_LEFT for the transposed cases
    driven by the top contact, and MIDPOINT_CASE when both contacts are
    inside their bands and the two balanced cut lines are intersected.
    """

    U_TOP = "u-top"
    U_BOTTOM = "u-bottom"
    U_RIGHT = "u-right"
    U_LEFT = "u-left"
    MIDPOINT_CASE = "midpoint-case"


def _ccw(vertices: Sequence[Tuple[Scalar, Scalar]]) -> ConvexPolygon:
    poly = convex_hull(list(vertices))
    if len(poly) != len(vertices):
        raise HypothesisViolated(
            "cut quadrilateral degenerated while assembling branch vertices"
        )
    return poly


def lemma_octagon_quad(
    contacts: ContactBox, c: Scalar, delta: Scalar
) -> Tuple[ConvexPolygon, LemmaBranch]:
    """Small quadrilateral containing hull(square corners, contacts).

    Input is a reflection-normalized contact configuration whose box
    extents both fit in a c-by-c square anchored at the deep corner
    (b1 - a1 <= c and b2 - a2 <= c with the anchor at (a1, a2)); the off-axis
    coordinates of the contacts must lie in [-1, 1] and the extremes beyond
    the square edges.  Hypotheses get the input's slack, and violations
    raise :class:`HypothesisViolated` naming the failed inequality.

    Returns the covering quadrilateral and the branch taken.  In every
    branch the quadrilateral contains the hull of the unit square and the
    four contacts, and its area obeys the closed-form branch bound.
    """
    x1, y2 = contacts.a1, contacts.a2
    v1, v2, w1, w2 = contacts.v1, contacts.v2, contacts.w1, contacts.w2
    tol = _slack(c, delta, x1, y2, contacts.b1, contacts.b2, *v1, *v2, *w1, *w2)
    _validate_params(c, delta)

    checks = (
        (-v1.y <= 1 + tol and v1.y <= 1 + tol, "|v1_y| <= 1"),
        (-v2.x <= 1 + tol and v2.x <= 1 + tol, "|v2_x| <= 1"),
        (-w1.y <= 1 + tol and w1.y <= 1 + tol, "|w1_y| <= 1"),
        (-w2.x <= 1 + tol and w2.x <= 1 + tol, "|w2_x| <= 1"),
        (x1 <= -1 + tol, "a1 <= -1"),
        (y2 <= -1 + tol, "a2 <= -1"),
        (contacts.b1 >= 1 - tol, "b1 >= 1"),
        (contacts.b2 >= 1 - tol, "b2 >= 1"),
        (-x1 <= contacts.b1 + tol, "-a1 <= b1 (reflection-normalized)"),
        (-y2 <= contacts.b2 + tol, "-a2 <= b2 (reflection-normalized)"),
        (contacts.b1 - x1 <= c + tol, "b1 - a1 <= c"),
        (contacts.b2 - y2 <= c + tol, "b2 - a2 <= c"),
    )
    for ok, label in checks:
        if not ok:
            raise HypothesisViolated(f"hypothesis {label} fails")

    lo_y = y2 + (HALF - delta) * c
    hi_y = y2 + (HALF + delta) * c
    lo_x = x1 + (HALF - delta) * c
    hi_x = x1 + (HALF + delta) * c

    if w1.y < lo_y:
        X = 1 + _div(x1 + c - 1, HALF + delta)
        quad = _ccw([(x1, y2), (X, y2), (1, y2 + c), (x1, y2 + c)])
        return quad, LemmaBranch.U_TOP
    if w1.y > hi_y:
        X = 1 + _div(x1 + c - 1, HALF + delta)
        quad = _ccw([(x1, y2), (1, y2), (X, y2 + c), (x1, y2 + c)])
        return quad, LemmaBranch.U_BOTTOM
    if w2.x < lo_x:
        Y = 1 + _div(y2 + c - 1, HALF + delta)
        quad = _ccw([(x1, y2), (x1 + c, y2), (x1 + c, 1), (x1, Y)])
        return quad, LemmaBranch.U_RIGHT
    if w2.x > hi_x:
        Y = 1 + _div(y2 + c - 1, HALF + delta)
        quad = _ccw([(x1, y2), (x1 + c, y2), (x1 + c, Y), (x1, 1)])
        return quad, LemmaBranch.U_LEFT

    # Both contacts inside their tilt bands: intersect the two balanced cut
    # lines y = slope*x - h.  The first rises from (1, y2) toward w1, the
    # second descends through (x1 + c, y2 + 4c/5); their crossing is the far
    # corner.  The slopes have opposite signs, so the lines always cross.
    slope1 = _div((HALF - delta) * c, x1 + c - 1)
    h1 = slope1 - y2
    slope2 = _div(-1, 5 * (HALF - delta))
    anchor_y = y2 + _div(4 * c, 5)
    h2 = slope2 * (x1 + c) - anchor_y
    det = slope2 - slope1
    far = (_div(h2 - h1, det), _div(slope1 * h2 - slope2 * h1, det))
    top = (x1, _div(c, 5 * (HALF - delta)) + anchor_y)
    quad = _ccw([(x1, y2), (1, y2), far, top])
    return quad, LemmaBranch.MIDPOINT_CASE


def outer_ball_check(quad: Quadrilateral) -> bool:
    """True when every vertex of the quadrilateral lies in 3 * [-1,1]^2.

    Meaningful for quadrilaterals whose midpoint parallelogram is the unit
    square; minimality then forces the vertices into the tripled square.
    The square grows by the input's relative slack, none on exact input.
    """
    bound = 3 * (1 + _slack(*quad.vertices[0]))
    return all(v.linf() <= bound for v in quad.vertices)


def inner_ball_inclusion(
    v: Point, R: Scalar, r: Scalar
) -> Tuple[ConvexPolygon, ConvexPolygon, ConvexPolygon]:
    """Witness polygons for the shrunken-ball inclusion around a far vertex.

    For a point v with sup-norm at most R and radii 0 < r <= R + 1, the
    square of radius lam = r / (R + 1) centered at (1 - lam) v sits inside
    both hull([-1,1]^2, v) and the square of radius r around v.  Returns
    (small square, hull, ball around v); callers verify containment.
    """
    v = Point(*v)
    if v.linf() > R:
        raise DomainError("vertex lies outside the stated sup-norm bound")
    if not 0 < r <= R + 1:
        raise DomainError("radius must lie in (0, R + 1]")
    lam = _div(r, R + 1)
    center = Point((1 - lam) * v.x, (1 - lam) * v.y)
    small = linf_ball(center, lam)
    hull = convex_hull(list(unit_square().vertices) + [v])
    ball = linf_ball(v, r)
    return small, hull, ball


class CaseId(Enum):
    """Which certified case of the area bound fired."""

    BOX_LARGE = "box-large"
    BOX_SKEWED = "box-skewed"
    BODY_EXCEEDS_OCTAGON = "body-exceeds-octagon"
    OCTAGON_IMPROVED = "octagon-improved"
    DEGENERATE_TRIANGLE = "degenerate-triangle"


@dataclass(frozen=True)
class CaseReport:
    """Outcome of running the case machine on one body.

    The witness is a :class:`Quadrilateral`, or the body itself when the body
    is a triangle.  The other fields are the case ladder's evidence, each
    ``None`` when its rung was not reached (all of them for a triangle): the
    map onto the midpoint square and the normalized body's contact box, then
    the contact octagon's area and the body's largest sup-norm gap to it,
    then the cut construction's branch, reflections and quadrilateral area.
    """

    case_id: CaseId
    certified_factor: float
    witness: ConvexPolygon
    empirical_ratio: float
    normalizing_map: Optional[AffineMap] = None
    contacts: Optional[ContactBox] = None
    octagon_area: Optional[float] = None
    max_octagon_gap: Optional[float] = None
    lemma_branch: Optional[LemmaBranch] = None
    reflections: Optional[Tuple[bool, bool]] = None
    cut_quad_area: Optional[float] = None


# The case ladder's thresholds in floats, derived once from the default
# constants.  c2 and r are the floats nearest their 128-bit enclosures, the
# precision certify_constants proves them at; the one case factor every rung
# reports is 1/sqrt(c1) in floats.
_CONSTS = TheoremConstants()
_C1, _C3, _DELTA = float(_CONSTS.c1), float(_CONSTS.c3), float(_CONSTS.delta)
_C2, _R = (
    float((iv.lo + iv.hi) / 2)
    for iv in (_CONSTS.c2_expr().enclosure(128), _CONSTS.r_expr().enclosure(128))
)
_CASE_FACTOR = 1.0 / math.sqrt(_C1)


def case_machine(body: ConvexPolygon) -> CaseReport:
    """Classify a body into a certified case of the improved area bound.

    Solves for the minimum circumscribed quadrilateral, takes the map of its
    midpoint parallelogram onto [-1, 1]^2 (:func:`normalize_to_square`), and
    walks the case ladder on the body's oracle under that map:

    1. box area x*y > 8*c1: the AM-GM step in the sqrt(2) chain is slack.
    2. box skewed (x > c2*y or y > c2*x): same slack, via the skew margin.
    3. some body vertex further than r (sup-norm) from the contact
       octagon: the octagon undersells the body area.
    4. otherwise the cut construction shrinks the covering quadrilateral
       below 8 directly; the consistency guard (1+r)^2 |cut quad| < 8
       must hold, else :class:`InconsistentCase`.

    One :class:`Support` oracle of the body is built per call; the solver,
    its certificate and the ladder all read the body through it.  The ladder
    builds no normalized copy of the body: it needs about 20 support values
    of the normalized body, and ``h_{MK+t}(u) = h_K(M^T u) + <u, t>`` makes
    each one O(log n) query on the body itself (:meth:`Support.under`).  The
    contact box takes 4 queries and the octagon gap, which reuses the box's
    axis extremes, one per octagon edge normal.  The octagon's corners are
    the images of the witness's edge midpoints, so the certificate's
    midpoint residuals stand in for the test that the octagon lies in the
    body.

    The ladder runs on the body in floats, so every threshold and hypothesis
    is tested with the slack ``geometry.FLOAT_SLACK`` and borderline
    bodies fall into the case whose certificate is robust.
    Triangle-degenerate minimizers short-circuit to the exact factor
    1/sqrt(2).
    """
    body = body.to_float()
    support = Support(body)
    quad, cert = min_circumscribed_quadrilateral(body, support)
    ratio = float(cert.area_ratio)
    if len(quad) == 3:
        return CaseReport(
            CaseId.DEGENERATE_TRIANGLE, 1.0 / math.sqrt(2.0), quad, ratio
        )

    return _classify_normalized(
        support.under(normalize_to_square(quad)),
        quad,
        ratio,
        cert.midpoint_residuals,
    )


def _classify_normalized(
    norm_body: Support,
    witness: ConvexPolygon,
    empirical_ratio: float,
    corner_residuals: Sequence[Scalar],
) -> CaseReport:
    """Case ladder on a body normalized to touch [-1, 1]^2.

    ``norm_body`` is the body's :class:`Support` oracle under the
    normalizing map, which the report records as ``normalizing_map``.
    ``corner_residuals`` are the witness's midpoint residuals, the sup-norm
    distances of the square's corners' preimages to the body over its
    diameter: the octagon rung requires each within the slack, in place of
    :func:`build_octagon`'s containment test.  ``witness`` and
    ``empirical_ratio`` are passed through to the report; the ladder adds
    the evidence of each rung it reaches.  Every rung reports the one case
    factor, 1/sqrt(c1) in floats.
    """
    contacts = axis_box_with_contacts(norm_body)
    report = partial(
        CaseReport,
        witness=witness,
        empirical_ratio=empirical_ratio,
        normalizing_map=norm_body.affine,
        contacts=contacts,
    )
    x, y = float(contacts.x), float(contacts.y)
    slack = _slack(contacts.x)

    if x * y > 8 * _C1 + slack:
        return report(CaseId.BOX_LARGE, _CASE_FACTOR)
    if x > _C2 * y + slack or y > _C2 * x + slack:
        return report(CaseId.BOX_SKEWED, _CASE_FACTOR)

    scene8 = build_octagon(norm_body, contacts)
    if any(d > slack for d in corner_residuals):
        raise NormalizationViolated("a corner of the midpoint square escapes the body")
    # The largest sup-norm distance of a body vertex from the octagon, one
    # call for the whole body: one maximum per edge normal of the octagon.
    # The contact box holds the body's axis extremes, so they are not read again.
    extent = (contacts.a1, contacts.a2, contacts.b1, contacts.b2)
    gap = float(linf_distance_to_polygon(norm_body, scene8.octagon, extent))
    octagon_area = float(scene8.octagon_area)
    if gap > _R + slack:
        return report(
            CaseId.BODY_EXCEEDS_OCTAGON,
            _CASE_FACTOR,
            octagon_area=octagon_area,
            max_octagon_gap=gap,
        )

    # Remaining configuration: round box, body hugging the contact octagon.
    # The cut construction then beats area 8, which contradicts minimality
    # of the normalizing quadrilateral; reachable only through slack
    # (test_octagon_improved_body_solves_to_box_large).
    normed, flips = reflection_normalize(contacts)
    cut_quad, branch = lemma_octagon_quad(normed, _C3, _DELTA)
    cut_area = float(cut_quad.area)
    if (1 + _R) ** 2 * cut_area >= 8:
        raise InconsistentCase(
            "dilated cut quadrilateral fails the strict area-8 guard: "
            f"(1+r)^2 * {cut_area} >= 8"
        )
    return report(
        CaseId.OCTAGON_IMPROVED,
        _CASE_FACTOR,
        octagon_area=octagon_area,
        max_octagon_gap=gap,
        lemma_branch=branch,
        reflections=flips,
        cut_quad_area=cut_area,
    )
