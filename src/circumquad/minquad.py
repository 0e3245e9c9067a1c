"""Minimum-area circumscribed quadrilaterals.

A circumscribed quadrilateral is parametrized by four support directions
(angles on the circle): each direction contributes the supporting line of the
body, and consecutive lines intersect in the corners.  A quadruple is feasible
iff consecutive angle gaps stay below pi; a side may then have zero length,
and the quadruple is a circumscribed triangle.

Both entry points share one exhaustive scan over a sorted set of directions.
It splits the doubled area into four corner terms, one per pair of
consecutive lines, and minimizes their sum over 4-cycles of directions with
one min-plus product of the corner-term matrix with itself, a loop over the
middle line: O(n^3) time and O(n^2) memory on n directions.

* :func:`brute_force_min_quad` scans a uniform angle grid and returns the
  best quadruple, or the triangle it is when a side has collapsed.  It is
  the reference oracle: exhaustive, no refinement, and its directions do not
  depend on the body.
* :func:`min_circumscribed_quadrilateral` scans the body's own edge normals.
  At every coordinatewise minimum two adjacent sides lie flush with body
  edges (Aggarwal, Chang and Yap, 1985), so these are the natural starts.
  It refines the best few quadruples by exact cyclic coordinate descent, each
  side moving in turn to its best angle by bisection over the body vertices
  it can pivot about, with the other two corners held fixed.  A move is a
  function of its neighbours' lines and angles and of the line opposite, and
  takes just these as arguments, so the starts of one solve share one cache
  of moves on them: a start that reaches a state an earlier start passed
  through replays that start's moves instead of running them again.  At a
  local minimum every side touches the body at the side's midpoint, which is
  exactly the optimality condition the certificate measures.

The solver never assumes success: its output is wrapped in a
:class:`CircumscriptionCertificate` with containment re-checked geometrically.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    BadParams,
    DegenerateBody,
    DegenerateParallelogram,
    DegenerateInput,
    NoFeasibleQuadruple,
    SolverFailure,
    _as_int,
)
from .geometry import (
    ConvexPolygon,
    Scalar,
    Support,
    _TWO_PI,
    _point_distances,
    _slack,
    contains_polygon,
    midpoint,
)

# Two lines whose gap g has ``sin g`` at or below this meet in no corner of a
# circumscribed quadrilateral: the gap is 0 or at least pi, or so near either
# that the corner is lost to rounding.  The scan, the side moves and the
# choice of scanned normals all use it.
_SIN_GAP_MIN = 1e-12
# Relative tolerance of the solver: descent stops once a cycle gains less than
# this fraction of the area, and it is the relative slack of the containment
# check on float input.
_TOL = 1e-9
# Coordinate descent can stop in a local minimum that another start beats.
# The starts are the best (anchor, opposite) pairs of the edge-normal scan.
# On the acceptance and held-out corpora 4 starts leave no body above the
# uniform 90-grid solver this scan replaced (3 leave one 5e-3 above); 6 keeps
# a margin.  A start costs only the side moves no earlier start of the solve
# made: the others come from the solve's cache of moves (see _refine).
_MAX_STARTS = 6
# The solver scans about this many of the body's edge normals at most, so
# that the O(n^3) scan stays under about 2 ms (1.6-1.9 ms for the 86 it
# keeps of an ellipse 1024-gon, 2-core VM); see _scan_normals.
_MAX_DIRECTIONS = 90
# Descent cycles per start.  Refinement stops earlier once a cycle gains less
# than ``_TOL``, which on the corpus families takes 2 to 4 cycles.
_REFINE_CYCLES = 30
# Largest sup-norm diameter of a body the solver accepts.  The scan's support
# values about the vertex mean are at most sqrt(2) times the diameter, so each
# feasible corner term is below 8 * diam**2 / _SIN_GAP_MIN, and the scan's
# sums of four such terms stay finite up to here (about 2.4e147).
_MAX_DIAMETER = math.sqrt(sys.float_info.max * _SIN_GAP_MIN / 32.0)
# Largest angle grid the oracle accepts.  The scan holds a few n-by-n float
# arrays and takes O(n^3) time: at 1024 a 25 MB tracemalloc peak and 1.2 s
# for the 8-vertex hull of 16 random points on a 2-core VM, and the memory
# grows with n^2 beyond that.
_MAX_GRID = 1024


class Quadrilateral(ConvexPolygon):
    """Strictly convex polygon with exactly four ccw vertices."""

    __slots__ = ()

    def __init__(self, vertices):
        vs = tuple(vertices)
        if len(vs) != 4:
            raise BadParams(f"a quadrilateral needs exactly 4 vertices, got {len(vs)}")
        super().__init__(vs)


@dataclass(frozen=True)
class CircumscriptionCertificate:
    """Evidence attached to a solver answer.

    midpoint_residuals are the max-norm distances from each edge midpoint of
    the witness to the body, scaled by the body's max-norm diameter, one per
    edge; at a true minimum they vanish (every minimal side touches the body
    at the side's midpoint).
    """

    contains_body: bool
    midpoint_residuals: Tuple[Scalar, ...]
    area_ratio: Scalar


def varignon(quad: Quadrilateral) -> ConvexPolygon:
    """Parallelogram of the edge midpoints; has half the quadrilateral's area.

    Raises BadParams for a polygon that is not a quadrilateral (such as a
    triangle body's witness) and DegenerateParallelogram when the midpoints
    are collinear.
    """
    if len(quad) != 4:
        raise BadParams(f"varignon needs 4 vertices, got {len(quad)}")
    mids = [midpoint(a, b) for a, b in quad.edges()]
    try:
        return ConvexPolygon(mids)
    except DegenerateInput as exc:
        raise DegenerateParallelogram(str(exc)) from exc


def midpoint_certificate(
    body: ConvexPolygon, quad: ConvexPolygon, support: Optional[Support] = None
) -> CircumscriptionCertificate:
    """Containment (slack ``_TOL`` on float input) and midpoint optimality residuals.

    The body's bounding box and edge vectors are computed once, for its
    diameter and for the midpoint distances.  The containment test reads the
    body's extreme vertices along each edge normal of ``quad`` off one query
    to ``support``, the body's :class:`Support` oracle (built here when not
    given), instead of a pass over every vertex: one query per witness edge
    and no other.
    """
    box = body.bounding_box()
    diam = max(box[2] - box[0], box[3] - box[1])
    mids = [midpoint(a, b) for a, b in quad.edges()]
    residuals = tuple(d / diam for d in _point_distances(mids, body, box))
    tol = _TOL if _slack(*body.vertices[0], *quad.vertices[0]) else 0
    contains = contains_polygon(quad, Support(body) if support is None else support, tol)
    ratio = quad.area / body.area
    return CircumscriptionCertificate(contains, residuals, ratio)


# --- support-direction machinery ---------------------------------------------


def _scan_support_directions(poly: ConvexPolygon, angles: np.ndarray, count: int):
    """Exhaustive scan over the support-direction quadruples of a float body.

    ``angles`` are the outward normal angles of the candidate lines, sorted
    in [0, 2*pi).  Returns the ``count`` best (anchor, opposite) pairs as a
    sorted list of (doubled_area, index_quadruple): the anchor a is the
    smallest index, the opposite index c the third, and b and d are the best
    pair between them.

    Line k has outward normal angle ``angles[k]`` and support value h_k,
    taken about the vertex mean so that the squares below do not cancel.
    The doubled area is the sum of h_i times the length of side i; grouped by
    corner it is a sum of four corner terms

        2A(a, b, c, d) = W(a, b) + W(b, c) + W(c, d) + W(d, a),
        W(i, j) = (2 h_i h_j - (h_i^2 + h_j^2) cos g) / sin g,

    g being the gap from line i to line j; a pair with
    ``sin g <= _SIN_GAP_MIN`` is infeasible, as in :func:`_quad_from_lines`.
    Both halves come from one min-plus product, M[x, y] = min over m > x of
    W(x, m) + W(m, y): the best b gives M[a, c] and the best d gives M[c, a],
    since W's infinite entries keep m between x and y, going round past 2*pi
    where y < x.  The product is one loop over the middle line m
    (:func:`_min_plus_product`): O(n^3) time, O(n^2) memory.

    With every gap in (0, pi) the contact vertex of each line lies on its
    side, so every quadruple circumscribes the body, but a side may have
    zero length: three consecutive lines through one contact.  That
    quadruple is a circumscribed triangle with a fourth line through a
    corner, and its area is the triangle's.  On edge normals no side
    collapses, as each line holds a body edge and its side holds the edge;
    on a uniform grid one can, and :func:`brute_force_min_quad` then returns
    the triangle.  b and d are read off W for the returned pairs only
    (:func:`_middles`).  The sums, their minima and the stable order on ties
    are those of a search over every quadruple.
    """
    V = np.asarray(poly.vertices, dtype=float)
    V = V - V.mean(axis=0)
    n = len(angles)
    cj, sj = np.cos(angles), np.sin(angles)
    hj = (V @ np.stack([cj, sj])).max(axis=0)
    ci, si, hi = cj[:, None], sj[:, None], hj[:, None]
    # The infeasible pairs may overflow; they are masked below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin_g = ci * sj
        sin_g -= si * cj
        cos_g = ci * cj
        cos_g += si * sj
        W = hi * hi + hj * hj
        W *= cos_g
        del cos_g
        np.subtract(2.0 * hi * hj, W, out=W)
        W /= sin_g
    W[sin_g <= _SIN_GAP_MIN] = np.inf
    del sin_g
    M = _min_plus_product(W)
    # total[a, c]: the best doubled area with anchor a and opposite line c.
    total = M + M.T
    del M
    np.copyto(total, np.inf, where=np.tri(n, dtype=bool))  # a >= c
    total = total.ravel()
    best = np.argsort(total, kind="stable")[:count]  # ties in (a, c) order
    best = best[np.isfinite(total[best])]
    if not len(best):
        raise NoFeasibleQuadruple(
            f"no four of the {n} directions have consecutive gaps below pi"
        )
    a, c = np.divmod(best, n)
    area = total[best]
    b, d = _middles(W, a, c, area)
    return [
        (v, (a_, b_, c_, d_))
        for v, a_, b_, c_, d_ in zip(area.tolist(), a.tolist(), b, c.tolist(), d)
    ]


def _min_plus_product(W: np.ndarray) -> np.ndarray:
    """M[x, y] = min over m > x of W(x, m) + W(m, y), one step per line m."""
    n = len(W)
    M = np.full((n, n), np.inf)
    # Rows above the first finite entry of column m pair with no m.
    first = np.isfinite(W).argmax(axis=0).tolist()
    for m in range(1, n):
        lo = first[m]
        if lo < m:
            np.minimum(M[lo:m], W[lo:m, m, None] + W[m], out=M[lo:m])
    return M


def _middles(W: np.ndarray, a, c, area):
    """b and d of each (anchor a, opposite c) pair whose best doubled area is ``area``.

    Reads the sums off the corner-term matrix ``W``.  As an argmin over every
    b-by-d sum would: the first b that some d completes to ``area``, then the
    first such d.
    """
    F = W[a] + W[:, c].T  # W(a, b) + W(b, c); inf unless a < b < c
    G = W[c] + W[:, a].T  # W(c, d) + W(d, a)
    G[np.arange(len(W)) <= c[:, None]] = np.inf  # a d below a would be the anchor
    b = (F + G.min(axis=1, keepdims=True) == area[:, None]).argmax(axis=1)
    d = (F[np.arange(len(a)), b][:, None] + G == area[:, None]).argmax(axis=1)
    return b.tolist(), d.tolist()


def _scan_normals(normals: List[float]) -> List[float]:
    """The edge normals the solver scans: all of them up to 90 edges.

    Beyond that every k-th one, k = ceil(edges / 90), except where two picks
    would lie pi or more apart: every normal between them is kept there, for
    no quadruple spans such a gap (a half-disk's flat side makes one).
    """
    step = math.ceil(len(normals) / _MAX_DIRECTIONS)
    picked = []
    for i in range(0, len(normals), step):
        nxt = normals[i + step] if i + step < len(normals) else normals[0] + _TWO_PI
        wide = math.sin(nxt - normals[i]) <= _SIN_GAP_MIN  # the scan's infeasible gaps
        picked += normals[i : i + step] if wide else [normals[i]]
    return picked


def _float_support(
    body: ConvexPolygon, support: Optional[Support] = None
) -> Tuple[ConvexPolygon, Support]:
    """The body in floats and its support oracle; rejects a flat or huge body.

    ``support``, when given, is the oracle of the float body, built by the
    caller.
    """
    poly = body.to_float()
    diam = poly.linf_diameter()
    if not diam <= _MAX_DIAMETER:
        raise BadParams(
            f"body too large: its sup-norm diameter {diam:.3g} exceeds {_MAX_DIAMETER:.3g}, "
            "beyond which the solver's sums of corner terms may overflow"
        )
    if poly.area <= 1e-12 * diam * diam:
        raise DegenerateBody("body area is numerically zero")
    return poly, Support(poly) if support is None else support


def _quad_from_lines(lines, tiny: float):
    """Area and corners of the quadrilateral cut out by four support lines.

    ``lines`` holds (cos, sin, h) per side, at ascending angles that span
    less than 2*pi; three lines give a triangle.  Returns (inf, None) for
    infeasible configurations: a gap outside (0, pi), a crossed edge, or an
    edge no longer than ``tiny``, which has collapsed into a corner and
    leaves a triangle no side move can leave.
    """
    k = len(lines)
    corners = []
    for i in range(k):
        ci, si, hi = lines[i]
        cj, sj, hj = lines[(i + 1) % k]
        det = ci * sj - cj * si  # sin of the gap
        if det <= _SIN_GAP_MIN:
            return math.inf, None
        corners.append(((hi * sj - hj * si) / det, (ci * hj - cj * hi) / det))
    twice = 0.0
    for i in range(k):
        cj, sj, _ = lines[(i + 1) % k]
        (xi, yi), (xj, yj) = corners[i], corners[(i + 1) % k]
        # side i+1 runs from corner i to corner i+1; positive tangent advance
        if cj * (yj - yi) - sj * (xj - xi) <= tiny:
            return math.inf, None
        twice += xi * yj - yi * xj
    return twice / 2.0, corners


def _side_evaluator(prev_line, next_line, opposite_line, i: int, tiny: float):
    """Area of a quadrilateral as a function of side i's line alone.

    The other three (cos, sin, h) lines are fixed: side i's neighbours and
    the line opposite.  A move of side i changes only the two corners on it.
    The other two corners, the side between them and its shoelace term are
    computed once here; the returned ``area(c, s, h)`` then needs two
    intersections, three side checks and the four shoelace terms, added in
    the order of :func:`_quad_from_lines`, whose value it equals bit for
    bit.  Returns None when the fixed part is infeasible, so that every
    position of side i is.
    """
    cp, sp, hp = prev_line
    cn, sn, hn = next_line
    co, so, ho = opposite_line
    det = cn * so - co * sn
    if det <= _SIN_GAP_MIN:
        return None
    x1, y1 = (hn * so - ho * sn) / det, (cn * ho - co * hn) / det  # corner i+1
    det = co * sp - cp * so
    if det <= _SIN_GAP_MIN:
        return None
    x2, y2 = (ho * sp - hp * so) / det, (co * hp - cp * ho) / det  # corner i+2
    if co * (y2 - y1) - so * (x2 - x1) <= tiny:
        return None
    fixed = x1 * y2 - y1 * x2

    def area(c: float, s: float, h: float) -> float:
        det = cp * s - c * sp
        if det <= _SIN_GAP_MIN:
            return math.inf
        xa, ya = (hp * s - h * sp) / det, (cp * h - c * hp) / det  # corner i-1
        det = c * sn - cn * s
        if det <= _SIN_GAP_MIN:
            return math.inf
        xb, yb = (h * sn - hn * s) / det, (c * hn - cn * h) / det  # corner i
        if (
            cp * (ya - y2) - sp * (xa - x2) <= tiny
            or c * (yb - ya) - s * (xb - xa) <= tiny
            or cn * (y1 - yb) - sn * (x1 - xb) <= tiny
        ):
            return math.inf
        ta, tb, tc = xa * yb - ya * xb, xb * y1 - yb * x1, x2 * ya - y2 * xa
        if i == 0:
            return (tb + fixed + tc + ta) / 2.0
        if i == 1:
            return (ta + tb + fixed + tc) / 2.0
        if i == 2:
            return (tc + ta + tb + fixed) / 2.0
        return (fixed + tc + ta + tb) / 2.0

    return area


def _side_move(support: Support, i: int, prev_angle: float, next_angle: float,
               prev_line, next_line, opposite_line):
    """(area, angle, line) of side i's best position, or None if it has none.

    Side i may turn between its neighbours' angles, up to pi from either.  On
    each piece of that range between two edge normals it pivots about one
    contact p, and the area is a constant plus or minus the triangle that
    side i cuts from its neighbouring lines; that triangle is smallest where
    p bisects the side.  If the neighbours' normals are over pi apart it
    adds, and the piece's candidate is the bisecting angle clipped to the
    piece; else it subtracts, and the candidate is the piece end.  A
    candidate at the piece start is none: the previous piece's is no higher.
    Piece j has contact ``contacts[(k0 + j) % m]`` and ends at the matching
    normal, unrolled past 2*pi, so any candidate costs O(1).

    The best position is the first candidate of least area, as a walk over
    every piece finds it; the range is bisected for it (see :func:`_refine`).

    The solver caches moves on their arguments (see :func:`_refine`).  The
    cache compares floats by value, so ``0.0`` and ``-0.0`` share an entry,
    and a state that differs from an earlier one only in the sign of a zero
    gets the earlier state's move.
    """
    prev = prev_angle - (_TWO_PI if i == 0 else 0.0)
    nxt = next_angle + (_TWO_PI if i == 3 else 0.0)
    lo, hi = max(prev, nxt - math.pi), min(prev + math.pi, nxt)
    area_of = _side_evaluator(prev_line, next_line, opposite_line, i, support.tiny)
    if area_of is None or not lo < hi:
        return None
    normals, contacts = support.normals, support.contacts
    m = len(normals)
    k0 = bisect_right(normals, lo % _TWO_PI)
    base = lo - lo % _TWO_PI
    # The normals past 2*pi end their pieces at wrapped + normal, summed in
    # this order: another rounding picks another of a regular hexagon's equal
    # minima, and with it another case.
    wrapped = base + _TWO_PI
    # The last piece is the first whose normal lies at or past hi.
    last = bisect_left(normals, hi, k0, m, key=lambda phi: base + phi) - k0
    if k0 + last == m:
        last += bisect_left(normals, hi, 0, m, key=lambda phi: wrapped + phi)

    cp, sp, hp = prev_line
    cn, sn, hn = next_line
    det = cp * sn - cn * sp  # sin(nxt - prev)

    def candidate(j: int):
        """(area, angle, line) of piece j's candidate; (inf, None, None) if none."""
        k = k0 + j
        if j == 0:
            start = lo
        else:
            start = base + normals[k - 1] if k <= m else wrapped + normals[k - 1 - m]
        end = base + normals[k] if k < m else wrapped + normals[k - m]
        if end > hi:
            end = hi
        px, py = contacts[k % m]
        theta = end
        if det < 0.0:
            b1 = hp - (cp * px + sp * py)
            b2 = (cn * px + sn * py) - hn
            # p + s lies on the previous line and p - s on the next one.
            sx = (b1 * sn - b2 * sp) / det
            sy = (cp * b2 - cn * b1) / det
            mid = 0.5 * (start + end)
            theta = mid + math.remainder(math.atan2(sx, -sy) - mid, _TWO_PI)
            theta = start if theta < start else end if theta > end else theta
        if theta <= start:
            return math.inf, None, None
        c, s = math.cos(theta), math.sin(theta)
        h = px * c + py * s
        return area_of(c, s, h), theta, (c, s, h)

    found = [None] * (last + 1)

    def value(j: int) -> float:
        if found[j] is None:
            found[j] = candidate(j)
        return found[j][0]

    a, b = 0, last
    while a < b:
        j = (a + b) // 2
        if value(j + 1) >= value(j):
            b = j
        else:
            a = j + 1
    # Widen to the near-flat stretch around the bisection's piece; an
    # infeasible piece widens it to the whole range.
    near = value(a)
    near += 1e-12 * abs(near)
    b = a
    while a > 0 and value(a - 1) <= near:
        a -= 1
    while b < last and value(b + 1) <= near:
        b += 1
    area, theta, line = min(found[a : b + 1], key=itemgetter(0))  # the first of least area
    return None if line is None else (area, theta, line)


def _refine(support: Support, angles: List[float], move):
    """Cyclic exact coordinate descent over the four side angles.

    Each side in turn moves to its best position if that lowers the area.
    ``move`` is :func:`_side_move` with ``support`` bound.  The solver
    passes every start of a solve one ``functools.cache`` of it, so each
    distinct move runs once per solve, and a start that reaches a state an
    earlier start passed through replays that start's moves; a cached move
    is the computed one, so the cache changes no result.
    A move's candidates, one per piece of its range (:func:`_side_move`), are
    taken to have areas that fall and then rise along the range, as the
    area's derivative has the sign of the contact's offset from the side's
    midpoint.  With that shape a bisection finds the first piece whose
    successor is not lower in O(log m) area evaluations.  The shape does not
    always hold: on ``gen_corpus("random", 12, seed=900228, vertices=48)[11]``
    from the start at scanned normals (1, 5, 7, 10), side 1's candidate
    areas fall, rise and fall again, the move takes a worse candidate than a
    walk over every piece would, and the descent from that start ends 2.2%
    above the walk's.  Another start recovers the answer there;
    ``TestSideMove::test_bisection_is_the_walk`` pins the walk's result on
    the test bodies.  Rounding makes equal minima (of a pentagon, a hexagon
    or an ellipse) unequal, so the move then takes the first least area over
    the stretch around that piece within 1e-12 of it, as a walk over every
    piece would; if the bisection ends on an infeasible piece, that stretch
    is the whole range.  Each evaluation holds the two corners off side i
    fixed (:func:`_side_evaluator`), and equals the full shoelace sum bit for
    bit.
    """
    lines = [support.line(theta) for theta in angles]
    area, _ = _quad_from_lines(lines, support.tiny)
    for _ in range(_REFINE_CYCLES):
        area_before = area
        for i in range(4):
            best = move(i, angles[i - 1], angles[(i + 1) % 4],
                        lines[i - 1], lines[(i + 1) % 4], lines[(i + 2) % 4])
            if best is not None and best[0] < area:
                area, angles[i], lines[i] = best
        if area_before - area <= _TOL * abs(area):
            break
    return area, lines


def brute_force_min_quad(body: ConvexPolygon, grid: int = 180) -> ConvexPolygon:
    """Best circumscribed quadrilateral over the uniform angle grid.

    Exhaustive over all direction quadruples with gaps below pi; no
    refinement.  Serves as the independent oracle for the solver.  ``grid``
    runs from 16 to 1024.  Returns a :class:`Quadrilateral`, or a triangle
    when the best quadruple has a collapsed side: its line then passes
    through the corner of its two neighbours, and the other three lines cut
    out the same region.  The minimum circumscribed quadrilateral is never
    larger than a circumscribed triangle, so the result stays an upper bound
    on it.
    """
    grid = _as_int(grid, "grid")
    if not 16 <= grid <= _MAX_GRID:
        raise BadParams(f"grid must be between 16 and {_MAX_GRID}")
    poly, support = _float_support(body)
    angles = [_TWO_PI * k / grid for k in range(grid)]
    _, idx = _scan_support_directions(poly, np.array(angles), 1)[0]
    lines = [support.line(angles[k]) for k in idx]
    _, corners = _quad_from_lines(lines, support.tiny)
    if corners is not None:
        return Quadrilateral(corners)
    # Without the collapsed side's line the region stays the same; without
    # any other line it grows, or is no triangle.
    _, corners = min(
        (_quad_from_lines(lines[:i] + lines[i + 1 :], support.tiny) for i in range(4)),
        key=itemgetter(0),
    )
    if corners is None:
        raise NoFeasibleQuadruple(f"the best quadruple on the {grid}-grid is degenerate")
    return ConvexPolygon(corners)


def min_circumscribed_quadrilateral(
    body: ConvexPolygon, support: Optional[Support] = None
) -> Tuple[ConvexPolygon, CircumscriptionCertificate]:
    """Minimum-area quadrilateral containing ``body``, with certificate.

    Scans quadruples of the body's own edge normals (every k-th one on a body
    of more than 90 edges) for global structure, then refines the best few
    distinct starts locally.  The result never exceeds the best scanned
    candidate.  A triangular body is its own witness: the result is then the
    body's 3-vertex polygon (no strictly smaller quadrilateral exists),
    otherwise a :class:`Quadrilateral`.

    ``support`` is the :class:`Support` oracle of the body in floats, when the
    caller holds one; the solver and the certificate read the body through it.
    """
    poly, support = _float_support(body, support)
    if len(poly) == 3:
        return poly, midpoint_certificate(poly, poly, support)

    normals = _scan_normals(support.normals)
    move = functools.cache(functools.partial(_side_move, support))
    area, lines = min(
        _refine(support, [normals[k] for k in idx], move)
        for _, idx in _scan_support_directions(poly, np.array(normals), _MAX_STARTS)
    )
    if not math.isfinite(area):
        raise NoFeasibleQuadruple("refinement lost every candidate")

    _, corners = _quad_from_lines(lines, support.tiny)
    quad = Quadrilateral(corners)
    cert = midpoint_certificate(poly, quad, support)
    if not cert.contains_body:
        raise SolverFailure("refined quadrilateral fails the containment check")
    return quad, cert
