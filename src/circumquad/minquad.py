"""Minimum-area circumscribed quadrilaterals.

A circumscribed quadrilateral is parametrized by four support directions
(angles on the circle): each direction contributes the supporting line of the
body, and consecutive lines intersect in the corners.  A quadruple is feasible
iff consecutive angle gaps stay below pi and every edge has positive length.

Both entry points share one exhaustive scan over a sorted set of directions.
It splits the doubled area into four corner terms, one per pair of
consecutive lines, and minimizes their sum over 4-cycles of directions as a
min-plus search: O(n^3) time and O(n^2) memory on n directions.  A side has
zero length exactly when the contact vertex of its line lies on both
neighbouring lines, so feasibility is a test on contact vertices, not on
computed corners.

* :func:`brute_force_min_quad` scans a uniform angle grid and returns the
  best quadruple.  It is the reference oracle: exhaustive, no refinement, and
  its directions do not depend on the body.
* :func:`min_circumscribed_quadrilateral` scans the body's own edge normals.
  At every coordinatewise minimum two adjacent sides lie flush with body
  edges (Aggarwal, Chang and Yap, 1985), so these are the natural starts.
  It refines the best few quadruples by exact cyclic coordinate descent, each
  side moving in turn to its best angle by enumerating the body vertices it
  can pivot about.  At a local minimum every side touches the body at the
  side's midpoint, which is exactly the optimality condition the certificate
  measures.

The solver never assumes success: its output is wrapped in a
:class:`CircumscriptionCertificate` with containment re-checked geometrically.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import List, Tuple

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
    _slack,
    contains_polygon,
    linf_distance_to_polygon,
    midpoint,
)

_TWO_PI = 2.0 * math.pi
# Relative tolerance of the solver: descent stops once a cycle gains less than
# this fraction of the area, and it is the relative slack of the containment
# check on float input.
_TOL = 1e-9
# Coordinate descent can stop in a local minimum that another start beats.
# The starts are the best (anchor, opposite) pairs of the edge-normal scan.
# On the acceptance and held-out corpora 4 starts leave no body above the
# uniform 90-grid solver this scan replaced (3 leave one 5e-3 above); 6 keeps
# a margin.
_MAX_STARTS = 6
# The solver scans about this many of the body's edge normals at most, so
# that the O(n^3) scan stays under about 7 ms (the 86 it keeps of an ellipse
# 1024-gon, 2-core VM); see _scan_normals.
_MAX_DIRECTIONS = 90
# Descent cycles per start.  Refinement stops earlier once a cycle gains less
# than ``_TOL``, which on the corpus families takes 2 to 4 cycles.
_REFINE_CYCLES = 30
# Largest angle grid the oracle accepts.  The scan holds a few n-by-n float
# arrays and takes O(n^3) time: at 1024 a 42 MB tracemalloc peak and 4 s for
# a 16-vertex body on a 2-core VM, and the memory grows with n^2 beyond that.
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
    body: ConvexPolygon, quad: ConvexPolygon
) -> CircumscriptionCertificate:
    """Containment (slack ``_TOL`` on float input) and midpoint optimality residuals."""
    diam = body.linf_diameter()
    residuals = tuple(
        linf_distance_to_polygon(midpoint(a, b), body) / diam for a, b in quad.edges()
    )
    tol = _TOL if _slack(*body.vertices[0], *quad.vertices[0]) else 0
    contains = contains_polygon(quad, body, tol)
    ratio = quad.area / body.area
    return CircumscriptionCertificate(contains, residuals, ratio)


# --- support-direction machinery ---------------------------------------------


def _scan_support_directions(poly: ConvexPolygon, angles: np.ndarray, count: int):
    """Exhaustive scan over feasible support-direction quadruples of a float body.

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

    g being the gap from line i to line j; a pair with ``sin g <= 1e-12`` is
    infeasible, as in :func:`_quad_from_lines`.  Each pair (a, c) therefore
    needs only min_b [W(a,b) + W(b,c)] + min_d [W(c,d) + W(d,a)]: O(n^2) per
    anchor and O(n^3) in all, with O(n^2) memory.

    Feasibility is exact and combinatorial.  With every gap in (0, pi), the
    contact vertex of line i lies on side i between its two corners: the
    piece towards line j has length (h_j - <u_j, v_i>) / sin g >= 0.  So
    side i has zero length exactly when its contact lies on both neighbouring
    lines.  Sides b and d only restrict the pairs (b, c) and (c, d); sides a
    and c couple b with d, so each b and each d is tagged by whether a's
    contact and c's contact lie on it, and pairs sharing a tag are excluded.
    "Lies on" allows the rounding level ``2 * tiny`` of
    :class:`_Support`, so every accepted side is longer than ``tiny``.
    """
    V = np.asarray(poly.vertices, dtype=float)
    tiny = 1e-12 * np.abs(V).max()
    V = V - V.mean(axis=0)
    n = len(angles)
    cos, sin = np.cos(angles), np.sin(angles)
    P = V @ np.stack([cos, sin])
    H = P.max(axis=0)
    # on[i, j]: the contact vertex of line i lies on line j.
    on = H[None, :] - P[P.argmax(axis=0)] <= 2.0 * tiny
    del P

    # sin and cos of the gap from line i to line j
    sin_g = np.outer(cos, sin) - np.outer(sin, cos)
    cos_g = np.outer(cos, cos) + np.outer(sin, sin)
    Hi, Hj = H[:, None], H[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        W = (2.0 * Hi * Hj - (Hi * Hi + Hj * Hj) * cos_g) / sin_g
    W[sin_g <= 1e-12] = np.inf
    del sin_g, cos_g
    # Contiguous transposes, so that every block read below is a view.
    WT, onT = np.ascontiguousarray(W.T), np.ascontiguousarray(on.T)
    # Lines a+1..half[a]-1 lie less than pi after line a, lines half[a].. more.
    half = np.searchsorted(angles, angles + math.pi)

    def pair_sums(a: int, c: slice):
        """W(a,b)+W(b,c) over b and W(c,d)+W(d,a) over d, each with its tags.

        Rows run over the b and d windows of ``a``, columns over ``c``; a pair
        whose middle side has zero length is inf.  Each sum comes with its
        tag flags: per row whether a's contact lies on the row's line, per
        entry whether c's contact does.
        """
        b, d = slice(a + 1, half[a]), slice(half[a], n)
        sums = []
        for rows, S in ((b, W[a, b, None] + W[b, c]), (d, WT[d, c] + W[d, a, None])):
            # The rows whose contact lies on line a: usually none or one.
            for r in onT[a, rows].nonzero()[0]:
                S[r, on[rows.start + r, c]] = np.inf
            sums.append((S, on[a, rows], onT[rows, c]))
        return sums

    def tag_minima(S, on_a, on_c):
        """Column minima of S over the rows of each tag; None for an empty tag.

        The tags run (neither, c's, a's, both).  Overwrites S.  On edge normals
        each line's contact lies on one neighbour besides itself, so the tags
        other than "neither" hold a few entries or none.
        """
        parts = [None] * 4
        S_c = None
        if on_c.any():
            S_c = np.where(on_c, S, np.inf)
            np.copyto(S, np.inf, where=on_c)
        rows = on_a.nonzero()[0]
        if len(rows):
            parts[2] = S[rows].min(axis=0)
            S[rows] = np.inf
            if S_c is not None:
                parts[3] = S_c[rows].min(axis=0)
                S_c[rows] = np.inf
        parts[0] = S.min(axis=0, initial=np.inf)
        if S_c is not None:
            parts[1] = S_c.min(axis=0, initial=np.inf)
        return parts

    # total[a, c]: the best doubled area with anchor a and opposite line c.
    total = np.full((n, n), np.inf)
    for a in range(n - 3):
        if half[a] == n:
            break  # no line lies more than pi after a
        c = slice(a + 2, n)
        Fk, Gk = (tag_minima(*sums) for sums in pair_sums(a, c))
        # A b and a d may pair only when their tags share no flag.
        pairs = [(Fk[0], _lowest(Gk)), (_lowest(Fk[1:]), Gk[0])]
        pairs += [(Fk[1], Gk[2]), (Fk[2], Gk[1])]
        candidates = [f + g for f, g in pairs if f is not None and g is not None]
        total[a, c] = _lowest(candidates)
    total = total.ravel()
    best = np.argsort(total, kind="stable")[:count]  # ties in (a, c) order
    best = best[np.isfinite(total[best])]
    if not len(best):
        raise NoFeasibleQuadruple(f"no proper quadrilateral on {n} directions")

    minima: List[Tuple[float, Tuple[int, int, int, int]]] = []
    for k in best:
        a, c = divmod(int(k), n)
        (F, a_b, c_b), (G, a_d, c_d) = pair_sums(a, slice(c, c + 1))
        S = F[:, 0, None] + G[None, :, 0]
        S[(a_b[:, None] & a_d) | (c_b & c_d[:, 0])] = np.inf
        j = int(np.argmin(S))
        b, d = divmod(j, S.shape[1])
        minima.append((float(total[k]), (a, a + 1 + b, c, int(half[a]) + d)))
    return minima


def _lowest(parts):
    """Elementwise minimum of the arrays in ``parts`` that are not None, or None."""
    parts = [p for p in parts if p is not None]
    return reduce(np.minimum, parts) if parts else None


class _Support:
    """Support function of a convex polygon, piecewise between edge normals.

    On each piece one vertex supports the body, so ``h(theta)`` is a bisect
    on the sorted normal angles and one dot product.  ``tiny`` is a length at
    the rounding level of the body's coordinates.
    """

    def __init__(self, poly: ConvexPolygon):
        # The start vertex of a ccw edge supports the body on the piece that
        # ends at the edge's outward normal.
        edges = sorted(
            (math.atan2(a.x - b.x, b.y - a.y) % _TWO_PI, (a.x, a.y))
            for a, b in poly.edges()
        )
        self.normals = [phi for phi, _ in edges]
        self.contacts = [p for _, p in edges]
        self.tiny = 1e-12 * max(max(abs(x), abs(y)) for x, y in self.contacts)

    def line(self, theta: float) -> Tuple[float, float, float]:
        """(cos, sin, h) of the supporting line with outward normal angle theta."""
        k = bisect_left(self.normals, theta % _TWO_PI) % len(self.normals)
        px, py = self.contacts[k]
        c, s = math.cos(theta), math.sin(theta)
        return c, s, px * c + py * s


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
        wide = math.sin(nxt - normals[i]) <= 1e-12  # the scan's infeasible gaps
        picked += normals[i : i + step] if wide else [normals[i]]
    return picked


def _float_support(body: ConvexPolygon) -> Tuple[ConvexPolygon, _Support]:
    """The body in floats and its support function; rejects a flat body."""
    poly = body.to_float()
    diam = poly.linf_diameter()
    if poly.area <= 1e-12 * diam * diam:
        raise DegenerateBody("body area is numerically zero")
    return poly, _Support(poly)


def _quad_from_lines(lines, tiny: float):
    """Area and corners of the quadrilateral cut out by four support lines.

    ``lines`` holds (cos, sin, h) per side, at ascending angles that span
    less than 2*pi.  Returns (inf, None) for infeasible configurations: a gap
    outside (0, pi), a crossed edge, or an edge no longer than ``tiny``, which
    has collapsed into a corner and leaves a triangle no side move can leave.
    """
    corners = []
    for i in range(4):
        ci, si, hi = lines[i]
        cj, sj, hj = lines[(i + 1) % 4]
        det = ci * sj - cj * si  # sin of the gap
        if det <= 1e-12:
            return math.inf, None
        corners.append(((hi * sj - hj * si) / det, (ci * hj - cj * hi) / det))
    twice = 0.0
    for i in range(4):
        cj, sj, _ = lines[(i + 1) % 4]
        (xi, yi), (xj, yj) = corners[i], corners[(i + 1) % 4]
        # side i+1 runs from corner i to corner i+1; positive tangent advance
        if cj * (yj - yi) - sj * (xj - xi) <= tiny:
            return math.inf, None
        twice += xi * yj - yi * xj
    return twice / 2.0, corners


def _side_candidates(support: _Support, angles: List[float], lines, i: int):
    """(angle, line) of side i's area minimum on each piece of its range.

    On a piece side i pivots about one contact p, and the area is a constant
    plus or minus the triangle that side i cuts from its neighbouring lines;
    that triangle is smallest where p bisects the side.  If the neighbours'
    normals are over pi apart it adds, and the minimum is the bisecting angle
    clipped to the piece; else it subtracts, and the minimum is a piece end.
    A minimum at the piece start is skipped: the previous piece's is no higher.
    """
    prev = angles[i - 1] - (_TWO_PI if i == 0 else 0.0)
    nxt = angles[(i + 1) % 4] + (_TWO_PI if i == 3 else 0.0)
    lo, hi = max(prev, nxt - math.pi), min(prev + math.pi, nxt)
    cp, sp, hp = lines[i - 1]
    cn, sn, hn = lines[(i + 1) % 4]
    det = cp * sn - cn * sp  # sin(nxt - prev)
    k = bisect_right(support.normals, lo % _TWO_PI)
    base = lo - lo % _TWO_PI
    start = lo
    while start < hi:
        if k == len(support.normals):
            k, base = 0, base + _TWO_PI
        end = min(base + support.normals[k], hi)
        px, py = support.contacts[k]
        theta = end
        if det < 0.0:
            b1 = hp - (cp * px + sp * py)
            b2 = (cn * px + sn * py) - hn
            # p + s lies on the previous line and p - s on the next one.
            sx = (b1 * sn - b2 * sp) / det
            sy = (cp * b2 - cn * b1) / det
            mid = 0.5 * (start + end)
            theta = mid + math.remainder(math.atan2(sx, -sy) - mid, _TWO_PI)
            theta = min(max(theta, start), end)
        if theta > start:
            c, s = math.cos(theta), math.sin(theta)
            yield theta, (c, s, px * c + py * s)
        start, k = end, k + 1


def _refine(support: _Support, angles: List[float]):
    """Cyclic exact coordinate descent over the four side angles."""
    lines = [support.line(theta) for theta in angles]
    area, _ = _quad_from_lines(lines, support.tiny)
    for _ in range(_REFINE_CYCLES):
        area_before = area
        for i in range(4):
            cand = list(lines)
            for theta, line in _side_candidates(support, angles, lines, i):
                cand[i] = line
                value, _ = _quad_from_lines(cand, support.tiny)
                if value < area:
                    area, angles[i], lines[i] = value, theta, line
        if area_before - area <= _TOL * abs(area):
            break
    return area, lines


def brute_force_min_quad(body: ConvexPolygon, grid: int = 180) -> Quadrilateral:
    """Best circumscribed quadrilateral over the uniform angle grid.

    Exhaustive over all feasible direction quadruples; no refinement.  Serves
    as the independent oracle for the solver.  ``grid`` runs from 16 to 1024.
    """
    grid = _as_int(grid, "grid")
    if not 16 <= grid <= _MAX_GRID:
        raise BadParams(f"grid must be between 16 and {_MAX_GRID}")
    poly, support = _float_support(body)
    angles = [_TWO_PI * k / grid for k in range(grid)]
    _, idx = _scan_support_directions(poly, np.array(angles), 1)[0]
    lines = [support.line(angles[k]) for k in idx]
    _, corners = _quad_from_lines(lines, support.tiny)
    if corners is None:
        raise NoFeasibleQuadruple(f"the best quadruple on the {grid}-grid is degenerate")
    return Quadrilateral(corners)


def min_circumscribed_quadrilateral(
    body: ConvexPolygon,
) -> Tuple[ConvexPolygon, CircumscriptionCertificate]:
    """Minimum-area quadrilateral containing ``body``, with certificate.

    Scans quadruples of the body's own edge normals (every k-th one on a body
    of more than 90 edges) for global structure, then refines the best few
    distinct starts locally.  The result never exceeds the best scanned
    candidate.  A triangular body is its own witness: the result is then the
    body's 3-vertex polygon (no strictly smaller quadrilateral exists),
    otherwise a :class:`Quadrilateral`.
    """
    poly, support = _float_support(body)
    if len(poly) == 3:
        return poly, midpoint_certificate(poly, poly)

    normals = _scan_normals(support.normals)
    area, lines = min(
        _refine(support, [normals[k] for k in idx])
        for _, idx in _scan_support_directions(poly, np.array(normals), _MAX_STARTS)
    )
    if not math.isfinite(area):
        raise NoFeasibleQuadruple("refinement lost every candidate")

    _, corners = _quad_from_lines(lines, support.tiny)
    quad = Quadrilateral(corners)
    cert = midpoint_certificate(poly, quad)
    if not cert.contains_body:
        raise SolverFailure("refined quadrilateral fails the containment check")
    return quad, cert
