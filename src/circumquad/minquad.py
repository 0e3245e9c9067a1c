"""Minimum-area circumscribed quadrilaterals.

A circumscribed quadrilateral is parametrized by four support directions
(angles on the circle): each direction contributes the supporting line of the
body, and consecutive lines intersect in the corners.  A quadruple is feasible
iff consecutive angle gaps stay below pi and every edge has positive length.

Two entry points share the same parametrization deliberately kept dumb:

* :func:`brute_force_min_quad` scans every feasible quadruple on a uniform
  angle grid and returns the best one.  It is the reference oracle:
  exhaustive, no refinement.  The scan splits the doubled area into four
  corner terms, one per pair of consecutive lines, and minimizes their sum
  over 4-cycles of grid directions as a min-plus search: O(n^3) time and
  O(n^2) memory on an n-grid.  A side has zero length exactly when the
  contact vertex of its line lies on both neighbouring lines, so feasibility
  is a test on contact vertices, not on computed corners.
* :func:`min_circumscribed_quadrilateral` runs the same scan on a coarser
  grid, then refines the best few grid quadruples by exact cyclic coordinate
  descent, each side moving in turn to its best angle by enumerating the body
  vertices it can pivot about (Aggarwal, Chang and Yap, 1985).  At a local
  minimum every side touches the body at the side's midpoint, which is
  exactly the optimality condition the certificate measures.

The solver never assumes success: its output is wrapped in a
:class:`CircumscriptionCertificate` with containment re-checked geometrically.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    BadParams,
    DegenerateBody,
    DegenerateParallelogram,
    DegenerateInput,
    NoFeasibleQuadruple,
    SolverFailure,
)
from .geometry import (
    ConvexPolygon,
    Scalar,
    contains_polygon,
    linf_distance_to_polygon,
    midpoint,
)

_TWO_PI = 2.0 * math.pi
# Coordinate descent can stop in a local minimum that another grid start
# beats.  6 is the smallest start count at which no acceptance-corpus body ends
# above the former golden-section refiner's area (5 leaves one 4e-4 above).
_MAX_STARTS = 6
# Descent cycles per start.  Refinement stops earlier once a cycle gains less
# than ``tol``, which on the corpus families takes 2 to 4 cycles.
_REFINE_CYCLES = 30
# Largest angle grid a scan accepts.  The scan holds a few n-by-n float arrays
# and takes O(n^3) time: at 1024 about 52 MB and 9 s for a 16-vertex body on a
# 2-core VM, and the memory grows with n^2 beyond that.
_MAX_GRID = 1024


@dataclass(frozen=True)
class SolverOptions:
    """Settings of :func:`min_circumscribed_quadrilateral`.

    coarse_grid: angles in the initial exhaustive scan (8 to 1024).
    tol: relative stopping tolerance on the area; also the relative slack of
        the containment check.
    """

    coarse_grid: int = 90
    tol: float = 1e-9

    def __post_init__(self):
        if not 8 <= self.coarse_grid <= _MAX_GRID:
            raise BadParams(f"coarse_grid must be between 8 and {_MAX_GRID}")
        if not self.tol > 0:
            raise BadParams("tol must be positive")


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
    body: ConvexPolygon, quad: ConvexPolygon, tol: Scalar = 0
) -> CircumscriptionCertificate:
    """Check containment and measure the midpoint optimality residuals."""
    diam = body.linf_diameter()
    residuals = tuple(
        linf_distance_to_polygon(midpoint(a, b), body) / diam for a, b in quad.edges()
    )
    contains = contains_polygon(quad, body, tol)
    ratio = quad.area / body.area
    return CircumscriptionCertificate(contains, residuals, ratio)


# --- support-direction machinery ---------------------------------------------


def _scan_support_grid(poly: ConvexPolygon, n: int, count: int):
    """Exhaustive scan over feasible support-direction quadruples of a float body.

    Returns the ``count`` best per-anchor minima as a sorted list of
    (doubled_area, index_quadruple), the anchor being the smallest index.

    Line k has outward normal angle 2*pi*k/n and support value h_k, taken
    about the vertex mean so that the squares below do not cancel.  The
    doubled area is the sum of h_i times the length of side i; grouped by
    corner it is a sum of four corner terms

        2A(a, b, c, d) = W(a, b) + W(b, c) + W(c, d) + W(d, a),
        W(i, j) = (2 h_i h_j - (h_i^2 + h_j^2) cos g) / sin g,

    g being the gap from line i to line j.  Each anchor a therefore needs
    only min over c of (min_b [W(a,b) + W(b,c)] + min_d [W(c,d) + W(d,a)]):
    O(n^2) per anchor and O(n^3) in all, with O(n^2) memory.

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
    step = _TWO_PI / n
    angles = step * np.arange(n)
    P = V @ np.stack([np.cos(angles), np.sin(angles)])
    H = P.max(axis=0)
    # on[i, j]: the contact vertex of line i lies on line j.
    on = H[None, :] - P[P.argmax(axis=0)] <= 2.0 * tiny

    g_max = (n - 1) // 2
    idx = np.arange(n)
    gap = (idx[None, :] - idx[:, None]) % n
    inv_sin = np.zeros(n)
    inv_sin[1 : g_max + 1] = 1.0 / np.sin(step * np.arange(1, g_max + 1))
    Hi, Hj = H[:, None], H[None, :]
    W = (2.0 * Hi * Hj - (Hi * Hi + Hj * Hj) * np.cos(step * gap)) * inv_sin[gap]
    W[(gap == 0) | (gap > g_max)] = np.inf
    onT = on.T

    def pair_sums(a: int, c):
        """W(a,b)+W(b,c) over b and W(c,d)+W(d,a) over d, each with its tags.

        Rows run over b = a+1.. and d = ..n-1, columns over ``c``; a pair
        whose middle side has zero length is inf.  A line's tag has bit 2
        set when a's contact lies on it and bit 1 when c's contact does.
        """
        b = slice(a + 1, a + g_max + 1)
        d = slice(a + n - g_max, n)
        F = W[a, b, None] + W[b, c]
        F[on[b, a, None] & on[b, c]] = np.inf
        G = W.T[d, c] + W[d, a, None]
        G[on[d, a, None] & on[d, c]] = np.inf
        return F, 2 * on[a, b, None] + onT[b, c], G, 2 * on[a, d, None] + onT[d, c]

    def tag_minima(S, tag):
        """Column minima of S over the rows of each tag 0..3."""
        off_c = np.where(tag & 1, np.inf, S)
        on_c = np.where(tag & 1, S, np.inf)
        on_a = tag[:, 0] >= 2  # bit 2 is the same in every column
        return [
            part.min(axis=0, initial=np.inf)
            for part in (off_c[~on_a], on_c[~on_a], off_c[on_a], on_c[on_a])
        ]

    best = []
    cols = np.arange(n)
    for a in range(g_max):
        c = cols[a + 2 :]
        F, tag_b, G, tag_d = pair_sums(a, c)
        Fk, Gk = tag_minima(F, tag_b), tag_minima(G, tag_d)
        # A b and a d may pair only when their tags share no bit.
        total = np.minimum.reduce(
            [
                Fk[0] + np.minimum.reduce(Gk),
                Gk[0] + np.minimum.reduce(Fk[1:]),
                Fk[1] + Gk[2],
                Fk[2] + Gk[1],
            ]
        )
        j = int(np.argmin(total))
        if math.isfinite(total[j]):
            best.append((float(total[j]), a, int(c[j])))
    if not best:
        raise NoFeasibleQuadruple(f"no proper quadrilateral on the {n}-grid")
    best.sort()

    minima: List[Tuple[float, Tuple[int, int, int, int]]] = []
    for value, a, c in best[:count]:
        F, tag_b, G, tag_d = pair_sums(a, np.array([c]))
        S = F[:, 0, None] + G[None, :, 0]
        S[(tag_b[:, 0, None] & tag_d[None, :, 0]) != 0] = np.inf
        k = int(np.argmin(S))
        b, d = divmod(k, S.shape[1])
        minima.append((value, (a, a + 1 + b, c, a + n - g_max + d)))
    minima.sort()
    return minima


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

    def grid_lines(self, idx, n: int):
        """Angles and supporting lines of the directions ``idx`` on the n-grid."""
        angles = [_TWO_PI * k / n for k in idx]
        return angles, [self.line(a) for a in angles]


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


def _refine(support: _Support, angles: List[float], lines, tol: float):
    """Cyclic exact coordinate descent over the four side angles."""
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
        if area_before - area <= tol * abs(area):
            break
    return area, lines


def brute_force_min_quad(body: ConvexPolygon, grid: int = 180) -> Quadrilateral:
    """Best circumscribed quadrilateral over the uniform angle grid.

    Exhaustive over all feasible direction quadruples; no refinement.  Serves
    as the independent oracle for the solver.  ``grid`` runs from 16 to 1024.
    """
    if not 16 <= grid <= _MAX_GRID:
        raise BadParams(f"grid must be between 16 and {_MAX_GRID}")
    poly, support = _float_support(body)
    _, idx = _scan_support_grid(poly, grid, 1)[0]
    _, lines = support.grid_lines(idx, grid)
    _, corners = _quad_from_lines(lines, support.tiny)
    if corners is None:
        raise NoFeasibleQuadruple(f"the best quadruple on the {grid}-grid is degenerate")
    return Quadrilateral(corners)


def min_circumscribed_quadrilateral(
    body: ConvexPolygon, options: Optional[SolverOptions] = None
) -> Tuple[ConvexPolygon, CircumscriptionCertificate]:
    """Minimum-area quadrilateral containing ``body``, with certificate.

    Grid scan for global structure, then local refinement from the best few
    distinct starts.  The result never exceeds the best grid candidate.  A
    triangular body is its own witness: the result is then the body's
    3-vertex polygon (no strictly smaller quadrilateral exists), otherwise a
    :class:`Quadrilateral`.
    """
    opts = options or SolverOptions()
    poly, support = _float_support(body)
    if len(poly) == 3:
        return poly, midpoint_certificate(poly, poly, opts.tol)

    n = opts.coarse_grid
    area, lines = min(
        _refine(support, *support.grid_lines(quad_idx, n), opts.tol)
        for _, quad_idx in _scan_support_grid(poly, n, _MAX_STARTS)
    )
    if not math.isfinite(area):
        raise NoFeasibleQuadruple("refinement lost every candidate")

    _, corners = _quad_from_lines(lines, support.tiny)
    quad = Quadrilateral(corners)
    cert = midpoint_certificate(poly, quad, opts.tol)
    if not cert.contains_body:
        raise SolverFailure("refined quadrilateral fails the containment check")
    return quad, cert
