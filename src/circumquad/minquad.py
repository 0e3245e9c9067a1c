"""Minimum-area circumscribed quadrilaterals.

A circumscribed quadrilateral is parametrized by four support directions
(angles on the circle): each direction contributes the supporting line of the
body, and consecutive lines intersect in the corners.  A quadruple is feasible
iff consecutive angle gaps stay below pi and every edge has positive length.

Two entry points share the same parametrization deliberately kept dumb:

* :func:`brute_force_min_quad` scans every feasible quadruple on a uniform
  angle grid and returns the best one.  It is the reference oracle: slow,
  exhaustive, no refinement.
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
from functools import lru_cache
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


@dataclass(frozen=True)
class SolverOptions:
    """Settings of :func:`min_circumscribed_quadrilateral`.

    coarse_grid: angles in the initial exhaustive scan (>= 8).
    tol: relative stopping tolerance on the area; also the relative slack of
        the containment check.
    """

    coarse_grid: int = 90
    tol: float = 1e-9

    def __post_init__(self):
        if self.coarse_grid < 8:
            raise BadParams("coarse_grid must be at least 8")
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


@lru_cache(maxsize=8)
def _gap_triples(n: int):
    """All (cumulative) gap triples of feasible grid quadruples.

    A quadruple a < b < c < d of grid indices is feasible only if all four
    cyclic gaps are at most (n-1)//2 steps (gap >= pi gives parallel or
    unbounded configurations).  Encoded as cumulative offsets from the anchor,
    sorted by total span so anchors can slice a prefix.
    """
    g_max = (n - 1) // 2
    g = np.arange(1, g_max + 1, dtype=np.int64)
    g1, g2, g3 = np.meshgrid(g, g, g, indexing="ij")
    total = g1 + g2 + g3
    mask = (total >= n - g_max) & (total <= n - 1)
    c1 = g1[mask]
    c2 = (g1 + g2)[mask]
    c3 = total[mask]
    order = np.argsort(c3, kind="stable")
    return c1[order], c2[order], c3[order]


def _scan_support_grid(poly: ConvexPolygon, n: int):
    """Exhaustive scan over feasible support-direction quadruples of a float body.

    Returns the per-anchor minima as a sorted list of (doubled_area,
    index_quadruple).  Areas are doubled (raw shoelace sums) to avoid a
    pointless halving pass.
    """
    thetas = _TWO_PI * np.arange(n) / n
    co = np.cos(thetas)
    si = np.sin(thetas)
    V = np.asarray(poly.vertices, dtype=float)
    H = (V @ np.stack([co, si])).max(axis=0)

    g_max = (n - 1) // 2
    idx = np.arange(n)
    Xx = np.full((n, n), np.nan)
    Xy = np.full((n, n), np.nan)
    for g in range(1, g_max + 1):
        b = (idx + g) % n
        inv = 1.0 / math.sin(_TWO_PI * g / n)
        Xx[idx, b] = (H * si[b] - H[b] * si) * inv
        Xy[idx, b] = (H[b] * co - H * co[b]) * inv

    # Tangent condition: corners along each edge must advance in ccw order.
    P1 = -Xx * si[None, :] + Xy * co[None, :]  # tangent at b dot X(a, b)
    P2 = -Xx * si[:, None] + Xy * co[:, None]  # tangent at b dot X(b, c)
    E = P2[None, :, :] > P1[:, :, None]

    T = Xx[:, :, None] * Xy[None, :, :]
    T -= Xy[:, :, None] * Xx[None, :, :]  # cross(X(a,b), X(b,c)) at [a,b,c]
    flat = np.where(E, T, np.inf).reshape(-1)
    del T, E

    c1, c2, c3 = _gap_triples(n)
    minima: List[Tuple[float, Tuple[int, int, int, int]]] = []
    for a in range(g_max):
        m = int(np.searchsorted(c3, n - 1 - a, side="right"))
        if m == 0:
            continue
        B = a + c1[:m]
        C = a + c2[:m]
        D = a + c3[:m]
        areas = flat[(a * n + B) * n + C]
        areas = areas + flat[(B * n + C) * n + D]
        areas += flat[(C * n + D) * n + a]
        areas += flat[(D * n + a) * n + B]
        j = int(np.argmin(areas))
        value = float(areas[j])
        if not math.isfinite(value):
            continue
        ties = np.flatnonzero(areas == value)
        pick = min((int(B[k]), int(C[k]), int(D[k])) for k in ties)
        minima.append((value, (a, *pick)))

    if not minima:
        raise NoFeasibleQuadruple(f"no proper quadrilateral on the {n}-grid")
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


def _refine(support: _Support, angles: List[float], tol: float):
    """Cyclic exact coordinate descent over the four side angles."""
    lines = [support.line(a) for a in angles]
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
    as the independent oracle for the solver.
    """
    if grid < 16:
        raise BadParams("grid must be at least 16")
    poly = body.to_float()
    diam = poly.linf_diameter()
    if poly.area <= 1e-12 * diam * diam:
        raise DegenerateBody("body area is numerically zero")
    _, idx = _scan_support_grid(poly, grid)[0]
    support = _Support(poly)
    lines = [support.line(_TWO_PI * k / grid) for k in idx]
    _, corners = _quad_from_lines(lines, support.tiny)
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
    poly = body.to_float()
    diam = poly.linf_diameter()
    if poly.area <= 1e-12 * diam * diam:
        raise DegenerateBody("body area is numerically zero")

    if len(poly) == 3:
        return poly, midpoint_certificate(poly, poly, opts.tol)

    support = _Support(poly)
    step = _TWO_PI / opts.coarse_grid
    area, lines = min(
        _refine(support, [step * k for k in quad_idx], opts.tol)
        for _, quad_idx in _scan_support_grid(poly, opts.coarse_grid)[:_MAX_STARTS]
    )
    if not math.isfinite(area):
        raise NoFeasibleQuadruple("refinement lost every candidate")

    _, corners = _quad_from_lines(lines, support.tiny)
    quad = Quadrilateral(corners)
    cert = midpoint_certificate(poly, quad, opts.tol)
    if not cert.contains_body:
        raise SolverFailure("refined quadrilateral fails the containment check")
    return quad, cert
