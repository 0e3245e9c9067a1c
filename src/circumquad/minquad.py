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
  grid, then polishes the best candidates by cyclic golden-section descent
  plus a closed-form chord-bisection step that rotates each side about its
  contact point until the contact bisects the side.  At a local minimum every
  side of the quadrilateral touches the body at the side's midpoint, which is
  exactly the optimality condition the certificate measures.

The solver never assumes success: its output is wrapped in a
:class:`CircumscriptionCertificate` with containment re-checked geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

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
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_STARTS = 5
# Descent cycles per start.  Refinement stops earlier once a cycle gains less
# than ``tol``; on affine pentagons 30 and 40 cycles give identical quads.
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


def _scan_support_grid(V: np.ndarray, n: int):
    """Exhaustive scan over feasible support-direction quadruples.

    Returns (best_doubled_area, best_index_quadruple, per_anchor_minima)
    where per_anchor_minima is a sorted list of (doubled_area, quadruple).
    Areas are doubled (raw shoelace sums) to avoid a pointless halving pass.
    """
    thetas = _TWO_PI * np.arange(n) / n
    co = np.cos(thetas)
    si = np.sin(thetas)
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
    best_value, best_quad = minima[0]
    return best_value, best_quad, minima


def _quad_from_angles(V: np.ndarray, angles: Sequence[float]):
    """Area and corners of the support quadrilateral at the given angles.

    ``angles`` must be ascending with span < 2*pi.  Returns (inf, None) for
    infeasible configurations (a gap outside (0, pi) or a crossed edge).
    """
    gaps = [
        angles[1] - angles[0],
        angles[2] - angles[1],
        angles[3] - angles[2],
        _TWO_PI - (angles[3] - angles[0]),
    ]
    if any(g <= 1e-12 or g >= math.pi - 1e-12 for g in gaps):
        return math.inf, None
    co = [math.cos(a) for a in angles]
    si = [math.sin(a) for a in angles]
    h = [float(np.max(V[:, 0] * co[i] + V[:, 1] * si[i])) for i in range(4)]
    corners = []
    for i in range(4):
        j = (i + 1) % 4
        det = co[i] * si[j] - co[j] * si[i]  # sin of the gap, positive
        corners.append(
            (
                (h[i] * si[j] - h[j] * si[i]) / det,
                (co[i] * h[j] - co[j] * h[i]) / det,
            )
        )
    twice = 0.0
    for i in range(4):
        j = (i + 1) % 4
        # edge j runs from corners[i] to corners[j]; positive tangent advance
        adv = -si[j] * (corners[j][0] - corners[i][0]) + co[j] * (
            corners[j][1] - corners[i][1]
        )
        if adv <= 0.0:
            return math.inf, None
        twice += corners[i][0] * corners[j][1] - corners[i][1] * corners[j][0]
    return twice / 2.0, corners


def _golden_min(f, lo: float, hi: float, iters: int = 48):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _polish_angle(V: np.ndarray, angles: List[float], i: int) -> Optional[float]:
    """Propose a rotation of side i so its contact point bisects the side.

    Rotating a supporting line about an interior contact point trades corner
    triangles on both ends; the trade is stationary exactly when the contact
    bisects the chord between the neighbouring lines.  Solving that condition
    directly is a 2x2 linear system.  The caller re-evaluates the proposal and
    keeps it only on improvement, so no feasibility is assumed here.
    """
    co = [math.cos(a) for a in angles]
    si = [math.sin(a) for a in angles]
    p_idx = int(np.argmax(V[:, 0] * co[i] + V[:, 1] * si[i]))
    px, py = float(V[p_idx, 0]), float(V[p_idx, 1])
    ip, inx = (i - 1) % 4, (i + 1) % 4
    h_prev = float(np.max(V[:, 0] * co[ip] + V[:, 1] * si[ip]))
    h_next = float(np.max(V[:, 0] * co[inx] + V[:, 1] * si[inx]))
    b1 = h_prev - (co[ip] * px + si[ip] * py)
    b2 = (co[inx] * px + si[inx] * py) - h_next
    det = co[ip] * si[inx] - co[inx] * si[ip]
    if abs(det) < 1e-12:
        return None
    sx = (b1 * si[inx] - b2 * si[ip]) / det
    sy = (co[ip] * b2 - co[inx] * b1) / det
    norm = math.hypot(sx, sy)
    if norm < 1e-15:
        return None
    nx, ny = sy / norm, -sx / norm
    if nx * co[i] + ny * si[i] < 0.0:
        nx, ny = -nx, -ny
    delta = math.atan2(co[i] * ny - si[i] * nx, co[i] * nx + si[i] * ny)
    return angles[i] + delta


def _refine(V: np.ndarray, angles: List[float], opts: SolverOptions):
    area, _ = _quad_from_angles(V, angles)
    window = _TWO_PI / opts.coarse_grid

    def with_angle(i: int, value: float) -> List[float]:
        cand = list(angles)
        cand[i] = value
        return cand

    for _ in range(_REFINE_CYCLES):
        area_before = area
        for i in range(4):
            x, fx = _golden_min(
                lambda v: _quad_from_angles(V, with_angle(i, v))[0],
                angles[i] - window,
                angles[i] + window,
            )
            if fx < area:
                angles[i] = x
                area = fx
        for i in range(4):
            proposal = _polish_angle(V, angles, i)
            if proposal is None:
                continue
            fx = _quad_from_angles(V, with_angle(i, proposal))[0]
            if fx < area:
                angles[i] = proposal
                area = fx
        if area_before - area <= opts.tol * abs(area):
            break
    return area, angles


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
    V = np.asarray(poly.vertices, dtype=float)
    _, quad_idx, _ = _scan_support_grid(V, grid)
    angles = [_TWO_PI * k / grid for k in quad_idx]
    _, corners = _quad_from_angles(V, angles)
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

    V = np.asarray(poly.vertices, dtype=float)
    _, _, minima = _scan_support_grid(V, opts.coarse_grid)
    step = _TWO_PI / opts.coarse_grid
    best: Optional[Tuple[float, Tuple[float, ...]]] = None
    for _, quad_idx in minima[:_MAX_STARTS]:
        angles = [step * k for k in quad_idx]
        area, refined = _refine(V, angles, opts)
        cand = (area, tuple(refined))
        if best is None or cand < best:
            best = cand
    if best is None or not math.isfinite(best[0]):
        raise NoFeasibleQuadruple("refinement lost every candidate")

    _, corners = _quad_from_angles(V, list(best[1]))
    quad = Quadrilateral(corners)
    cert = midpoint_certificate(poly, quad, opts.tol)
    if not cert.contains_body:
        raise SolverFailure("refined quadrilateral fails the containment check")
    return quad, cert
