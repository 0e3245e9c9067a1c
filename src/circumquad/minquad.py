"""Minimum-area circumscribed quadrilaterals.

A circumscribed quadrilateral is cut out by four support lines of the body
at ascending outward normal angles, each gap between consecutive ones in
(0, pi); a side may then have zero length, and it is a triangle.  Grouped by
corner, with h the support values and g the gap from line i to line j,

    2A(a, b, c, d) = W(a, b) + W(b, c) + W(c, d) + W(d, a),
    W(i, j) = (2 h_i h_j - (h_i^2 + h_j^2) cos g) / sin g.

The structure of a minimum:

* Midpoint property.  Each side of a locally minimal quadrilateral is flush
  with a body edge or pivots at a body vertex that is its midpoint: turning
  a side about a vertex changes the area by the triangle it sweeps, least
  where the vertex bisects the side (:func:`midpoint_certificate` measures
  this).
* No two opposite pivots.  Opposite sides a and c meet at an apex A, and
  the area is T - t: T the triangle of a, c and the side away from A, t the
  triangle the side near A cuts off.  Among the lines through a vertex, the
  cut-off triangle is least at the midpoint chord and grows either way, so
  the far side pivots at its midpoint or is flush, and the near side, which
  should make t large, is flush at an end of its vertex's normal cone.  If
  a is parallel to c, the area is monotone in the pivot's angle.  So some
  minimum is of one of three types:
  (i) four flush sides: the least W(x, b) + W(b, y) + W(y, m) + W(m, x),
      from the min-plus product M[x, y] = min over m of W(x, m) + W(m, y),
      m running round the circle from x to y;
  (ii) three flush sides x, y, m and a pivot b, the far side of the pair
      (x, y), whose gap exceeds pi: line x reflected through b's vertex v
      meets line y at the side's far corner R, b = vR, and the area is
      W(x, b) + W(b, y) + M[y, x];
  (iii) flush c, d and adjacent pivots a at u, b at w: their corner X is
      where d reflected through u meets c reflected through w; a = uX,
      b = wX.
  A pivot counts only if its normal lies in its vertex's cone and every gap
  lies in (0, pi).  On exact input (ii) and (iii) are rational.
* For (ii) the two vertices of the flush argmin's edge suffice.  While b
  turns from x to y, let lam be its contact's position on b, 0 at the
  corner on x and 1 on y.  About one vertex the triangle x, b, y is
  C / (lam (1 - lam)), and lam grows as b turns, also where the contact
  steps along an edge.  So the area is unimodal in the turn: it falls while
  lam < 1/2 and rises after, and its least lies in the cone of an end of
  the edge k* of least flush area, or at k* when k* holds the midpoint.

Type (iii) is not searched: the tests enumerate it, and every pivot vertex
of type (ii), on random hulls, and neither has beaten (i) and (ii).

* :func:`brute_force_min_quad`, the reference oracle, scans type (i) on a
  uniform angle grid, anchored at the smallest index (no middle line passes
  index 0).
* :func:`min_circumscribed_quadrilateral` solves (i) and (ii) on the body's
  edge normals in one vectorized pass, :func:`_flush_and_pivot`: O(n^3)
  time and O(n^2) memory.  Above 90 edges the pass runs on every k-th
  normal, then on the true normals in windows around its four lines.  Its
  output is wrapped in a :class:`CircumscriptionCertificate`, with
  containment re-checked geometrically.

Both turn their four lines into a polygon in one step, :func:`_circumscribed`:
the quadrilateral they cut out, or the triangle it is when a side has
collapsed.
"""

from __future__ import annotations

import math
import sys
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
    FLOAT_ROUNDING,
    ConvexPolygon,
    Scalar,
    Support,
    _TWO_PI,
    _point_distances,
    _slack,
    contains_polygon,
    midpoint,
)

# The solver's pass runs on about this many of the body's edge normals at
# most, so that its O(n^3) product stays near 1 ms (2-core VM); see
# _scan_normals.  A second pass takes at most _MAX_DIRECTIONS // 8 normals
# either side of each of the first pass's four lines.
_MAX_DIRECTIONS = 90
# Wide pairs searched for pivots per vectorized step: on an ellipse 64-gon,
# 4 steps of at most 0.1 MB of arrays, below the peak of building W.
_PAIRS_PER_STEP = 512
# Largest sup-norm diameter of a body the solver accepts.  The scan's support
# values about the vertex mean are at most sqrt(2) times the diameter, so each
# feasible corner term is below 8 * diam**2 / FLOAT_ROUNDING, and the scan's
# sums of four such terms stay finite up to here (about 2.4e147).
_MAX_DIAMETER = math.sqrt(sys.float_info.max * FLOAT_ROUNDING / 32.0)
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
    are collinear.  On exact input the convexity check and the area run on
    an integer image built from the quadrilateral's own.
    """
    if len(quad) != 4:
        raise BadParams(f"varignon needs 4 vertices, got {len(quad)}")
    coords, scale = quad._image, quad._scale
    try:
        if scale is None:
            return ConvexPolygon([midpoint(a, b) for a, b in quad.edges()])
        # Twice each midpoint is the sum of its edge's ends, so the sums of
        # adjacent ints are the midpoints' integer image at twice the scale.
        sums = tuple([coords[i] + coords[(i + 2) % 8] for i in range(8)])
        return ConvexPolygon._from_image(sums, 2 * scale)
    except DegenerateInput as exc:
        raise DegenerateParallelogram(str(exc)) from exc


def midpoint_certificate(
    body: ConvexPolygon, quad: ConvexPolygon, support: Support
) -> CircumscriptionCertificate:
    """Containment (:func:`geometry._slack`) and midpoint optimality residuals.

    The body's bounding box and edge vectors are computed once, for its
    diameter and for the midpoint distances.  The containment test reads the
    body's extreme vertices along each edge normal of ``quad`` off one query
    to ``support``, the body's :class:`Support` oracle, instead of a pass
    over every vertex: one query per witness edge and no other.
    """
    box = body.bounding_box()
    diam = max(box[2] - box[0], box[3] - box[1])
    mids = [midpoint(a, b) for a, b in quad.edges()]
    residuals = tuple(d / diam for d in _point_distances(mids, body, box))
    contains = contains_polygon(quad, support, _slack(*body.vertices[0], *quad.vertices[0]))
    ratio = quad.area / body.area
    return CircumscriptionCertificate(contains, residuals, ratio)


# --- support-direction machinery ---------------------------------------------


def _scan_support_directions(poly: ConvexPolygon, angles: np.ndarray):
    """The least quadrilateral cut out by support lines of a float body at ``angles``.

    ``angles`` are the outward normal angles of the candidate lines, sorted
    in [0, 2*pi).  Returns (doubled_area, (a, b, c, d)), indices into
    ``angles`` with a < b < c < d, of the least sum of corner terms W (module
    docstring), the support values taken about the vertex mean so that the
    squares do not cancel.  The best b gives M[a, c] of the min-plus product
    (:func:`_min_plus_product`) and the best d gives M[c, a], since W's
    infinite entries keep the middle line between the two, going round past
    2*pi: O(n^3) time, O(n^2) memory.  Ties go to the first (a, c) in
    row-major order, then to the first b that some d completes to the least
    sum, then to the first such d.  A side may have zero length, three
    consecutive lines through one contact: the quadruple is then a
    circumscribed triangle with a fourth line through a corner.
    """
    V = np.asarray(poly.vertices, dtype=float)
    V = V - V.mean(axis=0)
    n = len(angles)
    cj, sj = np.cos(angles), np.sin(angles)
    hj = (V @ np.stack([cj, sj])).max(axis=0)
    W = _corner_terms(cj, sj, hj)
    M = _min_plus_product(W)
    # total[a, c]: the best doubled area with anchor a and opposite line c.
    total = M + M.T
    del M
    np.copyto(total, np.inf, where=np.tri(n, dtype=bool))  # a >= c
    a, c, area = _least(total)
    F = W[a] + W[:, c]  # W(a, b) + W(b, c); inf unless a < b < c
    G = W[c] + W[:, a]  # W(c, d) + W(d, a)
    G[: c + 1] = np.inf  # a d below a would be the anchor
    b = int((F + G.min() == area).argmax())
    d = int((F[b] + G == area).argmax())
    return area, (a, b, c, d)


def _least(total: np.ndarray) -> Tuple[int, int, float]:
    """(row, column, value) of the first least entry of the square ``total``, row-major.

    Raises NoFeasibleQuadruple when no entry is finite.
    """
    n = len(total)
    row, col = divmod(int(total.argmin()), n)
    value = float(total[row, col])
    if not math.isfinite(value):
        raise NoFeasibleQuadruple(f"no four of the {n} directions have consecutive gaps below pi")
    return row, col, value


def _corner_terms(c: np.ndarray, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W(i, j) of the lines (c, s, h); inf where ``sin g <= FLOAT_ROUNDING``."""
    ci, si, hi = c[:, None], s[:, None], h[:, None]
    # The infeasible pairs may overflow; they are masked below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sin_g = ci * s
        sin_g -= si * c
        cos_g = ci * c
        cos_g += si * s
        W = hi * hi + h * h
        W *= cos_g
        del cos_g
        np.subtract(2.0 * hi * h, W, out=W)
        W /= sin_g
    W[sin_g <= FLOAT_ROUNDING] = np.inf  # no corner, or one lost to rounding
    return W


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


def _cyclic_product(D: np.ndarray):
    """The min-plus product of the corner terms round the circle, by offset.

    Indices run mod n, and entry [x, d] concerns the pair (x, y = x + d).
    ``D[x, d] = W(x, y)``, stacked twice so that row x + n is row x.
    Returns M[x, d] = min over m of W(x, m) + W(m, y), and K[x, d] the least
    offset m - x attaining it.  Two finite terms have gaps in (0, pi), which
    add up to the gap from x to y, so m runs round the circle from x to y,
    also past index 0.  One step per first offset e is a rectangle: every
    row x, second offsets 1..E, E the largest offset of a finite term.
    """
    n = len(D) // 2
    E = int(np.isfinite(D[:n]).any(axis=0).nonzero()[0].max(initial=0))
    M = np.full((n, n), np.inf)
    K = np.zeros((n, n), dtype=np.int16)
    sums = np.empty((n, E))
    lower = np.empty((n, E), dtype=bool)
    for e in range(1, min(E, n - 2) + 1):
        L = min(E, n - 1 - e)
        s, b, m = sums[:, :L], lower[:, :L], M[:, e + 1 : e + 1 + L]
        np.add(D[:n, e, None], D[e : e + n, 1 : L + 1], out=s)
        np.less(s, m, out=b)
        np.minimum(m, s, out=m)
        np.putmask(K[:, e + 1 : e + 1 + L], b, e)
    return M, K


def _pivots(nrm, h, v, K, x, d):
    """Type-(ii) candidates of the wide pairs (x, y = x + d), indices mod n.

    ``nrm`` and ``v`` hold each line's unit normal and first vertex as
    complex numbers, ``h`` its support value.  The flush argmin k = x + K[x,
    d] has its side's midpoint before edge k, after it, or on it; the least
    pivot then turns about vertex k, about vertex k + 1, or is k itself, and
    the pair is dropped.  The side bisected by vertex v has normal along
    -(h'_y n_x + h'_x n_y), h'_x and h'_y being v's distances to lines x and
    y.  Returns the kept pairs' indices and their (y, vertex, normal, W(x, b)
    + W(b, y)), the last inf where b's normal leaves v's cone or a gap
    leaves (0, pi).
    """
    n = len(nrm)
    y, k = (x + d) % n, (x + K[x, d]) % n
    k1 = (k + 1) % n
    nx, ny, nk, hx, hy, hk = nrm[x], nrm[y], nrm[k], h[x], h[y], h[k]
    gx, gy = nx.conjugate() * nk, nk.conjugate() * ny  # cos + i sin of the gaps
    with np.errstate(divide="ignore", invalid="ignore"):
        # Twice the midpoint and the edge's ends, as positions along k's tangent.
        mid = (hk * gx.real - hx) / gx.imag + (hy - hk * gy.real) / gy.imag
    first = mid < 2.0 * (nk.conjugate() * v[k]).imag
    kept = np.flatnonzero(first | (mid > 2.0 * (nk.conjugate() * v[k1]).imag))
    j = np.where(first, k, k1)[kept]
    nx, ny, hx, hy, y = nx[kept], ny[kept], hx[kept], hy[kept], y[kept]
    vj = v[j]
    u = (hy - (ny.conjugate() * vj).real) * nx
    u += (hx - (nx.conjugate() * vj).real) * ny
    with np.errstate(divide="ignore", invalid="ignore"):
        u /= -np.abs(u)
        hb = (u.conjugate() * vj).real
        gx, gy = nx.conjugate() * u, u.conjugate() * ny
        area = (2.0 * hx * hb - (hx * hx + hb * hb) * gx.real) / gx.imag
        area += (2.0 * hb * hy - (hb * hb + hy * hy) * gy.real) / gy.imag
    ok = (gx.imag > FLOAT_ROUNDING) & (gy.imag > FLOAT_ROUNDING)
    ok &= (nrm[j - 1].conjugate() * u).imag >= 0.0  # b's normal in the cone
    ok &= (u.conjugate() * nrm[j]).imag >= 0.0
    area[~ok] = np.inf
    return kept, (y, j, u, area)


def _flush_and_pivot(c: np.ndarray, s: np.ndarray, h: np.ndarray, v: np.ndarray):
    """Least doubled area over the quadrilaterals of types (i) and (ii).

    The lines have unit outward normals (c, s) at sorted angles and support
    values ``h``; they cut out a polygon around the body whose vertex
    between lines j - 1 and j is ``v[j]``, complex, nan if they do not meet.
    Both are taken about a point near the body, so that W does not cancel.
    Returns (doubled area, sides), the sides in ccw order: (k, None) for the
    flush line k, (j, (cos, sin)) for a pivot at vertex j.  Type (ii) takes
    the wide pairs ``_PAIRS_PER_STEP`` at a time.  The first pair in
    row-major order wins ties, and flush sides beat a pivot of equal area.
    Raises NoFeasibleQuadruple when no four lines have gaps in (0, pi).
    """
    n = len(c)
    W = _corner_terms(c, s, h)
    # Entry [x, d] concerns the pair (x, y = x + d mod n).
    x, d = np.arange(n)[:, None], np.arange(n)
    D = np.take(W, x * n + (x + d) % n)
    del W
    wide = np.isinf(D)
    D = np.concatenate([D, D])
    M, K = _cyclic_product(D)
    del D
    back = np.take(M, (x + d) % n * n + (n - d) % n)  # M[y, x]
    total = M + back
    x, d, area = _least(total)
    pairs = np.flatnonzero(wide & np.isfinite(total))
    back = back.flat[pairs]
    del M, total, wide

    def sides_of(x, y, b):  # the flush pair x, y, the side b after x, the middle after y
        return (x, None), b, (y, None), ((y + int(K[y, (x - y) % n])) % n, None)

    sides = sides_of(x, (x + d) % n, ((x + int(K[x, d])) % n, None))
    nrm = c + 1j * s
    for lo in range(0, len(pairs), _PAIRS_PER_STEP):
        step = slice(lo, lo + _PAIRS_PER_STEP)
        x, d = np.divmod(pairs[step], n)
        kept, (y, j, u, value) = _pivots(nrm, h, v, K, x, d)
        value += back[step][kept]
        if len(value) and value.min() < area:
            p = int(value.argmin())
            area = float(value[p])
            sides = sides_of(int(x[kept[p]]), int(y[p]), (int(j[p]), (float(u[p].real), float(u[p].imag))))
        del kept, y, j, u, value  # before the next step's arrays
    return area, sides


def _scan_normals(normals: List[float]) -> np.ndarray:
    """Indices of the edge normals the solver scans, ascending: all up to 90 edges.

    Beyond that every k-th one, k = ceil(edges / 90), except where two picks
    would lie pi or more apart: every normal between them is kept there, for
    no quadruple spans such a gap (a half-disk's flat side makes one).
    """
    n = len(normals)
    if n <= _MAX_DIRECTIONS:
        return np.arange(n)
    step = math.ceil(n / _MAX_DIRECTIONS)
    picked = []
    for i in range(0, n, step):
        nxt = normals[i + step] if i + step < n else normals[0] + _TWO_PI
        wide = math.sin(nxt - normals[i]) <= FLOAT_ROUNDING  # the scan's infeasible gaps
        picked += range(i, min(i + step, n)) if wide else [i]
    return np.array(picked)


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
    if poly.area <= FLOAT_ROUNDING * diam * diam:
        raise DegenerateBody("body area is numerically zero")
    return poly, Support(poly) if support is None else support


def _quad_from_lines(lines, tiny: float):
    """Area and corners of the quadrilateral cut out by four support lines.

    ``lines`` holds (cos, sin, h) per side, in ccw order spanning less than
    2*pi; three lines give a triangle.  Returns (inf, None) for infeasible
    configurations: a gap outside (0, pi), a crossed edge, or an edge no
    longer than ``tiny``, which has collapsed into a corner.
    """
    k = len(lines)
    corners = []
    for i in range(k):
        ci, si, hi = lines[i]
        cj, sj, hj = lines[(i + 1) % k]
        det = ci * sj - cj * si  # sin of the gap
        if det <= FLOAT_ROUNDING:
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


def _circumscribed(lines, tiny: float) -> ConvexPolygon:
    """The polygon that four support lines, in ccw order, cut out.

    A :class:`Quadrilateral`, or the triangle of the other three lines when
    one side has collapsed into a corner (:func:`_quad_from_lines` with
    ``tiny``): the collapsed side's line then passes through the corner of
    its two neighbours, so without it the region stays the same; without any
    other line it grows, or is no triangle.  The minimum circumscribed
    quadrilateral is never larger than a circumscribed triangle.  Raises
    NoFeasibleQuadruple when the lines cut out neither.
    """
    _, corners = _quad_from_lines(lines, tiny)
    if corners is not None:
        return Quadrilateral(corners)
    _, corners = min(
        (_quad_from_lines(lines[:i] + lines[i + 1 :], tiny) for i in range(4)),
        key=itemgetter(0),
    )
    if corners is None:
        raise NoFeasibleQuadruple("the four lines cut out neither a quadrilateral nor a triangle")
    return ConvexPolygon(corners)


def brute_force_min_quad(body: ConvexPolygon, grid: int = 180) -> ConvexPolygon:
    """Best circumscribed quadrilateral over the uniform angle grid.

    Exhaustive over all direction quadruples with gaps below pi.  Serves
    as the independent oracle for the solver.  ``grid`` runs from 16 to
    1024.  Returns a :class:`Quadrilateral`, or a triangle when the best
    quadruple has a collapsed side (:func:`_circumscribed`), which stays an
    upper bound on the minimum.
    """
    grid = _as_int(grid, "grid")
    if not 16 <= grid <= _MAX_GRID:
        raise BadParams(f"grid must be between 16 and {_MAX_GRID}")
    poly, support = _float_support(body)
    angles = [_TWO_PI * k / grid for k in range(grid)]
    _, idx = _scan_support_directions(poly, np.array(angles))
    return _circumscribed([support.line(angles[k]) for k in idx], support.tiny)


def _solve_on(support: Support, picked: np.ndarray, origin: np.ndarray):
    """(doubled area, sides) of :func:`_flush_and_pivot` on some edge normals.

    ``picked`` are ascending indices into ``support.normals``.  Their edge
    lines cut out a polygon around the body, whose vertex between two lines
    is the body's own where the normals are consecutive, and the lines'
    corner elsewhere.  The pass runs about ``origin``; the four sides come
    back as (angle, (cos, sin, h)) in the body's frame at ascending angles,
    a flush side's angle being its edge normal itself.
    """
    angles = np.array(support.normals)[picked]
    c, s = np.cos(angles), np.sin(angles)
    px, py = np.array(support.contacts)[picked].T  # each edge's first vertex
    h = px * c + py * s
    if len(picked) < len(support.normals):
        # Where lines i - 1 and i hold edges that do not meet, their corner is the vertex.
        i = np.flatnonzero((picked - np.roll(picked, 1)) % len(support.normals) != 1)
        p = i - 1
        det = c[p] * s[i] - c[i] * s[p]
        with np.errstate(divide="ignore", invalid="ignore"):
            px[i] = (h[p] * s[i] - h[i] * s[p]) / det
            py[i] = (c[p] * h[i] - c[i] * h[p]) / det
        px[i[det <= FLOAT_ROUNDING]] = np.nan  # the lines meet in no corner
    ox, oy = origin
    area, sides = _flush_and_pivot(c, s, h - (ox * c + oy * s), (px - ox) + 1j * (py - oy))
    found = []
    for j, pivot in sides:
        if pivot is None:
            theta = support.normals[picked[j]]
            found.append((theta, support.line(theta)))
        else:
            cb, sb = pivot
            line = (cb, sb, float(px[j] * cb + py[j] * sb))
            found.append((math.atan2(sb, cb) % _TWO_PI, line))
    found.sort(key=itemgetter(0))
    return area, found


def min_circumscribed_quadrilateral(
    body: ConvexPolygon, support: Optional[Support] = None
) -> Tuple[ConvexPolygon, CircumscriptionCertificate]:
    """Minimum-area quadrilateral containing ``body``, with certificate.

    Solves types (i) and (ii) of the module docstring on the body's edge
    normals in one pass.  On a body of more than 90 edges that pass runs on
    every k-th normal, and the same pass then runs once more on the true
    normals within k (at most 11) of each of the four angles it found; the
    lesser answer wins.  A quadrilateral body is its own answer and takes
    no pass: its four edge lines.  The result is a :class:`Quadrilateral`,
    or a triangle: the body itself when it is a triangle (no strictly smaller
    quadrilateral exists), or, like :func:`brute_force_min_quad`'s, the
    triangle of the other three lines when a side of the least quadruple
    has collapsed into a corner (:func:`_circumscribed`).

    ``support`` is the :class:`Support` oracle of the body in floats, when the
    caller holds one; the solver and the certificate read the body through it.
    """
    poly, support = _float_support(body, support)
    if len(poly) == 3:
        return poly, midpoint_certificate(poly, poly, support)

    normals = support.normals
    if len(poly) == 4:
        # Its own minimum; a turn below rounding can leave the pass no quadruple.
        lines = [support.line(theta) for theta in normals]
    else:
        origin = np.asarray(poly.vertices, dtype=float).mean(axis=0)
        picked = _scan_normals(normals)
        area, sides = _solve_on(support, picked, origin)
        if len(picked) < len(normals):
            half = min(math.ceil(len(normals) / _MAX_DIRECTIONS), _MAX_DIRECTIONS // 8)
            found = np.searchsorted(normals, [theta for theta, _ in sides])
            window = np.unique((found + np.arange(-half, half + 1)[:, None]) % len(normals))
            area, sides = min((area, sides), _solve_on(support, window, origin), key=itemgetter(0))
        lines = [line for _, line in sides]

    quad = _circumscribed(lines, support.tiny)
    cert = midpoint_certificate(poly, quad, support)
    if not cert.contains_body:
        raise SolverFailure("the solver's quadrilateral fails the containment check")
    return quad, cert
