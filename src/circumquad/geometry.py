"""Planar convex geometry over exact rationals or floats.

Everything here is a pure function on immutable values.  Coordinates may be
ints, :class:`fractions.Fraction`, or floats.  Containers coerce their
coordinates to a single backend on construction: if any coordinate is a float
the whole object is float, otherwise everything becomes Fraction and all
operations are exact.  Most code paths serve both backends; division goes
through :func:`_div` so that integer inputs never silently truncate or turn
into floats.

Functions above the geometric predicates take no tolerance: they derive it
from their input with :func:`_slack`, which gives :data:`FLOAT_SLACK` when a
value is a float and 0 otherwise, so exact input is checked exactly.

The sign-and-area predicates (the polygon constructor's convexity check,
:func:`convex_hull`, :attr:`ConvexPolygon.area` and the containment of
points and polygons at ``tol = 0``) are the exception: on exact inputs they
run on an integer image of their points, see :func:`_int_image`, and only
float inputs take the generic arithmetic.  A polygon keeps the image that
built it (its constructor's, the hull's or the midpoints' of ``varignon``)
and its area once read; a float polygon has no image and reads its
vertices.  Containment at ``tol = 0`` rescales two kept images to one
scale.  Containment of a :class:`Support` reads one maximum per edge normal
at every ``tol``.  A float value that overflows to an infinity or NaN in a
containment or support query raises BadParams.

Orientation convention: polygon vertices are counterclockwise and strictly
convex (no repeated or collinear consecutive vertices).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadParams, DegenerateInput, SingularMap, _as_fraction

Scalar = Union[int, float, Fraction]

FLOAT_SLACK = 1e-9  # slack of every check on float input, at scale 1
FLOAT_ROUNDING = 1e-12  # rounding noise of a float quantity at scale 1: about 4500 ulps

_TWO_PI = 2.0 * math.pi
# The axis directions -x, -y, +x, +y, as ints so that exact input stays exact.
_AXES = ((-1, 0), (0, -1), (1, 0), (0, 1))


def _slack(*values: Scalar) -> Scalar:
    """FLOAT_SLACK when any value is a float, else 0 (checked exactly)."""
    return FLOAT_SLACK if any(isinstance(v, float) for v in values) else 0


def _div(num: Scalar, den: Scalar) -> Scalar:
    """Exact division for rational operands, float division otherwise."""
    if isinstance(num, (float, Fraction)) or isinstance(den, (float, Fraction)):
        return num / den  # a Fraction operand keeps int over Fraction exact
    return Fraction(num, den)


class Point(NamedTuple):
    x: Scalar
    y: Scalar

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)

    def linf(self) -> Scalar:
        return max(abs(self.x), abs(self.y))


def cross3(o: Sequence[Scalar], a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """Twice the signed area of triangle (o, a, b); positive iff ccw turn."""
    (ox, oy), (ax, ay), (bx, by) = o, a, b
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def midpoint(p: Point, q: Point) -> Point:
    return Point(_div(p.x + q.x, 2), _div(p.y + q.y, 2))


class AffineMap(NamedTuple):
    """Affine map p -> M p + t with M = [[m11, m12], [m21, m22]], t = (t1, t2)."""

    m11: Scalar
    m12: Scalar
    m21: Scalar
    m22: Scalar
    t1: Scalar
    t2: Scalar

    @property
    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p: Point) -> Point:
        return Point(
            self.m11 * p.x + self.m12 * p.y + self.t1,
            self.m21 * p.x + self.m22 * p.y + self.t2,
        )

    def inverse(self) -> "AffineMap":
        d = self.det
        if d == 0:
            raise SingularMap("affine map is not invertible")
        n11 = _div(self.m22, d)
        n12 = _div(-self.m12, d)
        n21 = _div(-self.m21, d)
        n22 = _div(self.m11, d)
        return AffineMap(
            n11, n12, n21, n22,
            -(n11 * self.t1 + n12 * self.t2),
            -(n21 * self.t1 + n22 * self.t2),
        )


# An integer image, see _int_image: flat int coordinates and their scale, or
# (None, None) for float points.
_Image = Tuple[Optional[Tuple[int, ...]], Optional[int]]


def _int_image(points: Sequence[Point]) -> _Image:
    """The points times ``L``, the lcm of their denominators, in ints.

    Returns ``(coords, L)``, with the image's coordinates flat in one tuple
    ``(x0, y0, x1, y1, ...)``, so that a polygon keeps a single object for
    it.  A positive scale keeps the sign of every orientation test and the
    order of every coordinate, so an exact predicate evaluated on the image
    gives the exact answer in plain int arithmetic, with no gcd per
    operation.  When any coordinate is a float there is no image, ``(None,
    None)``, and the points keep their float arithmetic.
    """
    if any(isinstance(c, float) for p in points for c in p):
        return None, None
    coords = [c for p in points for c in p]
    dens = [c.denominator for c in coords]
    scale = math.lcm(*dens)
    return tuple([c.numerator * (scale // d) for c, d in zip(coords, dens)]), scale


def _pairs(coords: Sequence[int], factor: int = 1) -> List[Tuple[int, int]]:
    """The points of flat image coordinates, at ``factor`` times their scale."""
    ints = iter(coords if factor == 1 else [c * factor for c in coords])
    return list(zip(ints, ints))


def _check_convex(points: Sequence[Sequence[Scalar]]) -> None:
    """DegenerateInput unless every consecutive triple is a strict left turn."""
    n = len(points)
    for i in range(n):
        if cross3(points[i], points[(i + 1) % n], points[(i + 2) % n]) <= 0:
            raise DegenerateInput(f"vertices are not strictly convex ccw at index {i}")


def _coerce_points(points: Iterable[Sequence[Scalar]]) -> Tuple[Point, ...]:
    try:
        pts = [Point(p[0], p[1]) for p in points]
    except (IndexError, TypeError) as exc:
        raise BadParams(f"points must be pairs of coordinates: {exc}") from exc
    if any(isinstance(p.x, float) or isinstance(p.y, float) for p in pts):
        try:
            pts = tuple(Point(float(p.x), float(p.y)) for p in pts)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadParams(f"bad coordinate: {exc}") from exc
        # Every comparison with NaN is False, so a NaN would pass the
        # convexity check; an infinity would only fail far downstream.
        if not all(map(math.isfinite, (c for p in pts for c in p))):
            raise BadParams("coordinates must be finite numbers")
        return pts
    # Re-wrapping a Fraction costs as much as a Fraction operation; skip it.
    return tuple(
        Point(
            p.x if type(p.x) is Fraction else _as_fraction(p.x, "coordinate"),
            p.y if type(p.y) is Fraction else _as_fraction(p.y, "coordinate"),
        )
        for p in pts
    )


class ConvexPolygon:
    """Strictly convex polygon with counterclockwise vertices.

    Construction validates the invariant: at least 3 vertices, every
    consecutive triple a strict left turn (which also rules out repeated
    vertices).  Coordinates are coerced to one backend, see module docstring.
    The polygon keeps the integer image that the check ran on (``_image``
    and ``_scale``, from :func:`_int_image`) and computes its area at the
    first read.
    """

    __slots__ = ("vertices", "_image", "_scale", "_area")

    def __init__(self, vertices: Iterable[Sequence[Scalar]]):
        vs = _coerce_points(vertices)
        n = len(vs)
        if n < 3:
            raise DegenerateInput(f"polygon needs at least 3 vertices, got {n}")
        image, scale = _int_image(vs)
        _check_convex(vs if scale is None else _pairs(image))
        self.vertices = vs
        self._image, self._scale, self._area = image, scale, None

    @classmethod
    def _unchecked(
        cls, vertices: Tuple[Point, ...], image: Optional[_Image] = None
    ) -> "ConvexPolygon":
        # Skips validation, for vertices already known to be strictly convex
        # and ccw: a finished hull, or a test body that must reach the solver
        # as given.  ``image`` is their ``_int_image`` when the caller has it.
        obj = object.__new__(cls)
        obj.vertices = tuple(vertices)
        obj._image, obj._scale = _int_image(obj.vertices) if image is None else image
        obj._area = None
        return obj

    @classmethod
    def _from_image(cls, coords: Tuple[int, ...], scale: int) -> "ConvexPolygon":
        """The exact polygon whose integer image at ``scale`` is ``coords``, validated."""
        pairs = _pairs(coords)
        _check_convex(pairs)
        vertices = tuple([Point(Fraction(x, scale), Fraction(y, scale)) for x, y in pairs])
        return cls._unchecked(vertices, (coords, scale))

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.vertices)!r})"

    @property
    def is_exact(self) -> bool:
        return self._scale is not None

    @property
    def area(self) -> Scalar:
        """The shoelace area, computed at the first read (on the image when exact)."""
        if self._area is None:
            scale = self._scale
            pts = self.vertices if scale is None else _pairs(self._image)
            twice = sum(
                x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])
            )
            self._area = _div(twice, 2) if scale is None else Fraction(twice, 2 * scale * scale)
        return self._area

    def edges(self):
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            yield vs[i], vs[(i + 1) % n]

    def bounding_box(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def linf_diameter(self) -> Scalar:
        """Max-norm diameter: the larger side of the bounding box."""
        xmin, ymin, xmax, ymax = self.bounding_box()
        return max(xmax - xmin, ymax - ymin)

    def to_float(self) -> "ConvexPolygon":
        """The polygon in floats, validated like any polygon.

        A vertex that rounding moves onto or inside the line through its
        neighbours is dropped; DegenerateInput when the image is flat, and
        BadParams when a coordinate is beyond the float range.
        """
        if not self.is_exact:
            return self
        try:
            image = [(float(v.x), float(v.y)) for v in self.vertices]
        except OverflowError as exc:
            raise BadParams("coordinates exceed the float range") from exc
        try:
            return type(self)(image)
        except DegenerateInput:
            return convex_hull(image)


def convex_hull(points: Iterable[Sequence[Scalar]]) -> ConvexPolygon:
    """Convex hull by monotone chain; collinear boundary points are dropped.

    Raises DegenerateInput when the hull has empty interior.
    """
    pts = _coerce_points(points)
    coords, scale = _int_image(pts)
    img = pts if scale is None else _pairs(coords)
    # Deduplicate and sort the image, where an int hashes and compares in C
    # and a Fraction in Python; ``first`` maps each image point back to the
    # first input point with that image.
    first = dict(zip(reversed(img), reversed(pts)))
    img = sorted(first)
    if len(img) < 3:
        raise DegenerateInput("hull needs at least 3 distinct points")

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross3(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(img)
    upper = build(reversed(img))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear")
    # Each chain already turns strictly left at every kept point; only the
    # turns at the two points where the chains meet are still unchecked.
    if cross3(lower[-2], upper[0], upper[1]) <= 0 or (
        cross3(upper[-2], lower[0], lower[1]) <= 0
    ):
        raise DegenerateInput("hull is not strictly convex where its chains meet")
    # The polygon keeps the image of its vertices at the input's scale.
    image = (None, None) if scale is None else (tuple([c for q in hull for c in q]), scale)
    return ConvexPolygon._unchecked(tuple(first[q] for q in hull), image)


class Support:
    """Support oracle of a convex polygon, or of its image under an affine map.

    The polygon's outward edge normal angles are kept sorted, with the vertex
    that supports the body on the piece ending at each (``normals`` and
    ``contacts``).  Two queries bisect them, O(log n) each (the second plus a
    walk over the few vertices near the maximum):

    * :meth:`line` gives the supporting line of the polygon itself at a
      normal angle, for the solver;
    * :meth:`extreme` gives the vertices of the image that maximize
      ``<u, .>``.  On the image ``M p + t`` that is the polygon's extreme
      vertex in direction ``M^T u``, since ``h_{MK+t}(u) = h_K(M^T u) + <u, t>``.

    :meth:`under` returns the oracle of the image under an :class:`AffineMap`;
    it shares the sorted normals.  An image vertex is computed with the
    expressions of ``AffineMap.apply``, so every value read through the
    oracle equals the one read off the polygon of the mapped vertices bit
    for bit.  ``tiny`` is a length at the rounding level of the polygon's
    coordinates, :data:`FLOAT_ROUNDING` times the largest of them.
    """

    __slots__ = (
        "normals", "contacts", "tiny", "affine",
        "_starts", "_vertices", "_exact", "_reach", "_bounds",
    )

    def __init__(self, poly: ConvexPolygon):
        # The start vertex of a ccw edge supports the body on the piece that
        # ends at the edge's outward normal.
        edges = sorted(
            (math.atan2(a.x - b.x, b.y - a.y) % _TWO_PI, (a.x, a.y), i)
            for i, (a, b) in enumerate(poly.edges())
        )
        self.normals = [phi for phi, _, _ in edges]
        self.contacts = [p for _, p, _ in edges]
        self._starts = [i for _, _, i in edges]
        self._vertices = poly.vertices
        self._reach = max(max(abs(x), abs(y)) for x, y in self.contacts)
        self.tiny = FLOAT_ROUNDING * self._reach
        self.affine: Optional[AffineMap] = None
        self._exact = poly.is_exact
        self._bounds = (self._reach, self._reach)  # on |x| and |y| over the image

    def under(self, affine: AffineMap) -> "Support":
        """The oracle of the polygon's image under ``affine``.

        Call it on the polygon's own oracle: the map replaces any map that
        this oracle carries.
        """
        image = object.__new__(Support)
        for name in Support.__slots__:
            setattr(image, name, getattr(self, name))
        image.affine = affine
        image._exact = self._exact and not any(isinstance(c, float) for c in affine)
        m11, m12, m21, m22, t1, t2 = affine
        reach = self._reach
        image._bounds = (
            (abs(m11) + abs(m12)) * reach + abs(t1),
            (abs(m21) + abs(m22)) * reach + abs(t2),
        )
        return image

    def line(self, theta: float) -> Tuple[float, float, float]:
        """(cos, sin, h) of the polygon's supporting line at normal angle theta."""
        k = bisect_left(self.normals, theta % _TWO_PI) % len(self.normals)
        px, py = self.contacts[k]
        c, s = math.cos(theta), math.sin(theta)
        return c, s, px * c + py * s

    def extreme(self, ux: Scalar, uy: Scalar) -> Tuple[Point, ...]:
        """The image vertices where ``<u, .>`` is largest, consecutive.

        The bisection finds the polygon vertex supporting ``M^T u``.  The
        query then walks on from it while a neighbour's value ``ux*x + uy*y``
        is higher, or lower by at most the width ``FLOAT_ROUNDING * (|ux| X + |uy| Y)``,
        X and Y bounding the image's coordinates; it returns the vertices
        within that width of the largest value.  On exact input the width is 0
        and the answer is the one or two maximizers.  On floats the width is
        thousands of times the rounding of an image vertex and of a per-edge
        expression ``ey * (x - ax) - ex * (y - ay)`` on it, for an edge start
        ``a`` within a thousand times X and Y.  The exact values rise and then
        fall around the polygon, so a vertex past the first one below the
        width cannot reach the largest value either, and a maximum of such an
        expression over the answer equals its maximum over every vertex, bit
        for bit.  Typically the answer is one vertex, or the two ends of an
        edge normal to ``u``.  BadParams when the largest value or the width
        overflows the float range, where no maximum can be told.
        """
        vs, t = self._vertices, self.affine
        n = len(vs)
        if t is None:
            wx, wy, image = ux, uy, vs.__getitem__
        else:
            m11, m12, m21, m22, t1, t2 = t
            wx, wy = m11 * ux + m21 * uy, m12 * ux + m22 * uy

            def image(j: int) -> Tuple[Scalar, Scalar]:  # AffineMap.apply's expressions
                x, y = vs[j]
                return m11 * x + m12 * y + t1, m21 * x + m22 * y + t2

        k = self._starts[bisect_left(self.normals, math.atan2(wy, wx) % _TWO_PI) % n]
        if self._exact and not isinstance(ux, float) and not isinstance(uy, float):
            width = 0
        else:
            width = FLOAT_ROUNDING * (abs(ux) * self._bounds[0] + abs(uy) * self._bounds[1])
        p = image(k)
        top = ux * p[0] + uy * p[1]
        seen = [(top, p)]
        left = n - 1  # vertices not yet visited
        for step in (1, -1):
            j, side = k, []
            while left:
                j = (j + step) % n
                q = image(j)
                h = ux * q[0] + uy * q[1]
                if h < top - width:
                    break
                left -= 1
                if h > top:
                    top = h
                side.append((h, q))
            if side:
                seen = seen + side if step == 1 else side[::-1] + seen
        cut = top - width
        if isinstance(cut, float) and not math.isfinite(cut):
            raise BadParams("float overflow: a support value exceeds the float range")
        return tuple([Point(*q) for h, q in seen if h >= cut])


def _candidates(body, ux: Scalar, uy: Scalar) -> Sequence[Point]:
    """Points among which ``<u, .>`` attains its largest value over ``body``.

    Every vertex of a polygon or every point of a tuple, or the few image
    vertices that a :class:`Support` query returns.
    """
    if isinstance(body, Support):
        return body.extreme(ux, uy)
    return body.vertices if isinstance(body, ConvexPolygon) else body


def contains_point(poly: ConvexPolygon, p: Sequence[Scalar], tol: Scalar = 0) -> bool:
    """Whether ``p`` lies in ``poly``, allowing signed distance ``-tol * diam``.

    ``tol`` is relative to the polygon's max-norm diameter, so the predicate
    is invariant under scaling.  With ``tol = 0`` the test is a pure sign
    check and exact for rational inputs; so is the tolerant test, see
    :func:`contains_polygon`.
    """
    return contains_polygon(poly, (p,), tol)


def contains_polygon(
    outer: ConvexPolygon,
    inner: Union[ConvexPolygon, Support, Sequence[Point]],
    tol: Scalar = 0,
) -> bool:
    """Whether every vertex of ``inner`` passes :func:`contains_point` on ``outer``.

    ``inner`` is a polygon, a :class:`Support` or a sequence of points,
    coerced like a polygon's vertices; ``tol`` is a number in ``[0, inf)``.
    At ``tol = 0`` a polygon or sequence and ``outer`` are read as integer
    images at one scale (:func:`_joint_image`, from each polygon's kept
    image), where every test is in plain ints.
    The test takes, per edge of ``outer``, the largest excess ``-cross3(a,
    b, q)`` over the candidates for the edge's outward normal
    (:func:`_edge_excesses`, one query to a :class:`Support`) and compares
    that one value with the edge's bound: the maximum is exact and the
    comparison is monotone in it, so the verdict is that of testing every
    point.

    A point q lies beyond edge (a, b) when c = cross3(a, b, q) < 0 and its
    distance -c / |e|, with e = b - a, exceeds ``tol * diam``; at ``tol = 0``
    when c < 0.  An excess is a float exactly when the edge or the point is
    (:func:`_slack`'s rule).  A rational excess is compared squared,
    ``c * c`` against ``tol**2 * diam**2 * |e|**2``, which keeps the test
    exact.  A float excess is compared as ``-c`` against
    ``tol * diam * |e|``: squares of coordinates above about 1e77 would
    overflow to inf on both sides and pass every point.  A float excess or
    diameter that overflows raises BadParams, so no overflow ever passes.
    """
    if not (isinstance(tol, (int, float, Fraction)) and 0 <= tol < math.inf):
        raise BadParams(f"tol must be a number in [0, inf), got {tol!r}")
    if not isinstance(inner, (ConvexPolygon, Support)):
        inner = _coerce_points(inner)
        if not inner:
            return True
    if tol == 0 and not isinstance(inner, Support):
        vertices, inner = _joint_image(outer, inner)
    else:
        vertices = outer.vertices
    diam = outer.linf_diameter() if tol != 0 else None
    if diam == math.inf:
        raise BadParams("float overflow: the polygon's diameter exceeds the float range")
    for ex, ey, m in _edge_excesses(vertices, inner):
        if m > 0 and (
            tol == 0
            or (
                m > float(tol) * float(diam) * math.hypot(ex, ey)
                if isinstance(m, float)
                else m * m > tol * tol * diam * diam * (ex * ex + ey * ey)
            )
        ):
            return False
    return True


def _joint_image(
    outer: ConvexPolygon, inner: Union[ConvexPolygon, Sequence[Point]]
) -> Tuple[Sequence[Point], Sequence[Point]]:
    """``outer``'s vertices and ``inner``'s points as integer images at one scale.

    The two images (a polygon's kept one, or one built here for a point
    sequence) are rescaled to the lcm of their scales.  When either side is
    float, both come back as given.
    """
    if isinstance(inner, ConvexPolygon):
        points, coords, inner_scale = inner.vertices, inner._image, inner._scale
    else:
        points, (coords, inner_scale) = inner, _int_image(inner)
    scale = outer._scale
    if scale is None or inner_scale is None:
        return outer.vertices, points
    common = math.lcm(scale, inner_scale)
    return _pairs(outer._image, common // scale), _pairs(coords, common // inner_scale)


def _edge_excesses(vertices: Sequence[Point], inner):
    """Per edge (a, b) of the polygon ``vertices``, ``(e.x, e.y, m)`` with
    ``e = b - a`` and ``m`` the largest ``-cross3(a, b, q)`` over ``inner``,
    bit for bit.

    ``inner`` is a tuple of points, a polygon or a :class:`Support`; the
    maximum runs over its candidates for the edge's outward normal
    ``(e.y, -e.x)`` (:func:`_candidates`).  The edges run from
    ``(v[-1], v[0])``; the callers take maxima over them, which do not see
    the order.  A float excess that overflows to an infinity or NaN raises
    BadParams: Python's ``max`` would drop a NaN, and an infinity has no
    sign to trust.
    """
    a = vertices[-1]
    for b in vertices:
        (ax, ay), (bx, by) = a, b
        ex, ey = bx - ax, by - ay
        values = [ey * (x - ax) - ex * (y - ay) for x, y in _candidates(inner, ey, -ex)]
        m = max(values)
        if isinstance(m, float) and not all(map(math.isfinite, values)):
            raise BadParams("float overflow: an edge excess exceeds the float range")
        yield ex, ey, m
        a = b


def linf_distance_to_polygon(
    p: Union[Sequence[Scalar], ConvexPolygon, Support],
    poly: ConvexPolygon,
    extent: Optional[Tuple[Scalar, Scalar, Scalar, Scalar]] = None,
) -> Scalar:
    """Max-norm distance from ``p`` to the polygon (0 when inside).

    The distance is the least ``t >= 0`` with ``p`` in ``poly + t*[-1, 1]^2``
    (Minkowski sum).  Support functions add under Minkowski sums, and the
    sum's outward edge normals are those of ``poly`` and the four axis
    directions, so ``t`` is the largest excess of ``<n, p>`` over the sum's
    support value in one of those directions:

        max(0, xmin - p.x, p.x - xmax, ymin - p.y, p.y - ymax,
            max over edges (a, b) of -cross3(a, b, p) / (|b.x - a.x| + |b.y - a.y|))

    where ``-cross3(a, b, p) = <n, p - a>`` for the outward normal
    ``n = (b.y - a.y, a.x - b.x)`` and ``|n.x| + |n.y|`` is the square's
    support value at ``n``.  Exact for rational inputs.

    When ``p`` is a :class:`ConvexPolygon` the result is the largest distance
    of any of its vertices, the directed sup-norm Hausdorff distance from
    ``p`` to ``poly``.  The two maxima swap: per normal, the largest excess
    over all vertices is taken first (the axis terms from ``p``'s bounding
    box), then divided once.  Rounded subtraction and division are monotone,
    so this equals the largest per-vertex distance bit for bit.  When ``p``
    is a :class:`Support`, each of those maxima is read off one query, with
    the same result as on the polygon it reads.  A caller that has read
    ``p``'s bounding box ``(xmin, ymin, xmax, ymax)`` off those same four
    axis queries passes it as ``extent``, and the queries are not repeated.
    """
    box = poly.bounding_box()
    if not isinstance(p, (ConvexPolygon, Support)):
        return _point_distances(_coerce_points((p,)), poly, box)[0]
    xmin, ymin, xmax, ymax = box
    if extent is None:
        left, bottom, right, top = (_candidates(p, ux, uy) for ux, uy in _AXES)
        extent = (
            min(q.x for q in left), min(q.y for q in bottom),
            max(q.x for q in right), max(q.y for q in top),
        )
    lx, ly, hx, hy = extent
    dist = max(xmin - lx, hx - xmax, ymin - ly, hy - ymax)
    for ex, ey, excess in _edge_excesses(poly.vertices, p):
        if excess > 0:
            dist = max(dist, _div(excess, abs(ex) + abs(ey)))
    return _clamp(dist, lx)


def _point_distances(points: Sequence[Sequence[Scalar]], poly: ConvexPolygon, box) -> list:
    """:func:`linf_distance_to_polygon` of each point, given ``poly``'s bounding box.

    The edge vectors and their sup-norm lengths are computed once for all the
    points; each value is the single-point expression, bit for bit.
    """
    xmin, ymin, xmax, ymax = box
    edges = []
    a = poly.vertices[-1]
    for b in poly.vertices:
        ax, ay = a
        ex, ey = b.x - ax, b.y - ay
        edges.append((ax, ay, ex, ey, abs(ex) + abs(ey)))
        a = b
    out = []
    for p in points:
        lx, ly = p[0], p[1]
        dist = max(xmin - lx, lx - xmax, ymin - ly, ly - ymax)
        for ax, ay, ex, ey, size in edges:
            excess = ey * (lx - ax) - ex * (ly - ay)
            if excess > 0:
                dist = max(dist, _div(excess, size))
        out.append(_clamp(dist, lx))
    return out


def _clamp(dist: Scalar, like: Scalar) -> Scalar:
    """``dist`` when positive, else a zero of ``like``'s backend."""
    if dist > 0:
        return dist
    return 0.0 if isinstance(like, float) else 0


def linf_ball(center: Sequence[Scalar], radius: Scalar) -> ConvexPolygon:
    """Axis-aligned square ``{q : |q - center|_inf <= radius}``.

    DegenerateInput unless ``radius > 0``.
    """
    c = Point(center[0], center[1])
    if not radius > 0:
        raise DegenerateInput(f"ball radius must be positive, got {radius}")
    return ConvexPolygon(
        [
            (c.x + radius, c.y + radius),
            (c.x - radius, c.y + radius),
            (c.x - radius, c.y - radius),
            (c.x + radius, c.y - radius),
        ]
    )
