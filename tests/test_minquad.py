"""Minimum circumscribed quadrilateral solver and the midpoint identity."""

import bisect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circumquad import (
    BadParams,
    CircumquadError,
    ConvexPolygon,
    DegenerateBody,
    DegenerateInput,
    NoFeasibleQuadruple,
    Point,
    Quadrilateral,
    brute_force_min_quad,
    case_machine,
    convex_hull,
    contains_polygon,
    gen_corpus,
    min_circumscribed_quadrilateral,
    regular_polygon,
    varignon,
)
from circumquad import minquad
from circumquad.geometry import (
    AffineMap,
    Support,
    linf_distance_to_polygon,
    midpoint,
)
from circumquad.minquad import (
    _corner_terms,
    _float_support,
    _min_plus_product,
    _quad_from_lines,
    _scan_normals,
    _scan_support_directions,
    midpoint_certificate,
)

from conftest import apply_affine


def random_rational_quad(rng):
    while True:
        pts = [
            (F(rng.randrange(-60, 61), rng.randrange(1, 12)),
             F(rng.randrange(-60, 61), rng.randrange(1, 12)))
            for _ in range(4)
        ]
        try:
            hull = convex_hull(pts)
        except Exception:
            continue
        if len(hull) == 4:
            return Quadrilateral(tuple(hull.vertices))


def random_900228():
    """A 12-vertex hull on which a descent by one side at a time stopped above the least."""
    return gen_corpus("random", 12, seed=900228, vertices=48)[11]


def half_disk(n):
    """Hull of n + 1 points on a half circle: n - 1 arc edges and a flat side."""
    return convex_hull(
        [(math.cos(math.pi * k / n), math.sin(math.pi * k / n)) for k in range(n + 1)]
    )


class TestQuadrilateral:
    def test_area_frozen(self):
        q = Quadrilateral((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)))
        assert q.area == 4
        assert isinstance(q, ConvexPolygon)

    def test_needs_exactly_four_vertices(self):
        with pytest.raises(BadParams):
            Quadrilateral([(0, 0), (2, 0), (1, 2)])
        with pytest.raises(BadParams):
            Quadrilateral([(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)])

    def test_degenerate_triangle_polygon(self):
        # A triangle is its own witness: the body's 3-vertex polygon.
        tri = ConvexPolygon([(0, 0), (2, 0), (1, 2)])
        witness, cert = min_circumscribed_quadrilateral(tri)
        assert len(witness) == 3
        assert not isinstance(witness, Quadrilateral)
        assert witness == tri.to_float()
        assert witness.area == 2
        assert cert.midpoint_residuals == (0.0, 0.0, 0.0)
        assert cert.area_ratio == 1.0

    def test_exact_area_is_fraction(self):
        q = Quadrilateral(
            (Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)), Point(F(0), F(1)))
        )
        assert isinstance(q.area, F)


class TestVarignon:
    def test_square_gives_half_area(self):
        q = Quadrilateral((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)))
        para = varignon(q)
        assert para.area == 2
        assert q.area == 2 * para.area

    def test_midpoint_identity_random_rational(self):
        rng = random.Random(11)
        for _ in range(200):
            q = random_rational_quad(rng)
            para = varignon(q)
            assert q.area == 2 * para.area  # exact rational identity

    def test_flat_quad_raises(self):
        # A flat quadrilateral, whose midpoints would be collinear, is
        # rejected before varignon can see it.
        with pytest.raises(DegenerateInput):
            Quadrilateral((Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)))


class TestSolver:
    def test_square_ratio_one(self):
        sq = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        quad, cert = min_circumscribed_quadrilateral(sq)
        assert cert.contains_body
        assert cert.area_ratio == pytest.approx(1.0, abs=1e-9)

    def test_rotated_square_ratio_one(self):
        c, s = math.cos(0.4), math.sin(0.4)
        sq = ConvexPolygon(
            [(c * x - s * y, s * x + c * y) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        )
        _, cert = min_circumscribed_quadrilateral(sq)
        assert cert.area_ratio == pytest.approx(1.0, abs=1e-9)

    def test_pentagon_ratio(self):
        pent = regular_polygon(5)
        _, cert = min_circumscribed_quadrilateral(pent)
        assert cert.area_ratio == pytest.approx(3 / math.sqrt(5), abs=1e-7)

    def test_triangle_degenerates(self):
        tri = ConvexPolygon([(0, 0), (2, 0), (0.5, 1.5)])
        quad, cert = min_circumscribed_quadrilateral(tri)
        assert len(quad) == 3
        assert cert.area_ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "family, vertices",
        [
            ("random", 16),
            ("ellipse", 64),
            # A pentagon takes no size parameter; the id names its 5 vertices.
            pytest.param("affine_pentagon", None, id="affine_pentagon-5"),
        ],
    )
    def test_containment_certificate(self, family, vertices, seed):
        body = gen_corpus(family, 1, seed=seed, vertices=vertices)[0]
        quad, cert = min_circumscribed_quadrilateral(body)
        assert cert.contains_body
        assert isinstance(quad, Quadrilateral)
        assert contains_polygon(quad, body.to_float(), tol=1e-9)
        # Every side of a minimal quadrilateral touches the body at its midpoint.
        assert max(cert.midpoint_residuals) <= 1e-12

    def test_quadrilateral_with_short_edge_is_its_own_minimum(self):
        # Descent that lets a side collapse into a corner stalls here at a
        # circumscribed triangle 2e-4 larger than the body, whose two equal
        # corners then fail normalization.
        body = ConvexPolygon(
            [
                (-0.9612424473081325, -0.03359605924071807),
                (0.4062696710165534, -0.8151402595865846),
                (0.4337252699698957, 0.1903475785091706),
                (-0.8975570209078634, -0.01935717813741933),
            ]
        )
        _, cert = min_circumscribed_quadrilateral(body)
        assert cert.area_ratio == pytest.approx(1.0, abs=1e-9)
        assert case_machine(body).empirical_ratio == cert.area_ratio

    def test_deterministic(self):
        body = gen_corpus("random", 1, seed=5, vertices=16)[0]
        q1, _ = min_circumscribed_quadrilateral(body)
        q2, _ = min_circumscribed_quadrilateral(body)
        assert q1.vertices == q2.vertices

    def test_matches_brute_force(self):
        bodies = [gen_corpus("random", 1, seed=s, vertices=16)[0] for s in (1, 2, 3)]
        # Over 90 edges the solver scans every k-th edge normal only.
        bodies += [gen_corpus("ellipse", 1, seed=s, vertices=200)[0] for s in (1, 2, 3)]
        # Every 3rd of the half-disk's 201 normals skips its flat side's, and
        # the picks around that lie more than pi apart.
        bodies += [regular_polygon(91), half_disk(200)]
        for body in bodies:
            quad, _ = min_circumscribed_quadrilateral(body)
            oracle = brute_force_min_quad(body, grid=96)
            assert float(quad.area) <= float(oracle.area) + 1e-6 * float(body.area)

    def test_least_ratio_below_a_descent_from_each_anchor(self):
        # An 8-gon on which a descent from the best pair of each anchor
        # stopped at 1.2949025243.
        body = gen_corpus("random", 150, seed=777002, vertices=16)[129]
        _, cert = min_circumscribed_quadrilateral(body)
        assert cert.area_ratio <= 1.2899173432438256 + 1e-12

    def test_affine_invariance_of_ratio(self):
        body = gen_corpus("random", 1, seed=8, vertices=24)[0]
        _, cert = min_circumscribed_quadrilateral(body)
        m = AffineMap(1.7, 0.3, -0.4, 1.1, 5.0, -2.0)
        _, cert2 = min_circumscribed_quadrilateral(apply_affine(m, body.to_float()))
        assert abs(cert.area_ratio - cert2.area_ratio) <= 1e-6

    def test_degenerate_body_raises(self):
        thin = ConvexPolygon._unchecked(
            (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1e-15))
        )
        with pytest.raises(DegenerateBody):
            min_circumscribed_quadrilateral(thin)

    def test_bad_options(self):
        with pytest.raises(BadParams):
            brute_force_min_quad(
                ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]), grid=8
            )

    def test_grid_cap(self):
        square = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(BadParams):
                brute_force_min_quad(square, grid=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A scan at that grid would need about 80 GB per n-by-n array.
        assert peak < 1_000_000


def support_corners(poly, angles, quad):
    """Corners of the quadrilateral cut out by the support lines ``angles[quad]``."""
    lines = []
    for k in quad:
        c, s = math.cos(angles[k]), math.sin(angles[k])
        lines.append((c, s, max(v.x * c + v.y * s for v in poly.vertices)))
    corners = []
    for (c1, s1, h1), (c2, s2, h2) in zip(lines, lines[1:] + lines[:1]):
        det = c1 * s2 - c2 * s1
        corners.append(((h1 * s2 - h2 * s1) / det, (c1 * h2 - c2 * h1) / det))
    return corners


def shortest_side(corners):
    return min(math.dist(corners[i - 1], corners[i]) for i in range(4))


def enumerate_quads(poly, angles):
    """Minimum doubled area per (a, c) by direct enumeration of the directions.

    Visits every a < b < c < d whose four cyclic gaps g have sin g > 1e-12
    (a gap of pi or more leaves no quadrilateral), intersects the support
    lines and takes the shoelace sum of the corners; a quadrilateral with a
    side of zero length counts as the triangle it is.  Keyed by (a, c), the
    first and third index.
    """
    A = np.asarray(angles)
    cos, sin = np.cos(A), np.sin(A)
    h = (np.array(poly.vertices, dtype=float) @ np.stack([cos, sin])).max(axis=0)
    quads = np.array(list(itertools.combinations(range(len(A)), 4)), dtype=int)
    quads = quads.reshape(-1, 4)
    nxt = np.roll(quads, -1, axis=1)
    quads = quads[(np.sin((A[nxt] - A[quads]) % (2 * math.pi)) > 1e-12).all(axis=1)]
    i, j = quads, np.roll(quads, -1, axis=1)
    det = cos[i] * sin[j] - cos[j] * sin[i]
    x = (h[i] * sin[j] - h[j] * sin[i]) / det
    y = (cos[i] * h[j] - cos[j] * h[i]) / det
    twice = (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
    best = np.full((len(A), len(A)), np.inf)
    np.minimum.at(best, (quads[:, 0], quads[:, 2]), twice)
    return {(a, c): best[a, c] for a, c in zip(*np.nonzero(np.isfinite(best)))}


def support_values(poly, angles):
    """Support values h_j about the vertex mean, and ``on[i, j]``: line i's contact lies on line j.

    "On" is up to the rounding level ``2 * tiny``, tiny being 1e-12 of the
    largest absolute coordinate.
    """
    V = np.asarray(poly.vertices, dtype=float)
    tiny = 1e-12 * np.abs(V).max()
    V = V - V.mean(axis=0)
    P = V @ np.stack([np.cos(angles), np.sin(angles)])
    H = P.max(axis=0)
    return H, H[None, :] - P[P.argmax(axis=0)] <= 2.0 * tiny


def reference_scan(poly, angles, skip_collapsed=False):
    """Every (anchor, opposite) pair's best quadruple, searched over all b and d.

    Uses the scan's corner terms W, so its sums round as the scan's do: the
    least sum per pair over every b and d, sorted by sum with ties in (a, c)
    order, b and d the first of least sum.  The scan must return the first
    entry exactly, and its product the per-pair sums.  ``skip_collapsed``
    leaves out the quadruples with a side of zero length, by a test on
    contact vertices: side i is zero when its contact lies on both
    neighbouring lines, up to the rounding level ``2 * tiny``.
    """
    A = np.asarray(angles)
    n = len(A)
    cos, sin = np.cos(A), np.sin(A)
    H, on = support_values(poly, A)
    Hi, Hj = H[:, None], H[None, :]
    sin_g = np.outer(cos, sin) - np.outer(sin, cos)
    cos_g = np.outer(cos, cos) + np.outer(sin, sin)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = (2.0 * Hi * Hj - (Hi * Hi + Hj * Hj) * cos_g) / sin_g
    W[sin_g <= 1e-12] = np.inf
    found = []
    for a in range(n):
        for c in range(a + 2, n - 1):
            b, d = np.arange(a + 1, c), np.arange(c + 1, n)
            F, G = W[a, b] + W[b, c], W[c, d] + W[d, a]
            if skip_collapsed:
                F[on[b, a] & on[b, c]] = np.inf  # side b of zero length
                G[on[d, c] & on[d, a]] = np.inf  # side d
            S = F[:, None] + G
            if skip_collapsed:  # side a or side c
                S[(on[a, b][:, None] & on[a, d]) | (on[c, b][:, None] & on[c, d])] = np.inf
            k = int(S.argmin())
            if np.isfinite(S.flat[k]):
                found.append((float(S.flat[k]), (a, b[k // len(d)], c, d[k % len(d)])))
    return sorted(found, key=lambda f: f[0])


def reference_pairs(found):
    """{(a, c): least doubled area} of a :func:`reference_scan` list."""
    return {(a, c): value for value, (a, _, c, _) in found}


def first_reference(poly, angles, found=None):
    """The least entry of :func:`reference_scan` (or of ``found``), as the scan returns it."""
    value, quad = (reference_scan(poly, angles) if found is None else found)[0]
    return value, tuple(map(int, quad))


def pair_minima(poly, angles):
    """{(a, c): least doubled area} over a < c, off the scan's min-plus product.

    M[a, c] + M[c, a] of :func:`_min_plus_product` on the scan's corner
    terms, about the vertex mean; pairs with no quadruple are left out.
    """
    A = np.asarray(angles)
    M = _min_plus_product(_corner_terms(np.cos(A), np.sin(A), support_values(poly, A)[0]))
    total = M + M.T
    return {
        (a, c): float(total[a, c])
        for a, c in zip(*np.nonzero(np.isfinite(total)))
        if a < c
    }


def flagged_reference_scan(poly, angles):
    """The search of the scan that excluded quadruples with a collapsed side.

    On edge normals no side collapses, as each line holds a body edge and
    its side holds the edge, so the scan must equal this there.
    """
    return reference_scan(poly, angles, skip_collapsed=True)


def edge_normals(poly):
    return sorted(
        math.atan2(a.x - b.x, b.y - a.y) % (2 * math.pi) for a, b in poly.edges()
    )


def scanned_normals(poly):
    """The edge normals the solver scans, the angles at ``_scan_normals``' indices."""
    normals = edge_normals(poly)
    return [normals[k] for k in _scan_normals(normals)]


# The vertex (0.125, 0) turns by 1.7e-12 rad.  Every quadruple of its four
# edge normals is the body itself; the flagged search reads sides 0 and 1 as
# collapsed, as each of their contacts lies within 2 * tiny of both
# neighbouring lines, and finds none.
NEARLY_STRAIGHT = ConvexPolygon(
    [(0.0, -1.0), (1.0, 0.0), (0.125, 0.0), (0.0, -2.142077460265779e-13)]
)


SCAN_BODIES = {
    "random-8": gen_corpus("random", 1, seed=4, vertices=8)[0],
    "random-16": gen_corpus("random", 1, seed=4, vertices=16)[0],
    "random-64": gen_corpus("random", 1, seed=4, vertices=64)[0],
    "ellipse-40": gen_corpus("ellipse", 1, seed=4, vertices=40)[0],
    "ellipse-64": gen_corpus("ellipse", 1, seed=4, vertices=64)[0],
    "affine_pentagon": gen_corpus("affine_pentagon", 1, seed=4)[0],
    # Edge normals at multiples of pi/6 fall on the 24-grid: contact ties.
    # Its own normals come in antiparallel pairs, exactly pi apart.
    "hexagon": regular_polygon(6),
    # On a grid its best quadruples have a side of zero length: they are
    # circumscribed triangles.
    "triangle": regular_polygon(3),
    "skew-triangle": ConvexPolygon([(0.0, 0.0), (3.0, 0.4), (1.1, 2.3)]),
}


@st.composite
def scan_cases(draw):
    """A random hull of up to 12 points with 6 to 14 sorted directions.

    The directions mix the hull's edge normals, a 72-grid, antiparallel
    partners of some of them and a fan of lines inside one vertex's normal
    cone, which all share that vertex as their contact.
    """
    pts = draw(st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        min_size=3, max_size=12, unique=True,
    ))
    try:
        poly = convex_hull(pts).to_float()
    except DegenerateInput:
        assume(False)
    normals = edge_normals(poly)
    grid = [2 * math.pi * k / 72 for k in range(72)]
    picks = draw(st.lists(st.sampled_from(normals + grid), min_size=2, max_size=10, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    angles = picks + [(a + math.pi) % (2 * math.pi) for a, flip in zip(picks, flips) if flip]
    i = draw(st.integers(0, len(normals) - 1))
    lo = normals[i - 1] - (2 * math.pi if i == 0 else 0.0)
    fan = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), max_size=3, unique=True))
    angles += [(lo + t * (normals[i] - lo)) % (2 * math.pi) for t in fan]
    angles = sorted(set(angles))
    assume(6 <= len(angles) <= 14)
    return poly, angles


@st.composite
def solver_normals(draw):
    """A random integer or float hull and the edge normals the solver scans.

    The float hulls are hulls of random points or ellipse polygons of up to
    200 sides, whose normals ``_scan_normals`` thins above 90 edges.
    """
    kind = draw(st.sampled_from(["integer", "float", "ellipse"]))
    if kind == "ellipse":
        body = gen_corpus("ellipse", 1, seed=draw(st.integers(0, 10**6)),
                          vertices=draw(st.integers(4, 200)))[0]
    else:
        coordinate = st.integers(-20, 20) if kind == "integer" else st.floats(-10, 10)
        pts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=4, max_size=16))
        try:
            body = convex_hull(pts)
        except DegenerateInput:
            assume(False)
    poly = body.to_float()
    return poly, scanned_normals(poly)


@pytest.mark.parametrize("kind, n", [("random", 8), ("random", 16), ("random", 64), ("ellipse", 64)])
def test_corner_terms_are_monge(kind, n):
    """The corner terms W on a body's edge normals are Monge where finite.

    Every adjacent 2x2 block with four finite entries has
    W(i, j) + W(i+1, j+1) <= W(i, j+1) + W(i+1, j), within 1e-9 of its
    largest entry.  A monotone-matrix search for the min-plus product's
    minima would rest on this (ROADMAP item 9).  A pentagon has no such
    block: two of its lines three edges apart are more than pi apart.
    """
    blocks = 0
    for seed in range(40):
        body = gen_corpus(kind, 1, seed=seed, vertices=n)[0]
        A = np.array(edge_normals(body))
        W = _corner_terms(np.cos(A), np.sin(A), support_values(body, A)[0])
        a, b, c, d = W[:-1, :-1], W[1:, 1:], W[:-1, 1:], W[1:, :-1]
        finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
        a, b, c, d = a[finite], b[finite], c[finite], d[finite]
        scale = np.maximum.reduce([abs(a), abs(b), abs(c), abs(d)])
        assert np.all(a + b <= c + d + 1e-9 * scale), (kind, n, seed)
        blocks += len(a)
    assert blocks > 0


class TestGridScan:
    @pytest.mark.parametrize("directions", [16, 17, 24, "edges"])
    @pytest.mark.parametrize("name", sorted(SCAN_BODIES))
    def test_matches_direct_enumeration(self, name, directions):
        # 17 has no antiparallel directions; on 16 and 24 opposite sides of
        # a quadruple can be exactly parallel.  "edges" is the body's own
        # edge normals, on which no side collapses.
        poly = SCAN_BODIES[name].to_float()
        if directions == "edges":
            angles = edge_normals(poly)
        else:
            angles = [2 * math.pi * k / directions for k in range(directions)]
        expected = enumerate_quads(poly, angles)
        if not expected:  # a triangle's three normals
            with pytest.raises(NoFeasibleQuadruple):
                _scan_support_directions(poly, np.array(angles))
            return
        minima = pair_minima(poly, angles)
        assert sorted(minima) == sorted(expected)
        for pair, value in minima.items():
            assert value == pytest.approx(expected[pair], rel=1e-12, abs=0)
        value, quad = _scan_support_directions(poly, np.array(angles))
        assert (value, quad) == first_reference(poly, angles)
        assert all(0 < quad[i + 1] - quad[i] for i in range(3))
        if directions == "edges":  # no side collapses on edge normals
            zero = 1e-9 * poly.linf_diameter()
            assert shortest_side(support_corners(poly, angles, quad)) > zero

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_random_directions_match_direct_enumeration(self, case):
        poly, angles = case
        expected = enumerate_quads(poly, angles)
        if not expected:
            with pytest.raises(NoFeasibleQuadruple):
                _scan_support_directions(poly, np.array(angles))
            return
        minima = pair_minima(poly, angles)
        assert sorted(minima) == sorted(expected)
        for pair, value in minima.items():
            assert value == pytest.approx(expected[pair], rel=1e-12, abs=0)
        assert minima == reference_pairs(reference_scan(poly, angles))
        found = _scan_support_directions(poly, np.array(angles))
        assert found == first_reference(poly, angles)

    @settings(max_examples=60, deadline=None)
    @given(solver_normals())
    @example(case=(NEARLY_STRAIGHT, scanned_normals(NEARLY_STRAIGHT)))
    def test_edge_normal_scan_equals_flagged_search(self, case):
        # The solver's lines lie flush with body edges, so a scan that keeps
        # quadruples with a collapsed side finds exactly what one that
        # excluded them found.  That holds where every edge is longer than
        # 1e-9 of the hull's size: a side holds its line's edge, and a
        # shorter edge reads as a collapsed side both to the flagged search
        # (level 1e-12 of the largest coordinate) and to the shortest-side
        # check (1e-9 * diam); see
        # ``test_edge_normal_scan_keeps_a_side_below_rounding``.  It also
        # needs every vertex to turn by more than rounding: where a line's
        # contact lies within 2 * tiny of both neighbouring lines (between
        # consecutive edges it lies on the one whose edge shares it), the
        # flagged search reads that side as collapsed; see ``NEARLY_STRAIGHT``.
        poly, normals = case
        expected = reference_scan(poly, normals)
        if not expected:
            with pytest.raises(NoFeasibleQuadruple):
                _scan_support_directions(poly, np.array(normals))
            return
        minima = pair_minima(poly, normals)
        assert minima == reference_pairs(expected)
        value, quad = _scan_support_directions(poly, np.array(normals))
        assert (value, quad) == first_reference(poly, normals)
        size = max(poly.linf_diameter(), max(abs(c) for v in poly.vertices for c in v))
        if min(math.dist(a, b) for a, b in poly.edges()) <= 1e-9 * size:
            return
        on = support_values(poly, np.array(normals))[1]
        k = np.arange(len(normals))
        if (on[k, k - 1] & on[k, (k + 1) % len(k)]).any():
            return
        flagged = flagged_reference_scan(poly, normals)
        assert minima == reference_pairs(flagged)
        assert (value, quad) == first_reference(poly, normals, flagged)
        zero = 1e-9 * poly.linf_diameter()
        assert shortest_side(support_corners(poly, normals, quad)) > zero

    def test_edge_normal_scan_keeps_a_side_below_rounding(self):
        # The edge from (0, 0) to (-2, 1e-84) is a true edge of the hull, and
        # the side on its normal's line (angle pi) holds the edge of length
        # 1e-84.  The flagged search read that side as collapsed and skipped
        # (0, 1, 2, 3), the circumscribed triangle of doubled area 4; the
        # scan keeps it, and so finds less than the flagged search's 5.
        poly = ConvexPolygon([(-2.0, 0.0), (0.0, -1.0), (1.0, -1.0), (0.0, 0.0),
                              (-2.0, 9.917260693413039e-85)])
        normals = scanned_normals(poly)
        assert len(normals) == 5
        minima = pair_minima(poly, normals)
        assert minima == reference_pairs(reference_scan(poly, normals))
        flagged = flagged_reference_scan(poly, normals)
        found = _scan_support_directions(poly, np.array(normals))
        assert found == first_reference(poly, normals) == first_reference(poly, normals, flagged)
        assert minima[0, 2] == pytest.approx(4.0, rel=1e-12)
        assert reference_pairs(flagged)[0, 2] == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("directions", [16, 17, 24, "edges"])
    @pytest.mark.parametrize("name", sorted(SCAN_BODIES))
    def test_equals_reference_search(self, name, directions):
        # Bit for bit: the same sums per pair, the same least quadruple.
        poly = SCAN_BODIES[name].to_float()
        if directions == "edges":
            angles = edge_normals(poly)
        else:
            angles = [2 * math.pi * k / directions for k in range(directions)]
        expected = reference_scan(poly, angles)
        if expected:
            assert pair_minima(poly, angles) == reference_pairs(expected)
            found = _scan_support_directions(poly, np.array(angles))
            assert found == first_reference(poly, angles, expected)

    @pytest.mark.parametrize("grid", [90, 96, 180])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_oracle_on_regular_polygons(self, k, grid):
        body = regular_polygon(k)
        quad = brute_force_min_quad(body, grid=grid)
        assert contains_polygon(quad, body.to_float(), tol=1e-9)
        if k > 3:
            assert isinstance(quad, Quadrilateral)

    @pytest.mark.parametrize(
        "name, grid",
        [("regular", g) for g in (24, 90, 96, 180)] + [("right", g) for g in (16, 24, 96)],
    )
    def test_oracle_on_triangles(self, name, grid):
        # The edge normals lie on these grids, so the best quadruple is the
        # triangle itself with a fourth line through a vertex, a collapsed
        # side.  Rounding may leave that side just longer than the solver's
        # zero length, so the test reads the area, not the vertex count.
        if name == "regular":
            body = regular_polygon(3)
        else:
            body = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        quad = brute_force_min_quad(body, grid=grid)
        assert float(quad.area) / float(body.area) == pytest.approx(1.0, abs=1e-9)
        assert contains_polygon(quad, body.to_float(), tol=1e-9)

    def test_edge_normal_scan_is_pinned(self):
        # Literal minima of the scan as first written: a faster scan must
        # return the same float and quadruple, and the product the same
        # least pair sums.
        poly = SCAN_BODIES["ellipse-64"].to_float()
        normals = edge_normals(poly)
        area = 41.32040106791186
        assert _scan_support_directions(poly, np.array(normals)) == (area, (1, 17, 33, 49))
        minima = pair_minima(poly, normals)
        assert min(minima.values()) == area
        for pair in [(5, 37), (6, 38), (9, 41), (10, 42), (12, 44)]:
            assert minima[pair] == area

    def test_oracle_scan_is_pinned(self):
        poly = SCAN_BODIES["random-16"].to_float()
        angles = np.array([2 * math.pi * k / 180 for k in range(180)])
        found = _scan_support_directions(poly, angles)
        assert found == (3.4349440331939896, (4, 43, 73, 122))

    def test_solver_scan_memory(self):
        # The oracle's scan holds W and the product M, then M and the pair
        # minima, 32 kB each at 64 directions, plus one step's sums and
        # numpy's iteration buffers for a broadcast sum: about 0.17 MB.
        poly = SCAN_BODIES["ellipse-64"].to_float()
        angles = np.array(edge_normals(poly))
        tracemalloc.start()
        try:
            _scan_support_directions(poly, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.30e6

    def test_oracle_memory_stays_quadratic(self):
        # Arrays indexed by three grid directions would take about 47 MB at
        # 180; the scan holds a few n-by-n arrays of 0.26 MB each.
        body = gen_corpus("random", 1, seed=1, vertices=16)[0]
        tracemalloc.start()
        try:
            brute_force_min_quad(body, grid=180)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestMidpointCertificate:
    def test_residuals_zero_for_midpoint_config(self):
        # Diamond inscribed in the unit square: midpoints hit it exactly.
        body = ConvexPolygon([(F(1, 2), 0), (1, F(1, 2)), (F(1, 2), 1), (0, F(1, 2))])
        quad = Quadrilateral(
            (Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)), Point(F(0), F(1)))
        )
        cert = midpoint_certificate(body, quad, Support(body))
        assert cert.contains_body
        assert all(r == 0 for r in cert.midpoint_residuals)
        assert cert.area_ratio == 2

    @pytest.mark.parametrize("eps, contained", [(1e-12, True), (F(1, 10**30), False)])
    def test_containment_slack_follows_number_type(self, eps, contained):
        # The diamond's bottom vertex pokes eps below the square.
        half = 0.5 if isinstance(eps, float) else F(1, 2)
        body = ConvexPolygon([(half, -eps), (1, half), (half, 1), (0, half)])
        quad = Quadrilateral(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert midpoint_certificate(body, quad, Support(body)).contains_body is contained

    @pytest.mark.parametrize("kind, n", [("random", 8), ("random", 64), ("ellipse", 64)])
    def test_oracle_reads_the_body_alike(self, kind, n):
        # Containment through four support queries, the residuals from one
        # bounding box: the certificate of the full scans, bit for bit.
        for body in gen_corpus(kind, 5, seed=11, vertices=n):
            poly = body.to_float()
            support = Support(poly)
            quad, cert = min_circumscribed_quadrilateral(body)
            shrunk = Quadrilateral(midpoint(v, Point(0.0, 0.0)) for v in quad.vertices)
            for q in (quad, shrunk):
                got = midpoint_certificate(poly, q, support)
                assert got.contains_body == contains_polygon(q, poly, 1e-9)
                assert got.midpoint_residuals == tuple(
                    linf_distance_to_polygon(midpoint(a, b), poly) / poly.linf_diameter()
                    for a, b in q.edges()
                )
            assert cert == midpoint_certificate(poly, quad, support)
            assert not midpoint_certificate(poly, shrunk, support).contains_body

    @pytest.mark.parametrize(
        "kind, n",
        [
            # A pentagon takes no size parameter; the id names its 5 vertices.
            pytest.param("affine_pentagon", None, id="affine_pentagon-5"),
            ("random", 8),
            ("ellipse", 64),
        ],
    )
    def test_one_query_per_witness_edge(self, kind, n):
        queries = []

        class Counted(Support):
            __slots__ = ()

            def extreme(self, ux, uy):
                queries.append((ux, uy))
                return super().extreme(ux, uy)

        poly = gen_corpus(kind, 1, seed=11, vertices=n)[0].to_float()
        quad, cert = min_circumscribed_quadrilateral(poly)
        assert isinstance(quad.vertices[0].x, float)
        assert midpoint_certificate(poly, quad, Counted(poly)) == cert
        assert len(queries) == 4


def _lines_area(normals, h):
    """Area of each quadrilateral cut out by four (normal, h) lines in ccw order.

    ``normals`` has shape (count, 4, 2) and ``h`` (count, 4).  A quadruple
    whose gaps do not wind once round the circle, each in (0, pi), is nan.
    """
    nxt = np.roll(normals, -1, axis=1)
    sin = normals[..., 0] * nxt[..., 1] - normals[..., 1] * nxt[..., 0]
    cos = (normals * nxt).sum(axis=-1)
    gaps = np.arctan2(sin, cos) % (2 * math.pi)
    hn = np.roll(h, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (h * nxt[..., 1] - hn * normals[..., 1]) / sin
        y = (normals[..., 0] * hn - nxt[..., 0] * h) / sin
        twice = (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
    ok = (sin > 1e-12).all(axis=1) & np.isclose(gaps.sum(axis=1), 2 * math.pi)
    return np.where(ok, twice / 2, np.nan)


def _through(v, far):
    """Unit normals of the sides from the corner ``2 v - far`` to ``far``, in ccw order."""
    t = far - v
    normal = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return normal / np.linalg.norm(normal, axis=-1, keepdims=True)


def _reflect(normal, h, v):
    """Support value of the line (normal, h) reflected through v."""
    return 2 * (normal * v).sum(axis=-1) - h


def _meet(n1, h1, n2, h2):
    det = n1[..., 0] * n2[..., 1] - n1[..., 1] * n2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([(h1 * n2[..., 1] - h2 * n1[..., 1]) / det,
                         (n1[..., 0] * h2 - n2[..., 0] * h1) / det], axis=-1)


def enumerate_stationary(poly):
    """Least area of each type of stationary quadrilateral, by brute force.

    Independent of the solver: every 4-set of edge lines (type i); every
    pivot at every vertex between any two edge lines x and y, with a third
    edge line after y (type ii); every two adjacent pivots at any two
    vertices u and w followed by any two edge lines c and d (type iii).  A
    pivot is the side whose midpoint is its vertex, and counts only if its
    normal lies in the vertex's cone.  Returns {type: least area}.
    """
    V = np.array(poly.vertices, dtype=float)
    n = len(V)
    edge = np.roll(V, -1, axis=0) - V  # edge i runs from vertex i to i + 1
    N = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    H = (N * V).sum(axis=1)

    def in_cone(normal, v):
        # Vertex v lies between edges v - 1 and v.
        before, after = N[v - 1], N[v]
        return ((before[..., 0] * normal[..., 1] - before[..., 1] * normal[..., 0] >= 0)
                & (normal[..., 0] * after[..., 1] - normal[..., 1] * after[..., 0] >= 0))

    def least(area, valid=True):
        return float(np.min(area[valid & ~np.isnan(area)], initial=np.inf))

    best = {}
    four = np.array(list(itertools.combinations(range(n), 4)))
    best["i"] = least(_lines_area(N[four], H[four]))

    x, y, m, v = (a.ravel() for a in np.meshgrid(*[np.arange(n)] * 4, indexing="ij"))
    keep = (x != y) & (y != m) & (m != x)
    x, y, m, v = x[keep], y[keep], m[keep], v[keep]
    far = _meet(N[x], _reflect(N[x], H[x], V[v]), N[y], H[y])  # the corner on y
    nb = _through(V[v], far)
    hb = (nb * V[v]).sum(axis=1)
    area = _lines_area(np.stack([N[x], nb, N[y], N[m]], axis=1),
                       np.stack([H[x], hb, H[y], H[m]], axis=1))
    best["ii"] = least(area, in_cone(nb, v))

    c, d, u, w = (a.ravel() for a in np.meshgrid(*[np.arange(n)] * 4, indexing="ij"))
    keep = (c != d) & (u != w)
    c, d, u, w = c[keep], d[keep], u[keep], w[keep]
    X = _meet(N[d], _reflect(N[d], H[d], V[u]), N[c], _reflect(N[c], H[c], V[w]))
    na = _through(V[u], X)  # from the corner on d to X
    nb = _through(V[w], 2 * V[w] - X)  # from X to the corner on c
    ha, hb = (na * V[u]).sum(axis=1), (nb * V[w]).sum(axis=1)
    area = _lines_area(np.stack([na, nb, N[c], N[d]], axis=1),
                       np.stack([ha, hb, H[c], H[d]], axis=1))
    best["iii"] = least(area, in_cone(na, u) & in_cone(nb, w))
    return best


# Bodies on which coordinate descent from the edge-normal scan's starts
# stopped above the minimum, with the area it returned.
DESCENT_MISSES = {
    "acceptance-186": (lambda: gen_corpus("random", 150, seed=20260815, vertices=16)[36], 2.336783540096403),
    "random-6-625": (lambda: gen_corpus("random", 1000, seed=424248, vertices=6)[625], 1.4752769655931162),
    "random-9-434": (lambda: gen_corpus("random", 1000, seed=424251, vertices=9)[434], 1.920956321491124),
    "random-10-367": (lambda: gen_corpus("random", 1000, seed=424252, vertices=10)[367], 2.1312588363139358),
    "random-10-394": (lambda: gen_corpus("random", 1000, seed=424252, vertices=10)[394], 2.3503800362872256),
    "random-12-665": (lambda: gen_corpus("random", 1000, seed=424254, vertices=12)[665], 1.6339678224049528),
}


@st.composite
def small_hulls(draw):
    """The float hull of 4 to 12 integer points, with at least 4 vertices."""
    pts = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                        min_size=4, max_size=12, unique=True))
    try:
        hull = convex_hull(pts)
    except DegenerateInput:
        assume(False)
    assume(len(hull) >= 4)
    return hull.to_float()


class TestFlushAndPivot:
    @pytest.mark.parametrize("name", sorted(DESCENT_MISSES))
    def test_descent_misses_are_found(self, name):
        body, descent = DESCENT_MISSES[name]
        body = body()
        quad, cert = min_circumscribed_quadrilateral(body)
        assert cert.contains_body
        assert float(quad.area) <= descent * (1 - 1e-4)
        oracle = brute_force_min_quad(body, grid=180)
        assert float(quad.area) <= float(oracle.area) + 1e-6 * float(body.area)
        stationary = enumerate_stationary(body.to_float())
        assert float(quad.area) == pytest.approx(min(stationary.values()), rel=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(small_hulls())
    @example(poly=DESCENT_MISSES["random-6-625"][0]().to_float())
    @example(poly=regular_polygon(6).to_float())
    def test_no_stationary_quadrilateral_is_smaller(self, poly):
        # Types (i) and (ii) with the two contacts next to the flush
        # argmin are the solver's; every pivot vertex and type (iii) are not.
        quad, _ = min_circumscribed_quadrilateral(poly)
        stationary = enumerate_stationary(poly)
        assert float(quad.area) <= min(stationary.values()) * (1 + 1e-12)

    @pytest.mark.parametrize("directions", [16, 17, 24, "edges"])
    @pytest.mark.parametrize("name", sorted(SCAN_BODIES))
    def test_cyclic_product_is_the_direct_minimum(self, name, directions):
        # M[x, d] and K[x, d] of the pair (x, x + d) against a loop over the
        # middle line m, the first offset from x of least sum winning.
        poly = SCAN_BODIES[name].to_float()
        if directions == "edges":
            angles = np.array(edge_normals(poly))
        else:
            angles = np.array([2 * math.pi * k / directions for k in range(directions)])
        n = len(angles)
        c, s = np.cos(angles), np.sin(angles)
        h = (np.array(poly.vertices) @ np.stack([c, s])).max(axis=0)
        W = minquad._corner_terms(c, s, h)
        D = np.array([[W[x, (x + e) % n] for e in range(n)] for x in range(n)])
        M, K = minquad._cyclic_product(np.concatenate([D, D]))
        for x in range(n):
            for d in range(n):
                sums = [W[x, (x + e) % n] + W[(x + e) % n, (x + d) % n] for e in range(1, d)]
                least = min(sums, default=math.inf)
                assert M[x, d] == least
                if math.isfinite(least):
                    assert K[x, d] == 1 + sums.index(least)

    def test_solver_memory(self):
        # The pivot pass takes wide pairs in steps, so that the solve's peak
        # stays that of building the corner terms, which the grid scan shares.
        poly = SCAN_BODIES["ellipse-64"].to_float()
        support = Support(poly)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scan = peak(lambda: _scan_support_directions(poly, np.array(support.normals)))
        assert peak(lambda: min_circumscribed_quadrilateral(poly, support)) <= 1.1 * scan

    def test_window_holds_the_neighbours_of_each_flush_line(self, monkeypatch):
        # Above 90 edges the second pass runs on the true normals within
        # half = min(ceil(n / 90), 11) of the first pass's four angles.  On
        # this 1024-gon a flush line lies on normal 0; its angle, read back
        # off the line's cos and sin, came out one ulp high, and the window
        # centred on normal 1 missed normal -half.
        body = gen_corpus("ellipse", 8, seed=16, vertices=1024)[6]
        calls = []
        solve_on = minquad._solve_on

        def recorded(support, picked, origin):
            area, sides = solve_on(support, picked, origin)
            calls.append((support.normals, picked, sides))
            return area, sides

        monkeypatch.setattr(minquad, "_solve_on", recorded)
        min_circumscribed_quadrilateral(body)
        (normals, first, sides), (_, second, _) = calls
        n = len(normals)
        half = min(math.ceil(n / 90), 11)
        angles = [theta for theta, _ in sides]
        flush = [int(k) for k in first if normals[k] in angles]
        assert 0 in flush
        for k in flush:
            assert {(k + d) % n for d in range(-half, half + 1)} <= set(second.tolist())


TWO_PI = 2 * math.pi


def quad_lines(quad):
    """(angle, (cos, sin, h)) of each side of ``quad``, at ascending angles."""
    corners = [(float(p[0]), float(p[1])) for p in quad.vertices]
    found = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        length = math.hypot(x1 - x0, y1 - y0)
        c, s = (y1 - y0) / length, (x0 - x1) / length
        found.append((math.atan2(s, c) % TWO_PI, (c, s, c * x0 + s * y0)))
    return sorted(found)


class TestSideMove:
    """No exact move of one side lowers the solver's answer.

    A minimum is a fixed point of every side move.  The walk moves one side
    over every piece of its range, the cone of one contact vertex each,
    taking each piece's least area in closed form, with the other three
    sides held; the descent the closed-form pass replaced was checked
    against it, and the pass must now end where the walk ends.
    """

    @staticmethod
    def walk_candidates(support, angles, lines, i):
        """(angle, line) of side i's candidate on every piece of its range, in order."""
        prev = angles[i - 1] - (TWO_PI if i == 0 else 0.0)
        nxt = angles[(i + 1) % 4] + (TWO_PI if i == 3 else 0.0)
        lo, hi = max(prev, nxt - math.pi), min(prev + math.pi, nxt)
        cp, sp, hp = lines[i - 1]
        cn, sn, hn = lines[(i + 1) % 4]
        det = cp * sn - cn * sp
        k = bisect.bisect_right(support.normals, lo % TWO_PI)
        base = lo - lo % TWO_PI
        start = lo
        while start < hi:
            if k == len(support.normals):
                k, base = 0, base + TWO_PI
            end = min(base + support.normals[k], hi)
            px, py = support.contacts[k]
            theta = end
            if det < 0.0:
                b1 = hp - (cp * px + sp * py)
                b2 = (cn * px + sn * py) - hn
                sx = (b1 * sn - b2 * sp) / det
                sy = (cp * b2 - cn * b1) / det
                mid = 0.5 * (start + end)
                theta = mid + math.remainder(math.atan2(sx, -sy) - mid, TWO_PI)
                theta = min(max(theta, start), end)
            if theta > start:
                c, s = math.cos(theta), math.sin(theta)
                yield theta, (c, s, px * c + py * s)
            start, k = end, k + 1

    def walk(self, support, quad):
        """(area of ``quad``, least area of any one side's move over its pieces)."""
        angles, lines = (list(a) for a in zip(*quad_lines(quad)))
        area, _ = _quad_from_lines(lines, support.tiny)
        least = area
        for i in range(4):
            cand = list(lines)
            for _, line in self.walk_candidates(support, angles, lines, i):
                cand[i] = line
                least = min(least, _quad_from_lines(cand, support.tiny)[0])
        return area, least

    @pytest.mark.parametrize(
        "name",
        [f"regular-{k}" for k in range(4, 13)]
        + sorted(n for n in SCAN_BODIES if "triangle" not in n)
        + ["ellipse-1024", "half-disk-201", "random-900228"],
    )
    def test_bisection_is_the_walk(self, name):
        # Triangles are their own answer.  The bodies above 90 edges take
        # the second pass on the true normals; random-900228 is the body
        # on which a bisecting side move missed the walk.
        if name.startswith("regular-"):
            body = regular_polygon(int(name.split("-")[1]))
        elif name == "ellipse-1024":
            body = gen_corpus("ellipse", 1, seed=1, vertices=1024)[0]
        elif name == "random-900228":
            body = random_900228()
        elif name == "half-disk-201":
            body = half_disk(200)
        else:
            body = SCAN_BODIES[name]
        _, support = _float_support(body)
        quad, _ = min_circumscribed_quadrilateral(body)
        area, least = self.walk(support, quad)
        assert area == pytest.approx(float(quad.area), rel=1e-12)
        assert least >= area * (1 - 1e-12)

    def test_least_area_on_random_900228(self):
        # A descent from (1, 5, 7, 10) or (1, 5, 8, 10) stopped at 3.012743;
        # the walk and the pass end at 2.947470.
        quad, _ = min_circumscribed_quadrilateral(random_900228())
        assert float(quad.area) == pytest.approx(2.947470144478123, rel=1e-12)

    @staticmethod
    def assert_pair_steps_change_no_result(body):
        # The pivot pass takes the wide pairs in steps to bound its memory.
        # With one pair per step, or all at once: the same answer bit for
        # bit, or the same error.
        def outcome():
            try:
                quad, cert = min_circumscribed_quadrilateral(body)
            except CircumquadError as exc:
                return repr(exc)
            return repr((quad.vertices, cert))

        stepped = outcome()
        for step in (1, 10**9):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(minquad, "_PAIRS_PER_STEP", step)
                assert outcome() == stepped

    @pytest.mark.parametrize(
        "name", sorted(n for n in SCAN_BODIES if "triangle" not in n) + ["random-900228"]
    )
    def test_pair_steps_change_no_result(self, name):
        body = random_900228() if name == "random-900228" else SCAN_BODIES[name]
        self.assert_pair_steps_change_no_result(body)

    @settings(max_examples=60, deadline=None)
    @given(solver_normals())
    def test_pair_steps_change_no_result_on_random_bodies(self, case):
        poly, _ = case
        assume(len(poly) > 3)
        self.assert_pair_steps_change_no_result(poly)


class TestHugeBodies:
    @staticmethod
    def diamond(s):
        return ConvexPolygon([(s, 0.0), (0.0, s), (-s, 0.0), (0.0, -s)])

    @pytest.mark.parametrize("s", [1e150, 1e160])
    def test_too_large_raises_bad_params(self, s):
        # Beyond the limit the scan's sums of corner terms may overflow: the
        # body used to fail as NoFeasibleQuadruple or, once its float area
        # overflowed, as DegenerateBody.
        with pytest.raises(BadParams, match="diameter"):
            min_circumscribed_quadrilateral(self.diamond(s))

    # 1e147 lies just under the limit: its scan warns (and so fails) if a
    # sum of corner terms overflows.
    @pytest.mark.parametrize("s", [1e100, 1e147])
    def test_large_body_still_solves(self, s):
        _, cert = min_circumscribed_quadrilateral(self.diamond(s))
        assert cert.area_ratio == pytest.approx(1.0, abs=1e-12)
