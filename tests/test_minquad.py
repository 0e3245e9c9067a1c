"""Minimum circumscribed quadrilateral solver and the midpoint identity."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from circumquad import (
    BadParams,
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
from circumquad.geometry import AffineMap, apply_affine
from circumquad.minquad import _scan_support_directions, midpoint_certificate


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
        "family, vertices", [("random", 16), ("ellipse", 64), ("affine_pentagon", 5)]
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

    def test_start_rule(self):
        # An 8-gon whose best start pair is not the best pair of its anchor:
        # the best start per anchor ends at 1.2949025243.
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
    lines, takes the shoelace sum of the corners and skips any quadrilateral
    with a side of zero length.  Keyed by (a, c), the first and third index.
    """
    # A collapsed side comes out of rounding far shorter than this.
    zero = 1e-9 * poly.linf_diameter()
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
    sides = np.hypot(x - np.roll(x, 1, axis=1), y - np.roll(y, 1, axis=1))
    twice = (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1)
    keep = sides.min(axis=1) > zero
    best = np.full((len(A), len(A)), np.inf)
    np.minimum.at(best, (quads[keep, 0], quads[keep, 2]), twice[keep])
    return {(a, c): best[a, c] for a, c in zip(*np.nonzero(np.isfinite(best)))}


def edge_normals(poly):
    return sorted(
        math.atan2(a.x - b.x, b.y - a.y) % (2 * math.pi) for a, b in poly.edges()
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
    # Quadruples with a side of zero length are triangles and would win.
    "triangle": regular_polygon(3),
    "skew-triangle": ConvexPolygon([(0.0, 0.0), (3.0, 0.4), (1.1, 2.3)]),
}


class TestGridScan:
    @pytest.mark.parametrize("directions", [16, 17, 24, "edges"])
    @pytest.mark.parametrize("name", sorted(SCAN_BODIES))
    def test_matches_direct_enumeration(self, name, directions):
        # 17 has no antiparallel directions; on 16 and 24 opposite sides of
        # a quadruple can be exactly parallel.  "edges" is the body's own
        # edge normals, the solver's direction set.
        poly = SCAN_BODIES[name].to_float()
        if directions == "edges":
            angles = edge_normals(poly)
        else:
            angles = [2 * math.pi * k / directions for k in range(directions)]
        expected = enumerate_quads(poly, angles)
        if not expected:  # a triangle's three normals
            with pytest.raises(NoFeasibleQuadruple):
                _scan_support_directions(poly, np.array(angles), 1)
            return
        minima = _scan_support_directions(poly, np.array(angles), len(angles) ** 2)
        assert sorted((quad[0], quad[2]) for _, quad in minima) == sorted(expected)
        for value, quad in minima:
            assert value == pytest.approx(expected[quad[0], quad[2]], rel=1e-12, abs=0)
            assert all(0 < quad[i + 1] - quad[i] for i in range(3))
        assert [value for value, _ in minima] == sorted(value for value, _ in minima)
        zero = 1e-9 * poly.linf_diameter()
        for _, quad in minima:
            assert shortest_side(support_corners(poly, angles, quad)) > zero

    @pytest.mark.parametrize("grid", [90, 96, 180])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_oracle_on_regular_polygons(self, k, grid):
        # The triangle's best grid quadruples include ones with a side of
        # zero length; the oracle must skip them, not fail on them.
        body = regular_polygon(k)
        quad = brute_force_min_quad(body, grid=grid)
        assert isinstance(quad, Quadrilateral)
        assert contains_polygon(quad, body.to_float(), tol=1e-9)

    def test_edge_normal_scan_is_pinned(self):
        # Literal minima of the scan as first written: a faster scan must
        # return the same floats and quadruples in the same order.
        poly = SCAN_BODIES["ellipse-64"].to_float()
        minima = _scan_support_directions(poly, np.array(edge_normals(poly)), 6)
        area = 41.32040106791186
        assert minima == [
            (area, (1, 17, 33, 49)),
            (area, (5, 21, 37, 53)),
            (area, (6, 22, 38, 54)),
            (area, (9, 25, 41, 57)),
            (area, (10, 26, 42, 58)),
            (area, (12, 28, 44, 60)),
        ]

    def test_oracle_scan_is_pinned(self):
        poly = SCAN_BODIES["random-16"].to_float()
        angles = np.array([2 * math.pi * k / 180 for k in range(180)])
        minima = _scan_support_directions(poly, angles, 1)
        assert minima == [(3.4349440331939896, (4, 43, 73, 122))]

    def test_solver_scan_memory(self):
        # The scan holds three n-by-n float arrays, 32 kB each at 64
        # directions, and one anchor's pair sums at a time.
        poly = SCAN_BODIES["ellipse-64"].to_float()
        angles = np.array(edge_normals(poly))
        tracemalloc.start()
        try:
            _scan_support_directions(poly, angles, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.30e6

    def test_oracle_memory_stays_quadratic(self):
        # Arrays indexed by three grid directions take about 100 MB at 180.
        body = gen_corpus("random", 1, seed=1, vertices=16)[0]
        tracemalloc.start()
        try:
            brute_force_min_quad(body, grid=180)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestMidpointCertificate:
    def test_residuals_zero_for_midpoint_config(self):
        # Diamond inscribed in the unit square: midpoints hit it exactly.
        body = ConvexPolygon([(F(1, 2), 0), (1, F(1, 2)), (F(1, 2), 1), (0, F(1, 2))])
        quad = Quadrilateral(
            (Point(F(0), F(0)), Point(F(1), F(0)), Point(F(1), F(1)), Point(F(0), F(1)))
        )
        cert = midpoint_certificate(body, quad)
        assert cert.contains_body
        assert all(r == 0 for r in cert.midpoint_residuals)
        assert cert.area_ratio == 2

    @pytest.mark.parametrize("eps, contained", [(1e-12, True), (F(1, 10**30), False)])
    def test_containment_slack_follows_number_type(self, eps, contained):
        # The diamond's bottom vertex pokes eps below the square.
        half = 0.5 if isinstance(eps, float) else F(1, 2)
        body = ConvexPolygon([(half, -eps), (1, half), (half, 1), (0, half)])
        quad = Quadrilateral(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert midpoint_certificate(body, quad).contains_body is contained
