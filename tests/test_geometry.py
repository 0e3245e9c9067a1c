"""Geometry primitives: exactness, validation, and frozen oracles."""

import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circumquad import geometry
from circumquad.corpus import gen_corpus, regular_polygon
from circumquad.errors import BadParams, DegenerateInput, SingularMap
from circumquad.geometry import (
    AffineMap,
    ConvexPolygon,
    Point,
    Support,
    contains_point,
    contains_polygon,
    convex_hull,
    cross3,
    linf_ball,
    linf_distance_to_polygon,
    midpoint,
)
from circumquad.minquad import Quadrilateral, varignon

from conftest import apply_affine

# Independent shoelace, deliberately written differently from the library.
def shoelace(pts):
    total = 0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2 if isinstance(total, float) else F(total, 2)


rational = st.fractions(
    min_value=-8, max_value=8, max_denominator=64
)
coord = st.tuples(rational, rational)


class TestConvexPolygon:
    def test_area_frozen_triangle(self):
        assert ConvexPolygon([(0, 0), (4, 0), (0, 3)]).area == 6

    def test_area_frozen_square(self):
        assert ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]).area == 4

    def test_area_matches_independent_shoelace(self):
        poly = ConvexPolygon(
            [(F(0), F(0)), (F(7, 2), F(1, 3)), (F(4), F(5)), (F(-1), F(2))]
        )
        assert poly.area == shoelace([(v.x, v.y) for v in poly.vertices])

    def test_rejects_clockwise(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_collinear_vertex(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_rejects_too_few(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([(0, 0), (1, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(DegenerateInput):
            ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", None, "1/0"])
    def test_rejects_non_finite(self, bad):
        # A NaN fails no convexity test, since every comparison with it is False.
        with pytest.raises(BadParams):
            ConvexPolygon([(0, 0), (1, 0), (0, bad)])
        with pytest.raises(BadParams):
            ConvexPolygon([(0, 0), (1, 0), (1, 1), (bad, 1)])
        # Beside a float coordinate, and as the only entry of a point.
        with pytest.raises(BadParams):
            ConvexPolygon([(0.0, 0), (1, 0), (1, 1), (bad, 1)])
        with pytest.raises(BadParams):
            ConvexPolygon([(0, 0), (1, 0), (1, 1), (bad,)])

    def test_exactness_tracking(self):
        exact = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        assert exact.is_exact
        assert isinstance(exact.vertices[0].x, F)
        mixed = ConvexPolygon([(0.0, 0), (1, 0), (0, 1)])
        assert not mixed.is_exact
        assert all(isinstance(v.x, float) for v in mixed.vertices)

    def test_to_float_to_exact_round_trip(self):
        poly = ConvexPolygon([(F(1, 3), 0), (1, 0), (0, 1)])
        f = poly.to_float()
        assert not f.is_exact
        assert f.vertices[0] == Point(1 / 3, 0.0)
        back = ConvexPolygon([(F(v.x), F(v.y)) for v in f.vertices])
        assert back.is_exact
        assert back.vertices[1:] == poly.vertices[1:]

    def test_to_float_revalidates(self):
        # The float image of (2**60 + 1, 1) lies on the line through its
        # neighbours, so the image keeps only the other three vertices.
        poly = ConvexPolygon([(0, 0), (2**60 + 1, 1), (2**61, 2), (0, 2**61)])
        f = poly.to_float()
        assert f.vertices == ConvexPolygon(f.vertices).vertices
        assert sorted(f.vertices) == [(0.0, 0.0), (0.0, 2.0**61), (2.0**61, 2.0)]

    def test_to_float_beyond_float_range_is_bad_params(self):
        poly = ConvexPolygon([(0, 0), (10**400, 0), (0, 1)])
        with pytest.raises(BadParams):
            poly.to_float()

    def test_bounding_box_and_diameter(self):
        poly = ConvexPolygon([(-2, -1), (3, -1), (0, 4)])
        assert poly.bounding_box() == (-2, -1, 3, 4)
        assert poly.linf_diameter() == 5

    def test_pickle_round_trip(self):
        poly = ConvexPolygon([(F(1, 3), 0), (1, 0), (0, 1)])
        assert pickle.loads(pickle.dumps(poly)) == poly

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_calls_no_constructor(self, protocol, monkeypatch):
        # A slotted class pickles as cls.__new__ plus its slot state.
        polys = [
            ConvexPolygon([(F(1, 3), 0), (1, 0), (0, 1)]),
            Quadrilateral([(0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, 2.0)]),
        ]
        blobs = [pickle.dumps(p, protocol) for p in polys]
        calls = []

        def counted(init):
            def __init__(self, vertices):
                calls.append(vertices)
                init(self, vertices)

            return __init__

        for cls in (ConvexPolygon, Quadrilateral):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        for poly, blob in zip(polys, blobs):
            back = pickle.loads(blob)
            assert type(back) is type(poly)
            assert back.vertices == poly.vertices
        assert calls == []


class TestHull:
    def test_hull_drops_interior_and_collinear(self):
        hull = convex_hull(
            [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0), (2, 1)]
        )
        assert set(hull.vertices) == {
            Point(F(0), F(0)),
            Point(F(2), F(0)),
            Point(F(2), F(2)),
            Point(F(0), F(2)),
        }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", None, "1/0"])
    def test_hull_rejects_non_finite(self, bad):
        with pytest.raises(BadParams):
            convex_hull([(0, 0), (1, 0), (0, bad), (1, 1)])
        with pytest.raises(BadParams):
            convex_hull([(0, 0), (1, 0), (bad,), (1, 1)])

    def test_hull_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(coord, min_size=3, max_size=20))
    def test_hull_contains_every_input_point(self, pts):
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            return
        for p in pts:
            assert contains_point(hull, p)
        # idempotence
        again = convex_hull([(v.x, v.y) for v in hull.vertices])
        assert again == hull


    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.lists(coord, min_size=3, max_size=20),
            st.lists(
                st.tuples(
                    st.floats(-1e3, 1e3, allow_subnormal=False),
                    st.floats(-1e3, 1e3, allow_subnormal=False),
                ),
                min_size=3,
                max_size=20,
            ),
        )
    )
    def test_hull_passes_the_constructor_check(self, pts):
        # The hull skips re-validation; the validating constructor must agree.
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            return
        assert ConvexPolygon(hull.vertices) == hull


class TestLines:
    def test_cross3_and_midpoint(self):
        assert cross3(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
        assert midpoint(Point(F(0), F(0)), Point(F(1), F(1))) == Point(
            F(1, 2), F(1, 2)
        )


class TestAffine:
    def test_inverse_composes_to_identity(self):
        m = AffineMap(F(2), F(1), F(1), F(1), F(3), F(-4))
        p = Point(F(7, 3), F(-2, 5))
        assert m.inverse().apply(m.apply(p)) == p
        assert m.apply(m.inverse().apply(p)) == p

    def test_singular_raises(self):
        with pytest.raises(SingularMap):
            AffineMap(1, 2, 2, 4, 0, 0).inverse()

    def test_apply_affine_flips_orientation(self):
        poly = ConvexPolygon([(0, 0), (2, 0), (0, 2)])
        mirrored = apply_affine(AffineMap(-1, 0, 0, 1, 0, 0), poly)
        assert mirrored.area == poly.area
        assert contains_point(mirrored, (-1, F(1, 2)))

    def test_area_scales_by_det(self):
        poly = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        m = AffineMap(F(3), F(1), F(0), F(2), F(5), F(6))
        assert apply_affine(m, poly).area == poly.area * m.det

    def test_apply_affine_drops_vertices_rounded_onto_a_line(self):
        # The 1e-84 edge is strictly convex in floats, its image is not.
        m = AffineMap(
            -1.333333333333333, -3.9999999999999982,
            1.3333333333333324, -1.776356839400249e-15,
            -2.3333333333333326, 0.3333333333333326,
        )
        image = apply_affine(m, FOUND_BODY)
        with pytest.raises(DegenerateInput):
            ConvexPolygon([m.apply(v) for v in FOUND_BODY.vertices])
        assert len(image) == 4
        assert set(image.vertices) <= {m.apply(v) for v in FOUND_BODY.vertices}
        assert image.area == pytest.approx(FOUND_BODY.area * abs(m.det))


class TestContainment:
    def test_exact_boundary_counts_as_inside(self):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert contains_point(sq, (1, 0))
        assert contains_point(sq, (1, 1))
        assert not contains_point(sq, (F(101, 100), 0))

    def test_tolerance_admits_near_miss(self):
        sq = ConvexPolygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        assert not contains_point(sq, (1.001, 0.0))
        assert contains_point(sq, (1.001, 0.0), tol=1e-3)

    def test_contains_polygon(self):
        outer = ConvexPolygon([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        inner = ConvexPolygon([(-1, -1), (1, -1), (0, 1)])
        assert contains_polygon(outer, inner)
        assert not contains_polygon(inner, outer)
        # A list of points at every tol, as a polygon's vertices.
        for tol in (0, F(1, 10)):
            assert contains_polygon(outer, list(inner.vertices), tol)
            assert not contains_polygon(inner, list(outer.vertices), tol)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("tol", [0, 1e-9])
    def test_no_points_are_contained(self, exact, tol):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert contains_polygon(sq if exact else sq.to_float(), [], tol)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "point, tol",
        [
            ((math.nan, 0.5), 0),
            (("a", 0), 0),
            ((1,), 0),
            ((5, 5), math.nan),
            ((5, 5), -1),
            ((5, 5), math.inf),
            ((5, 5), "0"),
        ],
        ids=["nan-point", "text-point", "short-point", "nan-tol", "negative-tol",
             "infinite-tol", "text-tol"],
    )
    def test_bad_point_or_tol_is_bad_params(self, exact, point, tol):
        # Every comparison with a NaN is False, so a NaN point or tol would
        # pass every edge test.
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        sq = sq if exact else sq.to_float()
        with pytest.raises(BadParams):
            contains_point(sq, point, tol)
        with pytest.raises(BadParams):
            contains_polygon(sq, [(0, 0), point], tol)
        if tol == 0:
            with pytest.raises(BadParams):
                linf_distance_to_polygon(point, sq)

    @pytest.mark.parametrize("s", [1e100, 1e140])
    def test_tolerance_on_huge_floats(self, s):
        # Squared cross products of coordinates above about 1e77 overflow to
        # inf on both sides of the test, which then passes every point.
        def diamond(h):
            return ConvexPolygon([(h, 0.0), (0.0, h), (-h, 0.0), (0.0, -h)])

        assert not contains_polygon(diamond(s), diamond(2 * s), tol=1e-9)
        assert not contains_point(diamond(s), (2 * s, 0.0), tol=1e-9)
        assert contains_polygon(diamond(2 * s), diamond(s), tol=1e-9)

    def test_overflow_near_the_float_limit_never_passes(self):
        # far lies outside d.  Its excesses over d's edges overflow to
        # inf - inf = nan, d's diameter to inf, and a support value of far
        # along (1e308, 1e308) to inf; each once passed far, or left no
        # candidate and raised a stray ValueError.
        d = ConvexPolygon([(1e308, 0.0), (0.0, 1e308), (-1e308, 0.0), (0.0, -1e308)])
        far = ConvexPolygon(
            [(9e307, 9e307), (9e307 + 1e300, 9e307), (9e307, 9e307 + 1e300)]
        )
        for tol in (0, 1e-9):
            for inner in (far, far.vertices, Support(far)):
                with pytest.raises(BadParams, match="overflow"):
                    contains_polygon(d, inner, tol)
        with pytest.raises(BadParams, match="overflow"):
            Support(far).extreme(1e308, 1e308)
        with pytest.raises(BadParams, match="overflow"):
            linf_distance_to_polygon(far, d)


class TestLinfDistance:
    def test_outside_axis(self):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert linf_distance_to_polygon((2, 0), sq) == 1
        assert linf_distance_to_polygon((3, 3), sq) == 2

    def test_inside_is_zero(self):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert linf_distance_to_polygon((F(1, 2), 0), sq) == 0

    def test_exact_rational(self):
        tri = ConvexPolygon([(0, 0), (2, 0), (0, 2)])
        assert linf_distance_to_polygon((F(3), F(0)), tri) == 1

    def test_axis_term(self):
        # The diamond's edge terms alone give 1; the bounding box gives 2.
        diamond = ConvexPolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert linf_distance_to_polygon((3, 0), diamond) == 2

    def test_linf_ball(self):
        ball = linf_ball((0, 0), F(2))
        assert ball.area == 16
        with pytest.raises(DegenerateInput):
            linf_ball((F(1), F(2)), 0)
        with pytest.raises(DegenerateInput):
            linf_ball((0, 0), -1)


def _dilated_hull(poly, t):
    return convex_hull(
        [(v.x + sx * t, v.y + sy * t) for v in poly.vertices
         for sx in (-1, 1) for sy in (-1, 1)]
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(coord, min_size=3, max_size=12), coord)
def test_linf_distance_is_least_dilation(pts, p):
    """d is the least t with p in hull(K + t*[-1, 1]^2), checked exactly."""
    try:
        poly = convex_hull(pts)
    except DegenerateInput:
        return
    d = linf_distance_to_polygon(p, poly)
    assert (d == 0) == contains_point(poly, p)
    assert contains_point(_dilated_hull(poly, d), p, tol=0)
    if d > 0:
        assert not contains_point(_dilated_hull(poly, d * (1 - F(1, 2**20))), p)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(coord, min_size=3, max_size=10),
    st.lists(
        st.tuples(
            st.integers(0, 9),
            st.booleans(),
            st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(1), F(3, 2)]),
        ),
        max_size=6,
    ),
    st.lists(coord, max_size=3),
    st.sampled_from([(False, False), (True, True), (True, False), (False, True)]),
)
def test_linf_distance_of_polygon_is_largest_vertex_distance(pts, picks, free, floats):
    """The polygon form equals the largest point-form distance, type included."""
    try:
        poly = convex_hull(pts)
        vs = poly.vertices
        n = len(vs)
        cx = sum(v.x for v in vs) / n
        cy = sum(v.y for v in vs) / n
        # A vertex or an edge midpoint of poly, scaled about the centroid:
        # by s < 1 inside, by s = 1 on the boundary, by s > 1 outside.
        near = []
        for i, mid, s in picks:
            base = midpoint(vs[i % n], vs[(i + 1) % n]) if mid else vs[i % n]
            near.append((cx + s * (base.x - cx), cy + s * (base.y - cy)))
        body = convex_hull(near + free)
        body, poly = (p.to_float() if f else p for p, f in zip((body, poly), floats))
    except DegenerateInput:
        return
    got = linf_distance_to_polygon(body, poly)
    expected = max(linf_distance_to_polygon(v, poly) for v in body.vertices)
    assert got == expected
    assert type(got) is type(expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(coord, min_size=4, max_size=12))
def test_hull_area_matches_independent_shoelace(pts):
    try:
        hull = convex_hull(pts)
    except DegenerateInput:
        return
    assert hull.area == shoelace([(v.x, v.y) for v in hull.vertices])
    assert hull.area > 0


# --- exact predicates against a plain Fraction reference ----------------------

# Denominators 1, large primes and powers of two, and the exact values of
# floats from subnormal to near the largest, so that clouds mix images of
# very different scales.
WIDE_DENOMINATORS = (1, 3, 7, 10**9 + 7, 2**61 - 1, 2**31, 2**64, 2**200)
wide = st.one_of(
    st.builds(
        F,
        st.integers(-(10**12), 10**12),
        st.sampled_from(WIDE_DENOMINATORS),
    ),
    st.builds(F, st.floats(allow_nan=False, allow_infinity=False)),
)


@st.composite
def clouds(draw):
    """Points with repeats and with points on segments between them."""
    base = draw(st.lists(st.tuples(wide, wide), min_size=1, max_size=8))
    ts = st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]), st.fractions(0, 1))
    picks = draw(
        st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base), ts), max_size=6)
    )
    on_segments = [(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])) for p, q, t in picks]
    return draw(st.permutations(base + on_segments))


def _ref_cross(o, a, b):
    return cross3(Point(F(o[0]), F(o[1])), Point(F(a[0]), F(a[1])), Point(F(b[0]), F(b[1])))


def _ref_monotone_chain(pts):
    pts = sorted(set((F(x), F(y)) for x, y in pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _ref_cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def _ref_strictly_convex(vs):
    n = len(vs)
    return n >= 3 and all(
        _ref_cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) > 0 for i in range(n)
    )


def _ref_contains(vs, q):
    n = len(vs)
    return all(_ref_cross(vs[i], vs[(i + 1) % n], q) >= 0 for i in range(n))


def _accepts(vs):
    try:
        ConvexPolygon(vs)
    except DegenerateInput:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(clouds(), st.lists(st.tuples(wide, wide), max_size=4), st.fractions(0, 1))
def test_exact_predicates_match_fraction_reference(pts, others, t):
    assert _accepts(pts) == _ref_strictly_convex(pts)
    ref = _ref_monotone_chain(pts)
    if len(ref) < 3:
        with pytest.raises(DegenerateInput):
            convex_hull(pts)
        return
    hull = convex_hull(pts)
    assert [tuple(v) for v in hull.vertices] == ref
    assert all(type(c) is F for v in hull.vertices for c in v)

    # The constructor on the hull, its rotations and reversals, a repeated
    # vertex and a vertex inserted mid-edge.
    n = len(ref)
    mid = tuple((a + b) / 2 for a, b in zip(ref[0], ref[1]))
    for vs in (ref, ref[1:] + ref[:1], ref[::-1], ref + ref[-1:], ref[:1] + [mid] + ref[1:]):
        assert _accepts(vs) == _ref_strictly_convex(vs)

    area = hull.area
    assert type(area) is F and area == shoelace(ref) > 0

    # Queries: every cloud point, every vertex, points on every edge, others.
    on_edges = [
        tuple(a + t * (b - a) for a, b in zip(ref[i], ref[(i + 1) % n]))
        for i in range(n)
    ]
    queries = list(pts) + ref + on_edges + [tuple(map(F, q)) for q in others]
    for q in queries:
        assert contains_point(hull, q) == _ref_contains(ref, q)
    for group in (pts, on_edges, others):
        try:
            inner = convex_hull(group)
        except DegenerateInput:
            continue
        assert contains_polygon(hull, inner) == all(
            _ref_contains(ref, v) for v in inner.vertices
        )
        assert contains_polygon(inner, hull) == all(
            _ref_contains(list(inner.vertices), v) for v in ref
        )


class TestMixedBackends:
    def test_int_query_against_exact_polygon_is_exact(self):
        # In floats, 2**53 + 1 rounds onto the vertex (2**53, 0).
        tri = ConvexPolygon([(0, 0), (2**53, 0), (0, 1)])
        assert not contains_point(tri, (2**53 + 1, 0))
        assert contains_point(tri, (2**53, 0))
        assert contains_point(tri, (float(2**53 + 1), 0.0))

    def test_float_query_against_exact_polygon_keeps_float_arithmetic(self):
        sq = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert not contains_point(sq, (1.0000000000000002, 0.0))
        # The float 1/3 lies below the exact 1/3, but a float query is
        # compared in floats, where the vertex rounds to the same float.
        slab = ConvexPolygon([(F(1, 3), 0), (1, 0), (1, 1), (F(1, 3), 1)])
        assert contains_point(slab, (1 / 3, 0.5))
        assert not contains_point(slab, (F(1 / 3), F(1, 2)))
        assert contains_polygon(slab, slab.to_float())
        assert contains_polygon(slab.to_float(), slab)


# --- tolerant containment ----------------------------------------------------


@st.composite
def near_hulls(draw):
    """(outer, inner) rational hulls; inner is outer dilated a little, plus points."""
    outer = draw(st.lists(coord, min_size=3, max_size=10))
    t = draw(st.sampled_from([F(0), F(1, 10**10), F(1, 10**7), F(1, 10**4), F(1, 100)]))
    ox = sum(x for x, _ in outer) / len(outer)
    oy = sum(y for _, y in outer) / len(outer)
    inner = [(x + t * (x - ox), y + t * (y - oy)) for x, y in outer]
    return outer, inner + draw(st.lists(coord, max_size=3))


@settings(max_examples=200, deadline=None)
@given(
    near_hulls(),
    st.sampled_from([1e-9, 1e-3, F(1, 10**6)]),
    st.sampled_from([(False, False), (True, True), (True, False), (False, True)]),
)
def test_tolerant_contains_polygon_matches_contains_point(pts, tol, floats):
    try:
        outer, inner = convex_hull(pts[0]), convex_hull(pts[1])
    except DegenerateInput:
        return
    outer, inner = (p.to_float() if f else p for p, f in zip((outer, inner), floats))
    expected = _tolerant_contains_by_pairs(outer, inner.vertices, tol)
    assert contains_polygon(outer, inner, tol) == expected
    assert all(contains_point(outer, v, tol) for v in inner.vertices) == expected


def _tolerant_contains_by_pairs(outer, points, tol):
    """Tolerant containment as one test per (point, edge) pair.

    The reference for the library's one maximum per edge: a point fails an
    edge when it lies beyond it by more than ``tol * diam``, compared in
    squares when every coordinate is rational and in floats otherwise.
    """
    diam = outer.linf_diameter()
    exact = not any(isinstance(c, float) for c in (*outer.vertices[0], *points[0]))
    for q in points:
        for a, b in outer.edges():
            c = cross3(a, b, q)
            if c >= 0:
                continue
            if exact:
                if c * c > tol * tol * diam * diam * ((b.x - a.x) ** 2 + (b.y - a.y) ** 2):
                    return False
            elif -c > float(tol) * float(diam) * math.hypot(b.x - a.x, b.y - a.y):
                return False
    return True


# --- the integer image and the area a polygon keeps ---------------------------


@st.composite
def exact_polygons(draw):
    """An exact polygon from each construction that keeps an integer image.

    The constructor, :func:`convex_hull`, ``varignon`` and :func:`linf_ball`,
    each optionally through a pickle round trip, with the area read before
    pickling or not.
    """
    kind = draw(st.sampled_from(["constructor", "hull", "varignon", "ball"]))
    if kind == "ball":
        radius = draw(st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64))
        poly = linf_ball(draw(st.one_of(coord, st.tuples(wide, wide))), radius)
    else:
        pts = draw(st.lists(st.one_of(coord, st.tuples(wide, wide)), min_size=5, max_size=10))
        try:
            poly = convex_hull(pts)
        except DegenerateInput:
            assume(False)
        k = draw(st.integers(0, len(poly) - 1))
        if kind == "constructor":
            poly = ConvexPolygon(poly.vertices[k:] + poly.vertices[:k])
        elif kind == "varignon":
            assume(len(poly) >= 4)
            picks = sorted(draw(st.sets(st.integers(0, len(poly) - 1), min_size=4, max_size=4)))
            poly = varignon(Quadrilateral([poly.vertices[i] for i in picks]))
    if draw(st.booleans()):
        if draw(st.booleans()):
            poly.area
        poly = pickle.loads(pickle.dumps(poly))
    return poly


@settings(max_examples=150, deadline=None)
@given(
    exact_polygons(),
    exact_polygons(),
    st.fractions(min_value=F(1, 2), max_value=F(3, 2), max_denominator=1000),
)
def test_kept_images_and_areas_match_fraction_references(a, b, t):
    # a scaled about its vertex mean by t: inside a for t <= 1, at another
    # integer scale than a's.
    cx = sum(v.x for v in a.vertices) / len(a)
    cy = sum(v.y for v in a.vertices) / len(a)
    scaled = ConvexPolygon([(cx + t * (v.x - cx), cy + t * (v.y - cy)) for v in a.vertices])
    for poly in (a, b, scaled):
        expected = shoelace([(v.x, v.y) for v in poly.vertices])
        assert type(poly.area) is F
        assert poly.area == expected
        assert poly.area == expected  # the second read, from the kept value
    for outer, inner in ((a, b), (b, a), (a, a), (a, scaled), (scaled, a)):
        expected = _tolerant_contains_by_pairs(outer, inner.vertices, 0)
        assert contains_polygon(outer, inner, 0) == expected
        assert contains_polygon(outer, inner.vertices, 0) == expected


def test_containment_of_polygons_builds_no_image(monkeypatch):
    # At tol = 0 two polygons join their kept images; only a point sequence
    # needs one built.
    outer = ConvexPolygon([(F(-7, 3), -2), (2, F(-5, 2)), (F(9, 4), 3), (-2, 2)])
    inner = convex_hull([(F(1, 5), 0), (1, F(1, 7)), (0, 1), (F(1, 3), F(1, 3))])
    images = []
    real = geometry._int_image

    def counted(points):
        images.append(points)
        return real(points)

    monkeypatch.setattr(geometry, "_int_image", counted)
    assert contains_polygon(outer, inner, 0)
    assert not contains_polygon(inner, outer, 0)
    assert images == []
    assert contains_polygon(outer, inner.vertices, 0)
    assert len(images) == 1


# A valid float body whose 1e-84 edge rounding removes from its affine images.
FOUND_BODY = ConvexPolygon(
    [(-2.0, 0.0), (0.0, -1.0), (1.0, -1.0), (0.0, 0.0), (-2.0, 9.917260693413039e-85)]
)
AXES = [(-1, 0), (0, -1), (1, 0), (0, 1)]


def _scan_extreme(image, ux, uy):
    """Largest ``ux*x + uy*y`` over the image vertices and the set attaining it."""
    values = [ux * q.x + uy * q.y for q in image]
    top = max(values)
    return top, {q for q, v in zip(image, values) if v == top}


def _check_oracle(poly, m, directions):
    """Each query agrees with a linear scan over the mapped vertices."""
    oracle = Support(poly) if m is None else Support(poly).under(m)
    image = poly.vertices if m is None else [m.apply(v) for v in poly.vertices]
    for ux, uy in directions:
        if ux == 0 and uy == 0:
            continue
        got = oracle.extreme(ux, uy)
        assert set(got) <= set(image)
        assert _scan_extreme(got, ux, uy) == _scan_extreme(image, ux, uy)
    return oracle, image


def _edge_normals(points):
    n = len(points)
    return [
        (points[(i + 1) % n].y - points[i].y, points[i].x - points[(i + 1) % n].x)
        for i in range(n)
    ]


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
float_maps = st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 4, finite, finite).filter(
    lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 1e-3
)


@st.composite
def float_hulls(draw):
    """Hulls of 4-64 float points, some edges bent outward by a rounding-level bump."""
    pts = draw(st.lists(st.tuples(finite, finite), min_size=4, max_size=64))
    try:
        hull = convex_hull(pts)
    except DegenerateInput:
        return None
    vs = list(hull.vertices)
    for i, bump in draw(
        st.lists(st.tuples(st.integers(0, 63), st.sampled_from([1e-15, 1e-12, 1e-9])), max_size=4)
    ):
        a, b = vs[i % len(vs)], vs[(i + 1) % len(vs)]
        # A point just outside the edge's midpoint: a near-collinear corner.
        mid = midpoint(a, b)
        vs.insert(i % len(vs) + 1, Point(mid.x + bump * (b.y - a.y), mid.y - bump * (b.x - a.x)))
    try:
        return ConvexPolygon(vs)
    except DegenerateInput:
        return hull


@settings(max_examples=150, deadline=None)
@given(
    float_hulls(),
    st.none() | float_maps,
    st.lists(st.floats(0, 2 * math.pi), max_size=8),
    st.lists(st.tuples(finite, finite), min_size=1, max_size=4),
)
def test_support_extreme_matches_scan_on_floats(poly, m, angles, starts):
    """Same largest value and maximizers as a scan of the mapped vertices.

    The directions are the axes, random angles and the edge normals of the
    polygon and of its image, where near-collinear corners tie to rounding.
    A per-edge maximum of ``ey * (x - ax) - ex * (y - ay)`` over the answer
    is the one over every vertex, as the octagon gap and containment use it.
    """
    if poly is None:
        return
    m = None if m is None else AffineMap(*m)
    image = poly.vertices if m is None else [m.apply(v) for v in poly.vertices]
    directions = (
        AXES
        + [(math.cos(a), math.sin(a)) for a in angles]
        + _edge_normals(poly.vertices)
        + _edge_normals(image)
    )
    oracle, image = _check_oracle(poly, m, directions)
    for ax, ay in starts:
        for ux, uy in directions:
            ex, ey = -uy, ux  # the edge whose outward normal is u
            got = max(ey * (x - ax) - ex * (y - ay) for x, y in oracle.extreme(ux, uy))
            assert got == max(ey * (x - ax) - ex * (y - ay) for x, y in image)


exact_maps = st.tuples(*[rational] * 6).filter(lambda m: m[0] * m[3] != m[1] * m[2])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coord, min_size=4, max_size=24),
    st.none() | exact_maps,
    st.lists(coord, max_size=6),
)
def test_support_extreme_is_exact_on_fractions(pts, m, directions):
    try:
        poly = convex_hull(pts)
    except DegenerateInput:
        return
    m = None if m is None else AffineMap(*m)
    image = poly.vertices if m is None else [m.apply(v) for v in poly.vertices]
    _check_oracle(poly, m, AXES + directions + _edge_normals(poly.vertices) + _edge_normals(image))
    oracle = Support(poly) if m is None else Support(poly).under(m)
    # Exact ties are the two ends of an edge normal to the direction; a map
    # with det < 0 makes the image clockwise.
    ring = image if m is None or m.det > 0 else image[::-1]
    for ux, uy in _edge_normals(ring):
        assert len(oracle.extreme(ux, uy)) == 2


@pytest.mark.parametrize("k", range(3, 13))
@pytest.mark.parametrize("exact", [True, False])
def test_support_extreme_on_regular_polygons(k, exact):
    """Axis-parallel edges give two-vertex ties, which the query keeps."""
    poly = regular_polygon(k, exact=exact)
    rotate = AffineMap(0, -1, 1, 0, F(1, 3), -2)  # a quarter turn keeps the ties
    for m in (None, rotate, AffineMap(-1, 0, 0, 1, 0, 0)):
        _check_oracle(poly, m, AXES + _edge_normals(poly.vertices))
    # The first vertex lies at angle 0: an odd k has a vertical edge on the
    # left, and k = 2 mod 4 horizontal edges at the top and bottom.
    tied = [(-1, 0)] if k % 2 else [(0, 1), (0, -1)] if k % 4 == 2 else []
    if exact:
        assert all(len(Support(poly).extreme(*u)) == 2 for u in tied)


def test_support_extreme_on_a_rounded_away_edge():
    # The map sends FOUND_BODY's 1e-84 edge to one point (or two), tied.
    m = AffineMap(
        -1.333333333333333, -3.9999999999999982,
        1.3333333333333324, -1.776356839400249e-15,
        -2.3333333333333326, 0.3333333333333326,
    )
    image = [m.apply(v) for v in FOUND_BODY.vertices]
    _check_oracle(FOUND_BODY, m, AXES + _edge_normals(FOUND_BODY.vertices) + [(1.0, 1e-90)])
    oracle = Support(FOUND_BODY).under(m)
    left, bottom, right, top = (oracle.extreme(*u) for u in AXES)
    box = (min(p.x for p in left), min(p.y for p in bottom),
           max(p.x for p in right), max(p.y for p in top))
    assert box == apply_affine(m, FOUND_BODY).bounding_box()
    assert Point(*oracle.extreme(-1, 0)[0]) in image


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_support_image_copies_every_other_slot(exact):
    """An image shares each slot of its source but the map and what it sets."""
    body = regular_polygon(12, exact=exact)
    oracle = Support(body)
    m = AffineMap(2, 1, 0, 3, F(1, 2), -1)
    image = oracle.under(m)
    for name in Support.__slots__:
        if name not in ("affine", "_exact", "_bounds"):
            assert getattr(image, name) is getattr(oracle, name), name
    assert image.affine is m
    assert image._exact is exact
    assert image._bounds != oracle._bounds


@settings(max_examples=100, deadline=None)
@given(float_hulls(), float_maps, st.lists(st.tuples(finite, finite), min_size=3, max_size=8))
def test_support_reads_like_the_mapped_polygon(poly, m, pts):
    """Distances and containment read through the oracle equal the polygon's."""
    if poly is None:
        return
    m = AffineMap(*m)
    try:
        mapped = apply_affine(m, poly)
        other = convex_hull(pts)
    except DegenerateInput:
        return
    oracle = Support(poly).under(m)
    assert linf_distance_to_polygon(oracle, other) == linf_distance_to_polygon(mapped, other)
    for tol in (0, 1e-9, 0.1):
        assert contains_polygon(other, oracle, tol) == contains_polygon(other, mapped, tol)


@settings(max_examples=60, deadline=None)
@given(st.lists(coord, min_size=3, max_size=12), st.lists(coord, min_size=3, max_size=8), exact_maps)
def test_support_containment_is_exact(pts, outer, m):
    try:
        poly, outer = convex_hull(pts), convex_hull(outer)
    except DegenerateInput:
        return
    m = AffineMap(*m)
    oracle = Support(poly).under(m)
    mapped = apply_affine(m, poly)
    assert contains_polygon(outer, oracle) == contains_polygon(outer, mapped)
    assert linf_distance_to_polygon(oracle, outer) == linf_distance_to_polygon(mapped, outer)


@pytest.mark.parametrize("kind, n", [("pentagon", None), ("random", 8), ("ellipse", 64)])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_support_containment_queries_once_per_edge(kind, n, exact):
    """Containment of an oracle reads one query per edge of the outer polygon."""
    queries = []

    class Counted(Support):
        __slots__ = ()

        def extreme(self, ux, uy):
            queries.append((ux, uy))
            return super().extreme(ux, uy)

    body = gen_corpus(kind, 1, seed=11, vertices=n)[0]
    if exact:
        body = convex_hull([(F(x), F(y)) for x, y in body.vertices])
    cx = sum(v.x for v in body.vertices) / len(body)
    cy = sum(v.y for v in body.vertices) / len(body)
    outer = convex_hull([(2 * x - cx, 2 * y - cy) for x, y in body.vertices])
    for tol in (0, 1e-9):
        queries.clear()
        assert contains_polygon(outer, Counted(body), tol)
        assert len(queries) == len(outer)
