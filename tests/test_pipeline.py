"""Normalization, octagon construction, cut lemma, and the case machine."""

import math
import random
from contextlib import nullcontext
from fractions import Fraction as F

import pytest

from circumquad import (
    AreaIdentityViolated,
    BadParams,
    CaseId,
    ContactBox,
    ConvexPolygon,
    DomainError,
    HypothesisViolated,
    InconsistentCase,
    NormalizationViolated,
    Point,
    Quadrilateral,
    case_machine,
    contains_polygon,
    convex_hull,
    gen_corpus,
    inner_ball_inclusion,
    lemma_octagon_quad,
    min_circumscribed_quadrilateral,
    normalize_to_square,
    outer_ball_check,
    regular_polygon,
    zeta,
    zeta_bound,
)
from circumquad import minquad, pipeline
from circumquad.geometry import _AXES, AffineMap, Support
from circumquad.pipeline import (
    LemmaBranch,
    _classify_normalized,
    axis_box_with_contacts,
    build_octagon,
    reflection_normalize,
    unit_square,
)

from conftest import apply_affine


def box(a1, a2, b1, b2, v1y=F(0), v2x=F(0), w1y=F(0), w2x=F(0)):
    return ContactBox(
        a1=a1, a2=a2, b1=b1, b2=b2,
        v1=Point(a1, v1y), v2=Point(v2x, a2),
        w1=Point(b1, w1y), w2=Point(w2x, b2),
    )


def hull_with_square(contacts):
    return convex_hull(list(unit_square().vertices) + list(contacts.contacts))


class TestContactBox:
    def test_extents(self):
        cb = box(F(-3, 2), F(-5, 4), F(1), F(2))
        assert cb.x == F(5, 2)
        assert cb.y == F(13, 4)
        assert cb.box_area == F(65, 8)

    def test_structural_validation(self):
        with pytest.raises(DomainError):
            ContactBox(
                a1=F(0), a2=F(0), b1=F(-1), b2=F(1),
                v1=Point(F(0), F(0)), v2=Point(F(0), F(0)),
                w1=Point(F(-1), F(0)), w2=Point(F(0), F(1)),
            )
        with pytest.raises(DomainError):
            ContactBox(
                a1=F(-1), a2=F(-1), b1=F(1), b2=F(1),
                v1=Point(F(0), F(0)),  # not on the left edge
                v2=Point(F(0), F(-1)),
                w1=Point(F(1), F(0)), w2=Point(F(0), F(1)),
            )


class TestAxisBox:
    def test_contacts_found(self):
        body = ConvexPolygon(
            [(F(-6, 5), F(0)), (F(0), F(-7, 5)), (F(11, 10), F(0)), (F(0), F(6, 5))]
        )
        cb = axis_box_with_contacts(body)
        assert cb.a1 == F(-6, 5) and cb.b1 == F(11, 10)
        assert cb.v1 == Point(F(-6, 5), F(0))
        assert cb.w2 == Point(F(0), F(6, 5))

    def test_tie_break_minimizes_other_coordinate(self):
        # Two vertices share the maximal x; the one with smaller |y| wins.
        body = ConvexPolygon(
            [
                (F(-2), F(0)),
                (F(0), F(-2)),
                (F(1), F(-3, 4)),
                (F(1), F(1, 4)),
                (F(0), F(2)),
            ]
        )
        cb = axis_box_with_contacts(body)
        assert cb.w1 == Point(F(1), F(1, 4))

    def test_tie_break_prefers_negative_on_abs_tie(self):
        body = ConvexPolygon(
            [
                (F(-2), F(0)),
                (F(0), F(-2)),
                (F(1), F(-1, 2)),
                (F(1), F(1, 2)),
                (F(0), F(2)),
            ]
        )
        cb = axis_box_with_contacts(body)
        assert cb.w1 == Point(F(1), F(-1, 2))

    def test_box_must_cover_square(self):
        small = ConvexPolygon([(F(-1), F(-1)), (F(1), F(-1)), (F(0), F(1, 2))])
        with pytest.raises(NormalizationViolated):
            axis_box_with_contacts(small)


class TestBuildOctagon:
    def test_area_identity_exact(self):
        cb = box(
            F(-6, 5), F(-11, 10), F(7, 5), F(13, 10),
            v1y=F(1, 3), v2x=F(1, 7), w1y=F(-2, 5), w2x=F(3, 8),
        )
        body = hull_with_square(cb)
        scene = build_octagon(body, cb)
        assert scene.octagon_area == cb.x + cb.y
        assert contains_polygon(body, scene.octagon)

    def test_unit_square_is_built_once(self):
        assert unit_square() is unit_square(exact=True)
        assert unit_square(exact=False) is unit_square(exact=False)
        assert unit_square(exact=False).vertices == tuple(
            (float(v.x), float(v.y)) for v in unit_square().vertices
        )

    def test_contacts_on_square_edges_degenerate_to_square(self):
        cb = box(F(-1), F(-1), F(1), F(1))
        body = unit_square()
        scene = build_octagon(body, cb)
        assert scene.octagon_area == 4
        assert len(scene.octagon) == 4

    def test_identity_violation_detected(self):
        # Off-axis contact coordinate beyond the square breaks |O| = x + y.
        cb = box(F(-3, 2), F(-3, 2), F(3, 2), F(3, 2), v1y=F(5, 4))
        body = hull_with_square(cb)
        with pytest.raises(AreaIdentityViolated):
            build_octagon(body, cb)

    @pytest.mark.parametrize("kind, n", [("pentagon", None), ("random", 8), ("ellipse", 64)])
    def test_oracle_is_not_queried(self, kind, n):
        queries = []

        class Counted(Support):
            __slots__ = ()

            def extreme(self, ux, uy):
                queries.append((ux, uy))
                return super().extreme(ux, uy)

        body = gen_corpus(kind, 1, seed=11, vertices=n)[0].to_float()
        quad, _ = min_circumscribed_quadrilateral(body)
        oracle = Counted(apply_affine(normalize_to_square(quad), body))
        contacts = axis_box_with_contacts(oracle)
        queries.clear()
        scene = build_octagon(oracle, contacts)
        assert queries == []
        assert scene.octagon_area == pytest.approx(contacts.x + contacts.y, rel=1e-8)

    def test_octagon_escaping_body_detected(self):
        cb = box(F(-3, 2), F(-3, 2), F(3, 2), F(3, 2))
        slim = ConvexPolygon(
            [(F(-3, 2), F(0)), (F(0), F(-3, 2)), (F(3, 2), F(0)), (F(0), F(3, 2))]
        )
        with pytest.raises(NormalizationViolated):
            build_octagon(slim, cb)


class TestReflections:
    def test_normalization_makes_left_bottom_shallow(self):
        cb = box(F(-7, 4), F(-1), F(1), F(8, 5), w1y=F(1, 3))
        normed, flags = reflection_normalize(cb)
        assert flags == (True, False)
        assert -normed.a1 <= normed.b1
        assert -normed.a2 <= normed.b2
        # the deep left contact became the right contact, mirrored
        assert normed.w1 == Point(F(7, 4), F(0))
        assert normed.v1 == Point(F(-1), F(1, 3))

    def test_reflected_images_normalize_alike(self):
        cb = box(F(-7, 4), F(-6, 5), F(1), F(8, 5), v1y=F(-1, 3), w2x=F(2, 7))
        body = convex_hull(cb.contacts)
        mirrors = [
            convex_hull([(sx * x, sy * y) for x, y in body.vertices])
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        images = [axis_box_with_contacts(mirror) for mirror in mirrors]
        assert len(set(images)) == 4
        normed = {reflection_normalize(image)[0] for image in images}
        assert normed == {reflection_normalize(cb)[0]}


class TestLemma:
    C, D = F(3), F(1, 10)

    def base(self, w1y=F(0), w2x=F(0)):
        return box(F(-3, 2), F(-3, 2), F(3, 2), F(3, 2), w1y=w1y, w2x=w2x)

    def test_u_top_frozen(self):
        quad, branch = lemma_octagon_quad(self.base(w1y=F(-1, 2)), self.C, self.D)
        assert branch is LemmaBranch.U_TOP
        assert quad.area == F(35, 4)
        assert set(quad.vertices) == {
            Point(F(-3, 2), F(-3, 2)),
            Point(F(11, 6), F(-3, 2)),
            Point(F(1), F(3, 2)),
            Point(F(-3, 2), F(3, 2)),
        }

    def test_branch_selection(self):
        cases = [
            (F(-1, 2), F(0), LemmaBranch.U_TOP),
            (F(1, 2), F(0), LemmaBranch.U_BOTTOM),
            (F(0), F(-1, 2), LemmaBranch.U_RIGHT),
            (F(0), F(1, 2), LemmaBranch.U_LEFT),
            (F(0), F(0), LemmaBranch.MIDPOINT_CASE),
        ]
        for w1y, w2x, want in cases:
            quad, branch = lemma_octagon_quad(self.base(w1y, w2x), self.C, self.D)
            assert branch is want
            hull = hull_with_square(self.base(w1y, w2x))
            assert contains_polygon(quad, hull)

    def test_band_edges_go_to_midpoint_case(self):
        # w1_y exactly on the band boundary (inclusive band).
        lo = F(-3, 2) + (F(1, 2) - self.D) * self.C
        _, branch = lemma_octagon_quad(self.base(w1y=lo), self.C, self.D)
        assert branch is LemmaBranch.MIDPOINT_CASE

    def test_midpoint_case_frozen_corner(self):
        quad, branch = lemma_octagon_quad(self.base(), self.C, self.D)
        assert branch is LemmaBranch.MIDPOINT_CASE
        assert quad.area == zeta(self.C, self.D, F(-3, 2)) == F(5451, 580)
        assert Point(F(111, 58), F(201, 290)) in quad.vertices

    def test_area_never_exceeds_lemma_bound(self):
        corner_peak = self.C * (self.C * (1 + self.D) + 2 * self.D) / (1 + 2 * self.D)
        bound = max(corner_peak, zeta_bound(self.C, self.D))
        rng = random.Random(77)
        for _ in range(100):
            w1y = F(rng.randrange(-100, 101), 100)
            w2x = F(rng.randrange(-100, 101), 100)
            quad, _ = lemma_octagon_quad(self.base(w1y, w2x), self.C, self.D)
            assert quad.area <= bound

    def test_hypothesis_violations_are_named(self):
        bad = box(F(-3, 2), F(-3, 2), F(3, 2), F(3, 2), w1y=F(5, 4))
        with pytest.raises(HypothesisViolated, match="w1_y"):
            lemma_octagon_quad(bad, self.C, self.D)
        wide = box(F(-3, 2), F(-3, 2), F(2), F(3, 2))
        with pytest.raises(HypothesisViolated, match="b1 - a1"):
            lemma_octagon_quad(wide, self.C, self.D)
        unreflected = box(F(-3, 2), F(-3, 2), F(11, 10), F(3, 2))
        with pytest.raises(HypothesisViolated, match="-a1 <= b1"):
            lemma_octagon_quad(unreflected, self.C, self.D)
        shallow = box(F(-1, 2), F(-3, 2), F(3, 2), F(3, 2))
        with pytest.raises(HypothesisViolated, match="a1 <= -1"):
            lemma_octagon_quad(shallow, self.C, self.D)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            lemma_octagon_quad(self.base(), F(2), self.D)
        with pytest.raises(DomainError):
            lemma_octagon_quad(self.base(), self.C, F(1, 5))

    def test_tolerance_admits_slightly_violating_floats(self):
        cb = box(-1.5, -1.5, 1.5, 1.5 + 1e-12)
        quad, _ = lemma_octagon_quad(cb, 3.0, 0.1)
        assert quad.area == pytest.approx(float(F(5451, 580)), rel=1e-9)


def _miss(exact):
    """Number type and miss: Fractions off by 1e-30, or floats off by 1e-12."""
    return (F, F(1, 10**30)) if exact else (float, 1e-12)


def _expect(exact, error):
    return pytest.raises(error) if exact else nullcontext()


@pytest.mark.parametrize("exact", [False, True], ids=["float-passes", "exact-fails"])
class TestSlackFollowsNumberType:
    """No tolerance argument: float input gets ``FLOAT_SLACK``, exact input none."""

    def test_axis_box_with_contacts(self, exact):
        num, eps = _miss(exact)
        top = num(1) - eps
        body = ConvexPolygon([(-1, -1), (1, -1), (1, top), (-1, top)])
        with _expect(exact, NormalizationViolated):
            assert axis_box_with_contacts(body).b2 == top

    def test_build_octagon(self, exact):
        # The square's corner (1, 1) lies just outside the body.
        num, eps = _miss(exact)
        h, corner = num(3) / 2, num(1) - eps
        body = ConvexPolygon([
            (-1, -1), (0, -h), (1, -1), (h, 0),
            (corner, corner), (0, h), (-1, 1), (-h, 0),
        ])
        contacts = axis_box_with_contacts(body)
        with _expect(exact, NormalizationViolated):
            assert build_octagon(body, contacts).octagon_area == 6

    def test_lemma_octagon_quad(self, exact):
        num, eps = _miss(exact)
        h, z = num(3) / 2, num(0)
        cb = box(-h, -h, h, h + eps, z, z, z, z)
        with _expect(exact, HypothesisViolated):
            lemma_octagon_quad(cb, num(3), num(1) / 10)


class TestNormalization:
    def test_square_body_normalizes_to_diamond_frame(self):
        sq = ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        quad, _ = min_circumscribed_quadrilateral(sq)
        m = normalize_to_square(quad)
        # Normalized quadrilateral has area 8 (twice the unit square's 4).
        norm_quad_area = float(
            Quadrilateral(tuple(m.apply(v) for v in quad.vertices)).area
        )
        assert norm_quad_area == pytest.approx(8.0, rel=1e-9)
        cb = axis_box_with_contacts(Support(sq.to_float()).under(m))
        assert float(cb.x) == pytest.approx(4.0, rel=1e-9)
        assert float(cb.y) == pytest.approx(4.0, rel=1e-9)

    def test_exact_rational_normalization(self):
        # Kite with known midpoint parallelogram: exact arithmetic end to end.
        quad = Quadrilateral(
            (Point(F(3), F(0)), Point(F(0), F(2)), Point(F(-3), F(0)), Point(F(0), F(-2)))
        )
        body = ConvexPolygon(
            [(F(3), F(0)), (F(0), F(2)), (F(-3), F(0)), (F(0), F(-2))]
        )
        m = normalize_to_square(quad)
        assert apply_affine(m, body).is_exact
        norm_quad = Quadrilateral(tuple(m.apply(v) for v in quad.vertices))
        assert norm_quad.area == 8


class TestBalls:
    def test_outer_ball_kite(self):
        eps = F(1, 100)
        q = Quadrilateral(
            (
                Point(F(3, 2), F(-1) + eps),
                Point(F(1, 2), F(3) - eps),
                Point(F(-5, 2), F(-1) + eps),
                Point(F(1, 2), F(-1) - eps),
            )
        )
        assert outer_ball_check(q)
        far = Quadrilateral(
            (Point(F(4), F(0)), Point(F(0), F(1)), Point(F(-1), F(0)), Point(F(0), F(-1)))
        )
        assert not outer_ball_check(far)
        # The tripled square grows by the float slack only.
        cases = (
            (3 + 1e-9, True), (3 + 1e-8, False), (3 + 1e-7, False), (3 + F(1, 10**9), False)
        )
        for edge, inside in cases:
            kite = Quadrilateral(((edge, 0), (0, 1), (-1, 0), (0, -1)))
            assert outer_ball_check(kite) is inside

    def test_inner_ball_inclusion_exact(self):
        small, hull, ball = inner_ball_inclusion(Point(F(2), F(1)), F(2), F(1))
        assert contains_polygon(hull, small)
        assert contains_polygon(ball, small)

    def test_inner_ball_zero_radius(self):
        with pytest.raises(DomainError):
            inner_ball_inclusion(Point(F(2), F(1)), F(2), F(0))

    def test_inner_ball_domain(self):
        with pytest.raises(DomainError):
            inner_ball_inclusion(Point(F(3), F(0)), F(2), F(1))
        with pytest.raises(DomainError):
            inner_ball_inclusion(Point(F(1), F(0)), F(2), F(4))


# The octagon gap, pinned bit for bit on bodies that reach its rung.
PINNED_GAPS = {
    "regular-64": (lambda: regular_polygon(64), 0.09413429971616037),
    "ellipse-20-0": (
        lambda: gen_corpus("ellipse", 2, seed=20, vertices=64)[0],
        0.09413429971606992,
    ),
    "ellipse-20-1": (
        lambda: gen_corpus("ellipse", 2, seed=20, vertices=64)[1],
        0.09413429971607067,
    ),
}


class TestCaseMachine:
    def test_square_is_box_large(self):
        rep = case_machine(ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert rep.case_id is CaseId.BOX_LARGE
        assert rep.empirical_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.contacts.box_area == pytest.approx(16.0, rel=1e-6)
        assert rep.max_octagon_gap is None and rep.lemma_branch is None

    def test_triangle_case(self):
        tri = ConvexPolygon([(0, 0), (2, 0), (0.6, 1.7)])
        rep = case_machine(tri)
        assert rep.case_id is CaseId.DEGENERATE_TRIANGLE
        assert rep.certified_factor == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert rep.witness == tri
        assert len(rep.witness) == 3
        assert rep.empirical_ratio == 1.0
        assert rep.normalizing_map is None and rep.contacts is None
        with pytest.raises(BadParams):
            normalize_to_square(rep.witness)

    def test_nan_body_is_bad_params(self):
        with pytest.raises(BadParams):
            case_machine(ConvexPolygon([(0, 0), (1, 0), (0, math.nan)]))

    def test_body_beyond_float_range_is_bad_params(self):
        s = 10**400
        with pytest.raises(BadParams):
            case_machine(ConvexPolygon([(0, 0), (s, 0), (s, s), (0, s)]))

    # Numerically triangles, ratio 1: each body is its own least
    # quadrilateral, one of whose edges has collapsed into a corner, and the
    # solver returns the triangle of the other three edge lines.  From the
    # second body on, the turn at (1, 0) is below rounding: two of the 4
    # normals are equal or too close for a search to find any quadruple.
    @pytest.mark.parametrize(
        "corner",
        [
            (1.0, 5.7362190172743516e-68),
            (2.0, 5.7e-68),
            (2.0, 1e-30),
            (2.0, 1e-16),
            (2.0, 1e-14),
            (2.0, 1e-13),
        ],
    )
    def test_vanishing_edge_gets_a_report(self, corner):
        rep = case_machine(ConvexPolygon([(0.0, 0.0), (1.0, 0.0), corner, (0.0, 1.0)]))
        assert rep.case_id is CaseId.DEGENERATE_TRIANGLE
        assert len(rep.witness) == 3
        assert rep.empirical_ratio == pytest.approx(1.0, abs=1e-12)

    def test_edge_rounded_away_by_the_map_gets_a_report(self):
        # The map's image of the 1e-84 edge is not strictly convex, so a
        # normalized copy of the body used to raise DegenerateInput; the
        # ladder reads the body through its support oracle instead.
        body = ConvexPolygon(
            [(-2.0, 0.0), (0.0, -1.0), (1.0, -1.0), (0.0, 0.0), (-2.0, 9.917260693413039e-85)]
        )
        rep = case_machine(body)
        assert rep.case_id is CaseId.BOX_LARGE
        assert rep.empirical_ratio == 1.0000000000000007
        assert rep.contacts.box_area == pytest.approx(16.0, rel=1e-12)
        # The normalized copy drops the rounded-away vertex and agrees.
        m = normalize_to_square(rep.witness)
        assert m == rep.normalizing_map
        norm_body = apply_affine(m, body)
        assert len(norm_body) == 4
        assert axis_box_with_contacts(norm_body) == rep.contacts

    def test_one_oracle_per_solve_and_no_normalized_copy(self, monkeypatch):
        built = []

        class Counted(Support):
            def __init__(self, poly):
                built.append(poly)
                super().__init__(poly)

        monkeypatch.setattr(pipeline, "Support", Counted)
        monkeypatch.setattr(minquad, "Support", Counted)
        for body in (regular_polygon(64), gen_corpus("random", 1, seed=3, vertices=16)[0]):
            built.clear()
            case_machine(body)
            assert built == [body.to_float()]

    def test_ladder_reads_few_vertices_of_a_dense_body(self, monkeypatch):
        class Counted(tuple):
            reads = 0

            def __getitem__(self, i):
                Counted.reads += 1
                return tuple.__getitem__(self, i)

        queries = []
        extreme = Support.extreme

        def counted(self, ux, uy):
            queries.append((ux, uy))
            return extreme(self, ux, uy)

        body = gen_corpus("ellipse", 1, seed=1, vertices=1024)[0]
        rep = case_machine(body)
        assert rep.case_id is CaseId.BODY_EXCEEDS_OCTAGON
        oracle = Support(body)
        residuals = minquad.midpoint_certificate(body, rep.witness, oracle).midpoint_residuals
        oracle._vertices = Counted(oracle._vertices)
        monkeypatch.setattr(Support, "extreme", counted)
        again = _classify_normalized(
            oracle.under(rep.normalizing_map), rep.witness, rep.empirical_ratio,
            residuals,
        )
        assert again == rep
        # 4 box queries, whose axis extremes the gap reuses, and 8 gap
        # queries (the octagon's edge normals), about 3.5 vertices each, of 1024.
        assert len(queries) == 4 + 8
        assert all(queries.count(axis) == 1 for axis in _AXES)
        assert Counted.reads < 45

    def test_escaping_square_corner_is_detected(self):
        # The certificate's midpoint residuals stand in for the test that the
        # contact octagon lies in the body.
        rep = case_machine(regular_polygon(64))
        oracle = Support(regular_polygon(64).to_float()).under(rep.normalizing_map)
        args = (oracle, rep.witness, rep.empirical_ratio)
        assert _classify_normalized(*args, corner_residuals=(0.0,) * 4) == rep
        with pytest.raises(NormalizationViolated):
            _classify_normalized(*args, corner_residuals=(0.0, 0.0, 1e-6, 0.0))

    @pytest.mark.parametrize("name", sorted(PINNED_GAPS))
    def test_pinned_octagon_gaps(self, name):
        body, gap = PINNED_GAPS[name]
        rep = case_machine(body())
        assert rep.case_id is CaseId.BODY_EXCEEDS_OCTAGON
        assert rep.max_octagon_gap == gap

    def test_disk_exceeds_octagon(self):
        rep = case_machine(regular_polygon(64))
        assert rep.case_id is CaseId.BODY_EXCEEDS_OCTAGON
        assert rep.max_octagon_gap > 0.05
        assert rep.octagon_area == pytest.approx(rep.contacts.x + rep.contacts.y)
        assert rep.lemma_branch is None and rep.cut_quad_area is None

    def test_factor_below_theorem_margin(self):
        for body in (
            ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
            regular_polygon(16),
        ):
            rep = case_machine(body)
            assert rep.certified_factor <= 1 - 2.6e-7

    def test_report_has_witness_and_map(self):
        rep = case_machine(regular_polygon(7))
        assert isinstance(rep.witness, Quadrilateral)
        assert isinstance(rep.normalizing_map, AffineMap)

    @pytest.mark.parametrize("k", range(4, 40))
    def test_regular_polygons(self, k):
        # The only bodies known to reach the skewed-box rung.
        if k % 4 == 2 and k >= 10:
            expected = CaseId.BOX_SKEWED
        elif k in (8, 16, 24, 32):
            expected = CaseId.BODY_EXCEEDS_OCTAGON
        else:
            expected = CaseId.BOX_LARGE
        assert case_machine(regular_polygon(k)).case_id is expected

    def test_body_whose_float_image_is_a_triangle(self):
        # Rounding puts (2**60 + 1, 1) on the line through its neighbours.
        body = ConvexPolygon([(0, 0), (2**60 + 1, 1), (2**61, 2), (0, 2**61)])
        rep = case_machine(body)
        assert rep.case_id is CaseId.DEGENERATE_TRIANGLE
        assert len(rep.witness) == 3

    def test_body_with_a_vertex_lost_to_rounding(self):
        body = ConvexPolygon(
            [(0, 0), (2**60 + 1, 1), (2**61, 2), (2**60, 2**61), (0, 2**61)]
        )
        assert case_machine(body).case_id is CaseId.BOX_LARGE


class TestClassifier:
    """Drive the case ladder directly with synthetic normalized bodies."""

    def octagon_body(self, ax, ay, bx, by):
        cb = box(F(-ax), F(-ay), F(bx), F(by))
        return hull_with_square(cb).to_float()

    def classify(self, body):
        return _classify_normalized(
            Support(body), witness=body, empirical_ratio=1.0,
            corner_residuals=(0.0,) * 4,
        )

    def test_skewed_box_case(self):
        # x = 2.9, y = 2.7: box area 7.83 <= 8*c1 but x > c2 * y.
        body = self.octagon_body(F(29, 20), F(27, 20), F(29, 20), F(27, 20))
        rep = self.classify(body)
        assert rep.case_id is CaseId.BOX_SKEWED
        assert rep.certified_factor == pipeline._CASE_FACTOR
        assert (rep.contacts.x, rep.contacts.y) == pytest.approx((2.9, 2.7))
        assert rep.octagon_area is None and rep.max_octagon_gap is None

    def test_octagon_improved_case(self):
        s = F(1414, 1000)
        body = self.octagon_body(s, s, s, s)
        rep = self.classify(body)
        assert rep.case_id is CaseId.OCTAGON_IMPROVED
        assert rep.certified_factor == pipeline._CASE_FACTOR
        assert rep.lemma_branch is LemmaBranch.MIDPOINT_CASE
        assert rep.reflections == (False, False)
        assert rep.max_octagon_gap == 0.0
        assert (1 + pipeline._R) ** 2 * rep.cut_quad_area < 8

    def test_box_large_case(self):
        body = self.octagon_body(F(2), F(2), F(2), F(2))
        rep = self.classify(body)
        assert rep.case_id is CaseId.BOX_LARGE
        assert rep.certified_factor == pipeline._CASE_FACTOR
        assert rep.contacts.box_area == 16.0
        assert rep.lemma_branch is None

    def test_inconsistent_case_raises_with_bloated_cut(self, monkeypatch):
        # A legitimate hugging configuration but with c3 large enough that
        # the cut quadrilateral cannot beat area 8.
        s = F(1414, 1000)
        body = self.octagon_body(s, s, s, s)
        monkeypatch.setattr(pipeline, "_C3", 3.5)
        with pytest.raises(InconsistentCase):
            self.classify(body)

    @pytest.mark.parametrize("s", ["1.05", "1.1", "1.2", "1.3", "1.414"])
    def test_octagon_improved_body_solves_to_box_large(self, s):
        # The last rung's configurations, hull([-1, 1]^2 and four contacts
        # at sup-norm s), are not their own minima: solved from scratch,
        # each normalizes to a box of area above 8*c1.  s = 1.414 is
        # test_octagon_improved_case's body.
        s = F(s)
        rep = case_machine(self.octagon_body(s, s, s, s))
        assert rep.case_id is CaseId.BOX_LARGE
        if s == F(1414, 1000):
            assert rep.empirical_ratio == 1.2071067341872435
