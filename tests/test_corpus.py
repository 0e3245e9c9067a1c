import math
from fractions import Fraction as F

import numpy as np
import pytest

from circumquad import (
    BadParams,
    brute_force_min_quad,
    gen_corpus,
    min_circumscribed_quadrilateral,
    regular_polygon,
)
from circumquad.corpus import KINDS


def test_kinds_listing():
    assert KINDS == ("random", "regular_k_gon", "ellipse", "affine_pentagon")


def test_same_seed_same_bodies():
    for kind in KINDS:
        a = gen_corpus(kind, 5, seed=7)
        b = gen_corpus(kind, 5, seed=7)
        assert [p.vertices for p in a] == [p.vertices for p in b]


def test_different_seeds_differ():
    a = gen_corpus("random", 3, seed=1)
    b = gen_corpus("random", 3, seed=2)
    assert [p.vertices for p in a] != [p.vertices for p in b]


def test_pentagon_alias():
    a = gen_corpus("pentagon", 2, seed=3)
    b = gen_corpus("affine_pentagon", 2, seed=3)
    assert [p.vertices for p in a] == [p.vertices for p in b]


def test_regular_square_is_exact():
    sq = regular_polygon(4)
    assert sq.is_exact
    assert set(sq.vertices) == {(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))}
    assert sq.area == F(2)


def test_regular_polygon_convex_for_large_k():
    # The rational snap must not flip any turn even at the cap.
    poly = regular_polygon(4096)
    assert len(poly) == 4096
    assert poly.is_exact


def test_regular_polygon_inexact_mode():
    poly = regular_polygon(6, exact=False)
    assert not poly.is_exact
    assert poly.area == pytest.approx(3 * math.sqrt(3) / 2, rel=1e-12)


def test_bad_params():
    with pytest.raises(BadParams):
        gen_corpus("hexagons", 1)
    with pytest.raises(BadParams):
        gen_corpus("random", 0)
    with pytest.raises(BadParams):
        gen_corpus("random", 1, vertices=2)
    # Three points never make the 4-vertex hull the generator redraws for.
    with pytest.raises(BadParams, match="vertices must be at least 4"):
        gen_corpus("random", 1, vertices=3)
    # An affine pentagon always has 5 vertices; a size parameter is an error.
    for kind in ("affine_pentagon", "pentagon"):
        for n in (2, 5, 99):
            with pytest.raises(BadParams, match="vertices"):
                gen_corpus(kind, 1, vertices=n)
    with pytest.raises(BadParams):
        regular_polygon(2)
    with pytest.raises(BadParams):
        regular_polygon(5000)


def test_random_bodies_have_enough_vertices():
    for body in gen_corpus("random", 20, seed=11, vertices=16):
        assert 4 <= len(body) <= 16
        assert body.area > 0


def test_vertex_parameter_respected():
    for body in gen_corpus("regular_k_gon", 3, vertices=9):
        assert len(body) == 9
    for body in gen_corpus("ellipse", 3, seed=5, vertices=24):
        assert len(body) <= 24


def test_affine_pentagon_ratio_is_affine_invariant():
    # The min-quad ratio of any affine pentagon image equals the regular
    # pentagon's 3/sqrt(5), a sharp discriminator for generator bugs.
    for body in gen_corpus("affine_pentagon", 5, seed=9):
        quad, _ = min_circumscribed_quadrilateral(body)
        ratio = quad.area / body.area
        assert ratio == pytest.approx(3 / math.sqrt(5), abs=1e-5)


_BODY = regular_polygon(6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: brute_force_min_quad(_BODY, grid=90.5),
        lambda: brute_force_min_quad(_BODY, grid="90"),
        lambda: gen_corpus("random", 2.5),
        lambda: gen_corpus("ellipse", 1, vertices=8.5),
        lambda: regular_polygon(5.5),
        lambda: regular_polygon("5"),
    ],
    ids=["grid-float", "grid-str", "count-float", "vertices-float", "k-float", "k-str"],
)
def test_integer_size_parameters_reject_non_integers(call):
    with pytest.raises(BadParams, match="must be an integer"):
        call()


def test_integer_size_parameters_accept_numpy_ints():
    bodies = gen_corpus("ellipse", np.int64(2), seed=1, vertices=np.int32(8))
    assert [len(b) for b in bodies] == [8, 8]
    assert len(regular_polygon(np.int64(7))) == 7
    assert len(brute_force_min_quad(_BODY, grid=np.int16(32))) == 4
