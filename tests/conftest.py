"""Shared fixtures: the seeded 1000-body corpus and its case reports.

Both are session-scoped because the corpus solve is the expensive part of
the suite; acceptance criteria that need per-body results share one pass.
Build durations are recorded in ``corpus_timings`` so the acceptance
criterion that owns the corpus evaluation can count them against its
runtime budget even though the work runs inside fixture setup.

:func:`apply_affine`, the polygon of a body's mapped vertices, is the
reference that the support oracle's images are checked against.
"""

import time

import pytest

from circumquad import (
    ConvexPolygon,
    DegenerateInput,
    SingularMap,
    case_machine,
    convex_hull,
    gen_corpus,
)

CORPUS_SEED = 20260814


def build_corpus(base=CORPUS_SEED):
    """600 random hulls (batches of 8/16/32/64 points), 200 ellipse
    polygons, 200 affine pentagons; deterministic.  Base seed 777001 gives
    the held-out corpus."""
    bodies = []
    for i, n in enumerate((8, 16, 32, 64)):
        bodies += gen_corpus("random", 150, seed=base + i, vertices=n)
    bodies += gen_corpus("ellipse", 200, seed=base + 10, vertices=64)
    bodies += gen_corpus("affine_pentagon", 200, seed=base + 11)
    return bodies


@pytest.fixture(scope="session")
def corpus_timings():
    return {}


@pytest.fixture(scope="session")
def corpus1000(corpus_timings):
    t0 = time.perf_counter()
    bodies = build_corpus()
    corpus_timings["generate"] = time.perf_counter() - t0
    assert len(bodies) == 1000
    return bodies


@pytest.fixture(scope="session")
def corpus_reports(corpus1000, corpus_timings):
    """(body, CaseReport) for the full corpus, or the raised exception."""
    t0 = time.perf_counter()
    out = []
    for body in corpus1000:
        try:
            out.append((body, case_machine(body)))
        except Exception as exc:  # noqa: BLE001 - recorded for the criterion
            out.append((body, exc))
    corpus_timings["classify"] = time.perf_counter() - t0
    return out


def apply_affine(t, poly):
    """The image of ``poly`` under the :class:`AffineMap` ``t``, counterclockwise.

    Exact input maps exactly.  A float vertex that rounding moves onto or
    inside the line through its neighbours is dropped, as in
    :meth:`ConvexPolygon.to_float`; DegenerateInput when the image is flat.
    """
    d = t.det
    if d == 0:
        raise SingularMap("cannot apply a singular map to a polygon")
    imgs = [t.apply(v) for v in poly.vertices]
    if d < 0:
        imgs.reverse()
    try:
        return ConvexPolygon(imgs)
    except DegenerateInput:
        return convex_hull(imgs)
