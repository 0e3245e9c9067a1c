"""Seeded generators for convex test bodies.

Four families: hulls of uniform points in a disk, exact-rational regular
k-gons, affinely distorted inscribed ellipse polygons, and affine images of
the regular pentagon.  Every generator is deterministic in its seed, so
benchmark CSVs and test corpora are reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional

from .errors import BadParams, DegenerateInput, _as_int
from .geometry import AffineMap, ConvexPolygon, convex_hull

KINDS = ("random", "regular_k_gon", "ellipse", "affine_pentagon")

# Denominator for snapping trig values to rationals in regular_k_gon.
_SNAP = 10 ** 12


def _random_hull(rng: random.Random, n_points: int) -> ConvexPolygon:
    while True:
        pts = []
        while len(pts) < n_points:
            px, py = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if px * px + py * py <= 1:
                pts.append((px, py))
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            continue
        if len(hull) >= 4:
            return hull


def regular_polygon(k: int, exact: bool = True) -> ConvexPolygon:
    """Regular k-gon on the unit circle, first vertex at angle 0.

    With ``exact`` the trig values are snapped to rationals with denominator
    1e12, which keeps the cycle strictly convex for every supported k while
    staying on the exact arithmetic path.
    """
    k = _as_int(k, "k")
    if k < 3:
        raise BadParams("regular polygon needs k >= 3")
    if k > 4096:
        raise BadParams("k too large for the rational snap to stay convex")
    verts = []
    for i in range(k):
        a = 2 * math.pi * i / k
        x, y = math.cos(a), math.sin(a)
        if exact:
            verts.append(
                (
                    Fraction(round(x * _SNAP), _SNAP),
                    Fraction(round(y * _SNAP), _SNAP),
                )
            )
        else:
            verts.append((x, y))
    return ConvexPolygon(verts)


def _random_affine(rng: random.Random, poly: ConvexPolygon) -> ConvexPolygon:
    """The hull of ``poly``'s image under a random non-flat affine map."""
    while True:
        m = [rng.uniform(-2, 2) for _ in range(4)]
        if abs(m[0] * m[3] - m[1] * m[2]) >= 0.2:
            t = AffineMap(*m, rng.uniform(-3, 3), rng.uniform(-3, 3))
            return convex_hull([t.apply(v) for v in poly.vertices])


def _ellipse_polygon(rng: random.Random, m_sides: int) -> ConvexPolygon:
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.5, 3.0)
    phase = rng.uniform(0, 2 * math.pi)
    pts = [
        (
            a * math.cos(2 * math.pi * i / m_sides + phase),
            b * math.sin(2 * math.pi * i / m_sides + phase),
        )
        for i in range(m_sides)
    ]
    return _random_affine(rng, ConvexPolygon(pts))


def _affine_pentagon(rng: random.Random) -> ConvexPolygon:
    return _random_affine(rng, regular_polygon(5, exact=False))


def gen_corpus(
    kind: str,
    count: int,
    seed: int = 0,
    vertices: Optional[int] = None,
) -> List[ConvexPolygon]:
    """Generate ``count`` bodies of the given kind, deterministically.

    ``vertices`` is the per-body size parameter: points drawn for ``random``
    (default 32, at least 4, as a hull of fewer than 4 vertices is redrawn),
    k for ``regular_k_gon`` (default 7), sides for ``ellipse`` (default 64).
    An ``affine_pentagon`` always has 5 vertices, so any ``vertices`` but
    None raises BadParams for it.  ``pentagon`` is accepted as an alias of
    ``affine_pentagon``.
    """
    if kind == "pentagon":
        kind = "affine_pentagon"
    if kind not in KINDS:
        raise BadParams(f"unknown corpus kind {kind!r}; expected one of {KINDS}")
    if _as_int(count, "count") < 1:
        raise BadParams("count must be positive")
    if vertices is not None and kind == "affine_pentagon":
        raise BadParams("vertices must not be given for affine_pentagon")
    least = 4 if kind == "random" else 3
    if vertices is not None and _as_int(vertices, "vertices") < least:
        raise BadParams(f"vertices must be at least {least} for {kind}")
    # String seeds hash deterministically across processes (unlike tuples,
    # whose hash depends on PYTHONHASHSEED).
    rng = random.Random(f"{kind}:{seed}")
    out: List[ConvexPolygon] = []
    for _ in range(count):
        if kind == "random":
            out.append(_random_hull(rng, vertices or 32))
        elif kind == "regular_k_gon":
            out.append(regular_polygon(vertices or 7))
        elif kind == "ellipse":
            out.append(_ellipse_polygon(rng, vertices or 64))
        else:
            out.append(_affine_pentagon(rng))
    return out
