"""Proof rounds for the ``exact-proof`` workload.

A round certifies the theorem constants at 128 bits and re-checks a fixed
number of seeded exact-rational identities in the style of acceptance
criteria 2, 3, 4 and 8.  Only ``Fraction`` arithmetic runs: numpy and the
float solver are not touched.  Samples are drawn in set-up; the round itself
is the timed op.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import List, Tuple

from circumquad import constants, geometry, intervals, minquad, pipeline
from circumquad.errors import DegenerateInput

# The package re-exports the function ``zeta`` under the module's name.
cut = importlib.import_module("circumquad.zeta")

# Samples of each kind in one round.  Together with the constant
# certification they make a round of 15-30 ms on a 2-core Xeon VM.
ENDPOINT_SAMPLES = 4
FACTOR_SAMPLES = 4
LEMMA_SAMPLES = 4
VARIGNON_SAMPLES = 16
OCTAGON_SAMPLES = 4
BALL_SAMPLES = 4


@dataclass(frozen=True)
class ProofRound:
    endpoint: Tuple  # (c, delta)
    factor: Tuple  # (c, delta, t)
    lemma: Tuple  # (ContactBox, c, delta)
    quads: Tuple  # rational Quadrilaterals
    octagon_bodies: Tuple  # exact bodies with planted box contacts
    balls: Tuple  # (v, R, r)


@dataclass(frozen=True)
class RoundOutcome:
    problems: Tuple[str, ...]
    ratios: Tuple[float, ...]  # |lemma quadrilateral| / its closed-form area bound


def _cut_params(rng):
    c = F(14, 5) + F(rng.randint(0, 52_000), 10_000)
    delta = F(rng.randint(0, 1_000), 10_000)
    return c, delta


def _lemma_config(rng):
    """Reflection-normalized contacts with box extents in [2, c]."""
    D = 1000
    c = F(3) + F(rng.randint(0, D), D)
    delta = F(rng.randint(0, D), 10 * D)
    a1 = -1 - F(rng.randint(0, int((c / 2 - 1) * D)), D)
    a2 = -1 - F(rng.randint(0, int((c / 2 - 1) * D)), D)
    b1 = -a1 + F(rng.randint(0, int((c + 2 * a1) * D)), D)
    b2 = -a2 + F(rng.randint(0, int((c + 2 * a2) * D)), D)

    def off():
        return F(rng.randint(-D, D), D)

    contacts = pipeline.ContactBox(
        a1=a1, a2=a2, b1=b1, b2=b2,
        v1=geometry.Point(a1, off()), v2=geometry.Point(off(), a2),
        w1=geometry.Point(b1, off()), w2=geometry.Point(off(), b2),
    )
    return contacts, c, delta


def _rational_quad(rng):
    while True:
        pts = [
            (F(rng.randint(-500, 500), 100), F(rng.randint(-500, 500), 100))
            for _ in range(4)
        ]
        try:
            hull = geometry.convex_hull(pts)
        except DegenerateInput:
            continue
        if len(hull) == 4:
            return minquad.Quadrilateral(hull.vertices)


def _octagon_body(rng, square):
    # Depths <= 0.7 and off-axis coordinates in [-1/4, 1/4] keep every square
    # corner on the hull, the regime of genuine normalized bodies.
    D = 1000

    def ext():
        return 1 + F(rng.randint(0, 700), D)

    def off():
        return F(rng.randint(-250, 250), D)

    a1, a2, b1, b2 = -ext(), -ext(), ext(), ext()
    planted = [(a1, off()), (off(), a2), (b1, off()), (off(), b2)]
    return geometry.convex_hull(list(square.vertices) + planted)


def _ball_sample(rng):
    D = 1000
    R = F(rng.randint(1, 4 * D), D)
    v = geometry.Point(
        F(rng.randint(-int(R * D), int(R * D)), D),
        F(rng.randint(-int(R * D), int(R * D)), D),
    )
    r = F(rng.randint(1, int((R + 1) * D)), D)
    return v, R, r


def make_rounds(rng: random.Random, count: int) -> List[ProofRound]:
    square = pipeline.unit_square(exact=True)
    rounds = []
    for _ in range(count):
        endpoint = tuple(_cut_params(rng) for _ in range(ENDPOINT_SAMPLES))
        factor = []
        for _ in range(FACTOR_SAMPLES):
            c, delta = _cut_params(rng)
            factor.append((c, delta, -c / 2 + F(rng.randint(1, 60_000), 10_000)))
        rounds.append(ProofRound(
            endpoint=endpoint,
            factor=tuple(factor),
            lemma=tuple(_lemma_config(rng) for _ in range(LEMMA_SAMPLES)),
            quads=tuple(_rational_quad(rng) for _ in range(VARIGNON_SAMPLES)),
            octagon_bodies=tuple(
                _octagon_body(rng, square) for _ in range(OCTAGON_SAMPLES)
            ),
            balls=tuple(_ball_sample(rng) for _ in range(BALL_SAMPLES)),
        ))
    return rounds


def run_round(rnd: ProofRound, span) -> RoundOutcome:
    """Run one proof round; ``span(name)`` brackets each family of checks."""
    problems: List[str] = []
    ratios: List[float] = []

    with span("constants.certify"):
        checks = constants.certify_constants(constants.TheoremConstants(), 128)
    unproven = [c.claim for c in checks if c.verdict is not intervals.Verdict.PROVEN]
    if len(checks) != 8 or unproven:
        problems.append(f"constants: {len(checks)} checks, unproven {unproven}")

    with span("zeta.check"):
        for c, delta in rnd.endpoint:
            if cut.zeta(c, delta, -c / 2) != cut.zeta_bound(c, delta):
                problems.append(f"zeta endpoint identity fails at c={c}, delta={delta}")
        for c, delta, t in rnd.factor:
            r1, r2 = cut.zeta_derivative_roots(c, delta)
            den = cut.zeta_denominator(c, delta, t)
            factored = -2 * c * (1 - 2 * delta) * 2 * (t - r1) * (t - r2) / (den * den)
            if cut.zeta_derivative(c, delta, t) != factored:
                problems.append(f"zeta factorization fails at c={c}, delta={delta}, t={t}")

    square = pipeline.unit_square(exact=True)
    with span("pipeline.lemma_check"):
        for contacts, c, delta in rnd.lemma:
            quad, branch = pipeline.lemma_octagon_quad(contacts, c, delta)
            hull = geometry.convex_hull(list(square.vertices) + list(contacts.contacts))
            if not geometry.contains_polygon(quad, hull, 0):
                problems.append(f"lemma quadrilateral misses the octagon ({branch.value})")
            if branch.value in ("u-top", "u-bottom"):
                closed = c * (c + 2 * delta * (1 - contacts.a1)) / (1 + 2 * delta)
            elif branch.value in ("u-right", "u-left"):
                closed = c * (c + 2 * delta * (1 - contacts.a2)) / (1 + 2 * delta)
            else:
                closed = cut.zeta(c, delta, contacts.a1)
            if quad.area != closed:
                problems.append(f"lemma closed-form area fails ({branch.value})")
            peak = c * (c * (1 + delta) + 2 * delta) / (1 + 2 * delta)
            bound = max(peak, cut.zeta_bound(c, delta))
            if quad.area > bound:
                problems.append(f"lemma area exceeds its peak bound ({branch.value})")
            ratios.append(float(quad.area / bound))

    with span("minquad.varignon_check"):
        for quad in rnd.quads:
            if quad.area != 2 * minquad.varignon(quad).area:
                problems.append("midpoint parallelogram is not half the quadrilateral")

    with span("pipeline.octagon_check"):
        for body in rnd.octagon_bodies:
            box = pipeline.axis_box_with_contacts(body)
            scene = pipeline.build_octagon(body, box)
            if scene.octagon_area != box.x + box.y:
                problems.append("octagon area differs from the box half-perimeter")
            if scene.octagon.area != scene.octagon_area:
                problems.append("octagon shoelace area disagrees")

    with span("pipeline.inner_ball_check"):
        for v, R, r in rnd.balls:
            small, hull, ball = pipeline.inner_ball_inclusion(v, R, r)
            if not geometry.contains_polygon(hull, small, 0):
                problems.append(f"shrunken ball escapes the hull at v={v}")
            if not geometry.contains_polygon(ball, small, 0):
                problems.append(f"shrunken ball escapes the ball at v={v}")

    return RoundOutcome(tuple(problems), tuple(ratios))
