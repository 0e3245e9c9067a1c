"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` (or plain ``pytest``; the
verdict lines bypass capture either way).  Each test prints exactly one

    ACCEPTANCE <n> <label>: PASS|FAIL (<elapsed>s)

line and then asserts, so a red criterion is visible both in the stream and
in the pytest summary.  Tolerances and time budgets are part of the
contract and are pinned as literals here, not imported from the package.
"""

import math
import random
import time
from fractions import Fraction as F

from circumquad import (
    CaseId,
    ContactBox,
    InconsistentCase,
    Point,
    Quadrilateral,
    TheoremConstants,
    Verdict,
    brute_force_min_quad,
    certify_constants,
    contains_polygon,
    convex_hull,
    gen_corpus,
    inner_ball_inclusion,
    lemma_octagon_quad,
    min_circumscribed_quadrilateral,
    normalize_to_square,
    outer_ball_check,
    regular_polygon,
    varignon,
    zeta,
    zeta_bound,
    zeta_derivative,
    zeta_derivative_roots,
)
from circumquad.geometry import FLOAT_SLACK
from circumquad.pipeline import axis_box_with_contacts, build_octagon, unit_square
from circumquad.zeta import zeta_denominator

SEED = 20260814
IMPROVED = (1 - 2.6e-7) * math.sqrt(2)
FACTOR_CAP = 1 - 2.6e-7


def _report(capsys, num, label, problems, elapsed, budget):
    if elapsed >= budget:
        problems = problems + [f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget"]
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: {status} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(problems[:5])


def test_1_certified_constants(capsys):
    t0 = time.perf_counter()
    checks = certify_constants(TheoremConstants(), 128)
    elapsed = time.perf_counter() - t0
    problems = []
    if len(checks) != 8:
        problems.append(f"expected 8 comparisons, got {len(checks)}")
    for comp in checks:
        if comp.verdict is not Verdict.PROVEN:
            problems.append(f"{comp.claim}: {comp.verdict.value}")
    _report(capsys, 1, "constant certification at 128 bits", problems, elapsed, 1.0)


def _random_cut_params(rng):
    c = F(14, 5) + F(rng.randint(0, 52_000), 10_000)
    delta = F(rng.randint(0, 1_000), 10_000)
    return c, delta


def test_2_cut_area_algebra_exact(capsys):
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    problems = []
    for _ in range(1000):
        c, delta = _random_cut_params(rng)
        if zeta(c, delta, -c / 2) != zeta_bound(c, delta):
            problems.append(f"endpoint identity fails at c={c}, delta={delta}")
            break
    for _ in range(1000):
        c, delta = _random_cut_params(rng)
        t = -c / 2 + F(rng.randint(1, 60_000), 10_000)
        r1, r2 = zeta_derivative_roots(c, delta)
        den = zeta_denominator(c, delta, t)
        factored = -2 * c * (1 - 2 * delta) * 2 * (t - r1) * (t - r2) / (den * den)
        if zeta_derivative(c, delta, t) != factored:
            problems.append(f"factorization fails at c={c}, delta={delta}, t={t}")
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 2, "exact cut-area algebra on 1000 samples", problems, elapsed, 10.0)


def _random_lemma_config(rng):
    """Reflection-normalized rational contact configuration with random
    box extents in [2, c] and off-axis coordinates in [-1, 1]."""
    D = 1000
    c = F(3) + F(rng.randint(0, D), D)
    delta = F(rng.randint(0, D), 10 * D)
    a1 = -1 - F(rng.randint(0, int((c / 2 - 1) * D)), D)
    a2 = -1 - F(rng.randint(0, int((c / 2 - 1) * D)), D)
    b1 = -a1 + F(rng.randint(0, int((c + 2 * a1) * D)), D)
    b2 = -a2 + F(rng.randint(0, int((c + 2 * a2) * D)), D)
    off = lambda: F(rng.randint(-D, D), D)
    contacts = ContactBox(
        a1=a1, a2=a2, b1=b1, b2=b2,
        v1=Point(a1, off()), v2=Point(off(), a2),
        w1=Point(b1, off()), w2=Point(off(), b2),
    )
    return contacts, c, delta


def test_3_covering_lemma_exact(capsys):
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    problems = []
    square = unit_square(exact=True)
    for i in range(1000):
        contacts, c, delta = _random_lemma_config(rng)
        quad, branch = lemma_octagon_quad(contacts, c, delta)
        hull = convex_hull(list(square.vertices) + list(contacts.contacts))
        if not contains_polygon(quad, hull, 0):
            problems.append(f"containment fails at sample {i} ({branch.value})")
            break
        if branch.value in ("u-top", "u-bottom"):
            closed = c * (c + 2 * delta * (1 - contacts.a1)) / (1 + 2 * delta)
        elif branch.value in ("u-right", "u-left"):
            closed = c * (c + 2 * delta * (1 - contacts.a2)) / (1 + 2 * delta)
        else:
            closed = zeta(c, delta, contacts.a1)
        if quad.area != closed:
            problems.append(f"closed-form area fails at sample {i} ({branch.value})")
            break
        peak = c * (c * (1 + delta) + 2 * delta) / (1 + 2 * delta)
        if quad.area > max(peak, zeta_bound(c, delta)):
            problems.append(f"max-bound fails at sample {i} ({branch.value})")
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, "covering lemma on 1000 exact configurations", problems, elapsed, 30.0)


def _random_rational_quad(rng):
    from circumquad import DegenerateInput

    while True:
        pts = [
            (F(rng.randint(-500, 500), 100), F(rng.randint(-500, 500), 100))
            for _ in range(4)
        ]
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            continue
        if len(hull) == 4:
            return Quadrilateral(hull.vertices)


def test_4_midpoint_and_octagon_identities(capsys):
    rng = random.Random(SEED + 2)
    t0 = time.perf_counter()
    problems = []
    for i in range(10_000):
        quad = _random_rational_quad(rng)
        if quad.area != 2 * varignon(quad).area:
            problems.append(f"midpoint parallelogram identity fails at quad {i}")
            break
    square = unit_square(exact=True)
    for i in range(1000):
        # Depths <= 0.7 with off-axis coordinates in [-1/4, 1/4] keep every
        # square corner on the hull (the segment between two adjacent
        # contacts cannot pass outside a corner), which is exactly the
        # regime genuine normalized bodies live in.
        D = 1000
        ext = lambda: 1 + F(rng.randint(0, 700), D)
        off = lambda: F(rng.randint(-250, 250), D)
        a1, a2, b1, b2 = -ext(), -ext(), ext(), ext()
        planted = [
            Point(a1, off()), Point(off(), a2), Point(b1, off()), Point(off(), b2)
        ]
        body = convex_hull(list(square.vertices) + planted)
        box = axis_box_with_contacts(body)
        scene = build_octagon(body, box)
        if scene.octagon_area != box.x + box.y:
            problems.append(f"octagon area identity fails at scene {i}")
            break
        if scene.octagon.area != scene.octagon_area:
            problems.append(f"octagon shoelace disagrees at scene {i}")
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, "exact area identities (10000 quads, 1000 scenes)", problems, elapsed, 30.0)


def test_5_solver_reference_ratios(capsys):
    t0 = time.perf_counter()
    problems = []

    def ratio_of(body):
        quad, cert = min_circumscribed_quadrilateral(body)
        return cert.area_ratio

    pent = ratio_of(regular_polygon(5))
    target = 3 / math.sqrt(5)
    if abs(pent - target) > 1e-5:
        problems.append(f"pentagon ratio {pent!r} vs {target!r}")
    skewed = gen_corpus("affine_pentagon", 1, seed=SEED)[0]
    pent2 = ratio_of(skewed)
    if abs(pent2 - target) > 1e-5:
        problems.append(f"affine pentagon ratio {pent2!r} vs {target!r}")
    disk = ratio_of(regular_polygon(256))
    if abs(disk - 4 / math.pi) > 1e-3:
        problems.append(f"256-gon ratio {disk!r} vs {4 / math.pi!r}")
    square_ratio = ratio_of(regular_polygon(4))
    if abs(square_ratio - 1.0) > FLOAT_SLACK:
        problems.append(f"square ratio {square_ratio!r} vs 1")
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "solver reference ratios", problems, elapsed, 60.0)


def test_6_improved_bound_on_corpus(capsys, corpus_reports, corpus_timings):
    t0 = time.perf_counter()
    problems = []
    worst = 0.0
    for i, (body, report) in enumerate(corpus_reports):
        if isinstance(report, InconsistentCase):
            problems.append(f"inconsistent-case fired on body {i}")
            break
        if isinstance(report, Exception):
            problems.append(f"body {i} raised {type(report).__name__}: {report}")
            break
        worst = max(worst, report.empirical_ratio)
        if not report.empirical_ratio < IMPROVED + 1e-6:
            problems.append(
                f"body {i} ratio {report.empirical_ratio!r} >= improved bound"
            )
            break
        if not report.certified_factor <= FACTOR_CAP:
            problems.append(
                f"body {i} certified factor {report.certified_factor!r} too large"
            )
            break
    # The corpus solve happens in fixture setup; charge it to this criterion.
    elapsed = (
        time.perf_counter() - t0
        + corpus_timings.get("generate", 0.0)
        + corpus_timings.get("classify", 0.0)
    )
    with capsys.disabled():
        print(f"ACCEPTANCE 6 note: worst corpus ratio = {worst:.9f}")
    _report(capsys, 6, "improved bound on 1000-body corpus", problems, elapsed, 600.0)


def test_7_solver_matches_exhaustive_oracle(capsys, corpus_reports):
    t0 = time.perf_counter()
    problems = []
    # 25 bodies from each random-hull size batch (batches of 150).
    picks = [i + 150 * b for b in range(4) for i in range(25)]
    for i in picks:
        body, report = corpus_reports[i]
        if isinstance(report, Exception):
            problems.append(f"body {i} raised {type(report).__name__}")
            break
        oracle = brute_force_min_quad(body, grid=180)
        slack = 1e-6 * float(abs(body.area))
        if not float(report.witness.area) <= float(oracle.area) + slack:
            problems.append(
                f"body {i}: solver {float(report.witness.area)!r} "
                f"> oracle {float(oracle.area)!r} + {slack!r}"
            )
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, "solver vs exhaustive oracle on 100 bodies", problems, elapsed, 600.0)


def test_8_normalized_envelope_and_inner_ball(capsys, corpus_reports):
    t0 = time.perf_counter()
    problems = []
    for i, (body, report) in enumerate(corpus_reports):
        if isinstance(report, Exception) or report.case_id is CaseId.DEGENERATE_TRIANGLE:
            continue
        m = normalize_to_square(report.witness)
        if not outer_ball_check(Quadrilateral(m.apply(v) for v in report.witness.vertices)):
            problems.append(f"body {i}: normalized witness escapes 3*[-1,1]^2")
            break
    rng = random.Random(SEED + 3)
    for i in range(1000):
        D = 1000
        R = F(rng.randint(1, 4 * D), D)
        v = Point(
            F(rng.randint(-int(R * D), int(R * D)), D),
            F(rng.randint(-int(R * D), int(R * D)), D),
        )
        r = F(rng.randint(1, int((R + 1) * D)), D)
        small, hull, ball = inner_ball_inclusion(v, R, r)
        if not contains_polygon(hull, small, 0):
            problems.append(f"hull inclusion fails at sample {i}")
            break
        if not contains_polygon(ball, small, 0):
            problems.append(f"ball inclusion fails at sample {i}")
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, "normalized envelope and shrunken-ball inclusion", problems, elapsed, 120.0)
