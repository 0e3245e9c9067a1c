"""Benchmark workloads: inputs from a seed, the timed op, and checks.

``solve-mixed`` and ``exact-proof`` are the workloads BENCHMARK.json gates;
``solve-dense`` and ``oracle-180`` run the same way for manual comparisons.

Every call into the library goes through a module attribute
(``pipeline.case_machine``, ``minquad.brute_force_min_quad``), so the traced
run can wrap it where it is looked up.  The library only ever receives the
generated bodies or samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, List, Optional

from circumquad import corpus, geometry, minquad, pipeline

import proof

IMPROVED = (1 - 2.6e-7) * math.sqrt(2)  # the theorem's bound on |Q| / |K|
FACTOR_CAP = 1 - 2.6e-7  # largest certified factor the theorem allows
ORACLE_SLACK = 1e-6  # acceptance 7: solver area <= oracle area + 1e-6 |K|
CONTAIN_TOL = 1e-9  # the solver's default relative tolerance

# Acceptance-corpus families in their proportions (150:150:150:150:200:200).
# A 55 s run makes about five passes over these 100 bodies.
MIXED_FAMILIES = (
    ("random", 8, 15),
    ("random", 16, 15),
    ("random", 32, 15),
    ("random", 64, 15),
    ("ellipse", 64, 20),
    ("affine_pentagon", None, 20),
)
# Two rational 512-gons per ellipse 1024-gon.  The two families take distinct
# times, and an even split would put the median op between the two modes.
DENSE_ELLIPSES = 8
DENSE_POLYGONS = 16
ORACLE_EACH = 2  # random hulls of 8, 16, 32 and 64 points, each
PROOF_ROUNDS = 100


@dataclass
class Checked:
    """What the checks found for one distinct input."""

    problems: List[str] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)  # |Q| / |K| of returned quads
    case: Optional[str] = None
    vertices: List[int] = field(default_factory=list)  # of the bodies fed in
    exact_miss: int = 0  # witnesses that fail exact containment
    oracle_gap: Optional[float] = None  # (solver - oracle) / |K|
    report: Any = None  # the solver's CaseReport, when one ran


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]  # seed -> distinct inputs
    warmup: Callable[[int], list]  # seed -> untimed warm-up inputs
    op: Callable[[Any, Any], Any]  # (input, span factory) -> output
    check: Callable[[Any, Any], Checked]
    fingerprint: Callable[[Any], Any]  # equal on repeated ops of one input
    peak_inputs: int  # leading inputs the tracemalloc pass runs
    bodies: bool  # inputs are bodies, so the grid-90 scan applies


def interleave(groups):
    """Merge lists so that every prefix keeps their proportions."""
    keyed = [
        ((i + 0.5) / len(group), j, item)
        for j, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    keyed.sort(key=lambda t: t[:2])
    return [item for _, _, item in keyed]


def _exact(v):
    return Fraction(v.x), Fraction(v.y)


def check_report(body, report) -> Checked:
    """Checks on one ``case_machine`` answer, plus the exact-containment count."""
    out = Checked(case=report.case_id.value, vertices=[len(body.vertices)], report=report)
    ratio = report.empirical_ratio
    if not ratio < IMPROVED:
        out.problems.append(f"ratio {ratio!r} is not below the improved bound")
    if not report.certified_factor <= FACTOR_CAP:
        out.problems.append(f"certified factor {report.certified_factor!r} too large")
    witness_ratio = float(report.witness.area) / float(body.area)
    if abs(witness_ratio - ratio) > 1e-9 * ratio:
        out.problems.append(f"ratio {ratio!r} differs from the witness's {witness_ratio!r}")
    if not _contains_float(report.witness, body):
        out.problems.append("witness does not contain the body")
    exact = geometry.convex_hull([_exact(v) for v in report.witness.vertices])
    if not all(geometry.contains_point(exact, _exact(v), 0) for v in body.vertices):
        out.exact_miss = 1
    out.ratios.append(ratio)
    return out


def _contains_float(quad, body) -> bool:
    poly = geometry.convex_hull([(float(v.x), float(v.y)) for v in quad.vertices])
    return all(
        geometry.contains_point(poly, (float(v.x), float(v.y)), CONTAIN_TOL)
        for v in body.vertices
    )


def _solve(body, span):
    return pipeline.case_machine(body)


def _report_fingerprint(report):
    return report.case_id, report.witness.vertices


# --- solve-mixed ------------------------------------------------------------


def _mixed(seed: int, offset: int, count_of) -> list:
    return interleave([
        corpus.gen_corpus(kind, count_of(count), seed=seed * 16 + offset + j, vertices=n)
        for j, (kind, n, count) in enumerate(MIXED_FAMILIES)
    ])


SOLVE_MIXED = Workload(
    name="solve-mixed",
    generate=lambda seed: _mixed(seed, 0, lambda count: count),
    warmup=lambda seed: _mixed(seed, 8, lambda count: 1),
    op=_solve,
    check=check_report,
    fingerprint=_report_fingerprint,
    peak_inputs=2,
    bodies=True,
)


# --- solve-dense ------------------------------------------------------------


def _rational_affine_image(poly, rng):
    """Exact image of ``poly`` under a seeded rational affine map."""
    while True:
        m = [Fraction(rng.randint(-20, 20), 10) for _ in range(4)]
        if abs(m[0] * m[3] - m[1] * m[2]) >= Fraction(1, 5):
            break
    tx, ty = Fraction(rng.randint(-30, 30), 10), Fraction(rng.randint(-30, 30), 10)
    return geometry.convex_hull([
        (m[0] * v.x + m[1] * v.y + tx, m[2] * v.x + m[3] * v.y + ty)
        for v in poly.vertices
    ])


def _dense(seed: int, offset: int, ellipses: int, polygons: int) -> list:
    rng = random.Random(f"dense:{seed}:{offset}")
    base = corpus.regular_polygon(512)
    return interleave([
        corpus.gen_corpus("ellipse", ellipses, seed=seed * 16 + offset, vertices=1024),
        [_rational_affine_image(base, rng) for _ in range(polygons)],
    ])


SOLVE_DENSE = Workload(
    name="solve-dense",
    generate=lambda seed: _dense(seed, 0, DENSE_ELLIPSES, DENSE_POLYGONS),
    warmup=lambda seed: _dense(seed, 8, 1, 1),
    op=_solve,
    check=check_report,
    fingerprint=_report_fingerprint,
    peak_inputs=2,
    bodies=True,
)


# --- oracle-180 -------------------------------------------------------------


def _hulls(seed: int, offset: int, count: int) -> list:
    return interleave([
        corpus.gen_corpus("random", count, seed=seed * 16 + offset + j, vertices=n)
        for j, n in enumerate((8, 16, 32, 64))
    ])


def _oracle(body, span):
    return minquad.brute_force_min_quad(body, grid=180)


def check_oracle(body, quad) -> Checked:
    """The oracle's own containment, then the solver against it (acceptance 7)."""
    area = float(body.area)
    out = check_report(body, pipeline.case_machine(body))
    if not _contains_float(quad, body):
        out.problems.append("oracle quadrilateral does not contain the body")
    gap = (float(out.report.witness.area) - float(quad.area)) / area
    if gap > ORACLE_SLACK:
        out.problems.append(f"solver exceeds the grid-180 oracle by {gap!r} |K|")
    out.ratios = [float(quad.area) / area]
    out.oracle_gap = gap
    return out


ORACLE_180 = Workload(
    name="oracle-180",
    generate=lambda seed: _hulls(seed, 0, ORACLE_EACH),
    warmup=lambda seed: _hulls(seed, 8, 1)[:1],
    op=_oracle,
    check=check_oracle,
    fingerprint=lambda quad: quad.vertices,
    peak_inputs=1,
    bodies=True,
)


# --- exact-proof ------------------------------------------------------------


def check_round(rnd, outcome) -> Checked:
    return Checked(
        problems=list(outcome.problems),
        ratios=list(outcome.ratios),
        vertices=[len(body.vertices) for body in rnd.octagon_bodies],
    )


EXACT_PROOF = Workload(
    name="exact-proof",
    generate=lambda seed: proof.make_rounds(random.Random(f"proof:{seed}"), PROOF_ROUNDS),
    warmup=lambda seed: proof.make_rounds(random.Random(f"proof-warmup:{seed}"), 4),
    op=proof.run_round,
    check=check_round,
    fingerprint=lambda outcome: outcome,
    peak_inputs=2,
    bodies=False,
)


WORKLOADS = {w.name: w for w in (SOLVE_MIXED, SOLVE_DENSE, ORACLE_180, EXACT_PROOF)}
