"""Command-line front end.

Subcommands: ``solve`` (minimum quadrilateral for a body file), ``witness``
(case report embodying the area bound), ``certify`` (interval-arithmetic
verification of the constants), ``bench`` (CSV benchmark over a generated
corpus), and ``gen`` (corpus body files).

Exit codes: 0 success, 2 input error, 3 degenerate body, 4 certification
failure, 5 internal error (any other library error, such as a solver
failure or an inconsistent case).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Tuple

from .constants import TheoremConstants, certify_constants
from .corpus import KINDS, gen_corpus
from .errors import (
    BadParams,
    CircumquadError,
    DegenerateBody,
    DegenerateInput,
    _as_fraction,
)
from .geometry import AffineMap, ConvexPolygon, convex_hull
from .intervals import Verdict
from .minquad import min_circumscribed_quadrilateral
from .pipeline import CaseReport, case_machine

_CSV_HEADER = (
    "id,n_vertices,area_K,area_Q,empirical_ratio,case_id,"
    "certified_factor,runtime_ms"
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_scalar(v, exact: bool):
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise BadParams(f"bad coordinate {v!r}: must be a number or string")
    # Decimal semantics: 0.1 means 1/10, not its binary approximation.
    f = _as_fraction(repr(v) if isinstance(v, float) else v, "coordinate")
    # The solver runs in floats, so exact coordinates must fit a float too.
    try:
        approx = float(f)
    except OverflowError as exc:
        raise BadParams(f"coordinate {v!r} is out of float range") from exc
    return f if exact else approx


def read_body(path: str) -> ConvexPolygon:
    """Load a body file, taking the hull of the listed vertices."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise BadParams(f"body file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise BadParams("body file must be an object with a 'vertices' key")
    mode = data.get("mode", "float")
    if mode not in ("float", "rational"):
        raise BadParams(f"unknown mode {mode!r}")
    raw = data["vertices"]
    if not isinstance(raw, list) or len(raw) < 3:
        raise BadParams("body needs at least 3 vertices")
    pts = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise BadParams(f"bad vertex entry {entry!r}")
        pts.append(
            (
                _parse_scalar(entry[0], mode == "rational"),
                _parse_scalar(entry[1], mode == "rational"),
            )
        )
    return convex_hull(pts)


def body_to_json(poly: ConvexPolygon) -> dict:
    if poly.is_exact:
        verts = [[str(v.x), str(v.y)] for v in poly.vertices]
        return {"mode": "rational", "vertices": verts}
    verts = [[_fmt(v.x), _fmt(v.y)] for v in poly.vertices]
    return {"mode": "float", "vertices": verts}


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _map_to_json(m: Optional[AffineMap]):
    if m is None:
        return None
    return {
        "matrix": [[float(m.m11), float(m.m12)], [float(m.m21), float(m.m22)]],
        "translation": [float(m.t1), float(m.t2)],
    }


def cmd_solve(args) -> int:
    body = read_body(args.file)
    quad, cert = min_circumscribed_quadrilateral(body)
    out = {
        "vertices": [[float(v.x), float(v.y)] for v in quad.vertices],
        "area": float(quad.area),
        "body_area": float(body.area),
        "ratio": float(cert.area_ratio),
        "midpoint_residuals": [float(r) for r in cert.midpoint_residuals],
        "degenerate_triangle": len(quad) == 3,
    }
    _print_json(out)
    return 0


def _details_to_json(report: CaseReport) -> dict:
    """The case ladder's evidence; a rung that was not reached adds no keys."""
    out = {}
    box = report.contacts
    if box is not None:
        out.update(x=float(box.x), y=float(box.y), box_area=float(box.box_area))
    if report.max_octagon_gap is not None:
        out.update(
            octagon_area=report.octagon_area,
            max_octagon_gap=report.max_octagon_gap,
        )
    if report.lemma_branch is not None:
        out.update(
            reflections=report.reflections,
            cut_quad_area=report.cut_quad_area,
            lemma_branch=report.lemma_branch.value,
        )
    return out


def cmd_witness(args) -> int:
    body = read_body(args.file)
    report = case_machine(body)
    out = {
        "case_id": report.case_id.value,
        "certified_factor": report.certified_factor,
        "empirical_ratio": report.empirical_ratio,
        "witness": [[float(v.x), float(v.y)] for v in report.witness.vertices],
        "normalizing_map": _map_to_json(report.normalizing_map),
        "details": _details_to_json(report),
    }
    _print_json(out)
    return 0


def cmd_certify(args) -> int:
    overrides = {name: getattr(args, name) for name in ("c1", "c3", "delta")}
    consts = TheoremConstants(**{k: v for k, v in overrides.items() if v is not None})
    comparisons = certify_constants(consts, args.precision)
    payload = []
    for comp in comparisons:
        payload.append(
            {
                "claim": comp.claim,
                "verdict": comp.verdict.value,
                "precision_bits": comp.precision_bits,
                "lhs_interval": [float(comp.lhs_interval.lo), float(comp.lhs_interval.hi)],
                "rhs_interval": [float(comp.rhs_interval.lo), float(comp.rhs_interval.hi)],
                "lhs_interval_exact": [str(comp.lhs_interval.lo), str(comp.lhs_interval.hi)],
                "rhs_interval_exact": [str(comp.rhs_interval.lo), str(comp.rhs_interval.hi)],
            }
        )
    all_proven = all(c.verdict is Verdict.PROVEN for c in comparisons)
    _print_json(
        {
            "all_proven": all_proven,
            "precision_bits": args.precision,
            "comparisons": payload,
        }
    )
    return 0 if all_proven else 4


def _bench_one(task) -> Tuple[int, int, float, float, float, str, float, float]:
    index, body = task
    t0 = time.perf_counter()
    report = case_machine(body)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    area_k = float(body.area)
    ratio = report.empirical_ratio
    return (
        index,
        len(body),
        area_k,
        ratio * area_k,
        ratio,
        report.case_id.value,
        report.certified_factor,
        elapsed_ms,
    )


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("CIRCUMQUAD_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise BadParams(f"CIRCUMQUAD_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise BadParams("CIRCUMQUAD_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def cmd_bench(args) -> int:
    bodies = gen_corpus(args.kind, args.count, seed=args.seed, vertices=args.vertices)
    tasks = [(i, b.to_float()) for i, b in enumerate(bodies)]
    workers = _worker_count(len(tasks))
    if workers == 1:
        rows = [_bench_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, tasks, chunksize=4))
    print(_CSV_HEADER)
    max_ratio = 0.0
    for row in rows:
        (idx, nv, ak, aq, ratio, case_id, factor, ms) = row
        max_ratio = max(max_ratio, ratio)
        runtime = 0 if args.deterministic else int(round(ms))
        print(
            f"{idx},{nv},{_fmt(ak)},{_fmt(aq)},{_fmt(ratio)},{case_id},"
            f"{_fmt(factor)},{runtime}"
        )
    print(f"# max empirical_ratio = {_fmt(max_ratio)}", file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    bodies = gen_corpus(args.kind, args.count, seed=args.seed, vertices=args.vertices)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, b in enumerate(bodies):
            path = os.path.join(args.out, f"body_{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body_to_json(b), fh)
                fh.write("\n")
        print(f"wrote {len(bodies)} bodies to {args.out}")
    else:
        _print_json([body_to_json(b) for b in bodies])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circumquad",
        description="Minimum-area circumscribed quadrilaterals and the "
        "certified improvement over the sqrt(2) bound.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="minimum circumscribed quadrilateral")
    sp.add_argument("file", help="body JSON file")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("witness", help="case report for the area bound")
    sp.add_argument("file", help="body JSON file")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("certify", help="certify the theorem constants")
    sp.add_argument("--precision", type=int, default=128, help="interval precision bits")
    for name in ("c1", "c3", "delta"):
        sp.add_argument(f"--{name}", type=str, default=None, help=f"override {name}")
    sp.set_defaults(func=cmd_certify)

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--kind", required=True, help=f"one of {KINDS} or 'pentagon'")
    corpus.add_argument("--count", type=int, required=True)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--vertices", type=int, default=None, help="per-body size parameter")

    sp = sub.add_parser("bench", parents=[corpus], help="benchmark CSV over a generated corpus")
    sp.add_argument(
        "--deterministic",
        action="store_true",
        help="zero the runtime_ms column for byte-identical output",
    )
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("gen", parents=[corpus], help="generate corpus body files")
    sp.add_argument("--out", type=str, default=None, help="directory for body files")
    sp.set_defaults(func=cmd_gen)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateBody, DegenerateInput) as exc:
        print(f"degenerate body: {exc}", file=sys.stderr)
        return 3
    except (OSError, BadParams) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CircumquadError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
