"""Check that two source trees give the same answers on every gate body.

Usage::

    python tools/same_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``circumquad`` package (the
``src`` directory of two checkouts).  Each tree runs in a child process of
its own, with only that tree's package importable.  The child hashes the
``repr`` of each answer, or of the ``CircumquadError`` it raised, in four
sets.  Per body, the ``case_machine`` report and the solver's
``(quad, certificate)``, on:

* the acceptance corpus (``build_corpus`` of ``tests/conftest.py``);
* the held-out corpus: ``build_corpus`` from base seed 777001;
* ``regular_polygon(k)`` for k = 3..39;
* the ``solve-mixed`` inputs of seeds 1-3 and the ``solve-dense`` inputs of
  seeds 1-2, read from ``bench/workloads.py``.

Per body of the first three, the grid oracle's answer,
``brute_force_min_quad(body, grid=90)``.

Per ``exact-proof`` round of seeds 1-3, the outcome of ``proof.run_round``,
which runs the exact containment tests and ``certify_constants``.  Per
precision of 8, 64 and 128 bits, ``certify_constants(TheoremConstants())``.

It prints, per set, the number of answers and the number that differ,
naming the first few, and exits 1 on any difference.  For each differing
body it also prints both trees' ``empirical_ratio`` and ``case_id`` (or the
error raised), and it counts the ratios that rose by more than 1e-12
relative and the case changes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 777001
ORACLE_BODIES = ("acceptance", "held-out", "regular")  # bodies the oracle set hashes
SHOWN = 10  # differing answers named per set other than the bodies


def _bodies(conftest, workloads):
    """(name, body) for every gate body, from the circumquad on the path."""
    from circumquad import regular_polygon

    corpora = (("acceptance", conftest.CORPUS_SEED), ("held-out", HELD_OUT_SEED))
    for label, base in corpora:
        for i, body in enumerate(conftest.build_corpus(base)):
            yield f"{label}/{i}", body
    for k in range(3, 40):
        yield f"regular/{k}", regular_polygon(k)
    for name, seeds in (("solve-mixed", (1, 2, 3)), ("solve-dense", (1, 2))):
        for seed in seeds:
            for i, body in enumerate(workloads.WORKLOADS[name].generate(seed)):
                yield f"{name}/{seed}/{i}", body


def _hashes(src: str) -> None:
    """Print one JSON line [set, name, hash, ...] per answer compared."""
    sys.path.insert(0, str(Path(src).resolve()))
    import circumquad
    from circumquad import (
        CircumquadError,
        TheoremConstants,
        brute_force_min_quad,
        case_machine,
        certify_constants,
        min_circumscribed_quadrilateral,
    )

    if not Path(circumquad.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {circumquad.__file__}, not the tree {src}")
    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import conftest
    import proof
    import workloads

    def answer(call, body):
        try:
            return call(body)
        except CircumquadError as exc:
            return exc

    def digest(call, body) -> str:
        return hashlib.sha256(repr(answer(call, body)).encode()).hexdigest()

    for name, body in _bodies(conftest, workloads):
        report = answer(case_machine, body)
        summary = (
            [report.empirical_ratio, report.case_id.value]
            if not isinstance(report, CircumquadError) else [None, type(report).__name__]
        )
        hashes = [hashlib.sha256(repr(report).encode()).hexdigest(),
                  digest(min_circumscribed_quadrilateral, body)]
        print(json.dumps(["bodies", name, *hashes, summary]))
        if name.split("/")[0] in ORACLE_BODIES:
            quad = digest(lambda b: brute_force_min_quad(b, grid=90), body)
            print(json.dumps(["oracle grid-90 quadrilaterals", name, quad]))
    for seed in (1, 2, 3):
        for i, rnd in enumerate(workloads.WORKLOADS["exact-proof"].generate(seed)):
            outcome = digest(lambda r: proof.run_round(r, lambda name: contextlib.nullcontext()), rnd)
            print(json.dumps(["exact-proof rounds", f"{seed}/{i}", outcome]))
    for bits in (8, 64, 128):
        checks = digest(lambda b: certify_constants(TheoremConstants(), b), bits)
        print(json.dumps(["certify_constants precisions", str(bits), checks]))


def _run(src: str):
    """({set: {name: hashes}}, {body: [empirical_ratio, case_id]}) of one tree."""
    child = subprocess.run(
        [sys.executable, __file__, "--hashes", src],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    sets: dict = {}
    summaries = {}
    for kind, name, *hashes in map(json.loads, child.stdout.splitlines()):
        if kind == "bodies":
            *hashes, summaries[name] = hashes
        sets.setdefault(kind, {})[name] = hashes
    return sets, summaries


def _body_changes(names, old, new) -> None:
    """Print each differing body's ratio and case in both trees, then the counts."""
    rises = cases = 0
    for name in names:
        (r0, c0), (r1, c1) = old.get(name, [None, None]), new.get(name, [None, None])
        change = f"{(r1 - r0) / r0:+.3g}" if r0 is not None and r1 is not None else "n/a"
        print(f"  {name}: {c0} {r0!r} -> {c1} {r1!r} ({change})")
        rises += r0 is not None and r1 is not None and r1 > r0 * (1 + 1e-12)
        cases += c0 != c1
    print(f"  {rises} rise by more than 1e-12 relative, {cases} change case")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hashes", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", metavar="SRC", help="OLD_SRC NEW_SRC")
    args = parser.parse_args(argv)
    if args.hashes:
        _hashes(args.hashes)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_SRC NEW_SRC")
    (old_sets, old_bodies), (new_sets, new_bodies) = (_run(src) for src in args.trees)
    differing = 0
    for kind in {**old_sets, **new_sets}:
        old, new = old_sets.get(kind, {}), new_sets.get(kind, {})
        differ = sorted(set(old) ^ set(new)) + [n for n in old if n in new and old[n] != new[n]]
        print(f"{len(old)} {kind}, {len(differ)} differ")
        if kind == "bodies":
            _body_changes(differ, old_bodies, new_bodies)
        else:
            for name in differ[:SHOWN]:
                print(f"  {name}")
        differing += len(differ)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
