"""Check that two source trees give the same answers on every gate body.

Usage::

    python tools/same_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``circumquad`` package (the
``src`` directory of two checkouts).  Each tree runs in a child process of
its own, with only that tree's package importable.  Per body the child
hashes the ``repr`` of the ``case_machine`` report and of the solver's
``(quad, certificate)``, or of the ``CircumquadError`` either raised, on:

* the acceptance corpus (``build_corpus`` of ``tests/conftest.py``);
* the held-out corpus: ``build_corpus`` from base seed 777001;
* ``regular_polygon(k)`` for k = 3..39;
* the ``solve-mixed`` inputs of seeds 1-3 and the ``solve-dense`` inputs of
  seeds 1-2, read from ``bench/workloads.py``.

It prints the number of bodies and the number that differ, naming the first
few, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 777001
SHOWN = 10  # differing bodies named in the output


def _bodies():
    """(name, body) for every gate body, from the circumquad on the path."""
    from circumquad import regular_polygon

    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import conftest
    import workloads

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
    """Print one JSON line [name, report hash, solver hash] per gate body."""
    sys.path.insert(0, str(Path(src).resolve()))
    import circumquad
    from circumquad import CircumquadError, case_machine, min_circumscribed_quadrilateral

    if not Path(circumquad.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {circumquad.__file__}, not the tree {src}")

    def digest(call, body) -> str:
        try:
            out = call(body)
        except CircumquadError as exc:
            out = exc
        return hashlib.sha256(repr(out).encode()).hexdigest()

    for name, body in _bodies():
        line = [name, digest(case_machine, body), digest(min_circumscribed_quadrilateral, body)]
        print(json.dumps(line))


def _run(src: str) -> dict:
    child = subprocess.run(
        [sys.executable, __file__, "--hashes", src],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return {name: hashes for name, *hashes in map(json.loads, child.stdout.splitlines())}


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
    old, new = (_run(src) for src in args.trees)
    differ = sorted(set(old) ^ set(new)) + [n for n in old if n in new and old[n] != new[n]]
    print(f"{len(old)} bodies, {len(differ)} differ")
    for name in differ[:SHOWN]:
        print(f"  {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
