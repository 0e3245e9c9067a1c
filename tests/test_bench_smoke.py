"""The benchmark in ``bench/`` still runs against the library in ``src/``.

A benchmark layer whose trace target is missing only prints a warning and
reads 0, so a change to the public surface could blank per-layer metrics
without failing anything else.  Every check that imports ``bench/run.py``
runs in a child process, so the thread-pinning environment it sets on import
stays out of the test process.
"""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from circumquad import ContactBox, Point, convex_hull, pipeline
from circumquad.corpus import regular_polygon
from circumquad.geometry import Support

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _run(args, timeout):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", ["exact-proof", "solve-mixed"])
def test_workload_passes(workload):
    done = _run(
        [str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0"], 300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_layers_read_above_zero():
    # A trace target the call path no longer passes through reads 0.
    done = _run(
        [str(RUN), "--workload", "solve-mixed", "--seed", "1", "--seconds", "0", "--trace", "1"],
        300,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for name in (
        "minquad.solve_ms_p50",
        "minquad.certificate_ms_p50",
        "pipeline.normalize_ms_p50",
        "pipeline.classify_ms_p50",
    ):
        assert metrics[name]["value"] > 0, name


def test_trace_targets_resolve():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(RUN.parent)!r})\n"
        "import run\n"
        "run.load_library()\n"
        "for module, attr, _ in run.trace_targets():\n"
        "    assert callable(getattr(module, attr, None)), f'{module.__name__}.{attr}'\n"
    )
    done = _run(["-c", probe], 120)
    assert done.returncode == 0, done.stderr


def test_classify_spans_stay_on_the_call_path(monkeypatch):
    """The case ladder calls its traced steps through ``pipeline``'s globals.

    ``bench/spans.py`` swaps these module attributes for timing wrappers; a
    refactor that bound them locally would leave ``pipeline.classify_ms_p50``
    at 0 while every other check still passed.
    """
    entered = Counter()
    for attr in (
        "normalize_to_square",
        "axis_box_with_contacts",
        "build_octagon",
        "linf_distance_to_polygon",
        "lemma_octagon_quad",
    ):
        def counted(*args, _attr=attr, _fn=getattr(pipeline, attr), **kwargs):
            entered[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, counted)

    report = pipeline.case_machine(regular_polygon(64))
    assert report.case_id is pipeline.CaseId.BODY_EXCEEDS_OCTAGON
    assert entered["normalize_to_square"] == 1  # one map per non-triangle solve
    assert entered["axis_box_with_contacts"] == 1
    assert entered["build_octagon"] == 1
    assert entered["linf_distance_to_polygon"] == 1  # the whole body at once
    assert entered["lemma_octagon_quad"] == 0

    # A body hugging its contact octagon reaches the last rung.
    s = Fraction(1414, 1000)
    z = Fraction(0)
    contacts = ContactBox(
        a1=-s, a2=-s, b1=s, b2=s,
        v1=Point(-s, z), v2=Point(z, -s), w1=Point(s, z), w2=Point(z, s),
    )
    square = pipeline.unit_square().vertices
    body = convex_hull(list(square) + list(contacts.contacts)).to_float()
    report = pipeline._classify_normalized(
        Support(body), witness=body, empirical_ratio=1.0,
        corner_residuals=(0.0,) * 4,
    )
    assert report.case_id is pipeline.CaseId.OCTAGON_IMPROVED
    assert entered["lemma_octagon_quad"] == 1
