"""The benchmark in ``bench/`` still runs against the library in ``src/``.

A benchmark layer whose trace target is missing only prints a warning and
reads 0, so a change to the public surface could blank per-layer metrics
without failing anything else.  Every check runs in a child process, so the
thread-pinning environment that ``bench/run.py`` sets on import stays out of
the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
