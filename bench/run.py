#!/usr/bin/env python3
"""Benchmark of the circumquad library, one workload per invocation.

    python3 bench/run.py --workload solve-mixed --seed 7 --seconds 55 --trace 0

The library is imported from ``src/`` beside this directory, never from an
installed copy.  Load is one process and one thread in a closed loop: the
next input is sent only after the previous op has returned.  The loop makes
at least one full pass over the seeded inputs, then keeps cycling until
``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs each input untraced and then traced, reports the per-layer metrics
and writes every span to ``.bench_trace/``.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every op passed its checks,
1 when some op failed, 2 when the benchmark could not run.
"""

import os

# Pin native thread pools before numpy loads, here and in set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

CASE_IDS = (
    "box-large",
    "box-skewed",
    "body-exceeds-octagon",
    "octagon-improved",
    "degenerate-triangle",
)
EXACT_SPANS = (
    ("zeta.check_ms", "zeta.check"),
    ("pipeline.lemma_check_ms", "pipeline.lemma_check"),
    ("minquad.varignon_check_ms", "minquad.varignon_check"),
    ("pipeline.octagon_check_ms", "pipeline.octagon_check"),
    ("pipeline.inner_ball_check_ms", "pipeline.inner_ball_check"),
    ("constants.certify_ms", "constants.certify"),
)
CLASSIFY_SPANS = (
    "pipeline.axis_box_with_contacts",
    "pipeline.build_octagon",
    "geometry.linf_distance_to_polygon",
    "pipeline.lemma_octagon_quad",
)


def no_span(name):
    return nullcontext()


def load_library():
    """Import the workloads against ``src/``; exit 2 when the sources are absent."""
    if not (SRC / "circumquad" / "__init__.py").is_file():
        print(f"bench: no circumquad sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import circumquad

    if Path(circumquad.__file__).resolve().parent != SRC / "circumquad":
        print(f"bench: imported circumquad from {circumquad.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def trace_targets():
    """Public functions each module hands to the next, as bound at the call site."""
    from circumquad import minquad, pipeline

    return (
        (pipeline, "case_machine", "pipeline.case_machine"),
        (pipeline, "min_circumscribed_quadrilateral", "minquad.min_circumscribed_quadrilateral"),
        (minquad, "midpoint_certificate", "minquad.midpoint_certificate"),
        (minquad, "brute_force_min_quad", "minquad.brute_force_min_quad"),
        (pipeline, "normalize_to_square", "pipeline.normalize_to_square"),
        (pipeline, "axis_box_with_contacts", "pipeline.axis_box_with_contacts"),
        (pipeline, "build_octagon", "pipeline.build_octagon"),
        (pipeline, "linf_distance_to_polygon", "geometry.linf_distance_to_polygon"),
        (pipeline, "lemma_octagon_quad", "pipeline.lemma_octagon_quad"),
    )


def set_up(workload, seed):
    """Generate the inputs and run the untimed warm-up pass."""
    t0 = time.perf_counter()
    items = workload.generate(seed)
    for item in workload.warmup(seed):
        workload.op(item, no_span)
    return items, time.perf_counter() - t0


def child_setup_seconds(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_op(workload, item, span):
    try:
        return workload.op(item, span)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return exc


def closed_loop(workload, items, seconds):
    """At least one full pass, then until ``seconds`` have elapsed."""
    times, results = [], []
    start = time.perf_counter()
    i = 0
    while i < len(items) or time.perf_counter() - start < seconds:
        k = i % len(items)
        t0 = time.perf_counter()
        out = run_op(workload, items[k], no_span)
        times.append(time.perf_counter() - t0)
        results.append((k, out))
        i += 1
    return times, results


def verify(workload, items, results, before_check=lambda k: None):
    """Check each distinct input's first output; judge every op against it."""
    from workloads import Checked

    first = {}
    for k, out in results:
        first.setdefault(k, out)
    checked = {}
    for k, out in first.items():
        if isinstance(out, Exception):
            continue
        before_check(k)
        try:
            checked[k] = workload.check(items[k], out)
        except Exception as exc:  # the check's own solve or geometry raised
            checked[k] = Checked(problems=[f"check raised {exc!r}"])
    failures = []
    for k, out in results:
        if isinstance(out, Exception):
            failures.append(f"input {k}: {type(out).__name__}: {out}")
        elif checked[k].problems:
            failures.append(f"input {k}: {checked[k].problems[0]}")
        elif workload.fingerprint(out) != workload.fingerprint(first[k]):
            failures.append(f"input {k}: output differs between passes")
    return checked, failures


def peak_mb(workload, items):
    """Largest tracemalloc peak of a single op, in its own untimed pass."""
    worst = 0
    tracemalloc.start()
    try:
        for item in items:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            workload.op(item, no_span)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return worst / 1e6


def fastest_per_input(times, results):
    """Each input's fastest op over the passes of the timed loop.

    The machine the baseline was taken on switches between speed phases
    that differ by up to 1.7x and last seconds, so the fraction of a run
    spent in slow phases moves every statistic taken over all ops.  An
    input's fastest op over passes spread through the run is insensitive to
    that fraction; the timing metrics are quantiles of these per-input times.
    """
    fastest = {}
    for t, (k, _) in zip(times, results):
        fastest[k] = min(t, fastest.get(k, t))
    return list(fastest.values())


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def emit(header, failures, attempted, metrics):
    print(header)
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def end_to_end(workload, args):
    # Cold set-ups before and after the timed loop, so that they fall in
    # different speed phases of the machine.
    setups = [child_setup_seconds(args)]
    items, setup_s = set_up(workload, args.seed)
    setups.append(setup_s)

    start = time.perf_counter()
    times, results = closed_loop(workload, items, args.seconds)
    wall = time.perf_counter() - start
    setups.append(child_setup_seconds(args))
    checked, failures = verify(workload, items, results)
    ratios = [r for c in checked.values() for r in c.ratios] or [0.0]
    fastest = fastest_per_input(times, results)
    metrics = {
        "op_ms_p50": (statistics.median(fastest) * 1e3, "ms"),
        "op_ms_p90": (p90(fastest) * 1e3, "ms"),
        "ops_per_s": (len(fastest) / sum(fastest), "1/s"),
        "peak_mb": (peak_mb(workload, items[: workload.peak_inputs]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ratio_mean": (statistics.fmean(ratios), "ratio"),
        "ratio_max": (max(ratios), "ratio"),
    }
    header = (
        f"# {workload.name} seed={args.seed}: {len(times)} ops over {len(items)} "
        f"distinct inputs in {wall:.1f} s, {len(failures)} failed "
        f"(fail_frac {len(failures) / len(times):.3g}); "
        f"setup_s is the median of {len(setups)} cold set-ups"
    )
    return emit(header, failures, len(times), metrics)


def traced(workload, args):
    from circumquad import minquad
    from spans import SpanRecorder

    rec = SpanRecorder()
    with rec.span("corpus.gen"):
        items = workload.generate(args.seed)
    for item in workload.warmup(args.seed):
        workload.op(item, no_span)

    # Each input runs untraced and then traced, back to back, so that drift in
    # machine speed during the run does not bias the overhead estimate.
    targets = trace_targets()
    plain, results = [], []
    start = time.perf_counter()
    i = 0
    while i < len(items) or time.perf_counter() - start < args.seconds:
        k = i % len(items)
        t0 = time.perf_counter()
        out = run_op(workload, items[k], no_span)
        plain.append(time.perf_counter() - t0)
        results.append((k, out))
        with rec.patched(targets):
            rec.op_id = f"op-{i}"
            with rec.span("op"):
                out = run_op(workload, items[k], rec.span)
        results.append((k, out))
        i += 1

    scans = {}
    with rec.patched(targets):
        if workload.bodies:
            for k, body in enumerate(items):
                rec.op_id = f"scan90-{k}"
                with rec.span("scan90"):
                    scans[k] = minquad.brute_force_min_quad(body, grid=90)
        checked, failures = verify(
            workload, items, results, lambda k: setattr(rec, "op_id", f"check-{k}")
        )
    rec.op_id = None

    metrics = layer_metrics(rec, items, checked, scans, plain)
    path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
    rec.write(path)
    header = (
        f"# {workload.name} seed={args.seed}: {i} untraced and {i} traced ops, "
        f"alternating, over {len(items)} inputs; {len(rec.spans)} spans in {path}"
    )
    return emit(header, failures, len(results), metrics)


def layer_metrics(rec, items, checked, scans, plain):
    selfs = rec.self_seconds()
    names = {s[0]: s[3] for s in rec.spans}
    durations = defaultdict(list)  # span name -> [ms]
    solve_self = []  # ms
    classify = defaultdict(float)  # case_machine span id -> ms in classify children
    for span_id, parent, _, name, start, end in rec.spans:
        ms = (end - start) * 1e3
        durations[name].append(ms)
        if name == "minquad.min_circumscribed_quadrilateral":
            solve_self.append(selfs[span_id] * 1e3)
        elif name == "pipeline.case_machine":
            classify[span_id] += 0.0  # a solve with no classify child counts as 0
        elif name in CLASSIFY_SPANS and names.get(parent) == "pipeline.case_machine":
            classify[parent] += ms

    def med(values):
        return statistics.median(values) if values else 0.0

    solve = med(solve_self)
    scan90 = med(durations["scan90"])
    gaps = []
    for k, c in checked.items():
        if c.oracle_gap is not None:
            gaps.append(c.oracle_gap)
        elif k in scans and c.report is not None:
            oracle = float(scans[k].area)
            gaps.append((float(c.report.witness.area) - oracle) / float(items[k].area))
    cases = Counter(c.case for c in checked.values())
    vertices = [n for c in checked.values() for n in c.vertices]

    metrics = {
        "corpus.gen_ms": (sum(durations["corpus.gen"]), "ms"),
        "minquad.solve_ms_p50": (solve, "ms"),
        "minquad.scan90_ms_p50": (scan90, "ms"),
        "minquad.refine_ms_est": (solve - scan90 if solve_self else 0.0, "ms"),
        "minquad.certificate_ms_p50": (med(durations["minquad.midpoint_certificate"]), "ms"),
        "pipeline.normalize_ms_p50": (med(durations["pipeline.normalize_to_square"]), "ms"),
        "pipeline.classify_ms_p50": (med(list(classify.values())), "ms"),
    }
    for metric, span in EXACT_SPANS:
        metrics[metric] = (med(durations[span]), "ms")
    for case in CASE_IDS:
        metrics[f"pipeline.case.{case}"] = (cases[case], "count")
    metrics["geometry.vertices_per_body"] = (
        statistics.fmean(vertices) if vertices else 0.0, "count"
    )
    metrics["minquad.witness_exact_miss"] = (sum(c.exact_miss for c in checked.values()), "count")
    metrics["minquad.oracle_gap_max"] = (max(gaps) if gaps else 0.0, "ratio")
    traced_ms = durations["op"]
    metrics["trace.overhead_frac"] = (
        med(traced_ms) / (statistics.median(plain) * 1e3) - 1, "ratio"
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it as JSON")
    args = parser.parse_args(argv)

    workloads = load_library()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, setup_s = set_up(workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return traced(workload, args)
    return end_to_end(workload, args)


if __name__ == "__main__":
    sys.exit(main())
