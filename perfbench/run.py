"""hermlat benchmark: check seeded hermitian bundles end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-reference

Each timed unit is one bundle: ``transference.check_all`` followed by
``reports.render_report`` on every report, in one process with BLAS and
OpenMP pinned to one thread.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` checks every bundle twice, once plain and once with the
layer spans of ``tracing.py`` installed, and prints the per-layer metrics.
Check times (``bundles_per_s``, ``check_s.p50``) are scaled to a nominal
machine speed measured by the reference kernel in ``calibration.py``; raw
times are printed beside them.
The last line of standard output is one JSON object.  A wrong result
exits with code 1; a missing ``src/hermlat`` exits with code 2.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported (here or in a child).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
TRACE_DIR = ROOT / ".bench_build"

REF_SEED = 4242  # seed of the reference panel every run re-checks
SETUP_PROBES = 5  # set-ups timed per run, each in a fresh interpreter
MIN_P90_SAMPLES = 100  # p90 is reported only with >= 10 samples beyond it
CALIBRATE_EVERY_S = 2.0  # seconds between reference-kernel runs


def _locate_source():
    if not (SRC / "hermlat" / "__init__.py").is_file():
        print(f"error: hermlat sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def _setup(workload_name: str, seed: int):
    """Import hermlat, build the workload's fields and draw its set-up bundles."""
    import workloads

    w = workloads.WORKLOADS[workload_name]
    fields = workloads.build_fields(w.fields)
    stream = w.make_stream(fields, seed)
    drawn = [next(stream) for _ in range(w.setup_bundles)]
    return w, fields, drawn, stream


def _setup_probe(workload_name: str, seed: int) -> None:
    t0 = time.perf_counter()
    _setup(workload_name, seed)
    print(repr(time.perf_counter() - t0))


def _timed_setups(workload_name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _check_and_render(bundle, budget: int):
    """Check and render one bundle.  Returns the time taken, the reports,
    the rendered lines and the BundleChecks that ``check_all`` filled."""
    import gate
    from hermlat import reports, transference

    sink: list = []
    transference.BundleChecks = gate.capturing_checks(sink)
    try:
        t0 = time.perf_counter()
        reps = transference.check_all(bundle, budget)
        lines = [reports.render_report(r) for r in reps]
        dt = time.perf_counter() - t0
    finally:
        transference.BundleChecks = gate.BundleChecks
    return dt, reps, lines, sink[-1]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def _environment() -> dict:
    import mpmath
    import numpy
    import sympy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "sympy": sympy.__version__,
           "mpmath": mpmath.__version__}
    env.update({v: os.environ[v] for v in THREAD_VARS})
    return env


def _fail(problems: list[str]) -> None:
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    print(f"gate: FAILED with {len(problems)} problem(s)", file=sys.stderr)
    sys.exit(1)


def _check_panel(workload, fields) -> int:
    """Re-check the recorded reference panel; returns its size."""
    import gate

    ref = json.loads(REFERENCE.read_text())[workload.name]
    stream = workload.make_stream(fields, ref["seed"])
    problems = []
    for i, recorded in enumerate(ref["bundles"]):
        _, reps, _, ctx = _check_and_render(next(stream), ref["budget"])
        problems += [f"panel {i}: {p}" for p in gate.check_bundle(ctx, reps)]
        problems += [f"panel {i}: {p}" for p in
                     gate.compare_reference(recorded, ctx.digest, reps)]
    if problems:
        _fail(problems)
    return len(ref["bundles"])


def record_reference() -> None:
    import gate
    import workloads

    out = {}
    for w in workloads.WORKLOADS.values():
        fields = workloads.build_fields(w.fields)
        stream = w.make_stream(fields, REF_SEED)
        recorded = []
        for _ in range(w.panel_size):
            _, reps, _, ctx = _check_and_render(next(stream), w.budget)
            problems = gate.check_bundle(ctx, reps)
            if problems:
                _fail(problems)
            recorded.append({"digest": ctx.digest, "reports": gate.summarize(reps)})
        out[w.name] = {"seed": REF_SEED, "budget": w.budget, "bundles": recorded}
        print(f"recorded {len(recorded)} {w.name} bundles", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> None:
    import calibration

    setups = _timed_setups(workload_name, seed)
    kernel = [calibration.kernel_s()]
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # set-up spans: the field builds
    w, fields, drawn, stream = _setup(workload_name, seed)
    if traced:
        tracer.uninstall()

    import gate
    from hermlat import DualityError, PrecisionError

    times, traced_times, problems = [], [], []
    uncertified = failed = 0

    def check_one(i, bundle):
        """Time one bundle (plain, and traced in a traced run); return its
        reports and BundleChecks."""
        if not traced:
            dt, reps, _, ctx = _check_and_render(bundle, w.budget)
            times.append(dt)
            return reps, ctx
        rendered = {}
        # alternate which of the plain and the traced check runs first
        for plain in ((True, False) if i % 2 == 0 else (False, True)):
            if not plain:
                tracer.install()
                tracer.bundle = i
            try:
                dt, reps, rendered[plain], ctx = _check_and_render(bundle, w.budget)
            finally:
                tracer.bundle = None
                tracer.uninstall()
            (times if plain else traced_times).append(dt)
        if rendered[True] != rendered[False]:
            problems.append(f"bundle {i}: traced and plain reports differ")
        return reps, ctx

    bundles = itertools.chain(drawn, stream)
    i = rounds = 0
    start = last_kernel = time.perf_counter()
    # start a round only when one more round of average length still fits
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        if time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
            kernel.append(calibration.kernel_s())
            last_kernel = time.perf_counter()
        for _ in range(w.round_size):
            try:
                reps, ctx = check_one(i, next(bundles))
            except (PrecisionError, DualityError):
                failed += 1
            else:
                problems += [f"bundle {i}: {p}" for p in gate.check_bundle(ctx, reps)]
                uncertified += any(r.verdict == "uncertified" for r in reps)
            i += 1
        rounds += 1
    kernel.append(calibration.kernel_s())
    scale = calibration.NOMINAL_S / statistics.median(kernel)
    raw_times, times = times, [t * scale for t in times]
    # one timing sample per round: the mean over its bundles
    samples = [sum(times[k:k + w.round_size]) / w.round_size
               for k in range(0, len(times), w.round_size)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if problems:
        _fail(problems)
    attempted = len(times) + failed
    panel = _check_panel(w, fields)

    print(f"hermlat benchmark: workload={workload_name} seed={seed} "
          f"seconds={seconds} trace={int(traced)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in _environment().items()))
    print(f"gate: ok ({len(times)} bundles checked, {panel} reference bundles re-checked)")
    print(f"calibration: {len(kernel)} kernel runs, median {statistics.median(kernel)!r} s, "
          f"check times scaled by {scale!r}; raw bundles_per_s "
          f"{len(raw_times) / sum(raw_times)!r}, raw check_s.p50 {statistics.median(raw_times)!r}")
    n = len(times)
    info = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "bundles_per_s": (n / sum(times), "1/s", f"{n} bundles"),
        "check_s.p50": (statistics.median(samples), "s", f"n={len(samples)}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "whole process"),
        "uncertified_frac": (uncertified / n, "ratio", f"{uncertified} of {n} bundles"),
    }
    if len(samples) >= MIN_P90_SAMPLES:
        info["check_s.p90"] = (_percentile(samples, 0.9), "s", f"n={len(samples)}")
    if traced:
        roots = tracing.root_seconds(tracer)
        layer = tracing.layer_metrics(tracer, len(traced_times))
        layer["transference.uncertified_frac"] = uncertified / n
        layer["trace_overhead"] = statistics.median(traced_times) / statistics.median(raw_times)
        layer["trace.coverage"] = sum(roots.values()) / sum(traced_times)
        units = _layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        _write_spans(tracer, TRACE_DIR / f"spans-{workload_name}-{seed}.json")
        for k, v in layer.items():
            print(f"metric {k}: {v!r} {units[k]}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in info.items()
                   if k not in ("uncertified_frac", "check_s.p90")}
    for k, (v, u, note) in info.items():
        print(f"metric {k}: {v!r} {u} ({note})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _write_spans(tracer, path: Path) -> None:
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    rows = [[s.name, s.start, s.end, index.get(id(s.parent)), s.bundle] for s in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "bundle"],
                                "spans": rows}))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference.json from this checkout")
    args = ap.parse_args(argv)
    _locate_source()
    if args.setup_probe:  # imports nothing before its clock starts
        _setup_probe(args.workload, args.seed)
        return
    if args.record_reference:
        record_reference()
        return
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
