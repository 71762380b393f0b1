"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload estimate --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run sets up the workload twice, then times
passes for ``--seconds`` seconds (at least two) and prints the end-to-end
metrics.  With ``--trace 1`` it sets up once and alternates untraced and
traced passes; the per-layer metrics come from the spans of the traced
passes, and the difference between the two kinds is the tracing overhead.
Every pass's outputs are checked.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, pass outputs and a results record with provenance are written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, and recorded with the results.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
try:
    import numpy as np

    import tracing
    import workloads as w
    from histgdp.errors import HistGdpError
except ModuleNotFoundError as err:  # e.g. a directory holding only the benchmark
    raise SystemExit(f"cannot import the package from {ROOT / 'src'}: {err}") from None

SETUP_REPEATS = 2
MIN_PASSES = 2
MIN_TRACED_PAIRS = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(workload: str, seed: int, attempts: list) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": None}
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "world_seed_used": measured_world_seed(attempts),
        "world_attempts": attempts,
    }


def end_to_end_metrics(setups: list, passes: list, items_per_pass: int) -> dict:
    pass_s = statistics.median(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "items_per_s": (items_per_pass / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def timed_pass(ctx, index, tracer, ops, first_outputs):
    """One pass plus its output checks; returns (seconds, PassResult) or
    (None, None) when the pass raised an expected package error."""
    run_pass = w.PASSES[ctx.workload.name]
    t0 = time.perf_counter()
    try:
        with tracer.span("pass", index=index):
            result = run_pass(ctx, ctx.run_dir / f"pass{index}", tracer)
    except HistGdpError as err:
        ops.record("pass", False, type(err).__name__)
        return None, None
    seconds = time.perf_counter() - t0
    ops.record("pass", True)
    if result.splits is not None:
        for split in result.splits.splits:
            ops.record("split", split.failed is None, failure_class(split.failed))
    problems = list(result.problems)
    checks = set(w.CHECKS[ctx.workload.name])
    if first_outputs:
        problems += w.check_identical(first_outputs, result.outputs)
        checks.add("identical")
    checks |= {name for name, _ in problems}
    for check in sorted(checks):
        reasons = [reason for name, reason in problems if name == check]
        ops.record(f"check.{check}", not reasons)
        for reason in reasons:
            print(f"check failed: pass {index} {check}: {reason}", file=sys.stderr)
    return seconds, result


def failure_class(reason: str | None) -> str:
    """Error class of a failed split's recorded reason."""
    if reason is None:
        return ""
    head = reason.split(":", 1)[0]
    if head.isidentifier() and head.endswith("Error"):
        return head
    if reason.startswith("only ") and "usable test rows" in reason:
        return "too_few_test_rows"
    return "other"


def run(args) -> dict:
    if args.workload not in w.WORKLOADS:
        raise SystemExit(f"unknown workload '{args.workload}'; choose from {sorted(w.WORKLOADS)}")
    workload = w.WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    tracer = tracing.Tracer()
    ops = w.Operations()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        ctx = None  # so peak_rss_mb sees one live dataset, not two
        t0 = time.perf_counter()
        ctx = w.setup(workload, args.seed, run_dir, tracer, ops)
        setups.append(time.perf_counter() - t0)
    setup_spans = len(tracer.spans)

    untraced, traced, layer_runs = [], [], []
    results = []
    first_outputs = None
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PAIRS
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and elapsed >= args.seconds:
            break
        trace_this = bool(args.trace) and index % 2 == 1
        first_span = len(tracer.spans)
        if trace_this:
            with tracing.instrumented(tracer):
                seconds, result = timed_pass(ctx, index, tracer, ops, first_outputs)
        else:
            seconds, result = timed_pass(ctx, index, tracer, ops, first_outputs)
        index += 1
        if seconds is None:
            if elapsed >= args.seconds:
                break
            continue
        results.append(result)
        if first_outputs is None:
            first_outputs = result.outputs
        if trace_this:
            traced.append(seconds)
            layer_runs.append((tracing.layer_totals(tracer, first_span, len(tracer.spans)),
                               result, len(tracer.spans) - first_span))
        else:
            untraced.append(seconds)
    if not untraced or (args.trace and not traced):
        raise SystemExit(f"{workload.name}: no pass completed; failures {ops.failures}")

    pass_s = statistics.median(untraced)
    if args.trace:
        metrics = per_layer_metrics(tracer, setup_spans, layer_runs, ctx.dataset)
        overhead = statistics.median(traced) - pass_s
        metrics["tracing.overhead_s"] = (overhead, "s")
        metrics["tracing.overhead_share"] = (overhead / pass_s, "share")
        tracer.write(run_dir / "spans.json")
    else:
        metrics = end_to_end_metrics(setups, untraced, results[0].items)
    record = {
        "workload": workload.name,
        "item": workload.item,
        "passes": {"untraced_s": untraced, "traced_s": traced, "setup_s": setups},
        # World builds make inputs; the result's attempted/failed count the
        # operations of the measured passes, failed_share counts everything.
        "attempted": ops.totals(exclude=("world",))[0],
        "failed": ops.totals(exclude=("world",))[1],
        "failed_share": ops.failed_share,
        "world_builds": {"attempted": ops.attempted["world"], "failed": ops.failed.get("world", 0)},
        "failures": ops.failures,
        # Another measured world re-baselines the benchmark (see README.md).
        "world_seed_changed": measured_world_seed(ctx.world_attempts) != w.MEASURED_WORLD_SEED,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "provenance": provenance(workload.name, args.seed, ctx.world_attempts),
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def measured_world_seed(attempts: list) -> int:
    return next(a["seed"] for a in attempts if a["outcome"] == "ok")


def per_layer_metrics(tracer, setup_spans: int, layer_runs: list, dataset) -> dict:
    """Per-layer metrics: set-up layers from the set-up spans, the rest as
    the median over traced passes (counts repeat exactly between passes)."""
    setup = tracing.layer_totals(tracer, 0, setup_spans)
    worlds = setup["synthetic.make_world"]
    failures = [s.error for s in tracer.spans[:setup_spans]
                if s.name == "synthetic.make_world" and s.error]
    metrics = {
        "synthetic.world_attempts": (worlds["calls"], "count"),
        "synthetic.world_failures": (len(failures), "count"),
        "synthetic.world_failures.NumericalError": (failures.count("NumericalError"), "count"),
        "synthetic.world_failures.ValidationError": (failures.count("ValidationError"), "count"),
        "synthetic.make_world.s": (worlds["s"], "s"),
        "synthetic.write_world_csv.s": (setup["synthetic.write_world_csv"]["s"], "s"),
        "data_ingest.load_dataset.s": (setup["data_ingest.load_dataset"]["s"], "s"),
        "data_ingest.records": (len(dataset.records), "count"),
        "data_ingest.rejects": (len(dataset.rejects), "count"),
    }
    per_pass = [pass_layer_metrics(*run) for run in layer_runs]
    for name, (_value, unit) in per_pass[0].items():
        average = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (average(p[name][0] for p in per_pass), unit)
    split_times = [
        s.end - s.start
        for s in tracer.spans[setup_spans:]
        if s.name == "evaluation.run_single_split"
    ]
    tail = tracing.tail_percentile(len(split_times)) or 50
    metrics["evaluation.split_s.n"] = (len(split_times), "count")
    metrics["evaluation.split_s.p50"] = (
        float(np.percentile(split_times, 50)) if split_times else 0.0, "s")
    metrics["evaluation.split_s.tail"] = (
        float(np.percentile(split_times, tail)) if split_times else 0.0, "s")
    metrics["evaluation.split_s.tail_pct"] = (tail, "percentile")
    return metrics


SPAN_SECONDS = (
    "data_ingest.assign_flows", "features.flow_counts", "features.rca_matrix", "features.eci",
    "features.svd_factors", "features.avg_age", "features.avg_ubiquity",
    "features.attach_initial_gdp", "numerics.svd", "numerics.ols_fit", "numerics.standardize",
    "numerics.kruskal_wallis", "elasticnet.en_cv", "elasticnet.en_fit", "elasticnet.fit_centered",
    "pipeline.run_full", "pipeline.train_period", "pipeline.predict_gated",
    "pipeline.rescale_regions", "pipeline.bootstrap_ci", "pipeline.write_outputs",
    "features.build_static", "evaluation.evaluate_models", "evaluation.run_single_split",
    "evaluation.fit_baseline", "evaluation.summarize_performance", "evaluation.write_outputs",
)
SELF_SECONDS = ("features.build_static", "pipeline.run_full", "pipeline.bootstrap_ci")
CALLS = (
    "data_ingest.assign_flows", "features.hpi_weight", "features.eci", "features.initial_gdp",
    "numerics.svd", "numerics.quantile", "elasticnet.en_cv", "elasticnet.en_fit",
    "elasticnet.fit_centered", "pipeline.rescale_regions",
)
SPLIT_FAILURES = ("NumericalError", "ValidationError", "too_few_test_rows", "other")


def pass_layer_metrics(totals: dict, result, n_spans: int) -> dict:
    """Per-layer metrics of one traced pass; layers it never entered read 0."""
    def get(name):
        return totals.get(name) or tracing.empty_total()

    metrics = {}
    for name in SPAN_SECONDS:
        metrics[f"{name}.s"] = (get(name)["s"], "s")
    for name in SELF_SECONDS:
        metrics[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (get(name)["calls"], "count")
    metrics["features.eci.iterations"] = (get("features.eci")["attrs"].get("iterations", 0), "count")
    metrics["features.eci.failures"] = (get("features.eci")["errors"], "count")
    metrics["elasticnet.cv_solves"] = (get("elasticnet.en_cv")["attrs"].get("solves", 0), "count")
    metrics["elasticnet.en_fit.sweeps"] = (get("elasticnet.en_fit")["attrs"].get("sweeps", 0), "count")
    metrics["pipeline.skipped_replicates"] = (
        get("pipeline.bootstrap_ci")["attrs"].get("skipped", 0), "count")
    splits = result.splits.splits if result.splits is not None else ()
    classes = [failure_class(s.failed) for s in splits if s.failed is not None]
    metrics["evaluation.failed_splits"] = (len(classes), "count")
    for cls in SPLIT_FAILURES:
        metrics[f"evaluation.failed_splits.{cls}"] = (classes.count(cls), "count")
    maes = [s.mae_full for s in splits if s.failed is None]
    metrics["evaluation.mae_full"] = (statistics.median(maes) if maes else 0.0, "share")
    metrics["tracing.spans"] = (n_spans, "count")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run(args)
    for name, metric in record["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    worlds = record["world_builds"]
    print(f"{'failed_share':45s} {record['failed_share']:.6g} share "
          f"({record['failed'] + worlds['failed']} of "
          f"{record['attempted'] + worlds['attempted']} operations, "
          f"{worlds['failed']} of {worlds['attempted']} world builds) {record['failures']}")
    if record["world_seed_changed"]:
        print(f"warning: measured world seed {record['provenance']['world_seed_used']}, not "
              f"{w.MEASURED_WORLD_SEED}; figures are not comparable with earlier runs",
              file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": not any(key.startswith("check.") for key in record["failures"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
