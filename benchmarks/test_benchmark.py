"""Tests of the benchmark's own code: span arithmetic, the percentile rule,
operation counting, and that every output check rejects a tampered output.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the package sources on the path)
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 10.0) == 0.0
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    # children reaching outside the parent only count inside it
    assert tracing.covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_and_light_counters():
    spans = [
        Span("root", 0.0, None, end=10.0),
        Span("a", 1.0, 0, end=4.0),
        Span("a.child", 2.0, 1, end=3.0),
        Span("b", 5.0, 0, end=9.0),
    ]
    light = {(3, "hot"): [1000, 1.5], (None, "outside"): [1, 9.0]}
    assert tracing.self_times(spans, light) == pytest.approx([3.0, 2.0, 1.0, 2.5])


def test_tracer_records_parents_errors_and_layer_totals():
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("x", n=2):
            tracer.add_light("hot", 0.0)
            tracer.add_light("hot", 0.0)
        with pytest.raises(ValueError):
            with tracer.span("x", n=3):
                raise ValueError
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[2].error == "ValueError"
    totals = tracing.layer_totals(tracer, 0, len(tracer.spans))
    assert totals["x"]["calls"] == 2 and totals["x"]["errors"] == 1
    assert totals["x"]["attrs"] == {"n": 5}
    assert totals["hot"]["calls"] == 2
    # a later slice leaves the earlier spans out
    assert set(tracing.layer_totals(tracer, 1, 2)) == {"x", "hot"}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50
    assert tracing.tail_percentile(40) == 75
    assert tracing.tail_percentile(199) == 90
    assert tracing.tail_percentile(200) == 95
    assert tracing.tail_percentile(1000) == 99


def test_failed_share_counts_failures_against_attempts():
    ops = w.Operations()
    assert ops.failed_share == 0.0
    ops.record("world", False, "NumericalError")
    ops.record("world", True)
    ops.record("pass", True)
    ops.record("check.rows", False)
    assert ops.totals() == (4, 2) and ops.failed_share == 0.5
    assert ops.totals(exclude=("world",)) == (2, 1)
    assert ops.failures == {"world:NumericalError": 1, "check.rows": 1}


def test_failure_class_of_split_reasons():
    assert run.failure_class(None) == ""
    assert run.failure_class("NumericalError: eci did not converge") == "NumericalError"
    assert run.failure_class("only 3 usable test rows (< 5)") == "too_few_test_rows"
    assert run.failure_class("something else") == "other"


def test_instrumented_restores_the_original_names():
    import histgdp.features
    import histgdp.pipeline

    before = (histgdp.pipeline.en_cv, histgdp.features.hpi_weight)
    with tracing.instrumented(Tracer()):
        assert histgdp.pipeline.en_cv is not before[0]
    assert (histgdp.pipeline.en_cv, histgdp.features.hpi_weight) == before


# Tiny worlds of each workload: the same code paths in well under a second per pass.
TINY = {
    "estimate": replace(
        w.WORKLOADS["estimate"], n_countries=8, n_regions_per_country=1, n_occupations=8,
        config={"alpha_grid": (0.5, 1.0), "n_lambda": 4, "lambda_ratio": 1e-1,
                "k_folds": 2, "bootstrap_samples": 50},
    ),
    "evaluate": replace(
        w.WORKLOADS["evaluate"], n_countries=10, n_occupations=8,
        config={"alpha_grid": (1.0,), "n_lambda": 4, "lambda_ratio": 1e-1, "k_folds": 2},
        mae_full_ceiling=0.5,  # ten countries fit worse than forty
    ),
    "features": replace(w.WORKLOADS["features"], n_countries=6, n_regions_per_country=2,
                        n_occupations=8),
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Set-up plus two traced passes of every tiny workload."""
    runs = {}
    for name, workload in TINY.items():
        tracer, ops = Tracer(), w.Operations()
        ctx = w.setup(workload, 7, tmp_path_factory.mktemp(name), tracer, ops)
        setup_spans = len(tracer.spans)
        passes, layer_runs = [], []
        with tracing.instrumented(tracer):
            for i in range(2):
                first = len(tracer.spans)
                result = w.PASSES[name](ctx, ctx.run_dir / f"pass{i}", tracer)
                passes.append(result)
                layer_runs.append((tracing.layer_totals(tracer, first, len(tracer.spans)),
                                   result, len(tracer.spans) - first))
        runs[name] = SimpleNamespace(ctx=ctx, passes=passes, tracer=tracer, ops=ops,
                                     setup_spans=setup_spans, layer_runs=layer_runs)
    return runs


def test_tiny_passes_pass_their_checks(tiny_runs):
    for name, r in tiny_runs.items():
        assert r.ops.attempted["world"] - r.ops.failed.get("world", 0) == 1, name
        assert r.ctx.world_attempts[-1]["outcome"] == "ok"
        for result in r.passes:
            assert result.problems == [], name
            assert result.items > 0
        assert w.check_identical(r.passes[0].outputs, r.passes[1].outputs) == []


def test_evaluate_items_count_completed_splits_only(tiny_runs):
    result = tiny_runs["evaluate"].passes[0]
    completed = [s for s in result.splits.splits if s.failed is None]
    assert result.items == len(completed) > 0


def test_measured_world_seed_is_the_first_that_built():
    attempts = [{"seed": 0, "outcome": "NumericalError"}, {"seed": 1, "outcome": "ok"}]
    assert run.measured_world_seed(attempts) == 1
    assert run.measured_world_seed([{"seed": 0, "outcome": "ok"}]) == 0


def test_traced_counts_repeat_between_passes(tiny_runs):
    counts = [
        (totals["features.hpi_weight"]["calls"],
         totals["elasticnet.en_cv"]["attrs"]["solves"],
         totals["elasticnet.en_fit"]["attrs"]["sweeps"],
         totals["features.eci"]["attrs"]["iterations"])
        for totals, _result, _n in tiny_runs["estimate"].layer_runs
    ]
    assert counts[0] == counts[1]
    assert counts[0][1] == 3 * 2 * 2 * 4  # periods x alphas x folds x lambdas


def test_metric_names_match_benchmark_json(tiny_runs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for r in tiny_runs.values():
        metrics = run.per_layer_metrics(r.tracer, r.setup_spans, r.layer_runs,
                                        r.ctx.dataset)
        metrics["tracing.overhead_s"] = metrics["tracing.overhead_share"] = (0.0, "")
        assert set(metrics) == set(declared)
        assert all(unit == declared[name] for name, (_v, unit) in metrics.items() if unit)
    end_to_end = run.end_to_end_metrics([1.0], [2.0], 10)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_value, unit) in end_to_end.items()}


def _tamper(outputs: dict, name: str, edit) -> dict:
    return {**outputs, name: edit(outputs[name])}


def test_estimate_checks_reject_tampered_outputs(tiny_runs):
    outputs = tiny_runs["estimate"].passes[0].outputs

    def set_first_estimate(data, **cells):
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        next(r for r in rows if r["kind"] == "estimate").update(cells)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue().encode()

    def violate(data):
        doc = json.loads(data)
        doc["rescale_audit"]["violations"] = [{"country": "C00", "year": 1300, "rel_error": 1.0}]
        return json.dumps(doc).encode()

    assert w.check_estimate(outputs) == []
    bad_nan = _tamper(outputs, "estimates.csv",
                      lambda data: set_first_estimate(data, gdp_pc_2011usd="nan"))
    assert [c for c, _ in w.check_estimate(bad_nan)] == ["estimate_rows"]
    bad_ci = _tamper(outputs, "estimates.csv",
                     lambda data: set_first_estimate(data, ci_low="2e9", ci_high="1"))
    assert [c for c, _ in w.check_estimate(bad_ci)] == ["estimate_rows"]
    bad_audit = _tamper(outputs, "run_report.json", violate)
    assert [c for c, _ in w.check_estimate(bad_audit)] == ["rescale_audit"]
    assert [c for c, _ in w.check_identical(outputs, bad_ci)] == ["identical"]


def test_evaluate_checks_reject_tampered_outputs(tiny_runs):
    outputs = tiny_runs["evaluate"].passes[0].outputs
    n, ceiling = w.EVALUATE_SPLITS, TINY["evaluate"].mae_full_ceiling

    def drop_row(data):
        return b"\n".join(data.split(b"\n")[:-2]) + b"\n"

    def hide_failure(data):
        doc = json.loads(data)
        doc["n_failed"] += 1
        return json.dumps(doc).encode()

    def baseline_wins(data):
        doc = json.loads(data)
        m = doc["medians"]
        m["r2_full"], m["r2_baseline"] = m["r2_baseline"], m["r2_full"]
        return json.dumps(doc).encode()

    def loosen_fit(data):
        # worse than the ceiling, still better than the baseline
        doc = json.loads(data)
        m = doc["medians"]
        m["mae_full"] = ceiling * 1.01
        m["mae_baseline"] = max(m["mae_baseline"], 1.0)
        return json.dumps(doc).encode()

    assert w.check_evaluate(outputs, n, ceiling) == []
    short = _tamper(outputs, "evaluation.csv", drop_row)
    assert [c for c, _ in w.check_evaluate(short, n, ceiling)] == ["splits"]
    failed = _tamper(outputs, "evaluation_summary.json", hide_failure)
    assert [c for c, _ in w.check_evaluate(failed, n, ceiling)] == ["failed_splits"]
    worse = _tamper(outputs, "evaluation_summary.json", baseline_wins)
    assert [c for c, _ in w.check_evaluate(worse, n, ceiling)] == ["full_beats_baseline"]
    looser = _tamper(outputs, "evaluation_summary.json", loosen_fit)
    assert [c for c, _ in w.check_evaluate(looser, n, ceiling)] == ["mae_full_ceiling"]
    assert [c for c, _ in w.check_identical(outputs, worse)] == ["identical"]


def test_features_checks_reject_tampered_outputs(tiny_runs):
    ctx, passes = tiny_runs["features"].ctx, tiny_runs["features"].passes
    year = w.snapshot_years()[0]
    fm = w.build_static_features(year, ctx.dataset)
    ids = ctx.dataset.locations.ids()
    assert w.check_features({year: fm.matrix}, ids) == []
    short = replace(fm.matrix, row_keys=fm.matrix.row_keys[:-1], values=fm.matrix.values[:-1])
    assert [c for c, _ in w.check_features({year: short}, ids)] == ["rows"]
    changed = replace(fm.matrix, values=fm.matrix.values + 1e-12)
    outputs = passes[0].outputs
    tampered = {**outputs, f"features_{year}": w.matrix_digest(changed)}
    assert [c for c, _ in w.check_identical(outputs, tampered)] == ["identical"]
