"""Benchmark workloads: synthetic inputs, one timed pass each, output checks.

Every workload builds its world with ``make_synthetic_world``, writes it
as the three input CSV files and loads them back with ``load_dataset``;
that is the set-up.  A pass is the unit of timed work, and every pass's
outputs are checked.  World builds that raise count as failed operations,
so the ECI defect stays visible instead of being skipped by choosing seeds.

The world seeds are the fixed stream 0, 1, 2, ... (first success wins) for
every ``--seed``: the cost of a pass differs by about a third between
worlds of one shape (see README.md), far more than a regression bound can
absorb.  For the same reason a change that makes another seed the first
to build re-baselines the benchmark; the results record flags it against
``MEASURED_WORLD_SEED``.
``--seed`` drives everything stochastic inside a pass instead: CV fold
shuffles, bootstrap resamples and held-out country splits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from histgdp.config import RunConfig
from histgdp.data_ingest import load_dataset
from histgdp.errors import HistGdpError
from histgdp.evaluation import evaluate_models, write_evaluation_csv, write_evaluation_summary
from histgdp.features import build_static_features
from histgdp.pipeline import (
    PERIODS,
    run_full,
    write_estimates_csv,
    write_run_report,
)
from histgdp.synthetic import make_synthetic_world, write_world_csv

WORLD_ATTEMPTS = 10
WORLD_PERIODS = ("late_middle_ages", "early_modern", "age_of_revolutions")
EVALUATE_SPLITS = 16  # held-out splits per evaluate pass
# The world every workload measures: seed 0 fails in features.eci on all
# three shapes, so seed 1 is the first that builds.
MEASURED_WORLD_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    n_countries: int
    n_regions_per_country: int
    label_fraction: float
    config: dict  # RunConfig fields besides seed, threads and output_dir
    item: str  # what items_per_s counts
    n_occupations: int = 10
    # Accuracy guard (evaluate): the largest median relative MAE of the
    # full model that passes the output check.
    mae_full_ceiling: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate", 40, 2, 0.6,
            {"alpha_grid": (0.0, 0.5, 1.0), "n_lambda": 10, "lambda_ratio": 1e-2,
             "k_folds": 5, "bootstrap_samples": 50},
            "estimate rows",
        ),
        Workload(
            "evaluate", 40, 0, 1.0,
            {"alpha_grid": (0.5, 1.0), "n_lambda": 12, "lambda_ratio": 1e-2, "k_folds": 3},
            "held-out splits completed",
            # 0.107-0.117 over --seed 1..20; this is the largest times 1.2.
            mae_full_ceiling=0.14,
        ),
        Workload(
            "features", 60, 3, 0.6, {},
            "feature rows",
        ),
    )
}


@dataclass
class Operations:
    """Attempted and failed operations by kind, with failure reasons."""

    attempted: dict = field(default_factory=dict)  # kind -> count
    failed: dict = field(default_factory=dict)  # kind -> count
    failures: dict = field(default_factory=dict)  # "kind:reason" -> count

    def record(self, kind: str, ok: bool, reason: str = ""):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            key = f"{kind}:{reason}" if reason else kind
            self.failures[key] = self.failures.get(key, 0) + 1

    def totals(self, exclude=()) -> tuple:
        """(attempted, failed) summed over every kind not excluded."""
        return (
            sum(n for kind, n in self.attempted.items() if kind not in exclude),
            sum(n for kind, n in self.failed.items() if kind not in exclude),
        )

    @property
    def failed_share(self) -> float:
        attempted, failed = self.totals()
        return failed / attempted if attempted else 0.0


@dataclass
class Context:
    workload: Workload
    seed: int
    config: RunConfig
    dataset: object
    world_attempts: list  # [{"seed", "outcome"}]
    run_dir: Path


def run_config(workload: Workload, seed: int) -> RunConfig:
    return RunConfig(seed=seed, threads=1, **workload.config)


def build_world(workload: Workload, tracer, ops: Operations):
    """First world of the fixed seed stream that builds; each failure is a
    failed operation tagged with its error class."""
    attempts = []
    for world_seed in range(WORLD_ATTEMPTS):
        with tracer.span("synthetic.make_world", seed=world_seed) as span:
            try:
                world = make_synthetic_world(
                    workload.n_countries,
                    workload.n_occupations,
                    WORLD_PERIODS,
                    seed=world_seed,
                    n_regions_per_country=workload.n_regions_per_country,
                    label_fraction=workload.label_fraction,
                )
            except HistGdpError as err:
                span.error = type(err).__name__
                attempts.append({"seed": world_seed, "outcome": span.error})
                ops.record("world", False, span.error)
                continue
        attempts.append({"seed": world_seed, "outcome": "ok"})
        ops.record("world", True)
        return world, attempts
    raise SystemExit(
        f"{workload.name}: no world built in {WORLD_ATTEMPTS} attempts: {attempts}"
    )


def setup(workload: Workload, seed: int, run_dir: Path, tracer, ops: Operations) -> Context:
    """World build (failures included), CSV round trip and load_dataset."""
    with tracer.span("setup"):
        world, attempts = build_world(workload, tracer, ops)
        with tracer.span("synthetic.write_world_csv"):
            paths = write_world_csv(world.dataset, run_dir / "input")
        config = run_config(workload, seed)
        with tracer.span("data_ingest.load_dataset"):
            dataset = load_dataset(
                paths["biographies"], paths["locations"], paths["gdp"],
                min_birth_year=config.min_birth_year,
                max_reject_fraction=config.max_reject_fraction,
            )
    return Context(workload, seed, config, dataset, attempts, run_dir)


@dataclass
class PassResult:
    items: int
    outputs: dict  # name -> bytes compared across passes
    problems: list  # failed output checks as (check, reason)
    splits: object = None  # evaluate: the PerformanceDistribution


def _strip_output_dir(report_bytes: bytes) -> bytes:
    doc = json.loads(report_bytes)
    doc["config"].pop("output_dir", None)
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_estimate(outputs: dict) -> list:
    """Audit clean and non-empty; every row finite with ci_low <= ci_high."""
    problems = []
    audit = json.loads(outputs["run_report.json"])["rescale_audit"]
    if audit["violations"] or audit["checked"] < 1:
        problems.append(("rescale_audit", f"checked {audit['checked']}, "
                         f"{len(audit['violations'])} violations"))
    bad = []
    for row in _csv_rows(outputs["estimates.csv"]):
        values = [float(row[k]) for k in ("gdp_pc_2011usd", "ci_low", "ci_high")]
        if not all(math.isfinite(v) for v in values) or values[1] > values[2]:
            bad.append((row["location_id"], row["year"]))
    if bad:
        problems.append(("estimate_rows", f"{len(bad)} rows non-finite or ci_low > ci_high, "
                         f"first {bad[0]}"))
    return problems


def estimate_pass(ctx: Context, pass_dir: Path, tracer) -> PassResult:
    config = replace(ctx.config, output_dir=str(pass_dir))
    pass_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("pipeline.run_full"):
        result = run_full(ctx.dataset, config)
    with tracer.span("pipeline.write_outputs"):
        write_estimates_csv(result.estimates, pass_dir / "estimates.csv")
        write_run_report(result.report, pass_dir / "run_report.json")
    outputs = {
        "estimates.csv": (pass_dir / "estimates.csv").read_bytes(),
        "run_report.json": _strip_output_dir((pass_dir / "run_report.json").read_bytes()),
    }
    n_estimates = sum(row["kind"] == "estimate" for row in _csv_rows(outputs["estimates.csv"]))
    return PassResult(n_estimates, outputs, check_estimate(outputs))


def check_evaluate(outputs: dict, n_splits: int, mae_ceiling: float) -> list:
    """Every split present, every failed split recorded with its reason,
    the summary's failure count agreeing, the full model beating the
    baseline on median R2 and MAE, and its median MAE at most
    ``mae_ceiling``."""
    problems = []
    rows = _csv_rows(outputs["evaluation.csv"])
    summary = json.loads(outputs["evaluation_summary.json"])
    if len(rows) != n_splits or summary["n_splits"] != n_splits:
        problems.append(("splits", f"{len(rows)} rows, summary {summary['n_splits']}, "
                         f"expected {n_splits}"))
    failed = [r for r in rows if r["failed"]]
    unexplained = [r["split_index"] for r in rows if not r["failed"] and r["mae_full"] == ""]
    if unexplained or summary["n_failed"] != len(failed):
        problems.append(("failed_splits", f"summary n_failed {summary['n_failed']}, "
                         f"{len(failed)} recorded, unexplained {unexplained}"))
    medians = summary["medians"]
    if len(failed) < len(rows) and not (
        medians["r2_full"] > medians["r2_baseline"]
        and medians["mae_full"] < medians["mae_baseline"]
    ):
        problems.append(("full_beats_baseline", f"medians {medians}"))
    if len(failed) < len(rows) and not medians["mae_full"] <= mae_ceiling:
        problems.append(("mae_full_ceiling", f"median mae_full {medians['mae_full']} "
                         f"> {mae_ceiling}"))
    return problems


def evaluate_pass(ctx: Context, pass_dir: Path, tracer) -> PassResult:
    pass_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("evaluation.evaluate_models"):
        dist = evaluate_models(
            ctx.dataset, ctx.config, n_splits=EVALUATE_SPLITS, master_seed=ctx.seed
        )
    with tracer.span("evaluation.write_outputs"):
        write_evaluation_csv(dist, pass_dir / "evaluation.csv")
        write_evaluation_summary(dist, pass_dir / "evaluation_summary.json")
    outputs = {
        name: (pass_dir / name).read_bytes()
        for name in ("evaluation.csv", "evaluation_summary.json")
    }
    completed = sum(split.failed is None for split in dist.splits)
    problems = check_evaluate(outputs, EVALUATE_SPLITS, ctx.workload.mae_full_ceiling)
    return PassResult(completed, outputs, problems, dist)


def snapshot_years() -> tuple:
    return tuple(y for p in PERIODS if p.period_id in WORLD_PERIODS for y in p.snapshots)


def matrix_digest(fm) -> bytes:
    h = hashlib.sha256()
    h.update(repr((fm.row_keys, fm.columns, fm.values.shape)).encode())
    h.update(fm.values.tobytes())
    return h.hexdigest().encode()


def check_features(matrices: dict, location_ids) -> list:
    """One row per location in every snapshot year."""
    expected = sorted(location_ids)
    problems = []
    for year, fm in sorted(matrices.items()):
        got = [lid for lid, y in fm.row_keys if y == year]
        if sorted(got) != expected or len(fm.row_keys) != len(expected):
            problems.append(("rows", f"{year}: {len(fm.row_keys)} rows for "
                             f"{len(expected)} locations"))
    return problems


def features_pass(ctx: Context, pass_dir: Path, tracer) -> PassResult:
    config = ctx.config
    matrices = {}
    for year in snapshot_years():
        with tracer.span("features.build_static", year=year):
            static = build_static_features(
                year, ctx.dataset,
                window_years=config.window_years,
                scale=config.scale,
                reference_year=config.reference_year_for_age,
            )
        matrices[year] = static.matrix
    outputs = {f"features_{year}": matrix_digest(fm) for year, fm in matrices.items()}
    problems = check_features(matrices, ctx.dataset.locations.ids())
    return PassResult(sum(len(fm.row_keys) for fm in matrices.values()), outputs, problems)


PASSES = {"estimate": estimate_pass, "evaluate": evaluate_pass, "features": features_pass}
# Output checks each pass runs; "identical" applies from the second pass on.
CHECKS = {
    "estimate": {"rescale_audit", "estimate_rows"},
    "evaluate": {"splits", "failed_splits", "full_beats_baseline", "mae_full_ceiling"},
    "features": {"rows"},
}


def check_identical(first: dict, current: dict) -> list:
    """Outputs of a later pass must equal the first pass's, byte for byte."""
    changed = sorted(name for name in first if first[name] != current.get(name))
    return [("identical", f"differs from the first pass: {changed}")] if changed else []
