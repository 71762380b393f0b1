"""Model-performance protocol: repeated country-held-out splits.

Each split withholds a random 20% of countries together with all their
regions, tunes the elastic net by cross-validation on the remaining
countries only, fits the baseline and the full model, and scores both on
the withheld rows.  Hyperparameter tuning never sees a test row, and the
lag-fill hierarchy is restricted to training-visible labels, so a test
country's income enters only as ground truth.  The full model runs the
estimation loop itself, :func:`pipeline.fit_periods`, so its lag column
chains through the rescaled levels exactly as ``estimate``'s does; it is
scored on its own prediction before rescaling.  The baseline chains its
previous-period estimates through its own store.  Splits are independent,
so they run period-major in batches: one period loop advances a batch of
splits together and solves a period's cross-validations of all of them in
one stacked solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data_ingest import Dataset, LocationTable, format_float, parse_field, read_table
from .data_ingest import write_json, write_table
from .errors import HistGdpError, ValidationError
from .features import initial_gdp
from .numerics import kruskal_wallis, mae_relative, pearson, quantile, r2_log
from .pipeline import build_statics, fit_baseline, fit_periods, fitted_periods
# benchmarks/tracing.py wraps these names under this module
from .features import build_static_features  # noqa: F401
from .pipeline import predict_gated, train_period  # noqa: F401
from .rng import child_seed

MIN_COUNTRIES = 5
MIN_TEST_ROWS = 5
# Byte budget of what one batch of splits holds per period through its
# stacked CV solve (see split_batch_size): 9 splits of the benchmark's
# evaluate config, so 16 run as 2 batches of 8, and 1 at the paper's 11
# alphas x 100 lambdas x 10 folds, where one split holds 1.3 MB.
BATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class SplitSpec:
    """One held-out test set: countries plus all their regions."""

    seed: int
    test_countries: tuple
    test_locations: tuple


def split_countries(countries, fraction: float = 0.2, seed: int = 0,
                    locations: LocationTable | None = None) -> SplitSpec:
    """Draw ``ceil(fraction * n)`` test countries uniformly without
    replacement; their regions are attached automatically."""
    countries = sorted(countries)
    if len(countries) < MIN_COUNTRIES:
        raise ValidationError(
            f"split_countries: need at least {MIN_COUNTRIES} countries, "
            f"got {len(countries)}"
        )
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"split_countries: fraction {fraction} outside (0, 1)")
    n_test = math.ceil(fraction * len(countries))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(countries), size=n_test, replace=False).tolist())
    test_countries = tuple(countries[i] for i in chosen)
    test_locations = list(test_countries)
    if locations is not None:
        for c in test_countries:
            test_locations.extend(locations.regions_of(c))
    return SplitSpec(
        seed=seed, test_countries=test_countries, test_locations=tuple(sorted(test_locations))
    )


@dataclass(frozen=True)
class SplitMetrics:
    split_index: int
    seed: int
    r2_baseline: float | None = None
    r2_full: float | None = None
    mae_baseline: float | None = None
    mae_full: float | None = None
    n_test_rows: int = 0
    n_gated_test: int = 0
    per_period_mae_full: dict = field(default_factory=dict)
    failed: str | None = None


@dataclass(frozen=True)
class PerformanceDistribution:
    splits: tuple
    medians: dict
    iqr: dict
    kw: dict  # metric -> {"h": ..., "p": ...}
    n_failed: int


def summarize_performance(splits) -> PerformanceDistribution:
    """Aggregate per-split metrics: medians, interquartile ranges, and
    Kruskal-Wallis tests of baseline-vs-full on each metric."""
    splits = tuple(splits)
    ok = [s for s in splits if s.failed is None]
    medians: dict = {}
    iqr: dict = {}
    kw: dict = {}
    if ok:
        series = {
            "r2_baseline": [s.r2_baseline for s in ok],
            "r2_full": [s.r2_full for s in ok],
            "mae_baseline": [s.mae_baseline for s in ok],
            "mae_full": [s.mae_full for s in ok],
        }
        for name, values in series.items():
            medians[name] = quantile(values, 0.5)
            iqr[name] = quantile(values, 0.75) - quantile(values, 0.25)
        for metric in ("r2", "mae"):
            h, p = kruskal_wallis(
                [series[f"{metric}_baseline"], series[f"{metric}_full"]]
            )
            kw[metric] = {"h": h, "p": p}
    return PerformanceDistribution(
        splits=splits,
        medians=medians,
        iqr=iqr,
        kw=kw,
        n_failed=len(splits) - len(ok),
    )


@dataclass
class HeldOutSplit:
    """One split's state across the period loop: its seed, the levels it
    trains on, its test rows, the baseline's lag store, and the rows scored
    so far (period id -> [(full, baseline, observed)] in log10)."""

    index: int
    seed: int
    train_source: dict
    test_keys: set
    base_store: dict = field(default_factory=dict)
    scored: dict = field(default_factory=dict)
    n_gated_test: int = 0


def open_split(dataset: Dataset, config: RunConfig, split_index: int,
               master_seed: int) -> HeldOutSplit:
    """Draw split ``split_index``'s test countries and withhold their levels."""
    locations = dataset.locations
    split_seed = child_seed(master_seed, "split", split_index)
    spec = split_countries(
        locations.countries(), config.test_fraction, split_seed, locations
    )
    test_locs = set(spec.test_locations)
    source = dataset.source_levels
    return HeldOutSplit(
        index=split_index,
        seed=split_seed,
        train_source={k: v for k, v in source.items() if k[0] not in test_locs},
        test_keys={k for k in source if k[0] in test_locs},
    )


def score_period(dataset: Dataset, split: HeldOutSplit, fit) -> None:
    """A split's stage of one fitted period: check that no test row reached
    the tuning matrix, fit the baseline, and score both models on the
    period's test rows."""
    locations = dataset.locations
    period = fit.period
    # no-leakage guarantee: the tuning matrix rows are disjoint from test keys
    leaked = set(fit.labels) & split.test_keys
    if leaked:
        raise ValidationError(
            f"split {split.index}: {len(leaked)} test row(s) reached the tuning "
            f"matrix, first {min(leaked)}"
        )

    def base_lag(lid):
        if period.prev_end is None:
            return None
        return initial_gdp(lid, period.prev_end, split.train_source, split.base_store,
                           locations)[0]

    base_keys = sorted(fit.labels)
    y_train = [math.log10(fit.labels[k]) for k in base_keys]
    base_init = None if period.prev_end is None else [base_lag(lid) for lid, _ in base_keys]
    baseline = fit_baseline(base_keys, y_train, base_init, locations, period)
    # the full model is scored on its own prediction, before regional rescaling
    en_preds = fit.predictions
    base_preds = {
        (lid, year): baseline.predict_one(locations.supra_of(lid), year, base_lag(lid))
        for lid, year in sorted(en_preds)
    }
    split.base_store.update({k: 10.0 ** v for k, v in base_preds.items()})

    gated_set = set(fit.gated)
    source = dataset.source_levels
    for key in sorted(k for k in split.test_keys if k[1] in period.snapshots):
        if key in gated_set:
            split.n_gated_test += 1
        elif key in en_preds:
            split.scored.setdefault(period.period_id, []).append(
                (en_preds[key], base_preds[key], math.log10(source[key]))
            )


def split_metrics(split: HeldOutSplit) -> SplitMetrics:
    """A scored split's metrics; failed when it has too few test rows."""
    rows = [row for rs in split.scored.values() for row in rs]
    if len(rows) < MIN_TEST_ROWS:
        return SplitMetrics(
            split_index=split.index,
            seed=split.seed,
            n_test_rows=len(rows),
            n_gated_test=split.n_gated_test,
            failed=f"only {len(rows)} usable test rows (< {MIN_TEST_ROWS})",
        )
    en_log, base_log, obs_log = (np.array(column) for column in zip(*rows))
    obs_level = np.power(10.0, obs_log)
    per_period_mae = {
        pid: mae_relative(np.power(10.0, [r[0] for r in rs]), np.power(10.0, [r[2] for r in rs]))
        for pid, rs in split.scored.items()
    }
    return SplitMetrics(
        split_index=split.index,
        seed=split.seed,
        r2_baseline=r2_log(base_log, obs_log),
        r2_full=r2_log(en_log, obs_log),
        mae_baseline=mae_relative(np.power(10.0, base_log), obs_level),
        mae_full=mae_relative(np.power(10.0, en_log), obs_level),
        n_test_rows=len(rows),
        n_gated_test=split.n_gated_test,
        per_period_mae_full=per_period_mae,
    )


def run_single_split(
    dataset: Dataset,
    config: RunConfig,
    statics: dict,
    split_index: int,
    master_seed: int,
) -> SplitMetrics:
    """One split of the protocol: hold out countries, tune, fit, score.
    The batch of one of :func:`evaluate_batch`."""
    return evaluate_batch(dataset, config, statics, [split_index], master_seed)[0]


def evaluate_batch(dataset: Dataset, config: RunConfig, statics: dict, split_indices,
                   master_seed: int) -> list:
    """Splits run period-major: one :func:`pipeline.fit_periods` batch, so
    every period's cross-validations of all the splits are one stacked
    solve.  A split whose own stages raise a :class:`HistGdpError` is
    recorded as failed with its reason, and the others go on; any other
    exception propagates, as does one from :func:`open_split`.  Returns
    the splits' metrics in index order.
    """
    splits = [open_split(dataset, config, i, master_seed) for i in split_indices]
    failures: dict = {}
    runs = [(s.train_source, s.seed) for s in splits]
    for fit in fit_periods(dataset, config, runs, statics, failures):
        try:
            score_period(dataset, splits[fit.run], fit)
        except HistGdpError as err:  # an expected failure; bugs still raise
            failures[fit.run] = err
    return [
        SplitMetrics(
            split_index=split.index,
            seed=split.seed,
            failed=f"{type(failures[run]).__name__}: {failures[run]}",
        )
        if run in failures else split_metrics(split)
        for run, split in enumerate(splits)
    ]


def split_batch_size(config: RunConfig, width: int) -> int:
    """The most splits :func:`evaluate_models` advances together: as many
    as keep what their stacked CV solve holds within ``BATCH_BYTES``, at
    least one.

    Per split and period that is ``k + 1`` Gram systems of ``width``
    columns, ``(k + 1) * width**2`` floats, and the full-data path over
    every alpha and lambda, ``A * L * width`` floats.  The folds' paths
    are left out: they are scored as they are solved, at most
    ``elasticnet._SCORE_BURST`` lambdas of each at a time, and never kept.
    """
    systems = config.k_folds + 1
    paths = len(config.alpha_grid) * config.n_lambda
    return max(1, BATCH_BYTES // (8 * width * (systems * width + paths)))


def split_batches(config: RunConfig, width: int, n_splits: int) -> list:
    """Split indices ``0 .. n_splits - 1`` cut into the fewest batches of
    at most :func:`split_batch_size`, as equal in size as they can be."""
    n_batches = -(-n_splits // split_batch_size(config, width))
    bounds = [n_splits * b // n_batches for b in range(n_batches + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def evaluate_models(
    dataset: Dataset,
    config: RunConfig,
    n_splits: int | None = None,
    master_seed: int | None = None,
    statics: dict | None = None,
) -> PerformanceDistribution:
    """Repeat the country-held-out protocol over independently seeded splits.

    The splits run in the batches of :func:`split_batches` through
    :func:`evaluate_batch`.  Each split's result is independent of the
    batch it ran in, up to the rounding of the stacked solve.  A split
    that raises a :class:`HistGdpError` is recorded as failed with its
    reason, never silently dropped; any other exception propagates.  A
    prebuilt ``statics`` cache (built with the same feature settings)
    lets repeated evaluations on one dataset skip feature construction.
    A dataset with fewer than ``MIN_COUNTRIES`` countries, which every
    split would reject, raises :class:`ValidationError` before any work.
    """
    n_countries = len(dataset.locations.countries())
    if n_countries < MIN_COUNTRIES:
        raise ValidationError(
            f"evaluate_models: need at least {MIN_COUNTRIES} countries to hold out, "
            f"got {n_countries}"
        )
    if n_splits is None:
        n_splits = config.n_splits
    if master_seed is None:
        master_seed = config.seed
    years = [y for p in fitted_periods(dataset.source_levels) for y in p.snapshots]
    statics = build_statics(dataset, config, years, {} if statics is None else statics)
    # the design's widest: every feature column plus the lag column
    width = 1 + max((len(statics[y].matrix.columns) for y in years), default=0)
    splits = []
    for indices in split_batches(config, width, n_splits):
        splits.extend(evaluate_batch(dataset, config, statics, indices, master_seed))
    return summarize_performance(splits)


@dataclass(frozen=True)
class ProxyCorrelation:
    r: float
    n: int
    r_source: float | None
    n_source: int
    r_estimate: float | None
    n_estimate: int


def proxy_correlation(estimates, proxy_rows, transform: str = "none") -> ProxyCorrelation:
    """Pearson correlation between estimates and an external proxy series.

    Joins on (location, year); the transform applies to the GDP estimate.
    Correlations are also reported separately for source-backed and
    model-estimated rows (None when a subset has fewer than 3 matches).
    """
    if transform not in ("none", "log10"):
        raise ValidationError(f"unknown transform '{transform}'")
    by_key = {(e.location_id, e.year): e for e in estimates}
    pairs = []
    for lid, year, value in proxy_rows:
        rec = by_key.get((lid, int(year)))
        if rec is None:
            continue
        x = math.log10(rec.gdp_pc) if transform == "log10" else rec.gdp_pc
        pairs.append((x, float(value), rec.kind))
    if len(pairs) < 3:
        raise ValidationError(
            f"proxy_correlation: only {len(pairs)} matched (location, year) pairs"
        )

    def corr(subset):
        if len(subset) < 3:
            return None
        return pearson([p[0] for p in subset], [p[1] for p in subset])

    source_pairs = [p for p in pairs if p[2] == "source"]
    estimate_pairs = [p for p in pairs if p[2] == "estimate"]
    return ProxyCorrelation(
        r=corr(pairs),
        n=len(pairs),
        r_source=corr(source_pairs),
        n_source=len(source_pairs),
        r_estimate=corr(estimate_pairs),
        n_estimate=len(estimate_pairs),
    )


PROXY_HEADER = ["location_id", "year", "value"]
EVALUATION_HEADER = [
    "split_index",
    "seed",
    "r2_baseline",
    "r2_full",
    "mae_baseline",
    "mae_full",
    "n_test_rows",
    "n_gated_test",
    "failed",
]


def load_proxy_csv(path):
    """Read a proxy series CSV with header ``location_id,year,value``.

    A row with the wrong field count, an unparseable number or a value that
    is not finite raises ValidationError at its line.
    """
    rows = []
    for line, row in read_table(path, PROXY_HEADER, "proxy"):
        if len(row) != len(PROXY_HEADER):
            raise ValidationError(f"{path}:{line}: wrong field count")
        lid, year, value = row
        number = parse_field(value, float, "value", path, line)
        if not math.isfinite(number):
            raise ValidationError(f"{path}:{line}: value must be finite, got '{value}'")
        rows.append((lid.strip(), parse_field(year, int, "year", path, line), number))
    return rows


def write_evaluation_csv(dist: PerformanceDistribution, path):
    def fmt(v):
        return "" if v is None else format_float(v)

    write_table(
        path,
        EVALUATION_HEADER,
        (
            [
                s.split_index,
                s.seed,
                fmt(s.r2_baseline),
                fmt(s.r2_full),
                fmt(s.mae_baseline),
                fmt(s.mae_full),
                s.n_test_rows,
                s.n_gated_test,
                s.failed or "",
            ]
            for s in dist.splits
        ),
    )


def write_evaluation_summary(dist: PerformanceDistribution, path):
    """Write the distribution's medians, IQRs, Kruskal-Wallis tests and
    per-period median MAE as JSON.  Every float is rounded to 6 significant
    digits, as in ``evaluation.csv``, so the file's bytes follow the
    results rather than the solver's last bits."""

    def sig6(values: dict) -> dict:
        return {k: float(format_float(v)) for k, v in values.items()}

    ok = [s for s in dist.splits if s.failed is None]
    per_period: dict = {}
    for s in ok:
        for pid, value in s.per_period_mae_full.items():
            per_period.setdefault(pid, []).append(value)
    doc = {
        "n_splits": len(dist.splits),
        "n_failed": dist.n_failed,
        "medians": sig6(dist.medians),
        "iqr": sig6(dist.iqr),
        "kruskal_wallis": {metric: sig6(test) for metric, test in dist.kw.items()},
        "median_mae_full_by_period": sig6(
            {pid: quantile(values, 0.5) for pid, values in sorted(per_period.items())}
        ),
        "total_gated_test_rows": sum(s.n_gated_test for s in dist.splits),
    }
    write_json(path, doc)
