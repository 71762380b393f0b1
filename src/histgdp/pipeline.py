"""Estimation pipeline: per-period training chained through the lag
hierarchy, gated prediction, regional rescaling, and bootstrap intervals.

Periods run strictly in chronological order because each period's
``init_gdp`` feature draws on the previous period's source data and model
estimates.  :func:`fit_periods` is that loop, shared by estimation, the
held-out evaluation, the feature export and the attributions; it runs a
batch of independent runs (held-out splits) in lockstep, and estimation
is a batch of one.  Within a period it stacks the snapshot years' static
features once, appends each run's lag column, trains the elastic net on
the labeled rows (one stacked cross-validation solve for the batch),
predicts the unlabeled location-years that pass the gating thresholds
and rescales regional estimates to their country values; :func:`run_full`
then attaches percentile-bootstrap confidence intervals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import MIN_BOOTSTRAP_SAMPLES, RunConfig
from .data_ingest import SNAPSHOT_YEARS, Dataset, LocationTable, format_float, parse_field
from .data_ingest import read_table, write_json, write_table
from .elasticnet import CvResult, EnModel, cv_design, en_cv, en_fit, fit_centered, solve_cv
from .errors import HistGdpError, NumericalError, ValidationError
from .features import (
    INIT_GDP_PROVENANCES,
    NEAR_DEGENERATE_GAP,
    FeatureMatrix,
    attach_initial_gdp,
    build_static_features,
    stack_features,
)
from .numerics import StandardizeResult, ols_fit, quantile, standardize
from .rng import child_rng, child_seed

MAX_RESAMPLE_ATTEMPTS = 100  # draws per replicate before a constant response is fatal


@dataclass(frozen=True)
class Period:
    period_id: str
    start: int
    end: int
    snapshots: tuple
    prev_end: int | None


PERIODS = (
    Period("late_middle_ages", 1300, 1500, (1300, 1350, 1400, 1450, 1500), None),
    Period("early_modern", 1501, 1750, (1550, 1600, 1650, 1700, 1750), 1500),
    Period("age_of_revolutions", 1751, 1850, (1800, 1850), 1750),
    Period("machine_age", 1851, 1950, (1900, 1950), 1850),
    Period("information_age", 2000, 2000, (2000,), 1950),
)
# The snapshots of PERIODS are data_ingest.SNAPSHOT_YEARS, re-exported here.


def fitted_periods(source: dict) -> list:
    """The periods, in order, with a labeled snapshot year in ``source``:
    the ones :func:`fit_periods` fits."""
    labeled_years = {year for (_, year) in source}
    return [p for p in PERIODS if labeled_years & set(p.snapshots)]


@dataclass(frozen=True)
class EstimateRecord:
    location_id: str
    year: int
    gdp_pc: float
    ci_low: float
    ci_high: float
    kind: str  # source | estimate
    rescaled: bool = False
    init_gdp_provenance: str = ""


@dataclass(frozen=True)
class TrainedPeriodModel:
    """A period's elastic net with the design it was fitted on.

    ``x`` holds the standardized training rows, one per ``training_keys``
    entry (``model.standardize_rows`` of their raw features), and ``y``
    their log10 levels; ``dropped_columns`` are the constant columns that
    standardization removed.
    """

    model: EnModel
    dropped_columns: tuple
    training_keys: tuple
    cv: CvResult
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class BaselineModel:
    """OLS with supranational-region x snapshot-year fixed effects plus the
    previous-period income level (absent for the earliest period)."""

    period_id: str
    cells: tuple
    cell_coefficients: np.ndarray
    intercept: float
    lag_coefficient: float | None
    rank_deficient: bool
    single_obs_cells: tuple
    _cell_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_cell_index", {c: k for k, c in enumerate(self.cells)})

    def predict_one(self, supra: str, year: int, init_log: float | None) -> float:
        value = self.intercept
        k = self._cell_index.get(f"{supra}|{year}")
        if k is not None:
            value += float(self.cell_coefficients[k])
        if self.lag_coefficient is not None:
            if init_log is None:
                raise ValidationError("baseline prediction needs an initial income value")
            value += self.lag_coefficient * init_log
        return value


def fit_baseline(labeled_keys, y_log, init_log, locations: LocationTable, period: Period) -> BaselineModel:
    """Fit the persistence-plus-fixed-effects baseline for one period.

    ``init_log`` is the per-row log10 previous-period income (None for the
    earliest period, which has no lag regressor).
    """
    keys = list(labeled_keys)
    if not keys:
        raise ValidationError(f"fit_baseline: no observations in period '{period.period_id}'")
    y = np.asarray(y_log, dtype=float)
    row_cells = [f"{locations.supra_of(lid)}|{year}" for lid, year in keys]
    cells = sorted(set(row_cells))
    column = {cell: k for k, cell in enumerate(cells)}
    design = np.zeros((len(keys), len(cells) + (0 if init_log is None else 1)))
    design[np.arange(len(keys)), [column[cell] for cell in row_cells]] = 1.0
    counts = Counter(row_cells)
    if init_log is not None:
        init = np.asarray(init_log, dtype=float)
        if init.size != len(keys):
            raise ValidationError("fit_baseline: init_log length must match rows")
        design[:, -1] = init
    fit = ols_fit(design, y)
    return BaselineModel(
        period_id=period.period_id,
        cells=tuple(cells),
        cell_coefficients=fit.coefficients[: len(cells)],
        intercept=fit.intercept,
        lag_coefficient=None if init_log is None else float(fit.coefficients[-1]),
        rank_deficient=fit.rank_deficient,
        single_obs_cells=tuple(c for c in cells if counts[c] == 1),
    )


@dataclass(frozen=True)
class PeriodDesign:
    """A period's labeled rows before cross-validation: their keys, their
    standardized features and their log10 levels."""

    training_keys: tuple
    std: StandardizeResult
    y: np.ndarray


def _cv_settings(config: RunConfig) -> dict:
    """The CV grid and selection rule of ``config``, as :func:`en_cv` and
    :func:`cv_design` take them."""
    return {
        "alpha_grid": config.alpha_grid,
        "k": config.k_folds,
        "n_lambda": config.n_lambda,
        "lambda_ratio": config.lambda_ratio,
        "selection_rule": config.cv_selection_rule,
    }


def period_design(
    period: Period,
    period_features: FeatureMatrix,
    labels: dict,
    config: RunConfig,
) -> PeriodDesign:
    """Check and standardize a period's labeled rows (``period_features``
    already holds the lag column, so no earlier period is read)."""
    labeled_keys = [k for k in period_features.row_keys if k in labels]
    bad_years = {year for _, year in labeled_keys} - set(period.snapshots)
    if bad_years:
        raise ValidationError(
            f"train_period: labels at {sorted(bad_years)} fall outside '{period.period_id}'"
        )
    if len(labeled_keys) < 2 * config.k_folds:
        raise ValidationError(
            f"train_period: period '{period.period_id}' has {len(labeled_keys)} labeled "
            f"rows, fewer than 2*k={2 * config.k_folds}; reduce k_folds"
        )
    y = np.array([math.log10(labels[k]) for k in labeled_keys])
    labeled = period_features.subset(labeled_keys)
    std = standardize(labeled.values, labeled.columns)
    return PeriodDesign(tuple(labeled_keys), std, y)


def fit_period_model(design: PeriodDesign, cv: CvResult) -> TrainedPeriodModel:
    """Fit the elastic net at the cell ``cv`` chose, starting from its
    full-data solution there."""
    std = design.std
    model = en_fit(
        std.values,
        design.y,
        cv.chosen_alpha,
        cv.chosen_lambda,
        warm_start=cv.chosen_coefficients,
        feature_names=std.columns,
        means=std.means,
        sds=std.sds,
    )
    return TrainedPeriodModel(
        model=model,
        dropped_columns=std.dropped,
        training_keys=design.training_keys,
        cv=cv,
        x=std.values,
        y=design.y,
    )


def train_period(
    period: Period,
    period_features: FeatureMatrix,
    labels: dict,
    config: RunConfig,
    seed: int,
) -> TrainedPeriodModel:
    """Cross-validate at ``seed`` and fit the elastic net on a period's
    labeled rows: :func:`period_design`, :func:`en_cv` and
    :func:`fit_period_model`."""
    design = period_design(period, period_features, labels, config)
    cv = en_cv(design.std.values, design.y, seed=seed, **_cv_settings(config))
    return fit_period_model(design, cv)


def predict_log10(tpm: TrainedPeriodModel, fm: FeatureMatrix, keys) -> np.ndarray:
    """Model predictions (log10 scale) for the given row keys of ``fm``.

    The rows are read by column name through
    :meth:`EnModel.standardize_rows`, so a missing model column raises
    :class:`ValidationError`.
    """
    sub = fm.subset(keys)
    std = tpm.model.standardize_rows(sub.values, sub.columns)
    return tpm.model.intercept + std @ tpm.model.coefficients


def predict_gated(
    tpm: TrainedPeriodModel,
    fm: FeatureMatrix,
    keys,
    gate_counts,
    config: RunConfig,
):
    """Predict only the keys that pass the gate (:meth:`RunConfig.passes_gate`).

    ``gate_counts`` maps a (location, year) key to its unweighted
    (births, deaths).  Returns (predictions by key in log10, gated keys).
    """
    passed, gated = [], []
    for key in keys:
        births, deaths = gate_counts(key)
        (passed if config.passes_gate(births, deaths, key[1]) else gated).append(key)
    predictions = {}
    if passed:
        values = predict_log10(tpm, fm, passed)
        predictions = dict(zip(passed, values.tolist()))
    return predictions, gated


def rescale_regions(regional_levels: dict, country_value: float, proxies: dict):
    """Scale regional estimates so their weighted mean hits the country value.

    Weights are the unweighted birth+death counts.  Returns the rescaled
    mapping and the common factor.
    """
    if not regional_levels:
        return {}, 1.0
    total = float(sum(proxies[r] for r in regional_levels))
    if total <= 0:
        raise ValidationError("rescale_regions: total population proxy is zero")
    weighted_mean = sum(proxies[r] * v for r, v in regional_levels.items()) / total
    c = country_value / weighted_mean
    return {r: c * v for r, v in regional_levels.items()}, c


def bootstrap_ci(
    x_train,
    y_train,
    alpha: float,
    lam: float,
    x_targets,
    start,
    *,
    n_samples: int = 200,
    level: float = 0.90,
    seed: int = 0,
    unit: str = "row",
    clusters=None,
    level_factors=None,
):
    """Percentile-bootstrap confidence intervals for target predictions.

    Resamples units with replacement and refits at the already-chosen
    hyperparameters.  A unit is a training row or, for ``unit="country"``, a
    ``clusters`` label; every row of a unit gets the unit's ``np.bincount``
    multiplicity in the replicate's row of weights, and one
    :func:`fit_centered` call solves them all, each starting from
    ``start``: the full-data fit's coefficients at these hyperparameters,
    which the period model already holds.  The intervals are quantiles of the level-scale
    predictions.  ``level_factors`` multiplies each target's replicate
    predictions (the regional rescaling factor).  A resample with a
    constant response is redrawn; a replicate that draws one
    ``MAX_RESAMPLE_ATTEMPTS`` times raises :class:`NumericalError`.
    Returns (ci_low, ci_high, skipped_replicates).
    """
    if n_samples < MIN_BOOTSTRAP_SAMPLES:
        raise ValidationError(f"bootstrap_ci: need at least {MIN_BOOTSTRAP_SAMPLES} samples")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"bootstrap_ci: level must lie in (0, 1), got {level}")
    x = np.asarray(x_train, dtype=float)
    y = np.asarray(y_train, dtype=float)
    targets = np.asarray(x_targets, dtype=float)
    n = x.shape[0]
    factors = np.ones(targets.shape[0]) if level_factors is None else np.asarray(level_factors)
    if unit == "row":
        unit_of = np.arange(n)  # each row's unit
    elif unit == "country" and clusters is not None:
        unit_of = np.unique(np.asarray(clusters), return_inverse=True)[1]  # in label order
    else:
        raise ValidationError(f"bootstrap_ci: unit must be row, or country with clusters: {unit}")
    n_units = int(unit_of.max()) + 1
    full_degenerate = bool(np.all(y == y[0]))

    weights = np.empty((n_samples, n))
    skipped = 0
    for b in range(n_samples):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS):
            rng = child_rng(seed, "bootstrap", b, attempt)
            drawn = np.bincount(rng.integers(0, n_units, n_units), minlength=n_units)[unit_of]
            kept = y[drawn > 0]
            degenerate = bool(np.all(kept == kept[0])) and not full_degenerate
            if not degenerate:
                break
            skipped += 1
        else:
            raise NumericalError(
                f"bootstrap_ci: replicate {b} drew a constant response in "
                f"{MAX_RESAMPLE_ATTEMPTS} resamples"
            )
        weights[b] = drawn
    betas, col_means, y_means = fit_centered(x, y, weights, alpha, lam, warm_start=start)[:3]
    predictions = np.empty((n_samples, targets.shape[0]))
    for b in range(n_samples):
        predictions[b] = y_means[b] + (targets - col_means[b]) @ betas[b]
    levels = np.power(10.0, predictions) * factors
    lo_p = (1.0 - level) / 2.0
    return quantile(levels, lo_p), quantile(levels, 1.0 - lo_p), skipped


def build_statics(dataset: Dataset, config: RunConfig, years, statics: dict) -> dict:
    """Add the label-independent feature block of every year missing from
    ``statics`` and return it; blocks already there are kept."""
    for year in years:
        if year not in statics:
            statics[year] = build_static_features(
                year, dataset, window_years=config.window_years, scale=config.scale,
                reference_year=config.reference_year_for_age,
            )
    return statics


@dataclass(frozen=True)
class PeriodFit:
    """One fitted period of one run of :func:`fit_periods`.

    ``run`` is the run's index in the batch.  ``features`` stacks the
    period's snapshot years, lag column included; ``labels`` are the
    training levels.  ``predictions`` holds the model's log10 value for
    every candidate row that passed the gate, before rescaling, and
    ``gated`` the rows that did not.  ``levels`` holds the same rows after
    regional rescaling, with their ``factors`` (1.0 for country rows).
    Every regional row is rescaled: gate counts roll regions up into their
    country and every gating rule is monotone in them, so the country of a
    region that passes the gate has a source value or an estimate.
    """

    run: int
    period: Period
    features: FeatureMatrix
    labels: dict
    model: TrainedPeriodModel
    gated: list
    predictions: dict
    levels: dict
    factors: dict


@dataclass
class _Run:
    """One run of :func:`fit_periods`: the levels it may see, its seed, the
    periods it fits, and its earlier periods' rescaled levels (the lag
    store)."""

    source: dict
    seed: int
    fitted: list
    store: dict = field(default_factory=dict)


def fit_periods(dataset: Dataset, config: RunConfig, runs, statics: dict, failures=None):
    """The chronological period loop over a batch of runs, and the one
    place that orders the periods.

    A run is a ``(source, seed)`` pair; ``source`` is every level the run
    may see: the whole dataset's for ``run_full``, the training countries'
    for a held-out split.  The runs advance in lockstep: every run fits a
    period before any run starts the next one, and each yields a
    :class:`PeriodFit` for every period with a labeled row in its source,
    in run order within a period.

    Features come from the ``statics`` cache, filled as the loop goes
    (see :func:`build_statics`), stacked once per period; each run appends
    its lag column, filled from its source and from its earlier periods'
    rescaled levels.  Period
    ``i`` of a run is tuned at ``child_seed(seed, "cv", i)``; the
    cross-validations of every run at one period are one :func:`solve_cv`
    call (a batch of one is :func:`train_period`, whose :func:`en_cv` is
    that call).  Each run then predicts its rows outside its source that
    pass the gate, and rescales regional estimates to their country's
    value (from the source, else the country's estimate).  The rescaled
    levels enter the run's lag store before the period is yielded.

    A :class:`HistGdpError` raised in one run's own stages propagates, or,
    when ``failures`` is a dict, ends that run alone: it is stored as
    ``failures[run]``.  Runs already in ``failures`` are skipped, so the
    consumer of the fits can end a run too.
    """
    state = [_Run(source, seed, fitted_periods(source)) for source, seed in runs]
    for index, period in enumerate(PERIODS):
        live = {
            r: run for r, run in enumerate(state)
            if period in run.fitted and (failures is None or r not in failures)
        }
        if live:
            build_statics(dataset, config, period.snapshots, statics)
            yield from _fit_period(dataset, config, index, live, statics, failures)


def _fit_period(dataset, config, index, live, statics, failures):
    """Period ``index`` of the runs in ``live`` for :func:`fit_periods`:
    each stage run by run, less the runs an earlier stage failed, with one
    CV solve for all."""
    period = PERIODS[index]

    def each(stage, items):
        out = {}
        for r, item in items.items():
            try:
                out[r] = stage(r, item)
            except HistGdpError as err:
                if failures is None:
                    raise
                failures[r] = err
        return out

    block = stack_features(statics[year].matrix for year in period.snapshots)
    inputs = each(lambda r, run: _period_inputs(dataset, period, run, block), live)
    seeds = {r: child_seed(live[r].seed, "cv", index) for r in inputs}
    if len(inputs) == 1:
        models = each(lambda r, item: train_period(period, *item, config, seed=seeds[r]), inputs)
    else:
        designs = each(lambda r, item: period_design(period, *item, config), inputs)
        cvs = each(
            lambda r, d: cv_design(d.std.values, d.y, seed=seeds[r], **_cv_settings(config)),
            designs,
        )

        def chosen(r, cv):
            if isinstance(cv, NumericalError):
                raise cv
            return fit_period_model(designs[r], cv)

        models = each(chosen, dict(zip(cvs, solve_cv(list(cvs.values())))))
    fits = each(
        lambda r, tpm: _predict_period(
            dataset, config, period, r, live[r], *inputs[r], tpm, statics
        ),
        models,
    )
    yield from fits.values()


def _period_inputs(dataset: Dataset, period: Period, run: _Run, block: FeatureMatrix):
    """A run's feature matrix of ``period``, its lag column appended to the
    period's static ``block``, and its labeled levels there."""
    fm = block if period.prev_end is None else attach_initial_gdp(
        block, period.prev_end, run.source, run.store, dataset.locations
    )
    return fm, {k: run.source[k] for k in fm.row_keys if k in run.source}


def _predict_period(dataset, config, period, r, run, fm, labels, tpm, statics) -> PeriodFit:
    """A run's gated predictions of ``period`` and their regional
    rescaling; the rescaled levels enter the run's lag store."""
    locations = dataset.locations
    source = run.source

    def gate_counts(key):
        return statics[key[1]].gate_counts(key[0])

    candidate_keys = [k for k in fm.row_keys if k not in source]
    predictions, gated = predict_gated(tpm, fm, candidate_keys, gate_counts, config)

    # regional rescaling against the country value (source wins; see PeriodFit)
    levels = {k: 10.0 ** v for k, v in predictions.items()}
    factors = {k: 1.0 for k in levels}
    regional_groups: dict = {}  # (country, year) -> {regional key: level}
    for (lid, year), v in levels.items():
        if locations.get(lid).level == "region":
            regional_groups.setdefault((locations.country_of(lid), year), {})[(lid, year)] = v
    for country_key, regional in sorted(regional_groups.items()):
        country_value = source[country_key] if country_key in source else levels[country_key]
        weights = {key: sum(gate_counts(key)) for key in regional}
        rescaled, c = rescale_regions(regional, country_value, weights)
        for key, value in rescaled.items():
            levels[key] = value
            factors[key] = c
    run.store.update(levels)
    return PeriodFit(
        run=r,
        period=period,
        features=fm,
        labels=labels,
        model=tpm,
        gated=gated,
        predictions=predictions,
        levels=levels,
        factors=factors,
    )


@dataclass
class RunResult:
    estimates: list
    report: dict


def run_full(dataset: Dataset, config: RunConfig) -> RunResult:
    """Run the whole estimation and return estimates plus the run report.

    Source observations pass through with ``kind = source``; gated
    location-years are listed in the report instead of the output.  Each
    period of :func:`fit_periods` gets percentile-bootstrap intervals on
    its rescaled levels.
    """
    locations = dataset.locations
    source = dataset.source_levels

    estimates: list[EstimateRecord] = []
    for obs in sorted(dataset.gdp, key=lambda o: (o.location_id, o.year)):
        estimates.append(
            EstimateRecord(
                location_id=obs.location_id,
                year=obs.year,
                gdp_pc=obs.gdp_pc,
                ci_low=obs.gdp_pc,
                ci_high=obs.gdp_pc,
                kind="source",
            )
        )

    fitted = fitted_periods(source)
    report_periods: dict = {
        p.period_id: {"skipped": "no labeled rows"} for p in PERIODS if p not in fitted
    }
    gated_keys: list = []
    provenance_counts: dict = {}
    n_skipped_replicates = 0
    n_age_imputed = 0

    statics: dict = {}
    for fit in fit_periods(dataset, config, [(source, config.seed)], statics):
        period, fm, tpm = fit.period, fit.features, fit.model
        n_age_imputed += sum(len(statics[year].age_imputed) for year in period.snapshots)
        gated_keys.extend(fit.gated)

        # bootstrap intervals on the final (rescaled) level scale
        ordered = sorted(fit.levels)
        ci_low = ci_high = ()
        skipped = 0
        if ordered:
            targets = fm.subset(ordered)
            clusters = None
            if config.bootstrap_unit == "country":
                clusters = [locations.country_of(lid) for (lid, _) in tpm.training_keys]
            ci_low, ci_high, skipped = bootstrap_ci(
                tpm.x,
                tpm.y,
                tpm.model.alpha,
                tpm.model.lam,
                tpm.model.standardize_rows(targets.values, targets.columns),
                tpm.model.coefficients,
                n_samples=config.bootstrap_samples,
                level=config.ci_level,
                seed=child_seed(config.seed, "bootstrap", PERIODS.index(period)),
                unit=config.bootstrap_unit,
                clusters=clusters,
                level_factors=[fit.factors[k] for k in ordered],
            )
        n_skipped_replicates += skipped

        for i, key in enumerate(ordered):
            lid, year = key
            prov = fm.init_provenance.get(key, "")
            provenance_counts[prov] = provenance_counts.get(prov, 0) + 1
            estimates.append(
                EstimateRecord(
                    location_id=lid,
                    year=year,
                    gdp_pc=fit.levels[key],
                    ci_low=float(ci_low[i]),
                    ci_high=float(ci_high[i]),
                    kind="estimate",
                    rescaled=locations.get(lid).level == "region",
                    init_gdp_provenance=prov,
                )
            )

        report_periods[period.period_id] = {
            "alpha": tpm.model.alpha,
            "lambda": tpm.model.lam,
            "n_selected": len(tpm.model.selected_features),
            "n_candidates": len(tpm.model.feature_names),
            "n_training_rows": len(tpm.training_keys),
            "n_estimates": len(ordered),
            "n_gated": len(fit.gated),
            "solver_steps": tpm.cv.chosen_steps + tpm.model.n_sweeps,
            "kkt_violation": tpm.model.max_delta,
            "cv_kkt_violation": tpm.cv.kkt_violation,
            "dropped_constant_columns": len(tpm.dropped_columns),
            "skipped_bootstrap_replicates": skipped,
            "eci": _eci_report(statics, period.snapshots),
        }

    estimates.sort(key=lambda e: (e.location_id, e.year))
    audit = audit_rescaling(estimates, locations, statics)
    report = {
        "config": config.echo(),
        "counts": {
            "source": sum(1 for e in estimates if e.kind == "source"),
            "estimates": sum(1 for e in estimates if e.kind == "estimate"),
            "gated": len(gated_keys),
            "rescaled": sum(1 for e in estimates if e.rescaled),
            "skipped_bootstrap_replicates": n_skipped_replicates,
            "avg_age_imputed_rows": n_age_imputed,
            "rejected_rows": len(dataset.rejects),
        },
        "periods": report_periods,
        "gated": sorted([list(k) for k in gated_keys]),
        "init_gdp_provenance_counts": dict(sorted(provenance_counts.items())),
        "rescale_audit": audit,
    }
    return RunResult(estimates=estimates, report=report)


def _eci_report(statics: dict, years) -> dict:
    """The ECI certificates of a period's snapshot ``years``: the smallest
    spectral gap, the largest residual, and the ``[year, level, flow]``
    blocks whose relative gap is below ``NEAR_DEGENERATE_GAP``."""
    blocks = [
        (year, level, flow, cert)
        for year in years
        for (level, flow), cert in statics[year].eci_results.items()
    ]
    return {
        "min_gap": min(cert.gap for *_, cert in blocks),
        "max_residual": max(cert.residual for *_, cert in blocks),
        "near_degenerate": sorted(
            [year, level, flow]
            for year, level, flow, cert in blocks
            if cert.relative_gap < NEAR_DEGENERATE_GAP
        ),
    }


def audit_rescaling(estimates, locations: LocationTable, statics: dict) -> dict:
    """Check the weighted-mean constraint on every rescaled country-year.

    For each (country, year) with rescaled regional estimates, their mean
    weighted by births plus deaths (read from ``statics[year].gate_counts``)
    must equal the country's value in ``estimates`` to 1e-9 relative.
    """
    by_key = {(e.location_id, e.year): e for e in estimates}
    groups: dict = {}
    for e in estimates:
        if e.kind != "estimate" or not e.rescaled:
            continue
        country = locations.country_of(e.location_id)
        groups.setdefault((country, e.year), []).append(e)
    checked = 0
    max_rel = 0.0
    violations = []
    for (country, year), members in sorted(groups.items()):
        country_rec = by_key[(country, year)]
        weights = [sum(statics[year].gate_counts(m.location_id)) for m in members]
        wmean = sum(w * m.gdp_pc for w, m in zip(weights, members)) / sum(weights)
        rel = abs(wmean - country_rec.gdp_pc) / country_rec.gdp_pc
        checked += 1
        max_rel = max(max_rel, rel)
        if rel > 1e-9:
            violations.append({"country": country, "year": year, "rel_error": rel})
    return {"checked": checked, "max_rel_error": max_rel, "violations": violations}


ESTIMATES_HEADER = [
    "location_id",
    "year",
    "gdp_pc_2011usd",
    "ci_low",
    "ci_high",
    "kind",
    "gated",
    "rescaled",
    "init_gdp_provenance",
]


def write_estimates_csv(estimates, path):
    write_table(
        path,
        ESTIMATES_HEADER,
        (
            [
                e.location_id,
                e.year,
                format_float(e.gdp_pc),
                format_float(e.ci_low),
                format_float(e.ci_high),
                e.kind,
                "false",  # gated rows are never emitted
                "true" if e.rescaled else "false",
                e.init_gdp_provenance,
            ]
            for e in estimates
        ),
    )


ESTIMATE_KINDS = ("source", "estimate")
BOOLEANS = {"true": True, "false": False}


def read_estimates_csv(path) -> list:
    """Read an estimates.csv back into EstimateRecord rows.

    A row with the wrong field count, an unparseable number, a GDP level
    that is not positive and finite, or a ``kind``, ``rescaled`` or
    ``init_gdp_provenance`` other than :func:`write_estimates_csv` writes
    raises ValidationError at its line.
    """
    records = []
    for line, row in read_table(path, ESTIMATES_HEADER, "estimates"):
        if len(row) != len(ESTIMATES_HEADER):
            raise ValidationError(f"{path}:{line}: wrong field count")
        lid, year, gdp, low, high, kind, _gated, rescaled, provenance = row
        gdp_pc = parse_field(gdp, float, "gdp_pc_2011usd", path, line)
        if not (math.isfinite(gdp_pc) and gdp_pc > 0):
            raise ValidationError(
                f"{path}:{line}: gdp_pc_2011usd must be positive and finite, got '{gdp}'"
            )
        if kind not in ESTIMATE_KINDS:
            raise ValidationError(f"{path}:{line}: kind must be one of {ESTIMATE_KINDS}, got '{kind}'")
        if rescaled not in BOOLEANS:
            raise ValidationError(f"{path}:{line}: rescaled must be true or false, got '{rescaled}'")
        if provenance and provenance not in INIT_GDP_PROVENANCES:
            raise ValidationError(
                f"{path}:{line}: init_gdp_provenance must be empty or one of "
                f"{INIT_GDP_PROVENANCES}, got '{provenance}'"
            )
        records.append(
            EstimateRecord(
                location_id=lid,
                year=parse_field(year, int, "year", path, line),
                gdp_pc=gdp_pc,
                ci_low=parse_field(low, float, "ci_low", path, line),
                ci_high=parse_field(high, float, "ci_high", path, line),
                kind=kind,
                rescaled=BOOLEANS[rescaled],
                init_gdp_provenance=provenance,
            )
        )
    return records


def write_run_report(report: dict, path):
    write_json(path, report)
