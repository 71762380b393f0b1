import math
import re
from dataclasses import replace

import numpy as np
import pytest

from histgdp.config import RunConfig
from histgdp.data_ingest import Dataset, Location, LocationTable
from histgdp import pipeline
from histgdp.elasticnet import DEFAULT_TOL, fit_centered
from histgdp.errors import NumericalError, ValidationError
from histgdp.explain import attribute_rows
from histgdp.features import build_static_features
from histgdp.pipeline import (
    PERIODS,
    SNAPSHOT_YEARS,
    bootstrap_ci,
    fit_baseline,
    fit_periods,
    format_float,
    rescale_regions,
    run_full,
    train_period,
    write_estimates_csv,
)
from conftest import small_test_config


class TestPeriodGrid:
    def test_snapshots_partition(self):
        seen = [y for p in PERIODS for y in p.snapshots]
        assert sorted(seen) == sorted(set(seen))
        assert set(seen) == set(range(1300, 2000, 50)) | {2000}

    def test_prev_end_is_last_snapshot_of_predecessor(self):
        for prev, cur in zip(PERIODS, PERIODS[1:]):
            assert cur.prev_end == prev.snapshots[-1]
        assert PERIODS[0].prev_end is None

    def test_year_bounds_contain_snapshots(self):
        for p in PERIODS:
            assert all(p.start <= y <= p.end for y in p.snapshots)


class TestGating:
    def test_threshold_schedule(self):
        config = RunConfig()
        assert config.gate_threshold(1300) == 3
        assert config.gate_threshold(1600) == 3
        assert config.gate_threshold(1650) == 5
        assert config.gate_threshold(1950) == 5
        assert config.gate_threshold(2000) == 10

    def test_spec_examples(self):
        config = RunConfig()
        assert not config.passes_gate(2, 5, 1500)  # births below 3
        assert config.passes_gate(5, 5, 1700)
        assert not config.passes_gate(9, 20, 2000)

    def test_alternative_rules(self):
        either = RunConfig(gating_rule="either")
        assert either.passes_gate(2, 5, 1500)
        total = RunConfig(gating_rule="sum")
        assert total.passes_gate(2, 1, 1500)
        assert not total.passes_gate(1, 1, 1500)


@pytest.fixture
def fe_locations():
    return LocationTable(
        [
            Location("A1", "A1", "country", None, "North"),
            Location("A2", "A2", "country", None, "North"),
            Location("B1", "B1", "country", None, "South"),
            Location("B2", "B2", "country", None, "South"),
        ]
    )


class TestBaseline:
    def test_region_means_recovered(self, fe_locations):
        keys = [("A1", 1300), ("A2", 1300), ("B1", 1300), ("B2", 1300)]
        y = np.array([3.0, 3.0, 2.0, 2.0])  # North 3.0, South 2.0
        model = fit_baseline(keys, y, None, fe_locations, PERIODS[0])
        for (lid, year), expect in zip(keys, y):
            supra = fe_locations.supra_of(lid)
            assert model.predict_one(supra, year, None) == pytest.approx(expect, abs=1e-8)

    def test_exact_persistence(self, fe_locations):
        rng = np.random.default_rng(0)
        keys = [(lid, year) for lid in ("A1", "A2", "B1", "B2") for year in (1550, 1600)]
        init = rng.normal(3.0, 0.5, size=len(keys))
        y = init.copy()  # y equals the lag exactly
        model = fit_baseline(keys, y, init, fe_locations, PERIODS[1])
        assert model.lag_coefficient == pytest.approx(1.0, abs=1e-8)
        assert abs(model.intercept) <= 1e-8
        assert np.max(np.abs(model.cell_coefficients)) <= 1e-8

    def test_earliest_period_has_no_lag(self, fe_locations):
        keys = [("A1", 1300), ("B1", 1300), ("A2", 1300)]
        model = fit_baseline(keys, np.array([3.0, 2.0, 2.5]), None, fe_locations, PERIODS[0])
        assert model.lag_coefficient is None

    def test_empty_period_rejected(self, fe_locations):
        with pytest.raises(ValidationError):
            fit_baseline([], np.array([]), None, fe_locations, PERIODS[0])

    def test_design_has_one_indicator_per_row(self, fe_locations):
        keys = [("B2", 1350), ("A1", 1300), ("A2", 1350), ("B1", 1300), ("A1", 1350)]
        y = np.array([2.5, 3.0, 3.5, 2.0, 3.4])
        model = fit_baseline(keys, y, None, fe_locations, PERIODS[0])
        assert model.cells == ("North|1300", "North|1350", "South|1300", "South|1350")
        for (lid, year), expect in zip(keys[:2] + keys[3:4], (2.5, 3.0, 2.0)):
            assert model.predict_one(fe_locations.supra_of(lid), year, None) == \
                pytest.approx(expect, abs=1e-8)
        assert model.predict_one("North", 1350, None) == pytest.approx(3.45, abs=1e-8)
        # a cell the period never saw adds no fixed effect
        assert model.predict_one("West", 1300, None) == model.intercept


class TestRescaling:
    def test_equal_proxies(self):
        rescaled, c = rescale_regions({"r1": 100.0, "r2": 300.0}, 150.0, {"r1": 1, "r2": 1})
        assert c == pytest.approx(0.75)
        assert rescaled["r1"] == pytest.approx(75.0)
        assert rescaled["r2"] == pytest.approx(225.0)

    def test_single_region_exact(self):
        rescaled, _ = rescale_regions({"r1": 123.0}, 456.0, {"r1": 9})
        assert rescaled["r1"] == pytest.approx(456.0)

    def test_weighted_mean_already_matching(self):
        rescaled, c = rescale_regions({"r1": 100.0, "r2": 300.0}, 150.0, {"r1": 3, "r2": 1})
        assert c == pytest.approx(1.0)
        assert rescaled["r1"] == pytest.approx(100.0)

    def test_idempotent(self):
        first, c1 = rescale_regions({"r1": 80.0, "r2": 240.0}, 500.0, {"r1": 2, "r2": 5})
        second, c2 = rescale_regions(first, 500.0, {"r1": 2, "r2": 5})
        assert c2 == pytest.approx(1.0, abs=1e-12)
        for r in first:
            assert second[r] == pytest.approx(first[r], rel=1e-12)

    def test_constraint_holds(self):
        proxies = {"r1": 2, "r2": 5, "r3": 1}
        rescaled, _ = rescale_regions({"r1": 80.0, "r2": 240.0, "r3": 60.0}, 500.0, proxies)
        wmean = sum(proxies[r] * v for r, v in rescaled.items()) / sum(proxies.values())
        assert abs(wmean - 500.0) / 500.0 <= 1e-9

    def test_empty_is_noop(self):
        assert rescale_regions({}, 100.0, {}) == ({}, 1.0)

    def test_zero_proxy_rejected(self):
        with pytest.raises(ValidationError):
            rescale_regions({"r1": 10.0}, 5.0, {"r1": 0})


def full_fit(x, y, alpha, lam):
    """The full-data coefficients that start every bootstrap replicate."""
    return fit_centered(x, y, np.ones((1, len(y))), alpha, lam)[0][0]


class TestBootstrap:
    def test_zero_width_for_degenerate_training(self):
        x = np.zeros((12, 2))
        y = np.full(12, 3.0)
        lo, hi, skipped = bootstrap_ci(
            x, y, 0.5, 1.0, np.zeros((1, 2)), np.zeros(2), n_samples=50, seed=1
        )
        assert lo[0] == pytest.approx(1000.0)
        assert hi[0] == pytest.approx(1000.0)

    def test_ci_ordering_and_skips(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([0.2, -0.1, 0.05]) + 3.0 + 0.05 * rng.normal(size=30)
        targets = rng.normal(size=(5, 3))
        lo, hi, skipped = bootstrap_ci(
            x, y, 0.5, 0.5, targets, full_fit(x, y, 0.5, 0.5), n_samples=60, seed=3
        )
        assert np.all(lo <= hi)
        assert skipped == 0

    def test_only_degenerate_resamples_raise(self, monkeypatch):
        # a resampler that only ever draws row 0 makes every resample's
        # response constant, while the full response is not
        class RowZero:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=int)

        monkeypatch.setattr(pipeline, "child_rng", lambda *args: RowZero())
        x = np.arange(24.0).reshape(12, 2)
        y = np.arange(12.0)
        with pytest.raises(NumericalError, match="constant response"):
            bootstrap_ci(x, y, 0.5, 1.0, np.zeros((1, 2)), np.zeros(2), n_samples=50, seed=1)

    def test_country_unit_needs_clusters(self):
        with pytest.raises(ValidationError):
            bootstrap_ci(
                np.zeros((10, 1)), np.arange(10.0), 0.5, 0.5, np.zeros((1, 1)),
                np.zeros(1), n_samples=50, unit="country",
            )

    def test_unknown_unit_is_refused(self):
        with pytest.raises(ValidationError, match="unit must be row"):
            bootstrap_ci(
                np.zeros((10, 1)), np.arange(10.0), 0.5, 0.5, np.zeros((1, 1)),
                np.zeros(1), n_samples=50, unit="countries", clusters=["a"] * 10,
            )

    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            bootstrap_ci(
                np.zeros((10, 1)), np.arange(10.0), 0.5, 0.5, np.zeros((1, 1)),
                np.zeros(1), n_samples=10,
            )

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 2))
        y = x @ np.array([0.3, 0.1]) + 3.0 + 0.1 * rng.normal(size=25)
        t = rng.normal(size=(3, 2))
        start = full_fit(x, y, 1.0, 0.2)
        a = bootstrap_ci(x, y, 1.0, 0.2, t, start, n_samples=50, seed=9)
        b = bootstrap_ci(x, y, 1.0, 0.2, t, start, n_samples=50, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_country_cluster_resampling(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([0.2, -0.1, 0.3]) + 3.0 + 0.05 * rng.normal(size=30)
        clusters = [f"C{i % 6}" for i in range(30)]
        lo, hi, skipped = bootstrap_ci(
            x, y, 0.5, 0.3, rng.normal(size=(4, 3)), full_fit(x, y, 0.5, 0.3),
            n_samples=60, seed=2, unit="country", clusters=clusters,
        )
        assert np.all(lo <= hi)
        assert np.all(lo > 0)


    def test_country_unit_of_one_row_each_is_the_row_unit(self):
        # one response differs, so some resamples are constant and redrawn
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 2))
        y = np.full(12, 3.0)
        y[5] = 3.2
        t, start = rng.normal(size=(3, 2)), full_fit(x, y, 0.5, 0.1)
        by_row = bootstrap_ci(x, y, 0.5, 0.1, t, start, n_samples=60, seed=4)
        by_country = bootstrap_ci(
            x, y, 0.5, 0.1, t, start, n_samples=60, seed=4, unit="country",
            clusters=[f"c{i:03d}" for i in range(12)],
        )
        assert by_row[2] == by_country[2] > 0
        assert by_row[0].tobytes() == by_country[0].tobytes()
        assert by_row[1].tobytes() == by_country[1].tobytes()


class TestRescalingInvariant:
    """Every regional estimate is rescaled to a country value, under every
    gating rule, also where the country itself is estimated."""

    THRESHOLDS = ((1600, 12), (1950, 20), (2000, 40))  # 4x the defaults

    @pytest.fixture(scope="class")
    def world(self):
        # countries without GDP in one period are estimated there
        from histgdp.synthetic import make_synthetic_world

        ds = make_synthetic_world(
            n_countries=10, n_occupations=4, period_ids=("late_middle_ages", "early_modern"),
            seed=3, n_regions_per_country=3, n_supra=2, label_fraction=0.3,
            true_coefficients={"births.occ00": 0.45, "immigrants.total": 0.4},
        ).dataset
        dropped = set(ds.locations.countries()[:3])
        years = set(PERIODS[1].snapshots)
        gdp = [o for o in ds.gdp if not (o.location_id in dropped and o.year in years)]
        return Dataset(ds.records, ds.locations, gdp)

    @pytest.mark.parametrize("rule", ["both", "either", "sum"])
    def test_every_regional_estimate_is_rescaled(self, world, rule):
        config = small_test_config(gating_rule=rule, gating_thresholds=self.THRESHOLDS)
        result = run_full(world, config)
        locations = world.locations
        by_key = {(e.location_id, e.year): e for e in result.estimates}
        regional = [e for e in result.estimates
                    if e.kind == "estimate" and locations.get(e.location_id).level == "region"]
        country_years = {(locations.country_of(e.location_id), e.year) for e in regional}
        assert result.report["counts"]["gated"] > 0
        assert all(e.rescaled for e in regional)
        assert result.report["counts"]["rescaled"] == len(regional)
        # some regions are rescaled to their country's own estimate
        assert any(by_key[key].kind == "estimate" for key in country_years)
        audit = result.report["rescale_audit"]
        assert audit["checked"] == len(country_years) > 0
        assert audit["violations"] == []

    def test_audit_reports_the_one_changed_country_year(self, world):
        config = small_test_config()
        estimates = run_full(world, config).estimates
        locations = world.locations
        statics = pipeline.build_statics(world, config, sorted({e.year for e in estimates}), {})
        i, changed = next((i, e) for i, e in enumerate(estimates) if e.rescaled)
        estimates[i] = replace(changed, gdp_pc=changed.gdp_pc * 1.01)
        audit = pipeline.audit_rescaling(estimates, locations, statics)
        assert audit["checked"] > 1
        assert [(v["country"], v["year"]) for v in audit["violations"]] == [
            (locations.country_of(changed.location_id), changed.year)
        ]


class TestTrainPeriod:
    def test_too_few_rows_suggests_fold_reduction(self, small_world):
        config = small_test_config(k_folds=10)
        fm = build_static_features(1300, small_world.dataset).matrix
        keys = list(fm.row_keys)[:4]
        labels = {k: 1000.0 for k in keys}
        with pytest.raises(ValidationError, match="k_folds"):
            train_period(PERIODS[0], fm.subset(keys), labels, config, seed=0)


@pytest.fixture(scope="module")
def period_fit(small_world, small_config):
    """The last fitted period of the small world (it has a lag column)."""
    ds = small_world.dataset
    return list(fit_periods(ds, small_config, [(ds.source_levels, small_config.seed)], {}))[-1]


def reordered(fm, drop=None):
    """``fm`` with its columns permuted and an unknown column appended,
    less the column ``drop``."""
    order = [j for j in np.random.default_rng(5).permutation(len(fm.columns))
             if fm.columns[j] != drop]
    return replace(
        fm,
        columns=tuple(fm.columns[j] for j in order) + ("unknown",),
        values=np.hstack([fm.values[:, order], np.ones((len(fm.row_keys), 1))]),
    )


class TestModelReadsRowsByName:
    def test_column_order_and_unknown_columns_do_not_matter(self, period_fit):
        tpm, fm = period_fit.model, period_fit.features
        copy = reordered(fm)
        expected = tpm.model.predict(fm.values, fm.columns)
        assert np.array_equal(tpm.model.predict(copy.values, copy.columns), expected)
        for a, b in zip(attribute_rows(tpm.model, copy), attribute_rows(tpm.model, fm)):
            assert np.array_equal(a.phi, b.phi)
            assert (a.base, a.prediction) == (b.base, b.prediction)

    def test_missing_model_column_is_a_validation_error(self, period_fit):
        tpm, fm = period_fit.model, period_fit.features
        name = tpm.model.feature_names[-1]
        copy = reordered(fm, drop=name)
        match = re.escape(f"'{name}'")
        with pytest.raises(ValidationError, match=match):
            tpm.model.predict(copy.values, copy.columns)
        with pytest.raises(ValidationError, match=match):
            attribute_rows(tpm.model, copy)

    def test_trained_period_keeps_its_design(self, period_fit):
        tpm = period_fit.model
        train = period_fit.features.subset(tpm.training_keys)
        assert np.array_equal(tpm.x, tpm.model.standardize_rows(train.values, train.columns))
        labels = [math.log10(period_fit.labels[k]) for k in tpm.training_keys]
        assert np.array_equal(tpm.y, labels)

    def test_bootstrap_starts_from_the_period_model(self, small_world, small_config,
                                                     monkeypatch):
        starts, models = [], []

        def recording_fit(*args, **kwargs):
            starts.append(kwargs.get("warm_start"))
            return fit_centered(*args, **kwargs)

        def recording_train(*args, **kwargs):
            models.append(train_period(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(pipeline, "fit_centered", recording_fit)
        monkeypatch.setattr(pipeline, "train_period", recording_train)
        run_full(small_world.dataset, small_config)
        assert models and len(starts) == len(models)
        for start, tpm in zip(starts, models):
            assert start is not None and np.array_equal(start, tpm.model.coefficients)

    def test_final_fit_is_the_cv_full_data_solution(self, small_world, small_config):
        ds = small_world.dataset
        fits = list(fit_periods(ds, small_config, [(ds.source_levels, small_config.seed)], {}))
        assert fits
        for fit in fits:
            model, cv = fit.model.model, fit.model.cv
            assert model.n_sweeps == 0
            assert model.coefficients.tobytes() == cv.chosen_coefficients.tobytes()


class TestRunFull:
    def test_report_certifies_every_period(self, small_run):
        fitted = [e for e in small_run.report["periods"].values() if "skipped" not in e]
        assert fitted
        for entry in fitted:
            assert entry["solver_steps"] >= 1
            assert 0.0 <= entry["kkt_violation"] <= DEFAULT_TOL

    def test_report_certifies_the_cv_grid(self, small_run):
        fitted = [e for e in small_run.report["periods"].values() if "skipped" not in e]
        for entry in fitted:
            assert 0.0 <= entry["cv_kkt_violation"] <= DEFAULT_TOL

    def test_report_describes_the_cv_surface_and_the_design(self, small_world, small_config,
                                                            small_run):
        source = small_world.dataset.source_levels
        fits = list(fit_periods(small_world.dataset, small_config,
                                [(source, small_config.seed)], {}))
        assert fits
        for fit in fits:
            entry = small_run.report["periods"][fit.period.period_id]
            cv, x = fit.model.cv, fit.model.x
            assert entry["cv_min_mse"] == cv.mean_mse.min() > 0.0
            assert entry["cv_one_se_cells"] == cv.one_se_cells >= 1
            assert entry["n_training_rows"] == x.shape[0]
            # centered columns: the rank is below the row count as well
            assert entry["design_rank"] == np.linalg.matrix_rank(x) <= min(
                x.shape[0] - 1, entry["n_candidates"])

    def test_source_rows_pass_through(self, small_world, small_run):
        by_key = {}
        for e in small_run.estimates:
            by_key.setdefault((e.location_id, e.year), []).append(e)
        for (lid, year), level in small_world.dataset.source_levels.items():
            recs = by_key[(lid, year)]
            assert len(recs) == 1  # source wins: no duplicate estimate
            assert recs[0].kind == "source"
            assert recs[0].gdp_pc == pytest.approx(level)
            assert recs[0].ci_low == recs[0].ci_high == recs[0].gdp_pc

    def test_gating_completeness(self, small_world, small_run):
        # every candidate location-year lands in exactly one of
        # {labeled} | {emitted} | {gated}
        labeled = set(small_world.dataset.source_levels)
        emitted = {
            (e.location_id, e.year)
            for e in small_run.estimates
            if e.kind == "estimate"
        }
        gated = {tuple(k) for k in small_run.report["gated"]}
        years = [y for p in PERIODS for y in p.snapshots
                 if p.period_id in small_world.periods]
        all_keys = {
            (lid, year)
            for lid in small_world.dataset.locations.ids()
            for year in years
        }
        assert emitted | gated | labeled == all_keys
        assert not emitted & gated
        assert not emitted & labeled
        assert not gated & labeled

    def test_every_emitted_estimate_passed_its_gate(self, small_world, small_run, small_config):
        from histgdp.features import build_static_features

        statics = {}
        for e in small_run.estimates:
            if e.kind != "estimate":
                continue
            if e.year not in statics:
                statics[e.year] = build_static_features(e.year, small_world.dataset)
            births, deaths = statics[e.year].gate_counts(e.location_id)
            assert small_config.passes_gate(births, deaths, e.year)

    def test_rescale_audit_clean(self, small_run):
        audit = small_run.report["rescale_audit"]
        assert audit["violations"] == []
        assert audit["checked"] >= 1
        assert audit["max_rel_error"] <= 1e-9

    def test_ci_bounds_ordered(self, small_run):
        for e in small_run.estimates:
            assert e.ci_low <= e.ci_high

    def test_sorted_output(self, small_run):
        keys = [(e.location_id, e.year) for e in small_run.estimates]
        assert keys == sorted(keys)

    def test_deterministic_rerun(self, small_world, small_config, small_run):
        again = run_full(small_world.dataset, small_config)
        assert again.estimates == small_run.estimates
        assert again.report == small_run.report

    def test_report_counts(self, small_world, small_run):
        counts = small_run.report["counts"]
        assert counts["source"] == len(small_world.dataset.gdp)
        n_estimates = sum(1 for e in small_run.estimates if e.kind == "estimate")
        assert counts["estimates"] == n_estimates
        assert counts["gated"] == len(small_run.report["gated"])

    def test_estimate_provenance_recorded(self, small_run):
        # early_modern rows must carry an init_gdp provenance
        emp_years = set(PERIODS[1].snapshots)
        provs = {
            e.init_gdp_provenance
            for e in small_run.estimates
            if e.kind == "estimate" and e.year in emp_years
        }
        assert provs <= {"source", "model", "country_source", "country_model", "supra_mean"}
        assert provs

    def test_country_bootstrap_unit(self, small_world, monkeypatch):
        # every replicate draws whole countries: each training row enters as
        # often as its country was drawn, and the draws number the countries
        clusters, replicates = [], []

        def recording_ci(*args, **kwargs):
            clusters.append(np.asarray(kwargs["clusters"]))
            return bootstrap_ci(*args, **kwargs)

        def recording_fit(x, y, weights, *args, **kwargs):
            replicates.append((clusters[-1], np.asarray(weights)))
            return fit_centered(x, y, weights, *args, **kwargs)

        monkeypatch.setattr(pipeline, "bootstrap_ci", recording_ci)
        monkeypatch.setattr(pipeline, "fit_centered", recording_fit)
        result = run_full(small_world.dataset, small_test_config(bootstrap_unit="country"))
        estimates = [e for e in result.estimates if e.kind == "estimate"]
        assert estimates
        for e in estimates:
            assert all(math.isfinite(v) for v in (e.gdp_pc, e.ci_low, e.ci_high))
            assert e.ci_low <= e.ci_high
        assert replicates and len(replicates) == len(clusters)
        for labels, weights in replicates:
            countries = sorted(set(labels.tolist()))
            draws = np.zeros((len(weights), len(countries)))
            for j, country in enumerate(countries):
                rows = weights[:, labels == country]
                assert np.all(rows == rows[:, :1])  # one multiplicity per country
                draws[:, j] = rows[:, 0]
            assert np.all(draws.sum(axis=1) == len(countries))


class TestWriters:
    def test_format_float_six_significant(self):
        assert format_float(1234.56789) == "1234.57"
        assert format_float(0.000123456789) == "0.000123457"

    def test_estimates_csv_layout(self, small_run, tmp_path):
        path = tmp_path / "estimates.csv"
        write_estimates_csv(small_run.estimates, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "location_id,year,gdp_pc_2011usd,ci_low,ci_high,kind,gated,"
            "rescaled,init_gdp_provenance"
        )
        assert len(lines) == len(small_run.estimates) + 1
        assert all(line.count(",") == 8 for line in lines)


def test_period_snapshots_are_the_ingest_snapshot_years():
    from histgdp import data_ingest

    assert tuple(y for p in PERIODS for y in p.snapshots) == data_ingest.SNAPSHOT_YEARS
    assert SNAPSHOT_YEARS is data_ingest.SNAPSHOT_YEARS


class TestRunReportEci:
    def test_every_fitted_period_reports_its_eci_certificates(
        self, small_world, small_config, small_run
    ):
        from histgdp.data_ingest import FLOWS, LEVELS
        from histgdp.features import NEAR_DEGENERATE_GAP, build_static_features

        fitted = {k: e for k, e in small_run.report["periods"].items() if "skipped" not in e}
        assert fitted
        for period in PERIODS:
            if period.period_id not in fitted:
                continue
            entry = fitted[period.period_id]["eci"]
            certs = [
                (year, level, flow, cert)
                for year in period.snapshots
                for (level, flow), cert in build_static_features(
                    year,
                    small_world.dataset,
                    window_years=small_config.window_years,
                    scale=small_config.scale,
                    reference_year=small_config.reference_year_for_age,
                ).eci_results.items()
            ]
            assert entry == {
                "min_gap": min(c.gap for *_, c in certs),
                "max_residual": max(c.residual for *_, c in certs),
                "near_degenerate": sorted(
                    [y, lv, f] for y, lv, f, c in certs if c.relative_gap < NEAR_DEGENERATE_GAP
                ),
            }
            assert 0.0 <= entry["min_gap"] and entry["max_residual"] <= 1e-10
            for year, level, flow in entry["near_degenerate"]:
                assert year in period.snapshots and level in LEVELS and flow in FLOWS


def test_estimates_csv_round_trip(small_run, tmp_path):
    from histgdp.pipeline import read_estimates_csv

    def at_six_digits(e):
        return replace(
            e,
            gdp_pc=float(format_float(e.gdp_pc)),
            ci_low=float(format_float(e.ci_low)),
            ci_high=float(format_float(e.ci_high)),
        )

    path = tmp_path / "estimates.csv"
    write_estimates_csv(small_run.estimates, path)
    assert small_run.estimates
    assert read_estimates_csv(path) == [at_six_digits(e) for e in small_run.estimates]


def test_estimates_csv_refuses_a_provenance_it_never_writes(tmp_path):
    from histgdp.features import INIT_GDP_PROVENANCES
    from histgdp.pipeline import ESTIMATES_HEADER, read_estimates_csv

    path = tmp_path / "estimates.csv"
    rows = [",".join(ESTIMATES_HEADER), "A,1300,1000,1000,1000,source,false,false,"]
    rows += [f"B,{1350 + 50 * i},1500,1400,1600,estimate,false,false,{prov}"
             for i, prov in enumerate(INIT_GDP_PROVENANCES)]
    path.write_text("\n".join(rows) + "\n")
    assert [e.init_gdp_provenance for e in read_estimates_csv(path)] == [
        "", *INIT_GDP_PROVENANCES
    ]
    path.write_text("\n".join(rows + ["C,1300,1200,1100,1300,estimate,false,true,modle"]) + "\n")
    line = len(rows) + 1
    with pytest.raises(ValidationError, match=rf"{re.escape(str(path))}:{line}: "
                                              r"init_gdp_provenance .* got 'modle'"):
        read_estimates_csv(path)
