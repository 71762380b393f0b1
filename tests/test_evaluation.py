import json

import numpy as np
import pytest

from histgdp.config import RunConfig
from histgdp.data_ingest import Dataset, Location, LocationTable
from histgdp import elasticnet, evaluation, pipeline
from histgdp.errors import NumericalError, ValidationError
from histgdp.evaluation import (
    SplitMetrics,
    evaluate_models,
    load_proxy_csv,
    proxy_correlation,
    run_single_split,
    split_countries,
    summarize_performance,
    write_evaluation_csv,
    write_evaluation_summary,
)
from histgdp.features import build_static_features
from histgdp.numerics import mae_relative, quantile
from histgdp.pipeline import EstimateRecord, fit_periods, predict_log10
from histgdp.rng import child_seed
from conftest import small_test_config


@pytest.fixture
def ten_countries():
    entries = [Location(f"C{i}", f"C{i}", "country", None, "Zone") for i in range(10)]
    entries.append(Location("C0-R0", "r", "region", "C0", ""))
    entries.append(Location("C0-R1", "r", "region", "C0", ""))
    return LocationTable(entries)


class TestSplitCountries:
    def test_fraction_count(self, ten_countries):
        spec = split_countries(ten_countries.countries(), 0.2, seed=1,
                               locations=ten_countries)
        assert len(spec.test_countries) == 2

    def test_regions_attached(self, ten_countries):
        for seed in range(30):
            spec = split_countries(ten_countries.countries(), 0.2, seed=seed,
                                   locations=ten_countries)
            if "C0" in spec.test_countries:
                assert "C0-R0" in spec.test_locations
                assert "C0-R1" in spec.test_locations
                break
        else:
            pytest.fail("C0 never drawn in 30 seeds")

    def test_deterministic(self, ten_countries):
        a = split_countries(ten_countries.countries(), 0.2, seed=5)
        b = split_countries(ten_countries.countries(), 0.2, seed=5)
        assert a == b

    def test_too_few_countries(self):
        with pytest.raises(ValidationError):
            split_countries(["A", "B", "C"], 0.2, seed=0)

    def test_ceil_rule(self):
        spec = split_countries([f"C{i}" for i in range(7)], 0.2, seed=3)
        assert len(spec.test_countries) == 2  # ceil(1.4)


def metrics(i, r2b, r2f, maeb, maef):
    return SplitMetrics(
        split_index=i, seed=i, r2_baseline=r2b, r2_full=r2f,
        mae_baseline=maeb, mae_full=maef, n_test_rows=10,
    )


class TestSummaries:
    def test_degenerate_equality_gives_p_one(self):
        # a full model restricted to the baseline regressors yields
        # identical distributions; the rank test must report p = 1
        splits = [metrics(i, 0.8 + 0.01 * i, 0.8 + 0.01 * i, 0.3, 0.3) for i in range(6)]
        dist = summarize_performance(splits)
        assert dist.kw["r2"]["h"] == 0.0
        assert dist.kw["r2"]["p"] == 1.0
        assert dist.medians["r2_baseline"] == dist.medians["r2_full"]

    def test_label_swap_symmetry(self):
        splits = [metrics(i, 0.7 + 0.02 * i, 0.85 + 0.01 * i, 0.35, 0.22) for i in range(7)]
        swapped = [
            metrics(s.split_index, s.r2_full, s.r2_baseline, s.mae_full, s.mae_baseline)
            for s in splits
        ]
        a = summarize_performance(splits)
        b = summarize_performance(swapped)
        assert a.medians["r2_baseline"] == b.medians["r2_full"]
        assert a.medians["mae_full"] == b.medians["mae_baseline"]
        assert a.kw["r2"]["h"] == pytest.approx(b.kw["r2"]["h"], abs=1e-12)

    def test_failed_splits_counted_not_dropped(self):
        splits = [metrics(0, 0.8, 0.9, 0.3, 0.2),
                  SplitMetrics(split_index=1, seed=1, failed="boom")]
        dist = summarize_performance(splits)
        assert dist.n_failed == 1
        assert len(dist.splits) == 2


class TestEvaluateModels:
    def test_full_beats_baseline_on_synthetic_world(self, small_world):
        config = small_test_config(n_splits=3, threads=1)
        dist = evaluate_models(small_world.dataset, config, n_splits=3, master_seed=3)
        assert dist.n_failed == 0
        assert dist.medians["r2_full"] > dist.medians["r2_baseline"]
        assert dist.medians["mae_full"] < dist.medians["mae_baseline"]

    def test_single_split_matches_manual_run(self, small_world):
        config = small_test_config(n_splits=1)
        dist = evaluate_models(small_world.dataset, config, n_splits=1, master_seed=9)
        statics = {
            year: build_static_features(year, small_world.dataset)
            for year in (1300, 1350, 1400, 1450, 1500, 1550, 1600, 1650, 1700, 1750)
        }
        manual = run_single_split(small_world.dataset, config, statics, 0, 9)
        auto = dist.splits[0]
        assert auto.seed == manual.seed == child_seed(9, "split", 0)
        assert auto.r2_full == manual.r2_full
        assert auto.r2_baseline == manual.r2_baseline
        assert auto.mae_full == manual.mae_full

    def test_deterministic_and_thread_invariant(self, small_world):
        config1 = small_test_config(n_splits=2, threads=1)
        config2 = small_test_config(n_splits=2, threads=4)
        a = evaluate_models(small_world.dataset, config1, master_seed=4)
        b = evaluate_models(small_world.dataset, config2, master_seed=4)
        assert a.splits == b.splits

    def test_distinct_split_seeds(self, small_world):
        config = small_test_config(n_splits=4)
        dist = evaluate_models(small_world.dataset, config, n_splits=4, master_seed=1)
        seeds = [s.seed for s in dist.splits]
        assert len(set(seeds)) == 4

    def test_programming_error_propagates(self, small_world, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(evaluation, "score_period", broken)
        with pytest.raises(RuntimeError, match="no convergence"):
            evaluate_models(small_world.dataset, small_test_config(), n_splits=2)

    def test_numerical_error_is_a_failed_split(self, small_world, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("did not converge")

        monkeypatch.setattr(evaluation, "score_period", failing)
        dist = evaluate_models(small_world.dataset, small_test_config(), n_splits=2)
        assert dist.n_failed == 2
        assert all(s.failed == "NumericalError: did not converge" for s in dist.splits)

    def test_numerical_error_in_the_stacked_solve_fails_only_its_split(self, small_world,
                                                                       monkeypatch):
        config = small_test_config(n_splits=2)
        alone = [run_single_split(small_world.dataset, config, {}, i, 4) for i in range(2)]
        # split 1's first-period CV systems, recorded while it runs alone
        grams = []
        real = elasticnet._solve_stack

        def recording(gram, *args):
            grams.append(gram[0].copy())
            return real(gram, *args)

        monkeypatch.setattr(elasticnet, "_solve_stack", recording)
        run_single_split(small_world.dataset, config, {}, 1, 4)
        planted = grams[0]

        def fails_on_split_1(gram, *args):
            w = planted.shape[0]
            if any(np.allclose(g[:w, :w], planted, rtol=1e-12, atol=0.0) for g in gram
                   if g.shape[0] >= w):
                raise NumericalError("planted")
            return real(gram, *args)

        monkeypatch.setattr(elasticnet, "_solve_stack", fails_on_split_1)
        monkeypatch.setattr(evaluation, "BATCH_BYTES", 1 << 30)  # both splits in one batch
        dist = evaluate_models(small_world.dataset, config, n_splits=2, master_seed=4)
        assert dist.splits[1].failed == "NumericalError: planted"
        assert dist.splits[1].seed == alone[1].seed
        assert dist.splits[0] == alone[0]  # bit for bit: retried alone, then a batch of one

    def test_batch_size_does_not_change_results(self, small_world, monkeypatch, tmp_path):
        for rule in ("min_mean", "fold_average"):
            config = small_test_config(n_splits=3, cv_selection_rule=rule)
            batches, written = [], []
            # one split per batch, the default budget, then all three together
            for budget in (1, evaluation.BATCH_BYTES, 1 << 30):
                monkeypatch.setattr(evaluation, "BATCH_BYTES", budget)
                dist = evaluate_models(small_world.dataset, config, master_seed=2)
                batches.append(dist.splits)
                table = tmp_path / f"evaluation_{rule}_{budget}.csv"
                summary = tmp_path / f"summary_{rule}_{budget}.json"
                write_evaluation_csv(dist, table)
                write_evaluation_summary(dist, summary)
                written.append((table.read_bytes(), summary.read_bytes()))
            for one, *others in zip(*batches):
                for other in others:
                    assert one.failed is None and other.failed is None
                    for name in ("r2_baseline", "r2_full", "mae_baseline", "mae_full"):
                        assert getattr(other, name) == pytest.approx(getattr(one, name), rel=1e-9)
                    assert other.per_period_mae_full == pytest.approx(
                        one.per_period_mae_full, rel=1e-9
                    )
            # the written files are the same bytes at any batch size
            assert written[0] == written[1] == written[2], rule

    def test_evaluate_config_runs_sixteen_splits_as_two_batches_of_eight(self):
        # small_test_config is the benchmark's evaluate config, whose designs
        # are 82 columns wide
        batches = evaluation.split_batches(small_test_config(), 82, 16)
        assert batches == [range(0, 8), range(8, 16)]

    def test_paper_grid_runs_one_split_per_batch(self):
        # 11 Gram systems and an 11 x 100 full-data path: 1.3 MB per split
        assert evaluation.split_batch_size(RunConfig(), 82) == 1
        assert evaluation.split_batches(RunConfig(), 82, 3) == [range(0, 1), range(1, 2),
                                                                range(2, 3)]

    def test_batches_are_the_fewest_and_equal_up_to_one(self, monkeypatch):
        monkeypatch.setattr(evaluation, "split_batch_size", lambda config, width: 4)
        assert evaluation.split_batches(small_test_config(), 82, 10) == [
            range(0, 3), range(3, 6), range(6, 10)
        ]
        assert evaluation.split_batches(small_test_config(), 82, 4) == [range(0, 4)]

    def test_no_leakage_between_train_and_test(self, small_world):
        # the explicit check inside run_single_split guards this; here we
        # confirm the split spec itself separates regions with their country
        locations = small_world.dataset.locations
        spec = split_countries(locations.countries(), 0.25, seed=2, locations=locations)
        for region in (r for c in spec.test_countries for r in locations.regions_of(c)):
            assert region in spec.test_locations


def _training_dataset(dataset, config, split_seed):
    """The dataset a held-out split may see: its test locations' GDP removed."""
    spec = split_countries(
        dataset.locations.countries(), config.test_fraction, split_seed, dataset.locations
    )
    gdp = [o for o in dataset.gdp if o.location_id not in spec.test_locations]
    return Dataset(dataset.records, dataset.locations, gdp), spec


class TestSharedPeriodLoop:
    @pytest.mark.parametrize("split_index", [0, 1, 2])
    def test_held_out_lag_equals_estimate_lag(self, small_world, monkeypatch, split_index):
        config = small_test_config()
        split_seed = child_seed(9, "split", split_index)
        train, _ = _training_dataset(small_world.dataset, config, split_seed)
        expected = list(fit_periods(train, config, [(train.source_levels, split_seed)], {}))

        trained = []
        original = pipeline.train_period

        def recording(period, fm, labels, config, **kwargs):
            tpm = original(period, fm, labels, config, **kwargs)
            trained.append((fm, tpm))
            return tpm

        monkeypatch.setattr(pipeline, "train_period", recording)
        run_single_split(small_world.dataset, config, {}, split_index, 9)
        assert len(trained) == len(expected) == 2
        n_model_regions = 0
        for (fm, tpm), fit in zip(trained, expected):
            assert fm.row_keys == fit.features.row_keys
            if "init_gdp" in fit.features.columns:
                col = fit.features.columns.index("init_gdp")
                assert np.array_equal(fm.values[:, col], fit.features.values[:, col])
                n_model_regions += sum(
                    prov == "model" and small_world.dataset.locations.get(lid).level == "region"
                    for (lid, _), prov in fit.features.init_provenance.items()
                )
            assert (tpm.model.alpha, tpm.model.lam) == (fit.model.model.alpha, fit.model.model.lam)
        # the lag reaches rescaled regional estimates, where the copies drifted apart
        assert n_model_regions > 0

    def test_split_scores_the_prediction_before_rescaling(self, small_world, monkeypatch):
        config = small_test_config()
        fits = []

        def recording(*args):
            for fit in pipeline.fit_periods(*args):
                fits.append(fit)
                yield fit

        monkeypatch.setattr(evaluation, "fit_periods", recording)
        split = run_single_split(small_world.dataset, config, {}, 0, 9)
        _, spec = _training_dataset(small_world.dataset, config, split.seed)
        source = small_world.dataset.source_levels
        n_rescaled_scored = 0
        for fit in fits:
            keys = sorted(k for k in fit.predictions if k in source and k[0] in spec.test_locations)
            scored = predict_log10(fit.model, fit.features, keys)
            observed = np.array([source[k] for k in keys])
            assert split.per_period_mae_full[fit.period.period_id] == pytest.approx(
                mae_relative(np.power(10.0, scored), observed), rel=1e-12
            )
            n_rescaled_scored += sum(fit.factors[k] != 1.0 for k in keys)
        assert n_rescaled_scored > 0


def make_estimates(values, kinds):
    return [
        EstimateRecord(
            location_id=f"L{i}", year=1500, gdp_pc=v, ci_low=v, ci_high=v, kind=k
        )
        for i, (v, k) in enumerate(zip(values, kinds))
    ]


class TestProxyCorrelation:
    def test_identical_series(self):
        ests = make_estimates([100.0, 200.0, 300.0, 400.0], ["source"] * 4)
        rows = [(e.location_id, 1500, e.gdp_pc) for e in ests]
        res = proxy_correlation(ests, rows)
        assert res.r == pytest.approx(1.0)
        assert res.n == 4

    def test_negated_series(self):
        ests = make_estimates([100.0, 200.0, 300.0], ["estimate"] * 3)
        rows = [(e.location_id, 1500, -e.gdp_pc) for e in ests]
        res = proxy_correlation(ests, rows)
        assert res.r == pytest.approx(-1.0)

    def test_noise_has_small_correlation(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(7, 0.5, size=200)
        ests = make_estimates(values.tolist(), ["estimate"] * 200)
        rows = [(e.location_id, 1500, float(rng.normal())) for e in ests]
        res = proxy_correlation(ests, rows)
        assert abs(res.r) < 0.3

    def test_per_kind_split(self):
        ests = make_estimates(
            [100.0, 200.0, 300.0, 400.0, 500.0, 600.0],
            ["source", "source", "source", "estimate", "estimate", "estimate"],
        )
        rows = [(e.location_id, 1500, 2 * e.gdp_pc) for e in ests]
        res = proxy_correlation(ests, rows)
        assert res.n_source == 3 and res.n_estimate == 3
        assert res.r_source == pytest.approx(1.0)
        assert res.r_estimate == pytest.approx(1.0)

    def test_log_transform(self):
        ests = make_estimates([10.0, 100.0, 1000.0, 10000.0], ["source"] * 4)
        rows = [(e.location_id, 1500, float(i)) for i, e in enumerate(ests)]
        res = proxy_correlation(ests, rows, transform="log10")
        assert res.r == pytest.approx(1.0)

    def test_too_few_matches(self):
        ests = make_estimates([1.0, 2.0], ["source", "source"])
        with pytest.raises(ValidationError):
            proxy_correlation(ests, [("L0", 1500, 1.0), ("L1", 1500, 2.0)])


class TestOutputs:
    def test_files_written(self, small_world, tmp_path):
        config = small_test_config(n_splits=2)
        dist = evaluate_models(small_world.dataset, config, n_splits=2, master_seed=5)
        csv_path = tmp_path / "evaluation.csv"
        write_evaluation_csv(dist, csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("split_index,seed,r2_baseline")
        summary_path = tmp_path / "evaluation_summary.json"
        write_evaluation_summary(dist, summary_path)
        assert "kruskal_wallis" in summary_path.read_text()

    def test_summary_rounds_to_six_significant_digits(self, small_world, tmp_path):
        dist = evaluate_models(small_world.dataset, small_test_config(n_splits=3),
                               n_splits=3, master_seed=5)
        path = tmp_path / "evaluation_summary.json"
        write_evaluation_summary(dist, path)
        doc = json.loads(path.read_text())

        def sig6(values):
            return {k: float(f"{v:.6g}") for k, v in values.items()}

        per_period = {}
        for s in [s for s in dist.splits if s.failed is None]:
            for pid, value in s.per_period_mae_full.items():
                per_period.setdefault(pid, []).append(value)
        assert dist.medians and per_period
        assert doc["medians"] == sig6(dist.medians)
        assert doc["iqr"] == sig6(dist.iqr)
        assert doc["kruskal_wallis"] == {m: sig6(t) for m, t in dist.kw.items()}
        assert doc["median_mae_full_by_period"] == sig6(
            {pid: quantile(v, 0.5) for pid, v in per_period.items()}
        )

    def test_proxy_csv_round_trip(self, tmp_path):
        path = tmp_path / "proxy.csv"
        path.write_text("location_id,year,value\nA,1500,0.35\nB,1600,0.5\n")
        rows = load_proxy_csv(path)
        assert rows == [("A", 1500, 0.35), ("B", 1600, 0.5)]


def test_split_with_too_few_usable_test_rows_fails(small_world):
    # a gate no location-year passes: the held-out rows are all gated, so
    # the split has nothing to score and fails with its reason, not a metric
    config = small_test_config(gating_thresholds=((2000, 10**9),))
    split = run_single_split(small_world.dataset, config, {}, 0, 9)
    assert split.failed == f"only 0 usable test rows (< {evaluation.MIN_TEST_ROWS})"
    assert split.n_test_rows == 0 and split.n_gated_test > 0
    assert split.mae_full is None and split.r2_full is None
