import json
import re

import pytest

from histgdp.cli import main
from histgdp.synthetic import write_world_csv
from conftest import small_test_config


@pytest.fixture(scope="module")
def world_files(tmp_path_factory, request):
    # a compact world written out as the three CSV inputs
    from histgdp.synthetic import make_synthetic_world

    world = make_synthetic_world(
        n_countries=6,
        n_occupations=3,
        period_ids=("late_middle_ages", "early_modern"),
        seed=23,
        n_regions_per_country=1,
        n_supra=2,
        label_fraction=0.7,
        true_coefficients={"births.occ00": 0.45, "immigrants.total": 0.4},
    )
    directory = tmp_path_factory.mktemp("world")
    return write_world_csv(world.dataset, directory)


@pytest.fixture(scope="module")
def config_file(world_files, tmp_path_factory):
    cfg = small_test_config().echo()
    cfg.update(
        biographies=str(world_files["biographies"]),
        locations=str(world_files["locations"]),
        gdp=str(world_files["gdp"]),
        n_splits=2,
        k_folds=3,
        bootstrap_samples=50,
        n_lambda=8,
    )
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


class TestBasics:
    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "histgdp" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["estimate", "--help"]) == 0

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["estimate", "--bogus-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        assert run(["transmogrify"]) == 1

    def test_missing_input_path_exits_one_with_usage(self, tmp_path, capsys):
        code = run(["estimate", "--output-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err and "missing required input" in err

    def test_missing_biographies_file_exits_three(self, tmp_path, capsys):
        code = run([
            "estimate",
            "--biographies", tmp_path / "nope.csv",
            "--locations", tmp_path / "nope2.csv",
            "--gdp", tmp_path / "nope3.csv",
            "--output-dir", tmp_path,
        ])
        assert code == 3
        assert "nope" in capsys.readouterr().err


class TestValidate:
    def test_summary_and_rejects(self, config_file, tmp_path, capsys):
        code = run(["validate", "--config", config_file, "--output-dir", tmp_path])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["eligible_biographies"] > 0
        assert (tmp_path / "rejects.csv").exists()

    def test_invalid_config_key_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not_a_key": 1}')
        assert run(["validate", "--config", bad]) == 1

    def test_infinite_gdp_is_rejected(self, config_file, world_files, tmp_path, capsys):
        rows = world_files["gdp"].read_text().splitlines()
        location = rows[1].split(",")[0]
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("\n".join(rows + [f"{location},2000,inf,m"]) + "\n")
        code = run(["validate", "--config", config_file, "--gdp", gdp, "--output-dir", tmp_path])
        assert code == 0
        rejects = (tmp_path / "rejects.csv").read_text().splitlines()
        assert f"gdp,{len(rows) + 1},{location},infinite gdp_pc" in rejects
        assert json.loads(capsys.readouterr().out)["rejected_rows"] == len(rejects) - 1

    def test_missing_input_path_exits_one_with_one_usage_line(self, tmp_path, capsys):
        assert run(["validate", "--output-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.count("usage") == 1 and "missing required input" in err
        assert not (tmp_path / "rejects.csv").exists()

    def test_negative_reject_fraction_exits_one_without_traceback(self, config_file, tmp_path,
                                                                  capsys):
        out = tmp_path / "out"
        code = run(["validate", "--config", config_file, "--output-dir", out,
                    "--max-reject-fraction", "-0.1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "max_reject_fraction must lie in [0, 1], got -0.1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSettingsEveryLoadRejects:
    # refused before any input is read: the input paths do not exist, which
    # would exit 3 if they were opened
    @pytest.mark.parametrize("flag,value,message", [
        ("--max-reject-fraction", "1.5", r"max_reject_fraction must lie in \[0, 1\], got 1.5"),
        ("--window-years", "0", "window_years must be at least 1, got 0"),
    ])
    @pytest.mark.parametrize("command", ["validate", "features", "estimate", "evaluate"])
    def test_exits_one_before_reading_inputs(self, tmp_path, capsys, command, flag, value,
                                             message):
        missing = tmp_path / "missing.csv"
        code = run([command, "--biographies", missing, "--locations", missing, "--gdp", missing,
                    "--output-dir", tmp_path / "out", flag, value])
        assert code == 1
        assert re.search(message, capsys.readouterr().err)


class TestEstimate:
    def test_outputs_written(self, config_file, tmp_path, capsys):
        code = run(["estimate", "--config", config_file, "--output-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "estimates.csv").exists()
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["counts"]["source"] > 0
        assert report["rescale_audit"]["violations"] == []
        assert report["config"]["seed"] == 7

    def test_byte_identical_reruns_and_threads(self, config_file, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        out3 = tmp_path / "run3"
        assert run(["estimate", "--config", config_file, "--output-dir", out1]) == 0
        assert run(["estimate", "--config", config_file, "--output-dir", out2]) == 0
        assert run([
            "estimate", "--config", config_file, "--output-dir", out3, "--threads", 4,
        ]) == 0
        first = (out1 / "estimates.csv").read_bytes()
        assert first == (out2 / "estimates.csv").read_bytes()
        assert first == (out3 / "estimates.csv").read_bytes()
        # the report echoes thread count and output paths; compare the rest
        r1 = json.loads((out1 / "run_report.json").read_text())
        r3 = json.loads((out3 / "run_report.json").read_text())
        for r in (r1, r3):
            r["config"].pop("threads")
            r["config"].pop("output_dir")
        assert r1 == r3

    def test_flag_overrides_config(self, config_file, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["estimate", "--config", config_file, "--output-dir", out1]) == 0
        assert run([
            "estimate", "--config", config_file, "--output-dir", out2, "--seed", 99,
        ]) == 0
        r1 = json.loads((out1 / "run_report.json").read_text())
        r2 = json.loads((out2 / "run_report.json").read_text())
        assert r1["config"]["seed"] == 7
        assert r2["config"]["seed"] == 99


class TestFeatures:
    def test_matrices_emitted(self, config_file, tmp_path):
        code = run(["features", "--config", config_file, "--output-dir", tmp_path])
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("feature_matrix_*.csv"))
        assert "feature_matrix_1300.csv" in written
        assert "feature_matrix_1750.csv" in written
        header = (tmp_path / "feature_matrix_1750.csv").read_text().splitlines()[0]
        assert header.startswith("location_id,year,births.total")
        assert header.endswith("init_gdp")


class TestEvaluate:
    def test_row_count_contract(self, config_file, tmp_path):
        code = run([
            "evaluate", "--config", config_file, "--output-dir", tmp_path,
            "--n-splits", 3,
        ])
        assert code == 0
        lines = (tmp_path / "evaluation.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per split
        summary = json.loads((tmp_path / "evaluation_summary.json").read_text())
        assert summary["n_splits"] == 3
        assert "kruskal_wallis" in summary

    def test_too_few_countries_exits_one_before_any_split(self, tmp_path, capsys):
        # every split would reject a world of 4 countries: refused up front
        from histgdp.synthetic import make_synthetic_world

        world = make_synthetic_world(4, 10, seed=0)
        paths = write_world_csv(world.dataset, tmp_path / "world")
        out = tmp_path / "out"
        code = run([
            "evaluate", "--biographies", paths["biographies"], "--locations",
            paths["locations"], "--gdp", paths["gdp"], "--output-dir", out, "--n-splits", 3,
        ])
        assert code == 1
        assert "need at least 5 countries to hold out, got 4" in capsys.readouterr().err
        assert not out.exists()  # a refused run leaves no output directory behind


class TestSettingsEverySplitRejects:
    # settings every held-out split would reject: refused before any input is read
    @pytest.mark.parametrize("flag,value,message", [
        ("--test-fraction", "1.5", r"test_fraction must lie in \(0, 1\), got 1.5"),
        ("--k-folds", "1", "k_folds must be at least 2, got 1"),
        ("--n-lambda", "0", "n_lambda must be at least 2, got 0"),
        ("--alpha-grid", "", "alpha_grid must not be empty"),
        # a one-lambda path, or a flat one, selects nothing in every period
        ("--n-lambda", "1", "n_lambda must be at least 2, got 1"),
        ("--lambda-ratio", "1", r"lambda_ratio must lie in \(0, 1\), got 1.0"),
        ("--lambda-ratio", "0", r"lambda_ratio must lie in \(0, 1\), got 0.0"),
        ("--lambda-ratio", "-0.5", r"lambda_ratio must lie in \(0, 1\), got -0.5"),
        ("--n-splits", "0", "n_splits must be at least 1, got 0"),
        ("--bootstrap-samples", "10", "bootstrap_samples must be at least 50, got 10"),
    ])
    @pytest.mark.parametrize("command", ["evaluate", "estimate"])
    def test_exits_one_before_any_work(self, config_file, tmp_path, capsys, command,
                                       flag, value, message):
        out = tmp_path / "out"
        code = run([command, "--config", config_file, "--output-dir", out, flag, value])
        assert code == 1
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()


class TestExplain:
    def test_shapley_outputs(self, config_file, tmp_path):
        code = run(["explain", "--config", config_file, "--output-dir", tmp_path])
        assert code == 0
        shapley = sorted(p.name for p in tmp_path.glob("shapley_*.csv"))
        assert shapley == ["shapley_early_modern.csv", "shapley_late_middle_ages.csv"]
        importance = (tmp_path / "feature_importance_early_modern.csv").read_text()
        assert importance.splitlines()[0] == "feature,mean_abs_phi"
        header = (tmp_path / "shapley_early_modern.csv").read_text().splitlines()[0]
        assert header == "location_id,year,feature,phi,se"


class TestCorrelate:
    def test_correlation_output(self, config_file, tmp_path, capsys):
        assert run(["estimate", "--config", config_file, "--output-dir", tmp_path]) == 0
        import csv as csvmod

        with (tmp_path / "estimates.csv").open() as fh:
            rows = list(csvmod.DictReader(fh))
        proxy = tmp_path / "proxy.csv"
        with proxy.open("w") as fh:
            fh.write("location_id,year,value\n")
            for r in rows[:50]:
                fh.write(f"{r['location_id']},{r['year']},{float(r['gdp_pc_2011usd']):.6g}\n")
        code = run([
            "correlate", "--config", config_file, "--output-dir", tmp_path,
            "--proxies", proxy, "--transform", "none",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "correlation.json").read_text())
        assert doc["pearson_r"] == pytest.approx(1.0, abs=1e-9)
        assert doc["n"] == 50


class TestCorrelateInputs:
    ESTIMATES = [
        "location_id,year,gdp_pc_2011usd,ci_low,ci_high,kind,gated,rescaled,init_gdp_provenance",
        "A,1300,1000,1000,1000,source,false,false,",
        "B,1300,1500,1400,1600,estimate,false,false,source",
        "C,1300,1200,1100,1300,estimate,false,true,model",
    ]
    PROXY = ["location_id,year,value", "A,1300,1.0", "B,1300,2.5", "C,1300,2.0"]

    def test_feature_matrix_is_not_an_estimates_file(self, config_file, world_files,
                                                      tmp_path, capsys):
        assert run(["features", "--config", config_file, "--output-dir", tmp_path]) == 0
        # a proxy that matches the world's source rows
        proxy = tmp_path / "proxy.csv"
        gdp_rows = world_files["gdp"].read_text().splitlines()[1:]
        proxy.write_text(
            "location_id,year,value\n"
            + "".join(f"{r.split(',')[0]},{r.split(',')[1]},1.0\n" for r in gdp_rows)
        )
        capsys.readouterr()
        code = run([
            "correlate", "--output-dir", tmp_path, "--proxies", proxy,
            "--estimates", tmp_path / "feature_matrix_1300.csv",
        ])
        assert code == 3
        assert "header mismatch" in capsys.readouterr().err
        assert not (tmp_path / "correlation.json").exists()

    @pytest.mark.parametrize(
        "table, bad_row",
        [
            ("estimates", "C,1300,1200"),
            ("estimates", "C,13x0,1200,1100,1300,estimate,false,true,model"),
            ("estimates", "C,1300,abc,1100,1300,estimate,false,true,model"),
            ("estimates", "C,1300,0,0,0,estimate,false,true,model"),
            ("proxy", "C,13x0,2.0"),
            ("proxy", "C,1300,abc"),
            ("proxy", "C,1300,nan"),
            ("estimates", "C,1300,1200,1100,1300,Source,false,true,model"),
            ("estimates", "C,1300,1200,1100,1300,estimate,false,yes,model"),
        ],
        ids=["short-row", "year", "gdp", "zero-gdp", "proxy-year", "proxy-value", "proxy-nan",
             "kind", "rescaled"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, capsys, table, bad_row):
        lines = {"estimates": list(self.ESTIMATES), "proxy": list(self.PROXY)}
        lines[table][3] = bad_row
        paths = {}
        for name, content in lines.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(content) + "\n")
        code = run([
            "correlate", "--output-dir", tmp_path, "--transform", "log10",
            "--proxies", paths["proxy"], "--estimates", paths["estimates"],
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{paths[table]}:4:" in err
        assert "Traceback" not in err
