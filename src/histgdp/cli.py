"""Command line interface.

Subcommands: ``validate`` (ingest and report), ``features`` (export the
per-year feature matrices), ``estimate`` (full estimation run),
``evaluate`` (country-held-out performance protocol), ``explain``
(Shapley attributions), and ``correlate`` (external proxy correlation).

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 I/O
error.  Diagnostics go to stderr; data goes to files and stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import CHOICES, RunConfig, config_from_sources, field_type
from .data_ingest import load_dataset, write_json, write_rejects_report
from .errors import HistGdpError, InputError, ValidationError
from .evaluation import (
    evaluate_models,
    load_proxy_csv,
    proxy_correlation,
    write_evaluation_csv,
    write_evaluation_summary,
)
from .explain import run_explain, write_importance_csv, write_shapley_csv
from .features import write_feature_csv
from .pipeline import (
    fit_periods,
    read_estimates_csv,
    run_full,
    write_estimates_csv,
    write_run_report,
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default is 2, which we reserve for
    # numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_alpha_grid(text):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _parse_thresholds(text):
    pairs = []
    for part in text.split(","):
        year, t = part.split(":")
        pairs.append((int(year), int(t)))
    return tuple(pairs)


# fields whose flag text is not parsed by the type of their default
_FLAG_PARSERS = {
    "alpha_grid": (_parse_alpha_grid, "A1,A2,..."),
    "gating_thresholds": (_parse_thresholds, "YEAR:T,YEAR:T,..."),
}


def _add_config_flags(p):
    """One flag per RunConfig field; unset flags stay None."""
    p.add_argument("--config", help="JSON config file (flat keys mirror the flags)")
    for f in fields(RunConfig):
        parse, metavar = _FLAG_PARSERS.get(f.name, (field_type(f), None))
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=parse,
            metavar=metavar,
            choices=CHOICES.get(f.name),
            help=f.metadata.get("help"),
        )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="histgdp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"histgdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_config_flags(sub.add_parser("validate", help="ingest inputs and report data quality"))
    _add_config_flags(sub.add_parser("features", help="export feature_matrix_<year>.csv files"))
    _add_config_flags(sub.add_parser("estimate", help="produce estimates.csv and run_report.json"))
    _add_config_flags(sub.add_parser("evaluate", help="run the held-out-country protocol"))
    _add_config_flags(sub.add_parser("explain", help="export Shapley attributions per period"))
    correlate = _add_config_flags(
        sub.add_parser("correlate", help="correlate estimates with a proxy")
    )
    correlate.add_argument("--estimates", help="estimates.csv from a prior run")
    correlate.add_argument("--transform", choices=("none", "log10"), default=None)
    return parser


def _resolve_config(args):
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return config_from_sources(args.config, overrides)


def _require_inputs(config):
    # a path never supplied is a usage problem (exit 1); a supplied path
    # that does not exist surfaces later as an I/O error (exit 3)
    missing = [name for name in ("biographies", "locations", "gdp")
               if getattr(config, name) is None]
    if missing:
        print("usage: histgdp <command> --biographies B --locations L --gdp G [options]",
              file=sys.stderr)
        raise ValidationError(
            f"missing required input path(s): {', '.join(missing)} "
            f"(pass --{missing[0]} or set it in the config file)"
        )


def _load(config):
    _require_inputs(config)
    return load_dataset(
        config.biographies,
        config.locations,
        config.gdp,
        min_birth_year=config.min_birth_year,
        max_reject_fraction=config.max_reject_fraction,
    )


def cmd_validate(config) -> int:
    out = Path(config.output_dir)
    try:
        dataset = _load(config)
    except HistGdpError as err:
        rejects = getattr(err, "rejects", None)
        if rejects:
            write_rejects_report(rejects, out / "rejects.csv")
        raise
    write_rejects_report(dataset.rejects, out / "rejects.csv")
    summary = {
        "eligible_biographies": len(dataset.records),
        "locations": len(dataset.locations),
        "countries": len(dataset.locations.countries()),
        "regions": len(dataset.locations.regions()),
        "gdp_observations": len(dataset.gdp),
        "occupations": len(dataset.occupations),
        "rejected_rows": len(dataset.rejects),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_features(config) -> int:
    out = Path(config.output_dir)
    dataset = _load(config)
    n_written = 0
    for fit in fit_periods(dataset, config, [(dataset.source_levels, config.seed)], {}):
        for year in fit.period.snapshots:
            year_keys = [k for k in fit.features.row_keys if k[1] == year]
            write_feature_csv(fit.features.subset(year_keys), out / f"feature_matrix_{year}.csv")
            n_written += 1
    print(f"wrote {n_written} feature matrices to {out}", file=sys.stderr)
    return 0


def cmd_estimate(config) -> int:
    out = Path(config.output_dir)
    dataset = _load(config)
    result = run_full(dataset, config)
    write_rejects_report(dataset.rejects, out / "rejects.csv")
    write_estimates_csv(result.estimates, out / "estimates.csv")
    write_run_report(result.report, out / "run_report.json")
    counts = result.report["counts"]
    print(
        f"estimates.csv: {counts['source']} source rows, "
        f"{counts['estimates']} estimates, {counts['gated']} gated",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(config) -> int:
    out = Path(config.output_dir)
    dataset = _load(config)
    dist = evaluate_models(dataset, config)
    write_evaluation_csv(dist, out / "evaluation.csv")
    write_evaluation_summary(dist, out / "evaluation_summary.json")
    print(
        f"evaluation.csv: {len(dist.splits)} splits, {dist.n_failed} failed",
        file=sys.stderr,
    )
    return 0


def cmd_explain(config) -> int:
    out = Path(config.output_dir)
    dataset = _load(config)
    results = run_explain(dataset, config)
    for period_id, (attributions, ranking) in sorted(results.items()):
        write_shapley_csv(attributions, out / f"shapley_{period_id}.csv")
        write_importance_csv(ranking, out / f"feature_importance_{period_id}.csv")
    print(f"wrote attributions for {len(results)} periods to {out}", file=sys.stderr)
    return 0


def cmd_correlate(config, args) -> int:
    out = Path(config.output_dir)
    if config.proxies is None:
        raise InputError("correlate needs --proxies")
    estimates_path = args.estimates or (out / "estimates.csv")
    estimates = read_estimates_csv(estimates_path)
    rows = load_proxy_csv(config.proxies)
    transform = args.transform or "log10"
    res = proxy_correlation(estimates, rows, transform=transform)
    doc = {
        "transform": transform,
        "pearson_r": res.r,
        "n": res.n,
        "pearson_r_source": res.r_source,
        "n_source": res.n_source,
        "pearson_r_estimate": res.r_estimate,
        "n_estimate": res.n_estimate,
    }
    write_json(out / "correlation.json", doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "features":
            return cmd_features(config)
        if args.command == "estimate":
            return cmd_estimate(config)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "explain":
            return cmd_explain(config)
        if args.command == "correlate":
            return cmd_correlate(config, args)
        raise InputError(f"unknown command '{args.command}'")
    except HistGdpError as err:
        print(f"histgdp {args.command}: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"histgdp {args.command}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
