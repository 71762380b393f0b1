"""Synthetic biography worlds with a known ground-truth income process.

The generator plants a linear data-generating process on top of realized
biography features: log10 GDP per capita equals a supranational-region
effect, a persistence term on the previous period's end-year value, a
linear function of a few designated biography features, and Gaussian
noise.  Because the designated features are computed by the same feature
pipeline the models see, the planted relationship is exactly linear in
model space, which makes the worlds suitable for recovery, coverage, and
benchmark experiments without any external data.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data_ingest import BIOGRAPHY_HEADER, GDP_HEADER, LOCATION_HEADER, write_table
from .data_ingest import BiographyRecord, Dataset, GdpObservation, Location, LocationTable
from .errors import ValidationError
from .features import build_static_features
from .pipeline import PERIODS
from .rng import child_rng

DEFAULT_TRUE_COEFFICIENTS = {
    "births.occ03": 0.45,
    "deaths.occ07": -0.35,
    "immigrants.total": 0.40,
}
LAG_COEFFICIENT = 0.6  # persistence on the previous period's end-year log level
BASE_LEVEL = 3.0  # its stand-in in the earliest period


def choice_table(weights: np.ndarray) -> list:
    """The table that ``Generator.choice(len(weights), p=weights)`` searches.

    ``bisect_right(choice_table(weights), rng.random())`` draws the index
    that call would draw, from the same single uniform: ``choice`` takes
    the cumulative sum of ``weights`` over its last entry and returns its
    right-side ``searchsorted`` of one ``random()``.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass
class SyntheticWorld:
    dataset: Dataset
    true_log_gdp: dict  # (location, year) -> noiseless conditional mean
    observed_log_gdp: dict  # (location, year) -> realized value (with noise)
    true_coefficients: dict
    region_effects: dict
    noise_sd: float
    periods: tuple = field(default_factory=tuple)

    @property
    def true_features(self) -> tuple:
        return tuple(sorted(self.true_coefficients))


def make_synthetic_world(
    n_countries: int = 40,
    n_occupations: int = 10,
    period_ids=("late_middle_ages", "early_modern", "age_of_revolutions"),
    seed: int = 0,
    *,
    n_regions_per_country: int = 0,
    n_supra: int = 4,
    noise_sd: float = 0.05,
    true_coefficients: dict | None = None,
    label_fraction: float = 1.0,
    window_years: int = 150,
    migration_rate: float = 0.2,
) -> SyntheticWorld:
    """Generate a world over the given historical periods.

    Locations are countries (optionally subdivided into regions); when
    regions exist, individuals are located at region level so both
    hierarchy levels carry features.  ``label_fraction`` controls what
    share of region rows receive GDP observations (countries are always
    fully labeled so the lag chain is dense).  The persistence term is
    ``LAG_COEFFICIENT`` times the previous level, ``BASE_LEVEL`` in the
    earliest period.  The order of the random draws is fixed, so a seed
    gives the same world byte for byte.  An argument out of range raises
    :class:`ValidationError` naming it before anything is drawn.
    """
    for name, value, ok, need in (
        ("n_countries", n_countries, n_countries >= 1, "at least 1"),
        ("n_occupations", n_occupations, n_occupations >= 1, "at least 1"),
        ("n_regions_per_country", n_regions_per_country, n_regions_per_country >= 0, "at least 0"),
        ("n_supra", n_supra, n_supra >= 1, "at least 1"),
        ("noise_sd", noise_sd, noise_sd >= 0, "at least 0"),
        ("label_fraction", label_fraction, 0 <= label_fraction <= 1, "in [0, 1]"),
        ("migration_rate", migration_rate, 0 <= migration_rate <= 1, "in [0, 1]"),
    ):
        if not ok:
            raise ValidationError(f"make_synthetic_world: {name} must be {need}, got {value!r}")
    if true_coefficients is None:
        true_coefficients = dict(DEFAULT_TRUE_COEFFICIENTS)
    periods = tuple(p for p in PERIODS if p.period_id in set(period_ids))
    if len(periods) != len(period_ids):
        raise ValidationError(f"unknown period ids in {period_ids}")
    snapshots = sorted({y for p in periods for y in p.snapshots})
    for p in periods:
        if p.prev_end is not None and p.prev_end not in snapshots:
            raise ValidationError(
                f"period '{p.period_id}' needs its predecessor, whose last year {p.prev_end} "
                "gives its lag"
            )
    occupations = [f"occ{k:02d}" for k in range(n_occupations)]
    for name in true_coefficients:
        stem = name.split(".", 1)[1]
        if stem != "total" and stem not in occupations:
            raise ValidationError(f"true feature '{name}' names a missing occupation")

    rng = child_rng(seed, "synthetic-world")
    supra_names = [f"Zone {chr(65 + i)}" for i in range(n_supra)]
    entries = []
    person_locations = []  # ids people can be born/die in
    for i in range(n_countries):
        cid = f"C{i:02d}"
        entries.append(Location(cid, cid, "country", None, supra_names[i % n_supra]))
        if n_regions_per_country > 0:
            for r in range(n_regions_per_country):
                rid = f"{cid}-R{r}"
                entries.append(Location(rid, rid, "region", cid, ""))
                person_locations.append(rid)
        else:
            person_locations.append(cid)
    locations = LocationTable(entries)

    first_birth = snapshots[0] - window_years
    last_birth = snapshots[-1]

    # Per-location activity: a base intensity, an occupation mix, and an
    # independent attraction weight that drives immigration.
    intensity = np.exp(rng.normal(1.9, 0.7, size=len(person_locations)))
    attraction = np.exp(rng.normal(0.0, 1.0, size=len(person_locations)))
    attraction /= attraction.sum()
    mix = rng.gamma(0.5, size=(len(person_locations), n_occupations))
    mix /= mix.sum(axis=1, keepdims=True)

    # The draw order below is fixed (tests pin the worlds it gives): per
    # person, birth year, lifespan, occupation, migration, death location
    # (migrants only), page views and language editions.
    records = []
    pid = 0
    can_migrate = len(person_locations) > 1
    for li, lid in enumerate(person_locations):
        occupation_table = choice_table(mix[li])
        if can_migrate:
            weights = attraction.copy()
            weights[li] = 0.0
            death_table = choice_table(weights / weights.sum())
        for bucket_start in range(first_birth, last_birth, 50):
            n_people = rng.poisson(intensity[li])
            for _ in range(n_people):
                birth_year = int(rng.integers(bucket_start, bucket_start + 50))
                if not first_birth <= birth_year <= last_birth:
                    continue
                lifespan = int(min(max(rng.normal(65, 12), 20.0), 95.0))
                occupation = occupations[bisect_right(occupation_table, rng.random())]
                # drawn even in a one-location world, which keeps the stream
                if rng.random() < migration_rate and can_migrate:
                    death_loc = person_locations[bisect_right(death_table, rng.random())]
                else:
                    death_loc = lid
                records.append(
                    BiographyRecord(
                        person_id=f"p{pid:06d}",
                        name=f"person {pid}",
                        birth_year=birth_year,
                        death_year=birth_year + lifespan,
                        birth_location=lid,
                        death_location=death_loc,
                        occupation=occupation,
                        pageviews=int(np.exp(rng.normal(6.0, 1.5))) + 1,
                        language_editions=2 + int(rng.poisson(3)),
                    )
                )
                pid += 1

    # one dataset: its features give the levels that then fill its gdp list
    dataset = Dataset(records=records, locations=locations, gdp=[])
    region_effects = {
        name: effect
        for name, effect in zip(supra_names, rng.normal(0.0, 0.15, size=n_supra))
    }

    true_log = {}
    observed_log = {}
    all_location_ids = locations.ids()
    for period in periods:
        for year in period.snapshots:
            fm = build_static_features(year, dataset, window_years=window_years).matrix
            lids = [lid for lid, _ in fm.row_keys]
            # in true_coefficients order: another order changes the last bits
            signal = sum(coef * fm.values[:, fm.columns.index(name)]
                         for name, coef in true_coefficients.items())
            mean = np.array([region_effects[locations.supra_of(lid)] for lid in lids]) + signal
            if period.prev_end is None:
                mean += BASE_LEVEL
            else:
                lag = np.array([observed_log[(lid, period.prev_end)] for lid in lids])
                mean += LAG_COEFFICIENT * lag
            true_log.update(zip(fm.row_keys, mean))
            observed_log.update(zip(fm.row_keys, mean + rng.normal(0.0, noise_sd, size=len(lids))))

            for lid in all_location_ids:
                is_region = locations.get(lid).level == "region"
                if is_region and rng.random() > label_fraction:
                    continue
                dataset.gdp.append(
                    GdpObservation(lid, year, 10.0 ** observed_log[(lid, year)], "synthetic")
                )

    return SyntheticWorld(
        dataset=dataset,
        true_log_gdp=true_log,
        observed_log_gdp=observed_log,
        true_coefficients=dict(true_coefficients),
        region_effects=region_effects,
        noise_sd=noise_sd,
        periods=tuple(p.period_id for p in periods),
    )


def write_world_csv(dataset: Dataset, directory) -> dict:
    """Write a dataset as the three pipeline input files.

    Returns the paths, keyed ``biographies``/``locations``/``gdp``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "biographies": directory / "biographies.csv",
        "locations": directory / "locations.csv",
        "gdp": directory / "gdp.csv",
    }
    write_table(
        paths["biographies"],
        BIOGRAPHY_HEADER,
        (
            [
                r.person_id,
                r.name,
                r.birth_year,
                "" if r.death_year is None else r.death_year,
                r.birth_location or "",
                r.death_location or "",
                r.occupation,
                r.pageviews,
                r.language_editions,
            ]
            for r in dataset.records
        ),
    )
    write_table(
        paths["locations"],
        LOCATION_HEADER,
        (
            [
                loc.location_id,
                loc.name,
                loc.level,
                loc.parent_country or "",
                loc.supranational_region,
            ]
            for loc in map(dataset.locations.get, dataset.locations.ids())
        ),
    )
    write_table(
        paths["gdp"],
        GDP_HEADER,
        (
            [obs.location_id, obs.year, repr(float(obs.gdp_pc)), obs.source]
            for obs in dataset.gdp
        ),
    )
    return paths

