"""The package's tables: the three input tables, and the format every
CSV and JSON artifact is read and written in.

Every table is UTF-8 CSV with RFC-4180 quoting; an empty string means a
missing value.  :func:`read_table` opens one and checks its header,
:func:`write_table` writes one, :func:`write_json` writes a JSON document,
and :func:`format_float` gives a reported float its 6 significant digits.
Structural problems (missing file, empty file, wrong header) are fatal.
Row-level invariant violations in the inputs (negative lifespans,
non-positive language counts, duplicate keys) are collected into a
rejects report with line numbers; the load aborts only when the rejected
fraction exceeds a configurable threshold.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import InputError, ValidationError

BIOGRAPHY_HEADER = [
    "person_id",
    "name",
    "birth_year",
    "death_year",
    "birth_location_id",
    "death_location_id",
    "occupation",
    "pageviews",
    "language_editions",
]
LOCATION_HEADER = [
    "location_id",
    "name",
    "level",
    "parent_country_id",
    "supranational_region",
]
GDP_HEADER = ["location_id", "year", "gdp_pc_2011usd", "source"]

SNAPSHOT_YEARS = tuple(range(1300, 2000, 50)) + (2000,)

FLOWS = ("births", "deaths", "immigrants", "emigrants")
LEVELS = ("country", "region")


@dataclass(frozen=True)
class BiographyRecord:
    person_id: str
    name: str
    birth_year: int
    death_year: int | None
    birth_location: str | None
    death_location: str | None
    occupation: str
    pageviews: int
    language_editions: int

    @property
    def lifespan(self) -> int | None:
        if self.death_year is None:
            return None
        return self.death_year - self.birth_year


@dataclass(frozen=True)
class Location:
    location_id: str
    name: str
    level: str  # "country" | "region"
    parent_country: str | None
    supranational_region: str


class LocationTable:
    """Region/country hierarchy with supranational groupings.

    Construction validates the hierarchy: region parents must exist and be
    countries, every country needs a supranational region, ids are unique.
    """

    def __init__(self, entries):
        self._by_id: dict[str, Location] = {}
        for loc in entries:
            if loc.location_id in self._by_id:
                raise ValidationError(f"duplicate location id '{loc.location_id}'")
            if loc.level not in ("country", "region"):
                raise ValidationError(
                    f"location '{loc.location_id}': unknown level '{loc.level}'"
                )
            self._by_id[loc.location_id] = loc
        for loc in self._by_id.values():
            if loc.level == "region":
                parent = self._by_id.get(loc.parent_country or "")
                if parent is None or parent.level != "country":
                    raise ValidationError(
                        f"region '{loc.location_id}' has no valid parent country"
                    )
            elif not loc.supranational_region:
                raise ValidationError(
                    f"country '{loc.location_id}' lacks a supranational region"
                )
        by_supra: dict[str, list[str]] = {}
        for country in self.countries():
            by_supra.setdefault(self._by_id[country].supranational_region, []).append(country)
        self._countries_by_supra = {supra: tuple(ids) for supra, ids in by_supra.items()}

    def __contains__(self, location_id: str) -> bool:
        return location_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, location_id: str) -> Location:
        try:
            return self._by_id[location_id]
        except KeyError:
            raise ValidationError(f"unknown location id '{location_id}'") from None

    def ids(self, level: str | None = None) -> list[str]:
        return sorted(
            lid for lid, loc in self._by_id.items() if level is None or loc.level == level
        )

    def countries(self) -> list[str]:
        return self.ids("country")

    def regions(self) -> list[str]:
        return self.ids("region")

    def regions_of(self, country_id: str) -> list[str]:
        return sorted(
            lid
            for lid, loc in self._by_id.items()
            if loc.level == "region" and loc.parent_country == country_id
        )

    def country_of(self, location_id: str) -> str:
        loc = self.get(location_id)
        return loc.location_id if loc.level == "country" else loc.parent_country

    def supra_of(self, location_id: str) -> str:
        country = self.get(self.country_of(location_id))
        return country.supranational_region

    def supranational_regions(self) -> list[str]:
        return sorted(self._countries_by_supra)

    def countries_in(self, supra: str) -> tuple[str, ...]:
        """Countries of one supranational region, sorted by id."""
        return self._countries_by_supra.get(supra, ())


@dataclass(frozen=True)
class GdpObservation:
    location_id: str
    year: int
    gdp_pc: float
    source: str


@dataclass(frozen=True)
class RejectedRow:
    file: str  # the input table: biographies | gdp
    line_number: int
    key: str
    reason: str


@dataclass(frozen=True)
class FlowAssignment:
    """Per-location person-id sets for one snapshot year.

    Assignments exist at both hierarchy levels: a record born in a region
    contributes to that region and to its parent country.  Migrant sets
    require both endpoints to be resolvable at the same level, so a record
    located only at country level never enters region-level flows, and a
    move between two regions of one country is not a country-level
    migration.
    """

    snapshot_year: int
    window_years: int
    births: dict
    deaths: dict
    immigrants: dict
    emigrants: dict

    def flow(self, name: str) -> dict:
        if name not in FLOWS:
            raise ValidationError(f"unknown flow '{name}'")
        return getattr(self, name)

    def members(self, location_id: str) -> frozenset:
        out = frozenset()
        for name in FLOWS:
            out |= self.flow(name).get(location_id, frozenset())
        return out


def read_table(path, header, what):
    """Yield ``(line, row)`` for each row of the CSV table at ``path``.

    ``line`` numbers the rows from 2, the header being line 1.
    A missing file, an empty file or a header other than ``header`` (after
    stripping blanks) raises InputError; ``what`` names the table.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{what} file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise InputError(f"{path}: empty file, expected header {header}")
        found = [h.strip() for h in found]
        if found != header:
            missing = [c for c in header if c not in found]
            raise InputError(
                f"{path}: header mismatch (missing columns {missing})"
                if missing
                else f"{path}: header order must be {header}"
            )
        yield from enumerate(reader, start=2)


def _created(path) -> Path:
    """``path`` with its directory made, so that a run's output directory
    appears with its first artifact and a refused run leaves none."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_table(path, header, rows):
    """Write ``header`` and then ``rows`` as a UTF-8 CSV table."""
    with _created(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc):
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    _created(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_float(value: float) -> str:
    """A reported float at 6 significant digits, as every artifact writes it."""
    return f"{value:.6g}"


def parse_field(text, kind, what, path, line):
    """``kind(text)``; a ValidationError naming ``path:line`` when it fails."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{path}:{line}: unparseable {what} '{text}'") from None


def _parse_int(text, what, path, line):
    # parse_field's check written out: this runs four times per biography row
    text = text.strip()
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{path}:{line}: unparseable {what} '{text}'") from None


def load_biographies(path) -> tuple[list[BiographyRecord], list[RejectedRow]]:
    """Parse biographies.csv; returns (records, rejected rows)."""
    records: list[BiographyRecord] = []
    rejects: list[RejectedRow] = []
    seen: set[str] = set()
    reject = partial(RejectedRow, "biographies")
    for line, row in read_table(path, BIOGRAPHY_HEADER, "biographies"):
        if len(row) != len(BIOGRAPHY_HEADER):
            rejects.append(reject(line, row[0] if row else "", "wrong field count"))
            continue
        (pid, name, by, dy, bloc, dloc, occ, views, langs) = [c.strip() for c in row]
        if not pid:
            rejects.append(reject(line, "", "missing person_id"))
            continue
        if pid in seen:
            rejects.append(reject(line, pid, "duplicate person_id"))
            continue
        birth_year = _parse_int(by, "birth_year", path, line)
        death_year = _parse_int(dy, "death_year", path, line)
        pageviews = _parse_int(views, "pageviews", path, line)
        language_editions = _parse_int(langs, "language_editions", path, line)
        if birth_year is None:
            rejects.append(reject(line, pid, "missing birth_year"))
            continue
        if death_year is not None and death_year < birth_year:
            rejects.append(reject(line, pid, "negative lifespan"))
            continue
        if pageviews is None or pageviews < 0:
            rejects.append(reject(line, pid, "missing or negative pageviews"))
            continue
        if language_editions is None or language_editions < 1:
            rejects.append(reject(line, pid, "missing or non-positive language_editions"))
            continue
        seen.add(pid)
        records.append(
            BiographyRecord(
                person_id=pid,
                name=name,
                birth_year=birth_year,
                death_year=death_year,
                birth_location=bloc or None,
                death_location=dloc or None,
                occupation=occ.casefold().strip(),
                pageviews=pageviews,
                language_editions=language_editions,
            )
        )
    if not records and not rejects:
        warnings.warn(f"{path}: no biography rows found", stacklevel=2)
    return records, rejects


def load_locations(path) -> LocationTable:
    """Parse locations.csv into a validated LocationTable."""
    entries = []
    for line, row in read_table(path, LOCATION_HEADER, "locations"):
        if len(row) != len(LOCATION_HEADER):
            raise ValidationError(f"{path}:{line}: wrong field count")
        lid, name, level, parent, supra = [c.strip() for c in row]
        if not lid:
            raise ValidationError(f"{path}:{line}: missing location_id")
        entries.append(
            Location(
                location_id=lid,
                name=name,
                level=level,
                parent_country=parent or None,
                supranational_region=supra,
            )
        )
    return LocationTable(entries)


def load_gdp(path, locations: LocationTable) -> tuple[list[GdpObservation], list[RejectedRow]]:
    """Parse gdp.csv; rows violating the observation invariants are rejected."""
    observations: list[GdpObservation] = []
    rejects: list[RejectedRow] = []
    seen: set[tuple[str, int]] = set()
    reject = partial(RejectedRow, "gdp")
    for line, row in read_table(path, GDP_HEADER, "gdp"):
        if len(row) != len(GDP_HEADER):
            rejects.append(reject(line, row[0] if row else "", "wrong field count"))
            continue
        lid, year_s, gdp_s, source = [c.strip() for c in row]
        year = _parse_int(year_s, "year", path, line)
        if year is None or year not in SNAPSHOT_YEARS:
            rejects.append(reject(line, lid, f"year not on the 50-year grid: '{year_s}'"))
            continue
        try:
            gdp = float(gdp_s)
        except ValueError:
            rejects.append(reject(line, lid, f"unparseable gdp_pc '{gdp_s}'"))
            continue
        if not gdp > 0:
            rejects.append(reject(line, lid, "non-positive gdp_pc"))
            continue
        if math.isinf(gdp):
            rejects.append(reject(line, lid, "infinite gdp_pc"))
            continue
        if lid not in locations:
            rejects.append(reject(line, lid, "unknown location"))
            continue
        if (lid, year) in seen:
            rejects.append(reject(line, lid, f"duplicate observation for year {year}"))
            continue
        seen.add((lid, year))
        observations.append(GdpObservation(lid, year, gdp, source))
    return observations, rejects


def filter_eligible(records, locations: LocationTable, min_birth_year: int = 1100):
    """Keep records usable for feature construction.

    Requires at least two language editions, a non-empty occupation, a
    birth year at or after the cutoff, and at least one location that
    exists in the location table.
    """
    kept = []
    for r in records:
        if r.language_editions < 2:
            continue
        if not r.occupation:
            continue
        if r.birth_year < min_birth_year:
            continue
        has_birth = r.birth_location is not None and r.birth_location in locations
        has_death = r.death_location is not None and r.death_location in locations
        if not (has_birth or has_death):
            continue
        kept.append(r)
    return kept


def _point_at_level(location_id, locations: LocationTable, level: str):
    if location_id is None or location_id not in locations:
        return None
    loc = locations.get(location_id)
    if loc.level == level:
        return location_id
    if level == "country" and loc.level == "region":
        return loc.parent_country
    return None


def assign_flows(records, locations: LocationTable, snapshot_year: int, window_years: int = 150) -> FlowAssignment:
    """Assign individuals born within the window to location flows.

    Includes exactly the records with
    ``snapshot_year - window_years <= birth_year <= snapshot_year``.
    """
    if window_years <= 0:
        raise ValidationError(f"window_years must be positive, got {window_years}")
    births: dict[str, set] = {}
    deaths: dict[str, set] = {}
    immigrants: dict[str, set] = {}
    emigrants: dict[str, set] = {}

    def add(table, key, pid):
        table.setdefault(key, set()).add(pid)

    for r in records:
        if not (snapshot_year - window_years <= r.birth_year <= snapshot_year):
            continue
        for level in LEVELS:
            b = _point_at_level(r.birth_location, locations, level)
            d = _point_at_level(r.death_location, locations, level)
            if b is not None:
                add(births, b, r.person_id)
            if d is not None:
                add(deaths, d, r.person_id)
            if b is not None and d is not None and b != d:
                add(emigrants, b, r.person_id)
                add(immigrants, d, r.person_id)

    freeze = lambda table: {k: frozenset(v) for k, v in table.items()}
    return FlowAssignment(
        snapshot_year=snapshot_year,
        window_years=window_years,
        births=freeze(births),
        deaths=freeze(deaths),
        immigrants=freeze(immigrants),
        emigrants=freeze(emigrants),
    )


@dataclass(frozen=True)
class RecordIndex:
    """Per-record arrays in person-id order, for vectorized feature counts.

    ``birth_row[level]`` and ``death_row[level]`` hold each record's row in
    ``location_ids[level]`` by the ``_point_at_level`` rules (a region
    rolls up to its country; a country-only location has no region row),
    or -1 where the endpoint is missing or unresolvable at that level.
    ``features.hpi_weight`` reads ``pageviews``, ``language_editions`` and
    ``birth_year`` at a window's rows element-wise.
    """

    birth_year: np.ndarray  # int
    occupation: np.ndarray  # int code into the dataset's sorted occupations
    lifespan: np.ndarray  # float, NaN without a death year
    pageviews: np.ndarray  # float
    language_editions: np.ndarray  # float
    location_ids: dict  # level -> location ids in row order
    birth_row: dict  # level -> int array
    death_row: dict  # level -> int array


def index_records(records, locations: LocationTable, occupations) -> RecordIndex:
    """Build the record index; ``occupations`` fixes the occupation codes."""
    ordered = tuple(sorted(records, key=lambda r: r.person_id))
    occ_code = {occ: k for k, occ in enumerate(occupations)}
    location_ids, birth_row, death_row = {}, {}, {}
    for level in LEVELS:
        ids = tuple(locations.ids(level))
        row = {lid: i for i, lid in enumerate(ids)}
        point = {
            lid: row[p]
            for lid in locations.ids()
            if (p := _point_at_level(lid, locations, level)) is not None
        }
        location_ids[level] = ids
        birth_row[level] = np.array(
            [point.get(r.birth_location, -1) for r in ordered], dtype=np.intp
        )
        death_row[level] = np.array(
            [point.get(r.death_location, -1) for r in ordered], dtype=np.intp
        )
    return RecordIndex(
        birth_year=np.array([r.birth_year for r in ordered], dtype=np.int64),
        occupation=np.array([occ_code[r.occupation] for r in ordered], dtype=np.intp),
        lifespan=np.array(
            [np.nan if r.lifespan is None else r.lifespan for r in ordered], dtype=float
        ),
        pageviews=np.array([r.pageviews for r in ordered], dtype=float),
        language_editions=np.array([r.language_editions for r in ordered], dtype=float),
        location_ids=location_ids,
        birth_row=birth_row,
        death_row=death_row,
    )


@dataclass
class Dataset:
    """Validated inputs plus the indexes the pipeline needs.

    The record indexes are built with the dataset.  ``source_levels`` is
    read from ``gdp`` on first use, so a builder may fill ``gdp`` in place
    until then (the synthetic world computes its levels from the features
    of its own dataset).
    """

    records: list
    locations: LocationTable
    gdp: list
    rejects: list = field(default_factory=list)

    @cached_property
    def source_levels(self) -> dict:
        return {(o.location_id, o.year): o.gdp_pc for o in self.gdp}

    def __post_init__(self):
        self.by_person = {r.person_id: r for r in self.records}
        if len(self.by_person) != len(self.records):
            counts = Counter(r.person_id for r in self.records)
            duplicates = sorted(pid for pid, n in counts.items() if n > 1)
            raise ValidationError(f"duplicate person_id in dataset records: {duplicates[:5]}")
        self.occupations = sorted({r.occupation for r in self.records})
        self.record_index = index_records(self.records, self.locations, self.occupations)


def load_dataset(
    biographies_path,
    locations_path,
    gdp_path,
    *,
    min_birth_year: int = 1100,
    max_reject_fraction: float = 0.10,
) -> Dataset:
    """Load and cross-validate all three inputs.

    Aborts when more than ``max_reject_fraction`` of a file's rows are
    rejected; otherwise rejects are carried on the dataset for reporting.
    A fraction outside [0, 1] raises :class:`ValidationError` before any
    file is read.
    """
    if not 0.0 <= max_reject_fraction <= 1.0:
        raise ValidationError(f"max_reject_fraction must lie in [0, 1], got {max_reject_fraction}")
    locations = load_locations(locations_path)
    raw_records, bio_rejects = load_biographies(biographies_path)
    gdp, gdp_rejects = load_gdp(gdp_path, locations)

    for what, n_ok, rejected in (
        ("biographies", len(raw_records), bio_rejects),
        ("gdp", len(gdp), gdp_rejects),
    ):
        total = n_ok + len(rejected)
        if total and len(rejected) / total > max_reject_fraction:
            err = ValidationError(
                f"{what}: {len(rejected)} of {total} rows rejected "
                f"(> {max_reject_fraction:.0%}); first: {rejected[0].reason}"
            )
            err.rejects = list(bio_rejects) + list(gdp_rejects)
            raise err

    eligible = filter_eligible(raw_records, locations, min_birth_year=min_birth_year)
    return Dataset(
        records=eligible,
        locations=locations,
        gdp=gdp,
        rejects=list(bio_rejects) + list(gdp_rejects),
    )


def write_rejects_report(rejects, path):
    """Write the rejects report CSV next to the run outputs: one row per
    rejected input row, naming its table (``biographies`` or ``gdp``)."""
    write_table(
        path,
        ["file", "line_number", "key", "reason"],
        ([r.file, r.line_number, r.key, r.reason] for r in rejects),
    )
