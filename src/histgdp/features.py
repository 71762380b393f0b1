"""Per-location feature construction from flow assignments.

For every (location, snapshot year) this module derives the candidate
feature set: popularity-weighted occupation counts for the four flows,
diversity and average ubiquity, complexity indices, SVD factors of the
log-scaled count matrices, average lifespan, supranational dummies, and
the hierarchically filled previous-period GDP.

Only the last depends on the levels a run may see: ``build_static_features``
gives one year's label-independent block, a period's blocks are stacked
once (``stack_features``), and each run appends its own ``init_gdp``
column to that stack with one ``attach_initial_gdp`` call.

Count matrices and everything derived from them (RCA, complexity, SVD,
ubiquity) are computed separately per hierarchy level -- mixing country
rows and region rows in one matrix would double-count every individual.

``build_static_features`` counts from the dataset's record index
(``Dataset.record_index``) with array operations; ``hpi``, ``hpi_weight``
and ``linearize`` are element-wise over arrays and bit-identical to their
scalar use.  ``assign_flows``, ``flow_counts`` and ``avg_age`` compute the
same counts record by record; they are the reference the vectorized
build is tested against.  ``eci`` takes the complexity indices in closed
form from the LAPACK SVD that also gives the SVD factors, with a spectral
certificate.

Feature columns, in order:

    <flow>.total, <flow>.<occupation>   per flow (births, deaths,
                                        immigrants, emigrants)
    diversity.<flow>                    per flow
    ubiquity.<flow>                     per flow
    eci.<flow>                          per flow
    svd.<flow>.<i>                      i = 1..5 per flow
    dummy.<region>                      one per supranational region
    avg_age
    init_gdp                            only when a previous period exists
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_REFERENCE_YEAR

# assign_flows is not called here; it is re-exported beside flow_counts and
# avg_age, the per-record reference of build_static_features.
from .data_ingest import FLOWS, LEVELS, FlowAssignment, LocationTable, assign_flows
from .data_ingest import write_table
from .errors import ValidationError
from .numerics import spearman, svd

N_SVD_FACTORS = 5

INIT_GDP_PROVENANCES = ("source", "model", "country_source", "country_model", "supra_mean")


# math's functions element-wise: the features are defined by them, and numpy's
# need not agree in the last bit (np.log10 differs on about 3% of inputs)
_LOG10 = np.frompyfunc(math.log10, 1, 1)
_LN = np.frompyfunc(math.log, 1, 1)
_ASINH = np.frompyfunc(math.asinh, 1, 1)


def _through_math(ufunc, x: np.ndarray) -> np.ndarray:
    return np.asarray(ufunc(x), dtype=float)


def _log_distinct(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` over the distinct values of ``x`` (all >= 1, so no signed
    zeros to tell apart), spread back: ages and language editions repeat."""
    distinct, inverse = np.unique(x, return_inverse=True)
    return _through_math(ufunc, distinct)[inverse].reshape(x.shape)


def hpi(pageviews, language_editions, age) -> float | np.ndarray:
    """Popularity score from page views, language editions, and age.

    ``log10(V) + ln(L) + log4(A)`` with a penalty of ``(70 - A) / 7``
    subtracted for ages under 70.  Inputs below 1 are clamped to 1.  The
    score is continuous at age 70 and weakly increasing in views and
    language editions.

    Element-wise: scalar inputs give a float, equal-length arrays an
    array.  The logs are ``math``'s and the operations run in the scalar
    formula's order, so every element equals the score of its inputs
    alone, bit for bit.
    """
    v, l, a = (np.maximum(np.asarray(x, dtype=float), 1.0)
               for x in (pageviews, language_editions, age))
    value = (
        _log_distinct(_LOG10, v)
        + _log_distinct(_LN, l)
        + _log_distinct(_LN, a) / math.log(4.0)
    )
    value = np.where(a < 70.0, value - (70.0 - a) / 7.0, value)
    return float(value) if value.ndim == 0 else value


def hpi_weight(pageviews, language_editions, birth_year, reference_year: int):
    """Count weight: the HPI at age ``reference_year - birth_year``, floored at 0.

    Element-wise like :func:`hpi`: scalars give a float, equal-length arrays
    an array of the scalar weights.  The young-age penalty can push the
    score negative; negative "counts" would break the log scaling
    downstream, so weights floor at 0.
    """
    score = hpi(pageviews, language_editions, reference_year - birth_year)
    weight = np.where(0.0 > score, 0.0, score)
    return float(weight) if weight.ndim == 0 else weight


@dataclass(frozen=True)
class CountTensor:
    """HPI-weighted and raw occupation counts for one hierarchy level."""

    level: str
    location_ids: tuple
    occupations: tuple
    weighted: dict  # flow -> (L, K) float array
    unweighted: dict  # flow -> (L, K) int array
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", {lid: i for i, lid in enumerate(self.location_ids)})

    def row(self, location_id: str) -> int:
        try:
            return self._rows[location_id]
        except KeyError:
            raise ValidationError(
                f"location '{location_id}' not in {self.level}-level tensor"
            ) from None

    def unweighted_totals(self, flow: str) -> np.ndarray:
        return self.unweighted[flow].sum(axis=1)


def flow_counts(
    flows: FlowAssignment,
    records_by_id: dict,
    locations: LocationTable,
    level: str,
    occupations,
    reference_year: int = DEFAULT_REFERENCE_YEAR,
) -> CountTensor:
    """Aggregate flow memberships into location x occupation counts."""
    location_ids = tuple(locations.ids(level))
    occupations = tuple(occupations)
    occ_index = {occ: k for k, occ in enumerate(occupations)}
    loc_index = {lid: i for i, lid in enumerate(location_ids)}

    weighted = {}
    unweighted = {}
    for flow in FLOWS:
        w = np.zeros((len(location_ids), len(occupations)))
        u = np.zeros((len(location_ids), len(occupations)), dtype=int)
        for lid, members in flows.flow(flow).items():
            i = loc_index.get(lid)
            if i is None:
                continue  # other hierarchy level
            for pid in sorted(members):
                record = records_by_id.get(pid)
                if record is None:
                    raise ValidationError(f"flow member '{pid}' has no biography record")
                k = occ_index.get(record.occupation)
                if k is None:
                    raise ValidationError(
                        f"occupation '{record.occupation}' missing from vocabulary"
                    )
                w[i, k] += hpi_weight(record.pageviews, record.language_editions,
                                      record.birth_year, reference_year)
                u[i, k] += 1
        weighted[flow] = w
        unweighted[flow] = u
    return CountTensor(
        level=level,
        location_ids=location_ids,
        occupations=occupations,
        weighted=weighted,
        unweighted=unweighted,
    )


def diversity(counts: CountTensor, flow: str) -> np.ndarray:
    """Occupations with at least one individual, per location."""
    return (counts.unweighted[flow] >= 1).sum(axis=1)


def avg_ubiquity(counts: CountTensor, flow: str) -> np.ndarray:
    """Mean ubiquity of the occupations present in each location.

    Ubiquity of an occupation is the number of locations where it is
    present.  Locations with nothing present get 0.
    """
    present = (counts.unweighted[flow] >= 1).astype(np.int64)
    n_present = present.sum(axis=1)
    total = present @ present.sum(axis=0)
    return np.where(n_present > 0, total / np.maximum(n_present, 1), 0.0)


@dataclass(frozen=True)
class RcaResult:
    """The binary specialization matrix on the kept rows and columns:
    ``binary[i, k]`` is location ``locations[i]`` in occupation
    ``occupations[k]``; ``kept_rows`` are the positions of its rows in the
    count tensor."""

    binary: np.ndarray
    locations: tuple
    occupations: tuple
    dropped_locations: tuple
    dropped_occupations: tuple
    kept_rows: np.ndarray


def rca_matrix(counts: CountTensor, flow: str) -> RcaResult:
    """Binary specialization matrix from revealed comparative advantage.

    ``M_ik = 1`` iff ``(N_ik / N_i.) / (N_.k / N_..) >= 1`` on the
    HPI-weighted counts; evaluated by cross-multiplication so exact ties
    and rescaled inputs behave identically.  All-zero rows and columns are
    dropped first and recorded.
    """
    n = counts.weighted[flow]
    if float(n.sum()) <= 0.0:
        raise ValidationError(f"rca_matrix: no weighted counts in flow '{flow}'")
    keep_rows = n.sum(axis=1) > 0
    keep_cols = n.sum(axis=0) > 0
    kept = n[np.ix_(keep_rows, keep_cols)]
    row_tot = kept.sum(axis=1)
    col_tot = kept.sum(axis=0)
    grand = kept.sum()
    binary = (kept * grand >= np.outer(row_tot, col_tot)).astype(float)
    return RcaResult(
        binary=binary,
        locations=tuple(np.array(counts.location_ids)[keep_rows]),
        occupations=tuple(np.array(counts.occupations)[keep_cols]),
        dropped_locations=tuple(np.array(counts.location_ids)[~keep_rows]),
        dropped_occupations=tuple(np.array(counts.occupations)[~keep_cols]),
        kept_rows=np.flatnonzero(keep_rows),
    )


# Eigenvalues of the mutual-averaging map lie in [0, 1]; closer than this
# they are one eigenvalue to rounding.  It is also the largest start-vector
# component, relative to the start vector, that counts as zero.
_ROUNDING = 1e-12

# ECI blocks with a relative gap below this are reported as near-degenerate:
# a perturbation e of the map can turn their direction by about e / gap, and
# the mutual-averaging iteration needs over 2,000 rounds to settle it to 1e-9.
NEAR_DEGENERATE_GAP = 0.01


@dataclass(frozen=True)
class EciResult:
    """Complexity indices with their spectral certificate.

    ``eigenvalue`` belongs to the returned ``eci`` vector ``x`` as an
    eigenvector of ``W = D^-1 M U^-1 M'`` (lambda2, unless the start vector
    is orthogonal to lambda2's eigenvectors); ``gap`` is its distance to the
    nearest other eigenvalue below the trivial 1 (``lambda2 - lambda3``, 0
    on ties); ``residual`` is ``max|W x - eigenvalue x|`` after removing the
    mean, since ``x`` is z-scored and ``W`` maps constants to themselves.
    All three are 0 for degenerate results.  ``iterations`` is always 0.
    """

    eci: np.ndarray
    pci: np.ndarray
    iterations: int = 0
    degenerate: bool = False
    eigenvalue: float = 0.0
    gap: float = 0.0
    residual: float = 0.0

    @property
    def relative_gap(self) -> float:
        """``gap / eigenvalue``; 0 for degenerate results."""
        return self.gap / self.eigenvalue if self.eigenvalue > 0 else 0.0


def _zscore(v: np.ndarray) -> np.ndarray:
    centered = v - v.mean()
    sd = np.sqrt(np.mean(centered * centered))
    if sd < 1e-12:
        return np.zeros_like(v)
    return centered / sd


def _merge_ties(v: np.ndarray) -> np.ndarray:
    """``v`` with each run of sorted values less than 1e-9 apart replaced by
    its mean: rows the map treats alike differ only by rounding, which must
    not decide rank tests."""
    order = np.argsort(v, kind="stable")
    run = np.concatenate([[0], np.cumsum(np.diff(v[order]) > 1e-9)])
    merged = np.empty_like(v)
    merged[order] = (np.bincount(run, v[order]) / np.bincount(run))[run]
    return merged


def eci(m) -> EciResult:
    """Complexity indices as an eigenvector of the mutual-averaging map.

    ``m`` is a binary specialization array, locations by occupations, as
    :attr:`RcaResult.binary` holds it.  A location's complexity is the
    average complexity of the occupations it is specialized in, and vice
    versa.  Iterated from a start vector and
    z-scored every round, that map converges to an eigenvector of
    ``W = D^-1 M U^-1 M'`` (``D``, ``U``: diversity and ubiquity); this is
    the method of reflections (Hidalgo & Hausmann 2009) read spectrally
    (Mealy, Farmer & Teytelboym 2019).  The limit is computed in closed
    form: ``W`` is similar to ``A A'`` with ``A = D^-1/2 M U^-1/2``, whose
    trivial singular pair ``(sqrt(div), sqrt(ubiq)) / sqrt(N)`` (value 1)
    is subtracted before one thin SVD, so a disconnected graph, where 1
    repeats, needs no special case.  The start vector (diversity, else mean
    ubiquity) is projected onto the highest eigenspace it is not orthogonal
    to, normally lambda2's; that fixes the sign, and on exact ties the
    mixture, that the iteration reaches.  The location vector is z-scored,
    the occupation vector is the z-scored mean over its locations, and the
    sign makes complexity correlate non-negatively with diversity.  Without
    such an eigenspace above 0 the result is degenerate: all zeros.  It is
    also degenerate when diversity and mean ubiquity are both constant: no
    start vector then tells the locations apart without depending on their
    order.
    """
    mv = np.asarray(m, dtype=float)
    rows, cols = mv.shape
    if rows < 2 or cols < 2:
        return EciResult(eci=np.zeros(rows), pci=np.zeros(cols), degenerate=True)
    div = mv.sum(axis=1)
    ubiq = mv.sum(axis=0)
    if np.any(div <= 0) or np.any(ubiq <= 0):
        raise ValidationError("eci: drop all-zero rows/columns before calling")

    start = _zscore(div)
    if not start.any():
        start = _zscore((mv @ ubiq) / div)
    sqrt_div = np.sqrt(div)
    trivial = np.outer(sqrt_div, np.sqrt(ubiq))
    dec = svd(mv / trivial - trivial / div.sum(), name="eci")
    lam = dec.s**2  # the last is 0: the deflation removes one rank
    x0 = sqrt_div * start
    coef = dec.u.T @ x0
    live = np.flatnonzero((np.abs(coef) > _ROUNDING * np.linalg.norm(x0)) & (lam > _ROUNDING))
    if live.size == 0:
        return EciResult(eci=np.zeros(rows), pci=np.zeros(cols), degenerate=True)
    k = live[0]
    space = np.abs(lam - lam[k]) <= _ROUNDING
    loc = _merge_ties(_zscore((dec.u[:, space] @ coef[space]) / sqrt_div))

    occ = (mv.T @ loc) / ubiq
    off = (mv @ occ) / div - lam[k] * loc
    pci = _zscore(occ)
    if len(set(div.tolist())) > 1 and spearman(loc, div) < 0:
        loc = -loc
        pci = -pci
    return EciResult(
        eci=loc,
        pci=pci,
        eigenvalue=float(lam[k]),
        gap=float(np.min(np.abs(np.delete(lam, k) - lam[k]))),
        residual=float(np.max(np.abs(off - off.mean()))),
    )


def svd_factors(counts: CountTensor, flow: str) -> np.ndarray:
    """Leading left-singular-vector coordinates of ``log10(1 + N)``.

    Returns an (L, ``N_SVD_FACTORS``) array; factors beyond the numerical
    rank are zero-filled.
    """
    n = counts.weighted[flow]
    out = np.zeros((n.shape[0], N_SVD_FACTORS))
    if not n.any():
        return out
    dec = svd(np.log10(1.0 + n), name=f"svd_factors[{flow}]")
    rank = int(np.sum(dec.s > 1e-12 * dec.s[0])) if dec.s.size and dec.s[0] > 0 else 0
    take = min(N_SVD_FACTORS, rank)
    out[:, :take] = dec.u[:, :take]
    return out


def avg_age(flows: FlowAssignment, records_by_id: dict, locations: LocationTable):
    """Mean lifespan of deceased individuals assigned to each location.

    Individuals without a death year are excluded.  Locations with no
    qualifying individual receive the global mean and are flagged.
    Returns (values by location id, flagged location ids).
    """
    lifespans: dict[str, list] = {}
    all_spans: dict[str, int] = {}
    for lid in locations.ids():
        spans = []
        for pid in sorted(flows.members(lid)):
            record = records_by_id.get(pid)
            if record is None:
                raise ValidationError(f"flow member '{pid}' has no biography record")
            if record.lifespan is not None:
                spans.append(record.lifespan)
                all_spans[pid] = record.lifespan
        lifespans[lid] = spans
    global_mean = float(np.mean(list(all_spans.values()))) if all_spans else 0.0
    values = {}
    flagged = []
    for lid, spans in lifespans.items():
        if spans:
            values[lid] = float(np.mean(spans))
        else:
            values[lid] = global_mean
            flagged.append(lid)
    return values, tuple(flagged)


def linearize(x, scale: str = "log10p1"):
    """Compress non-negative counts; both scales map 0 to 0.

    Element-wise over a scalar (a float comes back) or an array, through
    ``math.log10(1 + x)`` or ``math.asinh``.
    """
    values = np.asarray(x, dtype=float)
    negative = values < 0
    if negative.any():
        raise ValidationError(f"linearize: negative input {values[negative].flat[0]}")
    out = np.zeros(values.shape)
    live = (values != 0) | np.signbit(values)  # both scales map +0 to +0
    if scale == "log10p1":
        out[live] = _through_math(_LOG10, 1.0 + values[live])
    elif scale == "asinh":
        out[live] = _through_math(_ASINH, values[live])
    else:
        raise ValidationError(f"linearize: unknown scale '{scale}'")
    return float(out) if out.ndim == 0 else out


def initial_gdp(location_id, lag_year, source_levels, model_levels, locations: LocationTable):
    """Previous-period GDP per capita fill, in log10.

    Hierarchy: own source value at the lag year, then own model estimate,
    then the parent country's source or model value, and finally the mean
    of country-level source values in the location's supranational region.
    Returns (log10 value, provenance).
    """
    model_levels = model_levels or {}
    key = (location_id, lag_year)
    if key in source_levels:
        return math.log10(source_levels[key]), "source"
    if key in model_levels:
        return math.log10(model_levels[key]), "model"
    loc = locations.get(location_id)
    if loc.level == "region":
        ckey = (loc.parent_country, lag_year)
        if ckey in source_levels:
            return math.log10(source_levels[ckey]), "country_source"
        if ckey in model_levels:
            return math.log10(model_levels[ckey]), "country_model"
    supra = locations.supra_of(location_id)
    pool = [
        source_levels[(c, lag_year)]
        for c in locations.countries_in(supra)
        if (c, lag_year) in source_levels
    ]
    if pool:
        return math.log10(float(np.mean(pool))), "supra_mean"
    raise ValidationError(
        f"initial_gdp: no value anywhere in supranational region "
        f"'{supra}' at year {lag_year} (needed for '{location_id}')"
    )


@dataclass(frozen=True)
class FeatureMatrix:
    """Named feature columns for (location, snapshot-year) rows, with each
    row's ``init_gdp`` provenance once :func:`attach_initial_gdp` appended it.

    The package's one labelled table: the numeric kernels take its
    ``values`` and ``columns`` as an array and a tuple of names."""

    row_keys: tuple  # ((location_id, year), ...)
    columns: tuple
    values: np.ndarray
    init_provenance: dict = field(default_factory=dict)
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("feature matrix contains non-finite values")
        object.__setattr__(self, "_rows", {key: i for i, key in enumerate(self.row_keys)})
        if len(self._rows) != len(self.row_keys):
            raise ValidationError("duplicate feature matrix row keys")
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate feature column names")
        if self.values.shape != (len(self.row_keys), len(self.columns)):
            raise ValidationError("feature matrix shape does not match keys/columns")

    def subset(self, keys) -> "FeatureMatrix":
        keys = tuple(keys)
        try:
            rows = [self._rows[key] for key in keys]
        except KeyError as err:
            raise ValidationError(f"feature matrix has no row {err.args[0]}") from None
        wanted = set(keys)
        return replace(
            self,
            row_keys=keys,
            values=self.values[rows],
            init_provenance={k: v for k, v in self.init_provenance.items() if k in wanted},
        )


def stack_features(parts) -> FeatureMatrix:
    """Stack per-year feature matrices with identical columns."""
    parts = list(parts)
    if not parts:
        raise ValidationError("stack_features: nothing to stack")
    columns = parts[0].columns
    for p in parts[1:]:
        if p.columns != columns:
            raise ValidationError("stack_features: column sets differ")
    provenance = {}
    for p in parts:
        provenance.update(p.init_provenance)
    return FeatureMatrix(
        row_keys=tuple(k for p in parts for k in p.row_keys),
        columns=columns,
        values=np.vstack([p.values for p in parts]),
        init_provenance=provenance,
    )


@dataclass(frozen=True)
class StaticFeatures:
    """Label-independent features for one snapshot year, plus the count
    tensors needed downstream for gating and population proxies, the
    ``EciResult`` (with its certificate) of every ECI block, and the
    sorted ids of the locations whose ``avg_age`` was imputed."""

    matrix: FeatureMatrix
    tensors: dict  # level -> CountTensor
    eci_results: dict = field(default_factory=dict)  # (level, flow) -> EciResult
    age_imputed: tuple = ()
    _gates: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gates = {}
        for tensor in self.tensors.values():
            births = tensor.unweighted_totals("births").tolist()
            deaths = tensor.unweighted_totals("deaths").tolist()
            gates.update(zip(tensor.location_ids, zip(births, deaths)))
        object.__setattr__(self, "_gates", gates)

    def gate_counts(self, location_id: str) -> tuple[int, int]:
        """Unweighted (births, deaths) of one location in this year."""
        try:
            return self._gates[location_id]
        except KeyError:
            raise ValidationError(f"location '{location_id}' not in the count tensors") from None


def _index_counts(index, level: str, window: np.ndarray, weights: np.ndarray, occupations):
    """Count tensor of one level, plus each location's lifespan sum and
    count over its members (births or deaths there) with a death year."""
    n_loc, n_occ = len(index.location_ids[level]), len(occupations)
    b = index.birth_row[level][window]
    d = index.death_row[level][window]
    moved = (b >= 0) & (d >= 0) & (b != d)
    rows = {
        "births": b,
        "deaths": d,
        "immigrants": np.where(moved, d, -1),
        "emigrants": np.where(moved, b, -1),
    }
    occ = index.occupation[window]
    weighted, unweighted = {}, {}
    for flow in FLOWS:
        member = rows[flow] >= 0
        # bincount adds in person-id order, as flow_counts does
        cell = rows[flow][member] * n_occ + occ[member]
        weighted[flow] = np.bincount(
            cell, weights[member], minlength=n_loc * n_occ
        ).reshape(n_loc, n_occ)
        unweighted[flow] = np.bincount(cell, minlength=n_loc * n_occ).reshape(n_loc, n_occ)
    tensor = CountTensor(
        level, index.location_ids[level], tuple(occupations), weighted, unweighted
    )

    lifespan = index.lifespan[window]
    dated = ~np.isnan(lifespan)
    at_birth = dated & (b >= 0)
    at_death = dated & (d >= 0) & (d != b)  # a member once, however many flows
    members = np.concatenate([b[at_birth], d[at_death]])
    span_sum = np.bincount(
        members, np.concatenate([lifespan[at_birth], lifespan[at_death]]), minlength=n_loc
    )
    return tensor, span_sum, np.bincount(members, minlength=n_loc)


def _eci_column(tensor: CountTensor, flow: str, results: dict) -> np.ndarray:
    """One flow's ECI column, zero without counts; its ``EciResult`` goes
    to ``results[(level, flow)]``."""
    out = np.zeros(len(tensor.location_ids))
    if tensor.weighted[flow].any():
        rca = rca_matrix(tensor, flow)
        result = results[(tensor.level, flow)] = eci(rca.binary)
        out[rca.kept_rows] = result.eci
    return out


def build_static_features(
    year: int,
    dataset,
    *,
    window_years: int = 150,
    scale: str = "log10p1",
    reference_year: int = DEFAULT_REFERENCE_YEAR,
) -> StaticFeatures:
    """All feature columns except ``init_gdp`` for one snapshot year.

    Reads the dataset's record index: the records born in
    ``[year - window_years, year]`` are HPI-weighted by one element-wise
    ``hpi_weight`` call on their index arrays and counted per location
    and occupation with ``np.bincount`` over the four flow masks; counts
    are linearized by one element-wise ``linearize`` call per block.
    Every column except the SVD factors is bit-identical to the per-record
    reference ``assign_flows`` + ``flow_counts`` + ``avg_age`` +
    ``linearize`` per entry; ``avg_age`` is the mean lifespan of a
    location's members with a death year, imputed with the mean over all
    located members where there is none; those locations are listed in
    ``age_imputed``.
    Every computed ECI block's result is kept in ``eci_results``.
    """
    if window_years <= 0:
        raise ValidationError(f"window_years must be positive, got {window_years}")
    index = dataset.record_index
    locations = dataset.locations
    occupations = tuple(dataset.occupations)
    window = np.flatnonzero(
        (index.birth_year >= year - window_years) & (index.birth_year <= year)
    )
    weights = hpi_weight(index.pageviews[window], index.language_editions[window],
                         index.birth_year[window], reference_year)
    counted = {
        level: _index_counts(index, level, window, weights, occupations) for level in LEVELS
    }
    tensors = {level: tensor for level, (tensor, _sum, _n) in counted.items()}
    if not any(t.unweighted[f].any() for t in tensors.values() for f in FLOWS):
        raise ValidationError(f"no individuals in the {window_years}-year window before {year}")

    # every located member has a country row, so the country level holds them all
    lifespan = index.lifespan[window]
    located = ~np.isnan(lifespan) & (
        (index.birth_row["country"][window] >= 0) | (index.death_row["country"][window] >= 0)
    )
    global_age = float(np.mean(lifespan[located])) if located.any() else 0.0

    supra_regions = locations.supranational_regions()
    columns = []
    for flow in FLOWS:
        columns.append(f"{flow}.total")
        columns.extend(f"{flow}.{occ}" for occ in occupations)
    columns.extend(f"diversity.{flow}" for flow in FLOWS)
    columns.extend(f"ubiquity.{flow}" for flow in FLOWS)
    columns.extend(f"eci.{flow}" for flow in FLOWS)
    for flow in FLOWS:
        columns.extend(f"svd.{flow}.{i}" for i in range(1, N_SVD_FACTORS + 1))
    columns.extend(f"dummy.{supra}" for supra in supra_regions)
    columns.append("avg_age")

    row_keys, level_values, age_flagged = [], [], []
    eci_results = {}
    for level in LEVELS:
        tensor, span_sum, span_n = counted[level]
        n_loc = len(tensor.location_ids)
        blocks = []
        for flow in FLOWS:
            w = tensor.weighted[flow]
            blocks.append(linearize(w.sum(axis=1), scale)[:, None])
            blocks.append(linearize(w, scale))
        blocks.append(np.column_stack([diversity(tensor, f) for f in FLOWS]))
        blocks.append(np.column_stack([avg_ubiquity(tensor, f) for f in FLOWS]))
        blocks.append(np.column_stack([_eci_column(tensor, f, eci_results) for f in FLOWS]))
        blocks.extend(svd_factors(tensor, f) for f in FLOWS)
        supra = [locations.supra_of(lid) for lid in tensor.location_ids]
        blocks.append(
            np.array([[s == r for r in supra_regions] for s in supra], dtype=float)
            .reshape(n_loc, len(supra_regions))
        )
        ages = np.where(span_n > 0, span_sum / np.maximum(span_n, 1), global_age)
        blocks.append(ages[:, None])
        level_values.append(np.hstack(blocks))
        row_keys.extend((lid, year) for lid in tensor.location_ids)
        age_flagged.extend(lid for lid, n in zip(tensor.location_ids, span_n) if n == 0)

    matrix = FeatureMatrix(tuple(row_keys), tuple(columns), np.vstack(level_values))
    return StaticFeatures(matrix, tensors, eci_results, tuple(sorted(age_flagged)))


def attach_initial_gdp(
    fm: FeatureMatrix,
    lag_year: int,
    source_levels: dict,
    model_levels: dict,
    locations: LocationTable,
) -> FeatureMatrix:
    """Append the ``init_gdp`` column (log10) with per-row provenance."""
    col = np.zeros((len(fm.row_keys), 1))
    provenance = dict(fm.init_provenance)
    for i, (lid, _year) in enumerate(fm.row_keys):
        value, prov = initial_gdp(lid, lag_year, source_levels, model_levels, locations)
        col[i, 0] = value
        provenance[(lid, _year)] = prov
    return FeatureMatrix(
        row_keys=fm.row_keys,
        columns=fm.columns + ("init_gdp",),
        values=np.hstack([fm.values, col]),
        init_provenance=provenance,
    )


def write_feature_csv(fm: FeatureMatrix, path):
    """Export a feature matrix as ``feature_matrix_<year>.csv`` content."""
    rows = zip(fm.row_keys, fm.values)
    write_table(
        path,
        ["location_id", "year", *fm.columns],
        ([lid, year, *[repr(float(v)) for v in row]] for (lid, year), row in rows),
    )
