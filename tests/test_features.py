import math

import numpy as np
import pytest

from histgdp.data_ingest import (
    FLOWS,
    LEVELS,
    BiographyRecord,
    Dataset,
    Location,
    LocationTable,
    GdpObservation,
    assign_flows,
)
from histgdp.errors import ValidationError
from histgdp.features import (
    NEAR_DEGENERATE_GAP,
    CountTensor,
    FeatureMatrix,
    attach_initial_gdp,
    avg_age,
    avg_ubiquity,
    build_static_features,
    diversity,
    eci,
    flow_counts,
    hpi,
    hpi_weight,
    initial_gdp,
    linearize,
    rca_matrix,
    stack_features,
    svd_factors,
)
from histgdp.numerics import spearman
from histgdp.pipeline import PERIODS
from histgdp.synthetic import make_synthetic_world


def rec(pid, birth_year, birth_loc, death_loc, death_year=None, occupation="painter",
        views=10, langs=3):
    return BiographyRecord(
        person_id=pid, name=pid, birth_year=birth_year, death_year=death_year,
        birth_location=birth_loc, death_location=death_loc, occupation=occupation,
        pageviews=views, language_editions=langs,
    )


@pytest.fixture
def locations():
    return LocationTable([
        Location("AT", "Austria", "country", None, "Western Europe"),
        Location("PL", "Poland", "country", None, "Eastern Europe"),
        Location("FR", "France", "country", None, "Western Europe"),
        Location("FR-1", "Paris", "region", "FR", ""),
    ])


def tensor(level, location_ids, occupations, weighted, unweighted=None):
    w = {f: np.zeros((len(location_ids), len(occupations))) for f in
         ("births", "deaths", "immigrants", "emigrants")}
    u = {f: np.zeros((len(location_ids), len(occupations)), dtype=int) for f in w}
    w["births"] = np.asarray(weighted, dtype=float)
    u["births"] = (np.asarray(unweighted if unweighted is not None else weighted) > 0).astype(int) \
        if unweighted is None else np.asarray(unweighted, dtype=int)
    return CountTensor(level=level, location_ids=tuple(location_ids),
                       occupations=tuple(occupations), weighted=w, unweighted=u)


class TestHpi:
    def test_exact_powers_old(self):
        assert hpi(1000, 1, 256).value == pytest.approx(7.0, abs=1e-12)

    def test_young_age_penalty(self):
        assert hpi(10, 1, 64).value == pytest.approx(4.0 - 6.0 / 7.0, abs=1e-12)

    def test_general_value(self):
        expect = 5.0 + math.log(7.0) + math.log(100.0) / math.log(4.0)
        assert hpi(100000, 7, 100).value == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(10.267838, abs=1e-6)

    def test_continuous_at_seventy(self):
        below = hpi(100, 3, 70 - 1e-9).value
        at = hpi(100, 3, 70).value
        assert abs(below - at) < 1e-8

    def test_clamping_flagged(self):
        score = hpi(0, 1, 50)
        assert score.clamped
        assert score.value == hpi(1, 1, 50).value

    def test_weakly_increasing(self):
        assert hpi(200, 3, 80).value >= hpi(100, 3, 80).value
        assert hpi(100, 5, 80).value >= hpi(100, 3, 80).value


class TestFlowCounts:
    def test_singleton_painter(self, locations):
        # reference year minus birth year gives age 256 so HPI is exactly 7
        r = rec("p", 2023 - 256, "AT", "AT", views=1000, langs=1)
        flows = assign_flows([r], locations, 1800, 150)
        counts = flow_counts(flows, {"p": r}, locations, "country", ("painter",),
                             reference_year=2023)
        i = counts.row("AT")
        k = counts.occupations.index("painter")
        assert counts.weighted["births"][i, k] == pytest.approx(7.0)
        assert counts.unweighted["births"][i, k] == 1

    def test_negative_hpi_clamped_but_counted(self, locations):
        r = rec("p", 2000, "AT", "AT", views=1, langs=1)  # age 23 -> negative HPI
        assert hpi_weight(r.pageviews, r.language_editions, r.birth_year, 2023) == 0.0
        flows = assign_flows([r], locations, 2000, 150)
        counts = flow_counts(flows, {"p": r}, locations, "country", ("painter",))
        i = counts.row("AT")
        assert counts.weighted["births"][i].sum() == 0.0
        assert counts.unweighted["births"][i].sum() == 1

    def test_empty_flow_gives_zeros(self, locations):
        flows = assign_flows([], locations, 1800, 150)
        counts = flow_counts(flows, {}, locations, "country", ("painter",))
        assert not counts.weighted["births"].any()

    def test_unresolvable_id_fatal(self, locations):
        r = rec("p", 1700, "AT", "AT")
        flows = assign_flows([r], locations, 1800, 150)
        with pytest.raises(ValidationError, match="no biography record"):
            flow_counts(flows, {}, locations, "country", ("painter",))


class TestDiversityUbiquity:
    def test_diversity_counts_present_occupations(self):
        t = tensor("country", ("A",), ("painter", "lawyer", "priest"),
                   [[2.0, 1.0, 0.0]], [[2, 1, 0]])
        assert diversity(t, "births")[0] == 2

    def test_diversity_empty_location(self):
        t = tensor("country", ("A",), ("painter",), [[0.0]], [[0]])
        assert diversity(t, "births")[0] == 0

    def test_ubiquity_hand_example(self):
        # occ1 present only in loc1, occ2 present in both
        t = tensor("country", ("A", "B"), ("occ1", "occ2"),
                   [[1.0, 1.0], [0.0, 1.0]], [[1, 1], [0, 1]])
        ub = avg_ubiquity(t, "births")
        assert ub[0] == pytest.approx(1.5)
        assert ub[1] == pytest.approx(2.0)

    def test_ubiquity_single_location(self):
        t = tensor("country", ("A",), ("x", "y"), [[3.0, 1.0]], [[3, 1]])
        assert avg_ubiquity(t, "births")[0] == pytest.approx(1.0)

    def test_ubiquity_empty_location_zero(self):
        t = tensor("country", ("A", "B"), ("x",), [[1.0], [0.0]], [[1], [0]])
        assert avg_ubiquity(t, "births")[1] == 0.0


class TestRca:
    def test_hand_example(self):
        t = tensor("country", ("A", "B"), ("x", "y"), [[4.0, 0.0], [1.0, 1.0]])
        res = rca_matrix(t, "births")
        assert np.array_equal(res.binary, [[1.0, 0.0], [0.0, 1.0]])

    def test_uniform_counts_all_specialized(self):
        t = tensor("country", ("A", "B"), ("x", "y"), [[2.0, 2.0], [2.0, 2.0]])
        res = rca_matrix(t, "births")
        assert np.array_equal(res.binary, np.ones((2, 2)))

    def test_single_location_all_ones(self):
        t = tensor("country", ("A",), ("x", "y"), [[5.0, 1.0]])
        res = rca_matrix(t, "births")
        assert np.array_equal(res.binary, np.ones((1, 2)))

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 5, size=(6, 4)).astype(float)
        base[0] += 1  # keep a nonzero row
        t1 = tensor("country", tuple("abcdef"), tuple("wxyz"), base)
        for c in (2.0, 0.5, 3.0):
            t2 = tensor("country", tuple("abcdef"), tuple("wxyz"), c * base)
            assert np.array_equal(rca_matrix(t1, "births").binary,
                                  rca_matrix(t2, "births").binary)

    def test_zero_rows_dropped_and_recorded(self):
        t = tensor("country", ("A", "B"), ("x", "y"), [[1.0, 2.0], [0.0, 0.0]])
        res = rca_matrix(t, "births")
        assert res.dropped_locations == ("B",)
        assert res.locations == ("A",)

    def test_all_zero_rejected(self):
        t = tensor("country", ("A",), ("x",), [[0.0]])
        with pytest.raises(ValidationError):
            rca_matrix(t, "births")


class TestEci:
    def test_ranking_hand_case(self):
        res = eci(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert res.eci[0] > res.eci[1]
        assert not res.degenerate

    def test_moments(self):
        res = eci(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        assert abs(res.eci.mean()) <= 1e-9
        assert abs(res.eci.std() - 1.0) <= 1e-9

    def test_all_ones_degenerate(self):
        res = eci(np.ones((3, 3)))
        assert res.degenerate
        assert np.array_equal(res.eci, np.zeros(3))

    def test_single_row_degenerate(self):
        res = eci(np.ones((1, 4)))
        assert res.degenerate and np.array_equal(res.eci, np.zeros(1))

    @pytest.mark.parametrize("seed", range(6))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.random((8, 6)) < 0.5).astype(float)
        m[m.sum(axis=1) == 0, 0] = 1.0
        m[0, m.sum(axis=0) == 0] = 1.0
        perm = rng.permutation(8)
        a = eci(m)
        b = eci(m[perm])
        assert np.max(np.abs(b.eci - a.eci[perm])) <= 1e-9

    @pytest.mark.parametrize("perm", [[1, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
    def test_relabeling_invariance_without_a_start_vector(self, perm):
        # Every location has diversity 2 and mean ubiquity 2, so neither
        # start vector tells the rows apart; the result may not depend on
        # their order.
        m = np.array(
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=float
        )
        a = eci(m)
        b = eci(m[perm])
        assert a.degenerate == b.degenerate
        assert np.max(np.abs(b.eci - a.eci[perm])) <= 1e-9
        assert np.max(np.abs(b.pci - a.pci)) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_convention(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = (rng.random((10, 7)) < 0.4).astype(float)
        m[m.sum(axis=1) == 0, 0] = 1.0
        m[0, m.sum(axis=0) == 0] = 1.0
        res = eci(m)
        div = m.sum(axis=1)
        if len(set(div.tolist())) > 1 and res.eci.any():
            from histgdp.numerics import spearman

            assert spearman(res.eci, div) >= 0


class TestSvdFactors:
    def test_diagonal_indicator(self):
        t = tensor("country", ("A", "B"), ("x", "y"), [[5.0, 0.0], [0.0, 2.0]])
        f = svd_factors(t, "births")
        assert f.shape == (2, 5)
        # largest log-scaled entry sits in row A; factor 1 points at it
        assert f[0, 0] == pytest.approx(1.0)
        assert f[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert f[1, 1] == pytest.approx(1.0)

    def test_zero_row_zero_factors(self):
        t = tensor("country", ("A", "B", "C"), ("x", "y"),
                   [[3.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
        f = svd_factors(t, "births")
        assert np.allclose(f[1], 0.0, atol=1e-12)

    def test_rank_padding(self):
        t = tensor("country", ("A", "B"), ("x", "y"), [[1.0, 1.0], [2.0, 2.0]])
        f = svd_factors(t, "births")
        # log10(1+N) has rank 1 here: higher factors padded with zeros
        assert np.allclose(f[:, 1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 6, size=(7, 5)).astype(float)
        perm = rng.permutation(7)
        ids = tuple(f"l{i}" for i in range(7))
        t1 = tensor("country", ids, tuple("abcde"), base)
        t2 = tensor("country", tuple(np.array(ids)[perm]), tuple("abcde"), base[perm])
        f1 = svd_factors(t1, "births")
        f2 = svd_factors(t2, "births")
        assert np.max(np.abs(f2 - f1[perm])) <= 1e-9


class TestAvgAge:
    def test_mean_lifespan(self, locations):
        records = [
            rec("a", 1700, "AT", "AT", death_year=1750),  # 50
            rec("b", 1700, "AT", "AT", death_year=1770),  # 70
        ]
        flows = assign_flows(records, locations, 1800, 150)
        values, flagged = avg_age(flows, {r.person_id: r for r in records}, locations)
        assert values["AT"] == pytest.approx(60.0)

    def test_missing_death_year_excluded(self, locations):
        records = [
            rec("a", 1700, "AT", "AT", death_year=1750),
            rec("b", 1700, "AT", None, death_year=None),
        ]
        flows = assign_flows(records, locations, 1800, 150)
        values, _ = avg_age(flows, {r.person_id: r for r in records}, locations)
        assert values["AT"] == pytest.approx(50.0)

    def test_global_mean_imputed(self, locations):
        records = [rec("a", 1700, "AT", "AT", death_year=1760)]
        flows = assign_flows(records, locations, 1800, 150)
        values, flagged = avg_age(flows, {"a": records[0]}, locations)
        assert values["PL"] == pytest.approx(60.0)
        assert "PL" in flagged


class TestLinearize:
    def test_zero_maps_to_zero(self):
        assert linearize(0.0, "log10p1") == 0.0
        assert linearize(0.0, "asinh") == 0.0

    def test_log10p1(self):
        assert linearize(99.0, "log10p1") == pytest.approx(2.0)

    def test_asinh(self):
        assert linearize(1.0, "asinh") == pytest.approx(0.8813735870195429, abs=1e-9)

    def test_strictly_increasing(self):
        xs = np.linspace(0, 50, 40)
        for scale in ("log10p1", "asinh"):
            vals = [linearize(float(x), scale) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            linearize(-0.1)


class TestInitialGdp:
    def test_source_first(self, locations):
        value, prov = initial_gdp("AT", 1750, {("AT", 1750): 1000.0}, {}, locations)
        assert prov == "source" and value == pytest.approx(3.0)

    def test_model_fallback(self, locations):
        value, prov = initial_gdp("AT", 1750, {}, {("AT", 1750): 100.0}, locations)
        assert prov == "model" and value == pytest.approx(2.0)

    def test_region_falls_to_country(self, locations):
        _, prov = initial_gdp("FR-1", 1750, {("FR", 1750): 900.0}, {}, locations)
        assert prov == "country_source"
        _, prov = initial_gdp("FR-1", 1750, {}, {("FR", 1750): 900.0}, locations)
        assert prov == "country_model"

    def test_supra_mean_last(self, locations):
        src = {("AT", 1750): 1000.0, ("FR", 1750): 3000.0}
        value, prov = initial_gdp("FR-1", 1750, {("AT", 1750): 1000.0}, {}, locations)
        assert prov == "supra_mean" and value == pytest.approx(3.0)
        value, _ = initial_gdp("FR-1", 1750, src, {}, locations)
        # own country wins before the supranational mean
        assert value == pytest.approx(math.log10(3000.0))

    def test_empty_chain_rejected(self, locations):
        with pytest.raises(ValidationError, match="Eastern Europe"):
            initial_gdp("PL", 1750, {}, {}, locations)


@pytest.fixture
def small_dataset():
    locations = LocationTable([
        Location("AT", "Austria", "country", None, "Western Europe"),
        Location("PL", "Poland", "country", None, "Eastern Europe"),
    ])
    records = []
    k = 0
    for loc, occs in (("AT", ("painter", "lawyer", "priest")), ("PL", ("painter", "lawyer"))):
        for occ in occs:
            for _ in range(2):
                records.append(
                    rec(f"p{k}", 1650 + k, loc, "AT" if k % 2 else "PL",
                        death_year=1700 + k, occupation=occ, views=100 + 10 * k)
                )
                k += 1
    gdp = [GdpObservation("AT", 1700, 1500.0, "m"), GdpObservation("PL", 1700, 800.0, "m")]
    return Dataset(records=records, locations=locations, gdp=gdp)


class TestBuildFeatureMatrix:
    def test_column_count_and_names(self, small_dataset):
        # 2 locations, 3 occupations, 2 supranational regions:
        # 4*(3+1) counts + 4 diversity + 4 ubiquity + 4 eci + 20 svd
        # + 1 age + 2 dummies + 1 init_gdp = 52
        fm = attach_initial_gdp(
            build_static_features(1750, small_dataset).matrix, 1700,
            small_dataset.source_levels, {}, small_dataset.locations,
        )
        assert len(fm.columns) == 52
        assert fm.columns[0] == "births.total"
        assert "births.painter" in fm.columns
        assert "eci.deaths" in fm.columns
        assert "svd.emigrants.5" in fm.columns
        assert "dummy.Eastern Europe" in fm.columns
        assert fm.columns[-2:] == ("avg_age", "init_gdp")

    def test_init_gdp_omitted_without_lag(self, small_dataset):
        fm = build_static_features(1750, small_dataset).matrix
        assert "init_gdp" not in fm.columns
        assert len(fm.columns) == 51

    def test_rows_cover_all_locations(self, small_dataset):
        fm = build_static_features(1750, small_dataset).matrix
        assert set(fm.row_keys) == {("AT", 1750), ("PL", 1750)}

    def test_provenance_recorded(self, small_dataset):
        fm = attach_initial_gdp(
            build_static_features(1750, small_dataset).matrix, 1700,
            small_dataset.source_levels, {}, small_dataset.locations,
        )
        assert fm.init_provenance[("AT", 1750)] == "source"

    def test_record_order_invariance(self, small_dataset):
        fm1 = build_static_features(1750, small_dataset).matrix
        shuffled = Dataset(
            records=list(reversed(small_dataset.records)),
            locations=small_dataset.locations,
            gdp=small_dataset.gdp,
        )
        fm2 = build_static_features(1750, shuffled).matrix
        assert fm1.columns == fm2.columns and fm1.row_keys == fm2.row_keys
        assert np.array_equal(fm1.values, fm2.values)

    def test_empty_window_rejected(self, small_dataset):
        with pytest.raises(ValidationError, match="window"):
            build_static_features(1400, small_dataset).matrix

    def test_dummy_encoding(self, small_dataset):
        fm = build_static_features(1750, small_dataset).matrix
        at = fm.row_keys.index(("AT", 1750))
        west = fm.columns.index("dummy.Western Europe")
        east = fm.columns.index("dummy.Eastern Europe")
        assert fm.values[at, west] == 1.0 and fm.values[at, east] == 0.0

    def test_stack_and_subset(self, small_dataset):
        fm1 = build_static_features(1750, small_dataset).matrix
        fm2 = build_static_features(1800, small_dataset).matrix
        stacked = stack_features([fm1, fm2])
        assert len(stacked.row_keys) == 4
        sub = stacked.subset([("PL", 1800)])
        assert sub.row_keys == (("PL", 1800),)
        pl = fm2.row_keys.index(("PL", 1800))
        assert np.array_equal(sub.values[0], fm2.values[pl])

    def test_gate_counts_exposed(self, small_dataset):
        static = build_static_features(1750, small_dataset)
        births, deaths = static.gate_counts("AT")
        assert births == 6 and deaths >= 1

    def test_attach_initial_gdp_appends(self, small_dataset):
        static = build_static_features(1750, small_dataset)
        fm = attach_initial_gdp(
            static.matrix, 1700, small_dataset.source_levels, {}, small_dataset.locations
        )
        assert fm.columns[-1] == "init_gdp"
        at = fm.row_keys.index(("AT", 1750))
        assert fm.values[at, -1] == pytest.approx(math.log10(1500.0))

    def test_asinh_scale_applied(self, small_dataset):
        log_fm = build_static_features(1750, small_dataset, scale="log10p1").matrix
        as_fm = build_static_features(1750, small_dataset, scale="asinh").matrix
        col = log_fm.columns.index("births.total")
        at = log_fm.row_keys.index(("AT", 1750))
        assert as_fm.values[at, col] != log_fm.values[at, col]
        # both are transforms of the same underlying count
        count = 10.0 ** log_fm.values[at, col] - 1.0
        assert as_fm.values[at, col] == pytest.approx(math.asinh(count))


def reference_static_matrix(year, dataset, window_years, scale, reference_year):
    """The static feature matrix built record by record: per-record flow
    sets, per-member count and lifespan loops, and ``linearize`` per entry."""
    locations = dataset.locations
    flows = assign_flows(dataset.records, locations, year, window_years)
    tensors = {
        level: flow_counts(flows, dataset.by_person, locations, level, dataset.occupations,
                           reference_year=reference_year)
        for level in LEVELS
    }
    ages, flagged = avg_age(flows, dataset.by_person, locations)
    supra_regions = locations.supranational_regions()
    rows, keys = [], []
    for level in LEVELS:
        t = tensors[level]
        eci_values = {}
        for flow in FLOWS:
            if t.weighted[flow].any():
                rca = rca_matrix(t, flow)
                eci_values[flow] = dict(zip(rca.locations, eci(rca.binary).eci))
        for i, lid in enumerate(t.location_ids):
            row = []
            for flow in FLOWS:
                w = t.weighted[flow][i]
                row.append(linearize(float(w.sum()), scale))
                row.extend(linearize(float(v), scale) for v in w)
            row.extend(float(diversity(t, flow)[i]) for flow in FLOWS)
            row.extend(float(avg_ubiquity(t, flow)[i]) for flow in FLOWS)
            row.extend(float(eci_values.get(flow, {}).get(lid, 0.0)) for flow in FLOWS)
            for flow in FLOWS:
                row.extend(float(v) for v in svd_factors(t, flow)[i])
            row.extend(1.0 if locations.supra_of(lid) == s else 0.0 for s in supra_regions)
            row.append(ages[lid])
            rows.append(row)
            keys.append((lid, year))
    return tuple(keys), np.array(rows, dtype=float), tensors, flagged


@pytest.fixture
def handcrafted_dataset():
    locations = LocationTable([
        Location("AT", "Austria", "country", None, "Western Europe"),
        Location("ES", "Spain", "country", None, "Southern Europe"),
        Location("FR", "France", "country", None, "Western Europe"),
        Location("PL", "Poland", "country", None, "Eastern Europe"),
        Location("FR-1", "Paris", "region", "FR", ""),
        Location("FR-2", "Lyon", "region", "FR", ""),
        Location("PL-1", "Krakow", "region", "PL", ""),
        Location("PL-2", "Gdansk", "region", "PL", ""),
    ])
    records = [
        # migrant between regions of two countries: FR -> PL and FR-1 -> PL-1
        rec("p01", 1700, "FR-1", "PL-1", death_year=1760, occupation="painter", views=900),
        # regional migrant only: FR-1 -> FR-2 stays within FR
        rec("p02", 1710, "FR-1", "FR-2", death_year=1781, occupation="lawyer", views=40),
        # country-only record, a country-level migrant with no region rows
        rec("p03", 1690, "AT", "PL", death_year=1755, occupation="priest", views=5000),
        # missing death year: a birth that adds no lifespan
        rec("p04", 1720, "FR-2", None, occupation="painter", views=70),
        rec("p05", 1730, "PL-1", "FR-1", occupation="lawyer", views=300),
        # zero HPI at reference year 1820 (age 25, young-age penalty)
        rec("p06", 1795, "PL-1", "PL-1", death_year=1799, occupation="priest", views=1, langs=1),
        rec("p07", 1705, "AT", "AT", death_year=1790, occupation="painter", views=12),
        rec("p08", 1740, "FR-2", "AT", death_year=1801, occupation="priest", views=2500),
        rec("p09", 1715, "PL", "FR-2", death_year=1770, occupation="lawyer", views=8),
        rec("p10", 1760, "FR-1", "FR-1", death_year=1812, occupation="lawyer", views=66),
        # unknown death location: resolves nowhere
        rec("p11", 1725, "AT", "XX", death_year=1780, occupation="painter", views=150),
        # born before the window
        rec("p12", 1600, "ES", "ES", death_year=1650, occupation="painter", views=10),
        # born on either edge of the 1800 window
        rec("p13", 1650, "PL", "PL", death_year=1702, occupation="priest", views=30),
        rec("p14", 1800, "AT", None, occupation="lawyer", views=20),
        # resolves nowhere, so its lifespan stays out of the imputed mean
        rec("p15", 1745, "XX", "YY", death_year=1900, occupation="painter", views=50),
    ]
    return Dataset(records=list(reversed(records)), locations=locations, gdp=[])


class TestIndexedBuildMatchesReference:
    @pytest.mark.parametrize("year,window,scale", [
        (1800, 150, "log10p1"), (1800, 150, "asinh"), (1750, 60, "log10p1"),
    ])
    def test_matrix_byte_identical(self, handcrafted_dataset, year, window, scale):
        ds = handcrafted_dataset
        static = build_static_features(year, ds, window_years=window, scale=scale,
                                       reference_year=1820)
        keys, values, tensors, flagged = reference_static_matrix(year, ds, window, scale, 1820)
        assert static.matrix.row_keys == keys
        assert static.matrix.values.tobytes() == values.tobytes()
        assert static.age_imputed == flagged
        for level in LEVELS:
            for flow in FLOWS:
                assert static.tensors[level].weighted[flow].tobytes() == \
                    tensors[level].weighted[flow].tobytes()
                assert np.array_equal(static.tensors[level].unweighted[flow],
                                      tensors[level].unweighted[flow])
        for lid, _ in keys:
            level = ds.locations.get(lid).level
            t = tensors[level]
            i = t.row(lid)
            assert static.gate_counts(lid) == (int(t.unweighted_totals("births")[i]),
                                               int(t.unweighted_totals("deaths")[i]))

    def test_world_covers_the_edge_cases(self, handcrafted_dataset):
        ds = handcrafted_dataset
        flows = assign_flows(ds.records, ds.locations, 1800, 150)
        assert {"p01", "p03"} <= flows.emigrants["FR"] | flows.emigrants["AT"]
        assert "p01" in flows.immigrants["PL-1"] and "p02" in flows.immigrants["FR-2"]
        assert "p02" not in flows.emigrants["FR"]  # a regional move only
        assert "p03" not in flows.members("PL-1") | flows.members("PL-2")
        p06 = ds.by_person["p06"]
        assert hpi_weight(p06.pageviews, p06.language_editions, p06.birth_year, 1820) == 0.0
        assert ds.by_person["p04"].lifespan is None
        static = build_static_features(1800, ds, reference_year=1820)
        flagged = static.age_imputed
        assert flagged == ("ES", "PL-2")
        assert static.gate_counts("ES") == (0, 0)

    def test_unknown_gate_location_rejected(self, handcrafted_dataset):
        static = build_static_features(1800, handcrafted_dataset)
        with pytest.raises(ValidationError, match="XX"):
            static.gate_counts("XX")

    def test_duplicate_person_rejected(self, handcrafted_dataset):
        records = handcrafted_dataset.records + [rec("p03", 1700, "AT", "AT")]
        with pytest.raises(ValidationError, match="p03"):
            Dataset(records=records, locations=handcrafted_dataset.locations, gdp=[])


def eigh_reference(m):
    """ECI from a dense eigendecomposition of ``D^-1/2 M U^-1 M' D^-1/2``,
    under eci's rules: the sign that projects positively on the start
    vector (diversity, z-scored), the z-score, and the diversity sign flip
    (ranks taken on values rounded to 9 decimals, so rounding cannot
    decide them)."""
    div, ubiq = m.sum(axis=1), m.sum(axis=0)
    a = m / np.sqrt(np.outer(div, ubiq))
    vals, vecs = np.linalg.eigh(a @ a.T)
    start = (div - div.mean()) / div.std()
    y = vecs[:, -2] * np.sign(vecs[:, -2] @ (np.sqrt(div) * start))
    x = y / np.sqrt(div)
    x = (x - x.mean()) / x.std()
    if spearman(np.round(x, 9), div) < 0:
        x = -x
    return x, vals[-2], vals[-2] - vals[-3]


@pytest.fixture(scope="module")
def statics_2020():
    """Static features of every snapshot year of a 40-country world with
    2 regions per country; its ECI iteration did not converge."""
    world = make_synthetic_world(40, 10, seed=2020, n_regions_per_country=2)
    years = [y for p in PERIODS for y in p.snapshots if p.period_id in world.periods]
    return {year: build_static_features(year, world.dataset) for year in years}


class TestEciClosedForm:
    @pytest.mark.parametrize("regions", [0, 2])
    @pytest.mark.parametrize("seed", range(2020, 2030))
    def test_synthetic_worlds_build(self, seed, regions):
        world = make_synthetic_world(40, 10, seed=seed, n_regions_per_country=regions)
        assert all(math.isfinite(v) for v in world.observed_log_gdp.values())

    def test_matches_dense_eigh_reference(self, statics_2020):
        checked = 0
        for static in statics_2020.values():
            for level, tensor in static.tensors.items():
                for flow in FLOWS:
                    if not tensor.weighted[flow].any():
                        continue
                    m = rca_matrix(tensor, flow).binary
                    ref, lam2, gap = eigh_reference(m)
                    res = eci(m)
                    assert not res.degenerate
                    assert np.max(np.abs(res.eci - ref)) <= 1e-9
                    assert res.eigenvalue == pytest.approx(lam2, abs=1e-12)
                    assert res.gap == pytest.approx(gap, abs=1e-12)
                    checked += 1
        assert checked >= 12 * 2 * 3

    def test_certificates(self, statics_2020):
        for static in statics_2020.values():
            with_counts = {
                (level, flow)
                for level, tensor in static.tensors.items()
                for flow in FLOWS
                if tensor.weighted[flow].any()
            }
            assert set(static.eci_results) == with_counts
            for result in static.eci_results.values():
                assert math.isfinite(result.gap) and result.gap > 0.0
                assert math.isfinite(result.residual) and result.residual <= 1e-10
                assert 0.0 < result.relative_gap <= 1.0

    def test_disconnected_graph_returns_start_projection(self):
        # Three components: rows {0, 1} x cols {0, 1}, rows {2, 3} x col 2,
        # rows {4, 5, 6} x cols {3, 4, 5}; diversities 1 2 | 1 1 | 3 1 1.
        m = np.zeros((7, 6))
        m[0, 0] = m[1, 0] = m[1, 1] = 1.0
        m[2, 2] = m[3, 2] = 1.0
        m[4, 3] = m[4, 4] = m[4, 5] = m[5, 3] = m[6, 4] = 1.0
        # Eigenvalue 1 repeats three times; its eigenvectors are constant on
        # each component.  The iteration keeps the start vector's projection
        # there (D-orthogonal: per component, the diversity-weighted mean of
        # the start vector) and loses the rest.  The start vector is the
        # z-scored diversity, and the z-score at the end removes its affine
        # map, so the per-component values are sum(div^2) / sum(div).
        per_row = np.array([5 / 3, 5 / 3, 2 / 2, 2 / 2, 11 / 5, 11 / 5, 11 / 5])
        expected = (per_row - per_row.mean()) / per_row.std()
        res = eci(m)
        assert not res.degenerate
        assert np.max(np.abs(res.eci - expected)) <= 1e-12
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert res.gap <= 1e-12 and res.relative_gap <= 1e-12
        assert res.residual <= 1e-10

    def test_rounding_does_not_decide_the_sign(self):
        # Row 0 is one component, rows 1 and 2 another.  The limit is the
        # diversity-weighted mean of the start vector per component,
        # (2, 2.5, 2.5); its Spearman correlation with diversity (2, 1, 3)
        # is exactly 0, so the sign stays the start vector's.
        m = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 1, 1, 0, 1]], dtype=float)
        res = eci(m)
        assert res.eci[1] == res.eci[2]
        assert np.max(np.abs(res.eci - np.array([-2.0, 1.0, 1.0]) / math.sqrt(2))) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_mutual_averaging_limit(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = (rng.random((12, 8)) < 0.45).astype(float)
        m[m.sum(axis=1) == 0, 0] = 1.0
        m[0, m.sum(axis=0) == 0] = 1.0
        div, ubiq = m.sum(axis=1), m.sum(axis=0)

        def zscore(v):
            return (v - v.mean()) / v.std()

        loc = zscore(div)
        for _ in range(20000):
            nxt = zscore((m @ ((m.T @ loc) / ubiq)) / div)
            done = np.max(np.abs(nxt - loc)) < 1e-14
            loc = nxt
            if done:
                break
        if spearman(np.round(loc, 9), div) < 0:
            loc = -loc
        res = eci(m)
        assert res.relative_gap > NEAR_DEGENERATE_GAP
        assert np.max(np.abs(res.eci - loc)) <= 1e-9


def reference_hpi_weight(pageviews, language_editions, age):
    """The one-record HPI weight written with Python floats and ``math``."""
    v = max(float(pageviews), 1.0)
    l = max(float(language_editions), 1.0)
    a = max(float(age), 1.0)
    value = math.log10(v) + math.log(l) + math.log(a) / math.log(4.0)
    if a < 70.0:
        value -= (70.0 - a) / 7.0
    return max(value, 0.0)


@pytest.fixture
def hpi_edge_dataset(locations):
    reference = 1820
    cases = [
        # (views, langs, age)
        (0, 3, 200), (100, 0, 200), (0, 0, 90),  # clamped to 1
        (5000, 7, 0), (5000, 7, -15),  # ages <= 0
        (731, 4, 70), (731, 4, 69), (731, 4, 71),  # either side of the penalty
        (5000, 7, 50),  # penalized, still positive
        (1, 1, 23), (2, 1, 5),  # floored at 0
        (123456789, 250, 1000), (37, 2, 1),
    ]
    records = [
        rec(f"h{i:02d}", reference - age, "AT", "PL", views=views, langs=langs)
        for i, (views, langs, age) in enumerate(cases)
    ]
    return Dataset(records=records, locations=locations, gdp=[]), reference


class TestElementwiseHpi:
    def test_index_window_matches_per_record_calls(self, hpi_edge_dataset):
        ds, reference = hpi_edge_dataset
        index = ds.record_index
        rows = np.arange(len(ds.records))
        weights = hpi_weight(index.pageviews, index.language_editions, index.birth_year, reference)
        records = [ds.by_person[pid] for pid in sorted(ds.by_person)]
        per_record = np.array([
            hpi_weight(r.pageviews, r.language_editions, r.birth_year, reference) for r in records
        ])
        expected = np.array([
            reference_hpi_weight(r.pageviews, r.language_editions, reference - r.birth_year)
            for r in records
        ])
        assert weights.tobytes() == per_record.tobytes() == expected.tobytes()
        floored = [r.person_id for r, w in zip(records, weights) if w == 0.0]
        assert floored == ["h03", "h04", "h09", "h10", "h12"]
        # a subset window in index order
        some = rows[[1, 4, 6, 8, 9]]
        assert hpi_weight(index.pageviews[some], index.language_editions[some],
                          index.birth_year[some], reference).tobytes() == expected[some].tobytes()

    def test_world_weights_match_math_bit_for_bit(self, small_world):
        index = small_world.dataset.record_index
        records = sorted(small_world.dataset.records, key=lambda r: r.person_id)
        views = [r.pageviews for r in records]
        # the check can tell math's logs from numpy's on this world
        assert any(np.log10(float(v)) != math.log10(v) for v in views)
        rows = np.arange(len(records))
        for reference in (1820, 2023):
            expected = np.array([
                reference_hpi_weight(r.pageviews, r.language_editions, reference - r.birth_year)
                for r in records
            ])
            weights = hpi_weight(index.pageviews[rows], index.language_editions[rows],
                                 index.birth_year[rows], reference)
            assert weights.tobytes() == expected.tobytes()

    def test_array_score_matches_scalar_scores(self):
        views = np.array([0.0, 10.0, 100.0, 100.0, 1000.0, 5.0])
        langs = np.array([1.0, 0.0, 3.0, 3.0, 1.0, 2.0])
        ages = np.array([50.0, 64.0, 70 - 1e-9, 70.0, 256.0, -3.0])
        score = hpi(views, langs, ages)
        for i in range(views.size):
            one = hpi(views[i], langs[i], ages[i])
            assert isinstance(one.value, float) and isinstance(one.clamped, bool)
            assert score.value[i] == one.value and score.clamped[i] == one.clamped
        assert score.clamped.tolist() == [True, True, False, False, False, True]

    def test_empty_window(self, hpi_edge_dataset):
        ds, reference = hpi_edge_dataset
        index, none = ds.record_index, np.array([], dtype=np.intp)
        empty = hpi_weight(index.pageviews[none], index.language_editions[none],
                           index.birth_year[none], reference)
        assert empty.shape == (0,)


class TestElementwiseLinearize:
    @pytest.fixture
    def counts(self):
        rng = np.random.default_rng(3)
        w = rng.gamma(0.7, 40.0, size=(30, 9)) * (rng.random((30, 9)) > 0.4)
        w[0, :6] = [0.0, -0.0, 5e-324, 1e-300, 1e300, 99.0]
        return w

    def test_matches_math_per_element(self, counts):
        for scale, fn in (("log10p1", lambda x: math.log10(1.0 + x)), ("asinh", math.asinh)):
            out = linearize(counts, scale)
            expected = np.array([fn(x) for x in counts.ravel().tolist()]).reshape(counts.shape)
            assert out.shape == counts.shape
            assert out.tobytes() == expected.tobytes()
        assert np.signbit(linearize(counts, "asinh")[0, 1])  # asinh(-0.0) is -0.0
        # the check can tell math's log10 from numpy's on these counts
        assert np.any(np.log10(1.0 + counts) != linearize(counts, "log10p1"))

    def test_scalar_in_float_out(self):
        assert isinstance(linearize(3), float)
        assert linearize(np.float64(99.0)) == 2.0

    def test_array_errors_kept(self, counts):
        bad = counts.copy()
        bad[4, 2] = -0.25
        with pytest.raises(ValidationError, match="negative input -0.25"):
            linearize(bad, "asinh")
        with pytest.raises(ValidationError, match="unknown scale 'log'"):
            linearize(counts, "log")


class TestFeatureMatrixChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            FeatureMatrix((("A", 1300),), ("a", "b"), np.array([[1.0, bad]]))

    def test_shape_must_match_keys_and_columns(self):
        with pytest.raises(ValidationError, match="shape"):
            FeatureMatrix((("A", 1300),), ("a",), np.ones((1, 2)))


class TestSubset:
    def test_filters_init_provenance(self, small_dataset):
        fm = attach_initial_gdp(
            build_static_features(1750, small_dataset).matrix, 1700,
            small_dataset.source_levels, {}, small_dataset.locations,
        )
        assert set(fm.init_provenance) == {("AT", 1750), ("PL", 1750)}
        sub = fm.subset([("PL", 1750)])
        assert sub.init_provenance == {("PL", 1750): fm.init_provenance[("PL", 1750)]}
        assert set(fm.init_provenance) == {("AT", 1750), ("PL", 1750)}

    def test_keeps_requested_order_and_rejects_unknown_keys(self, small_dataset):
        fm = attach_initial_gdp(
            build_static_features(1750, small_dataset).matrix, 1700,
            small_dataset.source_levels, {}, small_dataset.locations,
        )
        keys = list(reversed(fm.row_keys))
        sub = fm.subset(iter(keys))
        assert sub.row_keys == tuple(keys)
        assert np.array_equal(sub.values, fm.values[::-1])
        with pytest.raises(ValidationError, match=r"no row \('XX', 1750\)"):
            fm.subset([("AT", 1750), ("XX", 1750)])
