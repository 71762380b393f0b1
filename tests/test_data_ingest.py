import pytest

from histgdp.data_ingest import (
    assign_flows,
    filter_eligible,
    load_biographies,
    load_dataset,
    load_gdp,
    load_locations,
    write_rejects_report,
)
from histgdp.errors import InputError, ValidationError
from histgdp.features import build_static_features

BIO_HEADER = "person_id,name,birth_year,death_year,birth_location_id,death_location_id,occupation,pageviews,language_editions\n"
LOC_HEADER = "location_id,name,level,parent_country_id,supranational_region\n"
GDP_HEADER = "location_id,year,gdp_pc_2011usd,source\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def locations(tmp_path):
    return load_locations(
        write(
            tmp_path / "locations.csv",
            LOC_HEADER
            + "AT,Austria,country,,Western Europe\n"
            + "FR,France,country,,Western Europe\n"
            + "PL,Poland,country,,Eastern Europe\n"
            + "FR-1,Paris,region,FR,\n"
            + "FR-2,Lyon,region,FR,\n",
        )
    )


class TestLoadBiographies:
    def test_negative_lifespan_rejected(self, tmp_path):
        path = write(
            tmp_path / "b.csv",
            BIO_HEADER + "p1,X,1500,1490,AT,AT,painter,10,3\n",
        )
        records, rejects = load_biographies(path)
        assert records == []
        assert rejects[0].reason == "negative lifespan"
        assert rejects[0].line_number == 2

    def test_single_language_edition_loaded(self, tmp_path):
        path = write(
            tmp_path / "b.csv",
            BIO_HEADER + "p1,X,1500,1560,AT,AT,painter,10,1\n",
        )
        records, rejects = load_biographies(path)
        assert len(records) == 1 and rejects == []

    def test_empty_file_with_header_warns(self, tmp_path):
        path = write(tmp_path / "b.csv", BIO_HEADER)
        with pytest.warns(UserWarning):
            records, rejects = load_biographies(path)
        assert records == [] and rejects == []

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(InputError, match="b.csv"):
            load_biographies(tmp_path / "b.csv")

    def test_missing_column_fatal(self, tmp_path):
        path = write(tmp_path / "b.csv", "person_id,name\np1,X\n")
        with pytest.raises(InputError):
            load_biographies(path)

    def test_unparseable_year_fatal(self, tmp_path):
        path = write(
            tmp_path / "b.csv",
            BIO_HEADER + "p1,X,15o0,1560,AT,AT,painter,10,3\n",
        )
        with pytest.raises(ValidationError, match=":2:"):
            load_biographies(path)

    def test_occupation_casefolded(self, tmp_path):
        path = write(
            tmp_path / "b.csv",
            BIO_HEADER + "p1,X,1500,1560,AT,AT, Painter ,10,3\n",
        )
        records, _ = load_biographies(path)
        assert records[0].occupation == "painter"

    def test_duplicate_person_rejected(self, tmp_path):
        path = write(
            tmp_path / "b.csv",
            BIO_HEADER
            + "p1,X,1500,1560,AT,AT,painter,10,3\n"
            + "p1,Y,1510,1570,FR,FR,lawyer,10,3\n",
        )
        records, rejects = load_biographies(path)
        assert len(records) == 1
        assert rejects[0].reason == "duplicate person_id"


class TestLoadLocations:
    def test_orphan_region_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="parent"):
            load_locations(
                write(tmp_path / "l.csv", LOC_HEADER + "XX-1,R,region,XX,\n")
            )

    def test_country_needs_supra(self, tmp_path):
        with pytest.raises(ValidationError, match="supranational"):
            load_locations(write(tmp_path / "l.csv", LOC_HEADER + "AT,Austria,country,,\n"))

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            load_locations(
                write(
                    tmp_path / "l.csv",
                    LOC_HEADER + "AT,A,country,,W\nAT,B,country,,W\n",
                )
            )

    def test_hierarchy_helpers(self, locations):
        assert locations.country_of("FR-1") == "FR"
        assert locations.country_of("AT") == "AT"
        assert locations.supra_of("FR-2") == "Western Europe"
        assert locations.regions_of("FR") == ["FR-1", "FR-2"]
        assert locations.supranational_regions() == ["Eastern Europe", "Western Europe"]

    def test_countries_in_supranational_region(self, locations):
        for supra in locations.supranational_regions():
            assert list(locations.countries_in(supra)) == [
                c for c in locations.countries() if locations.supra_of(c) == supra
            ]
        assert locations.countries_in("Atlantis") == ()


class TestLoadGdp:
    def test_valid_row(self, tmp_path, locations):
        obs, rejects = load_gdp(
            write(tmp_path / "g.csv", GDP_HEADER + "AT,1500,1234.5,maddison\n"),
            locations,
        )
        assert rejects == []
        assert obs[0].gdp_pc == 1234.5 and obs[0].year == 1500

    def test_off_grid_year_rejected(self, tmp_path, locations):
        _, rejects = load_gdp(
            write(tmp_path / "g.csv", GDP_HEADER + "AT,1503,1234.5,maddison\n"),
            locations,
        )
        assert "grid" in rejects[0].reason

    def test_duplicate_rejected(self, tmp_path, locations):
        obs, rejects = load_gdp(
            write(
                tmp_path / "g.csv",
                GDP_HEADER + "AT,1500,1234.5,m\nAT,1500,2000,m\n",
            ),
            locations,
        )
        assert len(obs) == 1 and "duplicate" in rejects[0].reason

    def test_non_positive_rejected(self, tmp_path, locations):
        _, rejects = load_gdp(
            write(tmp_path / "g.csv", GDP_HEADER + "AT,1500,0,m\n"), locations
        )
        assert "non-positive" in rejects[0].reason


def rec(pid, birth_year, birth_loc, death_loc, death_year=None, occupation="painter",
        langs=3, views=10):
    from histgdp.data_ingest import BiographyRecord

    return BiographyRecord(
        person_id=pid,
        name=pid,
        birth_year=birth_year,
        death_year=death_year,
        birth_location=birth_loc,
        death_location=death_loc,
        occupation=occupation,
        pageviews=views,
        language_editions=langs,
    )


class TestFilterEligible:
    def test_rules(self, locations):
        records = [
            rec("ok", 1500, "AT", "FR"),
            rec("no_loc", 1500, None, None),
            rec("unknown_loc", 1500, "ZZ", "YY"),
            rec("too_early", 1050, "AT", "AT"),
            rec("one_lang", 1500, "AT", "AT", langs=1),
            rec("no_occ", 1500, "AT", "AT", occupation=""),
        ]
        kept = filter_eligible(records, locations)
        assert [r.person_id for r in kept] == ["ok"]

    def test_death_location_only(self, locations):
        kept = filter_eligible([rec("d_only", 1500, None, "FR-1")], locations)
        assert len(kept) == 1


class TestAssignFlows:
    def test_migration_example(self, locations):
        # born 1480 in AT, died in FR; snapshot 1600, window 150
        flows = assign_flows([rec("p", 1480, "AT", "FR")], locations, 1600, 150)
        assert "p" in flows.births["AT"] and "p" in flows.emigrants["AT"]
        assert "p" in flows.deaths["FR"] and "p" in flows.immigrants["FR"]

    def test_window_boundary(self, locations):
        flows = assign_flows([rec("p", 1400, "AT", "AT")], locations, 1600, 150)
        assert flows.births == {}
        flows = assign_flows([rec("p", 1450, "AT", "AT")], locations, 1600, 150)
        assert "p" in flows.births["AT"]

    def test_same_place_no_migration(self, locations):
        flows = assign_flows([rec("p", 1500, "AT", "AT")], locations, 1600, 150)
        assert "p" in flows.births["AT"] and "p" in flows.deaths["AT"]
        assert flows.immigrants == {} and flows.emigrants == {}

    def test_missing_death_only_births(self, locations):
        flows = assign_flows([rec("p", 1500, "AT", None)], locations, 1600, 150)
        assert "p" in flows.births["AT"]
        assert flows.deaths == {} and flows.emigrants == {}

    def test_region_rolls_up_to_country(self, locations):
        flows = assign_flows([rec("p", 1500, "FR-1", "FR-2")], locations, 1600, 150)
        # region level: a move; country level: both endpoints inside FR
        assert "p" in flows.emigrants["FR-1"] and "p" in flows.immigrants["FR-2"]
        assert "p" in flows.births["FR"] and "p" in flows.deaths["FR"]
        assert "FR" not in flows.emigrants and "FR" not in flows.immigrants

    def test_country_level_record_excluded_from_regions(self, locations):
        flows = assign_flows([rec("p", 1500, "FR", "FR")], locations, 1600, 150)
        assert "p" in flows.births["FR"]
        assert "FR-1" not in flows.births and "FR-2" not in flows.births

    def test_rollup_consistency_births_deaths(self, locations):
        records = [
            rec("a", 1500, "FR-1", "FR-1"),
            rec("b", 1510, "FR-2", "AT"),
            rec("c", 1520, "FR", "FR"),
            rec("d", 1530, "AT", "FR-1"),
        ]
        flows = assign_flows(records, locations, 1600, 150)
        region_union = flows.births.get("FR-1", frozenset()) | flows.births.get("FR-2", frozenset())
        direct = {r.person_id for r in records if r.birth_location == "FR"
                  and 1450 <= r.birth_year <= 1600}
        assert flows.births["FR"] == region_union | direct
        region_union_d = flows.deaths.get("FR-1", frozenset()) | flows.deaths.get("FR-2", frozenset())
        direct_d = {r.person_id for r in records if r.death_location == "FR"}
        assert flows.deaths["FR"] == region_union_d | direct_d

    def test_order_independent(self, locations):
        records = [
            rec("a", 1500, "FR-1", "AT"),
            rec("b", 1510, "AT", "FR-2"),
            rec("c", 1520, "PL", "PL"),
        ]
        f1 = assign_flows(records, locations, 1600, 150)
        f2 = assign_flows(list(reversed(records)), locations, 1600, 150)
        assert f1 == f2

    def test_births_bounded_by_records(self, locations):
        records = [rec(f"p{i}", 1500 + i, "FR-1", "AT") for i in range(5)]
        flows = assign_flows(records, locations, 1600, 150)
        region_births = sum(
            len(v) for k, v in flows.births.items() if locations.get(k).level == "region"
        )
        assert region_births <= len(records)


class TestLoadDataset:
    def test_end_to_end(self, tmp_path):
        write(
            tmp_path / "locations.csv",
            LOC_HEADER + "AT,Austria,country,,Western Europe\n",
        )
        write(
            tmp_path / "biographies.csv",
            BIO_HEADER + "p1,X,1500,1560,AT,AT,painter,10,3\n",
        )
        write(tmp_path / "gdp.csv", GDP_HEADER + "AT,1500,1000,m\n")
        ds = load_dataset(
            tmp_path / "biographies.csv", tmp_path / "locations.csv", tmp_path / "gdp.csv"
        )
        assert len(ds.records) == 1
        assert ds.source_levels[("AT", 1500)] == 1000.0
        assert ds.occupations == ["painter"]

    def test_reject_threshold_aborts(self, tmp_path):
        write(tmp_path / "locations.csv", LOC_HEADER + "AT,A,country,,W\n")
        rows = "".join(
            f"p{i},X,1500,1490,AT,AT,painter,10,3\n" for i in range(5)
        )  # all negative lifespans
        write(tmp_path / "biographies.csv", BIO_HEADER + rows)
        write(tmp_path / "gdp.csv", GDP_HEADER)
        with pytest.raises(ValidationError, match="rejected"):
            load_dataset(
                tmp_path / "biographies.csv",
                tmp_path / "locations.csv",
                tmp_path / "gdp.csv",
            )

    def test_reject_fraction_outside_unit_interval_raises_before_reading(self, tmp_path):
        missing = tmp_path / "missing.csv"  # an InputError if it were opened
        for fraction in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError, match=r"max_reject_fraction must lie in \[0, 1\]"):
                load_dataset(missing, missing, missing, max_reject_fraction=fraction)

    def test_empty_death_year_loads_and_is_left_out_of_avg_age(self, tmp_path):
        write(
            tmp_path / "locations.csv",
            LOC_HEADER + "AT,A,country,,W\nFR,F,country,,W\nPL,P,country,,E\n",
        )
        write(
            tmp_path / "biographies.csv",
            BIO_HEADER
            + "p1,X,1500,1560,AT,AT,painter,10,3\n"
            + "p2,X,1510,,AT,AT,painter,10,3\n"  # living or undated: no lifespan
            + "p3,X,1520,1590,FR,FR,painter,10,3\n"
            + "p4,X,1530,,PL,PL,painter,10,3\n",
        )
        write(tmp_path / "gdp.csv", GDP_HEADER)
        ds = load_dataset(
            tmp_path / "biographies.csv", tmp_path / "locations.csv", tmp_path / "gdp.csv"
        )
        assert ds.rejects == [] and len(ds.records) == 4
        assert ds.by_person["p2"].death_year is None and ds.by_person["p2"].lifespan is None
        static = build_static_features(1550, ds)
        fm = static.matrix
        ages = {key[0]: fm.values[i, fm.columns.index("avg_age")]
                for i, key in enumerate(fm.row_keys)}
        # AT's undated member is left out; PL has only an undated one and
        # takes the mean over the dated members (60 and 70)
        assert ages == {"AT": 60.0, "FR": 70.0, "PL": 65.0}
        assert static.age_imputed == ("PL",)

    def test_every_reject_lands_in_rejects_csv_with_its_line(self, tmp_path):
        write(tmp_path / "locations.csv", LOC_HEADER + "AT,A,country,,W\n")
        write(
            tmp_path / "biographies.csv",
            BIO_HEADER
            + "p1,X,1500,1560,AT,AT,painter,10,3\n"
            + "p2,X,1500,1560,AT,AT,painter,10\n"
            + ",X,1500,1560,AT,AT,painter,10,3\n"
            + "p4,X,,1560,AT,AT,painter,10,3\n"
            + "p5,X,1500,1560,AT,AT,painter,-1,3\n"
            + "p6,X,1500,1560,AT,AT,painter,10,0\n",
        )
        write(
            tmp_path / "gdp.csv",
            GDP_HEADER + "AT,1500,1000,m\nAT,1550,1000\nAT,1550,abc,m\nXX,1550,1000,m\n",
        )
        ds = load_dataset(
            tmp_path / "biographies.csv", tmp_path / "locations.csv", tmp_path / "gdp.csv",
            max_reject_fraction=1.0,
        )
        assert [r.person_id for r in ds.records] == ["p1"] and len(ds.gdp) == 1
        write_rejects_report(ds.rejects, tmp_path / "rejects.csv")
        assert (tmp_path / "rejects.csv").read_text().splitlines() == [
            "file,line_number,key,reason",
            "biographies,3,p2,wrong field count",
            "biographies,4,,missing person_id",
            "biographies,5,p4,missing birth_year",
            "biographies,6,p5,missing or negative pageviews",
            "biographies,7,p6,missing or non-positive language_editions",
            "gdp,3,AT,wrong field count",
            "gdp,4,AT,unparseable gdp_pc 'abc'",
            "gdp,5,XX,unknown location",
        ]


def test_write_world_csv_round_trip(tmp_path):
    from histgdp.synthetic import make_synthetic_world, write_world_csv

    world = make_synthetic_world(
        n_countries=5,
        n_occupations=4,
        period_ids=("late_middle_ages", "early_modern"),
        seed=4,
        n_regions_per_country=1,
        n_supra=2,
        label_fraction=0.7,
        true_coefficients={"births.occ00": 0.45, "immigrants.total": 0.4},
    ).dataset
    paths = write_world_csv(world, tmp_path)
    loaded = load_dataset(paths["biographies"], paths["locations"], paths["gdp"])
    assert loaded.records == world.records
    assert loaded.gdp == world.gdp
    assert loaded.rejects == []
    ids = world.locations.ids()
    assert loaded.locations.ids() == ids
    assert [loaded.locations.get(i) for i in ids] == [world.locations.get(i) for i in ids]
