"""The synthetic world generator: its pinned random stream and its argument checks."""

import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from histgdp import synthetic
from histgdp.errors import ValidationError
from histgdp.synthetic import choice_table, make_synthetic_world, write_world_csv

TWO_PERIODS = ("late_middle_ages", "early_modern")

# SHA-256 of the three input files and of the two log GDP maps (as
# ``repr([(key, float(value)), ...])`` in key order).  Any change to the
# generator's draws, or to their order, changes these digests.
PINNED_WORLDS = {
    "regions": (
        dict(n_countries=6, n_occupations=4, period_ids=TWO_PERIODS, seed=5,
             n_regions_per_country=2, n_supra=2, label_fraction=0.6,
             true_coefficients={"births.occ01": 0.45, "immigrants.total": 0.4}),
        {
            "biographies": "13f0b988b6d4d8fcde8eeedc7aee08ae1b0d4a02bf9cf5440c2cfbf1a8ae1417",
            "locations": "e86280ff43c2ac8dfeb90bde7ce92860aa493f787794ab8cee3b236c82da66ff",
            "gdp": "12ed9ad480463c4b465e3c96ea5188213bf7b2537af29cfbd68a83a7ee00c3a4",
            "true_log_gdp": "b7265d2ed06f6b00620cb4470849fd1ea3b160e0fe2e3e9e269b2dd97262c6d0",
            "observed_log_gdp": "f66e86c4a6ea367c661b6a2bb641bd3d7f8ed7091c2f068c439862652c03122a",
        },
    ),
    "countries": (
        dict(n_countries=5, n_occupations=3, period_ids=TWO_PERIODS, seed=8,
             n_supra=2, migration_rate=0.3,
             true_coefficients={"births.occ00": 0.45, "deaths.occ02": -0.35}),
        {
            "biographies": "c25c3b52032bbdcca0236e9b9add4919f067e4eeed727fc571088570f4c7d724",
            "locations": "c0aa6c5304b740b89d7f44d273d9f41f08fb2014f71e4e31a03c4c795e30de14",
            "gdp": "e42a9d1e0cd9813b062b569d55be3b8be6e1ee88a1bf6b57163604daf1153b02",
            "true_log_gdp": "9d63b1103a77b9a37696fa6b0dfb102559d49cff0fa5e6324aa27c185f3a2237",
            "observed_log_gdp": "5149e32dda8321023aa35fabd976fb6a61e62158b52e8b054ffe4a8ed106894b",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_world_is_pinned(name, tmp_path):
    arguments, expected = PINNED_WORLDS[name]
    world = make_synthetic_world(**arguments)
    paths = write_world_csv(world.dataset, tmp_path)
    got = {key: _sha256(path.read_bytes()) for key, path in paths.items()}
    for attr in ("true_log_gdp", "observed_log_gdp"):
        pairs = [(key, float(value)) for key, value in sorted(getattr(world, attr).items())]
        got[attr] = _sha256(repr(pairs).encode())
    assert got == expected


def _weights(values) -> np.ndarray:
    weights = np.asarray(values, dtype=float)
    return weights / weights.sum()


def _location_weights():
    # the death-location weights: one entry zeroed, then renormalised
    weights = np.exp(np.random.default_rng(7).normal(size=12))
    weights /= weights.sum()
    weights[4] = 0.0
    return weights / weights.sum()


@pytest.mark.parametrize("weights", [
    _weights([1.0]),
    _weights([0.5, 0.25, 0.25]),
    _weights([0.0, 3.0, 0.0, 0.0, 7.0, 0.0]),
    _weights(np.random.default_rng(3).gamma(0.5, size=10)),
    _location_weights(),
], ids=["one", "three", "zeros", "gamma-mix", "location"])
def test_choice_table_draws_what_generator_choice_draws(weights):
    table = choice_table(weights)
    assert table[-1] == 1.0  # every uniform in [0, 1) maps to an index
    ours, theirs = np.random.default_rng(42), np.random.default_rng(42)
    looked_up = [bisect_right(table, ours.random()) for _ in range(10_000)]
    chosen = [int(theirs.choice(len(weights), p=weights)) for _ in range(10_000)]
    assert looked_up == chosen
    assert not any(weights[looked_up] == 0.0)
    assert ours.random() == theirs.random()  # both consumed the same stream


@pytest.mark.parametrize("argument, value", [
    ("n_countries", 0),
    ("n_occupations", 0),
    ("n_regions_per_country", -1),
    ("n_supra", 0),
    ("noise_sd", -0.1),
    ("noise_sd", math.nan),
    ("label_fraction", 1.5),
    ("migration_rate", -0.5),
])
def test_bad_argument_is_refused_before_any_draw(monkeypatch, argument, value):
    def no_draws(*args):
        pytest.fail("the generator drew numbers before checking its arguments")

    monkeypatch.setattr(synthetic, "child_rng", no_draws)
    with pytest.raises(ValidationError, match=argument):
        make_synthetic_world(**{
            "n_countries": 4, "n_occupations": 3, "period_ids": TWO_PERIODS, "seed": 0,
            "true_coefficients": {"births.total": 0.3}, argument: value,
        })


def test_period_without_its_predecessor_is_refused(monkeypatch):
    monkeypatch.setattr(synthetic, "child_rng", lambda *args: pytest.fail("drew numbers"))
    with pytest.raises(ValidationError, match="early_modern.*predecessor"):
        make_synthetic_world(4, 3, ("early_modern",), seed=0,
                             true_coefficients={"births.total": 0.3})


def test_argument_bounds_are_accepted():
    world = make_synthetic_world(
        3, 2, TWO_PERIODS, seed=1, n_regions_per_country=1, noise_sd=0.0,
        label_fraction=0.0, migration_rate=1.0, true_coefficients={"births.total": 0.3},
    )
    assert world.true_log_gdp == world.observed_log_gdp
    assert {world.dataset.locations.get(o.location_id).level for o in world.dataset.gdp} == {
        "country"
    }
    assert all(r.death_location != r.birth_location for r in world.dataset.records)


def test_world_builds_its_record_index_once(monkeypatch):
    # the features that give the levels and the returned dataset share one index
    from histgdp import data_ingest

    calls = []

    def counting(*args):
        calls.append(args)
        return index_records(*args)

    index_records = data_ingest.index_records
    monkeypatch.setattr(data_ingest, "index_records", counting)
    arguments, _ = PINNED_WORLDS["regions"]
    world = make_synthetic_world(**arguments)
    assert len(calls) == 1
    dataset = world.dataset
    assert dataset.gdp and dataset.source_levels == {
        (o.location_id, o.year): o.gdp_pc for o in dataset.gdp
    }
