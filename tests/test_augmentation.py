import enum
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demotrend.augmentation import DonorRule, build_augmented_series, donor_sets, select_donors
from demotrend.core import AGE_BANDS, FERTILE_BANDS, SEX_COLUMNS, Sex, Variable
from demotrend.data_ingest import load_dataset
from demotrend.errors import NoTargetData

import seed_oracle
from conftest import TINY


def candidates_of(dataset, exclude):
    return {c.iso3: dataset.gdp_hist_series(c.iso3)
            for c in dataset.countries if c.iso3 != exclude}


class TestDonorRule:
    def test_invariants_enforced(self):
        DonorRule(target_gdp_2015=1400.0, target_pathway_max=6000.0)
        with pytest.raises(ValueError):
            DonorRule(target_gdp_2015=0.0, target_pathway_max=6000.0)
        with pytest.raises(ValueError):
            DonorRule(target_gdp_2015=1400.0, target_pathway_max=1000.0)
        for gdp_2015, top in ((math.nan, 5.0), (math.inf, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError):
                DonorRule(target_gdp_2015=gdp_2015, target_pathway_max=top)

    def test_strict_inequalities(self):
        years = np.array([1990.0, 2015.0])
        # window min exactly equals the 2015 level -> not admitted
        at_floor = {"DDD": (years, np.array([1400.0, 2000.0]))}
        assert select_donors(DonorRule(1400.0, 6000.0), at_floor) == []
        # window max exactly equals the pathway ceiling -> not admitted
        at_ceiling = {"DDD": (years, np.array([2000.0, 6000.0]))}
        assert select_donors(DonorRule(1400.0, 6000.0), at_ceiling) == []
        # strictly inside on both ends -> admitted
        inside = {"DDD": (years, np.array([1400.01, 5999.99]))}
        assert select_donors(DonorRule(1400.0, 6000.0), inside) == ["DDD"]

    def test_fixture_topology(self, tiny_dataset):
        """BBB's recent GDP sits inside AAA's corridor; CCC's does not."""
        rule = DonorRule(target_gdp_2015=1400.0, target_pathway_max=6000.0)
        donors = select_donors(rule, candidates_of(tiny_dataset, "AAA"))
        assert donors == ["BBB"]

    def test_rich_country_attracts_no_donors(self, tiny_dataset):
        rule = DonorRule(target_gdp_2015=35000.0, target_pathway_max=60000.0)
        assert select_donors(rule, candidates_of(tiny_dataset, "CCC")) == []

    def test_tighter_ceiling_removes_donor(self, tiny_dataset):
        """Scenario-dependent pathways change who qualifies."""
        candidates = candidates_of(tiny_dataset, "AAA")
        wide = select_donors(DonorRule(1400.0, 6000.0), candidates)
        narrow = select_donors(DonorRule(1400.0, 1500.0), candidates)
        assert wide == ["BBB"]
        assert narrow == []

    def test_only_window_years_considered(self):
        # hugely out-of-corridor values before 1990 must not disqualify
        years = np.array([1960.0, 1990.0, 2015.0])
        values = np.array([50.0, 2000.0, 3000.0])
        donors = select_donors(DonorRule(1400.0, 6000.0), {"DDD": (years, values)})
        assert donors == ["DDD"]

    def test_candidate_without_window_observations_skipped(self):
        years = np.array([1960.0, 1980.0])
        values = np.array([2000.0, 2500.0])
        assert select_donors(DonorRule(1400.0, 6000.0), {"DDD": (years, values)}) == []

    def test_result_sorted(self):
        years = np.array([1990.0, 2015.0])
        good = (years, np.array([2000.0, 3000.0]))
        donors = select_donors(DonorRule(1400.0, 6000.0),
                               {"ZZZ": good, "MMM": good, "BBB": good})
        assert donors == ["BBB", "MMM", "ZZZ"]


@st.composite
def donor_cases(draw):
    """Candidates and 1-150 (floor, ceiling) pairs, floor <= ceiling, drawn
    from a few shared GDP levels, so that a window minimum or maximum often
    equals a floor or a ceiling and a floor often equals its ceiling. A
    candidate's years may miss the 1990-2015 window, or touch it only at
    1990 or only at 2015."""
    levels = st.sampled_from(draw(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=5)))
    year = st.sampled_from([1960.0, 1989.0, 1990.0, 1991.0, 2003.0, 2014.0, 2015.0, 2016.0])
    names = draw(st.lists(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3, max_size=3),
                          max_size=8, unique=True))
    candidates = {}
    for name in names:
        years = sorted(draw(st.sets(year, max_size=4)))
        candidates[name] = (np.array(years), np.array([draw(levels) for _ in years]))
    pairs = draw(st.lists(st.tuples(levels, levels).map(sorted), min_size=1, max_size=150))
    return candidates, pairs


class TestDonorSets:
    """Each row of ``donor_sets``, and ``select_donors``, equals the frozen
    seed's ``select_donors`` under the same (floor, ceiling) pair."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=donor_cases())
    @example(case=({}, [(5.0, 5.0)] * 150))
    @example(case=({"AAA": (np.array([1990.0]), np.array([3.0])),
                    "BBB": (np.array([2015.0]), np.array([3.0])),
                    "CCC": (np.array([1989.0, 2016.0]), np.array([3.0, 3.0]))},
                   [(2.0, 4.0), (3.0, 4.0), (2.0, 3.0), (3.0, 3.0)]))
    def test_rows_equal_the_seed(self, case):
        candidates, pairs = case
        rows = donor_sets(candidates, *zip(*pairs))
        assert len(rows) == len(pairs)
        for row, (floor, ceiling) in zip(rows, pairs):
            seed = seed_oracle.select_donors(floor, ceiling, candidates)
            assert row == seed == select_donors(DonorRule(floor, ceiling), candidates)


class TestAugmentedSeries:
    def test_target_only_when_no_donors(self, tiny_dataset):
        series = build_augmented_series("AAA", [], Variable.FERTILITY, "20-24",
                                        tiny_dataset)
        # annual interpolation of five-yearly 1950-2015 observations
        assert series.fit_gdp.size == series.weight_gdp.size == 66
        assert np.array_equal(series.fit_gdp, series.weight_gdp)
        assert np.array_equal(series.fit_rate, series.weight_rate)

    def test_donor_extends_fit_not_weight(self, tiny_dataset):
        alone = build_augmented_series("AAA", [], Variable.FERTILITY, "20-24",
                                       tiny_dataset)
        augmented = build_augmented_series("AAA", ["BBB"], Variable.FERTILITY,
                                           "20-24", tiny_dataset)
        assert augmented.fit_gdp.size == alone.fit_gdp.size + 26  # donor window 1990-2015
        assert augmented.weight_gdp.size == alone.weight_gdp.size
        assert np.array_equal(augmented.weight_gdp, alone.weight_gdp)
        # target pairs come first, donor pairs after
        assert np.array_equal(augmented.fit_gdp[:alone.fit_gdp.size], alone.fit_gdp)

    def test_interpolation_matches_numpy_oracle(self, tiny_dataset):
        series = build_augmented_series("AAA", [], Variable.FERTILITY, "20-24",
                                        tiny_dataset)
        gdp_years, gdp_values = tiny_dataset.gdp_hist_series("AAA")
        rate_years, rate_values = tiny_dataset.rate_series(
            "AAA", Variable.FERTILITY, "20-24")
        years = np.arange(1950, 2016, dtype=float)
        assert np.allclose(series.fit_gdp, np.interp(years, gdp_years, gdp_values),
                           rtol=0, atol=0)
        assert np.allclose(series.fit_rate, np.interp(years, rate_years, rate_values),
                           rtol=0, atol=0)

    def test_observed_years_exact(self, tiny_dataset):
        """At observed years the pair reproduces the raw observation."""
        series = build_augmented_series("AAA", [], Variable.MORTALITY, "0-4",
                                        tiny_dataset, sex=Sex.FEMALE)
        gdp_years, gdp_values = tiny_dataset.gdp_hist_series("AAA")
        _, rate_values = tiny_dataset.rate_series("AAA", Variable.MORTALITY, "0-4",
                                                  Sex.FEMALE)
        for j, year in enumerate(gdp_years):
            i = int(year) - 1950
            assert series.fit_gdp[i] == gdp_values[j]
            assert series.fit_rate[i] == rate_values[j]

    def test_missing_target_series_raises(self, tiny_dataset):
        with pytest.raises(NoTargetData):
            build_augmented_series("ZZZ", [], Variable.FERTILITY, "20-24",
                                   tiny_dataset)

    def test_donor_without_series_skipped(self, tiny_dataset):
        with_ghost = build_augmented_series("AAA", ["ZZZ"], Variable.FERTILITY,
                                            "20-24", tiny_dataset)
        alone = build_augmented_series("AAA", [], Variable.FERTILITY, "20-24",
                                       tiny_dataset)
        assert with_ghost.fit_gdp.size == alone.fit_gdp.size

    def test_mutating_weight_sample_leaves_fit_sample(self, tiny_dataset):
        series = build_augmented_series("AAA", [], Variable.FERTILITY, "20-24",
                                        tiny_dataset)
        before = series.fit_gdp[0]
        series.weight_gdp[0] = -1.0
        assert series.fit_gdp[0] == before

    def test_deterministic(self, tiny_dataset):
        a = build_augmented_series("AAA", ["BBB"], Variable.FERTILITY, "20-24",
                                   tiny_dataset)
        b = build_augmented_series("AAA", ["BBB"], Variable.FERTILITY, "20-24",
                                   tiny_dataset)
        assert np.array_equal(a.fit_gdp, b.fit_gdp)
        assert np.array_equal(a.fit_rate, b.fit_rate)


class TestRateKeyHashing:
    def test_sex_and_variable_never_hash_in_python(self, monkeypatch):
        """Every rate lookup hashes a (iso3, variable, band, sex) key; its enum
        members hash in C, without a call to ``enum.Enum.__hash__``."""
        dataset = load_dataset(TINY)  # fresh, so every pair is built and memoized here
        hashed = []
        python_hash = enum.Enum.__hash__

        def counting_hash(member):
            if isinstance(member, (Sex, Variable)):
                hashed.append(member)
            return python_hash(member)

        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        assert hash(enum.Enum("Probe", "A").A) is not None  # the counting hash is installed
        countries = [c.iso3 for c in dataset.countries]
        for target in countries:
            donors = [c for c in countries if c != target]
            for band in FERTILE_BANDS:
                build_augmented_series(target, donors, Variable.FERTILITY, band, dataset)
            for band in AGE_BANDS:
                for sex in SEX_COLUMNS:
                    build_augmented_series(target, donors, Variable.MORTALITY, band, dataset,
                                           sex=sex)
        assert hashed == []
