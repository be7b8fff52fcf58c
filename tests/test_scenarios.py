import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend.cli import _pathways, _scenario_plan
from demotrend.core import END_YEAR
from demotrend.errors import NonPositiveGdp, NonPositiveResult, PathwayGap
from demotrend.scenarios import (
    CONVERGENCE_TARGET,
    MAX_SWEEP_SCENARIOS,
    GdpPathway,
    baseline_pathway,
    build_baselines,
    convergence_pathway,
    multiplier_pathway,
    scenario_label,
    sweep_count,
    sweep_multipliers,
)

import seed_oracle

DECADAL_YEARS = list(range(2015, 2096, 10)) + [2100]


def decadal_anchors(g2015=1000.0, ratio=2.0):
    return DECADAL_YEARS, [g2015 * ratio ** ((y - 2015) / 85.0) for y in DECADAL_YEARS]


def geometric_pathway(g0=1000.0, growth=1.02, years=86):
    values = g0 * growth ** np.arange(years)
    return GdpPathway(iso3="AAA", scenario_id="baseline", start_year=2015,
                      values=values)


class TestGdpPathwayType:
    def test_lookup_and_bounds(self):
        p = geometric_pathway()
        assert p.gdp(2015) == 1000.0
        assert p.values.size == 86  # 2015-2100
        assert p.max_gdp() == pytest.approx(1000.0 * 1.02 ** 85)
        with pytest.raises(PathwayGap):
            p.gdp(2014)
        with pytest.raises(PathwayGap):
            p.gdp(2101)

    def test_rejects_bad_values(self):
        with pytest.raises(NonPositiveResult):
            GdpPathway(iso3="AAA", scenario_id="s", start_year=2015,
                       values=np.array([100.0, 0.0]))
        with pytest.raises(NonPositiveResult):
            GdpPathway(iso3="AAA", scenario_id="s", start_year=2015,
                       values=np.array([100.0, math.nan]))
        with pytest.raises(ValueError):
            GdpPathway(iso3="AAA", scenario_id="s", start_year=2015,
                       values=np.array([]))


class TestBaselinePathway:
    def test_hits_anchors_exactly(self):
        years, values = decadal_anchors()
        p = baseline_pathway("AAA", years, values)
        for y, v in zip(years, values):
            assert p.gdp(y) == pytest.approx(v, rel=1e-15)

    def test_geometric_between_anchors(self):
        p = baseline_pathway("AAA", [2015, 2025, 2035, 2045, 2055, 2065, 2075,
                                     2085, 2095, 2100],
                             [1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0,
                              64000.0, 128000.0, 256000.0, 362038.0])
        # halfway through a doubling decade: factor sqrt(2)
        assert p.gdp(2020) == pytest.approx(1000.0 * math.sqrt(2.0), rel=1e-12)
        assert p.gdp(2031) == pytest.approx(2000.0 * 2.0 ** 0.6, rel=1e-12)
        # constant annual growth within each decade
        ratios = [p.gdp(y + 1) / p.gdp(y) for y in range(2015, 2025)]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    def test_annual_coverage(self):
        years, values = decadal_anchors()
        p = baseline_pathway("AAA", years, values)
        assert p.values.size == 86
        assert (p.values > 0.0).all()

    def test_unsorted_anchors_accepted(self):
        years, values = decadal_anchors()
        paired = list(zip(years, values))
        shuffled = paired[::-1]
        p = baseline_pathway("AAA", [y for y, _ in shuffled],
                             [v for _, v in shuffled])
        q = baseline_pathway("AAA", years, values)
        assert np.array_equal(p.values, q.values)

    def test_coverage_gaps_rejected(self):
        with pytest.raises(PathwayGap):
            baseline_pathway("AAA", [2020, 2030, 2100], [1.0, 2.0, 3.0])  # starts late
        with pytest.raises(PathwayGap):
            baseline_pathway("AAA", [2015, 2025, 2095], [1.0, 2.0, 3.0])  # ends early
        with pytest.raises(PathwayGap):
            baseline_pathway("AAA", [2015, 2026, 2036, 2046, 2056, 2066, 2076,
                                     2086, 2096, 2100],
                             [1.0] * 10)  # 11-year gap
        with pytest.raises(PathwayGap):
            baseline_pathway("AAA", [], [])

    def test_decadal_gap_is_allowed(self):
        p = baseline_pathway("AAA", *decadal_anchors())
        assert p.gdp(2100) > p.gdp(2015)

    def test_nonpositive_anchor_rejected(self):
        with pytest.raises(NonPositiveGdp):
            baseline_pathway("AAA", [2015, 2025], [1000.0, -1.0], end=2025)


class TestMultiplierPathway:
    def test_zero_freezes_gdp_exactly(self):
        base = geometric_pathway()
        frozen = multiplier_pathway(base, 0.0)
        assert (frozen.values == base.values[0]).all()  # bitwise constant
        assert frozen.scenario_id == "m0.0"

    def test_one_reproduces_baseline(self):
        base = geometric_pathway(g0=937.5, growth=1.0173)
        same = multiplier_pathway(base, 1.0)
        assert np.allclose(same.values, base.values, rtol=1e-12, atol=0.0)
        assert same.scenario_id == "m1.0"

    def test_one_reproduces_fixture_baselines(self, tiny_dataset):
        for iso3, base in build_baselines(tiny_dataset).items():
            same = multiplier_pathway(base, 1.0)
            assert np.allclose(same.values, base.values, rtol=1e-12, atol=0.0), iso3

    def test_one_keeps_a_baseline_whose_growth_rounds_to_zero(self):
        """CCC's 2025 anchor of the tiny fixture at 1.78e-233: every year to
        2025 shrinks GDP by a ratio near 1e-24, for which 1 + m * (ratio - 1)
        rounds to 0 at m = 1. m1.0 still follows the baseline; m1.1 crashes."""
        years = [2015, 2025, 2035, 2045, 2055, 2065, 2075, 2085, 2095, 2100]
        values = [35000.0, 1.78e-233, 39732.55, 42333.64, 45105.02, 48057.82, 51203.92,
                  54555.99, 58127.5, 60000.0]
        base = baseline_pathway("CCC", years, values)
        assert (base.values[1:11] / base.values[:10] < 2.0 ** -54).all()
        same = multiplier_pathway(base, 1.0)
        assert np.allclose(same.values, base.values, rtol=1e-12, atol=0.0)
        with pytest.raises(NonPositiveResult,
                           match="^CCC: multiplier 1.1 drives GDP non-positive in year 2016$"):
            multiplier_pathway(base, 1.1)

    def test_constant_growth_oracle(self):
        r = 0.02
        base = geometric_pathway(growth=1.0 + r)
        for m in (0.5, 2.0):
            scaled = multiplier_pathway(base, m)
            expected = 1000.0 * (1.0 + m * r) ** np.arange(86)
            assert np.allclose(scaled.values, expected, rtol=1e-9)

    def test_first_year_always_kept(self):
        base = geometric_pathway(g0=1234.5)
        for m in (0.0, 0.7, 2.0):
            assert multiplier_pathway(base, m).values[0] == 1234.5

    def test_amplifies_decline_too(self):
        base = GdpPathway(iso3="AAA", scenario_id="baseline", start_year=2015,
                          values=np.array([100.0, 90.0, 81.0]))
        doubled = multiplier_pathway(base, 2.0)
        assert doubled.values[1] == pytest.approx(100.0 * 0.8)
        assert doubled.values[2] == pytest.approx(100.0 * 0.8 * 0.8)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            multiplier_pathway(geometric_pathway(), -0.1)

    def test_crash_to_nonpositive_rejected(self):
        base = GdpPathway(iso3="AAA", scenario_id="baseline", start_year=2015,
                          values=np.array([100.0, 10.0]))
        with pytest.raises(NonPositiveResult):
            multiplier_pathway(base, 2.0)  # growth factor 1 + 2(-0.9) < 0


@st.composite
def random_baselines(draw):
    """Baselines through random anchors 1-10 years apart, GDP over 50-200,000,
    whose steep falls drive the growth of many multipliers to or below 0."""
    end = draw(st.integers(2016, 2100))
    step = draw(st.integers(1, 10))
    years = [*range(2015, end, step), end]
    values = [math.exp(draw(st.floats(math.log(50.0), math.log(2e5)))) for _ in years]
    return baseline_pathway("AAA", years, values, end=end)


class TestMultiplierMatchesLoop:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(base=random_baselines(),
           m=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 50.0)))
    def test_same_bits_and_errors(self, base, m):
        try:
            expected = seed_oracle.multiplier_pathway(base, m)
        except NonPositiveResult as exc:
            with pytest.raises(NonPositiveResult) as caught:
                multiplier_pathway(base, m)
            assert str(caught.value) == str(exc)
            return
        got = multiplier_pathway(base, m)
        assert got.scenario_id == expected.scenario_id
        assert got.values.shape == expected.values.shape
        assert (got.values == expected.values).all()

    def test_exact_zero_growth_is_rejected_at_its_year(self):
        base = GdpPathway(iso3="AAA", scenario_id="baseline", start_year=2015,
                          values=np.array([100.0, 110.0, 55.0, 60.0]))
        with pytest.raises(NonPositiveResult, match="non-positive in year 2017"):
            multiplier_pathway(base, 2.0)  # growth 1 + 2(-0.5) == 0

    def test_overflow_is_an_error_not_a_warning(self, recwarn):
        base = geometric_pathway(growth=1.5)
        with pytest.raises(NonPositiveResult, match="positive and finite"):
            multiplier_pathway(base, 1e6)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestConvergencePathway:
    def test_reaches_target_in_2100_exactly(self):
        p = convergence_pathway("AAA", 1400.0)
        assert p.gdp(2100) == pytest.approx(CONVERGENCE_TARGET, abs=1e-6)
        assert p.gdp(2015) == 1400.0

    def test_steady_growth_rate(self):
        p = convergence_pathway("AAA", 1400.0)
        ratios = p.values[1:] / p.values[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        expected = (CONVERGENCE_TARGET / 1400.0) ** (1.0 / 85.0)
        assert ratios[0] == pytest.approx(expected, rel=1e-12)

    def test_rich_country_stays_flat(self):
        for gdp in (CONVERGENCE_TARGET, 35000.0, 1e6):
            p = convergence_pathway("CCC", gdp)
            assert (p.values == gdp).all()

    def test_midpoint_value(self):
        g0 = 7500.0
        p = convergence_pathway("AAA", g0)
        ratio = CONVERGENCE_TARGET / g0
        assert p.gdp(2057) == pytest.approx(g0 * ratio ** (42.0 / 85.0), rel=1e-12)

    def test_short_horizon_keeps_2100_anchor(self):
        """Truncating the horizon must not steepen the convergence path."""
        short = convergence_pathway("AAA", 1400.0, end=2050)
        full = convergence_pathway("AAA", 1400.0)
        assert short.values.size == 36  # 2015-2050
        assert np.allclose(short.values, full.values[:short.values.size],
                           rtol=1e-15)

    def test_custom_target(self):
        p = convergence_pathway("AAA", 1000.0, target=2000.0)
        assert p.gdp(2100) == pytest.approx(2000.0, abs=1e-9)

    def test_bad_gdp_rejected(self):
        with pytest.raises(NonPositiveGdp):
            convergence_pathway("AAA", 0.0)
        with pytest.raises(NonPositiveGdp):
            convergence_pathway("AAA", math.nan)


class TestScenarioLabel:
    @pytest.mark.parametrize("m,label", [
        (0.0, "m0.0"), (0.1, "m0.1"), (1.0, "m1.0"), (2.0, "m2.0"),
        (0.5, "m0.5"), (1.9, "m1.9"), (-0.0, "m0.0"),
    ])
    def test_grid_labels(self, m, label):
        assert scenario_label(m) == label

    def test_off_grid_labels(self):
        assert scenario_label(0.25) == "m0.25"
        assert scenario_label(1.234) == "m1.234"


def sweep(dataset, token):
    """The (scenario id, pathways by iso3) of each scenario that ``--scenario
    token`` runs, built as the CLI builds them."""
    baselines = build_baselines(dataset)
    return [(sid, _pathways(baselines, sid, m, END_YEAR)) for sid, m in _scenario_plan(token)]


class TestSweep:
    def test_default_grid_has_21_scenarios(self, tiny_dataset):
        scenarios = sweep(tiny_dataset, "sweep")
        assert len(scenarios) == 21
        labels = [label for label, _ in scenarios]
        assert labels[0] == "m0.0"
        assert labels[10] == "m1.0"
        assert labels[-1] == "m2.0"
        assert len(set(labels)) == 21  # no float-accumulation duplicates

    def test_every_country_in_every_scenario(self, tiny_dataset):
        for label, pathways in sweep(tiny_dataset, "sweep:0:0.2:0.1"):
            assert sorted(pathways) == ["AAA", "BBB", "CCC"]
            for iso3, p in pathways.items():
                assert p.scenario_id == label
                assert p.iso3 == iso3

    def test_coarse_grid(self, tiny_dataset):
        labels = [label for label, _ in sweep(tiny_dataset, "sweep:0:2:1")]
        assert labels == ["m0.0", "m1.0", "m2.0"]

    def test_m1_matches_baseline(self, tiny_dataset):
        baselines = build_baselines(tiny_dataset)
        scenarios = dict(sweep(tiny_dataset, "sweep:1:1:0.1"))
        for iso3, base in baselines.items():
            assert np.allclose(scenarios["m1.0"][iso3].values, base.values,
                               rtol=1e-12, atol=0.0)

    def test_count_capped(self):
        assert sweep_count(0.0, 2.0, 0.1) == 21
        assert sweep_count(2.0, 1.0, 0.1) == 0
        assert sweep_count(0.0, 1e308, 1e-300) == MAX_SWEEP_SCENARIOS + 1
        assert sweep_count(0.0, 999.0, 1.0) == MAX_SWEEP_SCENARIOS
        with pytest.raises(ValueError):
            sweep_multipliers(0.0, 1000.0, 1.0)

    def test_empty_and_invalid(self):
        assert sweep_multipliers(2.0, 1.0, 0.1) == []
        with pytest.raises(ValueError):
            sweep_multipliers(0.0, 2.0, 0.0)

    def test_monotone_in_multiplier_at_2100(self, tiny_dataset):
        """For growing baselines, higher m means higher terminal GDP."""
        scenarios = sweep(tiny_dataset, "sweep:0:2:0.5")
        for iso3 in ("AAA", "BBB", "CCC"):
            terminal = [pathways[iso3].gdp(2100) for _, pathways in scenarios]
            assert all(a < b for a, b in zip(terminal, terminal[1:]))


class TestBuildBaselines:
    def test_ordered_by_iso3(self, tiny_dataset):
        baselines = build_baselines(tiny_dataset)
        assert list(baselines) == ["AAA", "BBB", "CCC"]

    def test_fixture_endpoints(self, tiny_dataset):
        baselines = build_baselines(tiny_dataset)
        assert baselines["AAA"].gdp(2015) == pytest.approx(1400.0)
        assert baselines["AAA"].gdp(2100) == pytest.approx(6000.0, rel=1e-4)
        assert baselines["CCC"].gdp(2100) == pytest.approx(60000.0, rel=1e-4)
