import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend.core import AGE_BANDS, FEMALE_COL, FERTILE_BANDS, FERTILE_SLICE, MALE_COL, Sex
from demotrend.demography import (
    PopulationState,
    VitalRates,
    project_country,
    forecast_rates,
    project_totals,
    step_year,
    total_population,
)
from demotrend.errors import InvalidRate, NegativeState, NonFiniteResult, PathwayGap
from demotrend.rate_forecast import (
    CapPolicy,
    CountryEnsembles,
    EnsembleTable,
    build_country_ensembles,
    build_ensembles,
)
from demotrend.report import WORLD, aggregate, scopes_for
from demotrend.scenarios import (
    GdpPathway,
    baseline_pathway,
    convergence_pathway,
    multiplier_pathway,
)

from conftest import scalar_forecast

N = len(AGE_BANDS)


def flat_state(female=100.0, male=100.0, iso3="AAA", year=2015):
    counts = np.zeros((N, 2))
    counts[:, FEMALE_COL] = female
    counts[:, MALE_COL] = male
    return PopulationState(iso3=iso3, year=year, counts=counts)


def zero_rates(asfr=None, mortality=None):
    return VitalRates(
        asfr=np.zeros(6) if asfr is None else np.asarray(asfr, float),
        mortality=np.zeros((N, 2)) if mortality is None else np.asarray(mortality, float),
    )


class TestStepYearArithmetic:
    def test_pure_aging_moves_one_fifth(self):
        state = flat_state(female=100.0, male=0.0)
        nxt = step_year(state, zero_rates(), srb=1.05)
        female = nxt.counts[:, FEMALE_COL]
        # interior bands: keep 4/5 of own, gain 1/5 of the band below
        assert female[0] == pytest.approx(80.0)
        for i in range(1, N - 1):
            assert female[i] == pytest.approx(100.0)
        # the open-ended band only receives
        assert female[-1] == pytest.approx(120.0)
        assert nxt.year == state.year + 1

    def test_mortality_before_aging(self):
        """The graduating fifth is a fifth of survivors, not of the initial stock."""
        counts = np.zeros((N, 2))
        counts[0, FEMALE_COL] = 1000.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        q = np.zeros((N, 2))
        q[0, FEMALE_COL] = 0.5
        nxt = step_year(state, zero_rates(mortality=q))
        survivors = 1000.0 * 0.5
        assert nxt.counts[0, FEMALE_COL] == pytest.approx(survivors * 0.8)
        assert nxt.counts[1, FEMALE_COL] == pytest.approx(survivors * 0.2)

    def test_births_from_post_death_pre_aging_cohorts(self):
        counts = np.zeros((N, 2))
        fertile_start = FERTILE_SLICE.start
        counts[fertile_start, FEMALE_COL] = 1000.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        q = np.full((N, 2), 0.1)
        asfr = np.zeros(6)
        asfr[0] = 0.2
        nxt = step_year(state, zero_rates(asfr=asfr, mortality=q), srb=1.05)
        births = 0.2 * (1000.0 * 0.9)  # post-death, pre-aging stock
        expected_f = births / 2.05
        expected_m = births * 1.05 / 2.05
        assert nxt.counts[0, FEMALE_COL] == pytest.approx(expected_f)
        assert nxt.counts[0, MALE_COL] == pytest.approx(expected_m)

    def test_newborn_sex_split(self):
        counts = np.zeros((N, 2))
        counts[FERTILE_SLICE.start, FEMALE_COL] = 205.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        asfr = np.zeros(6)
        asfr[0] = 1.0
        nxt = step_year(state, zero_rates(asfr=asfr), srb=1.05)
        newborn_f = nxt.counts[0, FEMALE_COL] - 205.0 * 0.8  # minus aged survivors? no
        # fertile_start is band 3, so band 0 receives only newborns
        assert nxt.counts[0, FEMALE_COL] == pytest.approx(205.0 / 2.05)
        assert nxt.counts[0, MALE_COL] == pytest.approx(205.0 * 1.05 / 2.05)
        assert nxt.counts[0, MALE_COL] / nxt.counts[0, FEMALE_COL] == pytest.approx(1.05)

    def test_custom_srb(self):
        counts = np.zeros((N, 2))
        counts[FERTILE_SLICE.start, FEMALE_COL] = 100.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        asfr = np.zeros(6)
        asfr[0] = 1.0
        nxt = step_year(state, zero_rates(asfr=asfr), srb=1.0)
        assert nxt.counts[0, FEMALE_COL] == pytest.approx(nxt.counts[0, MALE_COL])

    def test_males_do_not_bear_children(self):
        band = FERTILE_SLICE.start
        counts = np.zeros((N, 2))
        counts[band, MALE_COL] = 1000.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        asfr = np.full(6, 0.5)
        nxt = step_year(state, zero_rates(asfr=asfr))
        assert nxt.counts[0].tolist() == [0.0, 0.0]  # no newborns at all
        assert nxt.counts[band, MALE_COL] == pytest.approx(800.0)  # aging only
        assert nxt.counts[band + 1, MALE_COL] == pytest.approx(200.0)

    def test_certain_death_empties_everything(self):
        state = flat_state()
        q = np.ones((N, 2))
        nxt = step_year(state, zero_rates(mortality=q))
        assert total_population(nxt) == 0.0


class TestStepYearInvariants:
    def test_conservation_without_vital_events(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            counts = rng.uniform(0.0, 1e6, size=(N, 2))
            state = PopulationState(iso3="AAA", year=2015, counts=counts)
            nxt = step_year(state, zero_rates())
            assert total_population(nxt) == pytest.approx(
                total_population(state), rel=1e-12)

    def test_population_identity_with_vital_events(self):
        """next_total = survivors + births, exactly."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            counts = rng.uniform(0.0, 1e6, size=(N, 2))
            q = rng.uniform(0.0, 1.0, size=(N, 2))
            asfr = rng.uniform(0.0, 0.4, size=6)
            state = PopulationState(iso3="AAA", year=2015, counts=counts)
            survivors = counts * (1.0 - q)
            births = float(asfr @ survivors[FERTILE_SLICE, FEMALE_COL])
            nxt = step_year(state, zero_rates(asfr=asfr, mortality=q))
            assert total_population(nxt) == pytest.approx(
                survivors.sum() + births, rel=1e-9)

    def test_monotone_in_mortality(self):
        """Uniformly higher mortality never increases any cohort."""
        rng = np.random.default_rng(13)
        for _ in range(1000):
            counts = rng.uniform(0.0, 1e6, size=(N, 2))
            q_low = rng.uniform(0.0, 0.5, size=(N, 2))
            q_high = np.minimum(q_low + rng.uniform(0.0, 0.5, size=(N, 2)), 1.0)
            asfr = rng.uniform(0.0, 0.4, size=6)
            state = PopulationState(iso3="AAA", year=2015, counts=counts)
            low = step_year(state, zero_rates(asfr=asfr, mortality=q_low))
            high = step_year(state, zero_rates(asfr=asfr, mortality=q_high))
            assert (high.counts <= low.counts + 1e-9).all()

    def test_monotone_in_fertility(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            counts = rng.uniform(0.0, 1e6, size=(N, 2))
            q = rng.uniform(0.0, 1.0, size=(N, 2))
            asfr_low = rng.uniform(0.0, 0.3, size=6)
            asfr_high = asfr_low + rng.uniform(0.0, 0.3, size=6)
            state = PopulationState(iso3="AAA", year=2015, counts=counts)
            low = step_year(state, zero_rates(asfr=asfr_low, mortality=q))
            high = step_year(state, zero_rates(asfr=asfr_high, mortality=q))
            assert total_population(high) >= total_population(low) - 1e-9

    def test_no_negative_cohorts_ever(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            counts = rng.uniform(0.0, 1e6, size=(N, 2))
            q = rng.uniform(0.0, 1.0, size=(N, 2))
            asfr = rng.uniform(0.0, 0.5, size=6)
            state = PopulationState(iso3="AAA", year=2015, counts=counts)
            nxt = step_year(state, zero_rates(asfr=asfr, mortality=q))
            assert (nxt.counts >= 0.0).all()

    def test_input_state_not_mutated(self):
        counts = np.full((N, 2), 50.0)
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        before = state.counts.copy()
        step_year(state, zero_rates(asfr=np.full(6, 0.2),
                                    mortality=np.full((N, 2), 0.1)))
        assert np.array_equal(state.counts, before)


class TestStepYearValidation:
    def test_mortality_above_one_rejected(self):
        q = np.zeros((N, 2))
        q[3, 0] = 1.0001
        with pytest.raises(InvalidRate):
            step_year(flat_state(), zero_rates(mortality=q))

    def test_negative_mortality_rejected(self):
        q = np.zeros((N, 2))
        q[0, 1] = -0.01
        with pytest.raises(InvalidRate):
            step_year(flat_state(), zero_rates(mortality=q))

    def test_negative_fertility_rejected(self):
        asfr = np.zeros(6)
        asfr[2] = -0.1
        with pytest.raises(InvalidRate):
            step_year(flat_state(), zero_rates(asfr=asfr))

    def test_wrong_shapes_rejected(self):
        with pytest.raises(InvalidRate):
            step_year(flat_state(), VitalRates(asfr=np.zeros(5),
                                               mortality=np.zeros((N, 2))))
        with pytest.raises(InvalidRate):
            step_year(flat_state(), VitalRates(asfr=np.zeros(6),
                                               mortality=np.zeros((N - 1, 2))))

    def test_negative_state_rejected(self):
        counts = np.zeros((N, 2))
        counts[5, 0] = -1.0
        state = PopulationState(iso3="AAA", year=2015, counts=counts)
        with pytest.raises(NegativeState):
            step_year(state, zero_rates())

    def test_bad_state_shape_rejected(self):
        with pytest.raises(ValueError):
            PopulationState(iso3="AAA", year=2015, counts=np.zeros((N, 3)))


@pytest.fixture(scope="module")
def built(tiny_dataset):
    return build_country_ensembles(tiny_dataset, "AAA", [])


@pytest.fixture(scope="module")
def projection_setup(tiny_dataset):
    built = build_country_ensembles(tiny_dataset, "AAA", ["BBB"])
    years, values = tiny_dataset.gdp_baseline_series("AAA")
    pathway = baseline_pathway("AAA", years.astype(int).tolist(), values.tolist())
    base = PopulationState(iso3="AAA", year=2015,
                           counts=tiny_dataset.base_population("AAA").counts)
    return built, pathway, base


def vital_rates_at(ensembles, gdp, cap):
    """One year's rates: the pathway forecast at a single GDP value."""
    asfr, mortality = forecast_rates(ensembles, np.array([gdp]), cap)
    return VitalRates(asfr=asfr[0], mortality=mortality[0])


class TestVitalRatesAt:

    def test_shapes_and_bounds(self, built):
        rates = vital_rates_at(built, 1400.0, CapPolicy())
        assert rates.asfr.shape == (6,)
        assert rates.mortality.shape == (N, 2)
        assert (rates.asfr >= 0.0).all()
        assert (rates.mortality >= 0.0).all()
        assert (rates.mortality <= 1.0).all()

    def test_mortality_truncated_at_one(self, tiny_dataset):
        """Extrapolating far below observed GDP must still yield q <= 1."""
        built = build_country_ensembles(tiny_dataset, "AAA", [])
        rates = vital_rates_at(built, 1e-6 + 1.0, CapPolicy())
        assert (rates.mortality <= 1.0).all()

    def test_sexes_share_both_sex_ensembles(self, built):
        rates = vital_rates_at(built, 2000.0, CapPolicy())
        assert np.array_equal(rates.mortality[:, FEMALE_COL],
                              rates.mortality[:, MALE_COL])


class TestProjectCountry:
    def test_trajectory_spans_horizon(self, projection_setup):
        built, pathway, base = projection_setup
        trajectory = project_country(base, built, pathway, CapPolicy(),
                                     horizon=2100)
        assert len(trajectory) == 86
        assert trajectory[0][0] == 2015
        assert trajectory[-1][0] == 2100
        assert trajectory[0][1] is base
        years = [y for y, _ in trajectory]
        assert years == list(range(2015, 2101))

    def test_states_positive_throughout(self, projection_setup):
        built, pathway, base = projection_setup
        trajectory = project_country(base, built, pathway, CapPolicy())
        for _, state in trajectory:
            assert (state.counts >= 0.0).all()
            assert np.isfinite(state.counts).all()

    def test_short_horizon(self, projection_setup):
        built, pathway, base = projection_setup
        trajectory = project_country(base, built, pathway, CapPolicy(),
                                     horizon=2020)
        assert [y for y, _ in trajectory] == [2015, 2016, 2017, 2018, 2019, 2020]

    def test_base_year_mismatch_rejected(self, projection_setup):
        built, pathway, base = projection_setup
        wrong = PopulationState(iso3="AAA", year=2014, counts=base.counts)
        with pytest.raises(ValueError):
            project_country(wrong, built, pathway, CapPolicy())

    def test_horizon_before_base_rejected(self, projection_setup):
        built, pathway, base = projection_setup
        with pytest.raises(ValueError):
            project_country(base, built, pathway, CapPolicy(), horizon=2014)

    def test_deterministic(self, projection_setup):
        built, pathway, base = projection_setup
        a = project_country(base, built, pathway, CapPolicy())
        b = project_country(base, built, pathway, CapPolicy())
        for (ya, sa), (yb, sb) in zip(a, b):
            assert ya == yb
            assert np.array_equal(sa.counts, sb.counts)

    def test_first_step_matches_manual_composition(self, projection_setup):
        """project_country's first transition equals vital_rates_at + step_year."""
        built, pathway, base = projection_setup
        trajectory = project_country(base, built, pathway, CapPolicy(),
                                     horizon=2016)
        rates = vital_rates_at(built, pathway.gdp(2015), CapPolicy())
        manual = step_year(base, rates, srb=1.05)
        assert np.array_equal(trajectory[1][1].counts, manual.counts)

    def test_pathway_shorter_than_horizon_rejected(self, projection_setup):
        built, _, base = projection_setup
        short = GdpPathway(iso3="AAA", scenario_id="short", start_year=2015,
                           values=np.full(10, 1000.0))
        assert len(project_country(base, built, short, CapPolicy(), horizon=2025)) == 11
        with pytest.raises(PathwayGap):
            project_country(base, built, short, CapPolicy(), horizon=2026)

    @pytest.mark.parametrize("sexes", ["shared", "distinct"])
    def test_full_horizon_matches_scalar_composition(self, projection_setup,
                                                     tiny_dataset, sexes):
        """Every state equals step_year composed with rates forecast one year at a time."""
        built, _, base = projection_setup
        if sexes == "distinct":  # Male mortality from BBB's ensembles
            other = build_country_ensembles(tiny_dataset, "BBB", [])
            built = CountryEnsembles(
                EnsembleTable.concat([built.table, other.table]), built.fertility_rows,
                np.column_stack([built.mortality_rows[:, FEMALE_COL],
                                 other.mortality_rows[:, MALE_COL] + len(built.table.n_fit)]))
        # 300 to 60,000: crosses the 30,000 fertility cap
        pathway = GdpPathway(iso3="AAA", scenario_id="test", start_year=2015,
                             values=np.geomspace(300.0, 60000.0, 86))
        cap = CapPolicy()
        trajectory = project_country(base, built, pathway, cap)
        assert [y for y, _ in trajectory] == list(range(2015, 2101))
        state = base
        for gdp, (year, got) in zip(pathway.values, trajectory[1:]):
            asfr = [scalar_forecast(built.fertility[band], [gdp], True,
                                    cap.fertility_cap_gdp)[0]
                    for band in FERTILE_BANDS]
            q = [[min(scalar_forecast(built.mortality[(band, sex)], [gdp], False,
                                      cap.fertility_cap_gdp)[0], 1.0)
                  for sex in (Sex.FEMALE, Sex.MALE)]
                 for band in AGE_BANDS]
            state = step_year(state, VitalRates(asfr=np.array(asfr), mortality=np.array(q)))
            assert year == state.year
            assert np.array_equal(got.counts, state.counts), year


def random_ensembles(rng, n_fit, n_weight, sexed):
    """Ensembles fitted to random rates (fertility in [0, 0.4], mortality in
    [0, 1]) at random GDP values spanning 100 to 100,000."""
    fit_x = np.exp(rng.uniform(np.log(100.0), np.log(1e5), n_fit))
    weight_x = fit_x[:n_weight]

    def build(variable_max, count):
        fit_rates = rng.uniform(0.0, variable_max, (count, n_fit))
        return build_ensembles(fit_x, fit_rates, weight_x, fit_rates[:, :n_weight])

    fertility = build(0.4, len(FERTILE_BANDS))
    if sexed:  # rows (band, Female), (band, Male) for each band
        rows = np.arange(2 * len(AGE_BANDS)).reshape(len(AGE_BANDS), 2)
    else:  # one row per band, shared by both sexes
        rows = np.repeat(np.arange(len(AGE_BANDS))[:, None], 2, axis=1)
    mortality = build(1.0, rows.max() + 1)
    return CountryEnsembles(EnsembleTable.concat([fertility, mortality]),
                            np.arange(len(FERTILE_BANDS)), rows + len(FERTILE_BANDS))


class TestProjectionProperties:
    """Random ensembles and scenario pathways on the tiny fixture's countries."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_counts_finite_non_negative_and_aggregates_partition(self, tiny_dataset, data):
        m = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 5.0]), label="m")
        totals = {}
        for c in tiny_dataset.countries:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            n_fit = data.draw(st.integers(2, 40), label="n_fit")
            n_weight = data.draw(st.integers(1, n_fit), label="n_weight")
            sexed = data.draw(st.booleans(), label="sexed")
            ensembles = random_ensembles(rng, n_fit, n_weight, sexed)
            years, values = tiny_dataset.gdp_baseline_series(c.iso3)
            pathway = baseline_pathway(c.iso3, years.astype(int).tolist(), values.tolist())
            if m is None:
                pathway = convergence_pathway(c.iso3, pathway.values[0])
            else:
                pathway = multiplier_pathway(pathway, m)
            base = tiny_dataset.base_population(c.iso3)
            trajectory = project_country(
                PopulationState(iso3=c.iso3, year=2015, counts=base.counts),
                ensembles, pathway, CapPolicy())
            counts = np.array([state.counts for _, state in trajectory])
            assert np.isfinite(counts).all(), (m, c.iso3, counts.max())
            assert (counts >= 0.0).all()
            totals[c.iso3] = np.array([total_population(s) for _, s in trajectory])

        def series(scope):
            return aggregate(totals, scope, tiny_dataset.country_map, "test", 2015).values

        world = series(WORLD)
        assert np.array_equal(sum(series(s) for s in scopes_for(["country"], tiny_dataset)),
                              world)
        for kind in ("income", "region"):
            parts = sum(series(s) for s in scopes_for([kind], tiny_dataset))
            np.testing.assert_allclose(parts, world, rtol=1e-12)


def oracle_step(state, rates, srb):
    """``step_year`` as it was before the batched projector, one state at a
    time: the oracle for ``step_year`` and ``project_totals``."""
    counts = state.counts
    q = np.asarray(rates.mortality, dtype=float)
    asfr = np.asarray(rates.asfr, dtype=float)
    if q.shape != (N, 2) or asfr.shape != (FERTILE_SLICE.stop - FERTILE_SLICE.start,):
        raise InvalidRate("rate arrays have wrong shape")
    if (q < 0.0).any() or (q > 1.0).any():
        raise InvalidRate("mortality probabilities must lie in [0, 1]")
    if (asfr < 0.0).any():
        raise InvalidRate("fertility rates must be non-negative")
    if (counts < 0.0).any():
        raise NegativeState(f"{state.iso3} {state.year}: negative cohort count")

    survivors = counts * (1.0 - q)
    graduating = survivors / 5.0
    aged = survivors - graduating
    aged[1:] += graduating[:-1]
    aged[-1] += graduating[-1]  # 100+ has no outflow

    births = float(asfr @ survivors[FERTILE_SLICE, FEMALE_COL])
    aged[0, FEMALE_COL] += births / (1.0 + srb)
    aged[0, MALE_COL] += births * srb / (1.0 + srb)

    return PopulationState(iso3=state.iso3, year=state.year + 1, counts=aged)


def outcome(run):
    """``run()``'s result, or the class and message of what it raised."""
    try:
        return run()
    except (InvalidRate, NegativeState) as exc:
        return type(exc), str(exc)


class TestProjectTotals:
    """The batched projector against S one-scenario runs of the oracle step."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_per_step_oracle(self, data):
        s_count = data.draw(st.integers(1, 6), label="S")
        steps = data.draw(st.integers(0, 85), label="T")
        srb = data.draw(st.floats(0.5, 2.0), label="srb")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        counts = 10.0 ** rng.uniform(-3.0, 8.0, (N, 2))
        counts[rng.random((N, 2)) < 0.1] = 0.0
        asfr = rng.uniform(0.0, 0.4, (s_count, steps, 6))
        asfr[rng.random(asfr.shape) < 0.05] = 0.0
        q = rng.uniform(0.0, 1.0, (s_count, steps, N, 2)) ** 4
        q[rng.random(q.shape) < 0.01] = 1.0
        # Faults at random steps, often the first steps, so that q and asfr
        # faults, and faults of several scenarios, meet on one step.
        for _ in range(data.draw(st.integers(0, 4), label="faults")):
            kind = data.draw(st.sampled_from(["q<0", "q>1", "asfr<0", "base<0"]), label="kind")
            if kind == "base<0":
                counts[rng.integers(N), rng.integers(2)] = -data.draw(
                    st.sampled_from([1e-300, 1.0, 1e6]), label="count")
            elif steps:
                at = (data.draw(st.integers(0, s_count - 1), label="s"),
                      data.draw(st.integers(0, steps - 1) | st.integers(0, min(steps, 2) - 1),
                                label="t"))
                if kind == "asfr<0":
                    asfr[at + (rng.integers(6),)] = -1e-12
                else:
                    q[at + (rng.integers(N), rng.integers(2))] = (
                        -1e-12 if kind == "q<0" else 1.0 + 1e-12)
        base = PopulationState(iso3="AAA", year=2015, counts=counts)

        def oracle(step):
            totals = np.empty((s_count, steps + 1))
            for s in range(s_count):
                state = base
                totals[s, 0] = state.counts.sum()
                for t in range(steps):
                    rates = VitalRates(asfr=asfr[s, t], mortality=q[s, t])
                    got = step(state, rates, srb)
                    if step is step_year:  # every state, cell for cell
                        want = oracle_step(state, rates, srb)
                        assert got.year == want.year
                        assert (got.counts == want.counts).all(), (s, t)
                    state = got
                    totals[s, t + 1] = state.counts.sum()
            return totals

        want = outcome(lambda: oracle(oracle_step))
        got = outcome(lambda: project_totals(base, asfr, q, srb))
        if isinstance(want, tuple):
            assert got == want
            assert outcome(lambda: oracle(step_year)) == want
        else:
            assert got.shape == want.shape
            assert (got == want).all()
            assert (oracle(step_year) == want).all()

    MORTALITY = (InvalidRate, "mortality probabilities must lie in [0, 1]")
    FERTILITY = (InvalidRate, "fertility rates must be non-negative")
    NEGATIVE = (NegativeState, "AAA 2015: negative cohort count")

    @pytest.mark.parametrize("faults,expected", [
        ([("q", 1, 0), ("asfr", 0, 2)], FERTILITY),  # scenario order, not step order
        ([("asfr", 1, 0), ("q", 0, 2)], MORTALITY),
        ([("asfr", 0, 1), ("q", 0, 1)], MORTALITY),  # q before asfr on one step
        ([("base", 0, 0), ("asfr", 0, 0)], FERTILITY),  # the state after the rates
        ([("base", 0, 0), ("q", 0, 1)], NEGATIVE),
        ([("base", 0, 0), ("q", 1, 0)], NEGATIVE),
    ])
    def test_first_failing_check_wins(self, faults, expected):
        asfr, q = np.full((2, 3, 6), 0.1), np.full((2, 3, N, 2), 0.01)
        counts = np.full((N, 2), 100.0)
        for kind, s, t in faults:
            if kind == "base":
                counts[4, 1] = -1.0
            elif kind == "asfr":
                asfr[s, t, 2] = -0.1
            else:
                q[s, t, 7, 0] = 1.5
        base = PopulationState(iso3="AAA", year=2015, counts=counts)
        assert outcome(lambda: project_totals(base, asfr, q)) == expected

        def oracle():
            for s in range(2):
                state = base
                for t in range(3):
                    state = oracle_step(state, VitalRates(asfr[s, t], q[s, t]), 1.05)

        assert outcome(oracle) == expected

    def test_no_steps_checks_nothing(self):
        counts = np.full((N, 2), 100.0)
        counts[0, 0] = -1.0
        totals = project_totals(PopulationState(iso3="AAA", year=2015, counts=counts),
                                np.full((2, 0, 6), -1.0), np.full((2, 0, N, 2), 2.0))
        assert (totals == counts.sum()).all() and totals.shape == (2, 1)

    def test_keeps_inputs_unchanged(self):
        rng = np.random.default_rng(3)
        base = PopulationState(iso3="AAA", year=2015, counts=rng.uniform(0, 1e6, (N, 2)))
        asfr, q = rng.uniform(0.0, 0.4, (3, 5, 6)), rng.uniform(0.0, 0.2, (3, 5, N, 2))
        before = [base.counts.copy(), asfr.copy(), q.copy()]
        project_totals(base, asfr, q)
        assert all((a == b).all() for a, b in zip(before, [base.counts, asfr, q]))

    def test_wrong_shapes_rejected(self):
        base = flat_state()
        for asfr, q in [(np.zeros((2, 3, 5)), np.zeros((2, 3, N, 2))),
                        (np.zeros((2, 3, 6)), np.zeros((2, 3, N - 1, 2))),
                        (np.zeros((2, 3, 6)), np.zeros((2, 4, N, 2))),
                        (np.zeros((3, 6)), np.zeros((3, N, 2)))]:
            with pytest.raises(InvalidRate, match="wrong shape"):
                project_totals(base, asfr, q)


class TestNonFiniteProjection:
    """Every projection entry point raises ``NonFiniteResult`` at the first
    total that is not finite, and numpy warns about nothing."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_step_year_overflow(self):
        rates = zero_rates(asfr=np.full(6, 0.1))
        with pytest.raises(NonFiniteResult,
                           match="^AAA: projected population is not finite in 2016$"):
            step_year(flat_state(1000.0, 1000.0), rates, srb=1e308)

    def test_step_year_nan_state(self):
        state = flat_state()
        state.counts[3, 0] = np.nan
        with pytest.raises(NonFiniteResult, match="not finite in 2015$"):
            step_year(state, zero_rates())

    def test_project_country_stops_at_the_first_bad_year(self, projection_setup):
        built, pathway, base = projection_setup
        with pytest.raises(NonFiniteResult, match="not finite in 2016$"):
            project_country(base, built, pathway, CapPolicy(), srb=1e308)

    def test_project_totals_names_the_first_bad_scenario(self):
        asfr, q = np.full((3, 4, 6), 0.1), np.full((3, 4, N, 2), 0.01)
        asfr[2, 0] = 1e308  # overflows in 2016
        asfr[1, 2] = 1e308  # overflows in 2018, but scenario 1 runs first
        with pytest.raises(NonFiniteResult,
                           match="^AAA/m1: projected population is not finite in 2018$"):
            project_totals(flat_state(1e6, 1e6), asfr, q, 1.05, ["m0", "m1", "m2"])
        with pytest.raises(NonFiniteResult, match="^AAA: .* in 2018$"):
            project_totals(flat_state(1e6, 1e6), asfr, q)

    def test_finite_flags_still_project(self):
        totals = project_totals(flat_state(), np.full((1, 3, 6), 0.1),
                                np.full((1, 3, N, 2), 0.01), srb=1e100)
        assert np.isfinite(totals).all()
