import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend import rate_forecast
from demotrend.augmentation import build_augmented_series
from demotrend.core import FERTILE_BANDS, AGE_BANDS, SEX_COLUMNS, Sex, Variable
from demotrend.data_ingest import load_dataset
from demotrend.demography import forecast_rates
from demotrend.errors import NonPositiveGdp, NoWeightData
from demotrend.models import FORM_ORDER, ModelForm, PARAM_COUNT, aicc
from demotrend.rate_forecast import (
    CapPolicy,
    EnsembleTable,
    build_country_ensembles,
    build_ensemble,
    build_ensembles,
    forecast_rate,
)

from conftest import TINY, oracle_prediction, scalar_forecast

# Long wiggly sample: every candidate form is admissible (n = 14 > 5 + 1).
GDP = np.array([400.0, 550.0, 700.0, 900.0, 1150.0, 1400.0, 1700.0, 2100.0,
                2600.0, 3200.0, 3900.0, 4700.0, 5600.0, 6600.0])
RATE = np.array([0.242, 0.231, 0.204, 0.198, 0.172, 0.169, 0.152, 0.148,
                 0.133, 0.131, 0.120, 0.121, 0.112, 0.114])
POINTS = np.column_stack([GDP, RATE])


class TestCapPolicy:
    def test_default(self):
        assert CapPolicy().fertility_cap_gdp == 30000.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            CapPolicy(fertility_cap_gdp=bad)


class TestBuildEnsemble:
    def test_all_forms_join_on_rich_sample(self):
        ensemble = build_ensemble(POINTS, POINTS)
        assert [m.form for m in ensemble.members] == list(FORM_ORDER)
        assert sum(ensemble.weights) == pytest.approx(1.0, abs=1e-9)

    def test_weights_match_criterion_values(self):
        from demotrend.models import akaike_weights

        ensemble = build_ensemble(POINTS, POINTS)
        expected = akaike_weights([m.aicc for m in ensemble.members])
        assert list(ensemble.weights) == pytest.approx(expected, abs=1e-12)

    def test_rescoring_uses_target_points_only(self):
        """Member criterion must reflect target residuals, not the fit sample."""
        donor = np.column_stack([GDP * 3.0, RATE * 0.5])
        fit_points = np.vstack([POINTS, donor])
        ensemble = build_ensemble(fit_points, POINTS)
        n_w = POINTS.shape[0]
        for member in ensemble.members:
            resid = RATE - oracle_prediction(member, GDP)
            rss = float(resid @ resid)
            assert member.aicc == pytest.approx(
                aicc(rss, n_w, member.k_params), rel=1e-12)
            assert member.n_fit == n_w
            assert member.sigma == pytest.approx(
                math.sqrt(max(rss, 1e-12) / n_w), rel=1e-12)

    def test_small_scoring_sample_drops_big_forms(self):
        # 5 scoring points: forms with k >= 4 have n <= k+1 -> excluded
        small = POINTS[:5]
        ensemble = build_ensemble(POINTS, small)
        forms = {m.form for m in ensemble.members}
        assert ModelForm.NULL in forms and ModelForm.LINEAR in forms
        assert all(PARAM_COUNT[m.form] + 1 < 5 for m in ensemble.members)

    def test_two_point_sample_falls_back_to_null(self):
        tiny = POINTS[:2]
        ensemble = build_ensemble(tiny, tiny)
        (member,) = ensemble.members
        assert member.form is ModelForm.NULL
        assert ensemble.weights == (1.0,)
        assert member.aicc == math.inf
        assert member.ybar == pytest.approx(tiny[:, 1].mean())

    def test_empty_weight_points_rejected(self):
        with pytest.raises(NoWeightData):
            build_ensemble(POINTS, np.empty((0, 2)))

    def test_deterministic(self):
        a = build_ensemble(POINTS, POINTS)
        b = build_ensemble(POINTS, POINTS)
        assert a.members == b.members
        assert a.weights == b.weights


class TestForecastRate:
    def setup_method(self):
        self.ensemble = build_ensemble(POINTS, POINTS)
        self.cap = CapPolicy()

    def test_weighted_average_of_members(self):
        from demotrend.models import predict

        got = forecast_rate(self.ensemble, 1000.0, Variable.MORTALITY, self.cap)
        expected = sum(w * predict(m, 1000.0)
                       for m, w in zip(self.ensemble.members, self.ensemble.weights))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_forecast_never_negative(self):
        for gdp in (1.0, 10.0, 1e4, 1e6, 1e9):
            assert forecast_rate(self.ensemble, gdp, Variable.MORTALITY,
                                 self.cap) >= 0.0

    def test_fertility_capped_exactly(self):
        cap = CapPolicy(fertility_cap_gdp=5000.0)
        at_cap = forecast_rate(self.ensemble, 5000.0, Variable.FERTILITY, cap)
        for gdp in (5000.0, 5001.0, 50000.0, 1e8):
            assert forecast_rate(self.ensemble, gdp, Variable.FERTILITY,
                                 cap) == at_cap

    def test_below_cap_unaffected(self):
        loose = CapPolicy(fertility_cap_gdp=30000.0)
        tight = CapPolicy(fertility_cap_gdp=5000.0)
        assert forecast_rate(self.ensemble, 4000.0, Variable.FERTILITY, loose) == \
            forecast_rate(self.ensemble, 4000.0, Variable.FERTILITY, tight)

    def test_mortality_ignores_cap(self):
        tight = CapPolicy(fertility_cap_gdp=500.0)
        loose = CapPolicy(fertility_cap_gdp=1e9)
        for gdp in (600.0, 6000.0, 60000.0):
            assert forecast_rate(self.ensemble, gdp, Variable.MORTALITY, tight) == \
                forecast_rate(self.ensemble, gdp, Variable.MORTALITY, loose)

    @pytest.mark.parametrize("bad", [0.0, -100.0, math.nan, math.inf])
    def test_invalid_gdp_rejected(self, bad):
        with pytest.raises(NonPositiveGdp):
            forecast_rate(self.ensemble, bad, Variable.FERTILITY, self.cap)


class TestForecastPathway:
    """The array forecast of a country's series against a scalar loop over
    the same pathway."""

    # 200 to 200,000 over 86 years: crosses the 30,000 fertility cap and
    # drives many members' raw values below zero.
    GDP = np.geomspace(200.0, 200000.0, 86)

    @pytest.fixture(scope="class")
    def countries(self, tiny_dataset):
        return [build_country_ensembles(tiny_dataset, iso3, donors)
                for iso3, donors in (("AAA", ["BBB"]), ("BBB", []), ("CCC", []))]

    @pytest.mark.parametrize("variable", list(Variable))
    def test_equals_scalar_loop(self, countries, variable):
        cap = CapPolicy()
        for built in countries:
            asfr, mortality = forecast_rates(built, self.GDP, cap)
            if variable is Variable.FERTILITY:
                for i, band in enumerate(FERTILE_BANDS):
                    expected = scalar_forecast(built.fertility[band], self.GDP, True,
                                               cap.fertility_cap_gdp)
                    assert np.array_equal(asfr[:, i], expected)
            else:
                for (band, sex), ensemble in built.mortality.items():
                    expected = scalar_forecast(ensemble, self.GDP, False, cap.fertility_cap_gdp)
                    got = mortality[:, AGE_BANDS.index(band), SEX_COLUMNS.index(sex)]
                    assert np.array_equal(got, np.minimum(expected, 1.0))

    def test_pathway_covers_cap_and_negative_members(self, countries):
        cap = CapPolicy().fertility_cap_gdp
        assert self.GDP.min() < cap < self.GDP.max()
        assert any((oracle_prediction(m, self.GDP) < 0.0).any()
                   for built in countries
                   for ensemble in [*built.fertility.values(), *built.mortality.values()]
                   for m in ensemble.members)

    def test_empty_pathway(self, countries):
        asfr, mortality = forecast_rates(countries[0], np.empty(0), CapPolicy())
        assert asfr.shape == (0, len(FERTILE_BANDS))
        assert mortality.shape == (0, len(AGE_BANDS), 2)

    @pytest.mark.parametrize("bad", [0.0, -100.0, math.nan, math.inf])
    def test_any_invalid_gdp_rejected(self, countries, bad):
        gdp = self.GDP.copy()
        gdp[40] = bad
        with pytest.raises(NonPositiveGdp):
            forecast_rates(countries[0], gdp, CapPolicy())


def table_of(forms, coefs):
    """Row i is an ensemble of ``forms[i]`` alone, weight 1; every form of
    ``forms`` has row i's coefficients ``coefs[i]``, in the ensemble or not."""
    shape = (len(forms), len(FORM_ORDER))
    member, coef, weight = np.zeros(shape, dtype=bool), np.full((*shape, 4), np.nan), np.zeros(shape)
    for row, form in enumerate(forms):
        member[row, FORM_ORDER.index(form)] = True
        for other in forms:
            coef[row, FORM_ORDER.index(other)] = coefs[row]
    weight[member] = 1.0
    return EnsembleTable(member=member, coef=coef, weight=weight, sigma=np.ones(shape),
                         aicc=np.zeros(shape), n_fit=np.full(len(forms), 10))


class TestTableForecast:
    """Shortcuts in the table forecast that a scalar loop would not take."""

    def test_infinite_member_next_to_masked_form(self):
        # Both rows overflow to +inf at x = 10, in their member (Linear in
        # row 0, NegLog in row 1) and in the other form, which is outside
        # their ensemble. Adding 0 * inf for that form would give NaN.
        coefs = [[0.0, 1e308, math.nan, math.nan]] * 2
        table = table_of([ModelForm.LINEAR, ModelForm.NEG_LOG], coefs)
        with np.errstate(over="ignore", invalid="ignore"):
            got = table.forecast(np.array([10.0, 1e-300]))
            one = forecast_rate(table.ensemble(0), 10.0, Variable.MORTALITY, CapPolicy())
            expected = [scalar_forecast(table.ensemble(row), [10.0, 1e-300], False, 3e4)
                        for row in range(2)]
        assert (got[:, 0] == math.inf).all() and one == math.inf
        assert np.array_equal(got, expected)

    def test_unit_exponent_equals_scalar_forecast(self):
        # At these x, x ** -1.0 with an array exponent differs in the last
        # bit from the scalar exponent that oracle_prediction uses.
        x = np.array([2.2, 5.1, 15.3])
        table = table_of([ModelForm.NEG_POWER] * 3, [[0.0, 1.0, 1.0, math.nan],
                                                     [2.0, 7.0, 1.0, math.nan],
                                                     [1.0, 3.0, 0.5, math.nan]])
        got = table.forecast(x)
        for row in range(3):
            expected = scalar_forecast(table.ensemble(row), x, False, 3e4)
            assert np.array_equal(got[row], expected), row


class TestCountryEnsembles:
    def test_full_coverage(self, tiny_dataset):
        built = build_country_ensembles(tiny_dataset, "AAA", ["BBB"])
        assert sorted(built.fertility) == sorted(FERTILE_BANDS)
        assert len(built.mortality) == len(AGE_BANDS) * 2

    def test_both_sex_mortality_shared(self, tiny_dataset):
        # tiny fixture has Both-sex mortality only -> one build serves both sexes
        assert not tiny_dataset.has_sexed_mortality
        built = build_country_ensembles(tiny_dataset, "AAA", [])
        for band in AGE_BANDS:
            assert built.mortality[(band, Sex.FEMALE)] is built.mortality[(band, Sex.MALE)]

    def test_cache_reuse_and_keying(self, tiny_dataset):
        cache: dict = {}
        first = build_country_ensembles(tiny_dataset, "AAA", ["BBB"], cache=cache)
        size_after_first = len(cache)
        again = build_country_ensembles(tiny_dataset, "AAA", ["BBB"], cache=cache)
        assert len(cache) == size_after_first
        for band in FERTILE_BANDS:
            assert again.fertility[band] is first.fertility[band]
        # a different donor set must not collide in the cache
        build_country_ensembles(tiny_dataset, "AAA", [], cache=cache)
        assert len(cache) > size_after_first

    def test_donor_changes_fertility_fit(self, tiny_dataset):
        alone = build_country_ensembles(tiny_dataset, "AAA", [])
        augmented = build_country_ensembles(tiny_dataset, "AAA", ["BBB"])
        assert alone.fertility["20-24"].members != augmented.fertility["20-24"].members

    def test_ensemble_forms_are_distinct(self, tiny_dataset):
        built = build_country_ensembles(tiny_dataset, "AAA", [])
        for ensemble in built.fertility.values():
            forms = [m.form for m in ensemble.members]
            assert len(forms) == len(set(forms))


class TestSharedSexFits:
    """In a sexed dataset, a band that falls back to Both rows for the target
    and every donor is fitted once and shared by Female and Male."""

    @pytest.fixture
    def mixed_dataset(self, tmp_path):
        # The tiny fixture plus sex-specific 0-4 mortality for BBB only.
        data = tmp_path / "mixed"
        shutil.copytree(TINY, data)
        rates = data / "rates.csv"
        lines = rates.read_text(encoding="utf-8").splitlines()
        both = [line.split(",") for line in lines
                if line.startswith("BBB,") and ",Mortality,0-4,Both," in line]
        lines += [f"BBB,{row[1]},Mortality,0-4,{sex},{float(row[5]) * scale:.6f}"
                  for row in both for sex, scale in (("Female", 0.9), ("Male", 1.1))]
        rates.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dataset = load_dataset(data)
        assert dataset.has_sexed_mortality
        return dataset

    @pytest.mark.parametrize("iso3,donors,split", [
        ("AAA", [], set()),
        ("AAA", ["BBB"], {"0-4"}),  # the donor has sexed rows
        ("BBB", [], {"0-4"}),  # the target has sexed rows
    ])
    def test_builds_and_sharing(self, mixed_dataset, monkeypatch, iso3, donors, split):
        calls = []

        def counting(fit_x, fit_rates, weight_x, weight_rates):
            calls.extend(fit_rates)
            return build_ensembles(fit_x, fit_rates, weight_x, weight_rates)

        monkeypatch.setattr(rate_forecast, "build_ensembles", counting)
        built = build_country_ensembles(mixed_dataset, iso3, donors)
        assert len(calls) == len(FERTILE_BANDS) + len(AGE_BANDS) + len(split)
        for band in AGE_BANDS:
            female = built.mortality[(band, Sex.FEMALE)]
            male = built.mortality[(band, Sex.MALE)]
            assert (female is male) == (band not in split)

    @pytest.mark.parametrize("sex", [Sex.FEMALE, Sex.MALE])
    def test_shared_fit_equals_per_sex_fit(self, mixed_dataset, sex):
        built = build_country_ensembles(mixed_dataset, "AAA", ["BBB"])
        for band in ("5-9", "60-64"):
            series = build_augmented_series("AAA", ["BBB"], Variable.MORTALITY, band,
                                            mixed_dataset, sex=sex)
            per_sex = build_ensemble(np.column_stack([series.fit_gdp, series.fit_rate]),
                                     np.column_stack([series.weight_gdp, series.weight_rate]))
            assert built.mortality[(band, sex)] == per_sex


def one_series_ensemble(dataset, iso3, donors, variable, band, sex):
    series = build_augmented_series(iso3, donors, variable, band, dataset, sex=sex)
    return build_ensemble(np.column_stack([series.fit_gdp, series.fit_rate]),
                          np.column_stack([series.weight_gdp, series.weight_rate]))


def assert_built_per_series(dataset, iso3, donors, built):
    for band in FERTILE_BANDS:
        assert built.fertility[band] == one_series_ensemble(
            dataset, iso3, donors, Variable.FERTILITY, band, None)
    for (band, sex), ensemble in built.mortality.items():  # Both rows only
        assert ensemble == one_series_ensemble(
            dataset, iso3, donors, Variable.MORTALITY, band, Sex.BOTH)


def assert_rows_equal_one_series_builds(fit_x, fit_rates, weight_x, weight_rates):
    """Each row of one build equals its one-series build, and its forecast the
    scalar loop over that build's members."""
    table = build_ensembles(fit_x, fit_rates, weight_x, weight_rates)
    gdp = np.geomspace(50.0, 2e5, 40)
    got = table.forecast(gdp)
    for row, (fy, wy) in enumerate(zip(fit_rates, weight_rates)):
        one = build_ensemble(np.column_stack([fit_x, fy]), np.column_stack([weight_x, wy]))
        assert table.ensemble(row) == one
        assert np.array_equal(got[row], scalar_forecast(one, gdp, False, 3e4))
    return table


class TestBuildEnsembles:
    """Series fitted together on one GDP sample equal one call per series."""

    # Sample sizes at the k + 2 edge of every form, where forms drop out.
    EDGES = sorted({k + 2 for k in PARAM_COUNT.values()})

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batch_equals_one_call_per_series(self, data):
        n_fit = data.draw(st.one_of(st.sampled_from(self.EDGES), st.integers(1, 30)))
        n_weight = data.draw(st.one_of(st.sampled_from([n_fit] + self.EDGES),
                                       st.integers(1, n_fit)).filter(lambda n: n <= n_fit))
        gdp = st.one_of(st.floats(100.0, 1e5), st.sampled_from([800.0, 1600.0]))
        fit_x = np.array(data.draw(st.lists(gdp, min_size=n_fit, max_size=n_fit)))
        rate = st.floats(0.0, 1.0)
        series = st.one_of(st.lists(rate, min_size=n_fit, max_size=n_fit),
                           rate.map(lambda v: [v] * n_fit))  # constant y
        fit_rates = np.array(data.draw(st.lists(series, min_size=1, max_size=6)))
        weight_x, weight_rates = fit_x[:n_weight], fit_rates[:, :n_weight]
        assert_rows_equal_one_series_builds(fit_x, fit_rates, weight_x, weight_rates)

    @pytest.mark.parametrize("n_weight", [1, 3, 4, 5, 6, 7, 14])
    def test_inadmissible_forms_and_null_fallback(self, n_weight):
        # n_weight <= k + 1 drops a form; at 3 and below only the null
        # fallback with an infinite criterion is left.
        rates = np.array([RATE, RATE[::-1], 0.5 * RATE + 0.01 * np.sin(GDP)])
        table = assert_rows_equal_one_series_builds(GDP, rates, GDP[:n_weight],
                                                    rates[:, :n_weight])
        forms = [f for f in FORM_ORDER if n_weight > PARAM_COUNT[f] + 1] or [ModelForm.NULL]
        for row in range(len(rates)):
            ensemble = table.ensemble(row)
            assert [m.form for m in ensemble.members] == forms
            assert (ensemble.members[0].aicc == math.inf) == (n_weight <= 3)

    def test_country_series_in_several_samples(self, tmp_path, monkeypatch):
        # AAA's 15-19 series loses its first year and its 20-24 series its
        # last: their target samples differ from the others' and, at equal
        # length, from each other. Donor BBB's 25-29 series loses 2015 and
        # its 30-34 series every year up to 1990: their fit samples differ
        # in the same way, with AAA's own target sample.
        data = tmp_path / "split"
        shutil.copytree(TINY, data)
        rates = data / "rates.csv"
        dropped = {("AAA", "15-19"): {1950}, ("AAA", "20-24"): {2015},
                   ("BBB", "25-29"): {2015}, ("BBB", "30-34"): set(range(1950, 1991))}
        lines = [line for line in rates.read_text(encoding="utf-8").splitlines()
                 if not (",Fertility," in line and int(line.split(",")[1]) in
                         dropped.get((line[:3], line.split(",")[3]), ()))]
        rates.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dataset = load_dataset(data)
        groups = []

        def counting(fit_x, fit_rates, weight_x, weight_rates):
            groups.append(len(fit_rates))
            return build_ensembles(fit_x, fit_rates, weight_x, weight_rates)

        monkeypatch.setattr(rate_forecast, "build_ensembles", counting)
        built = build_country_ensembles(dataset, "AAA", ["BBB"])
        assert sorted(groups) == [1, 1, 1, 1, len(FERTILE_BANDS) - 4 + len(AGE_BANDS)]
        assert_built_per_series(dataset, "AAA", ["BBB"], built)

    def test_warm_cache_holding_part_of_the_keys(self, tiny_dataset):
        donor_sets = [("AAA", ["BBB"]), ("AAA", []), ("BBB", [])]
        cold: dict = {}
        expected = [build_country_ensembles(tiny_dataset, iso3, donors, cache=cold)
                    for iso3, donors in donor_sets]
        assert_built_per_series(tiny_dataset, "AAA", ["BBB"], expected[0])
        warm = {key: cold[key] for key in list(cold)[::2]}
        held = dict(warm)
        built = [build_country_ensembles(tiny_dataset, iso3, donors, cache=warm)
                 for iso3, donors in donor_sets]
        for got, want in zip(built, expected):
            assert got.fertility == want.fertility and got.mortality == want.mortality
        assert warm.keys() == cold.keys()
        for key, ensembles in held.items():
            assert warm[key] is ensembles
        assert built[0] is held[("AAA", ("BBB",))]

    def test_weight_rows_must_match(self):
        with pytest.raises(ValueError):
            build_ensembles(GDP, [RATE, RATE], GDP, [RATE])
        with pytest.raises(NoWeightData):
            build_ensembles(GDP, [RATE], [], [[]])
