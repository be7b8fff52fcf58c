import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend import models
from demotrend.errors import (
    DegenerateX,
    DenominatorZero,
    EmptyInput,
    InsufficientData,
    NonFiniteInput,
    NonPositiveX,
)
from demotrend.core import Variable
from demotrend.models import (
    COEF_FIELDS,
    FORM_ORDER,
    ModelForm,
    PARAM_COUNT,
    RSS_FLOOR,
    SCREEN_BLOCK,
    aicc,
    akaike_weights,
    fit,
    fit_rows,
    neg_powers,
    predict_rows,
    raw_prediction,
    _breakpoint_candidates,
    _power_designs,
    _solve_stack,
)
from demotrend.rate_forecast import CapPolicy, EnsembleTable, forecast_rate

import seed_oracle
from conftest import table_of

# Deterministic wiggly fixture: strictly positive x, no candidate form exact.
WIGGLY_X = np.array([1.0, 2.0, 3.5, 5.0, 7.0, 9.5, 12.0, 15.0, 19.0, 24.0, 30.0, 37.0])
WIGGLY_Y = np.array([5.1, 4.2, 3.6, 3.35, 2.9, 2.75, 2.5, 2.45, 2.3, 2.28, 2.15, 2.2])


def closed_form_line(t, y):
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    tbar, ybar = t.mean(), y.mean()
    slope = ((t - tbar) * (y - ybar)).sum() / ((t - tbar) ** 2).sum()
    return ybar - slope * tbar, slope


class TestAicc:
    def test_worked_value(self):
        assert aicc(10.0, 10, 2) == pytest.approx(4.0 + 12.0 / 7.0, abs=1e-9)

    def test_perfect_fit_floor(self):
        floored = aicc(0.0, 10, 2)
        assert math.isfinite(floored)
        assert floored == aicc(1e-12, 10, 2)
        assert floored == aicc(1e-15, 10, 2)

    def test_denominator_guard(self):
        with pytest.raises(DenominatorZero):
            aicc(1.0, 3, 2)
        with pytest.raises(DenominatorZero):
            aicc(1.0, 2, 2)
        assert math.isfinite(aicc(1.0, 4, 2))

    def test_penalty_grows_with_k(self):
        assert aicc(5.0, 20, 3) > aicc(5.0, 20, 2)


class TestAkaikeWeights:
    def test_worked_pair(self):
        w = akaike_weights([100.0, 102.0])
        assert w[0] == pytest.approx(0.731059, abs=1e-6)
        assert w[1] == pytest.approx(0.268941, abs=1e-6)

    def test_single_model(self):
        assert akaike_weights([123.4]) == [1.0]

    def test_equal_scores_split_evenly(self):
        w = akaike_weights([7.0, 7.0])
        assert w[0] == pytest.approx(0.5, abs=1e-12)
        assert w[1] == pytest.approx(0.5, abs=1e-12)

    def test_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.uniform(-50.0, 50.0, size=rng.integers(1, 9))
            w = np.array(akaike_weights(a))
            shifted = np.array(akaike_weights(a + 123.456))
            assert np.allclose(w, shifted, atol=1e-12)
            assert math.isclose(w.sum(), 1.0, abs_tol=1e-9)
            assert ((w >= 0.0) & (w <= 1.0)).all()

    def test_overflow_safe_spread(self):
        w = akaike_weights([0.0, 5000.0])
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert w[1] >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            akaike_weights([])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            akaike_weights([1.0, math.inf])

    def test_non_finite_names_its_first_row(self):
        with pytest.raises(NonFiniteInput) as err:
            models.evidence_weights(np.array([[1.0, 2.0], [1.0, math.nan], [math.inf, 0.0]]))
        assert err.value.row == pickle.loads(pickle.dumps(err.value)).row == 1


class TestLinearFamilies:
    def test_linear_matches_closed_form(self):
        result = fit(ModelForm.LINEAR, WIGGLY_X, WIGGLY_Y)
        b1, b2 = closed_form_line(WIGGLY_X, WIGGLY_Y)
        assert result.beta1 == pytest.approx(b1, abs=1e-9)
        assert result.beta2 == pytest.approx(b2, abs=1e-9)

    def test_division_matches_closed_form(self):
        result = fit(ModelForm.DIVISION, WIGGLY_X, WIGGLY_Y)
        b1, b2 = closed_form_line(1.0 / WIGGLY_X, WIGGLY_Y)
        assert result.beta1 == pytest.approx(b1, abs=1e-9)
        assert result.beta2 == pytest.approx(b2, abs=1e-9)

    def test_neglog_matches_closed_form(self):
        result = fit(ModelForm.NEG_LOG, WIGGLY_X, WIGGLY_Y)
        b1, b2 = closed_form_line(np.log(WIGGLY_X), WIGGLY_Y)
        assert result.beta1 == pytest.approx(b1, abs=1e-9)
        assert result.beta2 == pytest.approx(b2, abs=1e-9)

    def test_neglog_log_base_does_not_matter(self):
        result = fit(ModelForm.NEG_LOG, WIGGLY_X, WIGGLY_Y)
        b1, b2 = closed_form_line(np.log10(WIGGLY_X), WIGGLY_Y)
        base10 = b1 + b2 * np.log10(WIGGLY_X)
        assert np.allclose(seed_oracle.raw_prediction(result, WIGGLY_X), base10, atol=1e-9)

    def test_null_is_sample_mean(self):
        result = fit(ModelForm.NULL, WIGGLY_X, WIGGLY_Y)
        assert result.ybar == pytest.approx(WIGGLY_Y.mean(), abs=1e-12)
        assert result.k_params == 2


class TestNegPower:
    def test_noiseless_recovery(self):
        xs = np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0])
        ys = 5.0 + 3.0 * xs ** -0.5
        result = fit(ModelForm.NEG_POWER, xs, ys)
        assert result.beta1 == pytest.approx(5.0, abs=1e-3)
        assert result.beta2 == pytest.approx(3.0, abs=1e-3)
        assert result.beta3 == pytest.approx(0.5, abs=1e-3)

    def test_matches_dense_grid_oracle(self):
        result = fit(ModelForm.NEG_POWER, WIGGLY_X, WIGGLY_Y)
        best = math.inf
        for i in range(int(4.95 / 1e-4) + 1):
            b3 = 0.05 + i * 1e-4
            t = WIGGLY_X ** -b3
            b1, b2 = closed_form_line(t, WIGGLY_Y)
            rss = float(np.square(WIGGLY_Y - b1 - b2 * t).sum())
            best = min(best, rss)
        mine = float(np.square(WIGGLY_Y - seed_oracle.raw_prediction(result, WIGGLY_X)).sum())
        assert mine == pytest.approx(best, rel=1e-6)

    def test_exponent_stays_in_grid_range(self):
        result = fit(ModelForm.NEG_POWER, WIGGLY_X, WIGGLY_Y)
        assert 0.05 <= result.beta3 <= 5.0

    def test_division_is_negpower_with_unit_exponent(self):
        xs = np.array([1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 20.0])
        ys = 2.0 + 7.0 / xs
        division = fit(ModelForm.DIVISION, xs, ys)
        power = fit(ModelForm.NEG_POWER, xs, ys)
        assert division.beta1 == pytest.approx(2.0, abs=1e-9)
        assert division.beta2 == pytest.approx(7.0, abs=1e-9)
        assert power.beta3 == pytest.approx(1.0, abs=1e-3)
        assert power.beta1 == pytest.approx(2.0, abs=1e-3)


SEARCHED_FORMS = [ModelForm.NEG_POWER, ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE,
                  ModelForm.LEFT_HINGE]

BREAKPOINT_FORMS = SEARCHED_FORMS[1:]


def sample_with_candidates(count, tied, seed):
    """GDP-like x with exactly ``count`` breakpoint candidates, and rows whose
    best knot falls in the first, a middle and the last of them. The two
    extremes appear three times each, so every other value is a candidate;
    those appear twice each when ``tied``."""
    rng = np.random.default_rng(seed)
    distinct = np.sort(400.0 * 500.0 ** rng.uniform(0.0, 1.0, count + 2))
    x = np.concatenate([np.repeat(distinct[[0, -1]], 3),
                        np.repeat(distinct[1:-1], 2 if tied else 1)])
    candidates = _breakpoint_candidates(x)
    knots = candidates[[0, min(SCREEN_BLOCK, count - 1), count - 1]]
    rows = 0.01 * (1.0 + np.abs(np.log(x) - np.log(knots[:, None]))
                   + rng.normal(0.0, 0.02, (len(knots), x.size)))
    return rng.permutation(x), candidates, rows


def assert_rows_match_seed(form, xs, rows):
    """``fit_rows`` equals the seed's ``fit`` of each row, field for field, or
    raises ``DegenerateX`` where the seed does. Returns the seed's fits."""
    try:
        expected = [seed_oracle.fit(form, xs, y) for y in rows]
    except DegenerateX:
        with pytest.raises(DegenerateX):
            fit_rows(form, xs, rows)
        return None
    assert fitted_rows(form, xs, rows) == expected
    return expected


# Symmetric about x = 6 in both x and y: knots c and 12 - c fit equally well.
MIRROR_X = np.arange(1.0, 12.0)
MIRROR_Y = np.array([3.0, 1.0, 2.5, 0.5, 2.0, 1.5, 2.0, 0.5, 2.5, 1.0, 3.0])
PERFECT_X = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
PERFECT_Y = {
    ModelForm.NEG_POWER: 5.0 + 3.0 * PERFECT_X ** -0.5,
    ModelForm.LINEAR_SPLINE: np.abs(PERFECT_X - 5.0) + 1.0,
    ModelForm.RIGHT_HINGE: 2.0 + 3.0 * np.minimum(PERFECT_X, 6.0),
    ModelForm.LEFT_HINGE: 2.0 - 0.5 * np.maximum(PERFECT_X, 4.0),
}


class TestScreenedSearchMatchesExhaustive:
    """The screened search returns exactly what the seed's solve of every
    candidate does."""

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_fixture_series(self, form):
        assert_rows_match_seed(form, WIGGLY_X, [WIGGLY_Y])

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_mirror_symmetric_ties(self, form):
        assert_rows_match_seed(form, MIRROR_X, [MIRROR_Y])

    def test_mirror_knots_tie(self):
        # The two best spline knots differ in RSS by rounding only.
        design = [np.ones(MIRROR_X.size), MIRROR_X]
        rss = {c: np.linalg.lstsq(np.column_stack([*design, np.maximum(MIRROR_X - c, 0.0)]),
                                  MIRROR_Y, rcond=None)[1][0]
               for c in MIRROR_X[2:-2]}
        best = min(rss.values())
        assert sorted(c for c, v in rss.items() if v <= best * (1.0 + 1e-12)) == [4.0, 8.0]

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_duplicated_x(self, form):
        xs = np.repeat(WIGGLY_X, 2)
        ys = np.repeat(WIGGLY_Y, 2) + np.tile([0.05, -0.05], WIGGLY_X.size)
        assert_rows_match_seed(form, xs, [ys])

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_perfect_fit_at_rss_floor(self, form):
        expected, = assert_rows_match_seed(form, PERFECT_X, [PERFECT_Y[form]])
        assert expected.sigma == math.sqrt(RSS_FLOOR / PERFECT_X.size)

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_constant_y(self, form):
        assert_rows_match_seed(form, WIGGLY_X, [np.full(WIGGLY_X.size, 2.5)])

    # Magnitudes keep x ** -5 and y . y finite, as for GDP and rates.
    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_samples(self, form, data):
        n = data.draw(st.integers(PARAM_COUNT[form] + 2, 40))
        xs = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
        ys = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        if len(set(xs)) > 1:
            assert_rows_match_seed(form, xs, [ys])

    # GDP over 1e2-1e9, the range of a 60-country ladder, where the screens
    # lose the most precision; every row of a batch must still come out exact.
    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_batched_rows_over_ladder_gdp(self, form, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(PARAM_COUNT[form] + 2, 80))
        xs = 10.0 ** rng.uniform(2.0, 9.0, n)
        if data.draw(st.booleans()):
            xs = np.repeat(xs[: n // 2 + 1], 2)[:n]  # donor windows repeat GDP values
        level = 10.0 ** rng.uniform(-4.0, 2.0, (data.draw(st.integers(1, 5)), 1))
        rows = level * (1.0 + xs ** -rng.uniform(0.05, 1.0, (len(level), 1))
                        + rng.normal(0.0, 0.05, (len(level), n)))
        assert_rows_match_seed(form, xs, rows)

    # Candidate counts on both sides of each SCREEN_BLOCK edge.
    @pytest.mark.parametrize("form", BREAKPOINT_FORMS)
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 128, 129, 203])
    @pytest.mark.parametrize("tied", [False, True])
    def test_screen_block_edges(self, form, count, tied):
        assert SCREEN_BLOCK == 64
        x, candidates, rows = sample_with_candidates(count, tied, count)
        assert candidates.size == count
        assert_rows_match_seed(form, x, rows)


def traced_peak(call, *args):
    """The result of ``call(*args)`` and the most memory it held at once, traced."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBreakpointSearchMemory:
    """A search screens SCREEN_BLOCK candidates at a time, builds designs only
    for the candidates it solves and solves them SCREEN_BLOCK at a time, so
    it never holds a (C, n) array."""

    @pytest.mark.parametrize("form", BREAKPOINT_FORMS)
    def test_traced_peak_is_bounded(self, form):
        rng = np.random.default_rng(5)
        x = rng.permutation(np.geomspace(400.0, 200000.0, 2000))
        rows = 0.01 * (1.0 + x ** -rng.uniform(0.05, 1.0, (8, 1))
                       + rng.normal(0.0, 0.05, (8, x.size)))
        _, peak = traced_peak(fit_rows, form, x, rows)
        # A (C, n) float array alone is 30.5 MiB here.
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("form", BREAKPOINT_FORMS)
    def test_constant_rows_solve_every_candidate_in_bounded_memory(self, form):
        """Every candidate of a constant row screens within SCREEN_RTOL of
        the best, so all of them are solved: about 2,000 (candidate, row)
        pairs of 1,000 points, which peak above 75 MiB solved as one stack."""
        rng = np.random.default_rng(11)
        x = rng.permutation(np.geomspace(400.0, 90000.0, 1000))
        rows = np.vstack([np.full(x.size, 0.02), 0.01 + 3.0 / np.sqrt(x),
                          np.full(x.size, 1.5), 0.3 - 1e-6 * x + rng.normal(0.0, 0.01, x.size)])
        fitted, peak = traced_peak(fitted_rows, form, x, rows)
        assert peak < 16 * 2**20
        assert fitted == [seed_oracle.fit(form, x, y) for y in rows]


def fitted_rows(form, xs, rows):
    """``fit_rows`` as one ``FitResult`` per row, scored as ``fit`` scores."""
    coef, rss = fit_rows(form, xs, rows)
    sigma, score = models.scores(rss, len(xs), PARAM_COUNT[form])
    return [models.fit_result(form, c, s, a, len(xs))
            for c, s, a in zip(coef, sigma.tolist(), score.tolist())]


class TestFitRows:
    """A batch of rows on one x fits each row as the seed does."""

    ROWS = [WIGGLY_Y, np.full(WIGGLY_X.size, 2.5), WIGGLY_Y[::-1] * 1e3,
            np.log(WIGGLY_X), WIGGLY_Y + np.tile([0.3, -0.3], WIGGLY_X.size // 2)]

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_batch_matches_exhaustive(self, form):
        assert_rows_match_seed(form, WIGGLY_X, self.ROWS)
        assert_rows_match_seed(form, PERFECT_X, [PERFECT_Y[f] for f in SEARCHED_FORMS])
        assert_rows_match_seed(form, MIRROR_X, [MIRROR_Y])

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_row_order_does_not_matter(self, form):
        fitted = fitted_rows(form, WIGGLY_X, self.ROWS)
        order = [3, 0, 4, 2, 1]
        assert fitted_rows(form, WIGGLY_X, [self.ROWS[i] for i in order]) == [
            fitted[i] for i in order]
        assert [fit(form, WIGGLY_X, y) for y in self.ROWS] == fitted

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_predict_rows_equals_one_row_prediction(self, form):
        coef, _ = fit_rows(form, WIGGLY_X, self.ROWS)
        x = np.array([0.5, 2.2, 5.1, 15.3, 40.0])
        got = np.broadcast_to(predict_rows(form, coef, x), (len(self.ROWS), x.size))
        for row, result in zip(got, fitted_rows(form, WIGGLY_X, self.ROWS)):
            assert np.array_equal(row, seed_oracle.raw_prediction(result, x))

    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_row_rejected(self, row):
        rows = np.array(self.ROWS[:3])
        rows[row, 5] = math.inf
        for form in FORM_ORDER:
            with pytest.raises(NonFiniteInput):
                fit_rows(form, WIGGLY_X, rows)

    def test_rows_must_match_x(self):
        with pytest.raises(ValueError):
            fit_rows(ModelForm.LINEAR, WIGGLY_X, WIGGLY_Y)
        with pytest.raises(ValueError):
            fit_rows(ModelForm.LINEAR, WIGGLY_X, [WIGGLY_Y[:-1]])


class TestSolveStack:
    """One stacked LAPACK call gives each slice what ``np.linalg.lstsq`` gives."""

    @staticmethod
    def assert_matches_lstsq(a, y):
        coef, rss = _solve_stack(a, y)
        assert coef.shape == (y.shape[0], a.shape[2]) and rss.shape == (y.shape[0],)
        for s in range(y.shape[0]):
            expected = np.linalg.lstsq(a[s], y[s], rcond=None)[0]
            resid = y[s] - a[s] @ expected
            assert np.array_equal(coef[s], expected)
            assert rss[s] == resid @ resid

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [5, 12, 66, 400])
    def test_random_stacks(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        a = rng.normal(size=(9, n, k))
        a[:, :, 0] = 1.0
        y = rng.normal(size=(9, n)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(9, 1))
        self.assert_matches_lstsq(a, y)

    def test_broadcast_design(self):
        rng = np.random.default_rng(3)
        a = np.column_stack([np.ones(40), rng.uniform(1.0, 50.0, 40)])
        y = rng.normal(size=(6, 40))
        self.assert_matches_lstsq(np.broadcast_to(a, (6, 40, 2)), y)

    def test_ill_conditioned_power(self):
        rng = np.random.default_rng(4)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size=(5, 30)))
        a = np.stack([np.column_stack([np.ones(30), xs ** -5.0]) for xs in x])
        self.assert_matches_lstsq(a, rng.normal(size=(5, 30)) * 1e3)

    def test_rank_deficient(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(1.0, 10.0, size=(4, 20))
        a = np.stack([np.column_stack([np.ones(20), xs, xs]) for xs in x])
        self.assert_matches_lstsq(a, rng.normal(size=(4, 20)))

    def test_nan_in_one_slice_raises(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 10, 2))
        a[1, 4, 1] = math.nan
        with pytest.raises(np.linalg.LinAlgError):
            _solve_stack(a, rng.normal(size=(3, 10)))


class TestLockstepGoldenSection:
    """NegPower rows of one batch whose searches stop at different steps."""

    # At x = 2.2, 5.1 and 15.3, x^-1 from an array of exponents differs in
    # the last bit from x^-1.0 with a scalar exponent.
    X = np.array([1.3, 2.2, 3.7, 5.1, 7.3, 9.7, 12.1, 15.3, 19.1, 24.7, 30.3, 37.9])
    NOISE = np.tile([0.01, -0.01], X.size // 2)
    ROWS = {
        "edge_lo": 1.0 + 3.0 * X ** -0.05 + NOISE,
        "edge_hi": 1.0 + 3.0 * X ** -5.0 + NOISE * 0.1,
        "interior": 5.0 + 3.0 * X ** -0.5 + NOISE,
        "steep": 2.0 + 4.0 * X ** -2.3 + NOISE,
        "unit": 2.0 + 7.0 / X,
        "wiggly": WIGGLY_Y,
    }

    def test_batch_matches_exhaustive_and_one_row_fits(self, monkeypatch):
        probes = []

        def counting(a, y):
            probes.append(len(y))
            return _solve_stack(a, y)

        monkeypatch.setattr(models, "_solve_stack", counting)
        fitted = dict(zip(self.ROWS, fitted_rows(ModelForm.NEG_POWER, self.X,
                                                list(self.ROWS.values()))))
        monkeypatch.undo()
        # Rows drop out of the search at different steps.
        assert len(set(probes)) > 3
        # The bracket of an edge winner is half as wide as an interior one's.
        assert 0.05 < fitted["edge_lo"].beta3 < 0.1
        # Refinement loses to the grid winner at the 5.0 edge and at b3 = 1.
        assert fitted["edge_hi"].beta3 == 5.0
        assert fitted["unit"].beta3 == 1.0
        for name, y in self.ROWS.items():
            assert fitted[name] == seed_oracle.fit(ModelForm.NEG_POWER, self.X, y), name
            assert fitted[name] == fit(ModelForm.NEG_POWER, self.X, y), name


def power_rows(data, rng, x, count):
    """``count`` rows on ``x`` of the kinds where a closed-form branch is most
    easily wrong: a few ulps from constant or from a tie with another row,
    exactly constant, exactly ``b1 + b2 / x``, or a noisy power of any size."""
    ulp = np.finfo(float).eps
    rows = []
    for _ in range(count):
        level = 10.0 ** rng.uniform(-4.0, 4.0)
        kind = data.draw(st.sampled_from(["ulps", "tie", "constant", "unit", "power"]))
        if kind == "ulps":
            rows.append(level * (1.0 + ulp * rng.integers(-3, 4, x.size)))
        elif kind == "tie" and rows:
            rows.append(rows[-1] * (1.0 + ulp * rng.integers(-2, 3, x.size)))
        elif kind == "constant":
            rows.append(np.full(x.size, level))
        elif kind == "unit":
            rows.append(level * (2.0 + rng.normal() / x))
        else:
            power = level * rng.normal() * x ** -rng.uniform(0.05, 5.0)
            rows.append(level + power * (1.0 + rng.normal(0.0, 10.0 ** rng.uniform(-9.0, 0.0),
                                                          x.size)))
    return np.array(rows)


class TestCertifiedGoldenSection:
    """Branches taken from closed-form RSS with a proven bound are those of
    the seed, which solves every probe, so every fit keeps its bits."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_solving_every_probe(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(6, 120))
        low = data.draw(st.floats(-3.0, 5.5))
        x = 10.0 ** rng.uniform(low, data.draw(st.floats(low + 0.1, 6.0)), n)
        if data.draw(st.booleans()):
            x = np.repeat(x[: n // 2 + 1], 2)[:n]  # tied x, as in donor windows
        assert_rows_match_seed(ModelForm.NEG_POWER, x,
                               power_rows(data, rng, x, data.draw(st.integers(1, 48))))

    def test_grid_screen_that_overflows_warns_nothing(self):
        """Rows near 1e150 over x in [1e-3, 1e3]: the screen's cross products
        of y with x^-5 overflow, which rules no exponent out."""
        x = np.geomspace(1e-3, 1e3, 40)
        rng = np.random.default_rng(3)
        ys = 1e150 * (1.0 + 0.01 * x ** -np.array([[0.3], [0.8]])
                      + rng.normal(0.0, 0.001, (2, x.size)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = fitted_rows(ModelForm.NEG_POWER, x, ys)
        assert fitted == [seed_oracle.fit(ModelForm.NEG_POWER, x, y) for y in ys]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bound_holds(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = 10.0 ** rng.uniform(-3.0, 6.0, data.draw(st.integers(6, 120)))
        ys = power_rows(data, rng, x, data.draw(st.integers(1, 8)))
        lo = rng.uniform(0.05, 4.9, len(ys))
        hi = lo + 0.1
        with np.errstate(all="ignore"):
            ry, bounds = models._rss_bounds(x, ys, lo, hi)
            for b in (lo, lo + 0.038, hi):
                g, e = models._bounded_rss(x, b, ry, bounds)
                _, f = _solve_stack(_power_designs(x, b), ys)
                assert (np.abs(f - g) <= e).all()

    def test_designs_near_rank_deficiency_have_no_bound(self):
        # Over x in [1e-3, 1e6] the singular-value ratio of [1, x^-b] falls
        # from far above lstsq's rcond (b = 1) to a few hundred times it (b = 4).
        x = np.geomspace(1e-3, 1e6, 40)
        ys = np.array([1.0 + x ** -1.0, 1.0 + x ** -4.0]) * (1.0 + 0.01 * np.sin(x))
        b = np.array([1.0, 4.0])
        a = _power_designs(x, b)
        singular = np.linalg.svd(a, compute_uv=False)
        ratio = singular[:, 1] / singular[:, 0] / (np.finfo(float).eps * x.size)
        assert ratio[0] > 1e6 and 10.0 < ratio[1] < models.POWER_GATE
        with np.errstate(all="ignore"):
            ry, bounds = models._rss_bounds(x, ys, b - 0.05, b + 0.05)
            _, e = models._bounded_rss(x, b, ry, bounds)
        assert np.isfinite(e[0]) and e[1] == np.inf


class TestSeedOracle:
    """``fit_rows`` of every form equals the frozen seed's one-row ``fit``, row
    by row, on GDP-like samples: every coefficient, sigma and criterion value."""

    # GDP over 400-200,000, n up to 900 (a donor-augmented sample at m = 2):
    # distinct, tied as in donor windows, or in pairs a few ulps apart.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_form_equals_the_seed(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(8, 150)) * (6 if data.draw(st.integers(0, 7)) == 0 else 1)
        x = 400.0 * 500.0 ** rng.uniform(0.0, 1.0, n)
        kind = data.draw(st.sampled_from(["distinct", "tied", "ulps"]))
        if kind == "tied":
            x = np.repeat(x[: n // 2 + 1], 2)[:n]
        elif kind == "ulps":
            x[1::2] = x[::2][: n // 2] * (1.0 + np.finfo(float).eps * rng.integers(1, 4, n // 2))
        rows = power_rows(data, rng, x, data.draw(st.integers(1, 4)))
        for form in FORM_ORDER:
            assert_rows_match_seed(form, x, rows)

    # World-scale samples (n = 2,406 at 180 countries, m = 2); a constant row
    # ties every knot and exponent screen, so every candidate is solved.
    @pytest.mark.parametrize("tied", [False, True])
    def test_world_scale_samples(self, tied):
        rng = np.random.default_rng(2406)
        x = 400.0 * 500.0 ** rng.uniform(0.0, 1.0, 2406)
        if tied:
            x = np.repeat(x[:1203], 2)
        rows = [np.full(x.size, 0.02)] if tied else [
            0.01 * (1.0 + x ** -0.4 + rng.normal(0.0, 0.05, x.size))]
        for form in FORM_ORDER:
            assert_rows_match_seed(form, x, rows)

    def test_loaded_seed_shadows_nothing(self):
        seed = {name: module for name, module in list(sys.modules.items())
                if name.startswith("seed_demotrend.")}
        assert {f"seed_demotrend.{name}" for name in ("models", "cli", "demography",
                                                       "scenarios", "report")} <= seed.keys()
        for name, module in seed.items():
            assert Path(module.__file__).resolve().is_relative_to(seed_oracle.SEED), name
        src = seed_oracle.PERFBENCH.parent / "src"
        assert Path(models.__file__).resolve().is_relative_to(src)
        for name, module in list(sys.modules.items()):
            if name == "demotrend" or name.startswith("demotrend."):
                path = Path(getattr(module, "__file__", None) or ".").resolve()
                assert not path.is_relative_to(seed_oracle.PERFBENCH), name


class TestBreakpointForms:
    @pytest.mark.parametrize("form", [ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE,
                                      ModelForm.LEFT_HINGE])
    def test_breakpoint_strictly_interior(self, form):
        result = fit(form, WIGGLY_X, WIGGLY_Y)
        assert WIGGLY_X.min() < result.breakpoint_x1 < WIGGLY_X.max()
        assert result.breakpoint_x1 in WIGGLY_X  # candidates are observed values

    @pytest.mark.parametrize("form", [ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE,
                                      ModelForm.LEFT_HINGE])
    def test_continuous_at_breakpoint(self, form):
        result = fit(form, WIGGLY_X, WIGGLY_Y)
        x1 = result.breakpoint_x1
        left = float(seed_oracle.raw_prediction(result, np.array([x1 * (1 - 1e-9)]))[0])
        right = float(seed_oracle.raw_prediction(result, np.array([x1 * (1 + 1e-9)]))[0])
        assert left == pytest.approx(right, rel=1e-6)

    def test_right_hinge_flat_above_breakpoint(self):
        result = fit(ModelForm.RIGHT_HINGE, WIGGLY_X, WIGGLY_Y)
        x1 = result.breakpoint_x1
        plateau = result.beta1 + result.beta2 * x1
        assert result.ybar == pytest.approx(plateau, abs=1e-12)
        far = float(seed_oracle.raw_prediction(result, np.array([x1 + 100.0]))[0])
        assert far == pytest.approx(plateau, abs=1e-9)

    def test_left_hinge_flat_below_breakpoint(self):
        result = fit(ModelForm.LEFT_HINGE, WIGGLY_X, WIGGLY_Y)
        x1 = result.breakpoint_x1
        plateau = result.beta1 + result.beta2 * x1
        near_zero = float(seed_oracle.raw_prediction(result, np.array([1e-6]))[0])
        assert near_zero == pytest.approx(plateau, rel=1e-9)

    def test_spline_recovers_exact_vee(self):
        xs = np.arange(1.0, 10.0)
        ys = np.abs(xs - 5.0) + 1.0
        result = fit(ModelForm.LINEAR_SPLINE, xs, ys)
        assert result.breakpoint_x1 == pytest.approx(5.0)
        assert result.beta2 == pytest.approx(-1.0, abs=1e-6)
        assert result.slope_right == pytest.approx(1.0, abs=1e-6)


class TestFitContract:
    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_never_worse_than_null(self, form):
        null_rss = float(np.square(WIGGLY_Y - WIGGLY_Y.mean()).sum())
        result = fit(form, WIGGLY_X, WIGGLY_Y)
        rss = float(np.square(WIGGLY_Y - seed_oracle.raw_prediction(result, WIGGLY_X)).sum())
        assert rss <= null_rss * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_sigma_positive_and_metadata(self, form):
        result = fit(form, WIGGLY_X, WIGGLY_Y)
        assert result.sigma > 0.0
        assert result.n_fit == WIGGLY_X.size
        assert result.k_params == PARAM_COUNT[form]
        assert math.isfinite(result.aicc)

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_deterministic(self, form):
        a = fit(form, WIGGLY_X, WIGGLY_Y)
        b = fit(form, WIGGLY_X, WIGGLY_Y)
        assert a == b

    def test_minimum_sample_per_form(self):
        for form, k in PARAM_COUNT.items():
            n = k + 1
            with pytest.raises(InsufficientData):
                fit(form, WIGGLY_X[:n], WIGGLY_Y[:n])
            fit(form, WIGGLY_X[:k + 2], WIGGLY_Y[:k + 2])

    # x^-5 overflows below about 1e-62 and its square below about 3e-31; 1/x
    # overflows at subnormal x. A design that cannot be finite is skipped.
    @pytest.mark.parametrize("low,skipped", [
        (1e-30, set()), (1e-32, {ModelForm.NEG_POWER}), (1e-100, {ModelForm.NEG_POWER}),
        (1e-320, {ModelForm.NEG_POWER, ModelForm.DIVISION})])
    def test_design_that_overflows_is_degenerate(self, low, skipped):
        xs = WIGGLY_X.copy()
        xs[1] = low
        for form in FORM_ORDER:
            if form in skipped:
                with pytest.raises(DegenerateX, match="no finite design"):
                    fit_rows(form, xs, [WIGGLY_Y])
            else:
                coef, rss = fit_rows(form, xs, [WIGGLY_Y])
                assert np.isfinite(rss).all() and not np.isinf(coef).any()

    def test_degenerate_x(self):
        xs = np.full(8, 3.0)
        ys = np.arange(8.0) + 1.0
        fit(ModelForm.NULL, xs, ys)
        with pytest.raises(DegenerateX):
            fit(ModelForm.LINEAR, xs, ys)

    def test_non_finite_rejected(self):
        xs = WIGGLY_X.copy()
        xs[3] = math.nan
        with pytest.raises(NonFiniteInput):
            fit(ModelForm.LINEAR, xs, WIGGLY_Y)

    def test_non_positive_x_rejected(self):
        xs = WIGGLY_X.copy()
        xs[0] = 0.0
        with pytest.raises(NonPositiveX):
            fit(ModelForm.LINEAR, xs, WIGGLY_Y)


def per_row_powers(x, b3s):
    """``x ** -b3`` with a scalar exponent per row, as the search built its designs."""
    out = np.empty((len(b3s), np.shape(x)[-1]))
    for row, xs, b3 in zip(out, np.broadcast_to(x, out.shape), b3s):
        row[...] = np.power(xs, -float(b3))
    return out


POWER_GRID = (models.POWER_GRID_LO + np.arange(100) * models.POWER_GRID_STEP).tolist()
EXPONENTS = st.one_of(st.sampled_from(POWER_GRID), st.floats(0.05, 5.0),
                      st.sampled_from([0.5, 1.0, 2.0]))


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNegPowers:
    """One ``np.power`` over all exponents keeps the bits of a scalar exponent per row."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_scalar_exponent_per_row(self, data):
        b3s = np.array(data.draw(st.lists(EXPONENTS, min_size=1, max_size=12)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size = (len(b3s), data.draw(st.integers(1, 200)))
        x = 10.0 ** rng.uniform(-3.0, 9.0, size if data.draw(st.booleans()) else size[1])
        assert bitwise_equal(neg_powers(x, b3s), per_row_powers(x, b3s))
        coef = np.column_stack([rng.normal(0.0, 1.0, len(b3s)), rng.normal(0.0, 10.0, len(b3s)),
                                b3s, np.full(len(b3s), np.nan)])
        seed = [seed_oracle.raw_prediction(models.fit_result(ModelForm.NEG_POWER, c, 0.1, 0.0, 12),
                                           xs) for c, xs in zip(coef, np.broadcast_to(x, size))]
        assert bitwise_equal(predict_rows(ModelForm.NEG_POWER, coef, x), np.array(seed))

    def test_unit_exponent_rows_are_reciprocals(self):
        # An array exponent of -1 misses numpy's reciprocal path on these shapes.
        x = 10.0 ** np.random.default_rng(3).uniform(-3.0, 9.0, (6, 1000))
        b3s = np.array([1.0, 0.5, 1.0, 2.0, 1.0, 0.05])
        assert (np.power(x, -b3s[:, None])[0] != 1.0 / x[0]).any()
        powers = neg_powers(x, b3s)
        assert bitwise_equal(powers[b3s == 1.0], 1.0 / x[b3s == 1.0])
        assert bitwise_equal(powers, per_row_powers(x, b3s))


class TestPredict:
    """A member's share of a forecast is its raw prediction, clamped below at zero."""

    @staticmethod
    def forecast(result, x):
        """The forecast at ``x`` of an ensemble of ``result`` alone."""
        table = table_of([result.form], [[getattr(result, n) if n else math.nan
                                          for n in COEF_FIELDS[result.form]]])
        return forecast_rate(table.ensemble(0), x, Variable.MORTALITY, CapPolicy())

    def test_matches_raw_where_positive(self):
        result = fit(ModelForm.LINEAR, WIGGLY_X, WIGGLY_Y)
        for x in (1.0, 5.0, 40.0):
            assert self.forecast(result, x) == seed_oracle.raw_prediction(result, [x])[0] > 0.0

    def test_clamped_at_zero(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ys = np.array([4.0, 3.0, 2.0, 1.0, 0.0])  # hits zero at x=5, negative past
        result = fit(ModelForm.LINEAR, xs, ys)
        assert seed_oracle.raw_prediction(result, [100.0])[0] < 0.0
        assert self.forecast(result, 100.0) == 0.0


class TestRawPredictionView:
    """``raw_prediction``, a fit's coefficient row through ``predict_rows``,
    equals the seed's one-row ``raw_prediction`` in values and shape."""

    X = np.concatenate([WIGGLY_X, [1e-6, 0.5, 40.0, 1e9],
                        10.0 ** np.random.default_rng(5).uniform(-3.0, 9.0, 40)])

    @pytest.mark.parametrize("form", FORM_ORDER)
    @pytest.mark.parametrize("b3", [1.0, 0.5, 2.0, 0.37])
    def test_equals_the_oracle(self, form, b3):
        rng = np.random.default_rng(int(b3 * 100))
        results = [fit(form, WIGGLY_X, WIGGLY_Y)] + [
            models.fit_result(form, [b1, b2, b3, x1], 0.1, 0.0, 12)
            for b1, b2, x1 in zip(rng.normal(0.0, 5.0, 8), rng.normal(0.0, 5.0, 8),
                                  10.0 ** rng.uniform(-1.0, 2.0, 8))]
        for result in results:
            for xs in (self.X, self.X.tolist(), [float(self.X[3])]):
                got, want = raw_prediction(result, xs), seed_oracle.raw_prediction(result, xs)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert (got == want).all() and bitwise_equal(got, want)


class TestCoefficientFields:
    """``COEF_FIELDS``: what ``fit_result`` sets from a coefficient row, and
    the row ``raw_prediction`` hands back to ``predict_rows``."""

    # Per form, the FitResult fields of columns b1, b2, b3 and x1 ("" for NaN).
    LAYOUT = {
        ModelForm.NULL: ("ybar", "", "", ""),
        ModelForm.LINEAR: ("beta1", "beta2", "", ""),
        ModelForm.DIVISION: ("beta1", "beta2", "", ""),
        ModelForm.NEG_LOG: ("beta1", "beta2", "", ""),
        ModelForm.NEG_POWER: ("beta1", "beta2", "beta3", ""),
        ModelForm.LINEAR_SPLINE: ("beta1", "beta2", "slope_right", "breakpoint_x1"),
        ModelForm.RIGHT_HINGE: ("beta1", "beta2", "", "breakpoint_x1"),
        ModelForm.LEFT_HINGE: ("beta1", "beta2", "", "breakpoint_x1"),
    }
    ROW = [1.5, -2.25, 0.75, 40.0]

    def test_param_count(self):
        assert PARAM_COUNT == {ModelForm.NULL: 2, ModelForm.LINEAR: 3, ModelForm.DIVISION: 3,
                               ModelForm.NEG_LOG: 3, ModelForm.NEG_POWER: 4,
                               ModelForm.LINEAR_SPLINE: 5, ModelForm.RIGHT_HINGE: 4,
                               ModelForm.LEFT_HINGE: 4}
        assert list(PARAM_COUNT) == list(FORM_ORDER)

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_fit_result_sets_the_fields_of_the_row(self, form):
        result = models.fit_result(form, np.array(self.ROW), 0.1, 0.0, 12)
        want = {name: v for name, v in zip(self.LAYOUT[form], self.ROW) if name}
        if form in (ModelForm.RIGHT_HINGE, ModelForm.LEFT_HINGE):
            want["ybar"] = -2.25 * 40.0 + 1.5
        names = ("beta1", "beta2", "beta3", "slope_right", "breakpoint_x1", "ybar")
        assert {name: getattr(result, name) for name in names} == {
            name: want.get(name) for name in names}
        assert result.k_params == PARAM_COUNT[form]

    @pytest.mark.parametrize("form", FORM_ORDER)
    def test_row_comes_back_through_raw_prediction(self, form, monkeypatch):
        seen = []
        monkeypatch.setattr(models, "predict_rows",
                            lambda f, coef, x: seen.append((f, coef)) or coef[:, :1])
        raw_prediction(models.fit_result(form, self.ROW, 0.1, 0.0, 12), [3.0])
        (got_form, coef), = seen
        want = [v if name else math.nan for name, v in zip(self.LAYOUT[form], self.ROW)]
        assert got_form is form and coef.shape == (1, 4)
        assert np.array_equal(coef[0], want, equal_nan=True)


class TestRateEnsembleType:
    """The array check of ``EnsembleTable`` that replaced the per-object
    validation of ``RateEnsemble``."""

    @staticmethod
    def table(weights, member=None):
        """One series whose members are the first forms of ``FORM_ORDER``."""
        weight = np.zeros((1, len(FORM_ORDER)))
        weight[0, :len(weights)] = weights
        if member is None:
            member = np.arange(len(FORM_ORDER)) < len(weights)
        return EnsembleTable(member=np.array([member]), coef=np.zeros((1, len(FORM_ORDER), 4)),
                             weight=weight, sigma=np.ones_like(weight),
                             aicc=np.zeros_like(weight), n_fit=np.array([12]))

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            self.table([0.5])
        with pytest.raises(ValueError):
            self.table([0.7, 0.7])
        with pytest.raises(ValueError):
            self.table([1.5, -0.5])
        with pytest.raises(ValueError):
            self.table([], member=np.zeros(len(FORM_ORDER), dtype=bool))

    def test_members_must_be_distinct(self):
        # One column per form: a form appears once or not at all, and no
        # weight may sit on a form outside the ensemble.
        with pytest.raises(ValueError):
            self.table([0.5, 0.5], member=np.arange(len(FORM_ORDER)) < 1)

    def test_valid_ensemble_accepted(self):
        ensemble = self.table([1.0]).ensemble(0)
        assert ensemble.weights == (1.0,)
        assert [m.form for m in ensemble.members] == [ModelForm.NULL]


class TestBreakpointCandidates:
    def test_equal_unique_on_duplicated_x(self):
        rng = np.random.default_rng(11)
        for x in (np.repeat(WIGGLY_X, 3), np.tile(WIGGLY_X[:5], 4),
                  np.round(rng.uniform(1.0, 9.0, 60)), np.full(9, 2.0),
                  np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])):
            rng.shuffle(x)
            xs_sorted = np.sort(x)
            expected = np.unique(xs_sorted[2:-2])
            expected = expected[(expected > xs_sorted[0]) & (expected < xs_sorted[-1])]
            got = _breakpoint_candidates(x)
            assert got.shape == expected.shape and (got == expected).all()

    def test_fitting_does_not_import_numpy_ma(self):
        script = ("import sys\n"
                  "from demotrend.models import ModelForm, fit\n"
                  "fit(ModelForm.LINEAR_SPLINE, [1, 2, 2, 3, 4, 5, 6, 6, 7], [3, 1, 2, 0, 2, 1, 3, 2, 4])\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
