import math
import os
import subprocess
import sys

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
from demotrend.models import (
    FORM_ORDER,
    FitResult,
    ModelForm,
    PARAM_COUNT,
    RSS_FLOOR,
    aicc,
    akaike_weights,
    fit,
    fit_rows,
    neg_powers,
    predict,
    predict_rows,
    raw_prediction,
    _breakpoint_candidates,
    _solve_stack,
)
from demotrend.rate_forecast import EnsembleTable

from conftest import oracle_prediction

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
        assert np.allclose(oracle_prediction(result, WIGGLY_X), base10, atol=1e-9)

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
        mine = float(np.square(WIGGLY_Y - oracle_prediction(result, WIGGLY_X)).sum())
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


def oracle_breakpoint(form, x, y):
    """Exhaustive candidate scan with normal-equation solves."""
    xs_sorted = np.sort(x)
    candidates = np.unique(xs_sorted[2:-2])
    candidates = candidates[(candidates > xs_sorted[0]) & (candidates < xs_sorted[-1])]
    best = math.inf
    for c in candidates:
        if form is ModelForm.LINEAR_SPLINE:
            cols = np.column_stack([np.ones_like(x), x, np.maximum(x - c, 0.0)])
        elif form is ModelForm.RIGHT_HINGE:
            cols = np.column_stack([np.ones_like(x), np.minimum(x, c)])
        else:
            cols = np.column_stack([np.ones_like(x), np.maximum(x, c)])
        coef = np.linalg.solve(cols.T @ cols, cols.T @ y)
        rss = float(np.square(y - cols @ coef).sum())
        best = min(best, rss)
    return best


SEARCHED_FORMS = [ModelForm.NEG_POWER, ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE,
                  ModelForm.LEFT_HINGE]


def lstsq_rss(columns, y):
    a = np.column_stack(columns)
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    resid = y - a @ coef
    return coef, float(resid @ resid)


def exhaustive_fit(form, xs, ys):
    """Searched fit with one lstsq solve per candidate, ascending, first strict
    minimum kept; the exponent is then refined by golden-section search."""
    x = np.asarray(xs, float)
    y = np.asarray(ys, float)
    n, k = x.size, PARAM_COUNT[form]
    ones = np.ones(n)
    best = None
    if form is ModelForm.NEG_POWER:
        for i in range(100):
            b3 = 0.05 + i * 0.05
            coef, rss = lstsq_rss([ones, x ** (-b3)], y)
            if best is None or rss < best[0]:
                best = (rss, b3)
        best_rss, best_b3 = best
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = max(0.05, best_b3 - 0.05), min(5.0, best_b3 + 0.05)
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc = lstsq_rss([ones, x ** (-c)], y)[1]
        fd = lstsq_rss([ones, x ** (-d)], y)[1]
        while (hi - lo) > 1e-6 * 0.5 * (lo + hi):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = lstsq_rss([ones, x ** (-c)], y)[1]
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = lstsq_rss([ones, x ** (-d)], y)[1]
        b3 = 0.5 * (lo + hi)
        coef, rss = lstsq_rss([ones, x ** (-b3)], y)
        if best_rss < rss:
            b3 = best_b3
            coef, rss = lstsq_rss([ones, x ** (-b3)], y)
        fields = dict(beta1=float(coef[0]), beta2=float(coef[1]), beta3=float(b3))
    else:
        xs_sorted = np.sort(x)
        candidates = np.unique(xs_sorted[2:-2])
        candidates = candidates[(candidates > xs_sorted[0]) & (candidates < xs_sorted[-1])]
        if candidates.size == 0:
            return None
        for c in candidates:
            if form is ModelForm.LINEAR_SPLINE:
                cols = [ones, x, np.maximum(x - c, 0.0)]
            elif form is ModelForm.RIGHT_HINGE:
                cols = [ones, np.minimum(x, c)]
            else:
                cols = [ones, np.maximum(x, c)]
            coef, rss = lstsq_rss(cols, y)
            if best is None or rss < best[0]:
                best = (rss, float(c), coef)
        rss, x1, coef = best
        b1, b2 = float(coef[0]), float(coef[1])
        fields = dict(beta1=b1, beta2=b2, breakpoint_x1=x1)
        if form is ModelForm.LINEAR_SPLINE:
            fields["slope_right"] = b2 + float(coef[2])
        else:
            fields["ybar"] = b1 + b2 * x1
    return FitResult(form=form, sigma=math.sqrt(max(rss, RSS_FLOOR) / n), n_fit=n,
                     k_params=k, aicc=aicc(rss, n, k), **fields)


def assert_matches_exhaustive(form, xs, ys):
    expected = exhaustive_fit(form, xs, ys)
    if expected is None:
        with pytest.raises(DegenerateX):
            fit(form, xs, ys)
        return None
    assert fit(form, xs, ys) == expected
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
    """The screened search returns exactly what a solve of every candidate does."""

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_fixture_series(self, form):
        assert_matches_exhaustive(form, WIGGLY_X, WIGGLY_Y)

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_mirror_symmetric_ties(self, form):
        assert_matches_exhaustive(form, MIRROR_X, MIRROR_Y)

    def test_mirror_knots_tie(self):
        # The two best spline knots differ in RSS by rounding only.
        ones = np.ones(MIRROR_X.size)
        rss = {c: lstsq_rss([ones, MIRROR_X, np.maximum(MIRROR_X - c, 0.0)], MIRROR_Y)[1]
               for c in MIRROR_X[2:-2]}
        best = min(rss.values())
        assert sorted(c for c, v in rss.items() if v <= best * (1.0 + 1e-12)) == [4.0, 8.0]

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_duplicated_x(self, form):
        xs = np.repeat(WIGGLY_X, 2)
        ys = np.repeat(WIGGLY_Y, 2) + np.tile([0.05, -0.05], WIGGLY_X.size)
        assert_matches_exhaustive(form, xs, ys)

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_perfect_fit_at_rss_floor(self, form):
        expected = assert_matches_exhaustive(form, PERFECT_X, PERFECT_Y[form])
        assert expected.sigma == math.sqrt(RSS_FLOOR / PERFECT_X.size)

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_constant_y(self, form):
        assert_matches_exhaustive(form, WIGGLY_X, np.full(WIGGLY_X.size, 2.5))

    # Magnitudes keep x ** -5 and y . y finite, as for GDP and rates.
    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_samples(self, form, data):
        n = data.draw(st.integers(PARAM_COUNT[form] + 2, 40))
        xs = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
        ys = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        if len(set(xs)) > 1:
            assert_matches_exhaustive(form, xs, ys)

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
        expected = [exhaustive_fit(form, xs, y) for y in rows]
        if expected[0] is None:
            with pytest.raises(DegenerateX):
                fit_rows(form, xs, rows)
        else:
            assert fitted_rows(form, xs, rows) == expected


def fitted_rows(form, xs, rows):
    """``fit_rows`` as one ``FitResult`` per row, scored as ``fit`` scores."""
    coef, rss = fit_rows(form, xs, rows)
    sigma, score = models.scores(rss, len(xs), PARAM_COUNT[form])
    return [models.fit_result(form, c, s, a, len(xs))
            for c, s, a in zip(coef, sigma.tolist(), score.tolist())]


class TestFitRows:
    """A batch of rows on one x fits each row as the exhaustive scan does."""

    ROWS = [WIGGLY_Y, np.full(WIGGLY_X.size, 2.5), WIGGLY_Y[::-1] * 1e3,
            np.log(WIGGLY_X), WIGGLY_Y + np.tile([0.3, -0.3], WIGGLY_X.size // 2)]

    @pytest.mark.parametrize("form", SEARCHED_FORMS)
    def test_batch_matches_exhaustive(self, form):
        assert fitted_rows(form, WIGGLY_X, self.ROWS) == [
            exhaustive_fit(form, WIGGLY_X, y) for y in self.ROWS]
        rows = [PERFECT_Y[f] for f in SEARCHED_FORMS]
        assert fitted_rows(form, PERFECT_X, rows) == [
            exhaustive_fit(form, PERFECT_X, y) for y in rows]
        assert fitted_rows(form, MIRROR_X, [MIRROR_Y])[0] == exhaustive_fit(form, MIRROR_X,
                                                                             MIRROR_Y)

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
            assert np.array_equal(row, oracle_prediction(result, x))

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
            assert fitted[name] == exhaustive_fit(ModelForm.NEG_POWER, self.X, y), name
            assert fitted[name] == fit(ModelForm.NEG_POWER, self.X, y), name


class TestBreakpointForms:
    @pytest.mark.parametrize("form", [ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE,
                                      ModelForm.LEFT_HINGE])
    def test_matches_exhaustive_oracle(self, form):
        result = fit(form, WIGGLY_X, WIGGLY_Y)
        mine = float(np.square(WIGGLY_Y - oracle_prediction(result, WIGGLY_X)).sum())
        assert mine == pytest.approx(oracle_breakpoint(form, WIGGLY_X, WIGGLY_Y),
                                     rel=1e-6)

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
        left = float(oracle_prediction(result, np.array([x1 * (1 - 1e-9)]))[0])
        right = float(oracle_prediction(result, np.array([x1 * (1 + 1e-9)]))[0])
        assert left == pytest.approx(right, rel=1e-6)

    def test_right_hinge_flat_above_breakpoint(self):
        result = fit(ModelForm.RIGHT_HINGE, WIGGLY_X, WIGGLY_Y)
        x1 = result.breakpoint_x1
        plateau = result.beta1 + result.beta2 * x1
        assert result.ybar == pytest.approx(plateau, abs=1e-12)
        far = float(oracle_prediction(result, np.array([x1 + 100.0]))[0])
        assert far == pytest.approx(plateau, abs=1e-9)

    def test_left_hinge_flat_below_breakpoint(self):
        result = fit(ModelForm.LEFT_HINGE, WIGGLY_X, WIGGLY_Y)
        x1 = result.breakpoint_x1
        plateau = result.beta1 + result.beta2 * x1
        near_zero = float(oracle_prediction(result, np.array([1e-6]))[0])
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
        rss = float(np.square(WIGGLY_Y - oracle_prediction(result, WIGGLY_X)).sum())
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


def per_row_neg_power_prediction(coef, x):
    """The negative-power branch of ``predict_rows`` as a per-row loop, verbatim."""
    b1, b2, b3, x1 = (coef[:, j, None] for j in range(4))
    powers = np.empty(np.broadcast_shapes(b1.shape, x.shape))
    for out, xs, exponent in zip(powers, np.broadcast_to(x, powers.shape),
                                 coef[:, 2].tolist()):
        out[...] = xs ** -exponent
    return b1 + b2 * powers


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
        assert bitwise_equal(predict_rows(ModelForm.NEG_POWER, coef, x),
                             per_row_neg_power_prediction(coef, x))

    def test_unit_exponent_rows_are_reciprocals(self):
        # An array exponent of -1 misses numpy's reciprocal path on these shapes.
        x = 10.0 ** np.random.default_rng(3).uniform(-3.0, 9.0, (6, 1000))
        b3s = np.array([1.0, 0.5, 1.0, 2.0, 1.0, 0.05])
        assert (np.power(x, -b3s[:, None])[0] != 1.0 / x[0]).any()
        powers = neg_powers(x, b3s)
        assert bitwise_equal(powers[b3s == 1.0], 1.0 / x[b3s == 1.0])
        assert bitwise_equal(powers, per_row_powers(x, b3s))


class TestPredict:
    def test_matches_raw_where_positive(self):
        result = fit(ModelForm.LINEAR, WIGGLY_X, WIGGLY_Y)
        for x in (1.0, 5.0, 40.0):
            assert predict(result, x) == pytest.approx(
                float(oracle_prediction(result, np.array([x]))[0]))

    def test_clamped_at_zero(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ys = np.array([4.0, 3.0, 2.0, 1.0, 0.0])  # hits zero at x=5, negative past
        result = fit(ModelForm.LINEAR, xs, ys)
        assert predict(result, 100.0) == 0.0

    def test_rejects_non_positive_gdp(self):
        result = fit(ModelForm.LINEAR, WIGGLY_X, WIGGLY_Y)
        with pytest.raises(NonPositiveX):
            predict(result, 0.0)
        with pytest.raises(NonPositiveX):
            predict(result, -3.0)


class TestRawPredictionView:
    """``raw_prediction``, a fit's coefficient row through ``predict_rows``,
    equals the one-row oracle in values and shape."""

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
                got, want = raw_prediction(result, xs), oracle_prediction(result, xs)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert (got == want).all() and bitwise_equal(got, want)


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
