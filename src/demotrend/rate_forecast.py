"""Ensemble construction and rate forecasting.

Every candidate form that can be fitted on the (possibly donor-augmented)
sample joins the ensemble; each member keeps its fitted coefficients but is
re-scored on the target's own observations, so evidence weights reflect how
well the borrowed shape explains the target. Forecasts are the weight-
averaged predictions, with fertility inputs capped at a configurable GDP
level beyond which fertility is treated as decoupled from further growth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .augmentation import build_augmented_series
from .core import AGE_BANDS, FERTILE_BANDS, Sex, Variable
from .data_ingest import Dataset
from .errors import DegenerateX, InsufficientData, NonPositiveGdp, NoWeightData
from .models import (
    FORM_ORDER,
    FitResult,
    ModelForm,
    PARAM_COUNT,
    RSS_FLOOR,
    RateEnsemble,
    aicc,
    akaike_weights,
    fit_rows,
    predict_clamped,
    raw_prediction,
)


@dataclass(frozen=True)
class CapPolicy:
    """GDP ceiling applied to fertility model inputs; mortality is uncapped."""

    fertility_cap_gdp: float = 30000.0

    def __post_init__(self):
        if not math.isfinite(self.fertility_cap_gdp) or self.fertility_cap_gdp <= 0.0:
            raise ValueError("fertility cap must be positive and finite")


@dataclass(frozen=True)
class CountryEnsembles:
    """Fitted ensembles for one country: 6 fertility bands, 21x2 mortality."""

    fertility: dict[str, RateEnsemble]
    mortality: dict[tuple[str, Sex], RateEnsemble]


def build_ensemble(fit_points, weight_points) -> RateEnsemble:
    """Ensemble of one series; see ``build_ensembles``.

    ``fit_points`` and ``weight_points`` are sequences of (gdp, rate) pairs.
    """
    fp = np.asarray(fit_points, dtype=float).reshape(-1, 2)
    wp = np.asarray(weight_points, dtype=float).reshape(-1, 2)
    return build_ensembles(fp[:, 0], [fp[:, 1]], wp[:, 0], [wp[:, 1]])[0]


def build_ensembles(fit_x, fit_rates, weight_x, weight_rates) -> list[RateEnsemble]:
    """Fit all admissible forms and weight them by corrected-criterion evidence,
    for each of several rate series that share one GDP sample.

    Row i of ``fit_rates`` and of ``weight_rates`` holds series i's rates at
    the GDP values ``fit_x`` and ``weight_x``. Coefficients come from the fit
    sample; residuals, sigma, and the criterion are then recomputed on the
    weight sample with n equal to the scoring sample size and k unchanged.
    Forms whose preconditions fail are skipped. At least the flat null form
    always survives; when it is the only survivor on a sample too small to
    score, it carries weight 1 and an infinite criterion value. Each
    series' ensemble is the same as when it is built on its own.
    """
    fx = np.asarray(fit_x, dtype=float)
    fys = np.asarray(fit_rates, dtype=float)
    wx = np.asarray(weight_x, dtype=float)
    wys = np.asarray(weight_rates, dtype=float)
    n_w = wx.size
    if n_w == 0:
        raise NoWeightData("ensemble weighting requires target observations")
    if wx.ndim != 1 or wys.shape != (len(fys), n_w):
        raise ValueError("weight_rates must hold one row per series, as long as weight_x")

    members: list[list[FitResult]] = [[] for _ in wys]
    for form in FORM_ORDER:
        k = PARAM_COUNT[form]
        if n_w <= k + 1:
            continue  # criterion undefined on the scoring sample
        try:
            fitted = fit_rows(form, fx, fys)
        except (InsufficientData, DegenerateX):
            continue
        for row, f, wy in zip(members, fitted, wys):
            resid = wy - raw_prediction(f, wx)
            rss_w = float(resid @ resid)
            row.append(replace(f, sigma=math.sqrt(max(rss_w, RSS_FLOOR) / n_w),
                               n_fit=n_w, aicc=aicc(rss_w, n_w, k)))
    return [_weighted(row, fy, wy) for row, fy, wy in zip(members, fys, wys)]


def _weighted(members: list[FitResult], fy: np.ndarray, wy: np.ndarray) -> RateEnsemble:
    n_w = wy.size
    if not members:
        ybar = float(fy.mean())
        rss_w = float(np.square(wy - ybar).sum())
        fallback = FitResult(form=ModelForm.NULL, ybar=ybar,
                             sigma=math.sqrt(max(rss_w, RSS_FLOOR) / n_w),
                             n_fit=n_w, k_params=PARAM_COUNT[ModelForm.NULL],
                             aicc=math.inf)
        return RateEnsemble(members=(fallback,), weights=(1.0,))
    if len(members) == 1:
        weights: tuple[float, ...] = (1.0,)
    else:
        weights = tuple(akaike_weights([m.aicc for m in members]))
    return RateEnsemble(members=tuple(members), weights=weights)


def forecast_rate(ensemble: RateEnsemble, gdp: float, variable: Variable,
                  cap: CapPolicy) -> float:
    """Weighted ensemble forecast at one GDP level (see ``forecast_pathway``)."""
    return float(forecast_pathway(ensemble, [gdp], variable, cap)[0])


def forecast_pathway(ensemble: RateEnsemble, gdp, variable: Variable,
                     cap: CapPolicy) -> np.ndarray:
    """Weighted ensemble forecast at each value of a 1-d GDP sequence.

    Fertility is evaluated at ``min(gdp, cap)`` so any GDP at or above the
    cap produces the identical forecast; mortality uses GDP as given. The
    zero-clamped member predictions are summed in member order.
    """
    gdp = np.asarray(gdp, dtype=float)
    bad = gdp[~(np.isfinite(gdp) & (gdp > 0.0))]
    if bad.size:
        raise NonPositiveGdp(f"forecast requires positive finite GDP, got {bad[0]}")
    x = np.minimum(gdp, cap.fertility_cap_gdp) if variable is Variable.FERTILITY else gdp
    total = np.zeros(gdp.shape)
    for m, w in zip(ensemble.members, ensemble.weights):
        total += w * predict_clamped(m, x)
    return total


def build_country_ensembles(dataset: Dataset, iso3: str, donors,
                            cache: dict | None = None) -> CountryEnsembles:
    """Build (or fetch from ``cache``) every rate ensemble for one country.

    The cache key is (iso3, donor tuple, variable, age band, sex token),
    so identical donor sets across scenarios reuse fitted ensembles. A
    mortality band whose Female and Male samples are the same, because
    neither the country nor any donor has sex-specific rows for it, is
    fitted once on the Both rows and shared by both sexes. The series not
    in the cache are grouped by their fit and weight GDP samples, and each
    group is built in one ``build_ensembles`` call.
    """
    donors = tuple(donors)
    shared = {band for band in AGE_BANDS
              if all(dataset.sexes_share_mortality(c, band) for c in (iso3, *donors))}
    wanted = [(Variable.FERTILITY, band, None) for band in FERTILE_BANDS]
    for band in AGE_BANDS:
        wanted += [(Variable.MORTALITY, band, sex)
                   for sex in ((Sex.BOTH,) if band in shared else (Sex.FEMALE, Sex.MALE))]

    def key(variable, band, sex):
        return (iso3, donors, variable.value, band, sex.value if sex else None)

    cache = {} if cache is None else cache
    groups: dict[tuple[bytes, bytes], list] = {}
    for variable, band, sex in wanted:
        series_key = key(variable, band, sex)
        if series_key not in cache:
            series = build_augmented_series(iso3, donors, variable, band, dataset, sex=sex)
            sample = (series.fit_gdp.tobytes(), series.weight_gdp.tobytes())
            groups.setdefault(sample, []).append((series_key, series))
    for group in groups.values():
        keys, members = zip(*group)
        cache.update(zip(keys, build_ensembles(
            members[0].fit_gdp, [s.fit_rate for s in members],
            members[0].weight_gdp, [s.weight_rate for s in members])))

    return CountryEnsembles(
        fertility={band: cache[key(Variable.FERTILITY, band, None)] for band in FERTILE_BANDS},
        mortality={(band, sex): cache[key(Variable.MORTALITY, band,
                                          Sex.BOTH if band in shared else sex)]
                   for band in AGE_BANDS for sex in (Sex.FEMALE, Sex.MALE)})
