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
from functools import cached_property

import numpy as np

from .augmentation import build_augmented_series
from .core import AGE_BANDS, FERTILE_BANDS, SEX_COLUMNS, Record, Sex, Variable
from .data_ingest import Dataset
from .errors import DegenerateX, InsufficientData, NonPositiveGdp, NoWeightData
from .models import (
    FORM_ORDER,
    FitResult,
    PARAM_COUNT,
    RSS_FLOOR,
    evidence_weights,
    fit_result,
    fit_rows,
    predict_rows,
    scores,
    sumsq,
)


class CapPolicy(Record, frozen=True):
    """GDP ceiling applied to fertility model inputs; mortality is uncapped."""

    fertility_cap_gdp: float = 30000.0

    def __post_init__(self):
        if not math.isfinite(self.fertility_cap_gdp) or self.fertility_cap_gdp <= 0.0:
            raise ValueError("fertility cap must be positive and finite")


class EnsembleTable(Record, frozen=True, eq=False):
    """The ensembles of S rate series, one column per form of ``FORM_ORDER``.

    ``member`` (S, 8) marks the forms in each ensemble. ``coef`` (S, 8, 4)
    holds their coefficients as ``models.fit_rows`` returns them, and
    ``weight``, ``sigma`` and ``aicc`` (S, 8) their evidence weights and
    their scores on the ``n_fit`` (S,) target observations. A form outside
    an ensemble has weight 0.
    """

    member: np.ndarray
    coef: np.ndarray
    weight: np.ndarray
    sigma: np.ndarray
    aicc: np.ndarray
    n_fit: np.ndarray

    def __post_init__(self):
        w = self.weight
        if (self.coef.shape != (*w.shape, 4) or w.shape[1:] != (len(FORM_ORDER),)
                or not self.member.any(axis=1).all()
                or not ((w >= 0.0) & (w <= 1.0) & (self.member | (w == 0.0))).all()
                or (np.abs(w.sum(axis=1) - 1.0) > 1e-9).any()):
            raise ValueError("every ensemble needs a member, and weights in [0, 1] "
                             "that are 0 off its members and sum to 1")

    @classmethod
    def concat(cls, tables) -> EnsembleTable:
        return cls(*(np.concatenate([getattr(t, name) for t in tables]) for name in cls._fields))

    def ensemble(self, row: int) -> RateEnsemble:
        """The one-series view of ``row``."""
        one = EnsembleTable(*(getattr(self, name)[row:row + 1] for name in self._fields))
        cols = np.flatnonzero(one.member[0]).tolist()
        return RateEnsemble(
            members=tuple(fit_result(FORM_ORDER[j], one.coef[0, j], one.sigma[0, j].item(),
                                     one.aicc[0, j].item(), one.n_fit.item()) for j in cols),
            weights=tuple(one.weight[0, cols].tolist()), table=one)

    def forecast(self, x: np.ndarray) -> np.ndarray:
        """Weighted forecasts ``(S, T)`` at GDP values ``x``, ``(T,)`` or ``(S, T)``.

        Each member's prediction is clamped below at zero, weighted and
        added in ``FORM_ORDER``. A form outside an ensemble is skipped, not
        weighted by 0: ``0 * inf`` is NaN.
        """
        total = np.zeros(np.broadcast_shapes((len(self.weight), 1), np.shape(x)))
        for j, form in enumerate(FORM_ORDER):
            members = self.member[:, j, None]
            if members.any():
                value = predict_rows(form, self.coef[:, j], x)
                np.add(total, self.weight[:, j, None] * np.where(value > 0.0, value, 0.0),
                       out=total, where=members)
        return total


class RateEnsemble(Record, frozen=True, hidden=("table",)):
    """One series' ensemble as read from a table row: its members in
    ``FORM_ORDER``, their evidence weights, and that one-row table."""

    members: tuple[FitResult, ...]
    weights: tuple[float, ...]
    table: EnsembleTable


class CountryEnsembles(Record, frozen=True, eq=False):
    """Fitted ensembles for one country: 6 fertility bands, 21x2 mortality.

    ``table`` has one row per fitted series. ``fertility_rows`` (6,) and
    ``mortality_rows`` (21, 2), with columns in ``SEX_COLUMNS`` order, give
    each series' row; a band shared by both sexes has one row.
    """

    table: EnsembleTable
    fertility_rows: np.ndarray
    mortality_rows: np.ndarray

    @cached_property
    def _views(self) -> list[RateEnsemble]:
        return [self.table.ensemble(row) for row in range(len(self.table.n_fit))]

    @property
    def fertility(self) -> dict[str, RateEnsemble]:
        return {band: self._views[row]
                for band, row in zip(FERTILE_BANDS, self.fertility_rows.tolist())}

    @property
    def mortality(self) -> dict[tuple[str, Sex], RateEnsemble]:
        return {(band, sex): self._views[row]
                for band, pair in zip(AGE_BANDS, self.mortality_rows.tolist())
                for sex, row in zip(SEX_COLUMNS, pair)}


def build_ensemble(fit_points, weight_points) -> RateEnsemble:
    """Ensemble of one series; see ``build_ensembles``.

    ``fit_points`` and ``weight_points`` are sequences of (gdp, rate) pairs.
    """
    fp = np.asarray(fit_points, dtype=float).reshape(-1, 2)
    wp = np.asarray(weight_points, dtype=float).reshape(-1, 2)
    return build_ensembles(fp[:, 0], [fp[:, 1]], wp[:, 0], [wp[:, 1]]).ensemble(0)


def build_ensembles(fit_x, fit_rates, weight_x, weight_rates) -> EnsembleTable:
    """Fit all admissible forms and weight them by corrected-criterion evidence,
    for each of several rate series that share one GDP sample.

    Row i of ``fit_rates`` and of ``weight_rates`` holds series i's rates at
    the GDP values ``fit_x`` and ``weight_x``. Coefficients come from the fit
    sample; residuals, sigma, and the criterion are then recomputed on the
    weight sample with n equal to the scoring sample size and k unchanged.
    Forms whose preconditions fail are skipped; these depend on the GDP
    sample only, so every series has the same members. At least the flat
    null form always survives; when it is the only survivor on a sample too
    small to score, it carries weight 1 and an infinite criterion value.
    Each series' ensemble is the same as when it is built on its own.
    """
    fx = np.asarray(fit_x, dtype=float)
    fys = np.ascontiguousarray(fit_rates, dtype=float)  # rows reduce as 1-d arrays
    wx = np.asarray(weight_x, dtype=float)
    wys = np.ascontiguousarray(weight_rates, dtype=float)
    n_w = wx.size
    if n_w == 0:
        raise NoWeightData("ensemble weighting requires target observations")
    if wx.ndim != 1 or wys.shape != (len(fys), n_w):
        raise ValueError("weight_rates must hold one row per series, as long as weight_x")

    shape = (len(wys), len(FORM_ORDER))
    member, coef = np.zeros(shape, dtype=bool), np.full((*shape, 4), np.nan)
    weight, sigma, aicc = np.zeros(shape), np.full(shape, np.nan), np.full(shape, np.nan)
    for j, form in enumerate(FORM_ORDER):
        if n_w <= PARAM_COUNT[form] + 1:
            continue  # criterion undefined on the scoring sample
        try:
            coef[:, j], _ = fit_rows(form, fx, fys)
        except (InsufficientData, DegenerateX):
            continue
        member[:, j] = True
        sigma[:, j], aicc[:, j] = scores(sumsq(wys - predict_rows(form, coef[:, j], wx)),
                                         n_w, PARAM_COUNT[form])
    cols = np.flatnonzero(member.any(axis=0))
    if cols.size == 0:
        coef[:, 0, 0] = fys.mean(axis=1)
        rss_w = np.square(wys - coef[:, 0, :1]).sum(axis=1)
        member[:, 0], aicc[:, 0] = True, math.inf
        sigma[:, 0] = np.sqrt(np.maximum(rss_w, RSS_FLOOR) / n_w)
        cols = [0]
    weight[:, cols] = 1.0 if len(cols) == 1 else evidence_weights(aicc[:, cols])
    return EnsembleTable(member, coef, weight, sigma, aicc, np.full(len(wys), n_w))


def model_inputs(gdp, cap: CapPolicy) -> tuple[np.ndarray, np.ndarray]:
    """A checked 1-d GDP sequence as the mortality and the fertility model
    inputs: fertility is evaluated at ``min(gdp, cap)``, so any GDP at or
    above the cap produces the identical forecast."""
    gdp = np.asarray(gdp, dtype=float)
    bad = gdp[~(np.isfinite(gdp) & (gdp > 0.0))]
    if bad.size:
        raise NonPositiveGdp(f"forecast requires positive finite GDP, got {bad[0]}")
    return gdp, np.minimum(gdp, cap.fertility_cap_gdp)


def forecast_rate(ensemble: RateEnsemble, gdp: float, variable: Variable,
                  cap: CapPolicy) -> float:
    """Weighted ensemble forecast of one series at one GDP level."""
    mortality_x, fertility_x = model_inputs([gdp], cap)
    x = fertility_x if variable is Variable.FERTILITY else mortality_x
    return ensemble.table.forecast(x).item()


def build_country_ensembles(dataset: Dataset, iso3: str, donors,
                            cache: dict | None = None) -> CountryEnsembles:
    """Build (or fetch from ``cache``) every rate ensemble for one country.

    The cache key is (iso3, donor tuple), so identical donor sets across
    scenarios reuse the fitted ensembles. A mortality band whose Female
    and Male samples are the same, because neither the country nor any
    donor has sex-specific rows for it, is fitted once on the Both rows and
    shared by both sexes. The series are grouped by their fit and weight
    GDP samples, and each group is built in one ``build_ensembles`` call.
    """
    donors = tuple(donors)
    cache = {} if cache is None else cache
    if (iso3, donors) in cache:
        return cache[(iso3, donors)]
    sexed = dataset.sexed_mortality
    shared = {band for band in AGE_BANDS if all((c, band) not in sexed for c in (iso3, *donors))}
    wanted = [(Variable.FERTILITY, band, None) for band in FERTILE_BANDS]
    for band in AGE_BANDS:
        wanted += [(Variable.MORTALITY, band, sex)
                   for sex in ((Sex.BOTH,) if band in shared else SEX_COLUMNS)]

    groups: dict[tuple[bytes, bytes], list] = {}
    for variable, band, sex in wanted:
        series = build_augmented_series(iso3, donors, variable, band, dataset, sex=sex)
        sample = (series.fit_gdp.tobytes(), series.weight_gdp.tobytes())
        groups.setdefault(sample, []).append(((variable, band, sex), series))
    order, tables = [], []
    for group in groups.values():
        keys, members = zip(*group)
        order.extend(keys)
        tables.append(build_ensembles(
            members[0].fit_gdp, [s.fit_rate for s in members],
            members[0].weight_gdp, [s.weight_rate for s in members]))
    row = {key: i for i, key in enumerate(order)}
    cache[(iso3, donors)] = CountryEnsembles(
        table=EnsembleTable.concat(tables),
        fertility_rows=np.array([row[(Variable.FERTILITY, band, None)] for band in FERTILE_BANDS]),
        mortality_rows=np.array([[row[(Variable.MORTALITY, band, Sex.BOTH if band in shared
                                       else sex)] for sex in SEX_COLUMNS] for band in AGE_BANDS]))
    return cache[(iso3, donors)]
