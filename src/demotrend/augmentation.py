"""Donor-country augmentation for sparse rate histories.

A poor country's observed GDP range says nothing about how its rates will
behave at income levels it has never experienced. Richer countries whose
recent history sits inside the target's projected GDP corridor are borrowed
as donors: their (GDP, rate) pairs extend the fitting sample, while model
scoring stays restricted to the target's own observations so that borrowed
points can shape curves but not inflate evidence.
"""
from __future__ import annotations

import numpy as np

from .core import Record, Sex, Variable
from .data_ingest import Dataset
from .errors import NoTargetData

# Calendar windows for pair construction, inclusive.
TARGET_WINDOW = (1950, 2015)
DONOR_WINDOW = (1990, 2015)


class DonorRule(Record, frozen=True):
    """Admission test for donor countries under one scenario.

    A candidate qualifies when its minimum GDP per capita inside
    ``DONOR_WINDOW`` exceeds the target's 2015 level and its maximum
    stays below the ceiling of the target's projected GDP pathway.
    """

    target_gdp_2015: float
    target_pathway_max: float

    def __post_init__(self):
        if not (np.isfinite(self.target_gdp_2015) and self.target_gdp_2015 > 0.0):
            raise ValueError("target 2015 GDP must be positive and finite")
        if not self.target_pathway_max >= self.target_gdp_2015:  # NaN fails too
            raise ValueError("pathway maximum must be a number at or above the 2015 level")


class AugmentedSeries(Record, eq=False):
    """Fitting sample (target plus donors) and target-only scoring sample."""

    fit_gdp: np.ndarray
    fit_rate: np.ndarray
    weight_gdp: np.ndarray
    weight_rate: np.ndarray


def donor_sets(candidates, floors, ceilings) -> list[list[str]]:
    """For each (floor, ceiling) pair, the sorted iso3 codes of ``candidates``
    (iso3 to a (years, values) GDP series) whose GDP inside ``DONOR_WINDOW``
    lies strictly between the two, decided in one (pairs, candidates)
    comparison. A candidate without GDP inside the window never qualifies."""
    names = sorted(candidates)
    low, high = np.full((2, len(names)), np.nan)  # NaN compares False: never admitted
    for j, (years, values) in enumerate(map(candidates.get, names)):
        window = values[(years >= DONOR_WINDOW[0]) & (years <= DONOR_WINDOW[1])]
        if window.size:
            low[j], high[j] = window.min(), window.max()
    admitted = ((low > np.asarray(floors, dtype=float)[:, None])
                & (high < np.asarray(ceilings, dtype=float)[:, None]))
    return [[names[j] for j in np.flatnonzero(row)] for row in admitted]


def select_donors(rule: DonorRule, candidates) -> list[str]:
    """``donor_sets`` of one rule; the target must not be among the candidates."""
    return donor_sets(candidates, [rule.target_gdp_2015], [rule.target_pathway_max])[0]


def build_augmented_series(target: str, donors, variable: Variable, age_group: str,
                           dataset: Dataset, sex: Sex | None = None) -> AugmentedSeries:
    """Assemble (GDP, rate) pairs for one rate series.

    Pairs are annual: within each country's window, every calendar year
    covered by both its rate observations and its GDP observations yields
    one pair, with linear interpolation filling years between observed
    points. Target pairs span 1950-2015, donor pairs 1990-2015. The
    scoring sample contains the target's pairs only.
    """
    target_pairs = _annual_pairs(dataset, target, variable, age_group, sex, TARGET_WINDOW)
    if target_pairs is None:
        raise NoTargetData(f"{target}: no usable {variable.value} history for {age_group}")
    donor_pairs = [_annual_pairs(dataset, donor, variable, age_group, sex, DONOR_WINDOW)
                   for donor in donors]
    fit_gdp, fit_rate = (np.concatenate(arrays) for arrays in zip(
        target_pairs, *(pairs for pairs in donor_pairs if pairs is not None)))
    return AugmentedSeries(fit_gdp=fit_gdp, fit_rate=fit_rate,
                           weight_gdp=target_pairs[0].copy(),
                           weight_rate=target_pairs[1].copy())


def _annual_pairs(dataset, iso3, variable, age_group, sex, window):
    """One country's annual (GDP, rate) arrays inside ``window``, or None; memoized,
    read-only, on the dataset by the rate series read and the window, so Female
    and Male mortality that fall back to the Both rows share an entry."""
    series = dataset.rate_key(iso3, variable, age_group, sex)
    key = ("annual_pairs", series, window)
    if series is not None and key not in dataset.memo:
        dataset.memo[key] = _interpolated(dataset.rate_index[series],
                                          dataset.gdp_hist_series(iso3), window)
    return dataset.memo.get(key)


def _interpolated(rate_series, gdp_series, window):
    (rate_years, rate_values), (gdp_years, gdp_values) = rate_series, gdp_series
    if gdp_years.size == 0:
        return None
    lo = int(max(window[0], rate_years[0], gdp_years[0]))
    hi = int(min(window[1], rate_years[-1], gdp_years[-1]))
    if hi < lo:
        return None
    years = np.arange(lo, hi + 1, dtype=float)
    pairs = (np.interp(years, gdp_years, gdp_values), np.interp(years, rate_years, rate_values))
    for array in pairs:
        array.flags.writeable = False
    return pairs
