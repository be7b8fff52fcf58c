"""Annual cohort-component projection over 5-year age bands.

Each simulated year applies, in order: mortality (each cohort keeps the
fraction 1 - q), aging (one fifth of each surviving 5-year cohort
graduates to the next band, the open-ended 100+ band only receives), and
births (age-specific fertility applied to the surviving female cohorts of
the year, newborns split by the sex ratio at birth into the 0-4 band).
There is no migration term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AGE_BANDS, FEMALE_COL, FERTILE_SLICE, MALE_COL
from .errors import InvalidRate, NegativeState
from .rate_forecast import CapPolicy, CountryEnsembles, model_inputs

N_BANDS = len(AGE_BANDS)


@dataclass(eq=False)
class PopulationState:
    """Cohort counts for one country-year, shape (21 age bands, 2 sexes)."""

    iso3: str
    year: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (N_BANDS, 2):
            raise ValueError(f"counts must have shape ({N_BANDS}, 2)")


@dataclass(eq=False)
class VitalRates:
    """One year's rates: asfr over the 6 fertile bands, mortality (21, 2)."""

    asfr: np.ndarray
    mortality: np.ndarray


def step_year(state: PopulationState, rates: VitalRates, srb: float = 1.05) -> PopulationState:
    """Advance one calendar year.

    Births are drawn from the post-mortality, pre-aging female cohorts, so
    a woman contributes through the band she occupied during the year.
    """
    counts = state.counts
    q = np.asarray(rates.mortality, dtype=float)
    asfr = np.asarray(rates.asfr, dtype=float)
    if q.shape != (N_BANDS, 2) or asfr.shape != (FERTILE_SLICE.stop - FERTILE_SLICE.start,):
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


def total_population(state: PopulationState) -> float:
    return float(state.counts.sum())


def forecast_rates(ensembles: CountryEnsembles, gdp: np.ndarray,
                   cap: CapPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every rate ensemble over T GDP values: asfr (T, 6), q (T, 21, 2).

    The GDP is checked and capped once, and each form is evaluated once
    over all of the country's series. Forecast mortality is truncated at
    1.0: the ensembles are fitted to probabilities, but an extrapolated
    curve must not leave [0, 1].
    """
    gdp, fertility_x = model_inputs(gdp, cap)
    x = np.repeat(gdp[None, :], len(ensembles.table.weight), axis=0)
    x[ensembles.fertility_rows] = fertility_x
    rates = ensembles.table.forecast(x).T
    mortality = np.empty((gdp.size, N_BANDS, 2))
    np.minimum(rates[:, ensembles.mortality_rows], 1.0, out=mortality)
    return np.ascontiguousarray(rates[:, ensembles.fertility_rows]), mortality


def project_country(base: PopulationState, ensembles: CountryEnsembles, pathway,
                    cap: CapPolicy, horizon: int = 2100,
                    srb: float = 1.05) -> list[tuple[int, PopulationState]]:
    """Project from the base year to ``horizon`` inclusive.

    Rates for the step from year t to t+1 are evaluated at the pathway's
    GDP in year t. The returned trajectory includes the base state.
    """
    if base.year != pathway.start_year:
        raise ValueError(f"base year {base.year} does not match pathway start "
                         f"{pathway.start_year}")
    if horizon < base.year:
        raise ValueError("horizon precedes the base year")
    steps = horizon - base.year
    if steps:
        pathway.gdp(horizon - 1)  # PathwayGap when the pathway ends too early
    asfr, mortality = forecast_rates(ensembles, pathway.values[:steps], cap)
    trajectory = [(base.year, base)]
    state = base
    for t in range(steps):
        state = step_year(state, VitalRates(asfr=asfr[t], mortality=mortality[t]), srb=srb)
        trajectory.append((state.year, state))
    return trajectory
