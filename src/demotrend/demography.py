"""Annual cohort-component projection over 5-year age bands.

Each simulated year applies, in order: mortality (each cohort keeps the
fraction 1 - q), aging (one fifth of each surviving 5-year cohort
graduates to the next band, the open-ended 100+ band only receives), and
births (age-specific fertility applied to the surviving female cohorts of
the year, newborns split by the sex ratio at birth into the 0-4 band).
There is no migration term.
"""
from __future__ import annotations

import numpy as np

from .core import AGE_BANDS, FEMALE_COL, FERTILE_BANDS, FERTILE_SLICE, MALE_COL, Record
from .data_ingest import PopulationState
from .errors import InvalidRate, NegativeState, NonFiniteResult
from .rate_forecast import CapPolicy, CountryEnsembles, checked_forecast, model_inputs

N_BANDS = len(AGE_BANDS)


class VitalRates(Record, eq=False):
    """One year's rates: asfr over the 6 fertile bands, mortality (21, 2)."""

    asfr: np.ndarray
    mortality: np.ndarray


def step_year(state: PopulationState, rates: VitalRates, srb: float = 1.05) -> PopulationState:
    """Advance one calendar year.

    Births are drawn from the post-mortality, pre-aging female cohorts, so
    a woman contributes through the band she occupied during the year.
    """
    asfr, q = _checked(state, rates.asfr, rates.mortality, srb, 2)
    counts, _ = _project(state, asfr, q, srb)
    return PopulationState(iso3=state.iso3, year=state.year + 1, counts=counts[0])


def project_totals(base: PopulationState, asfr, q, srb: float = 1.05,
                   scenario_ids=None) -> np.ndarray:
    """Totals (S, T+1), base year first, of ``base`` stepped through S
    scenarios at once: asfr (S, T, 6), q (S, T, 21, 2). Equal bit for bit to
    T ``step_year`` calls per scenario, and a bad input raises what the first
    failing call would; only the current (S, 21, 2) state is kept.
    ``scenario_ids`` names the scenarios in a ``NonFiniteResult``."""
    return _project(base, *_checked(base, asfr, q, srb, 0), srb, scenario_ids)[1]


def _project(base: PopulationState, asfr: np.ndarray, q: np.ndarray, srb: float,
             scenario_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """The final (S, 21, 2) counts and the (S, T+1) totals of checked rates.
    The first total that is not finite, in the order of S one-scenario runs,
    raises ``NonFiniteResult``, with no numpy warning."""
    counts = np.repeat(base.counts[None], len(q), axis=0)
    totals = np.empty((len(q), q.shape[1] + 1))
    totals[:, 0] = counts.reshape(len(q), -1).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(q.shape[1]):
            counts = _step(counts, asfr[:, t], q[:, t], srb)
            totals[:, t + 1] = counts.reshape(len(q), -1).sum(axis=1)
    bad = np.argwhere(~np.isfinite(totals)).tolist()
    if bad:
        scenario, step = bad[0]
        where = base.iso3 if scenario_ids is None else f"{base.iso3}/{scenario_ids[scenario]}"
        raise NonFiniteResult.at(where, base.year + step)
    return counts, totals


def _checked(base: PopulationState, asfr, q, srb: float,
             lead: int) -> tuple[np.ndarray, np.ndarray]:
    """``asfr`` (S, T, 6) and ``q`` (S, T, 21, 2), after ``lead`` unit axes in
    front, checked in the order of S one-scenario runs: step by step, q
    before asfr, and the base state, then ``srb``, after the first step's
    rates."""
    asfr = np.asarray(asfr, dtype=float)[(None,) * lead]
    q = np.asarray(q, dtype=float)[(None,) * lead]
    if q.shape[2:] != (N_BANDS, 2) or asfr.shape != q.shape[:2] + (len(FERTILE_BANDS),):
        raise InvalidRate("rate arrays have wrong shape")
    bad_q = ((q < 0.0) | (q > 1.0)).any(axis=(2, 3)).ravel()
    bad = bad_q | (asfr < 0.0).any(axis=2).ravel()
    first = int(bad.argmax()) if bad.any() else bad.size
    if first and bad.size:
        if (base.counts < 0.0).any():
            raise NegativeState(f"{base.iso3} {base.year}: negative cohort count")
        if not srb > 0.0:  # NaN too
            raise InvalidRate(f"sex ratio at birth must be positive, got {srb}")
    if first < bad.size:
        raise InvalidRate("mortality probabilities must lie in [0, 1]" if bad_q[first]
                          else "fertility rates must be non-negative")
    return asfr, q


def _step(counts: np.ndarray, asfr: np.ndarray, q: np.ndarray, srb: float) -> np.ndarray:
    """One year for B states at once: counts and q (B, 21, 2), asfr (B, 6)."""
    survivors = counts * (1.0 - q)
    graduating = survivors / 5.0
    aged = survivors - graduating
    aged[:, 1:] += graduating[:, :-1]
    aged[:, -1] += graduating[:, -1]  # 100+ has no outflow
    # Stacked (1, 6) @ (6, 1): bit for bit the dot product of 1-D vectors.
    births = (asfr[:, None, :] @ survivors[:, FERTILE_SLICE, FEMALE_COL, None])[:, 0, 0]
    aged[:, 0, FEMALE_COL] += births / (1.0 + srb)
    aged[:, 0, MALE_COL] += births * srb / (1.0 + srb)
    return aged


def total_population(state: PopulationState) -> float:
    return float(state.counts.sum())


def forecast_rates(ensembles: CountryEnsembles, gdp: np.ndarray,
                   cap: CapPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every rate ensemble over T GDP values: asfr (T, 6), q (T, 21, 2).

    The GDP is checked and capped once, and each form is evaluated once
    over all of the country's series. Forecast mortality is truncated at
    1.0: the ensembles are fitted to probabilities, but an extrapolated
    curve must not leave [0, 1]. A rate forecast that is not finite raises
    ``NonFiniteResult``.
    """
    gdp, fertility_x = model_inputs(gdp, cap)
    x = np.repeat(gdp[None, :], len(ensembles.table.weight), axis=0)
    x[ensembles.fertility_rows] = fertility_x
    rates = checked_forecast(ensembles.table, x, gdp).T
    mortality = np.empty((gdp.size, N_BANDS, 2))
    np.minimum(rates[:, ensembles.mortality_rows], 1.0, out=mortality)
    return np.ascontiguousarray(rates[:, ensembles.fertility_rows]), mortality


def pathway_rates(base: PopulationState, ensembles: CountryEnsembles, pathway,
                  cap: CapPolicy, horizon: int = 2100) -> tuple[np.ndarray, np.ndarray]:
    """The rates of each step from the base year to ``horizon``: asfr (T, 6)
    and q (T, 21, 2), the step from year t at the pathway's GDP in year t. A
    ``NonFiniteResult`` names the pathway's country and scenario."""
    if base.year != pathway.start_year:
        raise ValueError(f"base year {base.year} does not match pathway start "
                         f"{pathway.start_year}")
    if horizon < base.year:
        raise ValueError("horizon precedes the base year")
    steps = horizon - base.year
    if steps:
        pathway.gdp(horizon - 1)  # PathwayGap when the pathway ends too early
    try:
        return forecast_rates(ensembles, pathway.values[:steps], cap)
    except NonFiniteResult as exc:
        raise NonFiniteResult(f"{pathway.iso3}/{pathway.scenario_id}: {exc}") from None


def project_country(base: PopulationState, ensembles: CountryEnsembles, pathway,
                    cap: CapPolicy, horizon: int = 2100,
                    srb: float = 1.05) -> list[tuple[int, PopulationState]]:
    """Project from the base year to ``horizon`` inclusive, one
    ``step_year`` per year. The returned trajectory includes the base state.
    """
    asfr, mortality = pathway_rates(base, ensembles, pathway, cap, horizon)
    trajectory = [(base.year, base)]
    state = base
    for t in range(len(asfr)):
        state = step_year(state, VitalRates(asfr=asfr[t], mortality=mortality[t]), srb=srb)
        trajectory.append((state.year, state))
    return trajectory
