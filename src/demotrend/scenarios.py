"""GDP per-capita pathway construction.

Baseline pathways interpolate geometrically between projection anchors.
Counterfactuals rescale the baseline's year-over-year growth rates by a
multiplier m (m=0 freezes GDP at its 2015 level, m=1 reproduces the
baseline, m=2 doubles every annual growth rate), or replace the pathway
with steady convergence toward $30,000 per capita by 2100.
"""
from __future__ import annotations

import numpy as np

from .core import BASE_YEAR, END_YEAR, Record
from .data_ingest import Dataset
from .errors import NonPositiveGdp, NonPositiveResult, PathwayGap

CONVERGENCE_TARGET = 30000.0
MAX_ANCHOR_GAP = 10  # years; anchors must be at least decadal
MAX_SWEEP_SCENARIOS = 1000  # bounds the memory and run time of one sweep


class GdpPathway(Record, eq=False):
    """Annual GDP per capita for one country under one scenario."""

    iso3: str
    scenario_id: str
    start_year: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("pathway needs a 1-d, non-empty value array")
        if not np.isfinite(self.values).all() or (self.values <= 0.0).any():
            raise NonPositiveResult(f"{self.iso3}/{self.scenario_id}: "
                                    "pathway values must be positive and finite")

    def gdp(self, year: int) -> float:
        idx = year - self.start_year
        if idx < 0 or idx >= self.values.size:
            raise PathwayGap(f"{self.iso3}/{self.scenario_id}: no GDP for year {year}")
        return float(self.values[idx])

    def max_gdp(self) -> float:
        return float(self.values.max())


def baseline_pathway(iso3: str, anchor_years, anchor_values,
                     start: int = BASE_YEAR, end: int = END_YEAR,
                     scenario_id: str = "baseline") -> GdpPathway:
    """Annual pathway through projection anchors, geometric between anchors.

    Anchors must cover [start, end] with no gap wider than a decade.
    """
    years = np.asarray(anchor_years, dtype=float)
    values = np.asarray(anchor_values, dtype=float)
    if years.size == 0:
        raise PathwayGap(f"{iso3}: no baseline GDP anchors")
    order = np.argsort(years)
    years, values = years[order], values[order]
    if (values <= 0.0).any():
        raise NonPositiveGdp(f"{iso3}: baseline anchors must be positive")
    if years[0] > start or years[-1] < end:
        raise PathwayGap(f"{iso3}: baseline anchors cover {int(years[0])}-"
                         f"{int(years[-1])}, need {start}-{end}")
    out = np.empty(end - start + 1)
    # An overflow to inf is reported by GdpPathway's finite check, not as a warning.
    with np.errstate(over="ignore"):
        for t in range(start, end + 1):
            j = int(np.searchsorted(years, t, side="right"))
            if j == 0:
                raise PathwayGap(f"{iso3}: no anchor at or before {t}")
            a = j - 1
            if years[a] == t:
                out[t - start] = values[a]
                continue
            if j >= years.size:
                raise PathwayGap(f"{iso3}: no anchor at or after {t}")
            ya, yb = years[a], years[j]
            if yb - ya > MAX_ANCHOR_GAP:
                raise PathwayGap(f"{iso3}: anchor gap {int(ya)}-{int(yb)} exceeds "
                                 f"{MAX_ANCHOR_GAP} years")
            frac = (t - ya) / (yb - ya)
            out[t - start] = values[a] * (values[j] / values[a]) ** frac
    return GdpPathway(iso3=iso3, scenario_id=scenario_id, start_year=start, values=out)


def multiplier_pathway(base: GdpPathway, m: float) -> GdpPathway:
    """Rescale the baseline's annual growth rates by ``m``.

    The first year is kept; every subsequent year applies 1 + m * r_t where
    r_t is the baseline's growth rate from t to t+1.
    """
    if m < 0.0:
        raise ValueError(f"growth multiplier must be non-negative, got {m}")
    v = base.values
    # An overflow to inf is reported by GdpPathway's finite check, not as a warning.
    with np.errstate(over="ignore"):
        ratio = v[1:] / v[:-1]
        growth = 1.0 + m * (ratio - 1.0)
        if m <= 1.0:
            # The factor is then at least min(1, ratio) > 0, but 1 + m * (ratio - 1)
            # rounds to 0 where ratio is below 2**-54; only those entries are redone.
            low = growth <= 0.0
            growth[low] = (1.0 - m) + m * ratio[low]
        crash = np.flatnonzero(growth <= 0.0)
        if crash.size:
            raise NonPositiveResult(
                f"{base.iso3}: multiplier {m} drives GDP non-positive in year "
                f"{base.start_year + int(crash[0]) + 1}")
        # Strictly sequential: each year is the previous year times its growth.
        values = np.multiply.accumulate(np.concatenate((v[:1], growth)))
    return GdpPathway(iso3=base.iso3, scenario_id=scenario_label(m),
                      start_year=base.start_year, values=values)


def convergence_pathway(iso3: str, gdp_2015: float, target: float = CONVERGENCE_TARGET,
                        start: int = BASE_YEAR, end: int = END_YEAR) -> GdpPathway:
    """Steady geometric convergence to ``target`` by 2100.

    Countries already at or above the target stay flat; the growth rate for
    the rest is anchored to reach the target in 2100 exactly, regardless of
    the projection horizon.
    """
    if not np.isfinite(gdp_2015) or gdp_2015 <= 0.0:
        raise NonPositiveGdp(f"{iso3}: 2015 GDP must be positive, got {gdp_2015}")
    years = np.arange(start, end + 1)
    if gdp_2015 >= target:
        values = np.full(years.size, float(gdp_2015))
    else:
        ratio = target / gdp_2015
        values = gdp_2015 * ratio ** ((years - BASE_YEAR) / (END_YEAR - BASE_YEAR))
    return GdpPathway(iso3=iso3, scenario_id="convergence", start_year=start, values=values)


def scenario_label(m: float) -> str:
    """Stable file-naming label for a growth multiplier."""
    m += 0.0  # -0.0 becomes 0.0
    if round(m, 1) == m:
        return f"m{m:.1f}"
    return f"m{m:g}"


def build_baselines(dataset: Dataset, start: int = BASE_YEAR,
                    end: int = END_YEAR) -> dict[str, GdpPathway]:
    """Baseline pathway per country, keyed and ordered by iso3."""
    baselines = {}
    for record in sorted(dataset.countries, key=lambda c: c.iso3):
        years, values = dataset.gdp_baseline_series(record.iso3)
        baselines[record.iso3] = baseline_pathway(record.iso3, years, values,
                                                  start=start, end=end)
    return baselines


def sweep_multipliers(m_from: float = 0.0, m_to: float = 2.0,
                      step: float = 0.1) -> list[float]:
    """Multipliers from ``m_from`` to ``m_to`` inclusive, ``step`` apart and
    rounded to 10 decimals; none when ``m_to < m_from``.

    A step that is not positive, or more than ``MAX_SWEEP_SCENARIOS``
    multipliers, is a ``ValueError``.
    """
    if step <= 0.0:
        raise ValueError("sweep step must be positive")
    count = sweep_count(m_from, m_to, step)
    if count > MAX_SWEEP_SCENARIOS:
        raise ValueError(f"sweep would run more than {MAX_SWEEP_SCENARIOS} scenarios")
    return [round(m_from + i * step, 10) for i in range(count)]


def sweep_count(m_from: float, m_to: float, step: float) -> int:
    """Multipliers from ``m_from`` to ``m_to`` inclusive in steps of ``step > 0``.

    Any count above ``MAX_SWEEP_SCENARIOS`` reads as one more than the cap,
    so a huge or infinite span is compared without building anything.
    """
    if m_to < m_from:
        return 0
    return int(round(min((m_to - m_from) / step, MAX_SWEEP_SCENARIOS))) + 1
