"""Aggregation and output artifacts.

Aggregates are computed in a fixed country order (sorted iso3) so totals
are bit-stable regardless of how the per-country work was scheduled.
Artifacts carry no timestamps and use fixed orderings and number formats:
re-running on identical inputs reproduces byte-identical files. Populations
are reported in millions at 6 significant digits; charts are written as
self-contained SVG with no external renderer.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import Record
from .data_ingest import CountryRecord, Dataset
from .errors import EmptyScope, IoFailure, NonFiniteResult, ZeroBaseline

INCOME_LABELS = {
    "High": "High income",
    "Low": "Low income",
    "LowerMiddle": "Lower-middle income",
    "UpperMiddle": "Upper-middle income",
}
REGION_LABELS = {
    "LatinAmericaCaribbean": "Latin America and Caribbean",
    "SouthAsia": "South Asia",
    "SubSaharanAfrica": "Sub-Saharan Africa",
    "EuropeCentralAsia": "Europe and Central Asia",
    "MiddleEastNorthAfrica": "Middle East and North Africa",
    "EastAsiaPacific": "East Asia and Pacific",
    "NorthAmerica": "North America",
}
# Presentation order for summary rows and figure panels.
INCOME_ORDER = ("High", "Low", "LowerMiddle", "UpperMiddle")
REGION_ORDER = ("LatinAmericaCaribbean", "SouthAsia", "SubSaharanAfrica",
                "EuropeCentralAsia", "MiddleEastNorthAfrica", "EastAsiaPacific",
                "NorthAmerica")

SUMMARY_YEARS = (2015, 2050, 2100)


class Scope(Record, frozen=True):
    """What to sum over: the world, an income group, a region, or a country."""

    kind: str
    key: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "world":
            return "World"
        if self.kind == "income":
            return INCOME_LABELS[self.key]
        if self.kind == "region":
            return REGION_LABELS[self.key]
        return self.key

    def matches(self, record: CountryRecord) -> bool:
        if self.kind == "world":
            return True
        if self.kind == "income":
            return record.income_group.value == self.key
        if self.kind == "region":
            return record.region.value == self.key
        return record.iso3 == self.key


WORLD = Scope("world")


class AggregateSeries(Record, eq=False):
    scope: Scope
    scenario_id: str
    start_year: int
    values: np.ndarray  # persons

    def year_index(self, year: int) -> int | None:
        idx = year - self.start_year
        return idx if 0 <= idx < self.values.size else None


class PeakSummary(Record, frozen=True):
    scope: Scope
    scenario_id: str
    peak_population: float
    peak_year: int


def scopes_for(kinds, dataset: Dataset) -> list[Scope]:
    """Ordered scope list for the requested kinds, non-empty scopes only."""
    records = list(dataset.countries)
    present_incomes = {c.income_group.value for c in records}
    present_regions = {c.region.value for c in records}
    scopes: list[Scope] = []
    if "world" in kinds and records:
        scopes.append(WORLD)
    if "income" in kinds:
        scopes.extend(Scope("income", g) for g in INCOME_ORDER if g in present_incomes)
    if "region" in kinds:
        scopes.extend(Scope("region", r) for r in REGION_ORDER if r in present_regions)
    if "country" in kinds:
        scopes.extend(Scope("country", c.iso3)
                      for c in sorted(records, key=lambda c: c.iso3))
    return scopes


def aggregate(country_totals, scope: Scope, countries, scenario_id: str,
              start_year: int) -> AggregateSeries:
    """Sum per-country series over a scope's members in sorted iso3 order."""
    members = sorted(iso3 for iso3 in country_totals if scope.matches(countries[iso3]))
    if not members:
        raise EmptyScope(f"no countries in scope {scope.label!r}")
    stacked = np.vstack([country_totals[iso3] for iso3 in members])
    return AggregateSeries(scope=scope, scenario_id=scenario_id,
                           start_year=start_year, values=stacked.sum(axis=0))


def find_peak(series: AggregateSeries) -> PeakSummary:
    """Maximum of the series; ties resolve to the earliest year."""
    idx = int(np.argmax(series.values))
    return PeakSummary(scope=series.scope, scenario_id=series.scenario_id,
                       peak_population=float(series.values[idx]),
                       peak_year=series.start_year + idx)


def sensitivity_ratio(pop_m0_2050: float, pop_m2_2050: float,
                      pop_baseline_2050: float) -> float:
    """Spread between frozen-GDP and doubled-growth outcomes, vs baseline."""
    if pop_baseline_2050 <= 0.0:
        raise ZeroBaseline("sensitivity undefined for zero baseline population")
    return abs(pop_m0_2050 - pop_m2_2050) / pop_baseline_2050


class RunResult(Record, eq=False):
    """Everything emit_outputs needs, already in presentation order."""

    start_year: int
    scenario_ids: list[str]
    aggregates: dict[str, list[AggregateSeries]]
    sensitivity: list[tuple[str, float]] | None = None


def fmt_millions(persons: float) -> str:
    return f"{persons / 1e6:.6g}"


def emit_outputs(result: RunResult, out_dir, out_format: str = "csv+svg") -> list[Path]:
    """Write trajectories, summary, optional sensitivity, and figures.

    A series that is not finite raises ``NonFiniteResult`` before any file
    is written. Returns the written paths. On any failure, an interrupt
    included, the files written so far are removed before the error
    propagates; an ``OSError`` propagates as ``IoFailure``.
    """
    if not result.scenario_ids:
        raise EmptyScope("no scenarios to report")
    for sid in result.scenario_ids:
        for series in result.aggregates[sid]:
            bad = np.flatnonzero(~np.isfinite(series.values))
            if bad.size:
                raise NonFiniteResult.at(f"{series.scope.label}/{sid}",
                                         series.start_year + int(bad[0]))
    out = Path(out_dir)
    written: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        written.append(_write_trajectories(result, out))
        written.append(_write_summary(result, out))
        if result.sensitivity is not None:
            written.append(_write_sensitivity(result, out))
        if out_format == "csv+svg":
            written.extend(_write_figures(result, out))
        return written
    except BaseException as exc:
        for path in written:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"failed writing outputs to {out}: {exc}") from exc
        raise


def _write_lines(path: Path, lines) -> Path:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def _write_trajectories(result: RunResult, out: Path) -> Path:
    lines = ["scope,scenario_id,year,population"]
    for sid in result.scenario_ids:
        for series in result.aggregates[sid]:
            prefix = f"{series.scope.label},{sid}"
            lines.extend(f"{prefix},{year},{millions:.6g}" for year, millions in enumerate(
                (series.values / 1e6).tolist(), series.start_year))
    return _write_lines(out / "trajectories.csv", lines)


def _write_summary(result: RunResult, out: Path) -> Path:
    lines = ["scenario_id,scope,pop2015,pop2050,pop2100,peak_pop,peak_year"]
    for sid in result.scenario_ids:
        for series in result.aggregates[sid]:
            cells = [sid, series.scope.label]
            for year in SUMMARY_YEARS:
                idx = series.year_index(year)
                cells.append("" if idx is None else fmt_millions(series.values[idx]))
            peak = find_peak(series)
            cells.append(fmt_millions(peak.peak_population))
            cells.append(str(peak.peak_year))
            lines.append(",".join(cells))
    return _write_lines(out / "summary.csv", lines)


def _write_sensitivity(result: RunResult, out: Path) -> Path:
    lines = ["iso3,ratio"]
    for iso3, ratio in result.sensitivity:
        lines.append(f"{iso3},{ratio:.6g}")
    return _write_lines(out / "sensitivity.csv", lines)


def _write_figures(result: RunResult, out: Path) -> list[Path]:
    paths = []
    by_scope: dict[tuple[str, str | None], list[AggregateSeries]] = {}
    for sid in result.scenario_ids:
        for series in result.aggregates[sid]:
            by_scope.setdefault((series.scope.kind, series.scope.key), []).append(series)

    def panel(scope_kind, scope_key):
        series_list = by_scope.get((scope_kind, scope_key))
        if not series_list:
            return None
        label = series_list[0].scope.label
        return (label, [(s.scenario_id, s.start_year, s.values) for s in series_list])

    world_panel = panel("world", None)
    if world_panel is not None:
        paths.append(_write_lines(out / "figure_world.svg",
                                  [_svg_chart("World population by scenario",
                                              [world_panel])]))
    income_panels = [p for p in (panel("income", g) for g in INCOME_ORDER) if p]
    if income_panels:
        paths.append(_write_lines(out / "figure_income_groups.svg",
                                  [_svg_chart("Population by income group",
                                              income_panels)]))
    region_panels = [p for p in (panel("region", r) for r in REGION_ORDER) if p]
    if region_panels:
        paths.append(_write_lines(out / "figure_regions.svg",
                                  [_svg_chart("Population by region", region_panels)]))
    return paths


def _color(i: int) -> str:
    return f"hsl({(i * 137) % 360},55%,42%)"


def _ticks(high: float, n: int = 4) -> list[float]:
    if high <= 0.0:
        return [0.0, 1.0]
    raw = high / n
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    top = step * np.ceil(high / step)
    return [i * step for i in range(int(round(top / step)) + 1)]


def _svg_chart(title: str, panels) -> str:
    """Multi-panel line chart; one legend shared by all panels."""
    panel_w, panel_h = 430, 290
    margin_l, margin_r, margin_t, margin_b = 64, 14, 30, 36
    cols = 1 if len(panels) == 1 else 2
    rows = (len(panels) + cols - 1) // cols
    labels = []
    for _, series_list in panels:
        for label, _, _ in series_list:
            if label not in labels:
                labels.append(label)
    legend_w = 110 if len(labels) > 1 else 0
    width = cols * panel_w + legend_w + 16
    height = rows * panel_h + 34
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.2f}" y="20" font-family="sans-serif" '
             f'font-size="14" font-weight="bold" text-anchor="middle">{title}</text>']
    for p, (panel_title, series_list) in enumerate(panels):
        ox = (p % cols) * panel_w
        oy = 34 + (p // cols) * panel_h
        x0, y0 = ox + margin_l, oy + margin_t
        plot_w = panel_w - margin_l - margin_r
        plot_h = panel_h - margin_t - margin_b
        year_lo = min(s[1] for s in series_list)
        year_hi = max(s[1] + s[2].size - 1 for s in series_list)
        vmax = max(float(s[2].max()) for s in series_list) / 1e6
        ticks = _ticks(vmax * 1.02)
        top = ticks[-1]

        def sx(year):
            return x0 + (year - year_lo) / max(year_hi - year_lo, 1) * plot_w

        def sy(millions):
            return y0 + plot_h - millions / top * plot_h

        parts.append(f'<text x="{ox + panel_w / 2:.2f}" y="{oy + 18}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'text-anchor="middle">{panel_title}</text>')
        parts.append(f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
                     f'fill="none" stroke="#444" stroke-width="1"/>')
        for tick in ticks:
            y = sy(tick)
            parts.append(f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + plot_w}" '
                         f'y2="{y:.2f}" stroke="#ddd" stroke-width="0.5"/>')
            parts.append(f'<text x="{x0 - 6}" y="{y + 3.5:.2f}" font-family="sans-serif" '
                         f'font-size="10" text-anchor="end">{tick:g}</text>')
        for year in range(year_lo, year_hi + 1):
            if year % 20 == 0:
                x = sx(year)
                parts.append(f'<text x="{x:.2f}" y="{y0 + plot_h + 14}" '
                             f'font-family="sans-serif" font-size="10" '
                             f'text-anchor="middle">{year}</text>')
        parts.append(f'<text x="{ox + 16}" y="{y0 + plot_h / 2:.2f}" '
                     f'font-family="sans-serif" font-size="10" text-anchor="middle" '
                     f'transform="rotate(-90 {ox + 16} {y0 + plot_h / 2:.2f})">'
                     f'millions</text>')
        for label, start_year, values in series_list:
            color = _color(labels.index(label))
            xs = sx(np.arange(start_year, start_year + values.size)).tolist()
            ys = sy(values / 1e6).tolist()
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="1.4"/>')
    if legend_w:
        lx = cols * panel_w + 12
        for i, label in enumerate(labels):
            ly = 44 + i * 16
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                         f'y2="{ly - 4}" stroke="{_color(i)}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                         f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
