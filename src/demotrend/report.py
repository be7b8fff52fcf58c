"""Aggregation and output artifacts.

Aggregates are computed in a fixed country order (sorted iso3) so totals
are bit-stable regardless of how the per-country work was scheduled.
Artifacts carry no timestamps and use fixed orderings and number formats:
re-running on identical inputs reproduces byte-identical files. Populations
are reported in millions at 6 significant digits; charts are written as
self-contained SVG with no external renderer.
"""
from __future__ import annotations

import contextlib
import itertools
from pathlib import Path

import numpy as np

from .core import Record
from .data_ingest import CountryRecord, Dataset
from .errors import EmptyScope, IoFailure, NonFiniteResult, ZeroBaseline

# Per grouped scope kind: the CountryRecord field it groups by, and each
# group's label, listed in presentation order (summary rows and figure panels).
GROUPINGS = {
    "income": ("income_group", {
        "High": "High income",
        "Low": "Low income",
        "LowerMiddle": "Lower-middle income",
        "UpperMiddle": "Upper-middle income",
    }),
    "region": ("region", {
        "LatinAmericaCaribbean": "Latin America and Caribbean",
        "SouthAsia": "South Asia",
        "SubSaharanAfrica": "Sub-Saharan Africa",
        "EuropeCentralAsia": "Europe and Central Asia",
        "MiddleEastNorthAfrica": "Middle East and North Africa",
        "EastAsiaPacific": "East Asia and Pacific",
        "NorthAmerica": "North America",
    }),
}
SCOPE_KINDS = ("world", *GROUPINGS, "country")  # in presentation order
# The kind, file name and title of each figure.
FIGURES = (("world", "figure_world.svg", "World population by scenario"),
           ("income", "figure_income_groups.svg", "Population by income group"),
           ("region", "figure_regions.svg", "Population by region"))

SUMMARY_YEARS = (2015, 2050, 2100)


class Scope(Record, frozen=True):
    """What to sum over: the world, an income group, a region, or a country."""

    kind: str
    key: str | None = None

    @property
    def label(self) -> str:
        if self.kind in GROUPINGS:
            return GROUPINGS[self.kind][1][self.key]
        return "World" if self.kind == "world" else self.key

    def matches(self, record: CountryRecord) -> bool:
        if self.kind in GROUPINGS:
            return getattr(record, GROUPINGS[self.kind][0]).value == self.key
        return self.kind == "world" or record.iso3 == self.key


WORLD = Scope("world")


def scopes_for(kinds, dataset: Dataset) -> list[Scope]:
    """Ordered scope list for the requested kinds, non-empty scopes only."""
    records = list(dataset.countries)
    scopes = [WORLD] if "world" in kinds and records else []
    for kind, (field, labels) in GROUPINGS.items():
        if kind in kinds:
            present = {getattr(c, field).value for c in records}
            scopes.extend(Scope(kind, key) for key in labels if key in present)
    if "country" in kinds:
        scopes.extend(Scope("country", c.iso3)
                      for c in sorted(records, key=lambda c: c.iso3))
    return scopes


def aggregate(country_totals: np.ndarray, scope: Scope, countries) -> np.ndarray:
    """The (S, T+1) sum over a scope of ``country_totals`` (S, N, T+1), whose N
    countries' records are ``countries``. Members are added one at a time in sorted
    iso3 order: each scenario has the bits of ``np.vstack`` of its rows summed."""
    members = sorted((c.iso3, i) for i, c in enumerate(countries) if scope.matches(c))
    if not members:
        raise EmptyScope(f"no countries in scope {scope.label!r}")
    total = country_totals[:, members[0][1]].copy()
    for _, i in members[1:]:
        total += country_totals[:, i]
    return total


def sensitivity_ratio(pop_m0_2050: float, pop_m2_2050: float,
                      pop_baseline_2050: float) -> float:
    """Spread between frozen-GDP and doubled-growth outcomes, vs baseline."""
    if pop_baseline_2050 <= 0.0:
        raise ZeroBaseline("sensitivity undefined for zero baseline population")
    return abs(pop_m0_2050 - pop_m2_2050) / pop_baseline_2050


class RunResult(Record, eq=False):
    """Everything emit_outputs needs, already in presentation order: ``totals``
    (S, K, T+1) holds the persons of each scenario and scope from ``start_year`` on."""

    start_year: int
    scenario_ids: list[str]
    scopes: list[Scope]
    totals: np.ndarray
    sensitivity: list[tuple[str, float]] | None = None


def fmt_millions(persons: float) -> str:
    return f"{persons / 1e6:.6g}"


def emit_outputs(result: RunResult, out_dir, out_format: str = "csv+svg") -> list[Path]:
    """Write trajectories, summary, optional sensitivity, and figures.

    A series that is not finite raises ``NonFiniteResult`` before any file
    is written. Files are written series by series. Returns the written
    paths. On any failure, an interrupt included, the files opened so far,
    a partial one too, and the directories this call made are removed
    (``undo_on_failure``); an ``OSError`` propagates as ``IoFailure``.
    """
    if not result.scenario_ids:
        raise EmptyScope("no scenarios to report")
    totals = result.totals
    # min and max carry any NaN, and take no (S, K, T+1) temporary as isfinite does.
    if totals.size and not np.isfinite([totals.min(), totals.max()]).all():
        finite = np.isfinite(totals)  # the first False, in (scenario, scope, year) order
        s, k, t = np.unravel_index(np.argmin(finite), finite.shape)
        raise NonFiniteResult.at(f"{result.scopes[k].label}/{result.scenario_ids[s]}",
                                 result.start_year + int(t))
    out = Path(out_dir)
    with undo_on_failure(out) as written:
        out.mkdir(parents=True, exist_ok=True)
        _write_trajectories(result, out, written)
        _write_summary(result, out, written)
        if result.sensitivity is not None:
            _write_sensitivity(result, out, written)
        if out_format == "csv+svg":
            _write_figures(result, out, written)
    return written


@contextlib.contextmanager
def undo_on_failure(out: Path):
    """Yield a list for the paths that the block writes under ``out``. If the
    block fails, an interrupt included, each listed file is removed, then each
    directory of ``out`` that did not exist on entry, if it is left empty; an
    ``OSError`` is raised again as ``IoFailure``."""
    made = list(itertools.takewhile(lambda path: not path.exists(), (out, *out.parents)))
    written: list[Path] = []
    try:
        yield written
    except BaseException as exc:
        for path in written:
            path.unlink(missing_ok=True)
        for path in made:  # deepest first
            with contextlib.suppress(OSError):
                path.rmdir()
        if isinstance(exc, OSError):
            raise IoFailure(f"failed writing outputs to {out}: {exc}") from exc
        raise


def _write_lines(path: Path, lines, written: list[Path]) -> None:
    """Write ``lines`` to ``path``, which joins ``written`` once it is open,
    before its first byte, so ``undo_on_failure`` removes a partial file."""
    with open(path, "w", encoding="utf-8") as handle:
        written.append(path)
        handle.writelines(f"{line}\n" for line in lines)


def _series(result: RunResult):
    """(scenario id, scope, values) of each series, in file order."""
    for sid, by_scope in zip(result.scenario_ids, result.totals):
        yield from ((sid, scope, values) for scope, values in zip(result.scopes, by_scope))


def _write_trajectories(result: RunResult, out: Path, written: list[Path]) -> None:
    def blocks():  # one write per series, of its at most 86 lines
        yield "scope,scenario_id,year,population"
        for sid, scope, values in _series(result):
            prefix = f"{scope.label},{sid}"
            yield "\n".join(f"{prefix},{year},{millions:.6g}" for year, millions in
                             enumerate((values / 1e6).tolist(), result.start_year))
    _write_lines(out / "trajectories.csv", blocks(), written)


def _write_summary(result: RunResult, out: Path, written: list[Path]) -> None:
    shown = [year - result.start_year for year in SUMMARY_YEARS]

    def lines():
        yield "scenario_id,scope,pop2015,pop2050,pop2100,peak_pop,peak_year"
        for sid, scope, values in _series(result):
            peak = int(values.argmax())  # ties resolve to the earliest year
            yield ",".join([sid, scope.label, *(
                fmt_millions(values[i]) if 0 <= i < values.size else "" for i in shown),
                fmt_millions(values[peak]), str(result.start_year + peak)])
    _write_lines(out / "summary.csv", lines(), written)


def _write_sensitivity(result: RunResult, out: Path, written: list[Path]) -> None:
    _write_lines(out / "sensitivity.csv", ["iso3,ratio", *(
        f"{iso3},{ratio:.6g}" for iso3, ratio in result.sensitivity)], written)


def _write_figures(result: RunResult, out: Path, written: list[Path]) -> None:
    for kind, name, title in FIGURES:
        panels = [(scope.label, result.totals[:, k])
                  for k, scope in enumerate(result.scopes) if scope.kind == kind]
        if panels:
            chart = _svg_chart(title, result.scenario_ids, result.start_year, panels)
            _write_lines(out / name, [chart], written)


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


def _svg_chart(title: str, labels: list[str], start_year: int, panels) -> str:
    """Multi-panel line chart; one legend shared by all panels. A panel is its title
    and the (S, T) persons of the lines of the S ``labels``, from ``start_year`` on."""
    panel_w, panel_h = 430, 290
    margin_l, margin_r, margin_t, margin_b = 64, 14, 30, 36
    cols = 1 if len(panels) == 1 else 2
    rows = (len(panels) + cols - 1) // cols
    legend_w = 110 if len(labels) > 1 else 0
    width = cols * panel_w + legend_w + 16
    height = max(rows * panel_h + 34, 44 + 16 * len(labels))  # the legend's 16 px per label
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.2f}" y="20" font-family="sans-serif" '
             f'font-size="14" font-weight="bold" text-anchor="middle">{title}</text>']
    for p, (panel_title, lines) in enumerate(panels):
        ox = (p % cols) * panel_w
        oy = 34 + (p // cols) * panel_h
        x0, y0 = ox + margin_l, oy + margin_t
        plot_w = panel_w - margin_l - margin_r
        plot_h = panel_h - margin_t - margin_b
        year_lo, year_hi = start_year, start_year + lines.shape[1] - 1
        ticks = _ticks(float(lines.max()) / 1e6 * 1.02)
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
        xs = sx(np.arange(year_lo, year_hi + 1)).tolist()
        for i, values in enumerate(lines):
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, sy(values / 1e6).tolist()))
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{_color(i)}" stroke-width="1.4"/>')
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
