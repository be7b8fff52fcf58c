import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend import report
from demotrend.errors import EmptyScope, NonFiniteResult, ZeroBaseline
from demotrend.report import (
    SUMMARY_YEARS,
    AggregateSeries,
    RunResult,
    Scope,
    WORLD,
    _color,
    _ticks,
    _write_lines,
    aggregate,
    emit_outputs,
    find_peak,
    fmt_millions,
    scopes_for,
    sensitivity_ratio,
)


def country_map(dataset):
    return {c.iso3: c for c in dataset.countries}


def toy_totals():
    years = 6
    return {
        "AAA": np.array([10.0, 11.0, 12.0, 13.0, 12.5, 12.0]) * 1e6,
        "BBB": np.array([50.0, 51.0, 52.0, 51.0, 50.0, 49.0]) * 1e6,
        "CCC": np.array([30.0, 30.0, 30.0, 30.0, 30.0, 30.0]) * 1e6,
    }, years


class TestScope:
    def test_labels(self):
        assert WORLD.label == "World"
        assert Scope("income", "UpperMiddle").label == "Upper-middle income"
        assert Scope("region", "SubSaharanAfrica").label == "Sub-Saharan Africa"
        assert Scope("country", "AAA").label == "AAA"

    def test_matching(self, tiny_dataset):
        records = country_map(tiny_dataset)
        assert WORLD.matches(records["AAA"])
        assert Scope("income", "Low").matches(records["AAA"])
        assert not Scope("income", "Low").matches(records["CCC"])
        assert Scope("region", "NorthAmerica").matches(records["CCC"])
        assert Scope("country", "BBB").matches(records["BBB"])
        assert not Scope("country", "BBB").matches(records["AAA"])


class TestScopesFor:
    def test_presentation_order(self, tiny_dataset):
        scopes = scopes_for(["world", "income", "region", "country"], tiny_dataset)
        assert [s.label for s in scopes] == [
            "World",
            "High income", "Low income", "Upper-middle income",
            "Sub-Saharan Africa", "East Asia and Pacific", "North America",
            "AAA", "BBB", "CCC",
        ]

    def test_empty_scopes_filtered(self, tiny_dataset):
        scopes = scopes_for(["income"], tiny_dataset)
        keys = [s.key for s in scopes]
        assert "LowerMiddle" not in keys  # no fixture country has it
        assert keys == ["High", "Low", "UpperMiddle"]

    def test_subset_kinds(self, tiny_dataset):
        assert [s.kind for s in scopes_for(["world"], tiny_dataset)] == ["world"]
        assert scopes_for([], tiny_dataset) == []


class TestAggregate:
    def test_world_is_sum_of_countries(self, tiny_dataset):
        totals, _ = toy_totals()
        world = aggregate(totals, WORLD, country_map(tiny_dataset), "baseline", 2015)
        expected = totals["AAA"] + totals["BBB"] + totals["CCC"]
        assert np.array_equal(world.values, expected)

    def test_scope_filtering(self, tiny_dataset):
        totals, _ = toy_totals()
        low = aggregate(totals, Scope("income", "Low"), country_map(tiny_dataset),
                        "baseline", 2015)
        assert np.array_equal(low.values, totals["AAA"])

    def test_empty_scope_raises(self, tiny_dataset):
        totals, _ = toy_totals()
        with pytest.raises(EmptyScope):
            aggregate(totals, Scope("income", "LowerMiddle"),
                      country_map(tiny_dataset), "baseline", 2015)

    def test_summation_order_fixed(self, tiny_dataset):
        """Same totals presented in any dict order give bitwise-equal sums."""
        totals, _ = toy_totals()
        # adversarial values where summation order changes the float result
        totals["AAA"] = totals["AAA"] + 1e-7
        totals["BBB"] = totals["BBB"] * (1 + 1e-15)
        reordered = {k: totals[k] for k in ["CCC", "AAA", "BBB"]}
        a = aggregate(totals, WORLD, country_map(tiny_dataset), "baseline", 2015)
        b = aggregate(reordered, WORLD, country_map(tiny_dataset), "baseline", 2015)
        assert np.array_equal(a.values, b.values)

    def test_year_index(self, tiny_dataset):
        totals, _ = toy_totals()
        world = aggregate(totals, WORLD, country_map(tiny_dataset), "baseline", 2015)
        assert world.year_index(2015) == 0
        assert world.year_index(2020) == 5
        assert world.year_index(2021) is None
        assert world.year_index(2014) is None


class TestFindPeak:
    def make(self, values):
        return AggregateSeries(scope=WORLD, scenario_id="baseline",
                               start_year=2015, values=np.asarray(values, float))

    def test_interior_peak(self):
        peak = find_peak(self.make([1.0, 3.0, 2.0]))
        assert peak.peak_year == 2016
        assert peak.peak_population == 3.0

    def test_tie_resolves_to_earliest(self):
        peak = find_peak(self.make([1.0, 5.0, 2.0, 5.0, 3.0]))
        assert peak.peak_year == 2016

    def test_monotone_growth_peaks_at_end(self):
        peak = find_peak(self.make([1.0, 2.0, 3.0]))
        assert peak.peak_year == 2017

    def test_monotone_decline_peaks_at_start(self):
        peak = find_peak(self.make([3.0, 2.0, 1.0]))
        assert peak.peak_year == 2015


class TestSensitivityRatio:
    def test_basic(self):
        assert sensitivity_ratio(90.0, 120.0, 100.0) == pytest.approx(0.3)

    def test_symmetric_in_scenarios(self):
        assert sensitivity_ratio(120.0, 90.0, 100.0) == \
            sensitivity_ratio(90.0, 120.0, 100.0)

    def test_zero_spread(self):
        assert sensitivity_ratio(100.0, 100.0, 80.0) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaseline):
            sensitivity_ratio(90.0, 120.0, 0.0)


class TestFormatting:
    def test_millions_six_significant_digits(self):
        assert fmt_millions(7_349_874_123.0) == "7349.87"
        assert fmt_millions(1_000_000.0) == "1"
        assert fmt_millions(1_234_567.0) == "1.23457"
        assert fmt_millions(0.0) == "0"


def toy_result(tiny_dataset, sensitivity=None):
    totals, _ = toy_totals()
    records = country_map(tiny_dataset)
    scopes = scopes_for(["world", "income", "region", "country"], tiny_dataset)
    scenario_ids = ["baseline"]
    aggregates = {
        "baseline": [aggregate(totals, s, records, "baseline", 2015)
                     for s in scopes]
    }
    return RunResult(start_year=2015, scenario_ids=scenario_ids,
                     aggregates=aggregates, sensitivity=sensitivity)


class TestEmitOutputs:
    def test_files_written(self, tiny_dataset, tmp_path):
        written = emit_outputs(toy_result(tiny_dataset), tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["figure_income_groups.svg", "figure_regions.svg",
                         "figure_world.svg", "summary.csv", "trajectories.csv"]
        for p in written:
            assert p.is_file() and p.stat().st_size > 0

    def test_csv_only_format(self, tiny_dataset, tmp_path):
        written = emit_outputs(toy_result(tiny_dataset), tmp_path / "out",
                               out_format="csv")
        assert sorted(p.name for p in written) == ["summary.csv", "trajectories.csv"]

    def test_sensitivity_file(self, tiny_dataset, tmp_path):
        result = toy_result(tiny_dataset,
                            sensitivity=[("AAA", 0.25), ("BBB", 0.125)])
        written = emit_outputs(result, tmp_path / "out")
        sens = next(p for p in written if p.name == "sensitivity.csv")
        assert sens.read_text().splitlines() == ["iso3,ratio", "AAA,0.25",
                                                 "BBB,0.125"]

    def test_trajectories_content(self, tiny_dataset, tmp_path):
        emit_outputs(toy_result(tiny_dataset), tmp_path / "out")
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "scope,scenario_id,year,population"
        # 10 scopes x 6 years
        assert len(lines) == 1 + 60
        assert lines[1] == "World,baseline,2015,90"
        assert lines[2] == "World,baseline,2016,92"

    def test_summary_content(self, tiny_dataset, tmp_path):
        emit_outputs(toy_result(tiny_dataset), tmp_path / "out")
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[0] == "scenario_id,scope,pop2015,pop2050,pop2100,peak_pop,peak_year"
        world = lines[1].split(",")
        assert world[:3] == ["baseline", "World", "90"]
        assert world[3] == "" and world[4] == ""  # 2050/2100 outside toy range
        # 94 occurs in 2017 and 2018; ties resolve to the earliest year
        assert world[5] == "94" and world[6] == "2017"

    def test_byte_identical_reruns(self, tiny_dataset, tmp_path):
        first = emit_outputs(toy_result(tiny_dataset), tmp_path / "a")
        second = emit_outputs(toy_result(tiny_dataset), tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_svg_is_self_contained(self, tiny_dataset, tmp_path):
        emit_outputs(toy_result(tiny_dataset), tmp_path / "out")
        svg = (tmp_path / "out" / "figure_world.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "<polyline" in svg
        for forbidden in ("<script", "<image", "href="):
            assert forbidden not in svg

    def test_no_scenarios_rejected(self, tmp_path):
        result = RunResult(start_year=2015, scenario_ids=[], aggregates={})
        with pytest.raises(EmptyScope):
            emit_outputs(result, tmp_path / "out")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("out_format", ["csv", "csv+svg"])
    def test_non_finite_series_rejected_before_writing(self, tiny_dataset, tmp_path, bad,
                                                       out_format):
        result = toy_result(tiny_dataset)
        result.aggregates["baseline"][2].values[3:] = bad
        with pytest.raises(NonFiniteResult, match="^Low income/baseline: projected "
                                            "population is not finite in 2018$"):
            emit_outputs(result, tmp_path / "out", out_format)
        assert not (tmp_path / "out").exists()

    def test_failure_removes_partial_outputs(self, tiny_dataset, tmp_path, monkeypatch):
        import demotrend.report as report_mod

        result = toy_result(tiny_dataset)

        def boom(result, out):
            raise OSError("disk full")

        monkeypatch.setattr(report_mod, "_write_summary", boom)
        out = tmp_path / "out"
        from demotrend.errors import IoFailure

        with pytest.raises(IoFailure):
            emit_outputs(result, out)
        assert not (out / "trajectories.csv").exists()

    def test_multi_scenario_ordering(self, tiny_dataset, tmp_path):
        totals, _ = toy_totals()
        records = country_map(tiny_dataset)
        aggregates = {
            sid: [aggregate(totals, WORLD, records, sid, 2015)]
            for sid in ("m0.0", "m1.0", "m2.0")
        }
        result = RunResult(start_year=2015, scenario_ids=["m0.0", "m1.0", "m2.0"],
                           aggregates=aggregates)
        emit_outputs(result, tmp_path / "out", out_format="csv")
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        sids = [line.split(",")[1] for line in lines[1:]]
        assert sids == ["m0.0"] * 6 + ["m1.0"] * 6 + ["m2.0"] * 6


# The trajectory, summary and chart writers that formatted one value at a
# time, verbatim: the oracle for the whole-array writers.
def per_value_write_trajectories(result, out):
    lines = ["scope,scenario_id,year,population"]
    for sid in result.scenario_ids:
        for series in result.aggregates[sid]:
            for i, value in enumerate(series.values):
                lines.append(f"{series.scope.label},{sid},"
                             f"{series.start_year + i},{fmt_millions(value)}")
    return _write_lines(out / "trajectories.csv", lines)


def per_value_write_summary(result, out):
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


def per_value_svg_chart(title, panels):
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
            points = " ".join(f"{sx(start_year + i):.2f},{sy(v / 1e6):.2f}"
                              for i, v in enumerate(values))
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


EDGE_SCOPES = [WORLD, Scope("income", "High"), Scope("income", "Low"),
               Scope("income", "UpperMiddle"), Scope("region", "SouthAsia"),
               Scope("region", "NorthAmerica"), Scope("country", "AAA")]
PLOT_H = 290 - 30 - 36  # a chart panel's plot height in px


def nudged(persons, rng):
    """``persons`` moved by up to two ulps either way."""
    steps = rng.integers(-2, 3, persons.shape)
    return np.where(steps < 0, np.nextafter(persons, 0.0), np.where(
        steps > 0, np.nextafter(persons, math.inf), persons))


def edge_values(rng, size, peak):
    """Populations below ``peak`` persons whose millions sit at a ``.6g``
    rounding edge, or whose chart y coordinate sits at a ``.2f`` edge."""
    millions = peak / 1e6 * rng.uniform(0.0, 1.0, size)
    digits = np.floor(np.log10(np.maximum(millions, 1e-300))) - 5.0
    sixth = (np.round(millions / 10.0 ** digits) + 0.5) * 10.0 ** digits
    top = _ticks(peak / 1e6 * 1.02)[-1]
    pixel = np.floor(millions / top * PLOT_H * 100.0) / 100.0 + 0.005
    kind = rng.integers(0, 4, size)
    millions = np.select([kind == 0, kind == 1, kind == 2], [sixth, pixel / PLOT_H * top, 0.0],
                         millions)
    return np.minimum(nudged(millions * 1e6, rng), peak)


class TestWholeArrayWriters:
    """Trajectories, summary and charts keep the bytes of the per-value writers."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bytes_equal_per_value_writers(self, tmp_path_factory, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scenario_ids = [f"m{i}.0" for i in range(data.draw(st.integers(1, 3)))]
        scopes = EDGE_SCOPES[:data.draw(st.integers(1, len(EDGE_SCOPES)))]
        aggregates = {sid: [] for sid in scenario_ids}
        for scope in scopes:
            peak = 10.0 ** rng.uniform(4.0, 10.0)  # every series of a chart panel peaks here
            for sid in scenario_ids:
                values = edge_values(rng, data.draw(st.integers(1, 86)), peak)
                values[rng.integers(values.size)] = peak
                aggregates[sid].append(AggregateSeries(scope, sid, 2015, values))
        result = RunResult(start_year=2015, scenario_ids=scenario_ids, aggregates=aggregates)
        assert_per_value_bytes(result, tmp_path_factory)

    def test_every_series_length(self, tmp_path_factory):
        # Each length sets the x scale of a panel; both chart columns are covered.
        rng = np.random.default_rng(11)
        for size in range(1, 87):
            aggregates = {"m1.0": [AggregateSeries(scope, "m1.0", 2015,
                                                   edge_values(rng, size, 3e9))
                                   for scope in EDGE_SCOPES[:3]]}
            result = RunResult(start_year=2015, scenario_ids=["m1.0"], aggregates=aggregates)
            assert_per_value_bytes(result, tmp_path_factory)


def assert_per_value_bytes(result, tmp_path_factory):
    written = emit_outputs(result, tmp_path_factory.mktemp("whole"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_write_trajectories", per_value_write_trajectories)
        patch.setattr(report, "_write_summary", per_value_write_summary)
        patch.setattr(report, "_svg_chart", per_value_svg_chart)
        expected = emit_outputs(result, tmp_path_factory.mktemp("per_value"))
    assert [p.name for p in written] == [p.name for p in expected]
    for got, want in zip(written, expected):
        assert got.read_bytes() == want.read_bytes(), got.name

