import errno
import math
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demotrend import report
from demotrend.core import IncomeGroup, Region
from demotrend.data_ingest import CountryRecord
from demotrend.errors import EmptyScope, IoFailure, NonFiniteResult, ZeroBaseline
from demotrend.report import (
    GROUPINGS,
    SCOPE_KINDS,
    RunResult,
    Scope,
    WORLD,
    _ticks,
    aggregate,
    emit_outputs,
    fmt_millions,
    scopes_for,
    sensitivity_ratio,
)

import seed_oracle


def toy_totals(dataset):
    """(1, 3, 6) totals of AAA, BBB and CCC, and their records in that order."""
    totals = np.array([[[10.0, 11.0, 12.0, 13.0, 12.5, 12.0],
                        [50.0, 51.0, 52.0, 51.0, 50.0, 49.0],
                        [30.0, 30.0, 30.0, 30.0, 30.0, 30.0]]]) * 1e6
    return totals, [dataset.country_map[iso3] for iso3 in ("AAA", "BBB", "CCC")]


class TestScope:
    def test_labels(self):
        assert WORLD.label == "World"
        assert Scope("income", "UpperMiddle").label == "Upper-middle income"
        assert Scope("region", "SubSaharanAfrica").label == "Sub-Saharan Africa"
        assert Scope("country", "AAA").label == "AAA"

    def test_matching(self, tiny_dataset):
        records = tiny_dataset.country_map
        assert WORLD.matches(records["AAA"])
        assert Scope("income", "Low").matches(records["AAA"])
        assert not Scope("income", "Low").matches(records["CCC"])
        assert Scope("region", "NorthAmerica").matches(records["CCC"])
        assert Scope("country", "BBB").matches(records["BBB"])
        assert not Scope("country", "BBB").matches(records["AAA"])


class TestScopeTable:
    @pytest.mark.parametrize("kind,groups", [("income", IncomeGroup), ("region", Region)])
    def test_every_group_has_one_label(self, tiny_dataset, kind, groups):
        field, labels = GROUPINGS[kind]
        assert sorted(labels) == sorted(group.value for group in groups)
        assert len(set(labels.values())) == len(labels)
        assert all(isinstance(getattr(c, field), groups) for c in tiny_dataset.countries)
        for group in groups:
            assert Scope(kind, group.value).label == labels[group.value]

    def test_kinds_in_presentation_order(self, tiny_dataset):
        assert SCOPE_KINDS == ("world", "income", "region", "country")
        scopes = scopes_for(SCOPE_KINDS, tiny_dataset)
        assert list(dict.fromkeys(s.kind for s in scopes)) == list(SCOPE_KINDS)


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
        totals, records = toy_totals(tiny_dataset)
        world = aggregate(totals, WORLD, records)
        expected = totals[:, 0] + totals[:, 1] + totals[:, 2]
        assert np.array_equal(world, expected)

    def test_scope_filtering(self, tiny_dataset):
        totals, records = toy_totals(tiny_dataset)
        low = aggregate(totals, Scope("income", "Low"), records)
        assert np.array_equal(low, totals[:, 0])

    def test_empty_scope_raises(self, tiny_dataset):
        totals, records = toy_totals(tiny_dataset)
        with pytest.raises(EmptyScope):
            aggregate(totals, Scope("income", "LowerMiddle"), records)

    def test_summation_order_fixed(self, tiny_dataset):
        """Same totals presented in any row order give bitwise-equal sums."""
        totals, records = toy_totals(tiny_dataset)
        # adversarial values where summation order changes the float result
        totals[:, 0] += 1e-7
        totals[:, 1] *= 1 + 1e-15
        order = [2, 0, 1]
        a = aggregate(totals, WORLD, records)
        b = aggregate(totals[:, order], WORLD, [records[i] for i in order])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scenarios,years", [(1, 2), (1, 86), (7, 41), (60, 2), (60, 86)])
    def test_equals_the_seed_scenario_by_scenario(self, scenarios, years):
        """Each scope's sum over 60 countries, in rows not in iso3 order, is
        the seed's ``aggregate`` in every scenario: world, income and region
        scopes of many members, and country scopes of one."""
        rng = np.random.default_rng(scenarios * 100 + years)
        records = [CountryRecord(f"C{i:02d}", "", rng.choice(list(IncomeGroup)),
                                 rng.choice(list(Region))) for i in rng.permutation(60)]
        by_iso3 = {c.iso3: c for c in records}
        totals = 10.0 ** rng.uniform(2.0, 10.0, (scenarios, 60, years))
        scopes = scopes_for(SCOPE_KINDS, SimpleNamespace(countries=records))
        assert len(scopes) > 60
        for scope in scopes:
            got = aggregate(totals, scope, records)
            seed_scope = seed_oracle.report.Scope(scope.kind, scope.key)
            for s in range(scenarios):
                rows = {c.iso3: totals[s, i] for i, c in enumerate(records)}
                want = seed_oracle.report.aggregate(rows, seed_scope, by_iso3, "m", 2015).values
                assert (got[s] == want).all(), (scope, s)


class TestFindPeak:
    """The summary's peak population and year: the ``argmax`` of each series."""

    def peak(self, tmp_path, millions):
        result = RunResult(2015, ["baseline"], [WORLD], np.array([[millions]]) * 1e6)
        emit_outputs(result, tmp_path, out_format="csv")
        cells = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        return float(cells[5]), int(cells[6])

    def test_interior_peak(self, tmp_path):
        assert self.peak(tmp_path, [1.0, 3.0, 2.0]) == (3.0, 2016)

    def test_tie_resolves_to_earliest(self, tmp_path):
        assert self.peak(tmp_path, [1.0, 5.0, 2.0, 5.0, 3.0]) == (5.0, 2016)

    def test_monotone_growth_peaks_at_end(self, tmp_path):
        assert self.peak(tmp_path, [1.0, 2.0, 3.0]) == (3.0, 2017)

    def test_monotone_decline_peaks_at_start(self, tmp_path):
        assert self.peak(tmp_path, [3.0, 2.0, 1.0]) == (3.0, 2015)


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
    totals, records = toy_totals(tiny_dataset)
    scopes = scopes_for(SCOPE_KINDS, tiny_dataset)
    return RunResult(start_year=2015, scenario_ids=["baseline"], scopes=scopes,
                     totals=np.stack([aggregate(totals, s, records) for s in scopes], axis=1),
                     sensitivity=sensitivity)


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

    def test_figure_panels_in_presentation_order(self, tiny_dataset, tmp_path):
        """A figure's panels are its kind's scopes in the order of
        ``result.scopes``, which ``scopes_for`` gives in the scope table's order."""
        ordered = toy_result(tiny_dataset)
        reverse = RunResult(2015, ordered.scenario_ids, ordered.scopes[::-1],
                            ordered.totals[:, ::-1])
        emit_outputs(ordered, tmp_path / "ordered")
        emit_outputs(reverse, tmp_path / "reverse")
        for name, titles in (
                ("figure_income_groups.svg",
                 ["High income", "Low income", "Upper-middle income"]),
                ("figure_regions.svg",
                 ["Sub-Saharan Africa", "East Asia and Pacific", "North America"])):
            for out, expected in (("ordered", titles), ("reverse", titles[::-1])):
                svg = (tmp_path / out / name).read_text()
                assert re.findall(r'font-size="12" text-anchor="middle">([^<]*)<', svg) == expected

    def test_svg_is_self_contained(self, tiny_dataset, tmp_path):
        emit_outputs(toy_result(tiny_dataset), tmp_path / "out")
        svg = (tmp_path / "out" / "figure_world.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "<polyline" in svg
        for forbidden in ("<script", "<image", "href="):
            assert forbidden not in svg

    @pytest.mark.parametrize("panels", [1, 2, 3, 7])
    def test_every_legend_entry_lies_inside_the_figure(self, panels):
        """21 scenarios, the default sweep: each legend entry's line and text,
        11 px type on a 16 px pitch, end above the figure's bottom edge."""
        labels = [f"m{i / 10:g}" for i in range(21)]
        lines = np.linspace(1e6, 2e6, 21 * 86).reshape(21, 86)
        svg = report._svg_chart("World", labels, 2015, [(f"P{i}", lines) for i in range(panels)])
        height = float(re.search(r'<svg [^>]* height="([^"]+)"', svg).group(1))
        entries = re.findall(r'<text x="[^"]+" y="([^"]+)" font-family="sans-serif" '
                             r'font-size="11">([^<]*)<', svg)
        assert [label for _, label in entries] == labels
        assert all(float(y) + 4 <= height for y, _ in entries)

    def test_no_scenarios_rejected(self, tmp_path):
        result = RunResult(start_year=2015, scenario_ids=[], scopes=[], totals=np.empty((0, 0, 6)))
        with pytest.raises(EmptyScope):
            emit_outputs(result, tmp_path / "out")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("out_format", ["csv", "csv+svg"])
    def test_non_finite_series_rejected_before_writing(self, tiny_dataset, tmp_path, bad,
                                                       out_format):
        result = toy_result(tiny_dataset)
        result.totals[0, 2, 3:] = bad
        with pytest.raises(NonFiniteResult, match="^Low income/baseline: projected "
                                            "population is not finite in 2018$"):
            emit_outputs(result, tmp_path / "out", out_format)
        assert not (tmp_path / "out").exists()

    def test_first_non_finite_value_in_scenario_scope_year_order(self, tiny_dataset, tmp_path):
        base = toy_result(tiny_dataset)
        totals = np.repeat(base.totals, 3, axis=0)
        totals[2, 0, 0] = totals[1, 4, 1] = np.inf
        totals[1, 3, 5] = np.nan
        result = RunResult(2015, ["m0.0", "m1.0", "m2.0"], base.scopes, totals)
        with pytest.raises(NonFiniteResult, match="^Upper-middle income/m1.0: projected "
                                            "population is not finite in 2020$"):
            emit_outputs(result, tmp_path / "out")

    def test_failure_removes_partial_outputs(self, tiny_dataset, tmp_path, monkeypatch):
        import demotrend.report as report_mod

        result = toy_result(tiny_dataset)

        def boom(result, out, written):
            raise OSError("disk full")

        monkeypatch.setattr(report_mod, "_write_summary", boom)
        out = tmp_path / "out"
        from demotrend.errors import IoFailure

        with pytest.raises(IoFailure):
            emit_outputs(result, out)
        assert not (out / "trajectories.csv").exists()

    @pytest.mark.parametrize("existing", ["", "a", "a/b"])
    @pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                         KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
    def test_failure_removes_the_directories_it_made(self, tiny_dataset, tmp_path,
                                                     monkeypatch, failure, existing):
        """A write that fails once the CSVs are written removes them and each
        directory this call made; one that existed before stays."""
        def fails(result, out, written):
            assert {p.name for p in out.iterdir()} == {"trajectories.csv", "summary.csv"}
            raise failure

        monkeypatch.setattr(report, "_write_figures", fails)
        (tmp_path / existing).mkdir(parents=True, exist_ok=True)
        expected = IoFailure if isinstance(failure, OSError) else KeyboardInterrupt
        with pytest.raises(expected):
            emit_outputs(toy_result(tiny_dataset), tmp_path / "a" / "b")
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert left == {"": [], "a": ["a"], "a/b": ["a", "a/b"]}[existing]

    def test_multi_scenario_ordering(self, tiny_dataset, tmp_path):
        totals, records = toy_totals(tiny_dataset)
        world = aggregate(np.repeat(totals, 3, axis=0), WORLD, records)
        result = RunResult(start_year=2015, scenario_ids=["m0.0", "m1.0", "m2.0"],
                           scopes=[WORLD], totals=world[:, None])
        emit_outputs(result, tmp_path / "out", out_format="csv")
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        sids = [line.split(",")[1] for line in lines[1:]]
        assert sids == ["m0.0"] * 6 + ["m1.0"] * 6 + ["m2.0"] * 6


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
    """Trajectories, summary and charts keep the bytes of the seed's per-value writers."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bytes_equal_per_value_writers(self, tmp_path_factory, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scenario_ids = [f"m{i}.0" for i in range(data.draw(st.integers(1, 3)))]
        scopes = EDGE_SCOPES[:data.draw(st.integers(1, len(EDGE_SCOPES)))]
        size = data.draw(st.integers(1, 86))
        totals = np.empty((len(scenario_ids), len(scopes), size))
        for k in range(len(scopes)):
            peak = 10.0 ** rng.uniform(4.0, 10.0)  # every series of a chart panel peaks here
            for s in range(len(scenario_ids)):
                totals[s, k] = edge_values(rng, size, peak)
                totals[s, k, rng.integers(size)] = peak
        assert_per_value_bytes(RunResult(2015, scenario_ids, scopes, totals), tmp_path_factory)

    def test_every_series_length(self, tmp_path_factory):
        # Each length sets the x scale of a panel; both chart columns are covered.
        rng = np.random.default_rng(11)
        for size in range(1, 87):
            totals = np.array([[edge_values(rng, size, 3e9) for _ in EDGE_SCOPES[:3]]])
            result = RunResult(2015, ["m1.0"], EDGE_SCOPES[:3], totals)
            assert_per_value_bytes(result, tmp_path_factory)

    def test_many_scenarios_over_every_scope_kind(self, tmp_path_factory):
        """60 scenarios of full-length series over world, income, region and
        country scopes: many series blocks per file, and many lines per chart."""
        rng = np.random.default_rng(23)
        scenario_ids = [f"m{i / 20:g}" for i in range(60)]
        totals = np.empty((60, len(EDGE_SCOPES), 86))
        for k in range(len(EDGE_SCOPES)):
            peak = 10.0 ** rng.uniform(4.0, 10.0)
            for s in range(60):
                totals[s, k] = edge_values(rng, 86, peak)
                totals[s, k, rng.integers(86)] = peak
        sensitivity = [(f"C{i:02d}", ratio) for i, ratio in enumerate(rng.uniform(0, 2, 40))]
        result = RunResult(2015, scenario_ids, EDGE_SCOPES, totals, sensitivity)
        assert_per_value_bytes(result, tmp_path_factory)


def assert_per_value_bytes(result, tmp_path_factory):
    """``emit_outputs`` writes the bytes of the seed's ``emit_outputs``, whose
    writers format one value at a time and write each file whole, except that
    a figure is tall enough for its legend."""
    written = emit_outputs(result, tmp_path_factory.mktemp("whole"))
    expected = seed_oracle.report.emit_outputs(seed_oracle.run_result(result),
                                               tmp_path_factory.mktemp("per_value"))
    assert [p.name for p in written] == [p.name for p in expected]
    for got, want in zip(written, expected):
        want = want.read_bytes()
        if got.suffix == ".svg":
            want = legend_height(want, len(result.scenario_ids))
        assert got.read_bytes() == want, got.name


def legend_height(svg, scenarios):
    """The seed's figure ``svg`` with its height raised, where the legend of
    ``scenarios`` entries needs it, to 16 px per entry from y = 44."""
    head, rect, rest = svg.split(b"\n", 2)
    height = re.search(rb' height="(\d+)"', head).group(1)
    needed = str(max(int(height), 44 + 16 * scenarios)).encode()
    head = head.replace(b' height="%s"' % height, b' height="%s"' % needed)
    head = head.replace(b' %s">' % height, b' %s">' % needed)  # the viewBox's last number
    rect = rect.replace(b' height="%s"' % height, b' height="%s"' % needed)
    return b"\n".join((head, rect, rest))


class TestEmitMemory:
    """The report files are written series by series, so the memory that
    emit_outputs takes does not grow with scenarios x scopes x years."""

    def traced_peak(self, tmp_path, scenarios):
        rng = np.random.default_rng(scenarios)
        scopes = [WORLD, Scope("income", "Low"), Scope("region", "SouthAsia"),
                  Scope("country", "AAA")]
        scenario_ids = [f"m{i / 100:g}" for i in range(scenarios)]
        result = RunResult(start_year=2015, scenario_ids=scenario_ids, scopes=scopes,
                           totals=rng.uniform(1e6, 1e10, (scenarios, len(scopes), 86)),
                           sensitivity=[("AAA", 0.25), ("BBB", 0.125)])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            emit_outputs(result, tmp_path / f"s{scenarios}", out_format="csv")
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_traced_peak_does_not_grow_with_scenarios(self, tmp_path):
        """1,000 scenarios write a 9.2 MB trajectories.csv. The writers that
        joined whole files peaked at 64 MiB on it, ten times their peak at 100
        scenarios; the streaming ones take about 40 KiB at both sizes."""
        small, large = (self.traced_peak(tmp_path, n) for n in (100, 1000))
        assert large < 1 << 20
        assert large <= 1.5 * small
