"""Release acceptance criteria, one test per criterion.

Criteria 1-7 are self-contained: closed-form oracles, exact cohort
arithmetic, and an end-to-end comparison of the command-line pipeline
against the independent brute-force reimplementation in ``make_golden.py``
(the ``tests/golden/`` CSVs). Criteria 8-11 check full-scale reference
results and need the full national input set; when
``DEMOTREND_REPLICATION_DIR`` is not set they are waived and acceptance
rests on criteria 1-7. The hook in ``conftest.py`` prints one
PASS/FAIL/WAIVED line per criterion after the run.
"""
from __future__ import annotations

import csv
import math
import os
from pathlib import Path

import numpy as np
import pytest

from demotrend.augmentation import DonorRule, select_donors
from demotrend.core import (
    AGE_BANDS,
    AGE_INDEX,
    FEMALE_COL,
    FERTILE_SLICE,
    MALE_COL,
    Variable,
)
from demotrend.demography import (
    PopulationState,
    VitalRates,
    project_country,
    step_year,
    total_population,
)
from demotrend.models import ModelForm, akaike_weights, fit, raw_prediction
from demotrend.rate_forecast import CapPolicy, build_country_ensembles, forecast_rate
from demotrend.report import Scope, aggregate, scopes_for
from demotrend.scenarios import (
    build_baselines,
    convergence_pathway,
    multiplier_pathway,
)

from conftest import run_cli

GOLDEN_DIR = Path(__file__).parent / "golden"

REPLICATION_DIR = os.environ.get("DEMOTREND_REPLICATION_DIR", "")
replication = pytest.mark.skipif(
    not REPLICATION_DIR,
    reason="replication inputs unavailable (set DEMOTREND_REPLICATION_DIR to the "
           "full national dataset); criterion waived, acceptance rests on "
           "criteria 1-7",
)


# ---------------------------------------------------------------------------
# helpers


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _assert_printed_close(printed: str, expected: float, context: str) -> None:
    """Compare a six-significant-digit CSV cell against a full-precision value.

    The emitted CSVs round to six significant digits, so a cell can sit up
    to half a final-digit quantum away from the underlying number; the
    1e-6 relative term is the criterion's own tolerance on top of that.
    """
    got = float(printed)
    if expected == 0.0:
        assert abs(got) <= 1e-9, context
        return
    quantum = 10.0 ** (math.floor(math.log10(abs(expected))) - 5)
    tolerance = 1e-6 * abs(expected) + 0.5000001 * quantum
    assert abs(got - expected) <= tolerance, (
        f"{context}: printed {got!r} vs expected {expected!r} "
        f"(tolerance {tolerance!r})")


def _centered_line(t, y) -> tuple[float, float, float]:
    """Closed-form simple least squares on centered data: (b0, b1, rss)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    tc = t - t.mean()
    yc = y - y.mean()
    slope = float((tc @ yc) / (tc @ tc))
    intercept = float(y.mean() - slope * t.mean())
    resid = y - (intercept + slope * t)
    return intercept, slope, float(resid @ resid)


def _fit_rss(result, x, y) -> float:
    resid = np.asarray(y, dtype=float) - raw_prediction(result, x)
    return float(resid @ resid)


def _zero_rates() -> VitalRates:
    return VitalRates(asfr=np.zeros(FERTILE_SLICE.stop - FERTILE_SLICE.start),
                      mortality=np.zeros((len(AGE_BANDS), 2)))


def _state(counts, year: int = 2015) -> PopulationState:
    return PopulationState(iso3="TST", year=year, counts=counts)


# Twelve positive, strictly increasing predictor values with a gently
# non-monotone response: every form is admissible (n >= k + 2) and none
# fits perfectly, so least-squares minima are well separated from the
# residual floor.
FIT_X = np.array([300.0, 500.0, 800.0, 1200.0, 1800.0, 2600.0,
                  3600.0, 5000.0, 7000.0, 9500.0, 12500.0, 16000.0])
FIT_Y = np.array([6.05, 5.78, 5.22, 4.71, 4.05, 3.58,
                  3.02, 2.71, 2.28, 2.12, 2.01, 1.88])


# ---------------------------------------------------------------------------
# criterion 1: evidence weights


def test_criterion_1_evidence_weights():
    # Worked pair: scores {100, 102} split 0.731059 / 0.268941.
    w = akaike_weights([100.0, 102.0])
    assert w[0] == pytest.approx(0.731059, abs=1e-6)
    assert w[1] == pytest.approx(0.268941, abs=1e-6)

    # Weights sum to one (1e-9) and are invariant under constant shifts.
    rng = np.random.default_rng(20250815)
    for _ in range(200):
        scores = rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 9)))
        weights = np.asarray(akaike_weights(scores))
        assert (weights >= 0.0).all() and (weights <= 1.0).all()
        assert abs(float(weights.sum()) - 1.0) <= 1e-9
        shift = float(rng.uniform(-1e6, 1e6))
        shifted = np.asarray(akaike_weights(scores + shift))
        assert float(np.abs(shifted - weights).max()) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 2: regression fits


def test_criterion_2_regression_fits():
    x, y = FIT_X, FIT_Y

    # Closed-form transforms: intercept/slope and RSS agree to 1e-9.
    for form, t in ((ModelForm.LINEAR, x),
                    (ModelForm.DIVISION, 1.0 / x),
                    (ModelForm.NEG_LOG, np.log(x))):
        fitted = fit(form, x, y)
        intercept, slope, rss = _centered_line(t, y)
        assert fitted.beta1 == pytest.approx(intercept, rel=1e-9, abs=1e-12)
        assert fitted.beta2 == pytest.approx(slope, rel=1e-9, abs=1e-12)
        assert _fit_rss(fitted, x, y) == pytest.approx(rss, rel=1e-9)

    # Negative-power exponent search vs a dense 1e-4 grid: RSS within
    # 1e-6 relative in both directions.
    fitted = fit(ModelForm.NEG_POWER, x, y)
    exponents = np.arange(0.05, 5.0 + 1e-12, 1e-4)
    T = x[None, :] ** (-exponents[:, None])
    Tc = T - T.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    sty = Tc @ yc
    stt = np.einsum("ij,ij->i", Tc, Tc)
    grid_rss = float((yc @ yc - sty * sty / stt).min())
    pkg_rss = _fit_rss(fitted, x, y)
    assert pkg_rss <= grid_rss * (1.0 + 1e-6)
    assert grid_rss <= pkg_rss * (1.0 + 1e-6)

    # Breakpoint forms vs exhaustive candidate scans (interior observed x,
    # normal equations): RSS within 1e-6 relative in both directions.
    def columns_spline(c):
        return [np.ones_like(x), x, np.maximum(x - c, 0.0)]

    def columns_right(c):
        return [np.ones_like(x), np.minimum(x, c)]

    def columns_left(c):
        return [np.ones_like(x), np.maximum(x, c)]

    for form, columns in ((ModelForm.LINEAR_SPLINE, columns_spline),
                          (ModelForm.RIGHT_HINGE, columns_right),
                          (ModelForm.LEFT_HINGE, columns_left)):
        best = math.inf
        for c in np.unique(np.sort(x)[2:-2]):
            a = np.column_stack(columns(float(c)))
            beta = np.linalg.solve(a.T @ a, a.T @ y)
            resid = y - a @ beta
            best = min(best, float(resid @ resid))
        fitted = fit(form, x, y)
        pkg_rss = _fit_rss(fitted, x, y)
        assert pkg_rss <= best * (1.0 + 1e-6), form
        assert best <= pkg_rss * (1.0 + 1e-6), form


# ---------------------------------------------------------------------------
# criterion 3: cohort arithmetic


def test_criterion_3_cohort_arithmetic():
    n_bands = len(AGE_BANDS)
    n_fertile = FERTILE_SLICE.stop - FERTILE_SLICE.start

    # Conservation: zero rates preserve total population over 85 steps.
    rng = np.random.default_rng(47)
    state = _state(rng.uniform(0.0, 1e6, size=(n_bands, 2)))
    start_total = total_population(state)
    for _ in range(85):
        state = step_year(state, _zero_rates())
    assert abs(total_population(state) - start_total) <= 1e-9 * start_total

    # Death arithmetic: one cohort of 1000 at q = 0.1 leaves 900 survivors,
    # split 720 / 180 by the one-fifth graduation.
    counts = np.zeros((n_bands, 2))
    band = AGE_INDEX["30-34"]
    counts[band, MALE_COL] = 1000.0
    rates = VitalRates(asfr=np.zeros(n_fertile),
                       mortality=np.full((n_bands, 2), 0.1))
    stepped = step_year(_state(counts), rates)
    assert total_population(stepped) == 900.0
    assert stepped.counts[band, MALE_COL] == 720.0
    assert stepped.counts[band + 1, MALE_COL] == 180.0

    # Birth arithmetic: 1000 women in 20-24 at asfr 0.2, q = 0, srb 1.05
    # produce 200 births split 102.439 male / 97.561 female.
    counts = np.zeros((n_bands, 2))
    counts[AGE_INDEX["20-24"], FEMALE_COL] = 1000.0
    asfr = np.zeros(n_fertile)
    asfr[AGE_INDEX["20-24"] - FERTILE_SLICE.start] = 0.2
    srb = 1.05
    stepped = step_year(_state(counts),
                        VitalRates(asfr=asfr, mortality=np.zeros((n_bands, 2))),
                        srb=srb)
    births = 200.0
    assert stepped.counts[0, FEMALE_COL] == births / (1.0 + srb)
    assert stepped.counts[0, MALE_COL] == births * srb / (1.0 + srb)
    assert stepped.counts[0, MALE_COL] == pytest.approx(102.439, abs=1e-3)
    assert stepped.counts[0, FEMALE_COL] == pytest.approx(97.561, abs=1e-3)

    # No-birth identity: total after one step equals sum(counts * (1 - q));
    # only summation-order rounding separates the two.
    rng = np.random.default_rng(48)
    for _ in range(50):
        counts = rng.uniform(0.0, 1e6, size=(n_bands, 2))
        q = rng.uniform(0.0, 1.0, size=(n_bands, 2))
        stepped = step_year(_state(counts),
                            VitalRates(asfr=np.zeros(n_fertile), mortality=q))
        expected = float((counts * (1.0 - q)).sum())
        assert total_population(stepped) == pytest.approx(expected, rel=1e-12)

    # Aging transfer: 100 children with no deaths spread after five steps
    # exactly as five rounds of one-fifth graduation dictate (binomial
    # occupancy over the first six bands), with the total conserved.
    counts = np.zeros((n_bands, 2))
    counts[0, FEMALE_COL] = 100.0
    state = _state(counts)
    for _ in range(5):
        state = step_year(state, _zero_rates())
    for j in range(6):
        expected = math.comb(5, j) * 0.2 ** j * 0.8 ** (5 - j) * 100.0
        assert state.counts[j, FEMALE_COL] == pytest.approx(expected, rel=1e-9)
    assert total_population(state) == pytest.approx(100.0, rel=1e-12)

    # Monotonicity on 1200 randomized cases (>= 1000 required): raising any
    # mortality never increases the next total, raising any fertility never
    # decreases it.
    rng = np.random.default_rng(319)
    for _ in range(600):
        counts = rng.uniform(0.0, 1e6, size=(n_bands, 2))
        q = rng.uniform(0.0, 1.0, size=(n_bands, 2))
        asfr = rng.uniform(0.0, 0.3, size=n_fertile)
        q_hi = q + (1.0 - q) * rng.uniform(0.0, 1.0, size=(n_bands, 2))
        base = total_population(step_year(_state(counts), VitalRates(asfr, q)))
        more_deaths = total_population(
            step_year(_state(counts), VitalRates(asfr, q_hi)))
        assert more_deaths <= base * (1.0 + 1e-12) + 1e-9
    for _ in range(600):
        counts = rng.uniform(0.0, 1e6, size=(n_bands, 2))
        q = rng.uniform(0.0, 1.0, size=(n_bands, 2))
        asfr = rng.uniform(0.0, 0.3, size=n_fertile)
        asfr_hi = asfr + rng.uniform(0.0, 0.5, size=n_fertile)
        base = total_population(step_year(_state(counts), VitalRates(asfr, q)))
        more_births = total_population(
            step_year(_state(counts), VitalRates(asfr_hi, q)))
        assert more_births >= base * (1.0 - 1e-12) - 1e-9


# ---------------------------------------------------------------------------
# criterion 4: fertility cap


def test_criterion_4_fertility_cap(tiny_dataset):
    ensembles = build_country_ensembles(tiny_dataset, "AAA", ("BBB",))

    for cap_value in (5000.0, 30000.0):
        cap = CapPolicy(cap_value)
        at_cap = {band: forecast_rate(ens, cap_value, Variable.FERTILITY, cap)
                  for band, ens in ensembles.fertility.items()}
        # Bitwise identical forecasts for every GDP at or above the cap.
        for gdp in (cap_value, cap_value * (1.0 + 1e-9), cap_value + 1.0,
                    2.0 * cap_value, 1e6, 1e12):
            for band, ens in ensembles.fertility.items():
                assert forecast_rate(ens, gdp, Variable.FERTILITY, cap) == at_cap[band]
        # Below the cap the forecasts genuinely move, so the identity above
        # is not an artifact of flat ensembles.
        below = [forecast_rate(ens, 0.5 * cap_value, Variable.FERTILITY, cap)
                 for ens in ensembles.fertility.values()]
        assert any(b != at_cap[band]
                   for b, band in zip(below, ensembles.fertility))

    # Mortality forecasts ignore the cap entirely.
    caps = (CapPolicy(5000.0), CapPolicy(30000.0), CapPolicy(200000.0))
    for key, ens in ensembles.mortality.items():
        for gdp in (900.0, 12345.0, 75000.0):
            values = {forecast_rate(ens, gdp, Variable.MORTALITY, cap)
                      for cap in caps}
            assert len(values) == 1, key


# ---------------------------------------------------------------------------
# criterion 5: pathway algebra


def test_criterion_5_pathway_algebra(tiny_dataset):
    baselines = build_baselines(tiny_dataset)
    assert set(baselines) == {"AAA", "BBB", "CCC"}

    for iso3, base in baselines.items():
        # m = 0 freezes GDP at the 2015 level, bitwise.
        frozen = multiplier_pathway(base, 0.0)
        assert (frozen.values == base.values[0]).all()

        # m = 1 reproduces the baseline to 1e-12 relative.
        unit = multiplier_pathway(base, 1.0)
        rel = np.abs(unit.values - base.values) / base.values
        assert float(rel.max()) <= 1e-12

        # Convergence reaches $30,000 exactly in 2100 (1e-6), or stays
        # flat for countries already at or above the target.
        gdp_2015 = base.gdp(2015)
        conv = convergence_pathway(iso3, gdp_2015)
        if gdp_2015 >= 30000.0:
            assert (conv.values == gdp_2015).all()
        else:
            assert conv.gdp(2100) == pytest.approx(30000.0, abs=1e-6)
            assert conv.gdp(2015) == gdp_2015
            assert (np.diff(conv.values) > 0.0).all()


# ---------------------------------------------------------------------------
# criterion 6: pipeline equivalence


def test_criterion_6_pipeline_equivalence(tiny_dir, tmp_path):
    outs: dict[str, Path] = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code, _, stderr = run_cli(["--data-dir", str(tiny_dir), "--out", str(out),
                                   "--scenario", "sweep:0:2:1",
                                   "--aggregate", "world,income,region,country",
                                   "--jobs", jobs])
        assert code == 0, stderr
        outs[jobs] = out

    # Byte-identical outputs regardless of worker count.
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["2"].iterdir())
    assert "trajectories.csv" in names
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    # Full-pipeline agreement with the independent brute-force
    # reimplementation (tests/golden), 1e-6 relative plus the six-digit
    # print quantum of the emitted CSVs.
    out = outs["1"]

    pkg = _read_rows(out / "trajectories.csv")
    gold = _read_rows(GOLDEN_DIR / "trajectories.csv")
    assert [(r["scope"], r["scenario_id"], r["year"]) for r in pkg] == \
           [(r["scope"], r["scenario_id"], r["year"]) for r in gold]
    for rp, rg in zip(pkg, gold):
        _assert_printed_close(
            rp["population"], float(rg["population"]),
            f"trajectories {rg['scope']}/{rg['scenario_id']}/{rg['year']}")

    pkg = _read_rows(out / "summary.csv")
    gold = _read_rows(GOLDEN_DIR / "summary.csv")
    assert [(r["scenario_id"], r["scope"]) for r in pkg] == \
           [(r["scenario_id"], r["scope"]) for r in gold]
    for rp, rg in zip(pkg, gold):
        where = f"summary {rg['scenario_id']}/{rg['scope']}"
        for column in ("pop2015", "pop2050", "pop2100", "peak_pop"):
            _assert_printed_close(rp[column], float(rg[column]),
                                  f"{where} {column}")
        assert rp["peak_year"] == rg["peak_year"], where

    pkg = _read_rows(out / "sensitivity.csv")
    gold = _read_rows(GOLDEN_DIR / "sensitivity.csv")
    assert [r["iso3"] for r in pkg] == [r["iso3"] for r in gold]
    for rp, rg in zip(pkg, gold):
        _assert_printed_close(rp["ratio"], float(rg["ratio"]),
                              f"sensitivity {rg['iso3']}")


# ---------------------------------------------------------------------------
# criterion 7: aggregation partition


def test_criterion_7_aggregation_partition(tiny_dataset):
    # Full-precision pipeline pass for the baseline scenario.
    baselines = build_baselines(tiny_dataset)
    records = {c.iso3: c for c in tiny_dataset.countries}
    totals: dict[str, np.ndarray] = {}
    for iso3 in sorted(records):
        base = tiny_dataset.base_population(iso3)
        state = PopulationState(iso3=iso3, year=base.year,
                                counts=base.counts.copy())
        pathway = baselines[iso3]
        candidates = {other: tiny_dataset.gdp_hist_series(other)
                      for other in records if other != iso3}
        rule = DonorRule(target_gdp_2015=pathway.gdp(2015),
                         target_pathway_max=pathway.max_gdp())
        donors = select_donors(rule, candidates)
        ensembles = build_country_ensembles(tiny_dataset, iso3, donors)
        trajectory = project_country(state, ensembles, pathway, CapPolicy())
        totals[iso3] = np.array([total_population(s) for _, s in trajectory])

    world = aggregate(np.array([[*totals.values()]]), Scope("world"),
                      [records[iso3] for iso3 in totals])[0]
    assert world.size == 86  # every year 2015-2100

    for kind in ("income", "region", "country"):
        scopes = scopes_for([kind], tiny_dataset)
        assert scopes
        part = np.sum([aggregate(np.array([[*totals.values()]]), s,
                                 [records[iso3] for iso3 in totals])[0]
                       for s in scopes], axis=0)
        rel = np.abs(part - world) / world
        assert float(rel.max()) <= 1e-6, kind


# ---------------------------------------------------------------------------
# criteria 8-11: replication against full-scale reference figures


def _run_replication(out: Path, *extra: str) -> None:
    code, _, stderr = run_cli(["--data-dir", REPLICATION_DIR, "--out", str(out),
                               "--format", "csv", *extra])
    assert code == 0, stderr


def _world_by_year(out: Path) -> dict[str, dict[int, float]]:
    series: dict[str, dict[int, float]] = {}
    for row in _read_rows(out / "trajectories.csv"):
        if row["scope"] == "World":
            series.setdefault(row["scenario_id"], {})[int(row["year"])] = \
                float(row["population"])
    return series


@replication
def test_criterion_8_headline_trajectory(tmp_path):
    out = tmp_path / "baseline"
    _run_replication(out, "--scenario", "baseline", "--aggregate", "world")
    world = _world_by_year(out)["baseline"]
    assert round(world[2015]) == 7278
    assert abs(world[2050] - 9193.0) <= 0.03 * 9193.0
    assert abs(world[2100] - 8477.0) <= 0.05 * 8477.0
    summary = [r for r in _read_rows(out / "summary.csv")
               if r["scope"] == "World"][0]
    assert abs(int(summary["peak_year"]) - 2062) <= 4
    assert abs(float(summary["peak_pop"]) - 9307.0) <= 0.03 * 9307.0


@replication
def test_criterion_9_sweep_shape(tmp_path):
    out = tmp_path / "sweep"
    _run_replication(out, "--scenario", "sweep", "--aggregate", "world")
    world = _world_by_year(out)
    assert len(world) == 21

    # Frozen GDP keeps the population highest in every year after 2030.
    for year in range(2031, 2101):
        top = max(world, key=lambda sid: world[sid][year])
        assert world["m0.0"][year] >= world[top][year]

    # Lowest 2050 total at m = 1.5.
    assert min(world, key=lambda sid: world[sid][2050]) == "m1.5"

    # Lowest peak population at m = 1.9 (+/- 0.1 on the sweep grid).
    peaks = {r["scenario_id"]: float(r["peak_pop"])
             for r in _read_rows(out / "summary.csv") if r["scope"] == "World"}
    assert min(peaks, key=peaks.get) in {"m1.8", "m1.9", "m2.0"}

    # Every scenario above m = 0.5 peaks before 2100.
    peak_years = {r["scenario_id"]: int(r["peak_year"])
                  for r in _read_rows(out / "summary.csv")
                  if r["scope"] == "World"}
    for sid, peak_year in peak_years.items():
        if float(sid[1:]) > 0.5:
            assert peak_year < 2100, sid


@replication
def test_criterion_10_sensitivity_geography(tmp_path):
    out = tmp_path / "sweep"
    _run_replication(out, "--scenario", "sweep", "--aggregate", "world")
    rows = _read_rows(out / "sensitivity.csv")
    top10 = sorted(rows, key=lambda r: float(r["ratio"]), reverse=True)[:10]
    region = {r["iso3"]: r["region"]
              for r in _read_rows(Path(REPLICATION_DIR) / "countries.csv")}
    in_ssa = sum(region[r["iso3"]] == "SubSaharanAfrica" for r in top10)
    assert in_ssa >= 8


@replication
def test_criterion_11_cap_robustness(tmp_path):
    at_2050 = {}
    for cap in ("20000", "30000", "40000"):
        out = tmp_path / f"cap{cap}"
        _run_replication(out, "--scenario", "baseline", "--aggregate", "world",
                         "--fertility-cap", cap)
        at_2050[cap] = _world_by_year(out)["baseline"][2050]
    reference = at_2050["30000"]
    assert abs(at_2050["20000"] - reference) <= 0.05 * reference
    assert abs(at_2050["40000"] - reference) <= 0.05 * reference
