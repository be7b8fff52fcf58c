"""Output checks for benchmark runs.

Three levels, strongest first:

* ``compare_digests``: every output file recorded for the default seed
  must be present with the recorded sha256 (taken from the seed code).
* ``check_golden``: the m0.0/m1.0/m2.0 rows of a tiny-fixture sweep must
  match ``tests/golden`` at the pipeline-equivalence tolerance (1e-6
  relative plus half the six-digit print quantum).
* ``check_structure``: invariants that hold for any seed, such as complete
  annual series, positive finite populations, summaries that agree with the
  trajectories, country totals that add up to the world, and a manifest
  whose input digests match the inputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

BASE_YEAR, END_YEAR = 2015, 2100
GOLDEN_SCENARIOS = ("m0.0", "m1.0", "m2.0")


def file_digests(out_dir) -> dict[str, str]:
    """sha256 of every file in ``out_dir``, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def compare_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = []
    for name, digest in sorted(expected.items()):
        if name not in actual:
            problems.append(f"{name}: missing")
        elif actual[name] != digest:
            problems.append(f"{name}: sha256 {actual[name][:12]} differs from "
                            f"recorded {digest[:12]}")
    return problems


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def printed_close(printed: str, expected: float) -> bool:
    """A six-significant-digit cell against a full-precision value."""
    got = float(printed)
    if expected == 0.0:
        return abs(got) <= 1e-9
    quantum = 10.0 ** (math.floor(math.log10(abs(expected))) - 5)
    return abs(got - expected) <= 1e-6 * abs(expected) + 0.5000001 * quantum


def check_golden(out_dir, golden_dir) -> list[str]:
    """Compare the golden scenarios' rows for the scopes this run wrote."""
    out, gold = Path(out_dir), Path(golden_dir)
    problems = []
    ours = {(r["scope"], r["scenario_id"], r["year"]): r["population"]
            for r in _rows(out / "trajectories.csv")}
    matched = 0
    for r in _rows(gold / "trajectories.csv"):
        key = (r["scope"], r["scenario_id"], r["year"])
        written = (r["scope"], r["scenario_id"], str(BASE_YEAR)) in ours
        if r["scenario_id"] not in GOLDEN_SCENARIOS or not written:
            continue
        matched += 1
        if key not in ours:
            problems.append(f"trajectories {key}: missing")
        elif not printed_close(ours[key], float(r["population"])):
            problems.append(f"trajectories {key}: {ours[key]} vs golden {r['population']}")
    if matched == 0:
        problems.append("trajectories: no rows in common with the golden set")
    summary = {(r["scenario_id"], r["scope"]): r for r in _rows(out / "summary.csv")}
    for g in _rows(gold / "summary.csv"):
        r = summary.get((g["scenario_id"], g["scope"]))
        if r is None:
            continue
        for column in ("pop2015", "pop2050", "pop2100", "peak_pop"):
            if not printed_close(r[column], float(g[column])):
                problems.append(f"summary {g['scenario_id']}/{g['scope']} {column}: "
                                f"{r[column]} vs golden {g[column]}")
        if r["peak_year"] != g["peak_year"]:
            problems.append(f"summary {g['scenario_id']}/{g['scope']} peak_year")
    ratios = {r["iso3"]: r["ratio"] for r in _rows(out / "sensitivity.csv")}
    for g in _rows(gold / "sensitivity.csv"):
        if g["iso3"] not in ratios or not printed_close(ratios[g["iso3"]], float(g["ratio"])):
            problems.append(f"sensitivity {g['iso3']}: {ratios.get(g['iso3'])} vs "
                            f"golden {g['ratio']}")
    return problems


def check_structure(out_dir, data_dir, n_scenarios: int, country_scope: bool,
                    dumps: bool) -> list[str]:
    """Invariants of a successful run's outputs that hold for any input set."""
    out = Path(out_dir)
    countries = sorted(r["iso3"] for r in _rows(Path(data_dir) / "countries.csv"))
    n_countries = len(countries)
    expected = {"trajectories.csv", "summary.csv", "run_manifest.json"}
    if dumps:
        expected |= {"donors.csv", "ensembles.csv"}
    missing = sorted(name for name in expected if not (out / name).is_file())
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []

    series: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for r in _rows(out / "trajectories.csv"):
        series.setdefault((r["scope"], r["scenario_id"]), []).append(
            (int(r["year"]), r["population"]))
    scenario_ids = sorted({sid for _, sid in series})
    if len(scenario_ids) != n_scenarios:
        problems.append(f"trajectories: {len(scenario_ids)} scenarios, expected {n_scenarios}")
    years = list(range(BASE_YEAR, END_YEAR + 1))
    values: dict[tuple[str, str], list[float]] = {}
    for key, points in series.items():
        if [year for year, _ in points] != years:
            problems.append(f"trajectories {key}: years are not {BASE_YEAR}-{END_YEAR}")
            continue
        values[key] = [float(text) for _, text in points]
        if not all(math.isfinite(v) and v > 0.0 for v in values[key]):
            problems.append(f"trajectories {key}: non-positive or non-finite population")

    if country_scope:
        for sid in scenario_ids:
            world = values.get(("World", sid))
            parts = [values.get((iso3, sid)) for iso3 in countries]
            if world is None or any(p is None for p in parts):
                problems.append(f"trajectories {sid}: missing world or country series")
                continue
            for i, total in enumerate(world):
                summed = sum(p[i] for p in parts)
                slack = 1e-6 * total + 1e-5 * sum(abs(p[i]) for p in parts) + 1e-5 * total
                if abs(summed - total) > slack:
                    problems.append(f"World/{sid} {years[i]}: countries sum to {summed}, "
                                    f"world is {total}")
                    break

    summaries = _rows(out / "summary.csv")
    if len(summaries) != len(series):
        problems.append(f"summary: {len(summaries)} rows for {len(series)} series")
    for r in summaries:
        v = values.get((r["scope"], r["scenario_id"]))
        if v is None:
            continue
        peak = max(range(len(v)), key=lambda i: (v[i], -i))
        checks = [("pop2015", v[0]), ("pop2050", v[2050 - BASE_YEAR]),
                  ("pop2100", v[-1]), ("peak_pop", v[peak])]
        for column, value in checks:
            if not printed_close(r[column], value):
                problems.append(f"summary {r['scenario_id']}/{r['scope']} {column}: "
                                f"{r[column]} vs trajectory {value}")
        if int(r["peak_year"]) != years[peak] and not printed_close(
                r["peak_pop"], v[int(r["peak_year"]) - BASE_YEAR]):
            problems.append(f"summary {r['scenario_id']}/{r['scope']}: peak_year")

    if all(s in scenario_ids for s in GOLDEN_SCENARIOS):
        ratios = _rows(out / "sensitivity.csv") if (out / "sensitivity.csv").is_file() else []
        if len(ratios) != n_countries or not all(
                math.isfinite(float(r["ratio"])) and float(r["ratio"]) >= 0.0 for r in ratios):
            problems.append("sensitivity.csv: expected one finite, non-negative ratio "
                            "per country")

    if dumps:
        weights: dict[tuple, float] = {}
        for r in _rows(out / "ensembles.csv"):
            key = (r["scenario_id"], r["iso3"], r["variable"], r["age_group"], r["sex"])
            weights[key] = weights.get(key, 0.0) + float(r["weight"])
        expected_series = n_scenarios * n_countries * (6 + 2 * 21)
        if len(weights) != expected_series:
            problems.append(f"ensembles.csv: {len(weights)} series, "
                            f"expected {expected_series}")
        if any(abs(w - 1.0) > 1e-6 for w in weights.values()):
            problems.append("ensembles.csv: weights of a series do not sum to 1")

    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    for name, digest in manifest.get("inputs", {}).items():
        actual = hashlib.sha256((Path(data_dir) / name).read_bytes()).hexdigest()
        if actual != digest:
            problems.append(f"run_manifest.json: digest of {name} does not match the input")
    return problems
