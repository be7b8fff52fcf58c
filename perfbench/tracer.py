"""Traced demotrend run: spans and counts around each module's public functions.

The tracer replaces, in every loaded ``demotrend`` module, the attributes
that point at a listed function with a wrapper that records a span (name,
start, end, parent). Callers that imported the function by name see the
wrapper too, because the replacement covers every module attribute bound to
the original. Spans are held in compact arrays and written out after the
run; self time is a span's duration minus the durations of its child
spans. Nothing in the program is edited.

Run as a script (with the program's ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py --spans OUT.npz --summary OUT.json -- <demotrend args>
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function); the span is named <module>.<function>.
SPANNED = [
    ("cli", "run"),
    ("data_ingest", "load_dataset"),
    ("scenarios", "build_baselines"),
    ("scenarios", "baseline_pathway"),
    ("scenarios", "multiplier_pathway"),
    ("scenarios", "convergence_pathway"),
    ("scenarios", "sweep"),
    ("augmentation", "select_donors"),
    ("augmentation", "build_augmented_series"),
    ("rate_forecast", "build_country_ensembles"),
    ("rate_forecast", "build_ensemble"),
    ("rate_forecast", "forecast_rate"),
    ("models", "fit"),
    ("models", "predict"),
    ("demography", "project_country"),
    ("demography", "vital_rates_at"),
    ("demography", "step_year"),
    ("report", "aggregate"),
    ("report", "emit_outputs"),
]
PATHWAY_BUILDERS = ("baseline_pathway", "multiplier_pathway", "convergence_pathway")
INPUT_FILES = ("countries.csv", "rates.csv", "gdp_hist.csv", "gdp_baseline.csv",
               "base_pop.csv")
FORMS = ("Null", "Linear", "Division", "NegLog", "NegPower", "LinearSpline",
         "RightHinge", "LeftHinge")


class Recorder:
    """Spans in parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, name_of=None, on_call=None, on_result=None):
        """Span-recording wrapper.

        ``name_of(args, kwargs)`` can refine the span name; ``on_call`` sees
        the arguments and ``on_result`` the return value, both outside the span.
        """
        fixed = self.intern(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.perf_counter
        intern = self.intern

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(name_id)
            name_id.append(fixed if name_of is None else intern(name_of(args, kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "names": np.array(self.names)}


def self_times(parent, start, end) -> np.ndarray:
    """Per span: its duration minus the summed durations of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def per_name(spans: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and call count for each span name."""
    own = self_times(spans["parent"], spans["start"], spans["end"])
    width = len(spans["names"])
    sums = np.bincount(spans["name_id"], weights=own, minlength=width)
    calls = np.bincount(spans["name_id"], minlength=width)
    names = [str(name) for name in spans["names"]]
    return ({n: float(sums[i]) for i, n in enumerate(names)},
            {n: int(calls[i]) for i, n in enumerate(names)})


class Tally:
    """Counts taken at the wrapped boundaries, outside the spans."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.fit_points = 0
        self.donor_counts: list[int] = []
        self.donor_sets: set = set()

    def on_load(self, args, kwargs):
        root = Path(args[0] if args else kwargs["data_dir"])
        for name in INPUT_FILES:
            with open(root / name, "rb") as handle:
                self.counts["data_ingest.rows"] += sum(1 for line in handle if line.strip()) - 1

    def on_fit(self, args, kwargs):
        self.fit_points += len(args[2] if len(args) > 2 else kwargs["ys"])

    def on_donors(self, donors):
        self.donor_counts.append(len(donors))

    def on_country(self, args, kwargs):
        iso3 = args[1] if len(args) > 1 else kwargs["iso3"]
        donors = args[2] if len(args) > 2 else kwargs["donors"]
        self.donor_sets.add((iso3, tuple(donors)))


def install(recorder: Recorder, tally: Tally) -> None:
    """Wrap every listed function wherever a loaded demotrend module binds it.

    A function the program no longer has is skipped; its metrics read 0.
    """
    modules = {}
    for module_name, _ in SPANNED:
        try:
            modules[module_name] = importlib.import_module(f"demotrend.{module_name}")
        except ImportError:
            continue
    loaded = [m for name, m in sys.modules.items()
              if m is not None and (name == "demotrend" or name.startswith("demotrend."))]

    def rebind(original, replacement):
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    hooks = {
        "load_dataset": dict(on_call=tally.on_load),
        "select_donors": dict(on_result=tally.on_donors),
        "build_country_ensembles": dict(on_call=tally.on_country),
        "fit": dict(name_of=lambda a, k: "models.fit." + (a[0] if a else k["form"]).value,
                    on_call=tally.on_fit),
    }

    for module_name, fn_name in SPANNED:
        original = getattr(modules.get(module_name), fn_name, None)
        if original is not None:
            rebind(original, recorder.wrap(original, f"{module_name}.{fn_name}",
                                           **hooks.get(fn_name, {})))

    # Counted, not spanned: their time stays in the caller's self time.
    cached = getattr(modules.get("rate_forecast"), "_cached_ensemble", None)
    if cached is not None:
        def counted_lookup(*args, **kwargs):
            tally.counts["rate_forecast.ensemble_lookups"] += 1
            return cached(*args, **kwargs)
        rebind(cached, counted_lookup)

    lstsq = np.linalg.lstsq

    def counted_lstsq(a, *args, **kwargs):
        tally.counts["models.lstsq_calls"] += 1
        tally.counts["models.lstsq_rows"] += int(np.shape(a)[0])
        return lstsq(a, *args, **kwargs)

    np.linalg.lstsq = counted_lstsq


def layer_metrics(spans: dict, tally: Tally) -> dict[str, float]:
    """Per-layer metrics from the spans and the tally (cli and trace metrics aside)."""
    self_s, calls = per_name(spans)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    counts = tally.counts
    lookups = counts["rate_forecast.ensemble_lookups"]
    builds = n("rate_forecast.build_ensemble")
    fits = sum(n(f"models.fit.{form}") for form in FORMS)
    donors = tally.donor_counts
    metrics = {
        "data_ingest.load_dataset_s": s("data_ingest.load_dataset"),
        "data_ingest.rows": counts["data_ingest.rows"],
        "scenarios.build_s": sum(v for k, v in self_s.items() if k.startswith("scenarios.")),
        "scenarios.pathways": sum(n(f"scenarios.{name}") for name in PATHWAY_BUILDERS),
        "augmentation.select_donors_s": s("augmentation.select_donors"),
        "augmentation.select_donors_calls": n("augmentation.select_donors"),
        "augmentation.donors_mean": sum(donors) / len(donors) if donors else 0.0,
        "augmentation.distinct_donor_sets": len(tally.donor_sets),
        "augmentation.build_augmented_series_s": s("augmentation.build_augmented_series"),
        "rate_forecast.build_country_ensembles_s": s("rate_forecast.build_country_ensembles"),
        "rate_forecast.build_ensemble_s": s("rate_forecast.build_ensemble"),
        "rate_forecast.build_ensemble_calls": builds,
        "rate_forecast.ensemble_lookups": lookups,
        "rate_forecast.cache_hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "rate_forecast.forecast_rate_s": s("rate_forecast.forecast_rate"),
        "rate_forecast.forecast_rate_calls": n("rate_forecast.forecast_rate"),
        "models.fit_calls": fits,
        "models.fit_mean_n": tally.fit_points / fits if fits else 0.0,
        "models.lstsq_calls": counts["models.lstsq_calls"],
        "models.lstsq_rows": counts["models.lstsq_rows"],
        "models.predict_calls": n("models.predict"),
        "models.predict_s": s("models.predict"),
        "demography.project_country_s": s("demography.project_country"),
        "demography.vital_rates_at_s": s("demography.vital_rates_at"),
        "demography.step_year_s": s("demography.step_year"),
        "demography.step_year_calls": n("demography.step_year"),
        "report.aggregate_s": s("report.aggregate"),
        "report.emit_outputs_s": s("report.emit_outputs"),
    }
    for form in FORMS:
        metrics[f"models.fit_s.{form}"] = s(f"models.fit.{form}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the demotrend CLI with tracing.")
    parser.add_argument("--spans", required=True, help="where to write the spans (.npz)")
    parser.add_argument("--summary", required=True, help="where to write metrics (.json)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="demotrend arguments, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import demotrend.cli

    recorder = Recorder()
    tally = Tally()
    install(recorder, tally)
    started = time.perf_counter()
    code = demotrend.cli.main(cli_args)
    run_s = time.perf_counter() - started

    spans = recorder.arrays()
    metrics = layer_metrics(spans, tally)
    out = Path(cli_args[cli_args.index("--out") + 1])
    metrics["report.bytes_written"] = (sum(p.stat().st_size for p in out.iterdir())
                                       if out.is_dir() else 0)
    np.savez(args.spans, **spans)
    Path(args.summary).write_text(json.dumps({
        "exit_code": code, "run_s": run_s, "spans": int(spans["name_id"].size),
        "metrics": metrics}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
