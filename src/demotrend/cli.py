"""Command-line runner: ingest, fit, project, aggregate, emit.

Exit codes: 0 success, 1 data error, 2 usage error, 3 internal error.
Outputs are deterministic: identical inputs and configuration produce
byte-identical files regardless of the worker count.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import numbers
import os
import pickle
import sys
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .augmentation import donor_sets
from .core import AGE_BANDS, BASE_YEAR, END_YEAR, FERTILE_BANDS, Record
from .data_ingest import Dataset, load_dataset
from .demography import pathway_rates, project_totals
from .errors import DemotrendError, SchemaViolation
from .rate_forecast import DUMP_COLUMNS, CapPolicy, build_country_ensembles
from .report import (SCOPE_KINDS, RunResult, _write_lines, aggregate, emit_outputs,
                     scopes_for, sensitivity_ratio, undo_on_failure)
from .scenarios import (
    build_baselines,
    convergence_pathway,
    multiplier_pathway,
    scenario_label,
    sweep_multipliers,
)

# Name and header of donors.csv and ensembles.csv.
_DUMPS = (("donors.csv", "scenario_id,target_iso3,donor_iso3"),
          ("ensembles.csv", f"scenario_id,iso3,{DUMP_COLUMNS}"))
SENSITIVITY_YEAR = 2050
# Scenarios projected together: a wide sweep's rate arrays are filled and
# stepped this many scenarios at a time, so their size stays bounded.
SCENARIO_CHUNK = 64
CGROUP_DIR = Path("/sys/fs/cgroup")  # where --jobs auto looks for a CPU quota
_SIGKILL = 9  # signal.SIGKILL on every POSIX system; importing signal takes about 1 ms

class UsageError(Exception):
    """Bad invocation: flags or scenario token, not data."""


class RunConfig(Record, frozen=True):
    """The settings of one run. A setting out of range is a ``UsageError``, so
    a library ``run`` rejects what the command line rejects."""

    data_dir: str
    out_dir: str
    scenario: str = "baseline"
    fertility_cap: float = 30000.0
    srb: float = 1.05
    horizon: int = END_YEAR
    aggregate: tuple[str, ...] = ("world", "income", "region")
    dump_donors: bool = False
    dump_ensembles: bool = False
    jobs: int = 1
    out_format: str = "csv+svg"

    def __post_init__(self):
        if not self.data_dir:
            raise UsageError("--data-dir is required (or set DEMOTREND_DATA_DIR)")
        for kind, noun, names in (
                (str, "a string", ("data_dir", "out_dir", "scenario", "out_format")),
                (int, "an integer", ("horizon", "jobs")),
                (numbers.Real, "a number", ("fertility_cap", "srb")),
                (bool, "true or false", ("dump_donors", "dump_ensembles"))):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                    flag = {"out_dir": "out", "out_format": "format"}.get(name, name)
                    raise UsageError(f"--{flag.replace('_', '-')} must be {noun}, got {value!r}")
        if not BASE_YEAR < self.horizon <= END_YEAR:
            raise UsageError(f"--horizon must lie in {BASE_YEAR + 1}-{END_YEAR}")
        for flag, value in (("--fertility-cap", self.fertility_cap), ("--srb", self.srb)):
            if not (value > 0.0 and math.isfinite(value)):
                raise UsageError(f"{flag} must be positive and finite, got {value}")
        if self.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        if (not isinstance(self.aggregate, tuple) or not self.aggregate
                or any(kind not in SCOPE_KINDS for kind in self.aggregate)):
            raise UsageError(f"--aggregate accepts {', '.join(SCOPE_KINDS)}")
        if self.out_format not in ("csv", "csv+svg"):
            raise UsageError(f"--format must be csv or csv+svg, got {self.out_format!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        run(_config_from_args(args))
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DemotrendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # only an internal error prints one: keeps start-up short

        traceback.print_exc()
        return 3


def run(config: RunConfig) -> list[Path]:
    """Execute one full projection run; returns the written paths."""
    plan = _scenario_plan(config.scenario)
    dataset = load_dataset(config.data_dir)
    for rejection in dataset.rejections:
        print(f"warning: {rejection}", file=sys.stderr)
    baselines = build_baselines(dataset, BASE_YEAR, config.horizon)
    scenario_list = [(sid, _pathways(baselines, sid, m, config.horizon)) for sid, m in plan]
    countries = sorted(c.iso3 for c in dataset.countries)
    missing = [iso3 for iso3 in countries if dataset.base_population(iso3) is None]
    if missing:
        raise SchemaViolation("base_pop.csv", 0,
                              f"no base population for {', '.join(missing)}")

    # _project_one is looked up at each run: a patched one reaches the workers.
    project = functools.partial(_project_one, dataset, scenario_list, config)
    scenario_ids = [sid for sid, _ in scenario_list]
    # (S, N, T+1), laid out country by country: filling one touches only its pages.
    totals = np.empty((len(countries), len(plan), config.horizon - BASE_YEAR + 1)).swapaxes(0, 1)
    out = Path(config.out_dir)
    with undo_on_failure(out) as written:
        with contextlib.ExitStack() as stack:
            dumps = []  # rows are written as each country is read back, in country order
            for on, (name, header) in zip((config.dump_donors, config.dump_ensembles), _DUMPS):
                if on:
                    out.mkdir(parents=True, exist_ok=True)
                    dumps.append(stack.enter_context(open(out / name, "w", encoding="utf-8")))
                    written.append(out / name)
                    dumps[-1].write(f"{header}\n")
                else:
                    dumps.append(None)
            if config.jobs > 1 and len(countries) > 1 and hasattr(os, "fork"):
                per_country = stack.enter_context(contextlib.closing(
                    _forked_map(project, countries, min(config.jobs, len(countries)))))
            else:
                per_country = map(project, countries)
            for i, (series, *dumped) in enumerate(per_country):
                totals[:, i] = series
                for handle, lines in zip(dumps, dumped):
                    if handle is not None:
                        handle.writelines(lines)

        scopes = scopes_for(config.aggregate, dataset)
        records = [dataset.country_map[iso3] for iso3 in countries]
        scope_totals = np.empty((len(scenario_ids), len(scopes), totals.shape[2]))
        for k, scope in enumerate(scopes):  # filled in place: no second copy is held
            scope_totals[:, k] = aggregate(totals, scope, records)
        sensitivity = _sensitivity_rows(scenario_ids, countries, totals, config.horizon)
        del totals  # freed before the report is written, which needs only the scope sums
        result = RunResult(start_year=BASE_YEAR, scenario_ids=scenario_ids, scopes=scopes,
                           totals=scope_totals, sensitivity=sensitivity)
        written[:0] = emit_outputs(result, out, config.out_format)
        _write_manifest(config, dataset.digests, out, written)
    return written


def _forked_map(project, countries: list[str], jobs: int):
    """``project(iso3)`` for each country, yielded in country order as its
    totals and the lines of each dump file, computed by ``jobs`` forked
    workers that inherit ``project``.

    Worker w projects ``countries[w::jobs]`` in order. It writes a country's
    dump lines, donors then ensembles, to its own unlinked text spool, then
    pickles the totals and the line count of each dump, or its first failure,
    which ends its work, into its own unlinked result spool, so it never waits
    for the parent. Once a worker has been reaped, both its spools are read
    front to back: a country's record, then that many lines of each dump.
    This rests on two contracts: every dump item is one ``\\n``-terminated
    line (iso3 validation keeps CR and LF out of the rows), and the caller
    consumes each yielded dump fully and in order before asking for the next
    country. An ``OSError`` while making the spools or workers is a
    ``RuntimeError``. Every way out of this generator kills and reaps the
    workers and closes the spools.
    """
    pids: list[int] = []
    reaped = 0  # pids[:reaped] have exited and been waited for
    try:
        with contextlib.ExitStack() as stack:
            try:
                spools = [(stack.enter_context(tempfile.TemporaryFile()),
                           stack.enter_context(tempfile.TemporaryFile(
                               "w+", encoding="utf-8", newline="\n")))
                          for _ in range(jobs)]
                # Workers then share the parent's heap without copying it: collections
                # in a worker skip frozen objects. Thawing would also thaw the heap
                # that the entry point froze, so only a heap frozen here is thawed.
                thaw = not gc.get_freeze_count()
                gc.freeze()
                try:
                    for worker, (spool, text) in enumerate(spools):
                        pid = os.fork()
                        if pid == 0:
                            code = 1
                            try:
                                _work(project, countries[worker::jobs], spool, text)
                                code = 0
                            finally:
                                os._exit(code)
                        pids.append(pid)
                finally:
                    if thaw:
                        gc.unfreeze()
            except OSError as exc:
                raise RuntimeError(f"could not start --jobs workers: {exc}") from exc
            for index, iso3 in enumerate(countries):
                spool, text = spools[index % jobs]
                if index < jobs:
                    os.waitpid(pids[index], 0)
                    reaped = index + 1
                    spool.seek(0)
                    text.seek(0)
                try:
                    value, failure = pickle.load(spool)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(
                        f"a --jobs worker exited without a result for {iso3}") from None
                if failure is not None:
                    remote = RuntimeError(f"{iso3} failed in a --jobs worker:\n{failure}")
                    if value is None:
                        raise remote
                    raise value from remote
                series, counts = value
                yield series, *(islice(text, n) for n in counts)
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, _SIGKILL)
        for pid in pids[reaped:]:
            os.waitpid(pid, 0)


def _work(project, countries: list[str], spool, text) -> None:
    """A forked worker: project each of ``countries`` in order, write its dump
    lines to ``text`` and spool its totals and the line count of each dump,
    up to and including the first failure."""
    for iso3 in countries:
        try:
            series, *dumped = project(iso3)
            counts = [sum(1 for _ in map(text.write, lines)) for lines in dumped]
            text.flush()
            blob, failed = pickle.dumps(((series, counts), None), pickle.HIGHEST_PROTOCOL), False
        except BaseException as exc:
            blob, failed = _pickled_failure(exc), True
        spool.write(blob)
        spool.flush()
        if failed:
            return


def _pickled_failure(exc: BaseException) -> bytes:
    """``(exc, its traceback text)`` pickled, or ``(None, the text)`` when
    ``exc`` does not come back from pickling."""
    import traceback  # only a failing country needs it: keeps start-up short

    text = "".join(traceback.format_exception(exc))
    try:
        blob = pickle.dumps((exc, text), pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps((None, text), pickle.HIGHEST_PROTOCOL)


def _project_one(dataset: Dataset, scenarios: list, config: RunConfig, iso3: str):
    """All scenarios for one country: its (S, T+1) totals, then the lines of
    ``donors.csv`` and of ``ensembles.csv``, each a lazy iterable (empty
    unless dumped), so no dump is held whole. The scenarios are projected
    ``SCENARIO_CHUNK`` at a time, each in its own row."""
    base = dataset.base_population(iso3)
    cap = CapPolicy(config.fertility_cap)
    plan = [(sid, by_iso3[iso3]) for sid, by_iso3 in scenarios]
    # The target is not among its own candidates, so it never borrows from itself.
    donors_of = donor_sets({other: dataset.gdp_hist_series(other)
                            for other in dataset.country_map if other != iso3},
                           [p.gdp(BASE_YEAR) for _, p in plan], [p.max_gdp() for _, p in plan])
    cache: dict = {}
    steps = config.horizon - base.year
    totals = []
    made = []  # (scenario id, donors, ensembles) of each scenario, for the dumps
    for start in range(0, len(plan), SCENARIO_CHUNK):
        chunk = plan[start:start + SCENARIO_CHUNK]
        asfr = np.empty((len(chunk), steps, len(FERTILE_BANDS)))
        q = np.empty((len(chunk), steps, len(AGE_BANDS), 2))
        for i, ((sid, pathway), donors) in enumerate(zip(chunk, donors_of[start:])):
            ensembles = build_country_ensembles(dataset, iso3, donors, cache)
            asfr[i], q[i] = pathway_rates(base, ensembles, pathway, cap, config.horizon)
            made.append((sid, donors, ensembles))
        totals.append(project_totals(base, asfr, q, config.srb, [sid for sid, _ in chunk]))
    donor_lines = (f"{sid},{iso3},{donor}\n" for sid, donors, _ in made for donor in donors)
    ensemble_lines = (f"{sid},{iso3},{line}\n"
                      for sid, _, ensembles in made for line in ensembles.dump_lines)
    return (np.concatenate(totals), donor_lines if config.dump_donors else (),
            ensemble_lines if config.dump_ensembles else ())


def _sensitivity_rows(scenario_ids, countries, totals, horizon):
    """Per-country sensitivity at 2050 from the (S, N, T+1) totals, m1.0 the reference."""
    ids = [scenario_label(m) for m in (0.0, 2.0, 1.0)]  # in sensitivity_ratio's order
    if horizon < SENSITIVITY_YEAR or not set(ids) <= set(scenario_ids):
        return None
    pops = totals[:, :, SENSITIVITY_YEAR - BASE_YEAR][[scenario_ids.index(sid) for sid in ids]]
    return [(iso3, sensitivity_ratio(*pop)) for iso3, pop in zip(countries, pops.T)]


def _write_manifest(config: RunConfig, digests: dict[str, str], out: Path,
                    written: list[Path]) -> None:
    # jobs and out_dir are omitted: they cannot change the results.
    settings = {"format" if name == "out_format" else name: getattr(config, name)
                for name in RunConfig._fields if name not in ("jobs", "out_dir")}
    manifest = {"config": settings, "inputs": digests, "version": __version__}
    _write_lines(out / "run_manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)],
                 written)


def _scenario_plan(token: str) -> list[tuple[str, float | None]]:
    """The (scenario id, growth multiplier or None) of each scenario that the
    ``--scenario`` token runs; a bad token, or one that runs no scenario or
    two under one id, is a ``UsageError``."""
    if token in ("baseline", "convergence"):
        return [(token, None)]
    if token.startswith("m:"):
        value = _parse_float_token(token[2:], "multiplier")
        if value < 0.0:
            raise UsageError(f"multiplier must be non-negative, got {value}")
        return [(scenario_label(value), value)]
    if token == "sweep":
        multipliers = sweep_multipliers()
    elif token.startswith("sweep:"):
        parts = token.split(":")
        if len(parts) != 4:
            raise UsageError("sweep takes exactly sweep:<from>:<to>:<step>")
        m_from, m_to, step = (_parse_float_token(text, f"sweep {label}")
                              for text, label in zip(parts[1:], ("start", "end", "step")))
        if m_from < 0.0:
            raise UsageError("sweep start must be non-negative")
        try:
            multipliers = sweep_multipliers(m_from, m_to, step)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        raise UsageError(f"unrecognized scenario {token!r}; expected baseline, "
                         f"m:<value>, convergence, or sweep[:<from>:<to>:<step>]")
    if not multipliers:
        raise UsageError(f"scenario {token!r} produced no scenarios")
    plan = [(scenario_label(m), m) for m in multipliers]
    ids = sorted(sid for sid, _ in plan)
    for sid, next_sid in zip(ids, ids[1:]):
        if sid == next_sid:
            raise UsageError(f"scenario {token!r} gives two scenarios the id {sid!r}")
    return plan


def _parse_float_token(text: str, label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{label} must be numeric, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{label} must be finite, got {text!r}")
    return value


def _pathways(baselines: dict, scenario_id: str, m: float | None, horizon: int) -> dict:
    """Pathways by iso3 of one scenario of ``_scenario_plan``."""
    if m is not None:
        return {iso3: multiplier_pathway(base, m) for iso3, base in baselines.items()}
    if scenario_id == "baseline":
        return baselines
    return {iso3: convergence_pathway(iso3, base.gdp(BASE_YEAR), start=BASE_YEAR, end=horizon)
            for iso3, base in baselines.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demotrend",
        description="Project national populations to 2100 under GDP growth "
                    "scenarios, using GDP-coupled fertility and mortality "
                    "ensembles and annual cohort-component accounting.")
    parser.add_argument("--data-dir", default=os.environ.get("DEMOTREND_DATA_DIR"),
                        help="directory with the five input CSVs "
                             "(default: $DEMOTREND_DATA_DIR)")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", required=True,
                        help="output directory")
    parser.add_argument("--scenario", default=RunConfig.scenario,
                        help="baseline | m:<value> | convergence | "
                             "sweep[:<from>:<to>:<step>] (default: %(default)s)")
    parser.add_argument("--fertility-cap", type=float, default=RunConfig.fertility_cap,
                        help="GDP per capita cap for fertility inputs "
                             "(default: %(default)g)")
    parser.add_argument("--srb", type=float, default=RunConfig.srb,
                        help="sex ratio at birth, males per female (default: %(default)g)")
    parser.add_argument("--horizon", type=int, default=RunConfig.horizon,
                        help="final projected year (default: %(default)s)")
    parser.add_argument("--aggregate", default=",".join(RunConfig.aggregate),
                        type=lambda text: tuple(kind for kind in text.split(",") if kind),
                        help=f"comma-separated scopes: {','.join(SCOPE_KINDS)} "
                             "(default: %(default)s)")
    parser.add_argument("--dump-donors", action="store_true",
                        help="also write donors.csv")
    parser.add_argument("--dump-ensembles", action="store_true",
                        help="also write ensembles.csv")
    parser.add_argument("--jobs", default=RunConfig.jobs,
                        help="worker processes, or 'auto' (default: %(default)s)")
    parser.add_argument("--format", dest="out_format", default=RunConfig.out_format,
                        help="csv or csv+svg (default: %(default)s)")
    return parser


def _auto_jobs() -> int:
    """The CPUs this process may run on, where the OS tells, or fewer if a
    cgroup CPU quota gives less time: v2 ``cpu.max``, else v1
    ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``, rounded up."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            quota, period = map(int, " ".join((CGROUP_DIR / name).read_text()
                                              for name in names).split())
        except (OSError, ValueError):  # no such file, or "max": no quota
            continue
        if quota > 0 and period > 0:  # a quota of -1 is none
            return min(cpus, -(-quota // period))
    return cpus


def _config_from_args(args) -> RunConfig:
    try:
        jobs = _auto_jobs() if args.jobs == "auto" else int(args.jobs)
    except ValueError:
        raise UsageError(f"--jobs must be an integer or 'auto', got {args.jobs!r}") from None
    return RunConfig(**{**vars(args), "jobs": jobs})
