"""Command-line runner: ingest, fit, project, aggregate, emit.

Exit codes: 0 success, 1 data error, 2 usage error, 3 internal error.
Outputs are deterministic: identical inputs and configuration produce
byte-identical files regardless of the worker count.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .augmentation import DonorRule, select_donors
from .core import (AGE_BANDS, BASE_YEAR, END_YEAR, FERTILE_BANDS, SEX_COLUMNS, Record, Sex,
                   Variable)
from .data_ingest import HEADERS, Dataset, load_dataset
from .demography import pathway_rates, project_totals
from .errors import DemotrendError, IoFailure, SchemaViolation
from .models import FORM_ORDER, ModelForm
from .rate_forecast import CapPolicy, build_country_ensembles
from .report import RunResult, aggregate, emit_outputs, scopes_for, sensitivity_ratio
from .scenarios import (
    build_baselines,
    convergence_pathway,
    multiplier_pathway,
    scenario_label,
    sweep_multipliers,
)

AGGREGATE_KINDS = ("world", "income", "region", "country")
# Name and header of donors.csv and ensembles.csv.
_DUMPS = (("donors.csv", "scenario_id,target_iso3,donor_iso3"),
          ("ensembles.csv", "scenario_id,iso3,variable,age_group,sex,form,weight,"
                            "beta1,beta2,beta3,x1,sigma,aicc"))
SENSITIVITY_YEAR = 2050
CGROUP_DIR = Path("/sys/fs/cgroup")  # where --jobs auto looks for a CPU quota
# What a --jobs worker reads from the task pipe (a country's index), and what
# it announces on the result pipe: that index, the worker's number, and the
# offset and size of the pickled result in the worker's spool file.
_TASK = struct.Struct("=I")
_RESULT = struct.Struct("=IIQQ")
_SIGKILL = 9  # signal.SIGKILL on every POSIX system; importing signal takes about 1 ms

# Per form, which of the weight, beta1, beta2, beta3, x1, sigma and aicc
# columns of ensembles.csv it fills from its table entries.
_DUMPED = [(True, form is not ModelForm.NULL, form is not ModelForm.NULL,
            form is ModelForm.NEG_POWER,
            form in (ModelForm.LINEAR_SPLINE, ModelForm.RIGHT_HINGE, ModelForm.LEFT_HINGE),
            True, True) for form in FORM_ORDER]
# The variable, age_group and sex of each series of a country, in dump order.
_DUMP_SERIES = ([f"{Variable.FERTILITY.value},{band},{Sex.FEMALE.value}"
                 for band in FERTILE_BANDS]
                + [f"{Variable.MORTALITY.value},{band},{sex.value}"
                   for band in AGE_BANDS for sex in SEX_COLUMNS])


class UsageError(Exception):
    """Bad invocation: flags or scenario token, not data."""


class RunConfig(Record, frozen=True):
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


class _WorkerPayload(Record, eq=False):
    dataset: Dataset
    scenarios: list
    config: RunConfig


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

    payload = _WorkerPayload(dataset=dataset, scenarios=scenario_list, config=config)
    scenario_ids = [sid for sid, _ in scenario_list]
    country_totals: dict[str, dict[str, np.ndarray]] = {sid: {} for sid in scenario_ids}
    out = Path(config.out_dir)
    # The directories of --out that this run would create, deepest first.
    made = list(itertools.takewhile(lambda path: not path.exists(), (out, *out.parents)))
    written: list[Path] = []
    try:
        with contextlib.ExitStack() as stack:
            dumps = []  # rows are written as each country arrives, in country order
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
                    _forked_map(payload, countries, min(config.jobs, len(countries)))))
            else:
                per_country = map(_project_one, itertools.repeat(payload), countries)
            for iso3, totals, *texts in per_country:
                for sid, series in zip(scenario_ids, totals):
                    country_totals[sid][iso3] = series
                for handle, text in zip(dumps, texts):
                    if handle is not None:
                        handle.write(text)

        scopes = scopes_for(config.aggregate, dataset)
        aggregates = {
            sid: [aggregate(country_totals[sid], scope, dataset.country_map, sid, BASE_YEAR)
                  for scope in scopes]
            for sid in scenario_ids
        }
        sensitivity = _sensitivity_rows(scenario_ids, country_totals, config.horizon)
        result = RunResult(start_year=BASE_YEAR, scenario_ids=scenario_ids,
                           aggregates=aggregates, sensitivity=sensitivity)
        written[:0] = emit_outputs(result, out, config.out_format)
        written.append(_write_manifest(config, out))
    except BaseException as exc:
        for path in written:
            path.unlink(missing_ok=True)
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()  # only if the run left it empty
        if isinstance(exc, OSError):
            raise IoFailure(f"failed writing outputs to {out}: {exc}") from exc
        raise
    return written


def _forked_map(payload: _WorkerPayload, countries: list[str], jobs: int):
    """``_project_one(payload, iso3)`` for each country, yielded in country
    order, computed by ``jobs`` forked workers that inherit ``payload``.

    The country indices go into one task pipe, before the first fork as far
    as one atomic write holds them, and a free worker reads the next one. A
    worker pickles each result, or exception, into its own unlinked spool
    file and announces it in one atomic write on the shared result pipe, so
    it never waits for the parent. An ``OSError`` while making the pipes,
    spools or workers is a ``RuntimeError``. Every way out of this generator
    kills and reaps the workers and closes the pipes and spools.
    """
    pids: list[int] = []
    try:
        with contextlib.ExitStack() as stack:
            try:
                tasks_r, tasks_w, results_r, results_w = (
                    stack.enter_context(open(fd, mode, buffering=0))
                    for _ in range(2) for fd, mode in zip(os.pipe(), ("rb", "wb")))
                spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(jobs)]
                order = b"".join(map(_TASK.pack, range(len(countries))))
                # A write of at most PIPE_BUF bytes is atomic and fits an empty pipe;
                # indices past it (1,024 countries on Linux) go in once workers read.
                chunk = os.fpathconf(tasks_w.fileno(), "PC_PIPE_BUF")
                tasks_w.write(order[:chunk])
                # Workers then share the parent's heap without copying it: collections
                # in a worker skip frozen objects. Thawing would also thaw the heap
                # that the entry point froze, so only a heap frozen here is thawed.
                thaw = not gc.get_freeze_count()
                gc.freeze()
                try:
                    for worker, spool in enumerate(spools):
                        pid = os.fork()
                        if pid == 0:
                            code = 1
                            try:
                                tasks_w.close()
                                results_r.close()
                                _work(payload, countries, tasks_r, results_w, spool, worker)
                                code = 0
                            finally:
                                os._exit(code)
                        pids.append(pid)
                finally:
                    if thaw:
                        gc.unfreeze()
            except OSError as exc:
                raise RuntimeError(f"could not start --jobs workers: {exc}") from exc
            tasks_r.close()
            results_w.close()  # results_r reads end of file once every worker is gone
            with contextlib.suppress(BrokenPipeError):  # every worker is gone: reported below
                for start in range(chunk, len(order), chunk):
                    tasks_w.write(order[start:start + chunk])
            tasks_w.close()
            ready: dict[int, list[int]] = {}  # index: worker, offset, size
            for index, iso3 in enumerate(countries):
                while index not in ready:
                    record = results_r.read(_RESULT.size)
                    if len(record) < _RESULT.size:
                        raise RuntimeError(f"a --jobs worker exited without a result for {iso3}")
                    done, *where = _RESULT.unpack(record)
                    ready[done] = where
                worker, offset, size = ready.pop(index)
                value, failure = pickle.loads(os.pread(spools[worker].fileno(), size, offset))
                if failure is not None:
                    remote = RuntimeError(f"{iso3} failed in a --jobs worker:\n{failure}")
                    if value is None:
                        raise remote
                    raise value from remote
                yield value
    finally:
        for pid in pids:
            os.kill(pid, _SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(payload: _WorkerPayload, countries: list[str], tasks, results, spool,
          worker: int) -> None:
    """A forked worker: project the country of each index read from ``tasks``
    until the pipe is empty and closed, spooling and announcing each result."""
    offset = 0
    while task := tasks.read(_TASK.size):
        index, = _TASK.unpack(task)
        try:
            blob = pickle.dumps((_project_one(payload, countries[index]), None),
                                pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            blob = _pickled_failure(exc)
        spool.write(blob)
        spool.flush()
        results.write(_RESULT.pack(index, worker, offset, len(blob)))
        offset += len(blob)


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


def _project_one(p: _WorkerPayload, iso3: str):
    """All scenarios for one country: the (S, T+1) totals, then the
    ``donors.csv`` and ``ensembles.csv`` text (empty unless dumped)."""
    dataset, config = p.dataset, p.config
    base = dataset.base_population(iso3)
    cap = CapPolicy(config.fertility_cap)
    # select_donors skips a country without GDP rows in its window.
    candidates = {other: dataset.gdp_hist_series(other)
                  for other in sorted(dataset.country_map) if other != iso3}
    cache: dict = {}
    dumped: dict[tuple, list[str]] = {}  # ensembles.csv cells per donor set
    steps = config.horizon - base.year
    asfr = np.empty((len(p.scenarios), steps, len(FERTILE_BANDS)))
    q = np.empty((len(p.scenarios), steps, len(AGE_BANDS), 2))
    donor_lines: list[str] = []
    ensemble_lines: list[str] = []
    for i, (sid, pathways) in enumerate(p.scenarios):
        pathway = pathways[iso3]
        rule = DonorRule(target_gdp_2015=pathway.gdp(BASE_YEAR),
                         target_pathway_max=pathway.max_gdp())
        donors = select_donors(rule, candidates)
        ensembles = build_country_ensembles(dataset, iso3, donors, cache)
        asfr[i], q[i] = pathway_rates(base, ensembles, pathway, cap, config.horizon)
        if config.dump_donors:
            donor_lines.extend(f"{sid},{iso3},{donor}\n" for donor in donors)
        if config.dump_ensembles:
            if tuple(donors) not in dumped:
                dumped[tuple(donors)] = _ensemble_dump_cells(ensembles)
            ensemble_lines.extend(f"{sid},{iso3},{cells}\n" for cells in dumped[tuple(donors)])
    totals = project_totals(base, asfr, q, config.srb, [sid for sid, _ in p.scenarios])
    return iso3, totals, "".join(donor_lines), "".join(ensemble_lines)


def _ensemble_dump_cells(ensembles) -> list[str]:
    """``ensembles.csv`` lines of one country less scenario_id and iso3, one per
    member of each series, formatted from the ensemble table."""
    table = ensembles.table
    rows, cols = np.nonzero(table.member)
    values = np.column_stack([table.weight[rows, cols], table.coef[rows, cols],
                              table.sigma[rows, cols], table.aicc[rows, cols]]).ravel()
    written = [w for col in cols.tolist() for w in _DUMPED[col]]
    text = [f"{v:.9g}" if w else "" for v, w in zip(values.tolist(), written)]
    members: dict[int, list[str]] = {}
    for i, (row, col) in enumerate(zip(rows.tolist(), cols.tolist())):
        members.setdefault(row, []).append(
            ",".join([FORM_ORDER[col].value, *text[7 * i:7 * i + 7]]))
    order = [*ensembles.fertility_rows.tolist(), *ensembles.mortality_rows.ravel().tolist()]
    return [f"{series},{member}"
            for series, row in zip(_DUMP_SERIES, order) for member in members[row]]


def _sensitivity_rows(scenario_ids, country_totals, horizon):
    """Per-country sensitivity at 2050, with m1.0 as the reference."""
    if horizon < SENSITIVITY_YEAR or not {"m0.0", "m1.0", "m2.0"} <= set(scenario_ids):
        return None
    idx = SENSITIVITY_YEAR - BASE_YEAR
    low, reference, high = (country_totals[sid] for sid in ("m0.0", "m1.0", "m2.0"))
    return [(iso3, sensitivity_ratio(low[iso3][idx], high[iso3][idx], reference[iso3][idx]))
            for iso3 in sorted(reference)]


def _write_manifest(config: RunConfig, out: Path) -> Path:
    digests = {}
    for name in sorted(HEADERS):
        digest = hashlib.sha256()
        digest.update((Path(config.data_dir) / name).read_bytes())
        digests[name] = digest.hexdigest()
    # jobs and out_dir are omitted: they cannot change the results.
    manifest = {
        "config": {
            "aggregate": list(config.aggregate),
            "data_dir": config.data_dir,
            "dump_donors": config.dump_donors,
            "dump_ensembles": config.dump_ensembles,
            "fertility_cap": config.fertility_cap,
            "format": config.out_format,
            "horizon": config.horizon,
            "scenario": config.scenario,
            "srb": config.srb,
        },
        "inputs": digests,
        "version": __version__,
    }
    path = out / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _scenario_plan(token: str) -> list[tuple[str, float | None]]:
    """The (scenario id, growth multiplier or None) of each scenario that the
    ``--scenario`` token runs; a bad token, or one that runs no scenario, is a
    ``UsageError``."""
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
    return [(scenario_label(m), m) for m in multipliers]


def _parse_float_token(text: str, label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{label} must be numeric, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{label} must be finite, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for the numeric flags."""
    try:
        return _parse_float_token(text, "value")
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scenario", default="baseline",
                        help="baseline | m:<value> | convergence | "
                             "sweep[:<from>:<to>:<step>] (default: baseline)")
    parser.add_argument("--fertility-cap", type=_finite_float, default=30000.0,
                        help="GDP per capita cap for fertility inputs "
                             "(default: 30000)")
    parser.add_argument("--srb", type=_finite_float, default=1.05,
                        help="sex ratio at birth, males per female (default: 1.05)")
    parser.add_argument("--horizon", type=int, default=END_YEAR,
                        help=f"final projected year (default: {END_YEAR})")
    parser.add_argument("--aggregate", default="world,income,region",
                        help="comma-separated scopes: world,income,region,country")
    parser.add_argument("--dump-donors", action="store_true",
                        help="also write donors.csv")
    parser.add_argument("--dump-ensembles", action="store_true",
                        help="also write ensembles.csv")
    parser.add_argument("--jobs", default="1",
                        help="worker processes, or 'auto' (default: 1)")
    parser.add_argument("--format", dest="out_format",
                        choices=["csv", "csv+svg"], default="csv+svg")
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
    if not args.data_dir:
        raise UsageError("--data-dir is required (or set DEMOTREND_DATA_DIR)")
    if args.jobs == "auto":
        jobs = _auto_jobs()
    else:
        try:
            jobs = int(args.jobs)
        except ValueError:
            raise UsageError(f"--jobs must be an integer or 'auto', got {args.jobs!r}") from None
        if jobs < 1:
            raise UsageError("--jobs must be at least 1")
    if not BASE_YEAR < args.horizon <= END_YEAR:
        raise UsageError(f"--horizon must lie in {BASE_YEAR + 1}-{END_YEAR}")
    if args.fertility_cap <= 0.0:
        raise UsageError("--fertility-cap must be positive")
    if args.srb <= 0.0:
        raise UsageError("--srb must be positive")
    kinds = tuple(k for k in args.aggregate.split(",") if k)
    if not kinds or any(k not in AGGREGATE_KINDS for k in kinds):
        raise UsageError(f"--aggregate accepts {', '.join(AGGREGATE_KINDS)}")
    return RunConfig(data_dir=args.data_dir, out_dir=args.out, scenario=args.scenario,
                     fertility_cap=args.fertility_cap, srb=args.srb,
                     horizon=args.horizon, aggregate=kinds,
                     dump_donors=args.dump_donors, dump_ensembles=args.dump_ensembles,
                     jobs=jobs, out_format=args.out_format)
