"""Benchmark for the demotrend batch CLI.

Run from the root of a demotrend checkout (the program is run from ``src``):

    python3 perfbench/run.py --workload tiny-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The load is closed-loop with one client: one CLI process at a time, each
launched after the previous one exits. ``--trace 0`` repeats the workload
for ``--seconds``, alternating each program run with a run of the frozen
seed program in ``reference/``, and reports the end-to-end metrics;
``--trace 1`` makes one untraced run and two traced runs at ``--jobs 1``
and reports the per-layer metrics. Every program run's outputs are checked.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Inputs, outputs, spans and a results file go to
``.perfbench_run/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import synth  # noqa: E402

DEFAULT_SEED = 0
SEED_COPY = HERE / "reference"  # frozen copy of the seed's demotrend package
MIN_PAIRS = 3  # timed (program, seed) pairs per invocation
SETUP_FIRST = 3  # set-up pairs before the first timed pair
SETUP_BETWEEN = 2  # set-up pairs before each further timed pair
RUN_TIMEOUT_S = 100.0
WORK_DIR = ".perfbench_run"
TINY_FIXTURE = Path("tests/fixtures/tiny")
GOLDEN_DIR = Path("tests/golden")
DIGESTS = HERE / "digests.json"

SETUP_PROBE = ("import sys, demotrend, numpy\n"
               "from demotrend.data_ingest import load_dataset\n"
               "load_dataset(sys.argv[1])\n"
               "print(demotrend.__file__)\n"
               "print(numpy.__version__)\n")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "country_scenarios_per_s": "1/s",
              "peak_rss_mib": "MiB", "setup_s": "s"}

# The host this was set up on runs the same code up to 1.4x slower for
# minutes at a time, so raw times of two sets of runs can differ by more
# than any bound. Timing metrics are therefore the program's time over the
# frozen seed program's time in the same run, times the seed program's
# median on that host given here: the program's time at that host's
# typical speed. See README.md.
SEED_NOMINAL = {
    "tiny-sweep": {"wall_s": 4.63, "cpu_s": 4.52, "setup_s": 0.289},
    "synth-fit": {"wall_s": 5.70, "cpu_s": 5.59, "setup_s": 0.311},
    "synth-mixed": {"wall_s": 6.34, "cpu_s": 10.8, "setup_s": 0.244},
}


@dataclass(frozen=True)
class Workload:
    name: str
    countries: int  # 0 is the three-country tiny shape
    mortality: str
    scenarios: int
    cli: tuple[str, ...]

    @property
    def jobs(self) -> int:
        return int(self.cli[self.cli.index("--jobs") + 1])

    @property
    def country_scope(self) -> bool:
        return "--aggregate" in self.cli and "country" in self.cli[
            self.cli.index("--aggregate") + 1].split(",")

    @property
    def dumps(self) -> bool:
        return "--dump-ensembles" in self.cli

    def with_jobs(self, jobs: int) -> list[str]:
        args = list(self.cli)
        args[args.index("--jobs") + 1] = str(jobs)
        return args


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("tiny-sweep", 0, "both", 5, ("--scenario", "sweep:0:2:0.5", "--jobs", "1")),
    Workload("synth-fit", 8, "both", 1, ("--scenario", "baseline", "--jobs", "1")),
    Workload("synth-mixed", 6, "mixed", 3,
             ("--scenario", "sweep:0:2:1", "--jobs", "2",
              "--aggregate", "world,income,region,country",
              "--dump-donors", "--dump-ensembles")),
]}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int


def run_process(argv: list[str], root: Path, log: Path, package_root: Path) -> Sample:
    """Launch one process, wait for it, and return its wall, CPU and peak RSS.

    ``package_root`` (on PYTHONPATH) holds the demotrend package to run.
    CPU and peak RSS come from wait4, so they include every worker the
    process reaped. A run past RUN_TIMEOUT_S is killed with its process group.
    """
    env = dict(os.environ, PYTHONPATH=str(package_root))
    with open(log, "ab") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=sink, stderr=sink,
                                start_new_session=True)
        timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mib=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Bench:
    """One workload at one seed, run inside ``root`` (a demotrend checkout)."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = Path(WORK_DIR) / workload.name  # relative: outputs name it
        self.program = root / "src"
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (run tag, problem)
        self.first_digests: dict[str, str] | None = None
        self.expected: dict[str, str] | None = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name)

    def prepare(self) -> None:
        work = self.root / self.work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if self.workload.countries == 0 and self.seed == DEFAULT_SEED:
            self.data_dir = TINY_FIXTURE
            return
        self.data_dir = self.work / "inputs"
        countries = (synth.tiny_countries() if self.workload.countries == 0
                     else synth.ladder_countries(self.workload.countries))
        synth.write_dataset(self.root / self.data_dir, countries,
                            self.workload.mortality, self.seed)

    def probe(self, package_root: Path) -> str:
        """Import demotrend and load the inputs in a fresh interpreter.

        Checks that demotrend comes from ``package_root``, fills
        ``__pycache__`` and returns the numpy version.
        """
        log = self.root / self.work / "setup.log"
        first = run_process(self.setup_argv(), self.root, log, package_root)
        lines = log.read_text(encoding="utf-8").splitlines()
        if first.exit_code != 0 or len(lines) < 2:
            raise SystemExit(f"error: cannot import demotrend from {package_root}")
        module_file, numpy_version = Path(lines[-2]).resolve(), lines[-1]
        if not module_file.is_relative_to(package_root.resolve()):
            raise SystemExit(f"error: demotrend was imported from {module_file}, "
                             f"not from {package_root}")
        return numpy_version

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", SETUP_PROBE, str(self.data_dir)]

    def setup_pairs(self, repeats: int) -> list[tuple[float, float]]:
        """(program, seed) wall times of ``repeats`` pairs of set-up launches."""
        pairs = []
        for k in range(repeats):
            times = {}
            order = (self.program, SEED_COPY) if k % 2 == 0 else (SEED_COPY, self.program)
            for package_root in order:
                sample = run_process(self.setup_argv(), self.root,
                                     self.root / self.work / "setup.log", package_root)
                if sample.exit_code != 0:
                    raise SystemExit(f"error: set-up launch exited with {sample.exit_code}")
                times[package_root] = sample.wall_s
            pairs.append((times[self.program], times[SEED_COPY]))
        return pairs

    def cli_argv(self, tag: str, args: list[str], tracer: bool = False) -> list[str]:
        argv = [sys.executable]
        if tracer:
            argv += [str(HERE / "tracer.py"),
                     "--spans", str(self.work / f"spans-{tag}.npz"),
                     "--summary", str(self.work / f"trace-{tag}.json"), "--"]
        else:
            argv += ["-m", "demotrend"]
        return argv + ["--data-dir", str(self.data_dir), "--out", str(self.work / f"out-{tag}"),
                       *args]

    def cli_run(self, tag: str, args: list[str], tracer: bool = False) -> tuple[Sample, bool]:
        """One program run; returns its sample and whether its outputs passed the check."""
        sample = run_process(self.cli_argv(tag, args, tracer), self.root,
                             self.root / self.work / f"run-{tag}.log", self.program)
        self.attempted += 1
        out = self.root / self.work / f"out-{tag}"
        problems = ([f"exit code {sample.exit_code}"] if sample.exit_code != 0
                    else self.verify(out))
        if problems:
            self.failures.append((tag, "; ".join(problems[:5])))
        else:
            shutil.rmtree(out)
        return sample, not problems

    def seed_run(self, tag: str, args: list[str]) -> Sample:
        """One run of the frozen seed program, the yardstick for host speed."""
        sample = run_process(self.cli_argv(tag, args), self.root,
                             self.root / self.work / f"run-{tag}.log", SEED_COPY)
        if sample.exit_code != 0:
            raise SystemExit(f"error: the seed program exited with {sample.exit_code}")
        shutil.rmtree(self.root / self.work / f"out-{tag}")
        return sample

    def verify(self, out: Path) -> list[str]:
        digests = checks.file_digests(out)
        if self.first_digests is not None:
            return [] if digests == self.first_digests else [
                "outputs differ from the first run of this invocation"]
        w = self.workload
        problems = checks.check_structure(out, self.root / self.data_dir, w.scenarios,
                                          w.country_scope, w.dumps)
        if self.seed == DEFAULT_SEED:
            if self.expected is None:
                problems.append(f"no recorded digests for {w.name} in {DIGESTS.name}")
            else:
                problems += checks.compare_digests(digests, self.expected)
        if self.data_dir == TINY_FIXTURE:
            problems += checks.check_golden(out, self.root / GOLDEN_DIR)
        if not problems:
            self.first_digests = digests
        return problems

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Timed pairs of program and seed runs for ``seconds``.

        Each pair runs the program and the frozen seed program on the same
        inputs, in alternating order, with set-up pairs between them. CLI
        time of both counts toward ``seconds``, and at least MIN_PAIRS pairs
        are made. Each timing metric is the program's total over the seed
        program's total, times SEED_NOMINAL; totals damp the second-scale
        host noise that single pairs carry better than a median of pair
        ratios does. Only pairs whose program outputs passed the check count
        (all pairs if none did, when ``correct`` is false anyway).
        """
        w = self.workload
        args = list(w.cli)
        runs: list[tuple[Sample, bool, Sample]] = []
        setup = self.setup_pairs(SETUP_FIRST)
        spent = 0.0
        while True:
            if runs:
                setup += self.setup_pairs(SETUP_BETWEEN)
            k = len(runs)
            if k % 2 == 0:
                program, passed = self.cli_run(str(k), args)
                seed = self.seed_run(f"seed{k}", args)
            else:
                seed = self.seed_run(f"seed{k}", args)
                program, passed = self.cli_run(str(k), args)
            runs.append((program, passed, seed))
            spent += program.wall_s + seed.wall_s
            if len(runs) >= MIN_PAIRS and spent + spent / len(runs) > seconds:
                break
        pairs = [(p, s) for p, passed, s in runs if passed] or [(p, s) for p, _, s in runs]
        series = {
            "program.wall_s": [p.wall_s for p, _ in pairs],
            "program.cpu_s": [p.cpu_s for p, _ in pairs],
            "program.peak_rss_mib": [p.peak_rss_mib for p, _ in pairs],
            "program.setup_s": [p for p, _ in setup],
            "seed.wall_s": [s.wall_s for _, s in pairs],
            "seed.cpu_s": [s.cpu_s for _, s in pairs],
            "seed.setup_s": [s for _, s in setup],
        }
        nominal = SEED_NOMINAL[w.name]

        def scaled(name: str) -> float:
            return (sum(series[f"program.{name}"]) / sum(series[f"seed.{name}"])
                    * nominal[name])

        values = {
            "wall_s": scaled("wall_s"),
            "cpu_s": scaled("cpu_s"),
            "country_scenarios_per_s": self.country_scenarios() / scaled("wall_s"),
            "peak_rss_mib": statistics.median(series["program.peak_rss_mib"]),
            "setup_s": scaled("setup_s"),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}, series

    def country_scenarios(self) -> int:
        lines = (self.root / self.data_dir / "countries.csv").read_text().splitlines()
        return sum(1 for line in lines[1:] if line.strip()) * self.workload.scenarios

    def traced(self) -> tuple[dict, dict]:
        w = self.workload
        untraced, _ = self.cli_run("untraced", list(w.cli))
        reference = (untraced if w.jobs == 1
                     else self.cli_run("untraced-jobs1", w.with_jobs(1))[0])
        runs = []
        for k in (1, 2):
            sample, passed = self.cli_run(f"traced{k}", w.with_jobs(1), tracer=True)
            summary = self.root / self.work / f"trace-traced{k}.json"
            if passed and summary.is_file():
                runs.append((sample, json.loads(summary.read_text())["metrics"]))
        if len(runs) != 2:
            self.failures.append(("traced", "traced runs did not both finish"))
            return {}, {}
        (first, a), (second, b) = runs
        for name in sorted(a):
            if not is_time(name) and a[name] != b.get(name):
                self.failures.append(("traced2", f"{name} differs across traced runs: "
                                                 f"{a[name]} vs {b.get(name)}"))
        layer = {name: (a[name] + b[name]) / 2.0 if is_time(name) else a[name]
                 for name in a}
        layer["cli.parallelism"] = untraced.cpu_s / untraced.wall_s
        traced_wall = (first.wall_s + second.wall_s) / 2.0
        layer["trace.overhead_s"] = traced_wall - reference.wall_s
        series = {"untraced_wall_s": [untraced.wall_s], "reference_wall_s": [reference.wall_s],
                  "traced_wall_s": [first.wall_s, second.wall_s]}
        return ({name: {"value": value, "unit": layer_unit(name)}
                 for name, value in sorted(layer.items())}, series)


def is_time(name: str) -> bool:
    """Time metrics are named ..._s or ..._s.<part>, like models.fit_s.Linear."""
    return name.endswith("_s") or "_s." in name


def layer_unit(name: str) -> str:
    if is_time(name):
        return "s"
    if name.endswith(("_ratio", "parallelism")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(root), "seed": seed}


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    bench.prepare()
    numpy_version = bench.probe(bench.program)
    env = environment(root, seed, numpy_version)
    if trace:
        metrics, series = bench.traced()
    else:
        bench.probe(SEED_COPY)
        metrics, series = bench.end_to_end(seconds)
    failed = len({tag for tag, _ in bench.failures})
    result = {"workload": workload.name, "env": env, "attempted": bench.attempted,
              "failed": failed, "failed_share": failed / max(bench.attempted, 1),
              "failures": [f"run {tag}: {problem}" for tag, problem in bench.failures],
              "metrics": metrics, "samples": series}
    (root / bench.work / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: env {json.dumps(result['env'], sort_keys=True)}")
    for failure in result["failures"]:
        print(f"{name}: FAILED {failure}")
    for metric, entry in result["metrics"].items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    for series, values in result["samples"].items():
        q1, median, q3 = quartiles(values)
        print(f"{name}: sample {series}: median {median:.6g} "
              f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{name}: failed_share = {result['failed_share']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in (root / "src" / "demotrend" / "__init__.py", root / TINY_FIXTURE,
                           root / GOLDEN_DIR) if not p.exists()]
    if missing:
        print(f"error: not a demotrend checkout (missing {missing[0]})", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = [run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
