import functools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import seed_oracle
from demotrend import cli
from demotrend.data_ingest import load_dataset
from demotrend.models import FORM_ORDER
from demotrend.rate_forecast import EnsembleTable

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    outcomes: dict[int, tuple[str, str]] = {}
    for category, label in (("passed", "PASS"), ("failed", "FAIL"),
                            ("error", "FAIL"), ("skipped", "WAIVED")):
        for report in terminalreporter.stats.get(category, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            match = _CRITERION.search(nodeid)
            if match is None:
                continue
            number = int(match.group(1))
            title = match.group(2).replace("_", " ")
            if label == "FAIL" or number not in outcomes:
                outcomes[number] = (title, label)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        title, label = outcomes[number]
        terminalreporter.write_line(f"criterion {number} ({title}): {label}")

TESTS = Path(__file__).parent
TINY = TESTS / "fixtures" / "tiny"
SYNTH = seed_oracle.load("perfbench_synth", seed_oracle.PERFBENCH / "synth.py")

AGE_BANDS = [f"{lo}-{lo + 4}" for lo in range(0, 100, 5)] + ["100+"]


def world_like(n: int) -> list:
    """n ``SYNTH.Country`` records spread like the world's incomes: 2015 GDP at
    the midpoints of n equal log steps from 400 to 90,000, 1950 GDP e^1.3
    below it, and 2100 GDP e^1.6, e^1.0 or e^0.6 above it for 2015 GDP under
    5,000, under 20,000 and above. Unlike ``SYNTH.ladder_countries``, a
    country may borrow many donors, and a donor threshold may lie near a
    country."""
    step = math.log(90_000 / 400) / n
    countries = []
    for i in range(n):
        gdp = 400 * math.exp(step * (i + 0.5))
        rise = 1.6 if gdp < 5_000 else 1.0 if gdp < 20_000 else 0.6
        countries.append(SYNTH.Country(
            iso3="W" + chr(65 + i // 26) + chr(65 + i % 26), income=SYNTH._income_group(gdp),
            region=SYNTH.REGIONS[i % len(SYNTH.REGIONS)], gdp1950=gdp * math.exp(-1.3),
            gdp2015=gdp, gdp2100=gdp * math.exp(rise)))
    return countries


@pytest.fixture(scope="session")
def tiny_dir() -> Path:
    return TINY


@pytest.fixture(scope="session")
def tiny_dataset():
    return load_dataset(TINY)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory) -> Path:
    """The benchmark's synth-mixed shape at four ladder countries: sexed and
    Both-only mortality, donor sets that change with m, seed 0."""
    return SYNTH.write_dataset(tmp_path_factory.mktemp("synth") / "data",
                               SYNTH.ladder_countries(4), "mixed", 0)


def recorded_run(data_dir, out_dir):
    """An in-process ``sweep:0:2:1`` run that dumps ``donors.csv``: each
    country's totals (S, T+1), and the ensembles of each distinct (iso3,
    donors) that it builds."""
    totals, ensembles = {}, {}
    project_one, build = cli._project_one, cli.build_country_ensembles

    def recording_project(*args):
        result = project_one(*args)
        totals[args[-1]] = result[0]  # args end with the iso3
        return result

    def recording_build(dataset, iso3, donors, cache=None):
        built = ensembles[(iso3, tuple(donors))] = build(dataset, iso3, donors, cache)
        return built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_project_one", recording_project)
        patch.setattr(cli, "build_country_ensembles", recording_build)
        cli.run(cli.RunConfig(data_dir=str(data_dir), out_dir=str(out_dir),
                              scenario="sweep:0:2:1", out_format="csv", dump_donors=True))
    return totals, ensembles


@pytest.fixture(scope="session")
def seed_sweeps(tiny_dir, synth_dir, tmp_path_factory):
    """By data set, "tiny" or "synth": this package's ``sweep:0:2:1`` run and
    the seed's ``seed_oracle.project`` of it, each as (totals by iso3,
    ``donors.csv`` lines, ensembles by (iso3, donors)), made once a session."""
    @functools.cache
    def sweeps(data):
        data_dir = tiny_dir if data == "tiny" else synth_dir
        out = tmp_path_factory.mktemp(data) / "out"
        totals, ensembles = recorded_run(data_dir, out)
        donors = (out / "donors.csv").read_text(encoding="utf-8").splitlines()[1:]
        return (totals, donors, ensembles), seed_oracle.project(data_dir, "sweep:0:2:1")
    return sweeps


FERTILE_BANDS = AGE_BANDS[3:9]


def minimal_rows() -> dict[str, list[str]]:
    """Smallest projectable input set: one country, one 1990 observation per
    rate series (so every ensemble falls back to the flat null form)."""
    rows = {
        "countries.csv": ["iso3,name,income_group,region",
                          "AAA,Aleph,Low,SubSaharanAfrica"],
        "rates.csv": ["iso3,year,variable,age_group,sex,rate"],
        "gdp_hist.csv": ["iso3,year,gdp_pc", "AAA,1990,500", "AAA,2015,900"],
        "gdp_baseline.csv": ["iso3,year,gdp_pc"]
                            + [f"AAA,{y},{900 + 10 * (y - 2015)}"
                               for y in list(range(2015, 2096, 10)) + [2100]],
        "base_pop.csv": ["iso3,year,age_group,sex,count"],
    }
    for band in FERTILE_BANDS:
        rows["rates.csv"].append(f"AAA,1990,Fertility,{band},Female,0.2")
    for i, band in enumerate(AGE_BANDS):
        rows["rates.csv"].append(f"AAA,1990,Mortality,{band},Both,"
                                 f"{0.01 + 0.03 * i / 20:.4f}")
    for band in AGE_BANDS:
        rows["base_pop.csv"].append(f"AAA,2015,{band},Female,1000")
        rows["base_pop.csv"].append(f"AAA,2015,{band},Male,1040")
    return rows


def write_rows(tmp_path: Path, rows: dict[str, list[str]]) -> Path:
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    for name, lines in rows.items():
        (data_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data_dir


def table_of(forms, coefs):
    """Row i is an ensemble of ``forms[i]`` alone, weight 1; every form of
    ``forms`` has row i's coefficients ``coefs[i]``, in the ensemble or not."""
    shape = (len(forms), len(FORM_ORDER))
    member, coef, weight = np.zeros(shape, dtype=bool), np.full((*shape, 4), np.nan), np.zeros(shape)
    for row, form in enumerate(forms):
        member[row, FORM_ORDER.index(form)] = True
        for other in forms:
            coef[row, FORM_ORDER.index(other)] = coefs[row]
    weight[member] = 1.0
    return EnsembleTable(member=member, coef=coef, weight=weight, sigma=np.ones(shape),
                         aicc=np.zeros(shape), n_fit=np.full(len(forms), 10))


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    import os
    import subprocess

    # This process's import path, absolute, so that a run in another cwd
    # imports the same package.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "demotrend", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr
