import re
import sys
from pathlib import Path

import numpy as np
import pytest

from demotrend.data_ingest import load_dataset
from demotrend.models import FitResult, ModelForm

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

AGE_BANDS = [f"{lo}-{lo + 4}" for lo in range(0, 100, 5)] + ["100+"]


@pytest.fixture(scope="session")
def tiny_dir() -> Path:
    return TINY


@pytest.fixture(scope="session")
def tiny_dataset():
    return load_dataset(TINY)


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


def oracle_prediction(fit_result: FitResult, xs) -> np.ndarray:
    """Unclamped model values of one fit; the one-row oracle of ``predict_rows``."""
    x = np.asarray(xs, dtype=float)
    f = fit_result
    if f.form is ModelForm.NULL:
        return np.full_like(x, f.ybar)
    if f.form is ModelForm.LINEAR:
        return f.beta1 + f.beta2 * x
    if f.form is ModelForm.DIVISION:
        return f.beta1 + f.beta2 / x
    if f.form is ModelForm.NEG_LOG:
        return f.beta1 + f.beta2 * np.log(x)
    if f.form is ModelForm.NEG_POWER:
        return f.beta1 + f.beta2 * x ** (-f.beta3)
    c = f.breakpoint_x1
    if f.form is ModelForm.LINEAR_SPLINE:
        return (f.beta1 + f.beta2 * np.minimum(x, c)
                + f.slope_right * np.maximum(x - c, 0.0))
    if f.form is ModelForm.RIGHT_HINGE:
        return f.beta1 + f.beta2 * np.minimum(x, c)
    if f.form is ModelForm.LEFT_HINGE:
        return f.beta1 + f.beta2 * np.maximum(x, c)
    raise ValueError(f"unknown form {f.form}")


def scalar_forecast(ensemble, gdp, fertility, cap_gdp):
    """Oracle for the pathway forecast: one GDP value at a time, in Python floats.

    Each member's raw prediction at the (capped, for fertility) GDP value is
    clamped at zero and the weighted values are summed in member order.
    """
    out = []
    for g in gdp:
        x = min(float(g), cap_gdp) if fertility else float(g)
        total = 0.0
        for member, weight in zip(ensemble.members, ensemble.weights):
            value = float(oracle_prediction(member, [x])[0])
            total += weight * (value if value > 0.0 else 0.0)
        out.append(total)
    return out


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
