"""Seeded synthetic input sets for the benchmark, shaped like tests/make_fixture.py.

Every set has GDP per capita observed five-yearly 1950-2015, fertility and
mortality rates that decline with GDP plus a sinusoidal wiggle, decadal GDP
projection anchors through 2100, and full 2015 cohort grids. The seed moves
wiggle phases, amplitudes, small level jitters and population shapes; it
never moves the income ladder far enough to change which countries qualify
as donors under the baseline, so run cost depends on the set's size and
mortality mode, not on the seed.

Two shapes:

* ``ladder_countries(n)``: n countries on a log-spaced GDP ladder. Rungs are
  LOG_STEP apart; history grows by 2.5 rungs from 1990 to 2015 and the
  baseline by 6.5 rungs from 2015 to 2100, so under the baseline the donors
  of rung i are rungs i+3 .. i+6, each threshold half a rung away from its
  nearest country. Under doubled growth (m = 2) the upper threshold sits at
  about 12.9 rungs, so for n <= 13 every rung from i+3 up is a donor.
* ``tiny_countries()``: three countries like the committed tiny fixture
  (poor target, middle-income donor, rich country).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FERTILE_BANDS = ["15-19", "20-24", "25-29", "30-34", "35-39", "40-44"]
AGE_BANDS = [f"{lo}-{lo + 4}" for lo in range(0, 100, 5)] + ["100+"]
REGIONS = ["SubSaharanAfrica", "SouthAsia", "EastAsiaPacific", "LatinAmericaCaribbean",
           "MiddleEastNorthAfrica", "EuropeCentralAsia", "NorthAmerica"]

ASFR_BASE = {"15-19": 0.06, "20-24": 0.22, "25-29": 0.21,
             "30-34": 0.14, "35-39": 0.07, "40-44": 0.02}
Q_BASE = [0.030, 0.004, 0.003, 0.004, 0.005, 0.006, 0.007, 0.009, 0.011,
          0.015, 0.020, 0.028, 0.040, 0.058, 0.085, 0.125, 0.180, 0.260,
          0.370, 0.500, 0.650]

HIST_YEARS = list(range(1950, 2016, 5))
ANCHOR_YEARS = list(range(2015, 2096, 10)) + [2100]

LADDER_BASE_GDP = 700.0
LOG_STEP = 0.25
HIST_RUNGS_PER_25Y = 2.5
BASELINE_RUNGS_TO_2100 = 6.5
LEVEL_JITTER = 0.03  # log-level jitter, well inside the half-rung margin

MORTALITY_MODES = ("both", "sexed", "mixed")
BOTH_EVERY = 4  # in mixed mode, every fourth country has only Both-sex mortality
SEX_FACTORS = {"Female": 0.85, "Male": 1.15}


@dataclass(frozen=True)
class Country:
    iso3: str
    income: str
    region: str
    gdp1950: float
    gdp2015: float
    gdp2100: float


def ladder_countries(n: int) -> list[Country]:
    """n countries on the donor ladder described in the module docstring."""
    if n < 1 or n > 26 * 26:
        raise ValueError("country count must lie in 1-676")
    rate = HIST_RUNGS_PER_25Y * LOG_STEP / 25.0
    out = []
    for i in range(n):
        g2015 = LADDER_BASE_GDP * math.exp(LOG_STEP * i)
        out.append(Country(
            iso3="Q" + chr(65 + i // 26) + chr(65 + i % 26),
            income=_income_group(g2015),
            region=REGIONS[i % len(REGIONS)],
            gdp1950=g2015 * math.exp(-rate * 65.0),
            gdp2015=g2015,
            gdp2100=g2015 * math.exp(BASELINE_RUNGS_TO_2100 * LOG_STEP)))
    return out


def tiny_countries() -> list[Country]:
    """The three-country shape of tests/fixtures/tiny."""
    return [
        Country("AAA", "Low", "SubSaharanAfrica", 600.0, 1400.0, 6000.0),
        Country("BBB", "UpperMiddle", "EastAsiaPacific", 1200.0, 3500.0, 9000.0),
        Country("CCC", "High", "NorthAmerica", 8000.0, 35000.0, 60000.0),
    ]


def write_dataset(out_dir, countries: list[Country], mortality: str = "both",
                  seed: int = 0) -> Path:
    """Write the five input CSVs for ``countries`` into ``out_dir``.

    ``mortality`` is ``both`` (Both-sex rows only), ``sexed`` (Female and
    Male rows) or ``mixed`` (sexed, except that every ``BOTH_EVERY``-th
    country, counting from the first, has only Both rows). The same
    arguments always give byte-identical files.
    """
    if mortality not in MORTALITY_MODES:
        raise ValueError(f"mortality must be one of {', '.join(MORTALITY_MODES)}")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    shaped = []
    for c in countries:
        jitter = math.exp(rng.uniform(-LEVEL_JITTER, LEVEL_JITTER))
        shaped.append((c, jitter, {
            "gdp_phase": rng.uniform(0.0, 2.0 * math.pi),
            "asfr_phase": rng.uniform(0.0, 2.0 * math.pi),
            "q_phase": {sex: rng.uniform(0.0, 2.0 * math.pi)
                        for sex in ("Both", "Female", "Male")},
            "asfr_amp": rng.uniform(0.02, 0.05),
            "q_amp": rng.uniform(0.03, 0.06),
            "pop_scale": rng.uniform(0.5e6, 2.0e6),
            "pop_decay": rng.uniform(0.01, 0.16),
            "male_ratio": rng.uniform(1.0, 1.06),
        }))

    lines = ["iso3,name,income_group,region"]
    for c, _, _ in shaped:
        lines.append(f"{c.iso3},Country {c.iso3},{c.income},{c.region}")
    _write(out / "countries.csv", lines)

    lines = ["iso3,year,gdp_pc"]
    for c, jitter, p in shaped:
        for year in HIST_YEARS:
            lines.append(f"{c.iso3},{year},{_gdp_hist(c, jitter, p, year)}")
    _write(out / "gdp_hist.csv", lines)

    lines = ["iso3,year,gdp_pc"]
    for c, jitter, _ in shaped:
        for year in ANCHOR_YEARS:
            frac = (year - 2015) / 85.0
            value = c.gdp2015 * jitter * (c.gdp2100 / c.gdp2015) ** frac
            lines.append(f"{c.iso3},{year},{round(value, 2)}")
    _write(out / "gdp_baseline.csv", lines)

    lines = ["iso3,year,variable,age_group,sex,rate"]
    for index, (c, jitter, p) in enumerate(shaped):
        if mortality == "both" or (mortality == "mixed" and index % BOTH_EVERY == 0):
            sexes = ["Both"]
        else:
            sexes = ["Female", "Male"]
        for year in HIST_YEARS:
            gdp = _gdp_hist(c, jitter, p, year)
            for b, band in enumerate(FERTILE_BANDS):
                level = 0.55 + 1.1 / (1.0 + gdp / 1200.0)
                wiggle = 1.0 + p["asfr_amp"] * math.sin(0.7 * (year - 1950) + b + p["asfr_phase"])
                lines.append(f"{c.iso3},{year},Fertility,{band},Female,"
                             f"{round(ASFR_BASE[band] * level * wiggle, 6)}")
            for sex in sexes:
                factor = SEX_FACTORS.get(sex, 1.0)
                for i, band in enumerate(AGE_BANDS):
                    level = 0.5 + 1.4 / (1.0 + gdp / 900.0)
                    wiggle = 1.0 + p["q_amp"] * math.sin(1.3 * (year - 1950) + i
                                                         + p["q_phase"][sex])
                    q = min(max(Q_BASE[i] * factor * level * wiggle, 1e-5), 0.95)
                    lines.append(f"{c.iso3},{year},Mortality,{band},{sex},{round(q, 6)}")
    _write(out / "rates.csv", lines)

    lines = ["iso3,year,age_group,sex,count"]
    for c, _, p in shaped:
        for i, band in enumerate(AGE_BANDS):
            female = p["pop_scale"] * math.exp(-p["pop_decay"] * i)
            lines.append(f"{c.iso3},2015,{band},Female,{round(female)}")
            lines.append(f"{c.iso3},2015,{band},Male,{round(female * p['male_ratio'])}")
    _write(out / "base_pop.csv", lines)
    return out


def _income_group(gdp2015: float) -> str:
    if gdp2015 < 1000.0:
        return "Low"
    if gdp2015 < 4000.0:
        return "LowerMiddle"
    if gdp2015 < 12500.0:
        return "UpperMiddle"
    return "High"


def _gdp_hist(c: Country, jitter: float, p: dict, year: int) -> float:
    frac = (year - 1950) / 65.0
    smooth = c.gdp1950 * jitter * (c.gdp2015 / c.gdp1950) ** frac
    wiggle = 1.0 + 0.03 * math.sin(0.9 * (year - 1950) + p["gdp_phase"])
    if year in (1950, 2015):
        wiggle = 1.0  # pinned, as in the tiny fixture
    return round(smooth * wiggle, 2)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

