"""Shared vocabulary: age bands, sexes, rate variables, country groupings."""
from __future__ import annotations

from enum import Enum


class Sex(Enum):
    FEMALE = "Female"
    MALE = "Male"
    BOTH = "Both"

    # Members are singletons compared by identity; hashing them in C keeps the
    # (iso3, variable, age band, sex) keys of every rate lookup cheap.
    __hash__ = object.__hash__


class Variable(Enum):
    FERTILITY = "Fertility"
    MORTALITY = "Mortality"

    __hash__ = object.__hash__  # see Sex


class IncomeGroup(Enum):
    HIGH = "High"
    UPPER_MIDDLE = "UpperMiddle"
    LOWER_MIDDLE = "LowerMiddle"
    LOW = "Low"


class Region(Enum):
    EAST_ASIA_PACIFIC = "EastAsiaPacific"
    EUROPE_CENTRAL_ASIA = "EuropeCentralAsia"
    LATIN_AMERICA_CARIBBEAN = "LatinAmericaCaribbean"
    MIDDLE_EAST_NORTH_AFRICA = "MiddleEastNorthAfrica"
    NORTH_AMERICA = "NorthAmerica"
    SOUTH_ASIA = "SouthAsia"
    SUB_SAHARAN_AFRICA = "SubSaharanAfrica"


def _five_year_bands() -> tuple[str, ...]:
    bands = [f"{lo}-{lo + 4}" for lo in range(0, 100, 5)]
    bands.append("100+")
    return tuple(bands)


# 21 five-year cohorts, "0-4" through "95-99" plus the open-ended "100+".
AGE_BANDS: tuple[str, ...] = _five_year_bands()
AGE_INDEX: dict[str, int] = {band: i for i, band in enumerate(AGE_BANDS)}

# Reproductive-age bands carrying age-specific fertility rates.
FERTILE_BANDS: tuple[str, ...] = AGE_BANDS[3:9]  # "15-19" .. "40-44"
FERTILE_SLICE = slice(3, 9)

# Column order for (age band, sex) count and rate arrays.
SEX_COLUMNS: tuple[Sex, Sex] = (Sex.FEMALE, Sex.MALE)
FEMALE_COL = 0
MALE_COL = 1

BASE_YEAR = 2015
END_YEAR = 2100
