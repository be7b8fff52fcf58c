"""Loading and validation of the five CSV inputs.

Input directory layout::

    countries.csv     iso3,name,income_group,region
    rates.csv         iso3,year,variable,age_group,sex,rate
    gdp_hist.csv      iso3,year,gdp_pc
    gdp_baseline.csv  iso3,year,gdp_pc
    base_pop.csv      iso3,year,age_group,sex,count

Loading is strict about schema and value ranges but tolerant of rows whose
iso3 code is not in the country register: those rows are dropped and
reported as diagnostics rather than aborting the load. Observation series
are stored raw; interpolation between observed years is the consumer's job.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    AGE_BANDS,
    AGE_INDEX,
    BASE_YEAR,
    FERTILE_BANDS,
    IncomeGroup,
    Region,
    Sex,
    SEX_COLUMNS,
    Variable,
)
from .errors import MissingFile, NonPositiveGdp, SchemaViolation, UnknownCountry

HEADERS = {
    "countries.csv": ["iso3", "name", "income_group", "region"],
    "rates.csv": ["iso3", "year", "variable", "age_group", "sex", "rate"],
    "gdp_hist.csv": ["iso3", "year", "gdp_pc"],
    "gdp_baseline.csv": ["iso3", "year", "gdp_pc"],
    "base_pop.csv": ["iso3", "year", "age_group", "sex", "count"],
}

RATE_YEAR_MIN = 1950
RATE_YEAR_MAX = 2015


@dataclass(frozen=True)
class CountryRecord:
    iso3: str
    name: str
    income_group: IncomeGroup
    region: Region


@dataclass(frozen=True)
class RateObservation:
    iso3: str
    year: int
    variable: Variable
    age_group: str
    sex: Sex
    rate: float


@dataclass(frozen=True)
class GdpObservation:
    iso3: str
    year: int
    gdp_pc: float


@dataclass(eq=False)
class BasePopulation:
    """Base-year cohort counts, shape (21 age bands, 2 sexes)."""

    iso3: str
    year: int
    counts: np.ndarray


@dataclass(eq=False)
class Dataset:
    countries: list[CountryRecord]
    rates: list[RateObservation]
    gdp_hist: list[GdpObservation]
    gdp_baseline: list[GdpObservation]
    base_pop: list[BasePopulation]
    rejections: list[UnknownCountry] = field(default_factory=list)

    @cached_property
    def country_map(self) -> dict[str, CountryRecord]:
        return {c.iso3: c for c in self.countries}

    @cached_property
    def _rate_index(self) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
        grouped: dict[tuple, list[tuple[int, float]]] = {}
        for r in self.rates:
            key = (r.iso3, r.variable, r.age_group, r.sex)
            grouped.setdefault(key, []).append((r.year, r.rate))
        index = {}
        for key, pairs in grouped.items():
            pairs.sort()
            years = np.array([p[0] for p in pairs], dtype=float)
            values = np.array([p[1] for p in pairs], dtype=float)
            index[key] = (years, values)
        return index

    @cached_property
    def _gdp_hist_index(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return _group_gdp(self.gdp_hist)

    @cached_property
    def _gdp_baseline_index(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return _group_gdp(self.gdp_baseline)

    @cached_property
    def _base_pop_index(self) -> dict[str, BasePopulation]:
        return {b.iso3: b for b in self.base_pop}

    @cached_property
    def sexed_mortality(self) -> frozenset[tuple[str, str]]:
        """The (iso3, age band) pairs with sex-specific mortality rows.

        Female and Male mortality of any other pair resolve to the same
        rows: the Both rows, or none.
        """
        return frozenset((iso3, band) for iso3, variable, band, sex in self._rate_index
                         if variable is Variable.MORTALITY and sex is not Sex.BOTH)

    @property
    def has_sexed_mortality(self) -> bool:
        return bool(self.sexed_mortality)

    def rate_series(self, iso3: str, variable: Variable, age_group: str,
                    sex: Sex | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Observed (years, rates) for one series, oldest first.

        Fertility is always Female-denominated regardless of ``sex``. For
        mortality, sex-specific observations are preferred and Both-sex
        observations are the fallback shared by both sexes.
        """
        if variable is Variable.FERTILITY:
            return self._rate_index.get((iso3, variable, age_group, Sex.FEMALE),
                                        _EMPTY_SERIES)
        if sex is not None and sex is not Sex.BOTH:
            found = self._rate_index.get((iso3, variable, age_group, sex))
            if found is not None:
                return found
        return self._rate_index.get((iso3, variable, age_group, Sex.BOTH),
                                    _EMPTY_SERIES)

    def gdp_hist_series(self, iso3: str) -> tuple[np.ndarray, np.ndarray]:
        return self._gdp_hist_index.get(iso3, _EMPTY_SERIES)

    def gdp_baseline_series(self, iso3: str) -> tuple[np.ndarray, np.ndarray]:
        return self._gdp_baseline_index.get(iso3, _EMPTY_SERIES)

    def base_population(self, iso3: str) -> BasePopulation | None:
        return self._base_pop_index.get(iso3)


_EMPTY_SERIES = (np.array([], dtype=float), np.array([], dtype=float))


def _group_gdp(observations) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    grouped: dict[str, list[tuple[int, float]]] = {}
    for g in observations:
        grouped.setdefault(g.iso3, []).append((g.year, g.gdp_pc))
    index = {}
    for iso3, pairs in grouped.items():
        pairs.sort()
        index[iso3] = (np.array([p[0] for p in pairs], dtype=float),
                       np.array([p[1] for p in pairs], dtype=float))
    return index


def load_dataset(data_dir) -> Dataset:
    """Read, validate, and cross-reference the five input files."""
    root = Path(data_dir)
    countries = _load_countries(root)
    known = {c.iso3 for c in countries}
    rejections: list[UnknownCountry] = []
    rates = _load_rates(root, known, rejections)
    gdp_hist = _load_gdp(root, "gdp_hist.csv", known, rejections)
    gdp_baseline = _load_gdp(root, "gdp_baseline.csv", known, rejections)
    base_pop = _load_base_pop(root, known, rejections)
    return Dataset(countries=countries, rates=rates, gdp_hist=gdp_hist,
                   gdp_baseline=gdp_baseline, base_pop=base_pop,
                   rejections=rejections)


def _open_rows(root: Path, name: str):
    path = root / name
    if not path.is_file():
        raise MissingFile(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaViolation(name, 0, "file is empty") from None
        if header != HEADERS[name]:
            raise SchemaViolation(name, 1,
                                  f"expected header {','.join(HEADERS[name])!r}, "
                                  f"got {','.join(header)!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaViolation(name, reader.line_num,
                                      f"expected {len(header)} fields, got {len(row)}")
            rows.append((reader.line_num, row))
    if not rows:
        raise SchemaViolation(name, 0, "file contains no data rows")
    return rows


def _parse_int(name, line, text, label) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaViolation(name, line, f"{label} must be an integer, got {text!r}") from None


def _parse_float(name, line, text, label) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaViolation(name, line, f"{label} must be numeric, got {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise SchemaViolation(name, line, f"{label} must be finite, got {text!r}")
    return value


def _parse_enum(name, line, text, enum_cls, label):
    try:
        return enum_cls(text)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise SchemaViolation(name, line,
                              f"{label} must be one of {allowed}, got {text!r}") from None


def _load_countries(root: Path) -> list[CountryRecord]:
    name = "countries.csv"
    records = []
    seen: set[str] = set()
    for line, row in _open_rows(root, name):
        iso3, country_name, income, region = row
        if not iso3:
            raise SchemaViolation(name, line, "iso3 must be non-empty")
        if iso3 in seen:
            raise SchemaViolation(name, line, f"duplicate iso3 {iso3!r}")
        seen.add(iso3)
        records.append(CountryRecord(
            iso3=iso3, name=country_name,
            income_group=_parse_enum(name, line, income, IncomeGroup, "income_group"),
            region=_parse_enum(name, line, region, Region, "region")))
    return records


def _load_rates(root: Path, known: set[str],
                rejections: list[UnknownCountry]) -> list[RateObservation]:
    name = "rates.csv"
    out = []
    seen: set[tuple] = set()
    for line, row in _open_rows(root, name):
        iso3, year_s, variable_s, age_group, sex_s, rate_s = row
        if iso3 not in known:
            rejections.append(UnknownCountry(name, line, iso3))
            continue
        year = _parse_int(name, line, year_s, "year")
        if not RATE_YEAR_MIN <= year <= RATE_YEAR_MAX:
            raise SchemaViolation(name, line,
                                  f"year must lie in {RATE_YEAR_MIN}-{RATE_YEAR_MAX}, got {year}")
        variable = _parse_enum(name, line, variable_s, Variable, "variable")
        sex = _parse_enum(name, line, sex_s, Sex, "sex")
        if age_group not in AGE_INDEX:
            raise SchemaViolation(name, line, f"unknown age_group {age_group!r}")
        rate = _parse_float(name, line, rate_s, "rate")
        if rate < 0.0:
            raise SchemaViolation(name, line, f"rate must be non-negative, got {rate}")
        if variable is Variable.MORTALITY and rate > 1.0:
            raise SchemaViolation(name, line,
                                  f"mortality rate is a probability in [0, 1], got {rate}")
        if variable is Variable.FERTILITY:
            if age_group not in FERTILE_BANDS:
                raise SchemaViolation(name, line,
                                      f"fertility age_group must lie in 15-44, got {age_group!r}")
            if sex is not Sex.FEMALE:
                raise SchemaViolation(name, line, "fertility rows must have sex=Female")
        key = (iso3, year, variable, age_group, sex)
        if key in seen:
            raise SchemaViolation(name, line, f"duplicate observation {key}")
        seen.add(key)
        out.append(RateObservation(iso3=iso3, year=year, variable=variable,
                                   age_group=age_group, sex=sex, rate=rate))
    return out


def _load_gdp(root: Path, name: str, known: set[str],
              rejections: list[UnknownCountry]) -> list[GdpObservation]:
    out = []
    seen: set[tuple] = set()
    for line, row in _open_rows(root, name):
        iso3, year_s, gdp_s = row
        if iso3 not in known:
            rejections.append(UnknownCountry(name, line, iso3))
            continue
        year = _parse_int(name, line, year_s, "year")
        gdp = _parse_float(name, line, gdp_s, "gdp_pc")
        if gdp <= 0.0:
            raise NonPositiveGdp(f"gdp_pc must be positive, got {gdp}", file=name, line=line)
        if (iso3, year) in seen:
            raise SchemaViolation(name, line, f"duplicate observation ({iso3}, {year})")
        seen.add((iso3, year))
        out.append(GdpObservation(iso3=iso3, year=year, gdp_pc=gdp))
    return out


def _load_base_pop(root: Path, known: set[str],
                   rejections: list[UnknownCountry]) -> list[BasePopulation]:
    name = "base_pop.csv"
    cells: dict[str, np.ndarray] = {}
    filled: dict[str, set[tuple[str, Sex]]] = {}
    for line, row in _open_rows(root, name):
        iso3, year_s, age_group, sex_s, count_s = row
        if iso3 not in known:
            rejections.append(UnknownCountry(name, line, iso3))
            continue
        year = _parse_int(name, line, year_s, "year")
        if year != BASE_YEAR:
            raise SchemaViolation(name, line, f"base year must be {BASE_YEAR}, got {year}")
        if age_group not in AGE_INDEX:
            raise SchemaViolation(name, line, f"unknown age_group {age_group!r}")
        sex = _parse_enum(name, line, sex_s, Sex, "sex")
        if sex is Sex.BOTH:
            raise SchemaViolation(name, line, "base population rows must be sex-specific")
        count = _parse_float(name, line, count_s, "count")
        if count < 0.0:
            raise SchemaViolation(name, line, f"count must be non-negative, got {count}")
        cell = (age_group, sex)
        marks = filled.setdefault(iso3, set())
        if cell in marks:
            raise SchemaViolation(name, line, f"duplicate cell {iso3}/{age_group}/{sex.value}")
        marks.add(cell)
        counts = cells.setdefault(iso3, np.zeros((len(AGE_BANDS), 2)))
        counts[AGE_INDEX[age_group], SEX_COLUMNS.index(sex)] = count
    for iso3 in sorted(cells):
        missing = [(band, sex.value) for band in AGE_BANDS for sex in SEX_COLUMNS
                   if (band, sex) not in filled[iso3]]
        if missing:
            raise SchemaViolation(name, 0,
                                  f"{iso3}: missing cohort cells {missing[:4]}"
                                  f"{' ...' if len(missing) > 4 else ''}")
    return [BasePopulation(iso3=iso3, year=BASE_YEAR, counts=cells[iso3])
            for iso3 in sorted(cells)]
