"""The row-list loader that ``demotrend.data_ingest`` replaced, kept verbatim
as the oracle of the columnar one: ``load_dataset`` here parses every cell
into a Python object and keys duplicates and series by one tuple per row.
The differential tests in ``test_data_ingest.py`` compare the two loaders'
datasets and errors.
"""
from __future__ import annotations

import csv
from itertools import compress
from pathlib import Path

import numpy as np

from demotrend.core import (
    AGE_BANDS,
    AGE_INDEX,
    BASE_YEAR,
    FERTILE_BANDS,
    SEX_COLUMNS,
    IncomeGroup,
    Region,
    Sex,
    Variable,
)
from demotrend.data_ingest import (
    HEADERS,
    RATE_YEAR_MAX,
    RATE_YEAR_MIN,
    CountryRecord,
    Dataset,
    PopulationState,
    Series,
)
from demotrend.errors import MissingFile, NonPositiveGdp, SchemaViolation, UnknownCountry

_MEMBER = {e.value: e for e in (*Variable, *Sex)}  # enum member by cell text
_SEX_COLUMN = {sex.value: col for col, sex in enumerate(SEX_COLUMNS)}


def load_dataset(data_dir) -> Dataset:
    """Read, validate, and cross-reference the five input files, in that order."""
    root = Path(data_dir)
    countries = _load_countries(_Rows(root, "countries.csv"))
    known, rejections = {c.iso3 for c in countries}, []
    indexes = [load(_Rows(root, name, known, rejections)) for load, name in (
        (_load_rates, "rates.csv"), (_load_gdp, "gdp_hist.csv"),
        (_load_gdp, "gdp_baseline.csv"), (_load_base_pop, "base_pop.csv"))]
    return Dataset(countries, *indexes, rejections=rejections)


class _Rows:
    """The data rows of one file as columns, less the rows of countries
    outside ``known`` (added to ``rejections`` in file order). Each ``check``
    flags the rows failing one rule; ``raise_first`` raises the failure on
    the earliest row, and on that row the failure of the first check made.
    """

    def __init__(self, root: Path, name: str, known: set[str] | None = None,
                 rejections: list[UnknownCountry] | None = None):
        self.name = name
        lines, rows = _read(root, name)
        if known is not None:
            keep = [row[0] in known for row in rows]
            if not all(keep):
                rejections.extend(UnknownCountry(name, line, row[0])
                                  for line, row, kept in zip(lines, rows, keep) if not kept)
                lines, rows = list(compress(lines, keep)), list(compress(rows, keep))
        self.lines = lines
        self.columns = list(zip(*rows)) if rows else [()] * len(HEADERS[name])
        self._first = None  # (row, exception) of the earliest failure

    def check(self, bad, reason: str, *cells, error=SchemaViolation) -> None:
        """Flag the rows where ``bad`` is true. The failure of row i is
        ``error(file, line, reason.format(*(cell[i] for cell in cells)))``,
        where a cell may also be a function of i."""
        hits = np.flatnonzero(bad)
        if hits.size and (self._first is None or hits[0] < self._first[0]):
            i = int(hits[0])
            values = [cell(i) if callable(cell) else cell[i] for cell in cells]
            self._first = (i, error(self.name, self.lines[i], reason.format(*values)))

    def raise_first(self) -> None:
        if self._first is not None:
            raise self._first[1]

    def parsed(self, j: int, convert, wanted: str) -> list:
        """Column ``j`` converted cell by cell; a cell that fails reads as 0."""
        column = self.columns[j]
        try:
            return list(map(convert, column))
        except ValueError:
            values = [_converted(convert, text) for text in column]
            self.check([v is None for v in values],
                       f"{HEADERS[self.name][j]} must be {wanted}, got {{!r}}", column)
            return [0 if v is None else v for v in values]

    def floats(self, j: int) -> np.ndarray:
        values = np.array(self.parsed(j, float, "numeric"), dtype=float)
        self.check(~np.isfinite(values), f"{HEADERS[self.name][j]} must be finite, got {{!r}}",
                   self.columns[j])
        return values

    def member(self, j: int, allowed, reason: str) -> None:
        """Check that column ``j`` holds only ``allowed`` values."""
        if not set(self.columns[j]).issubset(allowed):
            self.check([text not in allowed for text in self.columns[j]], reason, self.columns[j])

    def enum(self, j: int, enum_cls) -> None:
        values = [e.value for e in enum_cls]
        self.member(j, values, f"{HEADERS[self.name][j]} must be one of {', '.join(values)}, "
                               "got {!r}")


def _read(root: Path, name: str) -> tuple[list[int], list[list[str]]]:
    """The non-blank data rows of one file and the physical line each ends on."""
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
        lines, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaViolation(name, reader.line_num,
                                      f"expected {len(header)} fields, got {len(row)}")
            lines.append(reader.line_num)
            rows.append(row)
    if not rows:
        raise SchemaViolation(name, 0, "file contains no data rows")
    return lines, rows


def _converted(convert, text):
    try:
        return convert(text)
    except ValueError:
        return None


def _repeats(keys) -> np.ndarray:
    """Mask of the rows whose key already occurred on an earlier row."""
    first: dict = {}
    seen = np.array([first.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.int64)
    return seen != np.arange(seen.size)


def _series(keys, years: np.ndarray, values: np.ndarray) -> dict[tuple, Series]:
    """(years, values) per key, oldest first; keys in order of first appearance."""
    ids: dict = {}
    sid = np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.int64)
    order = np.lexsort((years, sid))
    years, values = years[order], values[order]
    ends = np.cumsum(np.bincount(sid, minlength=len(ids))).tolist()
    return {key: (years[a:b], values[a:b]) for key, a, b in zip(ids, [0, *ends], ends)}


def _load_countries(rows: _Rows) -> list[CountryRecord]:
    iso3, names, income, region = rows.columns
    rows.check([not code for code in iso3], "iso3 must be non-empty")
    rows.check(_repeats(iso3), "duplicate iso3 {!r}", iso3)
    rows.enum(2, IncomeGroup)
    rows.enum(3, Region)
    rows.raise_first()
    return [CountryRecord(iso3=code, name=name, income_group=IncomeGroup(group),
                          region=Region(area))
            for code, name, group, area in zip(iso3, names, income, region)]


def _load_rates(rows: _Rows) -> dict[tuple, Series]:
    iso3, _, variable, band, sex, _ = rows.columns
    years = rows.parsed(1, int, "an integer")
    rows.check([not RATE_YEAR_MIN <= year <= RATE_YEAR_MAX for year in years],
               f"year must lie in {RATE_YEAR_MIN}-{RATE_YEAR_MAX}, got {{}}", years)
    rows.enum(2, Variable)
    rows.enum(4, Sex)
    rows.member(3, AGE_INDEX, "unknown age_group {!r}")
    rate = rows.floats(5)
    rows.check(rate < 0.0, "rate must be non-negative, got {}", rate.item)
    fertility = np.array([text == "Fertility" for text in variable], dtype=bool)
    rows.check(~fertility & (rate > 1.0),
               "mortality rate is a probability in [0, 1], got {}", rate.item)
    rows.check(fertility & np.array([text not in FERTILE_BANDS for text in band], dtype=bool),
               "fertility age_group must lie in 15-44, got {!r}", band)
    rows.check(fertility & np.array([text != "Female" for text in sex], dtype=bool),
               "fertility rows must have sex=Female")
    rows.check(_repeats(zip(iso3, years, variable, band, sex)), "duplicate observation {}",
               lambda i: (iso3[i], years[i], _MEMBER[variable[i]], band[i], _MEMBER[sex[i]]))
    rows.raise_first()
    series = _series(zip(iso3, variable, band, sex), np.array(years, dtype=float), rate)
    return {(code, _MEMBER[v], b, _MEMBER[s]): pair for (code, v, b, s), pair in series.items()}


def _load_gdp(rows: _Rows) -> dict[str, Series]:
    iso3 = rows.columns[0]
    years = rows.parsed(1, int, "an integer")
    rows.check([not 1000 <= year <= 9999 for year in years],  # four digits
               "year must lie in 1000-9999, got {}", years)
    gdp = rows.floats(2)
    rows.check(gdp <= 0.0, "gdp_pc must be positive, got {}", gdp.item,
               error=lambda file, line, reason: NonPositiveGdp(reason, file=file, line=line))
    rows.check(_repeats(zip(iso3, years)), "duplicate observation ({}, {})", iso3, years)
    rows.raise_first()
    return _series(iso3, np.array(years, dtype=float), gdp)


def _load_base_pop(rows: _Rows) -> dict[str, PopulationState]:
    iso3, _, band, sex, _ = rows.columns
    years = rows.parsed(1, int, "an integer")
    rows.check([year != BASE_YEAR for year in years], f"base year must be {BASE_YEAR}, got {{}}",
               years)
    rows.member(2, AGE_INDEX, "unknown age_group {!r}")
    rows.enum(3, Sex)
    rows.check([text == "Both" for text in sex], "base population rows must be sex-specific")
    count = rows.floats(4)
    rows.check(count < 0.0, "count must be non-negative, got {}", count.item)
    rows.check(_repeats(zip(iso3, band, sex)), "duplicate cell {}/{}/{}", iso3, band, sex)
    rows.raise_first()

    names = sorted(set(iso3))
    counts = np.full((len(names), len(AGE_BANDS), 2), np.nan)  # NaN marks a missing cell
    counts[np.searchsorted(names, iso3), [AGE_INDEX[b] for b in band],
           [_SEX_COLUMN[s] for s in sex]] = count
    for code, grid in zip(names, counts):
        missing = [(AGE_BANDS[b], SEX_COLUMNS[s].value) for b, s in np.argwhere(np.isnan(grid))]
        if missing:
            raise SchemaViolation(rows.name, 0,
                                  f"{code}: missing cohort cells {missing[:4]}"
                                  f"{' ...' if len(missing) > 4 else ''}")
    return {code: PopulationState(iso3=code, year=BASE_YEAR, counts=grid)
            for code, grid in zip(names, counts)}
