"""Loading and validation of the five CSV inputs.

Input directory layout::

    countries.csv     iso3,name,income_group,region
    rates.csv         iso3,year,variable,age_group,sex,rate
    gdp_hist.csv      iso3,year,gdp_pc
    gdp_baseline.csv  iso3,year,gdp_pc
    base_pop.csv      iso3,year,age_group,sex,count

Loading is strict about schema and value ranges but tolerant of rows whose
iso3 code is not in the country register: those rows are dropped and
reported as diagnostics rather than aborting the load. Each file's bytes
are read once, hashed, and parsed CHUNK_ROWS rows at a time into column
arrays: a text column as integer codes into one str per distinct value, a
numeric column as int64 or float64, so no Python object per cell outlives
its chunk. Each file is checked a whole column at a time, and the error on
its earliest bad line is reported. Observation series are stored raw, as
(years, values) arrays; interpolation between observed years is the
consumer's job.
"""
from __future__ import annotations

import csv
import io
from functools import cached_property
from itertools import compress, islice
from pathlib import Path

import numpy as np

from .core import (
    AGE_BANDS,
    BASE_YEAR,
    FERTILE_BANDS,
    IncomeGroup,
    Record,
    Region,
    Sex,
    SEX_COLUMNS,
    Variable,
)
from .errors import MissingFile, NonPositiveGdp, SchemaViolation, UnknownCountry

# CPython's own SHA-256, not hashlib's: importing hashlib maps OpenSSL's
# libcrypto (3.6 MiB of RSS) into the run and every --jobs worker. Both give
# standard SHA-256; hashlib is only for builds without the built-in module.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

HEADERS = {
    "countries.csv": ["iso3", "name", "income_group", "region"],
    "rates.csv": ["iso3", "year", "variable", "age_group", "sex", "rate"],
    "gdp_hist.csv": ["iso3", "year", "gdp_pc"],
    "gdp_baseline.csv": ["iso3", "year", "gdp_pc"],
    "base_pop.csv": ["iso3", "year", "age_group", "sex", "count"],
}

RATE_YEAR_MIN = 1950
RATE_YEAR_MAX = 2015

Series = tuple[np.ndarray, np.ndarray]  # (years, values) as float arrays, oldest first


class RateRow(Record, frozen=True):
    iso3: str
    year: int
    variable: Variable
    age_group: str
    sex: Sex
    rate: float


class CountryRecord(Record, frozen=True):
    iso3: str
    name: str
    income_group: IncomeGroup
    region: Region


class PopulationState(Record, eq=False):
    """Cohort counts for one country-year, shape (21 age bands, 2 sexes)."""

    iso3: str
    year: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (len(AGE_BANDS), 2):
            raise ValueError(f"counts must have shape ({len(AGE_BANDS)}, 2)")


class Dataset(Record, eq=False, factories={"rejections": list, "digests": dict, "memo": dict},
              hidden=("memo",)):
    """The validated inputs. ``rate_index`` is keyed by (iso3, variable, age
    band, sex), the other indexes by iso3; ``digests`` holds the hex SHA-256
    of the bytes parsed from each file, by file name; ``memo`` holds what
    consumers derive from the series, once per dataset."""

    countries: list[CountryRecord]
    rate_index: dict[tuple, Series]
    gdp_hist_index: dict[str, Series]
    gdp_baseline_index: dict[str, Series]
    base_pop_index: dict[str, PopulationState]
    rejections: list[UnknownCountry]
    digests: dict[str, str]
    memo: dict

    @cached_property
    def country_map(self) -> dict[str, CountryRecord]:
        return {c.iso3: c for c in self.countries}

    @cached_property
    def sexed_mortality(self) -> frozenset[tuple[str, str]]:
        """The (iso3, age band) pairs with sex-specific mortality rows; Female and
        Male mortality of any other pair resolve to the same rows (Both, or none)."""
        return frozenset((iso3, band) for iso3, variable, band, sex in self.rate_index
                         if variable is Variable.MORTALITY and sex is not Sex.BOTH)

    @property
    def has_sexed_mortality(self) -> bool:
        return bool(self.sexed_mortality)

    @property
    def rates(self) -> list[RateRow]:
        """Every rate observation, series by series (for inspection only)."""
        return [RateRow(iso3, year, variable, band, sex, rate)
                for (iso3, variable, band, sex), (years, values) in self.rate_index.items()
                for year, rate in zip(years.astype(int).tolist(), values.tolist())]

    def rate_key(self, iso3: str, variable: Variable, age_group: str,
                 sex: Sex | None = None) -> tuple | None:
        """The ``rate_index`` key that ``rate_series`` reads, or None if it has no rows.
        Fertility is always Female-denominated; for mortality, sex-specific rows are
        preferred and the Both rows are the fallback shared by both sexes."""
        if variable is Variable.FERTILITY:
            sex = Sex.FEMALE
        elif (iso3, variable, age_group, sex) not in self.rate_index:
            sex = Sex.BOTH
        key = (iso3, variable, age_group, sex)
        return key if key in self.rate_index else None

    def rate_series(self, iso3: str, variable: Variable, age_group: str,
                    sex: Sex | None = None) -> Series:
        """Observed (years, rates) for one series, oldest first (see ``rate_key``)."""
        return self.rate_index.get(self.rate_key(iso3, variable, age_group, sex),
                                   _EMPTY_SERIES)

    def gdp_hist_series(self, iso3: str) -> Series:
        return self.gdp_hist_index.get(iso3, _EMPTY_SERIES)

    def gdp_baseline_series(self, iso3: str) -> Series:
        return self.gdp_baseline_index.get(iso3, _EMPTY_SERIES)

    def base_population(self, iso3: str) -> PopulationState | None:
        return self.base_pop_index.get(iso3)


_EMPTY_SERIES = (np.array([], dtype=float), np.array([], dtype=float))
_MEMBER = {e.value: e for e in (*Variable, *Sex)}  # enum member by cell text

CHUNK_ROWS = 256  # data rows held as Python lists at once while a file is read
_NUMERIC = {"year": int, "rate": float, "gdp_pc": float, "count": float}
_ALLOWED = {"variable": [v.value for v in Variable], "age_group": AGE_BANDS,
            "sex": [s.value for s in Sex], "income_group": [g.value for g in IncomeGroup],
            "region": [r.value for r in Region]}


def load_dataset(data_dir) -> Dataset:
    """Read, validate, and cross-reference the five input files, in that order."""
    root, digests = Path(data_dir), {}
    countries = _load_countries(_Rows(root, "countries.csv", digests))
    known, rejections = [c.iso3 for c in countries], []
    indexes = [load(_Rows(root, name, digests, known, rejections)) for load, name in (
        (_load_rates, "rates.csv"), (_load_gdp, "gdp_hist.csv"),
        (_load_gdp, "gdp_baseline.csv"), (_load_base_pop, "base_pop.csv"))]
    return Dataset(countries, *indexes, rejections=rejections, digests=digests)


class _Text:
    """A text column as one code per row (``codes``); ``texts[code]`` is the
    column's one str of each distinct cell. The ``allowed`` values take the
    first codes, so a code past them flags a cell outside them."""

    def __init__(self, allowed=()):
        self.index = {text: code for code, text in enumerate(allowed)}
        self.allowed = len(self.index)
        self.codes = bytearray()

    def extend(self, cells: tuple[str, ...], start: int) -> None:
        index = self.index
        for text in dict.fromkeys(cells):
            index.setdefault(text, len(index))
        self.codes += np.fromiter(map(index.__getitem__, cells), "i", len(cells)).tobytes()

    def finish(self) -> None:
        self.codes, self.texts = np.frombuffer(self.codes, dtype="i"), list(self.index)

    def __getitem__(self, i: int) -> str:
        return self.texts[self.codes[i]]

    def isin(self, texts) -> np.ndarray:
        hit = np.zeros(len(self.texts), dtype=bool)
        hit[[self.index[text] for text in texts if text in self.index]] = True
        return hit[self.codes]


class _Numbers:
    """A numeric column parsed with ``convert`` a chunk at a time into
    ``values``. ``odd`` keeps by row the text of each cell that does not
    parse or does not fit int64 (both read as 0) or is not finite."""

    def __init__(self, convert):
        self.convert, self.odd, self.values = convert, {}, bytearray()
        self.dtype = "q" if convert is int else "d"

    def extend(self, cells: tuple[str, ...], start: int) -> None:
        try:
            values = np.array(list(map(self.convert, cells)), dtype=self.dtype)
        except (ValueError, OverflowError):
            values = [_converted(self.convert, text) for text in cells]
            for k, value in enumerate(values):
                if value is None or self.dtype == "q" and abs(value) >= 2 ** 63:
                    values[k], self.odd[start + k] = 0, cells[k]
            values = np.array(values, dtype=self.dtype)
        self.odd.update((start + k, cells[k])
                        for k in np.flatnonzero(~np.isfinite(values)).tolist())
        self.values += values.tobytes()

    def finish(self) -> None:
        self.values = np.frombuffer(self.values, dtype=self.dtype)

    def __getitem__(self, i: int):
        """Row i as the Python number its cell parses to."""
        text = self.odd.get(i)
        return self.values[i].item() if text is None else _converted(self.convert, text)


class _Rows:
    """The data rows of one file as columns, less the rows of countries
    outside ``known`` (added to ``rejections`` in file order); its digest
    goes into ``digests``. Each ``check`` flags the rows failing one rule;
    ``raise_first`` raises the failure on the earliest row, and on that row
    the failure of the first check made."""

    def __init__(self, root: Path, name: str, digests: dict[str, str],
                 known: list[str] | None = None,
                 rejections: list[UnknownCountry] | None = None):
        self.name = name
        self.columns = [_Numbers(_NUMERIC[header]) if header in _NUMERIC else
                        _Text(known if header == "iso3" and known is not None else
                              _ALLOWED.get(header, ()))
                        for header in HEADERS[name]]
        self.lines, digests[name] = _read(root, name, self.columns, known, rejections)
        self._first = None  # (row, exception) of the earliest failure

    def check(self, bad, reason: str, *cells, error=SchemaViolation) -> None:
        """Flag the rows where ``bad`` is true. The failure of row i is
        ``error(file, line, reason.format(*(cell[i] for cell in cells)))``,
        where a cell may also be a function of i."""
        hits = np.flatnonzero(bad)
        if hits.size and (self._first is None or hits[0] < self._first[0]):
            i = int(hits[0])
            values = [cell(i) if callable(cell) else cell[i] for cell in cells]
            self._first = (i, error(self.name, self.lines[i].item(), reason.format(*values)))

    def raise_first(self) -> None:
        if self._first is not None:
            raise self._first[1]

    def parsed(self, j: int, wanted: str) -> np.ndarray:
        """Column ``j``'s values, after flagging the cells that do not parse."""
        column = self.columns[j]
        failed = np.zeros(column.values.size, dtype=bool)
        failed[[i for i in column.odd if column[i] is None]] = True
        self.check(failed, f"{HEADERS[self.name][j]} must be {wanted}, got {{!r}}", column.odd)
        return column.values

    def floats(self, j: int) -> np.ndarray:
        values = self.parsed(j, "numeric")
        self.check(~np.isfinite(values), f"{HEADERS[self.name][j]} must be finite, got {{!r}}",
                   self.columns[j].odd)
        return values

    def member(self, j: int, reason: str) -> None:
        """Check that column ``j`` holds only its allowed values."""
        column = self.columns[j]
        self.check(column.codes >= column.allowed, reason, column)

    def enum(self, j: int) -> None:
        allowed = ", ".join(self.columns[j].texts[:self.columns[j].allowed])
        self.member(j, f"{HEADERS[self.name][j]} must be one of {allowed}, got {{!r}}")


def _read(root: Path, name: str, columns: list, known: list[str] | None,
          rejections: list[UnknownCountry] | None) -> tuple[np.ndarray, str]:
    """Fill ``columns`` from the non-blank data rows of one file, CHUNK_ROWS
    rows at a time; return the physical line each row ends on and the hex
    SHA-256 of the bytes parsed. A byte that is not UTF-8, or a row that csv
    cannot split, is a ``SchemaViolation`` on the line where it is met."""
    path = root / name
    if not path.is_file():
        raise MissingFile(path)
    data = path.read_bytes()
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaViolation(name, 0, "file is empty")
        if header != HEADERS[name]:
            raise SchemaViolation(name, 1,
                                  f"expected header {','.join(HEADERS[name])!r}, "
                                  f"got {','.join(header)!r}")
        numbered = ((reader.line_num, row) for row in reader if row)
        known_set, unknown = set(known or ()), {}
        lines, empty = bytearray(), True
        while chunk := list(islice(numbered, CHUNK_ROWS)):
            empty = False
            line_of, rows = zip(*chunk)
            del chunk
            if set(map(len, rows)) != {len(header)}:
                line, row = next((line, row) for line, row in zip(line_of, rows)
                                 if len(row) != len(header))
                raise SchemaViolation(name, line, f"expected {len(header)} fields, got {len(row)}")
            if known is not None:
                keep = [row[0] in known_set for row in rows]
                if not all(keep):
                    rejections.extend(UnknownCountry(name, line, unknown.setdefault(row[0], row[0]))
                                      for line, row, kept in zip(line_of, rows, keep) if not kept)
                    line_of, rows = list(compress(line_of, keep)), list(compress(rows, keep))
            for column, cells in zip(columns, zip(*rows)):
                column.extend(cells, len(lines) // 8)
            lines += np.array(line_of, dtype="q").tobytes()
            del line_of, rows
    except UnicodeDecodeError:
        try:
            data.decode("utf-8")  # whose error, unlike the text layer's, has the file's offsets
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start] + b".").splitlines())  # the line the byte is on
            raise SchemaViolation(name, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                                              f"({exc.reason})") from None
    except csv.Error as exc:
        raise SchemaViolation(name, reader.line_num, str(exc)) from None
    if empty:
        raise SchemaViolation(name, 0, "file contains no data rows")
    for column in columns:
        column.finish()
    return np.frombuffer(lines, dtype="q"), sha256(data).hexdigest()


def _converted(convert, text):
    try:
        return convert(text)
    except ValueError:
        return None


def _first_rows(*columns: np.ndarray) -> np.ndarray:
    """Per row, the earliest row whose cells in ``columns`` equal its own."""
    order = np.lexsort(columns)  # stable: a key's rows keep file order
    starts = np.ones(order.size, dtype=bool)  # where a key begins, in sorted order
    starts[1:] = False
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _repeats(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key already occurred on an earlier row."""
    return _first_rows(*columns) != np.arange(columns[0].size)


def _series(first: np.ndarray, years: np.ndarray, values: np.ndarray) -> dict[int, Series]:
    """(years, values) per key, oldest first, by the row where the key first
    occurs (see ``_first_rows``); keys in order of first appearance."""
    heads = np.flatnonzero(first == np.arange(first.size))
    sid = np.searchsorted(heads, first)
    order = np.lexsort((years, sid))
    years, values = years[order], values[order]
    ends = np.cumsum(np.bincount(sid, minlength=heads.size)).tolist()
    return {head: (years[a:b], values[a:b])
            for head, a, b in zip(heads.tolist(), [0, *ends], ends)}


def _load_countries(rows: _Rows) -> list[CountryRecord]:
    iso3, names, income, region = rows.columns
    rows.check(iso3.isin([""]), "iso3 must be non-empty")
    rows.check(iso3.isin([t for t in iso3.texts if any(c in t for c in ',"\r\n')]),
               "iso3 must not hold a comma, double quote, CR or LF, got {!r}", iso3)
    rows.check(_repeats(iso3.codes), "duplicate iso3 {!r}", iso3)
    rows.enum(2)
    rows.enum(3)
    rows.raise_first()
    groups, areas = list(IncomeGroup), list(Region)  # in code order
    return [CountryRecord(iso3=iso3.texts[code], name=names.texts[name],
                          income_group=groups[group], region=areas[area])
            for code, name, group, area in zip(iso3.codes.tolist(), names.codes.tolist(),
                                               income.codes.tolist(), region.codes.tolist())]


def _load_rates(rows: _Rows) -> dict[tuple, Series]:
    iso3, years, variable, band, sex, rate = rows.columns
    year = rows.parsed(1, "an integer")
    rows.check((year < RATE_YEAR_MIN) | (year > RATE_YEAR_MAX),
               f"year must lie in {RATE_YEAR_MIN}-{RATE_YEAR_MAX}, got {{}}", years)
    rows.enum(2)
    rows.enum(4)
    rows.member(3, "unknown age_group {!r}")
    value = rows.floats(5)
    rows.check(value < 0.0, "rate must be non-negative, got {}", rate)
    fertility = variable.isin(["Fertility"])
    rows.check(~fertility & (value > 1.0),
               "mortality rate is a probability in [0, 1], got {}", rate)
    rows.check(fertility & ~band.isin(FERTILE_BANDS),
               "fertility age_group must lie in 15-44, got {!r}", band)
    rows.check(fertility & ~sex.isin(["Female"]), "fertility rows must have sex=Female")
    rows.check(_repeats(iso3.codes, year, variable.codes, band.codes, sex.codes),
               "duplicate observation {}",
               lambda i: (iso3[i], years[i], _MEMBER[variable[i]], band[i], _MEMBER[sex[i]]))
    rows.raise_first()
    series = _series(_first_rows(iso3.codes, variable.codes, band.codes, sex.codes),
                     year.astype(float), value)
    return {(iso3[i], _MEMBER[variable[i]], band[i], _MEMBER[sex[i]]): pair
            for i, pair in series.items()}


def _load_gdp(rows: _Rows) -> dict[str, Series]:
    iso3, years, gdp = rows.columns
    year = rows.parsed(1, "an integer")
    rows.check((year < 1000) | (year > 9999),  # four digits
               "year must lie in 1000-9999, got {}", years)
    value = rows.floats(2)
    rows.check(value <= 0.0, "gdp_pc must be positive, got {}", gdp,
               error=lambda file, line, reason: NonPositiveGdp(reason, file=file, line=line))
    rows.check(_repeats(iso3.codes, year), "duplicate observation ({}, {})", iso3, years)
    rows.raise_first()
    series = _series(_first_rows(iso3.codes), year.astype(float), value)
    return {iso3[i]: pair for i, pair in series.items()}


def _load_base_pop(rows: _Rows) -> dict[str, PopulationState]:
    iso3, years, band, sex, count = rows.columns
    rows.check(rows.parsed(1, "an integer") != BASE_YEAR,
               f"base year must be {BASE_YEAR}, got {{}}", years)
    rows.member(2, "unknown age_group {!r}")
    rows.enum(3)
    rows.check(sex.isin(["Both"]), "base population rows must be sex-specific")
    value = rows.floats(4)
    rows.check(value < 0.0, "count must be non-negative, got {}", count)
    rows.check(_repeats(iso3.codes, band.codes, sex.codes), "duplicate cell {}/{}/{}",
               iso3, band, sex)
    rows.raise_first()

    codes = sorted(np.flatnonzero(np.bincount(iso3.codes)).tolist(), key=iso3.texts.__getitem__)
    slot = np.zeros(len(iso3.texts), dtype=np.intp)
    slot[codes] = np.arange(len(codes))
    counts = np.full((len(codes), len(AGE_BANDS), 2), np.nan)  # NaN marks a missing cell
    # band codes are AGE_INDEX positions; Female and Male codes are SEX_COLUMNS columns
    counts[slot[iso3.codes], band.codes, sex.codes] = value
    names = [iso3.texts[code] for code in codes]
    for code, grid in zip(names, counts):
        missing = [(AGE_BANDS[b], SEX_COLUMNS[s].value) for b, s in np.argwhere(np.isnan(grid))]
        if missing:
            raise SchemaViolation(rows.name, 0,
                                  f"{code}: missing cohort cells {missing[:4]}"
                                  f"{' ...' if len(missing) > 4 else ''}")
    return {code: PopulationState(iso3=code, year=BASE_YEAR, counts=grid)
            for code, grid in zip(names, counts)}
