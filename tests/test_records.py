"""Records and errors: parity with ``dataclasses``, and pickling.

Each record class of the package is checked against a ``@dataclass`` twin
that repeats its declaration as a dataclass: the decorator, the fields and
``__post_init__``, plus the methods the checks call. Both must agree on
construction (positional, keyword, defaults and the error a bad call
raises), ``==``, ``hash``, ``repr``, frozen assignment and deletion, and
``pickle``.
"""
import math
import pickle
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import pytest

from demotrend import errors
from demotrend.augmentation import DONOR_WINDOW, AugmentedSeries, DonorRule
from demotrend.cli import RunConfig, _WorkerPayload
from demotrend.core import (
    AGE_BANDS,
    END_YEAR,
    FERTILE_BANDS,
    SEX_COLUMNS,
    IncomeGroup,
    Region,
    Sex,
)
from demotrend.data_ingest import CountryRecord, Dataset, load_dataset
from demotrend.demography import PopulationState, VitalRates
from demotrend.errors import NonPositiveResult, UnknownCountry
from demotrend.models import FORM_ORDER, FitResult, ModelForm, fit_result
from demotrend.rate_forecast import (
    CapPolicy,
    CountryEnsembles,
    EnsembleTable,
    RateEnsemble,
    build_country_ensembles,
)
from demotrend.report import AggregateSeries, PeakSummary, RunResult, Scope
from demotrend.scenarios import GdpPathway

from conftest import TINY

N_BANDS = len(AGE_BANDS)


class Twin:
    """The records as dataclasses."""

    @dataclass(frozen=True)
    class RunConfig:
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

    @dataclass(eq=False)
    class _WorkerPayload:
        dataset: Dataset
        scenarios: list
        config: RunConfig

    @dataclass(eq=False)
    class GdpPathway:
        iso3: str
        scenario_id: str
        start_year: int
        values: np.ndarray

        def __post_init__(self):
            self.values = np.asarray(self.values, dtype=float)
            if self.values.ndim != 1 or self.values.size == 0:
                raise ValueError("pathway needs a 1-d, non-empty value array")
            if not np.isfinite(self.values).all() or (self.values <= 0.0).any():
                raise NonPositiveResult(f"{self.iso3}/{self.scenario_id}: "
                                        "pathway values must be positive and finite")

    @dataclass(frozen=True)
    class DonorRule:
        target_gdp_2015: float
        target_pathway_max: float
        window_start: int = DONOR_WINDOW[0]
        window_end: int = DONOR_WINDOW[1]

        def __post_init__(self):
            if self.window_start >= self.window_end:
                raise ValueError("donor window must span at least one year")
            if self.target_gdp_2015 <= 0.0:
                raise ValueError("target 2015 GDP must be positive")
            if self.target_pathway_max < self.target_gdp_2015:
                raise ValueError("pathway maximum cannot undercut the 2015 level")

    @dataclass(eq=False)
    class AugmentedSeries:
        fit_gdp: np.ndarray
        fit_rate: np.ndarray
        weight_gdp: np.ndarray
        weight_rate: np.ndarray

    @dataclass(frozen=True)
    class Scope:
        kind: str
        key: str | None = None

    @dataclass(eq=False)
    class AggregateSeries:
        scope: Scope
        scenario_id: str
        start_year: int
        values: np.ndarray  # persons

    @dataclass(frozen=True)
    class PeakSummary:
        scope: Scope
        scenario_id: str
        peak_population: float
        peak_year: int

    @dataclass(eq=False)
    class RunResult:
        start_year: int
        scenario_ids: list[str]
        aggregates: dict[str, list[AggregateSeries]]
        sensitivity: list[tuple[str, float]] | None = None

    @dataclass(frozen=True)
    class CapPolicy:
        fertility_cap_gdp: float = 30000.0

        def __post_init__(self):
            if not math.isfinite(self.fertility_cap_gdp) or self.fertility_cap_gdp <= 0.0:
                raise ValueError("fertility cap must be positive and finite")

    @dataclass(frozen=True, eq=False)
    class EnsembleTable:
        member: np.ndarray
        coef: np.ndarray
        weight: np.ndarray
        sigma: np.ndarray
        aicc: np.ndarray
        n_fit: np.ndarray

        def __post_init__(self):
            w = self.weight
            if (self.coef.shape != (*w.shape, 4) or w.shape[1:] != (len(FORM_ORDER),)
                    or not self.member.any(axis=1).all()
                    or not ((w >= 0.0) & (w <= 1.0) & (self.member | (w == 0.0))).all()
                    or (np.abs(w.sum(axis=1) - 1.0) > 1e-9).any()):
                raise ValueError("every ensemble needs a member, and weights in [0, 1] "
                                 "that are 0 off its members and sum to 1")

        @classmethod
        def concat(cls, tables):
            return cls(*(np.concatenate([getattr(t, f.name) for t in tables])
                         for f in fields(cls)))

    @dataclass(frozen=True)
    class RateEnsemble:
        members: tuple[FitResult, ...]
        weights: tuple[float, ...]
        table: EnsembleTable = field(compare=False, repr=False)

    @dataclass(frozen=True, eq=False)
    class CountryEnsembles:
        table: EnsembleTable
        fertility_rows: np.ndarray
        mortality_rows: np.ndarray

        @cached_property
        def _views(self) -> list[RateEnsemble]:
            return [self.table.ensemble(row) for row in range(len(self.table.n_fit))]

        @property
        def fertility(self) -> dict[str, RateEnsemble]:
            return {band: self._views[row]
                    for band, row in zip(FERTILE_BANDS, self.fertility_rows.tolist())}

        @property
        def mortality(self) -> dict[tuple[str, Sex], RateEnsemble]:
            return {(band, sex): self._views[row]
                    for band, pair in zip(AGE_BANDS, self.mortality_rows.tolist())
                    for sex, row in zip(SEX_COLUMNS, pair)}

    @dataclass(frozen=True)
    class CountryRecord:
        iso3: str
        name: str
        income_group: IncomeGroup
        region: Region

    @dataclass(eq=False)
    class Dataset:
        countries: list[CountryRecord]
        rate_index: dict
        gdp_hist_index: dict
        gdp_baseline_index: dict
        base_pop_index: dict
        rejections: list[UnknownCountry] = field(default_factory=list)
        memo: dict = field(default_factory=dict, repr=False)

        @cached_property
        def country_map(self) -> dict[str, CountryRecord]:
            return {c.iso3: c for c in self.countries}

    @dataclass(frozen=True)
    class FitResult:
        form: ModelForm
        sigma: float
        n_fit: int
        k_params: int
        aicc: float
        beta1: float | None = None
        beta2: float | None = None
        beta3: float | None = None
        slope_right: float | None = None
        breakpoint_x1: float | None = None
        ybar: float | None = None

    @dataclass(eq=False)
    class PopulationState:
        iso3: str
        year: int
        counts: np.ndarray

        def __post_init__(self):
            self.counts = np.asarray(self.counts, dtype=float)
            if self.counts.shape != (N_BANDS, 2):
                raise ValueError(f"counts must have shape ({N_BANDS}, 2)")

    @dataclass(eq=False)
    class VitalRates:
        asfr: np.ndarray
        mortality: np.ndarray


def table_arrays(weight0=0.75, shift=0.0):
    """The fields of a one-row ``EnsembleTable`` with two members."""
    member = np.zeros((1, len(FORM_ORDER)), dtype=bool)
    member[0, :2] = True
    weight = np.zeros((1, len(FORM_ORDER)))
    weight[0, :2] = weight0, 0.25
    return (member, np.arange(32.0).reshape(1, 8, 4) + shift, weight,
            np.full((1, 8), 0.5), np.full((1, 8), 2.0), np.array([7]))


TABLE = EnsembleTable(*table_arrays())
OTHER_TABLE = EnsembleTable(*table_arrays(shift=1.0))
SCOPE = Scope("income", "High")
FIT = fit_result(ModelForm.LINEAR, np.array([1.0, 2.0, 0.0, 0.0]), 0.5, 3.0, 9)
RECORD = CountryRecord("AAA", "Aleph", IncomeGroup.LOW, Region.SOUTH_ASIA)

# Per record: all fields positional, a keyword call, and calls whose
# __post_init__ must fail the same way.
CASES = {
    RunConfig: (("d", "o", "sweep", 2.0, 1.1, 2050, ("world",), True, False, 2, "csv"),
                {"out_dir": "o", "data_dir": "d", "jobs": 3}, []),
    _WorkerPayload: (("dataset", ["s"], RunConfig("d", "o")),
                     {"dataset": None, "scenarios": [], "config": None}, []),
    GdpPathway: (("AAA", "baseline", 2015, [900.0, 950.0]),
                 {"iso3": "BBB", "scenario_id": "m1.0", "start_year": 2015,
                  "values": np.array([1.0])},
                 [("AAA", "m", 2015, [1.0, -1.0]), ("AAA", "m", 2015, []),
                  ("AAA", "m", 2015, [[1.0]])]),
    DonorRule: ((900.0, 2000.0, 1990, 2015), {"target_pathway_max": 5.0, "target_gdp_2015": 4.0},
                [(900.0, 800.0), (900.0, 2000.0, 2015, 2015), (0.0, 1.0)]),
    AugmentedSeries: ((np.ones(3), np.zeros(3), np.ones(2), np.zeros(2)),
                      {"fit_gdp": np.ones(1), "fit_rate": np.ones(1),
                       "weight_gdp": np.ones(1), "weight_rate": np.ones(1)}, []),
    Scope: (("income", "High"), {"kind": "world"}, []),
    AggregateSeries: ((SCOPE, "m0.0", 2015, np.arange(3.0)),
                      {"scope": SCOPE, "scenario_id": "b", "start_year": 2015,
                       "values": np.ones(2)}, []),
    PeakSummary: ((SCOPE, "baseline", 1.5e9, 2061),
                  {"scope": SCOPE, "scenario_id": "b", "peak_population": 2.0,
                   "peak_year": 2015}, []),
    RunResult: ((2015, ["baseline"], {"baseline": []}, [("AAA", 0.5)]),
                {"start_year": 2015, "scenario_ids": [], "aggregates": {}}, []),
    CapPolicy: ((1000.0,), {"fertility_cap_gdp": 5.0}, [(0.0,), (math.nan,), (-1.0,)]),
    EnsembleTable: (table_arrays(), dict(zip(EnsembleTable._fields, table_arrays(shift=2.0))),
                    [table_arrays(0.5)]),
    RateEnsemble: (((FIT,), (1.0,), TABLE), {"members": (), "weights": (), "table": None}, []),
    CountryEnsembles: ((TABLE, np.zeros(6, dtype=int), np.zeros((21, 2), dtype=int)),
                       {"table": TABLE, "fertility_rows": np.zeros(6, dtype=int),
                        "mortality_rows": np.zeros((21, 2), dtype=int)}, []),
    CountryRecord: (("AAA", "Aleph", IncomeGroup.LOW, Region.SOUTH_ASIA),
                    {"region": Region.NORTH_AMERICA, "income_group": IncomeGroup.HIGH,
                     "name": "Bet", "iso3": "BBB"}, []),
    Dataset: (([RECORD], {}, {}, {}, {}, [], {"k": 1}),
              {"countries": [], "rate_index": {}, "gdp_hist_index": {},
               "gdp_baseline_index": {}, "base_pop_index": {}}, []),
    FitResult: ((ModelForm.NEG_POWER, 0.1, 9, 3, -4.0, 1.0, 2.0, 0.5, None, None, None),
                {"form": ModelForm.NULL, "sigma": 0.2, "n_fit": 4, "k_params": 1,
                 "aicc": 1.0, "ybar": 0.3}, []),
    PopulationState: (("AAA", 2015, [[1.0, 2.0]] * 21),
                      {"iso3": "AAA", "year": 2016, "counts": np.ones((21, 2))},
                      [("AAA", 2015, np.ones((20, 2)))]),
    VitalRates: ((np.ones(6), np.zeros((21, 2))),
                 {"asfr": np.ones(6), "mortality": np.ones((21, 2))}, []),
}
PAIRS = [(record, getattr(Twin, record.__name__)) for record in CASES]


def field_names(cls):
    return cls._fields if hasattr(cls, "_fields") else tuple(f.name for f in fields(cls))


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=True))
    if type(a) is type(b) and hasattr(a, "_fields"):  # a record, compared field by field
        return all(same(getattr(a, name), getattr(b, name)) for name in a._fields)
    return a is b or (type(a) is type(b) and a == b)


def assert_same_values(record_obj, twin_obj):
    names = field_names(type(record_obj))
    assert names == field_names(type(twin_obj))
    for name in names:
        assert same(getattr(record_obj, name), getattr(twin_obj, name)), name


def outcome(call):
    """What a call gives: ("ok", value) or ("raise", exception type, message)."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return "raise", type(exc), str(exc)


def test_every_record_has_a_twin():
    assert len(CASES) == 18
    for record, twin in PAIRS:
        assert field_names(record) == field_names(twin), record.__name__


@pytest.mark.parametrize("record,twin", PAIRS, ids=[r.__name__ for r, _ in PAIRS])
class TestParity:
    def test_construction_and_defaults(self, record, twin):
        args, kwargs, _ = CASES[record]
        assert_same_values(record(*args), twin(*args))
        assert_same_values(record(**kwargs), twin(**kwargs))
        every = dict(zip(field_names(record), args))
        for name in every:  # each field left out in turn: its default, or a TypeError
            fewer = {key: value for key, value in every.items() if key != name}
            got, want = outcome(lambda: record(**fewer)), outcome(lambda: twin(**fewer))
            assert got[0] == want[0], (name, got, want)
            if got[0] == "ok":
                assert_same_values(got[1], want[1])  # the default
            else:
                assert got[1] is want[1] is TypeError

    def test_bad_calls_raise_the_same_error(self, record, twin):
        args, kwargs, post_init_failures = CASES[record]
        names = field_names(record)
        bad_calls = [((*args, None), {}), (args, {"no_such_field": 1})]
        if names:
            bad_calls.append((args, {names[0]: args[0]}))
        for bad_args, bad_kwargs in bad_calls:
            with pytest.raises(TypeError):
                twin(*bad_args, **bad_kwargs)
            with pytest.raises(TypeError):
                record(*bad_args, **bad_kwargs)
        for bad_args in post_init_failures:
            got, want = outcome(lambda: record(*bad_args)), outcome(lambda: twin(*bad_args))
            assert got[0] == want[0] == "raise"
            assert got[1:] == want[1:]

    def test_eq_hash_and_repr(self, record, twin):
        args, kwargs, _ = CASES[record]
        ours = [record(*args), record(*args), record(**kwargs)]
        theirs = [twin(*args), twin(*args), twin(**kwargs)]
        for a, b, x, y in [(ours[i], ours[j], theirs[i], theirs[j])
                           for i in range(3) for j in range(3)]:
            assert (a == b) == (x == y)
            assert (a != b) == (x != y)
        assert (ours[0] == "other") == (theirs[0] == "other")
        identity = twin.__eq__ is object.__eq__
        assert (record.__eq__ is object.__eq__) == identity
        assert (record.__hash__ is None) == (twin.__hash__ is None)
        if identity:
            assert [hash(obj) for obj in ours] == [object.__hash__(obj) for obj in ours]
        elif twin.__hash__ is not None:
            assert [hash(obj) for obj in ours] == [hash(obj) for obj in theirs]
        for a, x in zip(ours, theirs):
            assert repr(a) == repr(x).replace("Twin.", "", 1)

    def test_frozen_assignment_and_deletion(self, record, twin):
        args, _, _ = CASES[record]
        name = (field_names(record) or ("extra",))[0]
        ours, theirs = record(*args), twin(*args)
        for action in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
            got, want = outcome(lambda: action(ours)), outcome(lambda: action(theirs))
            assert got[0] == want[0], (got, want)
            if want[0] == "raise":
                assert issubclass(want[1], AttributeError) and issubclass(got[1], AttributeError)

    def test_pickle(self, record, twin):
        args, _, _ = CASES[record]
        obj = record(*args)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is record
        assert_same_values(back, obj)
        if twin.__eq__ is not object.__eq__:
            assert back == obj and hash(back) == hash(obj)


class TestRecordSpecifics:
    def test_factories_make_a_new_default_per_instance(self):
        for cls in (Dataset, Twin.Dataset):
            a, b = cls([], {}, {}, {}, {}), cls([], {}, {}, {}, {})
            assert a.rejections == [] and a.memo == {}
            assert a.rejections is not b.rejections and a.memo is not b.memo
            assert "memo" not in repr(a) and "rejections=[]" in repr(a)

    def test_hidden_field_is_left_out_of_eq_hash_and_repr(self):
        for cls in (RateEnsemble, Twin.RateEnsemble):
            a, b = cls((FIT,), (1.0,), TABLE), cls((FIT,), (1.0,), OTHER_TABLE)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert "table" not in repr(a)

    def test_dataset_cached_property(self):
        dataset = load_dataset(TINY)
        twin = Twin.Dataset(*(getattr(dataset, name) for name in Dataset._fields))
        assert dataset.country_map == twin.country_map
        assert dataset.country_map is dataset.country_map

    def test_country_ensembles_cached_property(self):
        dataset = load_dataset(TINY)
        ensembles = build_country_ensembles(dataset, "AAA", ())
        twin = Twin.CountryEnsembles(ensembles.table, ensembles.fertility_rows,
                                     ensembles.mortality_rows)
        assert ensembles._views is ensembles._views
        assert ensembles.fertility == twin.fertility
        assert ensembles.mortality == twin.mortality
        with pytest.raises(AttributeError):
            ensembles.table = None
        back = pickle.loads(pickle.dumps(ensembles))
        assert back.fertility == ensembles.fertility

    def test_ensemble_table_concat(self):
        tables = [TABLE, OTHER_TABLE, TABLE]
        twins = [Twin.EnsembleTable(*(getattr(t, name) for name in EnsembleTable._fields))
                 for t in tables]
        ours, theirs = EnsembleTable.concat(tables), Twin.EnsembleTable.concat(twins)
        assert type(ours) is EnsembleTable
        for name in EnsembleTable._fields:
            assert same(getattr(ours, name), getattr(theirs, name)), name
        assert len(ours.n_fit) == 3
        assert ours.ensemble(1) == tables[1].ensemble(0)


ERROR_ARGS = {
    errors.MissingFile: [("data/rates.csv",)],
    errors.SchemaViolation: [("rates.csv", 12, "rate must be a number")],
    errors.UnknownCountry: [("gdp_hist.csv", 3, "QQQ")],
    errors.NonPositiveGdp: [(), ("bad",), ("bad", "gdp_hist.csv", 7)],
    errors.InsufficientData: [(3, 2)],
    errors.DenominatorZero: [(3, 2)],
}


def error_cases():
    for cls in [errors.DemotrendError, *errors.DemotrendError.__subclasses__()]:
        for args in ERROR_ARGS.get(cls, [("some message",), ()]):
            yield cls, args


@pytest.mark.parametrize("cls,args", list(error_cases()),
                         ids=[f"{cls.__name__}-{len(args)}" for cls, args in error_cases()])
def test_every_error_pickles_with_its_attributes(cls, args):
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    public = {key: value for key, value in vars(exc).items() if not key.startswith("_")}
    assert {key: value for key, value in vars(back).items() if not key.startswith("_")} == public


def test_every_error_with_its_own_arguments_is_covered():
    own_init = {cls for cls in errors.DemotrendError.__subclasses__() if "__init__" in vars(cls)}
    assert own_init == set(ERROR_ARGS)


def test_non_positive_gdp_keeps_its_location_through_pickle():
    exc = errors.NonPositiveGdp("GDP must be positive", "gdp_hist.csv", 7)
    back = pickle.loads(pickle.dumps(exc))
    assert (back.file, back.line) == ("gdp_hist.csv", 7)
    assert str(back) == "gdp_hist.csv:7: GDP must be positive"
    keyword = pickle.loads(pickle.dumps(errors.NonPositiveGdp("x", file="f.csv", line=2)))
    assert (keyword.file, keyword.line, str(keyword)) == ("f.csv", 2, "f.csv:2: x")
