"""The frozen seed program, ``perfbench/reference/demotrend``, as a bit oracle.

The seed reads its inputs one row at a time, its one-row ``fit`` solves
every knot and exponent candidate with ``np.linalg.lstsq``, its ensembles
are built one series at a time, and it projects one state and one year at a
time, so this package's columnar datasets, its batched, screened fits, its
ensembles and every country's projected totals must equal the seed's bit
for bit. The seed is imported read-only (no bytecode is
written) as the package ``seed_demotrend``, by file location with no
``sys.path`` entry, so it never shadows ``demotrend``. Its calls run with
floating-point warnings silenced, since it warns where this package does
not, and an error it raises is raised again as this package's class of the
same name, with the same message and attributes.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np

from demotrend import errors
from demotrend.core import Sex
from demotrend.data_ingest import PopulationState
from demotrend.models import FitResult, ModelForm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = PERFBENCH / "reference" / "demotrend"


def load(name: str, path: Path, package: bool = False):
    """The module ``name`` imported from the file (or, if ``package``, the
    package directory) ``path``, without writing bytecode."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


load("seed_demotrend", SEED, package=True)
(_models, _data_ingest, _augmentation, _rate_forecast, _errors, _demography, _scenarios,
 report, _cli) = (load(f"seed_demotrend.{name}", SEED / f"{name}.py")
                  for name in ("models", "data_ingest", "augmentation", "rate_forecast", "errors",
                               "demography", "scenarios", "report", "cli"))


def _quiet(call, *args):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return call(*args)
        except _errors.DemotrendError as exc:
            ours = getattr(errors, type(exc).__name__)
            error = ours.__new__(ours)
            error.args = exc.args
            vars(error).update(vars(exc))
            raise error from None


def _head(result) -> FitResult:
    """A seed ``FitResult`` as this package's."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return FitResult(**{**fields, "form": ModelForm(result.form.value)})


def _seed(result: FitResult):
    """This package's ``FitResult`` as the seed's."""
    fields = {name: getattr(result, name) for name in FitResult._fields}
    return _models.FitResult(**{**fields, "form": _models.ModelForm(result.form.value)})


def _head_ensembles(built):
    """A seed ``CountryEnsembles`` as (members, weights) of each ensemble,
    keyed as ``CountryEnsembles.fertility`` and ``.mortality`` key them."""
    def head(ensemble):
        return tuple(map(_head, ensemble.members)), ensemble.weights

    return ({band: head(e) for band, e in built.fertility.items()},
            {(band, Sex(sex.value)): head(e) for (band, sex), e in built.mortality.items()})


def fit(form: ModelForm, xs, ys) -> FitResult:
    """The seed's fit of one form to one row."""
    return _head(_quiet(_models.fit, _models.ModelForm(form.value), xs, ys))


def raw_prediction(result: FitResult, xs) -> np.ndarray:
    """The seed's unclamped values of one fit at the GDP values ``xs``."""
    return _quiet(_models.raw_prediction, _seed(result), xs)


def forecast(ensemble, gdp, fertility: bool, cap_gdp: float) -> list[float]:
    """The seed's ``forecast_rate`` of one ``RateEnsemble`` at each value of
    ``gdp``: each member's prediction at the GDP value (capped at ``cap_gdp``
    for fertility), clamped at zero, weighted and summed in member order."""
    seed = _models.RateEnsemble(tuple(map(_seed, ensemble.members)), ensemble.weights)
    variable = _rate_forecast.Variable.FERTILITY if fertility else _rate_forecast.Variable.MORTALITY
    cap = _rate_forecast.CapPolicy(cap_gdp)
    return [_quiet(_rate_forecast.forecast_rate, seed, float(g), variable, cap) for g in gdp]


def load_dataset(data_dir):
    """The seed's reading of an input directory."""
    return _quiet(_data_ingest.load_dataset, data_dir)


def _enum(member):
    """This package's ``Variable`` or ``Sex`` member (or None) as the seed's."""
    return None if member is None else getattr(_data_ingest, type(member).__name__)(member.value)


def rate_series(dataset, iso3: str, variable, age_group: str, sex=None):
    """The seed's ``rate_series`` of its ``dataset``."""
    return dataset.rate_series(iso3, _enum(variable), age_group, _enum(sex))


def select_donors(floor: float, ceiling: float, candidates) -> list[str]:
    """The seed's donors among ``candidates`` (iso3 to a (years, values) GDP
    series) for a target whose 2015 GDP is ``floor`` and whose pathway peaks
    at ``ceiling``."""
    return _quiet(_augmentation.select_donors, _augmentation.DonorRule(floor, ceiling), candidates)


def augmented_series(dataset, target: str, donors, variable, age_group: str, sex=None):
    """The seed's ``build_augmented_series`` on its ``dataset``, as (fit_gdp,
    fit_rate, weight_gdp, weight_rate)."""
    series = _quiet(_augmentation.build_augmented_series, target, donors, _enum(variable),
                    age_group, dataset, _enum(sex))
    return series.fit_gdp, series.fit_rate, series.weight_gdp, series.weight_rate


def build_country_ensembles(dataset, iso3: str, donors, cache: dict | None = None):
    """The seed's ensembles of one country, as ``_head_ensembles`` gives them."""
    return _head_ensembles(_quiet(_rate_forecast.build_country_ensembles, dataset, iso3,
                                  tuple(donors), cache))


def step_year(state: PopulationState, rates, srb: float) -> PopulationState:
    """The seed's ``step_year``, then the check of ``srb`` that this package
    adds after the seed's own checks (which run at a valid ``srb``)."""
    stepped = _quiet(_demography.step_year, state, rates, srb if srb > 0.0 else 1.0)
    if not srb > 0.0:
        raise errors.InvalidRate(f"sex ratio at birth must be positive, got {srb}")
    return PopulationState(iso3=stepped.iso3, year=stepped.year, counts=stepped.counts)


def multiplier_pathway(base, m: float):
    """The seed's pathway of the baseline ``base`` under the multiplier ``m``."""
    return _quiet(_scenarios.multiplier_pathway, base, m)


def project(data_dir, scenario: str):
    """The seed's ``cli._project_one`` of every country of ``data_dir``:
    by iso3 the (S, T+1) totals in scenario order, the ``donors.csv`` lines,
    and the ensembles of each distinct (iso3, donors) that it builds."""
    dataset = load_dataset(data_dir)
    config = _cli.RunConfig(data_dir=str(data_dir), out_dir="", scenario=scenario)
    scenarios = _quiet(_cli._build_scenarios, dataset, config)
    countries = sorted(c.iso3 for c in dataset.countries)
    _cli._init_worker(_cli._WorkerPayload(
        dataset=dataset, scenarios=scenarios, country_order=countries,
        cap=_rate_forecast.CapPolicy(config.fertility_cap), srb=config.srb,
        horizon=config.horizon, dump_donors=True, dump_ensembles=False))
    totals, donors, ensembles = {}, [], {}
    build = _cli.build_country_ensembles

    def recording_build(dataset, iso3, donors, cache):
        built = build(dataset, iso3, donors, cache)
        ensembles[(iso3, tuple(donors))] = _head_ensembles(built)
        return built

    _cli.build_country_ensembles = recording_build
    try:
        for iso3 in countries:
            _, by_id, rows, _ = _quiet(_cli._project_one, iso3)
            totals[iso3] = np.array([by_id[sid] for sid, _ in scenarios])
            donors.extend(",".join(row) for row in rows)
    finally:
        _cli.build_country_ensembles = build
        _cli._WORKER.clear()
    return totals, donors, ensembles


def run_result(result):
    """This package's ``report.RunResult`` as the seed's: one
    ``AggregateSeries`` per scenario and scope of its (S, K, T+1) totals."""
    scopes = [report.Scope(scope.kind, scope.key) for scope in result.scopes]
    aggregates = {sid: [report.AggregateSeries(scope, sid, result.start_year, values)
                        for scope, values in zip(scopes, by_scope)]
                  for sid, by_scope in zip(result.scenario_ids, result.totals)}
    return report.RunResult(result.start_year, result.scenario_ids, aggregates,
                            result.sensitivity)
