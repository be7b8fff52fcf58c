"""The frozen seed program, ``perfbench/reference/demotrend``, as a bit oracle.

The seed's one-row ``fit`` solves every knot and exponent candidate with
``np.linalg.lstsq``, and its ensembles are built one series at a time, so
this package's batched, screened fits must equal them bit for bit. The seed
is imported read-only (no bytecode is written) as the package
``seed_demotrend``, by file location with no ``sys.path`` entry, so it never
shadows ``demotrend``. Its calls run with floating-point warnings silenced,
since it warns where this package does not.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np

from demotrend.core import Sex
from demotrend.errors import DegenerateX, InsufficientData
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
_models, _data_ingest, _rate_forecast, _errors = (
    load(f"seed_demotrend.{name}", SEED / f"{name}.py")
    for name in ("models", "data_ingest", "rate_forecast", "errors"))


def _quiet(call, *args):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return call(*args)


def _head(result) -> FitResult:
    """A seed ``FitResult`` as this package's."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return FitResult(**{**fields, "form": ModelForm(result.form.value)})


def fit(form: ModelForm, xs, ys) -> FitResult:
    """The seed's fit of one form to one row; it raises ``DegenerateX`` and
    ``InsufficientData`` where the seed does."""
    try:
        return _head(_quiet(_models.fit, _models.ModelForm(form.value), xs, ys))
    except _errors.DegenerateX as exc:
        raise DegenerateX(*exc.args) from None
    except _errors.InsufficientData as exc:
        raise InsufficientData(exc.n, exc.k) from None


def raw_prediction(result: FitResult, xs) -> np.ndarray:
    """The seed's unclamped values of one fit at the GDP values ``xs``."""
    fields = {name: getattr(result, name) for name in FitResult._fields}
    seed = _models.FitResult(**{**fields, "form": _models.ModelForm(result.form.value)})
    return _quiet(_models.raw_prediction, seed, xs)


def load_dataset(data_dir):
    """The seed's reading of an input directory."""
    return _quiet(_data_ingest.load_dataset, data_dir)


def build_country_ensembles(dataset, iso3: str, donors, cache: dict | None = None):
    """The seed's ensembles of one country, each as (members, weights), keyed
    as ``CountryEnsembles.fertility`` and ``.mortality`` key them."""
    built = _quiet(_rate_forecast.build_country_ensembles, dataset, iso3, tuple(donors), cache)

    def head(ensemble):
        return tuple(map(_head, ensemble.members)), ensemble.weights

    return ({band: head(e) for band, e in built.fertility.items()},
            {(band, Sex(sex.value)): head(e) for (band, sex), e in built.mortality.items()})
