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

_REQUIRED = object()


class Record:
    """Base of the package's records, in place of ``dataclasses``, which
    compiles new source for each method of each class at every import.

    A subclass's annotated names are its fields (``_fields``), and a class
    value is a field's default. ``factories`` maps a field to the function
    that makes its default; ``hidden`` fields are left out of ``repr``, ``==``
    and ``hash``. The methods are closures over the field names: ``__init__``
    (ending in ``__post_init__``), ``__repr__``, value ``__eq__`` and
    ``__hash__`` unless ``eq=False``, and if ``frozen``, a refusing
    ``__setattr__`` and ``__delattr__``.
    """

    def __init_subclass__(cls, frozen=False, eq=True, factories=(), hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        make = {name: lambda value=cls.__dict__.get(name, _REQUIRED): value for name in names}
        make.update(factories)
        shown = [name for name in names if name not in hidden]

        def __init__(self, *args, **kwargs):
            values = dict(zip(names, args))
            for name in names[len(args):]:
                values[name] = kwargs.pop(name) if name in kwargs else make[name]()
            missing = [name for name, value in values.items() if value is _REQUIRED]
            if missing or kwargs or len(args) > len(names):
                raise TypeError(f"{cls.__qualname__}(): missing {missing}, unexpected "
                                f"{[*args[len(names):], *kwargs]}")
            self.__dict__.update(values)
            self.__post_init__()

        def __repr__(self):
            shows = (f"{name}={getattr(self, name)!r}" for name in shown)
            return f"{type(self).__qualname__}({', '.join(shows)})"

        def key(self):
            return tuple([getattr(self, name) for name in shown])

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def refuse(self, name, value=None):
            raise AttributeError(f"cannot assign to or delete field {name!r}")

        cls.__init__, cls.__repr__ = __init__, __repr__
        if eq:
            cls.__eq__, cls.__hash__ = __eq__, (lambda self: hash(key(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = refuse

    def __post_init__(self):
        pass
