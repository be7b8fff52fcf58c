"""Exception types shared across the engine.

Errors that point at a specific input row carry ``file`` and ``line``
attributes. Line numbers are 1-based physical lines; line 0 means the
condition applies to the file as a whole rather than a single row.
"""
from __future__ import annotations

import functools


class DemotrendError(Exception):
    """Base class for every error raised by this package.

    An error keeps the arguments it was made from and pickles (out of a
    ``--jobs`` worker, say) as a call of its constructor with them.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._remake = functools.partial(cls, *args, **kwargs)
        return self

    def __reduce__(self):
        return self._remake, ()


class MissingFile(DemotrendError):
    def __init__(self, path: object):
        super().__init__(f"required input file not found: {path}")
        self.path = str(path)


class SchemaViolation(DemotrendError):
    def __init__(self, file: str, line: int, reason: str):
        super().__init__(f"{file}:{line}: {reason}")
        self.file, self.line, self.reason = file, line, reason


class UnknownCountry(DemotrendError):
    """Row references an iso3 code absent from the country register."""

    def __init__(self, file: str, line: int, iso3: str):
        super().__init__(f"{file}:{line}: unknown country {iso3!r} (row skipped)")
        self.file, self.line, self.iso3 = file, line, iso3


class NonPositiveGdp(DemotrendError):
    def __init__(self, message: str = "GDP per capita must be positive",
                 file: str | None = None, line: int | None = None):
        if file is not None:
            message = f"{file}:{line}: {message}"
        super().__init__(message)
        self.file, self.line = file, line


class InsufficientData(DemotrendError):
    def __init__(self, n: int, k: int):
        super().__init__(f"{n} observations cannot support a {k}-parameter fit "
                         f"(need at least {k + 2})")
        self.n, self.k = n, k


class DegenerateX(DemotrendError):
    """Predictor values carry no usable variation for the requested form."""


class NonFiniteInput(DemotrendError):
    """NaN or infinity in numeric input."""


class DenominatorZero(DemotrendError):
    def __init__(self, n: int, k: int):
        super().__init__(f"small-sample correction undefined for n={n}, k={k} "
                         f"(requires n > k + 1)")
        self.n, self.k = n, k


class EmptyInput(DemotrendError):
    """An operation received an empty collection."""


class NonPositiveX(DemotrendError):
    """Model evaluation requires a strictly positive predictor."""


class NoTargetData(DemotrendError):
    """Target country has no usable historical observations for a series."""


class NoWeightData(DemotrendError):
    """Ensemble weighting requires at least one target-only observation."""


class InvalidRate(DemotrendError):
    """A vital rate lies outside its admissible range."""


class NegativeState(DemotrendError):
    """A cohort count is negative."""


class PathwayGap(DemotrendError):
    """A GDP pathway does not cover a requested year."""


class NonPositiveResult(DemotrendError):
    """A scenario transformation produced a non-positive GDP value."""


class NonFiniteResult(DemotrendError):
    """A projection overflowed to an infinite or NaN population."""

    @classmethod
    def at(cls, where: str, year: int) -> NonFiniteResult:
        return cls(f"{where}: projected population is not finite in {year}")


class EmptyScope(DemotrendError):
    """An aggregation scope matches no countries."""


class ZeroBaseline(DemotrendError):
    """A ratio is undefined because its baseline denominator is zero."""


class IoFailure(DemotrendError):
    """Writing an output artifact failed."""
