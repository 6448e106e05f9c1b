"""Exception types raised by the modloc numerical machinery, and the number
check behind every spec's and config's range rules."""

import math
import numbers


class ModlocError(Exception):
    """Base class for all modloc errors."""


class DecompositionFailure(ModlocError):
    """A saved artifact is malformed: bad header, format, array or size."""


class EigenFailure(ModlocError):
    """A dense or tridiagonal eigensolver failed to converge."""


class SpectrumOutOfDomain(ModlocError):
    """A matrix function (log, inverse square root) was asked for outside its domain."""


class ProjectionLoss(ModlocError):
    """Too much state mass falls outside the truncated basis."""


class OverflowAbort(ModlocError):
    """An intermediate norm exceeded the overflow guard; the result is inconclusive."""


class ConfigError(ModlocError):
    """A run configuration failed validation."""


def is_number(value, kind) -> bool:
    """A finite instance of the numbers ABC kind that is not a bool."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value))


def check_numbers(obj, reals=(), ints=(), error=ValueError):
    """Raise error unless each field of obj named in reals is a finite real
    number and each named in ints an integer, none of them a bool."""
    for names, kind, word in ((reals, numbers.Real, "real number"),
                              (ints, numbers.Integral, "integer")):
        for name in names:
            value = getattr(obj, name)
            if not is_number(value, kind):
                raise error(f"{name} must be a finite {word}, got {value!r}")
