"""Exception types raised by the modloc numerical machinery."""


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
