"""Exception types shared across the package."""


class AsiError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AsiError, ValueError):
    """Operand shapes are incompatible. Messages name both shapes."""


class ConfigError(AsiError, ValueError):
    """A configuration value violates its contract."""


class DegenerateInputError(AsiError, ValueError):
    """Input is too small for the requested statistic (e.g. covariance of one row)."""


class TimestepError(AsiError, IndexError):
    """A timestep index lies outside the noise schedule."""


class ScheduleError(AsiError, ValueError):
    """The noise schedule is singular at the requested point."""


class NonFiniteError(AsiError, ValueError):
    """A matrix or feature block would hold NaN or Inf (e.g. after overflow)."""


class DumpFormatError(AsiError, ValueError):
    """A tensor dump is malformed, or an array has no encoding in the dump format."""
