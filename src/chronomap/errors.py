"""Exception hierarchy shared by all chronomap modules.

Three broad families map onto the CLI exit codes: configuration errors
(bad parameters or requests), data errors (unusable input files or
samples), and compute errors (valid inputs on which the requested
quantity does not exist). ``check_real`` is the type check that the
parameter dataclasses share.
"""

import dataclasses
import numbers


class ChronoError(Exception):
    """Base class for all errors raised by this package; one argument per problem."""

    def __str__(self):
        return "; ".join(map(str, self.args))


class ConfigError(ChronoError):
    """Invalid parameters, grids, or requested coordinates."""


class DomainError(ConfigError):
    """A requested coordinate lies outside the representable range."""


class SynthesisError(ConfigError):
    """A pulse specification cannot be realized on the given grid."""


class ShapingError(ConfigError):
    """A shaper mask is inconsistent with the field or removes it entirely."""


class DataError(ChronoError):
    """Input data cannot be used (malformed, non-finite, ill-conditioned)."""


class ParseError(DataError):
    """A file does not parse under its declared format."""


class FormatError(DataError):
    """A file's magic header or structure does not match the format."""


class CalibrationError(DataError):
    """A wavelength/frequency calibration is degenerate or inconsistent."""


class ComputeError(ChronoError):
    """A computation cannot produce the requested result on valid inputs."""


class InsufficientStructureError(ComputeError):
    """A map lacks the interference structure the analysis requires."""


def check_real(spec, sequences=()):
    """Raise one ConfigError naming each field of the dataclass ``spec`` that
    is not a real number (for the fields in ``sequences``: real numbers)."""
    bad = []
    for f in dataclasses.fields(spec):
        v, many = getattr(spec, f.name), f.name in sequences
        try:
            ok = all(isinstance(x, numbers.Real) for x in (v if many else (v,)))
        except TypeError:  # a sequence field that is not iterable
            ok = False
        if not ok:
            bad.append(f"{f.name} must be {'real numbers' if many else 'a real number'}, got {v!r}")
    if bad:
        raise ConfigError(*bad)
