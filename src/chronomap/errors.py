"""Exception hierarchy shared by all chronomap modules.

Three broad families map onto the CLI exit codes: configuration errors
(bad parameters or requests), data errors (unusable input files or
samples), and compute errors (valid inputs on which the requested
quantity does not exist). ``check_real`` is the one check of numeric
parameters that the spec dataclasses share.
"""

import math
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


# The rules a numeric parameter can be held to; each one also means finite.
RULES = {"finite": lambda v: True, "positive": lambda v: v > 0, ">= 0": lambda v: v >= 0}


def check_real(values, sequences=None, **rules):
    """Raise one ConfigError with a problem for each bad parameter in ``values``.

    ``values`` maps parameter names to values (``vars(spec)`` for a spec
    dataclass). Each must be a real number, or, if ``sequences`` maps its
    name to a count, a sequence of that many real numbers. A parameter
    named in ``rules`` must also meet its rule: a key of :data:`RULES`,
    which applies to each of its numbers, or a function of its value that
    returns what is wrong with it, or None. Each problem names its
    parameter first; they follow the order of ``rules``, then of ``values``.
    """
    sequences = sequences or {}
    bad = []
    for name in dict.fromkeys([*rules, *values]):
        v, count, rule = values[name], sequences.get(name), rules.get(name)
        try:
            xs = (v,) if count is None else tuple(v)
        except TypeError:  # a sequence parameter that is not iterable
            xs = ()
        if len(xs) != (count or 1) or not all(isinstance(x, numbers.Real) for x in xs):
            bad.append(f"{name} must be {f'{count} real numbers' if count else 'a real number'}, "
                       f"got {v!r}")
        elif callable(rule):
            wrong = rule(v)
            if wrong:
                bad.append(f"{name} {wrong}, got {v!r}")
        elif rule and not all(math.isfinite(x) and RULES[rule](x) for x in xs):
            text = rule if rule == "finite" else f"finite and {rule}"
            bad.append(f"{name} must be {text}, got {v!r}")
    if bad:
        raise ConfigError(*bad)
