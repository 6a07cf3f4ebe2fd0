"""Exception hierarchy shared by all chronomap modules.

Three broad families map onto the CLI exit codes: configuration errors
(bad parameters or requests), data errors (unusable input files or
samples), and compute errors (valid inputs on which the requested
quantity does not exist). ``check_real`` is the one check of numeric
parameters that the spec dataclasses share, and ``check_array`` the one
check of array inputs.
"""

import numbers
import sys

import numpy as np


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
RULES = {"finite": lambda v: True, "positive": lambda v: v > 0, ">= 0": lambda v: v >= 0,
         "in [0, 1)": lambda v: 0 <= v < 1}

# The rules an array can be held to; each one also means finite.
ARRAY_RULES = {
    "finite": lambda a: True,
    "non-negative": lambda a: a.min(initial=0) >= 0,
    # neighbours compared, not differenced: a step past the float range would overflow
    "strictly increasing": lambda a: bool(np.all(a[1:] > a[:-1])),
    "strictly monotone": lambda a: bool(np.all(a[1:] > a[:-1]) or np.all(a[1:] < a[:-1])),
}


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
        # finite: NaN, inf and ints beyond the float range all fail abs(x) <= max
        elif rule and not all(abs(x) <= sys.float_info.max and RULES[rule](x) for x in xs):
            text = rule if rule == "finite" else f"finite and {rule}"
            bad.append(f"{name} must be {text}, got {v!r}")
    if bad:
        raise ConfigError(*bad)


def check_array(name, values, dtype=float, shape=None, rule="finite"):
    """``values`` as a read-only C-contiguous array of ``dtype``, or one ConfigError naming ``name``.

    ``shape`` is an exact shape tuple, or an int k for a 1D array of at
    least k entries, or None for any shape. ``rule`` is a key of
    :data:`ARRAY_RULES`, or None to check nothing but the conversion and
    the shape. The result is a read-only view of ``values``, copied only
    when the dtype or memory layout needs it; the caller's array keeps
    its flags.
    """
    dtype = np.dtype(dtype)
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting
        a = None
    # text, None and other objects, and ints beyond the float range, convert to no number kind
    if a is None or a.dtype.kind not in ("biufc" if dtype.kind == "c" else "biuf"):
        kind = "complex" if dtype.kind == "c" else "real"
        raise ConfigError(f"{name} must be an array of {kind} numbers, got {type(values).__name__}")
    a = np.asarray(a, dtype=dtype, order="C").view()
    if isinstance(shape, int) and (a.ndim != 1 or a.size < shape):
        raise ConfigError(f"{name} must be a 1D array of >= {shape} entries, got shape {a.shape}")
    if isinstance(shape, tuple) and a.shape != shape:
        raise ConfigError(f"{name} must be shaped {shape}, got {a.shape}")
    if rule and not (np.isfinite(a).all() and ARRAY_RULES[rule](a)):
        raise ConfigError(f"{name} must be {rule if rule == 'finite' else f'finite and {rule}'}")
    a.flags.writeable = False
    return a
