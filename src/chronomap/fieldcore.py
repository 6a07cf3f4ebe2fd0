"""Sampling grids, complex field containers, and pulse synthesis.

Everything downstream operates on a uniform time grid and its conjugate
angular-frequency grid. The transform convention is fixed once here and
inherited by every other module:

    forward:  S(w) = integral E(t) exp(+i w t) dt
    inverse:  E(t) = (1/2 pi) integral S(w) exp(-i w t) dw

Units are picoseconds for time and rad/ps for angular frequency, so
time-frequency areas are dimensionless. Carriers are stored relative to
a reference carrier (baseband representation); a pulse whose samples
carry exp(-i w_c t) has its spectral peak at w = +w_c under the forward
convention above.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapingError, SynthesisError, check_array, check_real

__all__ = [
    "SampleGrid",
    "ComplexField",
    "PulseSpec",
    "CompassSpec",
    "ShaperMask",
    "make_grid",
    "energy",
    "spectrum",
    "field_from_spectrum",
    "upsample2",
    "gaussian_pulse",
    "chirped_gaussian",
    "compass_state",
    "apply_shaper",
]

# Relative band-edge level below which a field counts as negligible when
# checking sampling headroom for nonlinear products.
SUPPORT_FLOOR = 1e-10


@dataclass(frozen=True)
class SampleGrid:
    """Uniform time grid with its conjugate angular-frequency grid.

    Parameters
    ----------
    n : int
        Sample count; must be a power of two, at least 16.
    dt : float
        Time step in ps.
    t_start : float
        First sample time in ps.

    Notes
    -----
    The conjugate grid has step ``dw = 2*pi/(n*dt)`` and is centered on
    zero: ``w_j = (j - n//2)*dw``. Adequacy of the frequency span for a
    given pulse is validated at synthesis time, not here.
    """

    n: int
    dt: float
    t_start: float

    def __post_init__(self):
        check_real(vars(self), n=_power_of_two, dt="positive", t_start="finite")

    @property
    def dw(self) -> float:
        """Angular-frequency step in rad/ps."""
        return 2.0 * math.pi / (self.n * self.dt)

    @property
    def t_end(self) -> float:
        """Last sample time in ps."""
        return self.t_start + (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        """Time samples, length ``n``."""
        return self.t_start + self.dt * np.arange(self.n)

    def ang_freqs(self) -> np.ndarray:
        """Centered conjugate angular-frequency samples, length ``n``."""
        return (np.arange(self.n) - self.n // 2) * self.dw

    @property
    def w_max(self) -> float:
        """Largest representable |w| common to both grid halves."""
        return (self.n // 2 - 1) * self.dw

    def delay_steps(self, tau):
        """Snap one delay (to an int) or a 1D array of them (to intp) to grid steps.

        Delays must coincide with the sample lattice so that shifted
        copies of a field are again on-grid samples; this keeps the FFT
        and direct-summation transform paths exactly equivalent. A delay
        that is not finite or not a multiple of ``dt`` (tolerance 1e-6 dt)
        raises :class:`ConfigError`, a shift past the grid span
        :class:`DomainError`; in an array the first bad delay raises.
        """
        one = not isinstance(tau, (list, tuple, np.ndarray))
        if one:
            check_real({"delay": tau}, delay="finite")
        taus = np.array([float(tau)]) if one else check_array("delays", tau, shape=0, rule=None)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = taus / self.dt  # inf when a delay nears the float limit and dt is tiny
            s = np.rint(steps)
            outside = ~(np.abs(steps) <= self.n - 0.5)
            bad = outside | (np.abs(taus - s * self.dt) > 1e-6 * self.dt)
        if bad.any():
            i = int(np.argmax(bad))
            x = tau if one else float(taus[i])
            check_real({"delay": x}, delay="finite")
            if outside[i]:
                raise DomainError(f"delay {x} ps exceeds the grid span of {self.n * self.dt} ps")
            raise ConfigError(f"delay {x} ps is not on the sample lattice (step {self.dt} ps)")
        return int(s[0]) if one else s.astype(np.intp)

    def delay_axis(self, span) -> np.ndarray:
        """The delays ``dt*k``, ``|k| <= round(span/dt)``, on the lattice by construction;
        a :class:`DomainError` unless ``0 < span`` and ``round(span/dt) <= n - 1``."""
        check_real({"span": span})
        k = span / self.dt if 0 < span <= sys.float_info.max else math.inf  # inf if dt is tiny
        if not (math.isfinite(k) and round(k) <= self.n - 1):
            raise DomainError(f"delay span must be positive and at most (n - 1)*dt = "
                              f"{(self.n - 1) * self.dt:g} ps, got {span!r}")
        return self.dt * np.arange(-round(k), round(k) + 1)


def _power_of_two(n):
    if not (isinstance(n, (int, np.integer)) and n >= 16 and n & (n - 1) == 0):
        return "must be a power of two >= 16"


make_grid = SampleGrid  # make_grid(n, dt, t_start) builds the same grid


@dataclass(frozen=True)
class ComplexField:
    """Complex field samples bound to their grid.

    Samples are coerced to complex128, must all be finite, and are
    copied and frozen read-only on construction; all operations on
    fields are pure functions returning new objects.
    """

    grid: SampleGrid
    samples: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, SampleGrid):
            raise ConfigError(f"grid must be a SampleGrid, got {type(self.grid).__name__}")
        s = check_array("field samples", self.samples, complex, (self.grid.n,)).copy()
        s.flags.writeable = False  # a copy of its own, so no caller can change it
        object.__setattr__(self, "samples", s)


def energy(f: ComplexField) -> float:
    """Squared norm ``sum |E|^2 dt`` of a field."""
    return float(np.sum(np.abs(f.samples) ** 2) * f.grid.dt)


def spectrum(f: ComplexField) -> np.ndarray:
    """Field spectrum on the grid's conjugate axis.

    Evaluates ``S(w_j) = sum_k E(t_k) exp(+i w_j t_k) dt`` exactly (an
    FFT plus the start-time phase factor), aligned with
    ``grid.ang_freqs()``.
    """
    g = f.grid
    s = np.fft.fftshift(g.n * np.fft.ifft(f.samples))
    return (g.dt * np.exp(1j * g.ang_freqs() * g.t_start)) * s


def field_from_spectrum(grid: SampleGrid, values: np.ndarray) -> ComplexField:
    """Inverse of :func:`spectrum` on the same grid (exact round trip)."""
    values = check_array("spectrum", values, complex, (grid.n,))
    b = values * np.exp(-1j * grid.ang_freqs() * grid.t_start)
    samples = np.fft.fft(np.fft.ifftshift(b)) / (grid.n * grid.dt)
    return ComplexField(grid, samples)


def upsample2(f: ComplexField) -> ComplexField:
    """Resample a field onto the twice-finer grid over the same span.

    Spectral zero padding; exact trigonometric interpolation for fields
    that respect the sampling headroom enforced at synthesis.
    """
    g = f.grid
    fine = SampleGrid(2 * g.n, g.dt / 2.0, g.t_start)
    s = spectrum(f)
    big = np.zeros(fine.n, dtype=np.complex128)
    big[g.n // 2 : g.n // 2 + g.n] = s
    return field_from_spectrum(fine, big)


def spectral_support(f: ComplexField) -> float:
    """Largest |w| at which the spectrum exceeds :data:`SUPPORT_FLOOR` times its peak."""
    s = np.abs(spectrum(f))
    peak = s.max()
    if peak == 0.0:
        return 0.0
    idx = np.nonzero(s > SUPPORT_FLOOR * peak)[0]
    w = f.grid.ang_freqs()
    return float(np.max(np.abs(w[idx])))


@dataclass(frozen=True)
class PulseSpec:
    """Parameters of a single Gaussian pulse.

    Parameters
    ----------
    center_time : float
        Temporal center in ps.
    center_ang_freq : float
        Carrier in rad/ps, relative to the reference carrier.
    sigma : float
        Gaussian width parameter in ps (exponent ``-(t-t0)^2/(2 sigma^2)``).
    amplitude : float
        Linear amplitude factor, >= 0.
    phase : float
        Constant phase in radians.
    """

    center_time: float
    center_ang_freq: float
    sigma: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        check_real(vars(self), center_time="finite", center_ang_freq="finite",
                   sigma="positive", amplitude=">= 0", phase="finite")


@dataclass(frozen=True)
class CompassSpec:
    """Four-pulse superposition spread along both conjugate axes.

    The four component pulses sit at the phase-space points
    ``(time, carrier) = (+t0, -omega0), (-t0, -omega0), (+t0, +omega0),
    (-t0, +omega0)``, in that order; ``amplitudes`` and ``phases`` are
    indexed accordingly. Equal amplitudes with zero phases give the
    real, even canonical state; zeroing one carrier pair
    (e.g. ``amplitudes=(1, 1, 0, 0)``) leaves a two-pulse cat.
    """

    t0: float
    omega0: float
    sigma: float
    amplitudes: tuple = (1.0, 1.0, 1.0, 1.0)
    phases: tuple = (0.0, 0.0, 0.0, 0.0)

    # Signs defining the pulse positions, index-aligned with amplitudes.
    TIME_SIGNS = (+1.0, -1.0, +1.0, -1.0)
    FREQ_SIGNS = (-1.0, -1.0, +1.0, +1.0)

    def __post_init__(self):
        check_real(vars(self), {"amplitudes": 4, "phases": 4}, t0="positive",
                   omega0="positive", sigma="positive", amplitudes=_amplitudes, phases="finite")
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))


def _amplitudes(amps):
    if not (all(0 <= a <= sys.float_info.max for a in amps) and any(a > 0 for a in amps)):
        return "must be finite and >= 0, one of them positive"


@dataclass(frozen=True)
class ShaperMask:
    """Pulse-shaper transfer function: spectral block plus cosine mask.

    ``mask_t0`` parameterizes the cosine transfer
    ``M(w) = cos(w*mask_t0) * exp(-i*w*mask_t0)``, which splits a pulse
    into two replicas separated by ``2*mask_t0``; ``mask_t0 = 0`` is the
    identity. A band of halfwidth ``block_halfwidth`` around
    ``block_center`` is zeroed (0 disables blocking).
    """

    mask_t0: float = 0.0
    block_center: float = 0.0
    block_halfwidth: float = 0.0

    def __post_init__(self):
        check_real(vars(self), mask_t0=">= 0", block_halfwidth=">= 0", block_center="finite")


def _check_coverage(grid: SampleGrid, what, center, reach, carrier, band):
    """Raise SynthesisError unless the grid holds ``center +- reach`` and ``|w| <= band``."""
    lo, hi = center - reach, center + reach
    if lo < grid.t_start or hi > grid.t_end:
        raise SynthesisError(f"{what} needs time coverage [{lo:g}, {hi:g}] ps but the grid spans "
                             f"[{grid.t_start:g}, {grid.t_end:g}] ps")
    if band > grid.w_max:
        raise SynthesisError(f"{carrier}: required bandwidth {band:g} rad/ps exceeds the grid's "
                             f"{grid.w_max:g} rad/ps; reduce dt or widen the grid")


def _gaussian(t, center_time, sigma, carrier, amplitude, phase, chirp=0.0):
    """``amplitude * exp(-(1 + i*chirp)*(t-center_time)^2/(2 sigma^2) - i*carrier*t + i*phase)``;
    the real quotient is taken first, so chirp 0 gives the bits of the unchirped form."""
    return amplitude * np.exp(-((t - center_time) ** 2) / (2.0 * sigma**2) * (1.0 + 1j * chirp)
                              - 1j * carrier * t + 1j * phase)


def _pulse(grid, sigma, chirp, center_time, carrier, amplitude, phase, label=""):
    """One pulse, on a grid that holds 5 sigma and ``|carrier| + 5*sqrt(1 + chirp^2)/sigma``."""
    _check_coverage(grid, "pulse", center_time, 5 * sigma, f"carrier {carrier:g} rad/ps{label}",
                    abs(carrier) + 5.0 * math.hypot(1.0, chirp) / sigma)
    t = grid.times()
    return ComplexField(grid, _gaussian(t, center_time, sigma, carrier, amplitude, phase, chirp))


def gaussian_pulse(grid: SampleGrid, spec: PulseSpec) -> ComplexField:
    """Synthesize a single Gaussian pulse.

    Parameters
    ----------
    grid : SampleGrid
    spec : PulseSpec

    Returns
    -------
    ComplexField
        Samples ``amplitude * exp(-(t-center_time)^2/(2 sigma^2))
        * exp(-i*center_ang_freq*t + i*phase)``, unnormalized.

    Raises
    ------
    SynthesisError
        If the grid does not cover the pulse in time (5 sigma) or in
        frequency (carrier plus 5/sigma), or if the amplitude is zero
        (zero-norm field).
    """
    out = _pulse(grid, spec.sigma, 0.0, spec.center_time, spec.center_ang_freq, spec.amplitude,
                 spec.phase)
    if energy(out) <= 0.0:
        raise SynthesisError("pulse with zero amplitude yields a zero-norm field")
    return out


def chirped_gaussian(grid: SampleGrid, sigma: float, chirp: float,
                     center_time: float = 0.0, center_ang_freq: float = 0.0,
                     amplitude: float = 1.0, phase: float = 0.0) -> ComplexField:
    """Gaussian pulse with a quadratic temporal phase.

    Samples follow ``amplitude * exp(-(1 + i*chirp)*(t-t_c)^2/(2 sigma^2))
    * exp(-i*center_ang_freq*t + i*phase)``. ``chirp = 0`` reduces to
    :func:`gaussian_pulse`. Used to probe behavior outside the
    real-envelope, linear-phase regime.
    """
    check_real(dict(sigma=sigma, chirp=chirp, center_time=center_time,
                    center_ang_freq=center_ang_freq, amplitude=amplitude, phase=phase),
               sigma="positive", chirp="finite", center_time="finite",
               center_ang_freq="finite", amplitude="positive", phase="finite")
    return _pulse(grid, sigma, chirp, center_time, center_ang_freq, amplitude, phase, " (chirped)")


def compass_state(grid: SampleGrid, spec: CompassSpec) -> ComplexField:
    """Synthesize the four-pulse compass superposition, unit energy.

    The coherent sum of four Gaussian pulses at ``(+-t0, -+omega0)``
    (ordering documented on :class:`CompassSpec`), each weighted by its
    amplitude and phase, normalized to unit energy.

    Raises
    ------
    SynthesisError
        If the grid does not cover ``+-(t0 + 5 sigma)`` in time or
        ``+-(omega0 + 5/sigma)`` in frequency.
    """
    _check_coverage(grid, "compass state", 0.0, spec.t0 + 5 * spec.sigma,
                    f"carrier +-{spec.omega0:g} rad/ps", spec.omega0 + 5.0 / spec.sigma)
    t = grid.times()
    samples = np.zeros(grid.n, dtype=np.complex128)
    for a, phi, st, sf in zip(spec.amplitudes, spec.phases,
                              CompassSpec.TIME_SIGNS, CompassSpec.FREQ_SIGNS):
        if a == 0.0:
            continue
        samples += _gaussian(t, st * spec.t0, spec.sigma, sf * spec.omega0, a, phi)
    out = ComplexField(grid, samples)
    e = energy(out)
    if e <= 0.0:
        raise SynthesisError("compass amplitudes produced a zero-norm field")
    return ComplexField(grid, out.samples / math.sqrt(e))


def apply_shaper(f: ComplexField, mask: ShaperMask) -> ComplexField:
    """Apply a shaper mask to a field in the spectral domain.

    Multiplies the spectrum by the cosine transfer
    ``cos(w*mask_t0)*exp(-i*w*mask_t0)``, zeroes the blocked band
    ``|w - block_center| < block_halfwidth``, and transforms back. The
    cosine transfer realizes ``(E(t) + E(t + 2*mask_t0))/2``; energy is
    never renormalized, so the in-band fraction is preserved exactly.

    Raises
    ------
    ShapingError
        If the spectral phase ``w*mask_t0`` overflows on the grid, if
        the blocked band extends beyond the grid's frequency span, or
        if blocking removes (essentially) all field energy (output
        below 1e-12 of input energy).
    """
    g = f.grid
    w = g.ang_freqs()
    if not math.isfinite(float(mask.mask_t0) * float(-w[0])):  # Python floats: inf, no warning
        raise ShapingError(f"mask_t0 {mask.mask_t0:g} ps overflows the spectral phase w*mask_t0")
    if mask.block_halfwidth > 0:
        lo = mask.block_center - mask.block_halfwidth
        hi = mask.block_center + mask.block_halfwidth
        if lo < w[0] or hi > w[-1]:
            raise ShapingError(
                f"blocked band [{lo:g}, {hi:g}] rad/ps lies outside the grid span "
                f"[{w[0]:g}, {w[-1]:g}] rad/ps"
            )
    s = spectrum(f)
    if mask.mask_t0 != 0.0:
        s = s * (np.cos(w * mask.mask_t0) * np.exp(-1j * w * mask.mask_t0))
    if mask.block_halfwidth > 0:
        s = np.where(np.abs(w - mask.block_center) < mask.block_halfwidth, 0.0, s)
    out = field_from_spectrum(g, s)
    if energy(out) <= 1e-12 * energy(f):
        raise ShapingError("mask removed all field energy (over-blocking)")
    return out
