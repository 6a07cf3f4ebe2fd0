"""Integral transforms on fields: SHG FROG, Wigner, and overlap maps.

Each of the two quadratic transforms has two independent evaluation
routes: a fast FFT-based path (`shg_frog`, `wigner`) and a direct
summation oracle (`quadrature_oracle_frog`, `quadrature_oracle_wigner`)
that evaluates the same discrete sums without any FFT. The two routes
share only grid conventions and must agree to roundoff; tests pin the
agreement at 1e-9 relative.

Discretization notes
--------------------
All integrals are Riemann sums with step ``dt`` on the field's grid; no
windowing is applied (synthesis guarantees decay at the grid edges).
Every delay lies on the sample lattice, so shifted copies are again
exact samples: :meth:`SampleGrid.delay_axis` builds symmetric delay
axes and :meth:`SampleGrid.delay_steps` snaps a caller's delays in one
array operation. Quadratic products double the spectral support, so both
transforms require the field's spectrum to fit within half the Nyquist
range; violations raise a configuration error instead of aliasing
silently.

The Wigner map is evaluated on the twice-refined time grid (so its q
axis contains all half-integer sample points) with the correlation
variable kept on the original ``dt`` lattice, which is exact for fields
within the bandwidth limit above; the transform over the correlation
variable is zero padded by a factor 2 to suppress circular aliasing. Its
p axis therefore has step ``dw/4`` and every point ``(tau/2, omega/2)``
of the spectrogram comparison lies on Wigner grid nodes whenever
``t_start`` is on the sample lattice.

Lag-window kernel
-----------------
FROG, overlap and Wigner rows all come from one product builder: each
row is ``a[i + j] * b[i' + j]`` over a window of two zero-padded
operands, read through strided views, so the zero padding supplies the
zero fill outside the grid and no index arrays are built. FROG and
overlap rows are ``E(t) E(t - tau)`` and ``E*(t) E(t - tau)``. Wigner row
``h`` holds ``F(h - 2k) F*(h + 2k)`` on the refined samples ``F``; split
by the parity of ``h``, both factors become contiguous windows of
``F[p::2]`` (the first one reversed). Rows are transformed in blocks
sized to stay in cache, with scaling, fftshift and normalization done in
place (Claasen & Mecklenbraeuker, Philips J. Res. 35, 1980, for the
discrete lag-kernel form). The overlap map's one blocked loop serves
both routes, which its frequency shifts choose (see :func:`overlap_map`).
Every map is divided by its peak in :meth:`TimeFrequencyMap.normalized`.

Row runs
--------
One driver, :func:`_each_block`, runs the FROG, Wigner and overlap block
loops. It splits the row blocks into one contiguous run per CPU of the
process's CPU set (``os.sched_getaffinity``; limit it with ``taskset``)
and runs each run on a thread of its own, which pays because numpy
releases the GIL inside its FFT and ufunc loops. Each run owns one
complex block buffer, and the FFTs run in place in it. The blocks and
their arithmetic are those of the serial loop, and peaks and the
imaginary residue are combined with ``max``, so every map and residual
is bitwise equal whatever the number of runs. A one-block map or a
one-CPU set runs its blocks on the calling thread. Every thread is
joined before the transform returns, and an exception raised in a run
is raised again on the caller.

The correspondence check evaluates only the Wigner nodes it reads, the
q rows at ``tau/2`` and the p columns at ``omega/2``. Those are every
second p node, which is the n-point transform of the lag sequence folded
mod n. That takes half the products and a quarter of the FFT points of
the full map. Its imaginary-residue check covers these nodes, relative
to their peak.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ConfigError, DomainError, check_array, check_real
from .fieldcore import ComplexField, energy, spectral_support, spectrum, upsample2

__all__ = [
    "TimeFrequencyMap",
    "Spectrogram",
    "WignerMap",
    "OverlapMap",
    "shg_frog",
    "quadrature_oracle_frog",
    "wigner",
    "quadrature_oracle_wigner",
    "overlap_map",
    "correspondence_residual",
    "check_sampling",
    "check_axis",
]

# Imaginary residue above this fraction of the map peak means the Wigner
# evaluation went numerically wrong rather than just accumulating roundoff.
IMAG_RESIDUE_LIMIT = 1e-10

# The lag-product -> FFT -> scaling pipeline runs over row blocks of about
# this many complex cells, so a block and its transform stay in L2 cache.
BLOCK_CELLS = 1 << 16

# Maps of at least this many bytes get anonymous pages of their own (the
# size from which numpy itself asks the kernel for huge pages).
OWN_PAGES_BYTES = 1 << 22


def _map_empty(shape, dtype) -> np.ndarray:
    """Uninitialized array for a map, on Linux on pages of its own.

    From ``malloc``, maps of a few MB to 32 MiB move onto the brk heap
    once glibc's dynamic mmap threshold has risen past them, and the
    holes freed maps leave there between small allocations make a
    process's peak memory depend on the order of its earlier calls.
    Pages of its own go back to the OS when the array is freed.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < OWN_PAGES_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(shape, dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy does for its own large arrays
    return np.frombuffer(buf, dtype).reshape(shape)


def check_axis(name: str, axis, size: int = 1) -> np.ndarray:
    """``axis`` as a read-only float array (see :func:`check_array`): 1D with at
    least ``size`` entries, finite, strictly increasing and evenly spaced, over a span
    (so at steps) inside the float range."""
    axis = check_array(name, axis, shape=size, rule="strictly increasing")
    if not math.isfinite(float(axis[-1]) - float(axis[0])):
        raise ConfigError(f"{name} must span a finite range")
    d = np.diff(axis)
    if d.size and not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * abs(d[0])):
        raise ConfigError(f"{name} must be uniformly spaced")
    return axis


@dataclass(frozen=True)
class TimeFrequencyMap:
    """Map on a time-like and a frequency-like axis, both uniform and increasing.

    ``values[i, j]`` belongs to ``(time_axis[i], freq_axis[j])``; values are
    peak normalized and ``scale`` is the raw peak (``scale == 0`` marks an
    identically zero map stored raw), as :meth:`normalized` makes them.
    Each subclass sets its file ``kind`` and ``file_axes``, whether it is
    ``signed``, and its own axis names.
    """

    time_axis: np.ndarray
    freq_axis: np.ndarray
    values: np.ndarray
    scale: float

    def __post_init__(self):
        t = check_axis("time_axis", self.time_axis)
        w = check_axis("freq_axis", self.freq_axis)
        v = check_array(f"{self.kind} values", self.values, shape=(t.size, w.size),
                        rule="finite" if self.signed else "non-negative")
        check_real({"scale": self.scale}, scale=">= 0")
        object.__setattr__(self, "time_axis", t)
        object.__setattr__(self, "freq_axis", w)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "scale", float(self.scale))

    @classmethod
    def normalized(cls, time_axis, freq_axis, raw: np.ndarray, peak=None):
        """Map of ``raw`` divided in place by ``peak``, which becomes ``scale``:
        by default ``max raw``, or ``max |raw|`` for a signed type. A map with
        no positive peak is stored raw."""
        if peak is None:
            peak = max(raw.max(), -raw.min()) if cls.signed else raw.max()
        if peak > 0:
            raw /= peak
        return cls(time_axis, freq_axis, raw, peak)


class Spectrogram(TimeFrequencyMap):
    """Delay-frequency intensity map on ``(tau_axis, omega_axis)``.

    The frequency axis is relative to the SHG reference (twice the
    field's reference carrier); values are non-negative intensities.
    """

    kind = "spectrogram"
    file_axes = "delay_ps ang_freq_rad_per_ps"
    signed = False
    tau_axis = property(lambda self: self.time_axis)
    omega_axis = property(lambda self: self.freq_axis)


class WignerMap(TimeFrequencyMap):
    """Signed phase-space map on ``(q_axis, p_axis)``, scaled by the raw ``max |W|``."""

    kind = "wigner"
    file_axes = "time_ps ang_freq_rad_per_ps"
    signed = True
    q_axis = property(lambda self: self.time_axis)
    p_axis = property(lambda self: self.freq_axis)


@dataclass(frozen=True)
class OverlapMap:
    """Complex overlap of a field with its shifted copy, energy normalized."""

    dt_axis: np.ndarray
    dnu_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dts = check_array("dt_axis", self.dt_axis, shape=1, rule="strictly increasing")
        dnus = check_array("dnu_axis", self.dnu_axis, shape=1, rule="strictly increasing")
        v = check_array("overlap values", self.values, complex, (dts.size, dnus.size))
        object.__setattr__(self, "dt_axis", dts)
        object.__setattr__(self, "dnu_axis", dnus)
        object.__setattr__(self, "values", v)


def check_sampling(field: ComplexField, what: str = "transform"):
    """Check that a field can feed the quadratic transforms.

    Raises :class:`ConfigError` naming ``what`` when the field's spectrum
    reaches past half the Nyquist range, where its products would alias.
    Delays are not its concern: :meth:`SampleGrid.delay_steps` snaps them.
    """
    g = field.grid
    limit = math.pi / (2.0 * g.dt)
    support = spectral_support(field)
    if support > limit:
        raise ConfigError(
            f"{what}: field spectrum extends to {support:g} rad/ps, beyond half the "
            f"Nyquist range ({limit:g} rad/ps); quadratic products would alias. "
            "Reduce dt."
        )


def _windows(v: np.ndarray, width: int, starts: np.ndarray) -> np.ndarray:
    """Rows ``v[starts[i] : starts[i] + width]`` of a 1D array.

    A strided view when the starts step uniformly (every lattice of rows
    and delays the transforms build), a gathered copy otherwise.
    """
    win = np.lib.stride_tricks.sliding_window_view(v, width)
    m = starts.size
    step = int(starts[1] - starts[0]) if m > 1 else 1
    if not np.array_equal(starts, starts[0] + step * np.arange(m)):
        return win[starts]
    if step == 0:
        return np.broadcast_to(win[starts[0]], (m, width))
    return win[starts[0] :: step][:m]


def _lag_products(a: np.ndarray, b: np.ndarray, a_starts, b_starts, width: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Lag-window products ``a[a_starts[i] + j] * b[b_starts[i] + j]``, j < width.

    The one product builder behind FROG, overlap and Wigner rows; zero
    padding of the operands supplies the zero fill outside the grid.
    """
    return np.multiply(_windows(a, width, np.asarray(a_starts)),
                       _windows(b, width, np.asarray(b_starts)), out=out)


def _zero_pad(v: np.ndarray, m: int) -> np.ndarray:
    """``v`` with ``m`` zeros on each side."""
    out = np.zeros(v.size + 2 * m, dtype=np.complex128)
    out[m : m + v.size] = v
    return out


def _shifted_products(a: np.ndarray, E: np.ndarray, steps,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``a(t) * E(t - s*dt)`` with zero fill outside the grid."""
    n = E.size
    return _lag_products(a, _zero_pad(E, n - 1), np.zeros_like(steps), n - 1 - steps, n,
                         out=out)


def row_blocks(nrows: int, width: int):
    """``(lo, hi)`` row ranges of about ``BLOCK_CELLS`` cells each, largest first."""
    step = max(1, BLOCK_CELLS // width)
    return [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]


def _cpus() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_block(nrows: int, width: int, body) -> list:
    """``body(lo, hi, buf)`` over the row blocks of an ``nrows x width`` map.

    The blocks of :func:`row_blocks` are split into one contiguous run
    per usable CPU (at most one per block); each run owns a complex
    ``buf`` of its largest block, sliced to ``hi - lo`` rows. Run 0 goes
    on the calling thread, the others on threads of their own, all joined
    before this returns; an exception raised in a run is raised again
    here. Returns the body's results in block order.
    """
    blocks = row_blocks(nrows, width)
    k = min(_cpus(), len(blocks))
    runs = [blocks[i * len(blocks) // k : (i + 1) * len(blocks) // k] for i in range(k)]
    results = [None] * k

    def run(i):
        try:
            buf = np.empty((runs[i][0][1] - runs[i][0][0], width), dtype=np.complex128)
            results[i] = [body(lo, hi, buf[: hi - lo]) for lo, hi in runs[i]]
        except Exception as exc:  # raised again on the calling thread
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    for r in results:
        if isinstance(r, Exception):
            raise r
    return [x for r in results for x in r]


def _shift_pairs(m: int):
    """``(source, destination)`` column slices of an fftshift of even length m."""
    h = m // 2
    return ((slice(h, None), slice(None, h)), (slice(None, h), slice(h, None)))


def shg_frog(field: ComplexField, tau_axis) -> Spectrogram:
    """SHG FROG spectrogram via product-then-FFT.

    For each delay tau computes ``|sum_t E(t) E(t-tau) exp(i w t) dt|^2``
    on the grid's conjugate frequency axis (relative to the SHG
    reference).

    Parameters
    ----------
    field : ComplexField
    tau_axis : array_like
        Delays in ps; each must lie on the sample lattice and within the
        grid span, and the snapped set must be strictly increasing and
        uniform.
    """
    tau_axis = check_array("tau_axis", tau_axis, shape=1)
    check_sampling(field, "shg_frog")
    g = field.grid
    steps = g.delay_steps(tau_axis)
    n = g.n
    E = field.samples
    vals = _map_empty((steps.size, n), np.float64)

    def block(lo, hi, buf):
        rows = np.fft.ifft(_shifted_products(E, E, steps[lo:hi], out=buf), axis=1, out=buf)
        rows *= n
        for src, dst in _shift_pairs(n):
            v = vals[lo:hi, dst]
            np.square(rows.real[:, src], out=v)
            v += np.square(rows.imag[:, src])
        vals[lo:hi] *= g.dt * g.dt
        return float(vals[lo:hi].max())

    peak = max(0.0, *_each_block(steps.size, n, block))
    return Spectrogram.normalized(steps * g.dt, g.ang_freqs(), vals, peak)


def quadrature_oracle_frog(field: ComplexField, tau_axis, omega_axis) -> Spectrogram:
    """SHG FROG by direct Riemann summation (no FFT anywhere).

    Independent oracle for :func:`shg_frog`: same discrete definition,
    evaluated as explicit sums over the time samples for an arbitrary
    uniform ``omega_axis``. O(N^2) per delay; intended for modest grids.
    """
    tau_axis = check_array("tau_axis", tau_axis, shape=1)
    check_sampling(field, "quadrature_oracle_frog")
    g = field.grid
    steps = g.delay_steps(tau_axis)
    w = check_axis("omega_axis", omega_axis)
    P = _shifted_products(field.samples, field.samples, steps)
    kernel = np.exp(1j * np.outer(g.times(), w))
    amps = g.dt * (P @ kernel)
    return Spectrogram.normalized(steps * g.dt, w, amps.real**2 + amps.imag**2)


def _wigner_axes(field: ComplexField):
    g = field.grid
    n = g.n
    M = 2 * n
    dp = math.pi / (M * g.dt)  # = dw/4
    q_axis = g.t_start + (g.dt / 2.0) * np.arange(2 * n)
    p_axis = (np.arange(M) - M // 2) * dp
    return q_axis, p_axis


def _parity_operands(F2: np.ndarray) -> list:
    """Zero-padded operands of the Wigner lag products, one pair per parity.

    Row ``h = 2a + p`` of the lag matrix holds ``F2[h-2k] * conj(F2[h+2k])
    = G[a-k] * conj(G[a+k])`` with ``G = F2[p::2]``; reading ``G[a-k]``
    from the reversed copy makes both factors contiguous windows.
    """
    n = F2.size // 2
    pairs = []
    for p in (0, 1):
        G = _zero_pad(F2[p::2], n - 1)
        pairs.append((G[::-1].copy(), np.conj(G)))
    return pairs


def _wigner_lags(pairs, lo: int, hi: int, out: np.ndarray):
    """Lag products of refined rows ``lo <= h < hi`` into ``out[: hi - lo]``.

    With 2n columns the slot of lag k is ``k mod 2n`` (slot n is
    zeroed); with n columns the lags are folded mod n, which feeds the
    n-point transform of the even p nodes only.
    """
    n = (pairs[0][0].size + 2) // 3  # operands hold n samples and 2n - 2 zeros
    for p, (R, Gc) in enumerate(pairs):
        first = lo + (lo + p) % 2
        a = np.arange(first, hi, 2) // 2
        if a.size == 0:
            continue
        rows = out[first - lo : hi - lo : 2]
        _lag_products(R, Gc, 2 * n - 2 - a, a + n - 1, n, out=rows[:, :n])  # k >= 0
        if out.shape[1] == n:
            rows[:, 1:] += _lag_products(R, Gc, n - 1 - a, a, n - 1)  # k < 0, folded
        else:
            rows[:, n] = 0
            _lag_products(R, Gc, n - 1 - a, a, n - 1, out=rows[:, n + 1 :])


def _wigner_rows(pairs, lo: int, out: np.ndarray, dt: float) -> float:
    """Fill ``out`` with raw Wigner rows ``lo <= h < lo + len(out)``, p fftshifted.

    ``out`` holds all 2n p columns, or n for the even p nodes only.
    Checks the imaginary residue over the rows computed and returns
    their peak ``max |W|``.
    """
    nrows, width = out.shape

    def block(a, b, buf):
        _wigner_lags(pairs, lo + a, lo + b, buf)
        S = np.fft.ifft(buf, axis=1, out=buf)
        S *= width
        S *= dt / math.pi
        for src, dst in _shift_pairs(width):
            out[a:b, dst] = S.real[:, src]
        # max |x| as max(max x, -min x), so no temporary is made
        return (max(float(S.imag.max()), -float(S.imag.min())),
                max(float(out[a:b].max()), -float(out[a:b].min())))

    imags, peaks = zip(*_each_block(nrows, width, block))
    max_imag, peak = max(0.0, *imags), max(0.0, *peaks)
    if peak > 0 and max_imag > IMAG_RESIDUE_LIMIT * peak:
        raise ComputeError(
            f"Wigner imaginary residue {max_imag:g} exceeds {IMAG_RESIDUE_LIMIT:g} of peak {peak:g}"
        )
    return peak


def wigner(field: ComplexField) -> WignerMap:
    """Wigner distribution ``(1/pi) sum_xi exp(2 i xi p) F(q-xi) F*(q+xi) dxi``.

    Evaluated on the twice-refined q grid with the correlation variable
    on the original ``dt`` lattice (see module notes); real part
    returned after checking the imaginary residue stays below 1e-10 of
    the map peak.
    """
    check_sampling(field, what="wigner")
    g = field.grid
    n = g.n
    M = 2 * n
    pairs = _parity_operands(upsample2(field).samples)
    q_axis, p_axis = _wigner_axes(field)
    W = _map_empty((M, M), np.float64)
    return WignerMap.normalized(q_axis, p_axis, W, _wigner_rows(pairs, 0, W, g.dt))


def quadrature_oracle_wigner(field: ComplexField) -> WignerMap:
    """Wigner distribution by direct summation (no FFT anywhere).

    Independent oracle for :func:`wigner`: the refined samples are
    obtained by explicit forward/inverse transform sums and the phase
    kernel is applied as a dense matrix product. O(N^3); intended for
    modest grids.
    """
    check_sampling(field, what="quadrature_oracle_wigner")
    g = field.grid
    n = g.n
    n2 = 2 * n
    t = g.times()
    w = g.ang_freqs()
    # refined samples via explicit transform sums
    S = g.dt * (field.samples @ np.exp(1j * np.outer(t, w)))
    t2 = g.t_start + (g.dt / 2.0) * np.arange(n2)
    F2 = (g.dw / (2.0 * math.pi)) * (np.exp(-1j * np.outer(t2, w)) @ S)
    q_axis, p_axis = _wigner_axes(field)
    ks = np.arange(-(n - 1), n)
    h = np.arange(n2)[:, None]
    i_minus = h - 2 * ks[None, :]
    i_plus = h + 2 * ks[None, :]
    valid = (i_minus >= 0) & (i_minus < n2) & (i_plus >= 0) & (i_plus < n2)
    C = np.where(
        valid,
        F2[np.clip(i_minus, 0, n2 - 1)] * np.conj(F2[np.clip(i_plus, 0, n2 - 1)]),
        0.0,
    )
    kernel = np.exp(2j * np.outer(ks * g.dt, p_axis))
    Wc = (g.dt / math.pi) * (C @ kernel)
    peak = float(np.max(np.abs(Wc.real)))
    if peak > 0 and float(np.max(np.abs(Wc.imag))) > IMAG_RESIDUE_LIMIT * peak:
        raise ComputeError("Wigner oracle imaginary residue exceeds tolerance")
    return WignerMap.normalized(q_axis, p_axis, Wc.real, peak)


def overlap_map(field: ComplexField, dt_axis, dnu_axis) -> OverlapMap:
    """Overlap of a field with its time- and frequency-shifted copy.

    ``value(dt, dnu) = sum_t E*(t) E(t - dt) exp(i dnu t) dt`` divided by
    the field energy, so a normalized state overlaps itself with value 1
    at the origin; both axes come back sorted. One blocked loop serves
    both routes, chosen by ``dnu_axis``: each block is transformed by FFT
    when the shifts lie on the conjugate grid and multiplied by the phase
    kernel otherwise; the two are exactly equivalent sums.
    """
    g = field.grid
    e0 = energy(field)
    if e0 <= 0:
        raise ComputeError("zero-norm field has no normalized overlap")
    dts = check_array("dt_axis", dt_axis, shape=1)
    dnus = check_array("dnu_axis", dnu_axis, shape=1)
    nyq = math.pi / g.dt
    if np.any(np.abs(dnus) > nyq):
        raise DomainError(
            f"frequency shift beyond the representable +-{nyq:g} rad/ps"
        )
    steps = g.delay_steps(dts)  # in the caller's order, so the first bad delay is named
    order_t = np.argsort(dts)
    dts, steps, dnus = dts[order_t], steps[order_t], np.sort(dnus)
    E = field.samples
    Ec = np.conj(E)
    n = g.n
    w = g.ang_freqs()
    j = np.rint((dnus - w[0]) / g.dw).astype(int)
    aligned = (
        np.all(np.abs(dnus - (w[0] + j * g.dw)) <= 1e-9 * g.dw)
        and np.all((j >= 0) & (j < n))
    )
    if aligned:  # the FFT column of each shift, and its phase
        cols, phase = (j + n // 2) % n, (g.dt * np.exp(1j * w * g.t_start))[j]
    else:
        kernel = np.exp(1j * np.outer(g.times(), dnus))
    vals = _map_empty((steps.size, dnus.size), np.complex128)

    def block(lo, hi, buf):
        rows = _shifted_products(Ec, E, steps[lo:hi], out=buf)
        if aligned:
            np.fft.ifft(rows, axis=1, out=rows)
            rows *= n
            np.multiply(np.take(rows, cols, axis=1), phase, out=vals[lo:hi])
        else:
            np.matmul(rows, kernel, out=vals[lo:hi])
            vals[lo:hi] *= g.dt
        vals[lo:hi] /= e0

    _each_block(steps.size, n, block)
    return OverlapMap(dts, dnus, vals)


def _half_coordinate_pattern(field: ComplexField, taus: np.ndarray) -> np.ndarray:
    """|W(tau/2, omega/2)|^2, unnormalized, on the spectrogram's (tau, omega) grid.

    Only the Wigner nodes the pattern reads are evaluated: the q rows at
    tau/2 (plus the next row where t_start is off the sample lattice and
    tau/2 falls between rows) and the even p columns, where omega/2
    lies. Those columns are the n-point transform of the lag rows folded
    mod n. The imaginary residue is checked over these nodes, relative
    to their peak.
    """
    g = field.grid
    n = g.n
    hf = taus / g.dt - 2.0 * g.t_start / g.dt
    h0 = np.floor(hf).astype(int)
    frac = hf - h0
    exact = np.abs(frac) < 1e-9
    h0 = np.clip(h0, 0, 2 * n - 1)
    h1 = np.clip(h0 + 1, 0, 2 * n - 1)
    lo = int(h0.min())
    hi = int(max(h0.max(), h1[~exact].max(initial=0))) + 1
    pairs = _parity_operands(upsample2(field).samples)
    sub = _map_empty((hi - lo, n), np.float64)
    _wigner_rows(pairs, lo, sub, g.dt)
    idx = h0 - lo
    rows = sub if np.array_equal(idx, np.arange(sub.shape[0])) else sub[idx]
    blend = ~exact
    if np.any(blend):
        f = frac[blend, None]
        rows[blend] = (1.0 - f) * rows[blend] + f * sub[h1[blend] - lo]
    return np.square(rows, out=rows)


def correspondence_residual(field: ComplexField) -> float:
    """Max deviation between the normalized FROG map and |W(tau/2, omega/2)|^2.

    Both patterns are peak normalized before comparison; the result is
    small precisely when the spectrogram is a rescaled squared Wigner
    distribution for the given field.
    """
    _, _, residual = correspondence_maps(field)
    return residual


def correspondence_maps(field: ComplexField):
    """Both peak-normalized patterns of the correspondence check, plus residual.

    Returns ``(frog, wigner_pattern, residual)`` where both maps share
    the same (tau, omega) axes, for looking at where the two patterns
    differ; :func:`correspondence_residual` returns the residual alone.
    """
    g = field.grid
    frog = shg_frog(field, g.delay_axis((g.n // 2 - 1) * g.dt))
    pattern = Spectrogram.normalized(frog.tau_axis, frog.omega_axis,
                                     _half_coordinate_pattern(field, frog.tau_axis))
    residual = max(  # by row blocks, so no map-sized difference is built
        float(np.max(np.abs(frog.values[lo:hi] - pattern.values[lo:hi])))
        for lo, hi in row_blocks(*pattern.values.shape)
    )
    return frog, pattern, residual
