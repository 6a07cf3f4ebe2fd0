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
Delays are snapped to the sample lattice so shifted copies are again
exact samples. Quadratic products double the spectral support, so both
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
discrete lag-kernel form).

The correspondence check evaluates only the Wigner nodes it reads, the
q rows at ``tau/2`` and the p columns at ``omega/2``. Those are every
second p node, which is the n-point transform of the lag sequence folded
mod n. That takes half the products and a quarter of the FFT points of
the full map. Its imaginary-residue check covers these nodes, relative
to their peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputeError, ConfigError, DomainError
from .fieldcore import ComplexField, energy, spectral_support, spectrum, upsample2

__all__ = [
    "Spectrogram",
    "WignerMap",
    "OverlapMap",
    "shg_frog",
    "quadrature_oracle_frog",
    "wigner",
    "quadrature_oracle_wigner",
    "overlap_map",
    "correspondence_residual",
]

# Imaginary residue above this fraction of the map peak means the Wigner
# evaluation went numerically wrong rather than just accumulating roundoff.
IMAG_RESIDUE_LIMIT = 1e-10

# The lag-product -> FFT -> scaling pipeline runs over row blocks of about
# this many complex cells, so a block and its transform stay in L2 cache.
BLOCK_CELLS = 1 << 16


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _check_axis(name: str, axis: np.ndarray):
    if axis.ndim != 1 or axis.size == 0:
        raise ConfigError(f"{name} must be a nonempty 1D array")
    if not np.all(np.isfinite(axis)):
        raise ConfigError(f"{name} must be finite")
    d = np.diff(axis)
    if axis.size > 1:
        if not np.all(d > 0):
            raise ConfigError(f"{name} must be strictly increasing")
        step = d[0]
        if not np.allclose(d, step, rtol=1e-9, atol=1e-12 * abs(step)):
            raise ConfigError(f"{name} must be uniformly spaced")


@dataclass(frozen=True)
class Spectrogram:
    """Delay-frequency intensity map.

    ``values[i, j]`` is the intensity at ``(tau_axis[i], omega_axis[j])``
    with the frequency axis relative to the SHG reference (twice the
    field's reference carrier). Values are peak normalized; ``scale``
    is the raw peak so ``values * scale`` restores raw intensities
    (``scale == 0`` marks an identically zero map stored raw).
    """

    tau_axis: np.ndarray
    omega_axis: np.ndarray
    values: np.ndarray
    scale: float

    def __post_init__(self):
        tau = np.asarray(self.tau_axis, dtype=np.float64)
        om = np.asarray(self.omega_axis, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        _check_axis("tau_axis", tau)
        _check_axis("omega_axis", om)
        if v.shape != (tau.size, om.size):
            raise ConfigError(
                f"values shape {v.shape} does not match axes ({tau.size}, {om.size})"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("spectrogram values must be finite")
        if np.any(v < 0):
            raise ConfigError("spectrogram values must be non-negative")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ConfigError(f"scale must be >= 0, got {self.scale!r}")
        object.__setattr__(self, "tau_axis", _freeze(tau))
        object.__setattr__(self, "omega_axis", _freeze(om))
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class WignerMap:
    """Signed phase-space map on (q, p) axes.

    Values are peak normalized by the raw ``max |W|`` stored in
    ``scale`` (``scale == 0`` marks an identically zero map stored raw).
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    scale: float

    def __post_init__(self):
        q = np.asarray(self.q_axis, dtype=np.float64)
        p = np.asarray(self.p_axis, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        _check_axis("q_axis", q)
        _check_axis("p_axis", p)
        if v.shape != (q.size, p.size):
            raise ConfigError(
                f"values shape {v.shape} does not match axes ({q.size}, {p.size})"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("Wigner values must be finite")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ConfigError(f"scale must be >= 0, got {self.scale!r}")
        object.__setattr__(self, "q_axis", _freeze(q))
        object.__setattr__(self, "p_axis", _freeze(p))
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class OverlapMap:
    """Complex overlap of a field with its shifted copy, energy normalized."""

    dt_axis: np.ndarray
    dnu_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        dts = np.asarray(self.dt_axis, dtype=np.float64)
        dnus = np.asarray(self.dnu_axis, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.complex128)
        for name, axis in (("dt_axis", dts), ("dnu_axis", dnus)):
            if axis.ndim != 1 or axis.size == 0 or not np.all(np.isfinite(axis)):
                raise ConfigError(f"{name} must be a nonempty finite 1D array")
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ConfigError(f"{name} must be strictly increasing")
        if v.shape != (dts.size, dnus.size):
            raise ConfigError(
                f"values shape {v.shape} does not match axes ({dts.size}, {dnus.size})"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("overlap values must be finite")
        object.__setattr__(self, "dt_axis", _freeze(dts))
        object.__setattr__(self, "dnu_axis", _freeze(dnus))
        object.__setattr__(self, "values", _freeze(v))


def _check_half_nyquist(field: ComplexField, what: str):
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
    steps = np.asarray(steps, dtype=np.intp)
    return _lag_products(a, _zero_pad(E, n - 1), np.zeros_like(steps), n - 1 - steps, n,
                         out=out)


def _row_blocks(nrows: int, width: int):
    """``(lo, hi)`` row ranges of about ``BLOCK_CELLS`` cells each, largest first."""
    step = max(1, BLOCK_CELLS // width)
    return [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]


def _shift_pairs(m: int):
    """``(source, destination)`` column slices of an fftshift of even length m."""
    h = m // 2
    return ((slice(h, None), slice(None, h)), (slice(None, h), slice(h, None)))


def _snap_taus(field: ComplexField, tau_axis) -> tuple[np.ndarray, list]:
    taus = np.atleast_1d(np.asarray(tau_axis, dtype=np.float64))
    if taus.ndim != 1 or taus.size == 0:
        raise ConfigError("tau_axis must be a nonempty 1D array")
    steps = [field.grid.delay_steps(tau) for tau in taus]
    return np.array([s * field.grid.dt for s in steps]), steps


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
    _check_half_nyquist(field, "shg_frog")
    taus, steps = _snap_taus(field, tau_axis)
    g = field.grid
    n = g.n
    E = field.samples
    blocks = _row_blocks(len(steps), n)
    buf = np.empty((blocks[0][1], n), dtype=np.complex128)
    vals = np.empty((len(steps), n), dtype=np.float64)
    peak = 0.0
    for lo, hi in blocks:
        rows = np.fft.ifft(_shifted_products(E, E, steps[lo:hi], out=buf[: hi - lo]), axis=1)
        rows *= n
        for src, dst in _shift_pairs(n):
            v = vals[lo:hi, dst]
            np.square(rows.real[:, src], out=v)
            v += np.square(rows.imag[:, src])
        vals[lo:hi] *= g.dt * g.dt
        peak = max(peak, float(vals[lo:hi].max()))
    if peak > 0:
        vals /= peak
    return Spectrogram(taus, g.ang_freqs(), vals, peak)


def quadrature_oracle_frog(field: ComplexField, tau_axis, omega_axis) -> Spectrogram:
    """SHG FROG by direct Riemann summation (no FFT anywhere).

    Independent oracle for :func:`shg_frog`: same discrete definition,
    evaluated as explicit sums over the time samples for an arbitrary
    uniform ``omega_axis``. O(N^2) per delay; intended for modest grids.
    """
    _check_half_nyquist(field, "quadrature_oracle_frog")
    taus, steps = _snap_taus(field, tau_axis)
    g = field.grid
    w = np.atleast_1d(np.asarray(omega_axis, dtype=np.float64))
    _check_axis("omega_axis", w)
    P = _shifted_products(field.samples, field.samples, steps)
    kernel = np.exp(1j * np.outer(g.times(), w))
    amps = g.dt * (P @ kernel)
    vals = amps.real**2 + amps.imag**2
    peak = float(vals.max())
    if peak > 0:
        vals = vals / peak
    return Spectrogram(taus, w, vals, peak)


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

    With 2n columns the slot of lag k is ``k mod 2n`` (slot n stays
    zero); with n columns the lags are folded mod n, which feeds the
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
            _lag_products(R, Gc, n - 1 - a, a, n - 1, out=rows[:, n + 1 :])


def _wigner_rows(pairs, lo: int, out: np.ndarray, dt: float) -> float:
    """Fill ``out`` with raw Wigner rows ``lo <= h < lo + len(out)``, p fftshifted.

    ``out`` holds all 2n p columns, or n for the even p nodes only.
    Checks the imaginary residue over the rows computed and returns
    their peak ``max |W|``.
    """
    nrows, width = out.shape
    blocks = _row_blocks(nrows, width)
    buf = np.zeros((blocks[0][1], width), dtype=np.complex128)  # slot n stays zero
    max_imag = peak = 0.0
    for a, b in blocks:
        _wigner_lags(pairs, lo + a, lo + b, buf)
        S = np.fft.ifft(buf[: b - a], axis=1)
        S *= width
        S *= dt / math.pi
        for src, dst in _shift_pairs(width):
            out[a:b, dst] = S.real[:, src]
        max_imag = max(max_imag, float(np.max(np.abs(S.imag))))
        peak = max(peak, float(np.max(np.abs(out[a:b]))))
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
    _check_half_nyquist(field, "wigner")
    g = field.grid
    n = g.n
    M = 2 * n
    pairs = _parity_operands(upsample2(field).samples)
    q_axis, p_axis = _wigner_axes(field)
    W = np.empty((M, M), dtype=np.float64)
    peak = _wigner_rows(pairs, 0, W, g.dt)
    if peak > 0:
        W /= peak
    return WignerMap(q_axis, p_axis, W, peak)


def quadrature_oracle_wigner(field: ComplexField) -> WignerMap:
    """Wigner distribution by direct summation (no FFT anywhere).

    Independent oracle for :func:`wigner`: the refined samples are
    obtained by explicit forward/inverse transform sums and the phase
    kernel is applied as a dense matrix product. O(N^3); intended for
    modest grids.
    """
    _check_half_nyquist(field, "quadrature_oracle_wigner")
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
    W = Wc.real
    if peak > 0:
        W = W / peak
    return WignerMap(q_axis, p_axis, W, peak)


def overlap_map(field: ComplexField, dt_axis, dnu_axis, _method: str = "auto") -> OverlapMap:
    """Overlap of a field with its time- and frequency-shifted copy.

    ``value(dt, dnu) = sum_t E*(t) E(t - dt) exp(i dnu t) dt`` divided by
    the field energy, so a normalized state overlaps itself with value 1
    at the origin. Frequency rows are computed by FFT when ``dnu_axis``
    lies on the conjugate grid, by direct summation otherwise; the two
    routes are exactly equivalent sums.
    """
    g = field.grid
    e0 = energy(field)
    if e0 <= 0:
        raise ComputeError("zero-norm field has no normalized overlap")
    dts = np.atleast_1d(np.asarray(dt_axis, dtype=np.float64))
    dnus = np.atleast_1d(np.asarray(dnu_axis, dtype=np.float64))
    if dts.ndim != 1 or dts.size == 0 or dnus.ndim != 1 or dnus.size == 0:
        raise ConfigError("shift axes must be nonempty 1D arrays")
    nyq = math.pi / g.dt
    if np.any(np.abs(dnus) > nyq):
        raise DomainError(
            f"frequency shift beyond the representable +-{nyq:g} rad/ps"
        )
    steps = np.array([g.delay_steps(x) for x in dts])
    E = field.samples
    Ec = np.conj(E)
    n = g.n
    w = g.ang_freqs()
    j = np.rint((dnus - w[0]) / g.dw).astype(int)
    aligned = (
        np.all(np.abs(dnus - (w[0] + j * g.dw)) <= 1e-9 * g.dw)
        and np.all((j >= 0) & (j < n))
    )
    if _method == "fft" and not aligned:
        raise ConfigError("FFT overlap path needs dnu_axis on the conjugate grid")
    if aligned and _method != "direct":
        phase = g.dt * np.exp(1j * w * g.t_start)
        blocks = _row_blocks(steps.size, n)
        buf = np.empty((blocks[0][1], n), dtype=np.complex128)
        vals = np.empty((steps.size, n), dtype=np.complex128)
        for lo, hi in blocks:
            rows = np.fft.ifft(_shifted_products(Ec, E, steps[lo:hi], out=buf[: hi - lo]), axis=1)
            rows *= n
            for src, dst in _shift_pairs(n):
                np.multiply(rows[:, src], phase[dst], out=vals[lo:hi, dst])
            vals[lo:hi] /= e0
        if not np.array_equal(j, np.arange(n)):
            vals = vals[:, j]
    else:
        kernel = np.exp(1j * np.outer(g.times(), dnus))
        vals = g.dt * (_shifted_products(Ec, E, steps) @ kernel)
        vals /= e0
    order_t = np.argsort(dts)
    order_nu = np.argsort(dnus)
    if np.any(np.diff(dts) <= 0) or np.any(np.diff(dnus) <= 0):
        vals = vals[np.ix_(order_t, order_nu)]
    return OverlapMap(dts[order_t], dnus[order_nu], vals)


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
    sub = np.empty((hi - lo, n), dtype=np.float64)
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
    the same (tau, omega) axes. Plumbing for the CLI; the scalar
    entry point is :func:`correspondence_residual`.
    """
    g = field.grid
    K = g.n // 2 - 1
    taus = g.dt * np.arange(-K, K + 1)
    frog = shg_frog(field, taus)
    pattern = _half_coordinate_pattern(field, frog.tau_axis)
    peak = float(pattern.max())
    if peak > 0:
        pattern /= peak
    diff = frog.values - pattern
    residual = float(np.max(np.abs(diff, out=diff)))
    wmap = Spectrogram(frog.tau_axis, frog.omega_axis, pattern, peak)
    return frog, wmap, residual
