"""Measurements on time-frequency maps.

Cross-section extraction, zero finding on signed and intensity data,
central-chessboard cell areas with a sub-Fourier verdict against the
uncertainty-relation unit 0.5, pulse-separation sweeps, and map
similarity scoring.
"""

import dataclasses
import math

import numpy as np

from .errors import (
    ComputeError,
    ConfigError,
    DataError,
    DomainError,
    InsufficientStructureError,
    check_array,
    check_real,
)
from .fieldcore import CompassSpec, SampleGrid, compass_state
from .transforms import (TimeFrequencyMap, WignerMap, check_axis, row_blocks, row_fraction,
                         shg_frog)

SUB_FOURIER_LIMIT = 0.5

# Fraction of the global peak a lobe must reach to count as a satellite
# when deriving the default central window.
SATELLITE_FLOOR = 0.05

# Zeros of sampled interference patterns fall between grid nodes, so the
# sampled minimum bottoms out near (fringe rate x half step)^2 of the
# flanking maxima; the default accepts those minima with margin while
# still rejecting percent-level noise wiggles.
DEFAULT_NOISE_FLOOR = 0.05

# Sign changes whose neighborhood amplitude stays below this fraction of
# the slice peak are roundoff chatter, not interference fringes.
SIGN_CHATTER_FLOOR = 1e-9


@dataclasses.dataclass(frozen=True)
class Window:
    """Axis-aligned central region of a map.

    For spectrograms the fields are delay (ps) and angular frequency
    (rad/ps); for Wigner maps the same fields are read as the time-like
    and frequency-like phase-space coordinates.
    """

    tau_center: float
    tau_halfwidth: float
    omega_center: float
    omega_halfwidth: float

    def __post_init__(self):
        check_real(vars(self), tau_center="finite", tau_halfwidth="positive",
                   omega_center="finite", omega_halfwidth="positive")


@dataclasses.dataclass(frozen=True)
class CrossSection:
    """One-dimensional slice of a map.

    ``kind`` is ``"intensity"`` for spectrogram slices (non-negative)
    and ``"signed"`` for Wigner slices. ``fixed_coordinate`` records the
    held axis by name together with the held value.
    """

    axis: np.ndarray
    values: np.ndarray
    kind: str
    fixed_coordinate: tuple

    def __post_init__(self):
        ax = check_axis("cross-section axis", self.axis, 2)
        # values may hold NaN or inf: find_zeros rejects them as data
        vals = check_array("cross-section values", self.values, shape=ax.shape, rule=None)
        if self.kind not in ("intensity", "signed"):
            raise ConfigError(f"unknown cross-section kind {self.kind!r}")
        if self.kind == "intensity" and np.any(vals[np.isfinite(vals)] < 0):
            raise ConfigError("intensity cross-section values must be non-negative")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "values", vals)


@dataclasses.dataclass(frozen=True)
class ZeroSet:
    """Ordered zero positions of a cross-section and the method used."""

    positions: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "positions", check_array(
            "zero positions", self.positions, shape=0, rule="strictly increasing"))


@dataclasses.dataclass(frozen=True)
class CellAreaReport:
    """Central-chessboard cell statistics.

    Spacing lists hold the interior zero spacings actually used to form
    cells (edge cells excluded); ``cell_areas`` holds every product of
    an interior delay spacing with an interior frequency spacing. When
    only one axis carries interference the other lists are empty and
    ``mean_area`` and ``sub_fourier`` are ``None``.
    """

    tau_spacings: np.ndarray
    omega_spacings: np.ndarray
    cell_areas: np.ndarray
    mean_area: float | None
    sub_fourier: bool | None
    window: Window

    def __post_init__(self):
        for name in ("tau_spacings", "omega_spacings", "cell_areas"):
            object.__setattr__(self, name, check_array(name, getattr(self, name), shape=0))
        if self.mean_area is not None:
            check_real({"mean_area": self.mean_area}, mean_area="positive")


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One pulse-separation sweep result; errors are recorded per point."""

    t0: float
    mean_area: float | None
    sub_fourier: bool | None
    status: str
    message: str = ""


def check_noise_floor(noise_floor: float):
    """Raise :class:`ConfigError` unless ``noise_floor`` is a real number in [0, 1)."""
    check_real({"noise_floor": noise_floor}, noise_floor="in [0, 1)")


def cross_section(m, axis_choice: str, fixed_value: float) -> CrossSection:
    """Slice a map along one axis with the other held fixed.

    Parameters
    ----------
    m : Spectrogram or WignerMap
    axis_choice : str
        ``"delay"`` slices along the time-like axis holding the
        frequency-like coordinate at ``fixed_value``; ``"frequency"``
        the converse.
    fixed_value : float
        Held coordinate. Values between grid lines interpolate linearly
        between the two nearest lines; one within 1e-9 of a step of a line
        (``transforms.row_fraction``) extracts that row or column exactly.
    """
    if not isinstance(m, TimeFrequencyMap):
        raise ConfigError(f"cannot take cross-sections of {type(m).__name__}")
    if axis_choice == "delay":  # lines: the map's columns, one per held frequency
        run_axis, held_axis, held_name, lines = m.time_axis, m.freq_axis, "frequency", m.values.T
    elif axis_choice == "frequency":
        run_axis, held_axis, held_name, lines = m.freq_axis, m.time_axis, "delay", m.values
    else:
        raise ConfigError(
            f"axis_choice must be 'delay' or 'frequency', got {axis_choice!r}"
        )
    check_real({"fixed_value": fixed_value}, fixed_value="finite")
    v = float(fixed_value)
    if v < held_axis[0] or v > held_axis[-1]:
        raise DomainError(
            f"fixed {held_name} {v:g} outside the map range "
            f"[{held_axis[0]:g}, {held_axis[-1]:g}]"
        )
    # a held axis of one line holds the only value in range: that line is returned
    pos = (v - held_axis[0]) / (held_axis[1] - held_axis[0]) if held_axis.size > 1 else 0.0
    j, frac = row_fraction(min(pos, held_axis.size - 1))
    values = lines[j] if frac == 0 else (1 - frac) * lines[j] + frac * lines[j + 1]
    return CrossSection(run_axis, values, "signed" if m.signed else "intensity", (held_name, v))


def find_zeros(section: CrossSection, noise_floor: float = DEFAULT_NOISE_FLOOR) -> ZeroSet:
    """Locate zeros of a cross-section.

    Signed data yields sign-change positions by linear interpolation;
    crossings at roundoff amplitude (below :data:`SIGN_CHATTER_FLOOR`
    of the slice peak) are discarded. For intensity data,
    ``noise_floor`` sets the criterion: local minima qualify when their
    value falls below a floor times the smaller of the two flanking
    local maxima, with the position refined by a parabolic fit through
    the bracketing samples. The floor is ``noise_floor`` or, if larger,
    ``2 sin^2(pi/2P)`` for flanking maxima P samples apart, twice the
    height at which a sampled ``cos^2`` fringe of that period can bottom
    out. Maxima below :data:`SIGN_CHATTER_FLOOR` of the slice peak are
    roundoff and flank no minimum. The default floor works for both
    simulated maps (whose sampled minima sit quadratically above zero,
    see :data:`DEFAULT_NOISE_FLOOR`) and measured traces (which never
    reach exact zero).
    """
    check_noise_floor(noise_floor)
    x = section.axis
    y = section.values
    if x.size < 3:
        raise ConfigError("zero finding needs at least 3 samples")
    if not np.all(np.isfinite(y)):
        raise DataError("cross-section contains non-finite values")
    if section.kind == "signed":
        return ZeroSet(_sign_change_zeros(x, y), "sign-change")
    return ZeroSet(_intensity_zeros(x, y, noise_floor), "minimum-below-threshold")


def _sign_change_zeros(x, y):
    gate = SIGN_CHATTER_FLOOR * np.max(np.abs(y))
    nz = np.flatnonzero(y)
    i, k = nz[:-1], nz[1:]  # neighbouring nonzero samples: only exact zeros lie between
    keep = (np.signbit(y[i]) != np.signbit(y[k])) & (np.maximum(abs(y[i]), abs(y[k])) >= gate)
    i, k = i[keep], k[keep]
    # halved, so that opposite values near the float limit do not overflow
    crossing = x[i] + 0.5 * y[i] / (0.5 * y[i] - 0.5 * y[k]) * (x[k] - x[i])
    # a run of exact zeros counts once, at its midpoint
    return np.where(k > i + 1, x[i + 1] + (x[k - 1] - x[i + 1]) / 2, crossing)


def _intensity_zeros(x, y, noise_floor):
    mid, left, right = y[1:-1], y[:-2], y[2:]
    # maxima at roundoff amplitude bound no zero, as in the signed rule's chatter gate;
    # each exceeds a non-negative neighbour, so every flank is positive
    gate = SIGN_CHATTER_FLOOR * y.max()
    maxima = 1 + np.flatnonzero((mid > left) & (mid >= right) & (mid >= gate))
    i = 1 + np.flatnonzero((mid < left) & (mid <= right))
    k = np.searchsorted(maxima, i, side="right")  # a minimum is no maximum: maxima[k] > i
    inside = (k > 0) & (k < maxima.size)
    i, k = i[inside], k[inside]
    lo, hi = maxima[k - 1], maxima[k]
    flank = np.minimum(y[lo], y[hi])
    # a sampled cos^2 of period P samples bottoms out up to sin^2(pi/2P) of its flanks
    floor = np.maximum(noise_floor, 2 * np.sin(np.pi / (2 * (hi - lo))) ** 2)
    i = i[y[i] < floor * flank]
    # parabola through the triple, quartered: exact for normal floats, and no overflow
    a, b, c = 0.25 * y[i - 1], 0.25 * y[i], 0.25 * y[i + 1]
    d2 = a - 2 * b + c
    shift = np.divide(0.5 * (a - c), d2, out=np.zeros_like(d2), where=d2 > 0)
    shift = np.clip(shift, -1.0, 1.0)  # vertex clamped inside
    return x[i] + shift * (x[i + 1] - x[i])


def interior_spacings(spacings) -> np.ndarray:
    """Drop edge spacings, keeping at least the three central ones.

    Outer zero spacings are biased by the wings of the satellite lobes
    just outside the central window; up to two per side are discarded
    when enough remain.
    """
    s = check_array("spacings", spacings, shape=0)
    k = min(2, max(0, (s.size - 3) // 2))
    return s[k : s.size - k] if k else s


def _satellite_halfwidth(axis, profile, fallback):
    """Half the centroid position of the outermost strong lobe cluster.

    Fringed lobes produce runs of local maxima; runs are split where the
    gap between maxima clearly exceeds the typical fringe spacing, and
    the outermost run's intensity-weighted centroid marks the satellite
    center. Returns ``fallback`` when no distinct outer cluster exists.
    """
    peak = profile.max()
    if peak <= 0:
        return fallback
    mid = profile[1:-1]
    idx = 1 + np.flatnonzero((mid >= profile[:-2]) & (mid >= profile[2:])
                             & (mid > SATELLITE_FLOOR * peak))
    if idx.size < 2:
        return fallback
    pos, val = axis[idx], profile[idx]
    gaps = np.diff(pos)
    cut = max(3 * np.median(gaps), 5 * (axis[1] - axis[0]))
    splits = np.flatnonzero(gaps > cut) + 1
    if splits.size == 0:
        return fallback
    # runs are ordered along the axis, so the outermost centroid is the first run's or the last's
    outermost = max(abs(float(np.sum(pos[run] * val[run]) / np.sum(val[run])))
                    for run in (slice(0, splits[0]), slice(splits[-1], None)))
    if outermost <= 3 * (axis[1] - axis[0]):
        return fallback
    return outermost / 2


def _auto_window(m) -> Window:
    """Default central window: halfway out to the satellite lobes.

    Satellites are located on the two center-line slices (the
    projections mix central and satellite fringes without a gap). When
    a slice shows no separated satellites the halfwidth falls back to a
    quarter of the axis span; callers that know the synthesis
    parameters should pass an explicit window instead.
    """
    ax_t, ax_w = m.time_axis, m.freq_axis
    c_t = 0.0 if ax_t[0] <= 0 <= ax_t[-1] else (ax_t[0] + ax_t[-1]) / 2
    c_w = 0.0 if ax_w[0] <= 0 <= ax_w[-1] else (ax_w[0] + ax_w[-1]) / 2
    mid_t = np.abs(cross_section(m, "delay", c_w).values)
    mid_w = np.abs(cross_section(m, "frequency", c_t).values)
    half_t = _satellite_halfwidth(ax_t - c_t, mid_t, (ax_t[-1] - ax_t[0]) / 4)
    half_w = _satellite_halfwidth(ax_w - c_w, mid_w, (ax_w[-1] - ax_w[0]) / 4)
    return Window(c_t, half_t, c_w, half_w)


def _windowed_section(m, axis_choice, held, center, halfwidth) -> CrossSection:
    sec = cross_section(m, axis_choice, held)
    keep = (sec.axis >= center - halfwidth) & (sec.axis <= center + halfwidth)
    if np.count_nonzero(keep) < 3:
        raise InsufficientStructureError(
            "window spans fewer than 3 samples along the "
            f"{axis_choice} axis"
        )
    return dataclasses.replace(sec, axis=sec.axis[keep], values=sec.values[keep])


def _build_report(zt, zw, window) -> CellAreaReport:
    if zt.size < 2 and zw.size < 2:
        raise InsufficientStructureError(
            "fewer than 2 zeros along both axes; no interference cells"
        )
    st = interior_spacings(np.diff(zt))
    sw = interior_spacings(np.diff(zw))
    # single-direction interference leaves no cells: a spacing report with no verdict
    areas = np.outer(st, sw).ravel()
    mean = float(areas.mean()) if areas.size else None
    return CellAreaReport(st, sw, areas, mean,
                          None if mean is None else bool(mean < SUB_FOURIER_LIMIT), window)


def cell_areas(m: TimeFrequencyMap, window: Window | None = None,
               noise_floor: float = DEFAULT_NOISE_FLOOR) -> CellAreaReport:
    """Measure central-chessboard cells of a spectrogram or a Wigner map.

    Zeros are located on the two central axis-aligned slices inside
    ``window`` (default: halfway out to the satellite lobes, which for
    an ideal four-pulse state means delays within the pulse separation
    and frequencies within the carrier offset) by :func:`find_zeros`:
    intensity minima under ``noise_floor``, or a Wigner map's sign
    changes. Cells are products of adjacent interior zero spacings; the
    verdict compares their mean with the uncertainty-relation unit 0.5.
    A spectrogram needs 2 zeros per axis; a Wigner map whose interference
    runs along one direction only yields a spacing report with
    ``mean_area`` and ``sub_fourier`` left ``None``. Too few zeros raise
    :class:`InsufficientStructureError`.
    """
    if not isinstance(m, TimeFrequencyMap):
        raise ConfigError("cell_areas expects a Spectrogram or a WignerMap")
    window = _auto_window(m) if window is None else window
    sec_t = _windowed_section(m, "delay", window.omega_center,
                              window.tau_center, window.tau_halfwidth)
    sec_w = _windowed_section(m, "frequency", window.tau_center,
                              window.omega_center, window.omega_halfwidth)
    zt = find_zeros(sec_t, noise_floor).positions
    zw = find_zeros(sec_w, noise_floor).positions
    if not m.signed and (zt.size < 2 or zw.size < 2):
        raise InsufficientStructureError(
            f"need at least 2 zeros per axis, found {zt.size} delay / "
            f"{zw.size} frequency zeros in the central window"
        )
    return _build_report(zt, zw, window)


def wigner_cell_areas(m: WignerMap, window: Window | None = None) -> CellAreaReport:
    """:func:`cell_areas` of a map that must be a :class:`WignerMap`."""
    if not isinstance(m, WignerMap):
        raise ConfigError("wigner_cell_areas expects a WignerMap")
    return cell_areas(m, window)


def compass_plan(spec: CompassSpec):
    """How a compass state's spectrogram is measured: the delay span ``2*t0 + 1`` ps,
    past its pulse pair, and the central window out to its pulses and carriers."""
    return 2 * spec.t0 + 1.0, Window(0.0, spec.t0, 0.0, spec.omega0)


def sweep_separation(base: CompassSpec, t0_values, grid: SampleGrid | None = None,
                     noise_floor: float = DEFAULT_NOISE_FLOOR) -> tuple:
    """Run the pulse-separation sweep: state, spectrogram, cell areas.

    Each separation in ``t0_values`` replaces ``base.t0`` and is
    analyzed inside the window reaching halfway to the satellite
    positions (delays within the pulse separation, frequencies within
    the carrier offset). Failures (synthesis span, insufficient
    structure) are recorded in the returned :class:`SweepPoint` entries
    rather than raised, so a partial series survives bad points.
    """
    if grid is None:
        grid = SampleGrid(2048, 0.02, -20.48)
    points = []
    for t0 in check_array("t0_values", t0_values, shape=0, rule=None).tolist():
        try:
            spec = dataclasses.replace(base, t0=t0)
            field = compass_state(grid, spec)
            span, window = compass_plan(spec)
            report = cell_areas(shg_frog(field, grid.delay_axis(span)), window, noise_floor)
            points.append(SweepPoint(t0, report.mean_area, report.sub_fourier, "ok"))
        except (ConfigError, ComputeError, DataError) as exc:
            points.append(SweepPoint(t0, None, None, "error", str(exc)))
    return tuple(points)


def _resample_bilinear(values, ax_t, ax_w, ts, ws):
    """Bilinear samples of ``values`` on the tensor grid ``ts x ws``.

    Both grids ascend and the targets lie inside the source axes. Rows
    are interpolated along the time-like axis first, then columns along
    the frequency axis; a target on the last node takes the last
    interval at offset 1. Target rows are blended in the row blocks of
    ``transforms.row_blocks`` over the source width, so no temporary is
    map-sized.
    """

    def weights(axis, x):
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    i, y = weights(ax_t, ts)
    j, z = weights(ax_w, ws)
    out = np.empty((ts.size, ws.size))
    for lo, hi in row_blocks(ts.size, values.shape[1]):
        k, f = i[lo:hi], y[lo:hi, None]
        rows = values[k] * (1 - f) + values[k + 1] * f
        out[lo:hi] = rows[:, j] * (1 - z) + rows[:, j + 1] * z
    return out


def compare_maps(a, b) -> float:
    """Similarity of two maps of the same kind in [-1, 1].

    Both maps are resampled bilinearly onto the intersection of their
    axis ranges (step: the finer of the two per axis), peak-normalized,
    and scored by the correlation of the overlapping patches.
    """
    if type(a) is not type(b) or not isinstance(a, TimeFrequencyMap):
        raise ConfigError("compare_maps needs two maps of the same type")
    ax_t_a, ax_w_a = a.time_axis, a.freq_axis
    ax_t_b, ax_w_b = b.time_axis, b.freq_axis
    patches = []
    lo_t, hi_t = max(ax_t_a[0], ax_t_b[0]), min(ax_t_a[-1], ax_t_b[-1])
    lo_w, hi_w = max(ax_w_a[0], ax_w_b[0]), min(ax_w_a[-1], ax_w_b[-1])
    if lo_t >= hi_t or lo_w >= hi_w:
        raise DomainError("maps do not overlap; nothing to compare")
    step_t = min(ax_t_a[1] - ax_t_a[0], ax_t_b[1] - ax_t_b[0])
    step_w = min(ax_w_a[1] - ax_w_a[0], ax_w_b[1] - ax_w_b[0])
    ts = np.linspace(lo_t, hi_t, max(2, int(round((hi_t - lo_t) / step_t)) + 1))
    ws = np.linspace(lo_w, hi_w, max(2, int(round((hi_w - lo_w) / step_w)) + 1))
    for m, ax_t, ax_w in ((a, ax_t_a, ax_w_a), (b, ax_t_b, ax_w_b)):
        patch = _resample_bilinear(m.values, ax_t, ax_w, ts, ws).ravel()
        peak = max(patch.max(), -patch.min())
        if peak == 0:
            raise ComputeError("map is identically zero on the shared region")
        patch /= peak
        patch -= patch.mean()  # centered in place: the correlation needs no other copy
        patches.append(patch)
    x, y = patches
    sxx, syy = x @ x, y @ y
    if sxx == 0 or syy == 0:
        raise ComputeError("map has no variation on the shared region")
    r = float(x @ y / (math.sqrt(sxx) * math.sqrt(syy)))
    return max(-1.0, min(1.0, r))
