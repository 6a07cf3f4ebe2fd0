"""File formats, experimental-trace ingestion, and plot exports.

Native text formats are diff-able and round-trip bitwise: maps under a
``CHRONO-MAP v1`` header, sampled fields under ``CHRONO-FIELD v1``.
Measured traces arrive as CSV (long or matrix layout) with wavelength
axes in nm and are calibrated onto uniform angular-frequency grids.
"""

import dataclasses
import json
import math
import os

import numpy as np

from .analysis import CellAreaReport, CrossSection, SweepPoint, Window
from .errors import CalibrationError, ConfigError, FormatError, ParseError
from .fieldcore import ComplexField, SampleGrid
from .transforms import Spectrogram, WignerMap

SPEED_OF_LIGHT_M_PER_S = 299792458.0
SPEED_OF_LIGHT_NM_PER_PS = 299792.458

MAP_MAGIC = "CHRONO-MAP v1"
FIELD_MAGIC = "CHRONO-FIELD v1"

_MAP_KINDS = {"spectrogram": Spectrogram, "wigner": WignerMap}
_MAP_AXES = {
    "spectrogram": ("delay_ps", "ang_freq_rad_per_ps"),
    "wigner": ("time_ps", "ang_freq_rad_per_ps"),
}


@dataclasses.dataclass(frozen=True)
class ExperimentalTrace:
    """Measured spectrogram: delays in ps, wavelengths in nm."""

    delay_axis: np.ndarray
    wavelength_axis: np.ndarray
    intensities: np.ndarray
    meta: dict

    def __post_init__(self):
        d = np.asarray(self.delay_axis, float)
        w = np.asarray(self.wavelength_axis, float)
        vals = np.asarray(self.intensities, float)
        for name, ax in (("delay", d), ("wavelength", w)):
            if ax.ndim != 1 or ax.size < 2:
                raise ConfigError(f"trace {name} axis must be 1D with >= 2 entries")
            steps = np.diff(ax)
            if not (np.all(steps > 0) or np.all(steps < 0)):
                raise ConfigError(f"trace {name} axis must be strictly monotone")
        if vals.shape != (d.size, w.size):
            raise ConfigError(
                f"intensities shaped {vals.shape}, expected {(d.size, w.size)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("trace intensities must be finite")
        if np.any(vals < 0):
            raise ConfigError("trace intensities must be non-negative")
        object.__setattr__(self, "delay_axis", d)
        object.__setattr__(self, "wavelength_axis", w)
        object.__setattr__(self, "intensities", vals)
        object.__setattr__(self, "meta", dict(self.meta))
        for arr in (d, w, vals):
            arr.setflags(write=False)


@dataclasses.dataclass(frozen=True)
class Calibration:
    """Wavelength-to-frequency calibration parameters.

    ``speed_of_light`` is fixed by definition; it is a field only so
    that reports carry the value explicitly.
    """

    reference_wavelength: float
    background_floor: float = 0.0
    speed_of_light: float = SPEED_OF_LIGHT_M_PER_S

    def __post_init__(self):
        if not (math.isfinite(self.reference_wavelength) and self.reference_wavelength > 0):
            raise ConfigError("reference wavelength must be positive")
        if not 0 <= self.background_floor < 1:
            raise ConfigError("background floor must lie in [0, 1)")
        if self.speed_of_light != SPEED_OF_LIGHT_M_PER_S:
            raise ConfigError("the speed of light is not adjustable")


def wavelength_to_angular_frequency(wavelength_nm):
    """Absolute angular frequency (rad/ps) for a wavelength in nm."""
    lam = np.asarray(wavelength_nm, float)
    if np.any(lam <= 0):
        raise CalibrationError("wavelengths must be positive")
    return 2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / lam


# ------------------------------------------------------------- trace I/O


def _parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: not a number: {token!r}") from None


def _load_trace_long(path, lines):
    header = [t.strip() for t in lines[0][1].split(",")]
    if header != ["delay_ps", "wavelength_nm", "intensity"]:
        raise ParseError(
            f"{path}:{lines[0][0]}: expected header 'delay_ps,wavelength_nm,intensity'"
        )
    blocks = []  # (delay, [wavelengths], [intensities], lineno of block start)
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 comma-separated columns")
        d, w, v = (_parse_float(p, path, lineno) for p in parts)
        if not blocks or blocks[-1][0] != d:
            if blocks and d <= blocks[-1][0]:
                raise ParseError(
                    f"{path}:{lineno}: delay blocks must be strictly increasing"
                )
            blocks.append((d, [], []))
        _, ws, vs = blocks[-1]
        if ws and w <= ws[-1]:
            raise ParseError(
                f"{path}:{lineno}: wavelength not strictly increasing within its delay block"
            )
        ws.append(w)
        vs.append(v)
    if not blocks:
        raise ParseError(f"{path}: no data rows")
    wave = blocks[0][1]
    for d, ws, _ in blocks[1:]:
        if ws != wave:
            raise ParseError(
                f"{path}: delay block at {d:g} ps has a different wavelength axis"
            )
    delays = np.array([b[0] for b in blocks])
    vals = np.array([b[2] for b in blocks])
    return delays, np.array(wave), vals


def _load_trace_matrix(path, lines):
    axes = {}
    rows = []
    for lineno, line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("delay_ps", "wavelength_nm"):
                if body.startswith(key + ":"):
                    axes[key] = np.array(
                        [_parse_float(t, path, lineno) for t in body[len(key) + 1 :].split()]
                    )
                    steps = np.diff(axes[key])
                    if not (np.all(steps > 0) or np.all(steps < 0)):
                        raise ParseError(
                            f"{path}:{lineno}: {key} axis is not strictly monotone"
                        )
            continue
        rows.append((lineno, [_parse_float(t, path, lineno) for t in line.split(",")]))
    for key in ("delay_ps", "wavelength_nm"):
        if key not in axes:
            raise ParseError(f"{path}: missing '# {key}:' axis line")
    nd, nw = axes["delay_ps"].size, axes["wavelength_nm"].size
    if len(rows) != nd:
        raise ParseError(f"{path}: expected {nd} data rows, found {len(rows)}")
    for lineno, row in rows:
        if len(row) != nw:
            raise ParseError(f"{path}:{lineno}: expected {nw} columns, found {len(row)}")
    return axes["delay_ps"], axes["wavelength_nm"], np.array([r for _, r in rows])


def load_trace(path, format: str = "csv-long",
               negative_policy: str = "reject") -> ExperimentalTrace:
    """Read a measured trace.

    ``format`` is ``"csv-long"`` (three columns under a
    ``delay_ps,wavelength_nm,intensity`` header) or ``"csv-matrix"``
    (``# delay_ps:`` and ``# wavelength_nm:`` axis lines, then one
    comma-separated row per delay). ``negative_policy`` decides whether
    negative baseline entries reject the file or clamp to zero; clamped
    cells are counted in ``meta["clamped_count"]``.
    """
    if format not in ("csv-long", "csv-matrix"):
        raise ConfigError(f"unknown trace format {format!r}")
    if negative_policy not in ("reject", "clamp"):
        raise ConfigError(f"unknown negative policy {negative_policy!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (i + 1, ln.strip())
            for i, ln in enumerate(fh.read().splitlines())
            if ln.strip()
        ]
    if not lines:
        raise ParseError(f"{path}: empty file")
    if format == "csv-long":
        delays, wave, vals = _load_trace_long(path, lines)
    else:
        delays, wave, vals = _load_trace_matrix(path, lines)
    meta = {"source": os.path.basename(path), "format": format}
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"{path}: non-finite intensity values")
    negatives = int(np.count_nonzero(vals < 0))
    if negatives:
        if negative_policy == "reject":
            raise ParseError(
                f"{path}: {negatives} negative intensity entries (policy 'reject')"
            )
        vals = np.clip(vals, 0, None)
        meta["clamped_count"] = negatives
    return ExperimentalTrace(delays, wave, vals, meta)


# ------------------------------------------------------------ calibration


def _uniform_or_resample(axis, rows_axis_last):
    """Return a uniform axis and values, resampling only when needed."""
    steps = np.diff(axis)
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        return axis, rows_axis_last
    uniform = np.linspace(axis[0], axis[-1], axis.size)
    out = np.empty_like(rows_axis_last)
    for i in range(rows_axis_last.shape[0]):
        out[i] = np.interp(uniform, axis, rows_axis_last[i])
    return uniform, out


def calibrate_to_spectrogram(trace: ExperimentalTrace, cal: Calibration) -> Spectrogram:
    """Convert a wavelength-resolved trace to a frequency spectrogram.

    Angular frequencies are taken relative to the reference wavelength,
    intensities get the |dlambda/domega| Jacobian, both axes are
    resampled to uniform grids, and ``background_floor`` times the peak
    is subtracted and clamped before peak normalization. The raw peak
    survives as the map's ``scale``.
    """
    lam = trace.wavelength_axis
    if abs(lam[-1] - lam[0]) == 0:
        raise CalibrationError("degenerate wavelength range")
    w_abs = wavelength_to_angular_frequency(lam)
    w_ref = wavelength_to_angular_frequency(cal.reference_wavelength)
    w_rel = w_abs - w_ref
    # per-sample Jacobian: intensity per unit omega
    jac = lam**2 / (2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS)
    vals = trace.intensities * jac[None, :]
    order = np.argsort(w_rel)
    w_sorted = w_rel[order]
    vals = vals[:, order]
    if w_sorted[0] == w_sorted[-1]:
        raise CalibrationError("degenerate frequency range")
    w_axis, vals = _uniform_or_resample(w_sorted, vals)
    delays = trace.delay_axis
    if delays[0] > delays[-1]:
        delays = delays[::-1]
        vals = vals[::-1, :]
    tau_axis, vals_t = _uniform_or_resample(delays, vals.T)
    vals = vals_t.T
    peak = vals.max()
    if peak <= 0:
        raise CalibrationError("trace has no positive intensity")
    vals = np.clip(vals - cal.background_floor * peak, 0, None)
    scale = vals.max()
    return Spectrogram(tau_axis, w_axis, vals / scale, scale)


def trace_from_spectrogram(m: Spectrogram, cal: Calibration) -> ExperimentalTrace:
    """Synthesize the wavelength-resolved trace a spectrogram implies.

    Inverse of :func:`calibrate_to_spectrogram` up to background
    handling; used to build measurement-shaped fixtures from simulated
    maps and to validate calibration round trips.
    """
    w_ref = wavelength_to_angular_frequency(cal.reference_wavelength)
    w_abs = m.omega_axis + w_ref
    if np.any(w_abs <= 0):
        raise CalibrationError("map frequencies extend below zero absolute frequency")
    lam = 2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / w_abs
    jac = lam**2 / (2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS)
    intensities = (m.values * m.scale) / jac[None, :]
    order = np.argsort(lam)
    return ExperimentalTrace(
        m.tau_axis.copy(),
        lam[order],
        intensities[:, order],
        {"source": "synthesized", "reference_wavelength_nm": cal.reference_wavelength},
    )


# --------------------------------------------------------------- map I/O


def _format_row(values):
    return " ".join(repr(float(v)) for v in values)


def save_map(m, path, format: str = "native"):
    """Write a map as native text (lossless) or a PGM raster (lossy)."""
    if isinstance(m, Spectrogram):
        kind, (ax1, ax2) = "spectrogram", (m.tau_axis, m.omega_axis)
    elif isinstance(m, WignerMap):
        kind, (ax1, ax2) = "wigner", (m.q_axis, m.p_axis)
    else:
        raise ConfigError(f"cannot save {type(m).__name__} maps")
    if format == "pgm":
        _save_pgm(m.values, path)
        return
    if format != "native":
        raise ConfigError(f"unknown map format {format!r}")
    names = _MAP_AXES[kind]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MAP_MAGIC + "\n")
        fh.write(f"{kind} {names[0]} {names[1]} scale={repr(float(m.scale))}\n")
        fh.write(_format_row(ax1) + "\n")
        fh.write(_format_row(ax2) + "\n")
        for row in m.values:
            fh.write(_format_row(row) + "\n")


def _save_pgm(values, path):
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.round((values - lo) / span * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def load_map(path):
    """Read a native-format map back as a Spectrogram or WignerMap."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a {MAP_MAGIC} file (binary content)") from None
    if not lines or lines[0].split(" v")[0] != MAP_MAGIC.split(" v")[0]:
        raise FormatError(f"{path}: not a {MAP_MAGIC} file")
    if lines[0] != MAP_MAGIC:
        raise FormatError(f"{path}: unsupported version {lines[0]!r}")
    if len(lines) < 4:
        raise FormatError(f"{path}: truncated header")
    header = lines[1].split()
    if len(header) != 4 or not header[3].startswith("scale="):
        raise FormatError(f"{path}:2: malformed map header")
    kind = header[0]
    if kind not in _MAP_KINDS:
        raise FormatError(f"{path}:2: unknown map kind {kind!r}")
    scale = _parse_float(header[3][len("scale="):], path, 2)
    ax1 = np.array([_parse_float(t, path, 3) for t in lines[2].split()])
    ax2 = np.array([_parse_float(t, path, 4) for t in lines[3].split()])
    rows = [ln for ln in lines[4:] if ln.strip()]
    if len(rows) != ax1.size:
        raise FormatError(
            f"{path}: expected {ax1.size} value rows, found {len(rows)} (truncated?)"
        )
    values = np.empty((ax1.size, ax2.size))
    for i, ln in enumerate(rows):
        row = [_parse_float(t, path, 5 + i) for t in ln.split()]
        if len(row) != ax2.size:
            raise FormatError(f"{path}:{5 + i}: expected {ax2.size} values per row")
        values[i] = row
    return _MAP_KINDS[kind](ax1, ax2, values, scale)


def save_field(f: ComplexField, path):
    """Write a sampled field: grid line, then one 're im' row per sample."""
    g = f.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FIELD_MAGIC + "\n")
        fh.write(f"{g.n} {repr(float(g.dt))} {repr(float(g.t_start))}\n")
        for v in f.samples:
            fh.write(f"{repr(float(v.real))} {repr(float(v.imag))}\n")


def load_field(path) -> ComplexField:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FIELD_MAGIC:
        raise FormatError(f"{path}: not a {FIELD_MAGIC} file")
    if len(lines) < 2:
        raise FormatError(f"{path}: truncated header")
    parts = lines[1].split()
    if len(parts) != 3:
        raise FormatError(f"{path}:2: expected 'n dt t_start'")
    try:
        n = int(parts[0])
    except ValueError:
        raise FormatError(f"{path}:2: sample count is not an integer: {parts[0]!r}") from None
    grid = SampleGrid(n, _parse_float(parts[1], path, 2), _parse_float(parts[2], path, 2))
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) != n:
        raise FormatError(f"{path}: expected {n} sample rows, found {len(rows)}")
    samples = np.empty(n, complex)
    for i, ln in enumerate(rows):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{3 + i}: expected 're im'")
        samples[i] = complex(
            _parse_float(parts[0], path, 3 + i), _parse_float(parts[1], path, 3 + i)
        )
    return ComplexField(grid, samples)


# --------------------------------------------------------------- exports


def _window_dict(w: Window):
    return {
        "tau_center": w.tau_center,
        "tau_halfwidth": w.tau_halfwidth,
        "omega_center": w.omega_center,
        "omega_halfwidth": w.omega_halfwidth,
    }


def report_to_json(obj) -> str:
    """JSON text for a cell-area report or a separation sweep series."""
    if isinstance(obj, CellAreaReport):
        payload = {
            "kind": "cell-areas",
            "tau_spacings_ps": list(obj.tau_spacings),
            "omega_spacings_rad_per_ps": list(obj.omega_spacings),
            "cell_areas": list(obj.cell_areas),
            "mean_area": obj.mean_area,
            "sub_fourier": obj.sub_fourier,
            "limit": 0.5,
            "window": _window_dict(obj.window),
        }
    elif _is_sweep(obj):
        payload = {
            "kind": "separation-sweep",
            "limit": 0.5,
            "points": [
                {
                    "t0_ps": p.t0,
                    "mean_area": p.mean_area,
                    "sub_fourier": p.sub_fourier,
                    "status": p.status,
                    "message": p.message,
                }
                for p in obj
            ],
        }
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__} as a report")
    return json.dumps(payload, indent=2, sort_keys=True)


def _is_sweep(obj):
    return isinstance(obj, (list, tuple)) and all(isinstance(p, SweepPoint) for p in obj)


def save_report(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(obj) + "\n")


def export_plot_data(obj, path):
    """Write plain columnar text for external plotting.

    Cross-sections export two columns; cell-area reports export their
    spacing and area blocks plus a summary line; sweep series export
    one row per separation with a constant 0.5 limit column.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, CrossSection):
            held, value = obj.fixed_coordinate
            fh.write(f"# cross-section, {obj.kind}, {held} held at {value!r}\n")
            fh.write("# axis value\n")
            for x, v in zip(obj.axis, obj.values):
                fh.write(f"{repr(float(x))} {repr(float(v))}\n")
        elif isinstance(obj, CellAreaReport):
            fh.write("# cell-area report\n")
            fh.write("# delay spacings (ps): " + _format_row(obj.tau_spacings) + "\n")
            fh.write(
                "# frequency spacings (rad/ps): " + _format_row(obj.omega_spacings) + "\n"
            )
            fh.write("# cell areas:\n")
            for a in obj.cell_areas:
                fh.write(repr(float(a)) + "\n")
            fh.write(
                f"# mean {obj.mean_area!r} sub_fourier {obj.sub_fourier!r} limit 0.5\n"
            )
        elif _is_sweep(obj):
            fh.write("# separation sweep\n")
            fh.write("# t0_ps mean_area limit status\n")
            for p in obj:
                mean = "nan" if p.mean_area is None else repr(float(p.mean_area))
                fh.write(f"{repr(float(p.t0))} {mean} 0.5 {p.status}\n")
        else:
            raise ConfigError(f"cannot export {type(obj).__name__} as plot data")
