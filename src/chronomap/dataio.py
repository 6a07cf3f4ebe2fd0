"""File formats, experimental-trace ingestion, and plot exports.

Native text formats are diff-able and round-trip bitwise: maps under a
``CHRONO-MAP v1`` header, sampled fields under ``CHRONO-FIELD v1``.
Measured traces arrive as CSV (long or matrix layout) with wavelength
axes in nm and are calibrated onto uniform angular-frequency grids.
All three are UTF-8 text read by one line rule: lines end at LF, CR or
CRLF, and errors name the physical line.
"""

import contextlib
import dataclasses
import itertools
import json
import math
import mmap
import os
import shutil
from array import array

import numpy as np

from .analysis import SUB_FOURIER_LIMIT, CellAreaReport, CrossSection, SweepPoint
from .errors import CalibrationError, ConfigError, FormatError, ParseError, check_array, check_real
from .fieldcore import ComplexField, SampleGrid
from .transforms import Spectrogram, TimeFrequencyMap, WignerMap

SPEED_OF_LIGHT_M_PER_S = 299792458.0
SPEED_OF_LIGHT_NM_PER_PS = 299792.458

MAP_MAGIC = "CHRONO-MAP v1"
FIELD_MAGIC = "CHRONO-FIELD v1"

_MAP_TYPES = {cls.kind: cls for cls in (Spectrogram, WignerMap)}

# Maps of this many cells or more are written and read by two processes: a
# fork and join costs ~5 ms, a value 1.3 us to format and 0.7 us to parse.
SPLIT_CELLS = 1 << 16


@dataclasses.dataclass(frozen=True)
class ExperimentalTrace:
    """Measured spectrogram: delays in ps, wavelengths in nm."""

    delay_axis: np.ndarray
    wavelength_axis: np.ndarray
    intensities: np.ndarray
    meta: dict

    def __post_init__(self):
        d = check_array("trace delay axis", self.delay_axis, shape=2, rule="strictly monotone")
        w = check_array("trace wavelength axis", self.wavelength_axis, shape=2,
                        rule="strictly monotone")
        vals = check_array("trace intensities", self.intensities, shape=(d.size, w.size),
                           rule="non-negative")
        if not isinstance(self.meta, dict):
            raise ConfigError(f"trace meta must be a dict, got {type(self.meta).__name__}")
        object.__setattr__(self, "delay_axis", d)
        object.__setattr__(self, "wavelength_axis", w)
        object.__setattr__(self, "intensities", vals)
        object.__setattr__(self, "meta", dict(self.meta))


@dataclasses.dataclass(frozen=True)
class Calibration:
    """Wavelength-to-frequency calibration parameters."""

    reference_wavelength: float
    background_floor: float = 0.0

    def __post_init__(self):
        check_real(vars(self), reference_wavelength="positive", background_floor="in [0, 1)")


def wavelength_to_angular_frequency(wavelength_nm):
    """Absolute angular frequency (rad/ps) for a wavelength in nm."""
    lam = check_array("wavelength_nm", wavelength_nm, rule=None)
    if np.any(lam <= 0):
        raise CalibrationError("wavelengths must be positive")
    return 2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / lam


# ------------------------------------------------------------- trace I/O


def _parse_floats(tokens, path, lineno):
    """Floats of one row; the first bad token is named with its ``path:line``."""
    try:
        return list(map(float, tokens))
    except ValueError:
        for t in tokens:
            try:
                float(t)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {t!r}") from None
        raise


def _built(cls, error, where, *args):
    """``cls(*args)``, with a ConfigError raised again as data ``error`` at ``where``."""
    try:
        return cls(*args)
    except ConfigError as exc:
        raise error(f"{where}: {exc}") from None


def _lines(fh, path, error):
    """Yield ``(lineno, line)`` per line of a UTF-8 text handle; lines end at LF, CR or CRLF,
    which is removed. Bytes that are not UTF-8 raise ``error`` wherever they are."""
    try:
        for lineno, line in enumerate(fh, 1):
            yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _float_rows(path, rows, out, message):
    """Parse each ``(lineno, line)`` of ``rows`` into the same row of ``out``; a bad token
    is named first, then a row of the wrong length raises ``path:lineno: message``."""
    for (lineno, line), dest in zip(rows, out):
        row = _parse_floats(line.split(), path, lineno)
        if len(row) != len(dest):
            raise FormatError(f"{path}:{lineno}: {message}")
        dest[:] = row


def _load_trace_long(path, lines):
    lineno, line = next(lines)
    header = [t.strip() for t in line.split(",")]
    if header != ["delay_ps", "wavelength_nm", "intensity"]:
        raise ParseError(
            f"{path}:{lineno}: expected header 'delay_ps,wavelength_nm,intensity'"
        )
    delays, starts = [], []  # per delay block: its delay and first row
    waves, vals = array("d"), array("d")
    d0 = w0 = math.nan  # the current block's delay, the previous row's wavelength
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 comma-separated columns")
        try:
            d, w, v = map(float, parts)
        except ValueError:
            _parse_floats(parts, path, lineno)
            raise
        if d == d0:
            if w <= w0:
                raise ParseError(
                    f"{path}:{lineno}: wavelength not strictly increasing within its delay block"
                )
        else:
            if d <= d0:
                raise ParseError(
                    f"{path}:{lineno}: delay blocks must be strictly increasing"
                )
            delays.append(d)
            starts.append(len(vals))
            d0 = d
        w0 = w
        waves.append(w)
        vals.append(v)
    if not delays:
        raise ParseError(f"{path}: no data rows")
    waves = np.frombuffer(waves, float)
    bounds = starts + [waves.size]
    wave = waves[: bounds[1]]
    for d, lo, hi in zip(delays[1:], bounds[1:], bounds[2:]):
        if not np.array_equal(waves[lo:hi], wave):
            raise ParseError(
                f"{path}: delay block at {d:g} ps has a different wavelength axis"
            )
    vals = np.frombuffer(vals, float).reshape(len(delays), wave.size)
    return np.array(delays), wave.copy(), vals


def _load_trace_matrix(path, lines):
    axes = {}
    rows = []  # (lineno, column count) per data row
    vals = array("d")
    for lineno, line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("delay_ps", "wavelength_nm"):
                if body.startswith(key + ":"):
                    axes[key] = np.array(
                        _parse_floats(body[len(key) + 1 :].split(), path, lineno)
                    )
                    steps = np.diff(axes[key])
                    if not (np.all(steps > 0) or np.all(steps < 0)):
                        raise ParseError(
                            f"{path}:{lineno}: {key} axis is not strictly monotone"
                        )
            continue
        row = _parse_floats(line.split(","), path, lineno)
        rows.append((lineno, len(row)))
        vals.extend(row)
    for key in ("delay_ps", "wavelength_nm"):
        if key not in axes:
            raise ParseError(f"{path}: missing '# {key}:' axis line")
    nd, nw = axes["delay_ps"].size, axes["wavelength_nm"].size
    if len(rows) != nd:
        raise ParseError(f"{path}: expected {nd} data rows, found {len(rows)}")
    for lineno, count in rows:
        if count != nw:
            raise ParseError(f"{path}:{lineno}: expected {nw} columns, found {count}")
    vals = np.frombuffer(vals, float).reshape(nd, nw)
    return axes["delay_ps"], axes["wavelength_nm"], vals


def load_trace(path, format: str = "csv-long",
               negative_policy: str = "reject") -> ExperimentalTrace:
    """Read a measured trace.

    ``format`` is ``"csv-long"`` (three columns under a
    ``delay_ps,wavelength_nm,intensity`` header) or ``"csv-matrix"``
    (``# delay_ps:`` and ``# wavelength_nm:`` axis lines, then one
    comma-separated row per delay). ``negative_policy`` decides whether
    negative baseline entries reject the file or clamp to zero; clamped
    cells are counted in ``meta["clamped_count"]``. The file is UTF-8
    text whose lines end at LF, CR or CRLF, read one line at a time;
    blank lines are skipped, fields may carry surrounding spaces, and
    errors name the physical line.
    """
    if format not in ("csv-long", "csv-matrix"):
        raise ConfigError(f"unknown trace format {format!r}")
    if negative_policy not in ("reject", "clamp"):
        raise ConfigError(f"unknown negative policy {negative_policy!r}")
    loader = _load_trace_long if format == "csv-long" else _load_trace_matrix
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((lineno, line) for lineno, raw in _lines(fh, path, ParseError)
                 if (line := raw.strip()))
        first = next(lines, None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        delays, wave, vals = loader(path, itertools.chain([first], lines))
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
    return _built(ExperimentalTrace, ParseError, path, delays, wave, vals, meta)


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
    survives as the map's ``scale``. Weighted intensities past the float
    range raise :class:`CalibrationError`.
    """
    lam = trace.wavelength_axis
    w_abs = wavelength_to_angular_frequency(lam)
    w_ref = wavelength_to_angular_frequency(cal.reference_wavelength)
    w_rel = w_abs - w_ref
    order = np.argsort(w_rel)
    w_sorted = w_rel[order]
    if w_sorted[0] == w_sorted[-1]:
        raise CalibrationError("degenerate frequency range")
    # per-sample Jacobian: intensity per unit omega
    with np.errstate(over="ignore", invalid="ignore"):
        jac = lam**2 / (2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS)
        vals = (trace.intensities * jac[None, :])[:, order]
    if not np.isfinite(vals).all():
        raise CalibrationError(
            f"wavelengths up to {lam.max():g} nm overflow the Jacobian-weighted intensities")
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
    return Spectrogram.normalized(tau_axis, w_axis,
                                  np.clip(vals - cal.background_floor * peak, 0, None))


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
        m.tau_axis,
        lam[order],
        intensities[:, order],
        {"source": "synthesized", "reference_wavelength_nm": cal.reference_wavelength},
    )


# --------------------------------------------------------------- map I/O


def _format_row(values):
    return " ".join(map(repr, np.asarray(values, float).tolist()))


def _splits(cells):
    return cells >= SPLIT_CELLS and hasattr(os, "fork")


def _fork_rows(n, cells, work):
    """Run ``work(0, n)``; from ``SPLIT_CELLS`` cells on, on two processes.

    A forked child runs ``work(k, n)``, ``k = n // 2``, while this process
    runs ``work(0, k)``. If the child fails, its rows are redone here, so
    errors are the serial path's. Returns whether the rows were split.

    The child ends in ``os._exit`` (no cleanup, exit hook or flush) and is
    killed and reaped if this process fails. It turns floats into text or
    text into shared pages: it imports nothing, calls no BLAS and takes no
    lock, so forking while BLAS threads run (Python 3.12 warns) is safe.
    """
    if n < 2 or not _splits(cells):
        work(0, n)
        return False
    k = n // 2
    pid = os.fork()
    if pid == 0:
        try:
            work(k, n)
            os._exit(0)
        finally:
            os._exit(1)
    try:
        work(0, k)
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        import signal  # not loaded on the CLI's import path
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status:  # the child failed: its rows again, here
        work(k, n)
    return True


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing so that readers never see a partial file.

    The body writes to a new sibling file that replaces ``path`` only
    when the ``with`` block completes. On any failure the sibling is
    removed and an existing ``path`` keeps its old content; an
    ``OSError`` names ``path``, not the sibling. ``mode`` is ``"w"``
    (UTF-8 text) or ``"wb"``.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def save_map(m, path, format: str = "native"):
    """Write a map as native text (lossless) or a PGM raster (lossy)."""
    if not isinstance(m, TimeFrequencyMap):
        raise ConfigError(f"cannot save {type(m).__name__} maps")
    if format == "pgm":
        _save_pgm(m.values, path)
        return
    if format != "native":
        raise ConfigError(f"unknown map format {format!r}")
    with atomic_open(path) as fh:
        fh.write(MAP_MAGIC + "\n")
        fh.write(f"{m.kind} {m.file_axes} scale={repr(float(m.scale))}\n")
        fh.write(_format_row(m.time_axis) + "\n")
        fh.write(_format_row(m.freq_axis) + "\n")
        fh.flush()
        part = os.path.splitext(fh.name)[0] + ".part"

        def write_rows(lo, hi):  # the second half of a split goes to the part file
            with (open(part, "w", encoding="utf-8") if lo else contextlib.nullcontext(fh)) as out:
                for row in m.values[lo:hi]:
                    out.write(_format_row(row) + "\n")

        try:
            if _fork_rows(len(m.values), m.values.size, write_rows):
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)


def _save_pgm(values, path):
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.round((values - lo) / span * 255).astype(np.uint8)
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def load_map(path):
    """Read a native-format map back as a Spectrogram or WignerMap.

    Blank lines after its 4-line header are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh, path, FormatError)
        head = [line for _, line in itertools.islice(lines, 4)]
        if not head or head[0].split(" v")[0] != MAP_MAGIC.split(" v")[0]:
            raise FormatError(f"{path}: not a {MAP_MAGIC} file")
        if head[0] != MAP_MAGIC:
            raise FormatError(f"{path}: unsupported version {head[0]!r}")
        if len(head) < 4:
            raise FormatError(f"{path}: truncated header")
        header = head[1].split()
        if len(header) != 4 or not header[3].startswith("scale="):
            raise FormatError(f"{path}:2: malformed map header")
        kind = header[0]
        if kind not in _MAP_TYPES:
            raise FormatError(f"{path}:2: unknown map kind {kind!r}")
        (scale,) = _parse_floats([header[3][len("scale="):]], path, 2)
        ax1 = np.array(_parse_floats(head[2].split(), path, 3))
        ax2 = np.array(_parse_floats(head[3].split(), path, 4))
        rows = [(lineno, line) for lineno, line in lines if line.strip()]
    if len(rows) != ax1.size:
        raise FormatError(
            f"{path}: expected {ax1.size} value rows, found {len(rows)} (truncated?)"
        )
    values = np.empty((ax1.size, ax2.size))
    if _splits(values.size):  # the forked child parses into shared pages
        buf = mmap.mmap(-1, values.nbytes, flags=mmap.MAP_SHARED)
        values = np.frombuffer(buf).reshape(values.shape)
    _fork_rows(len(rows), values.size, lambda lo, hi: _float_rows(
        path, rows[lo:hi], values[lo:hi], f"expected {ax2.size} values per row"))
    return _built(_MAP_TYPES[kind], FormatError, path, ax1, ax2, values, scale)


def save_field(f: ComplexField, path):
    """Write a sampled field: grid line, then one 're im' row per sample."""
    g = f.grid
    with atomic_open(path) as fh:
        fh.write(FIELD_MAGIC + "\n")
        fh.write(f"{g.n} {repr(float(g.dt))} {repr(float(g.t_start))}\n")
        for re, im in zip(f.samples.real.tolist(), f.samples.imag.tolist()):
            fh.write(f"{re!r} {im!r}\n")


def load_field(path) -> ComplexField:
    """Read a sampled field; blank lines after its 2-line header are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _lines(fh, path, FormatError)
        head = [line for _, line in itertools.islice(lines, 2)]
        if not head or head[0] != FIELD_MAGIC:
            raise FormatError(f"{path}: not a {FIELD_MAGIC} file")
        if len(head) < 2:
            raise FormatError(f"{path}: truncated header")
        parts = head[1].split()
        if len(parts) != 3:
            raise FormatError(f"{path}:2: expected 'n dt t_start'")
        try:
            n = int(parts[0])
        except ValueError:
            raise FormatError(f"{path}:2: sample count is not an integer: {parts[0]!r}") from None
        dt, t_start = _parse_floats(parts[1:], path, 2)
        grid = _built(SampleGrid, FormatError, f"{path}:2", n, dt, t_start)
        rows = [(lineno, line) for lineno, line in lines if line.strip()]
    if len(rows) != n:
        raise FormatError(f"{path}: expected {n} sample rows, found {len(rows)}")
    pairs = np.empty((n, 2))
    _float_rows(path, rows, pairs, "expected 're im'")
    return _built(ComplexField, FormatError, path, grid, pairs.view(complex).ravel())


# --------------------------------------------------------------- exports


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
            "limit": SUB_FOURIER_LIMIT,
            "window": dataclasses.asdict(obj.window),
        }
    elif _is_sweep(obj):
        payload = {
            "kind": "separation-sweep",
            "limit": SUB_FOURIER_LIMIT,
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
    with atomic_open(path) as fh:
        fh.write(report_to_json(obj) + "\n")


def export_plot_data(obj, path, header: str = "", footer: str = ""):
    """Write plain columnar text for external plotting.

    Cross-sections export two columns; cell-area reports export their
    spacing and area blocks plus a summary line; sweep series export
    one row per separation with a constant 0.5 limit column. Text in
    ``header`` and ``footer`` goes before and after the data, in the
    same atomic write.
    """
    with atomic_open(path) as fh:
        fh.write(header)
        if isinstance(obj, CrossSection):
            held, value = obj.fixed_coordinate
            fh.write(f"# cross-section, {obj.kind}, {held} held at {value!r}\n")
            fh.write("# axis value\n")
            for x, v in zip(obj.axis.tolist(), obj.values.tolist()):
                fh.write(f"{x!r} {v!r}\n")
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
                f"# mean {obj.mean_area!r} sub_fourier {obj.sub_fourier!r} limit {SUB_FOURIER_LIMIT!r}\n"
            )
        elif _is_sweep(obj):
            fh.write("# separation sweep\n")
            fh.write("# t0_ps mean_area limit status\n")
            for p in obj:
                mean = "nan" if p.mean_area is None else repr(float(p.mean_area))
                fh.write(f"{repr(float(p.t0))} {mean} {SUB_FOURIER_LIMIT!r} {p.status}\n")
        else:
            raise ConfigError(f"cannot export {type(obj).__name__} as plot data")
        fh.write(footer)
