"""File formats, experimental-trace ingestion, and plot exports.

Native text formats are diff-able and round-trip bitwise: maps under a
``CHRONO-MAP v1`` header, sampled fields under ``CHRONO-FIELD v1``.
Measured traces arrive as CSV (long or matrix layout) with wavelength
axes in nm and are calibrated onto uniform angular-frequency grids.
All three are UTF-8 text read by one line rule: lines end at LF, CR or
CRLF, and errors name the physical line. Each numeric body is parsed in
one bulk pass of numpy's C reader; where that pass declines, a per-line
pass turns the tokens into floats, and it names the first bad token.
Each trace layout has one set of structural rules, which the rows of
either pass meet.
"""

import contextlib
import dataclasses
import itertools
import json
import mmap
import os
import shutil
import warnings
from array import array

import numpy as np

from .analysis import SUB_FOURIER_LIMIT, CellAreaReport, CrossSection, SweepPoint
from .errors import (ARRAY_RULES, CalibrationError, ConfigError, DataError, FormatError,
                     ParseError, check_array, check_real)
from .fieldcore import ComplexField, SampleGrid
from .transforms import Spectrogram, TimeFrequencyMap, WignerMap

SPEED_OF_LIGHT_M_PER_S = 299792458.0
SPEED_OF_LIGHT_NM_PER_PS = 299792.458

MAP_MAGIC = "CHRONO-MAP v1"
FIELD_MAGIC = "CHRONO-FIELD v1"

_MAP_TYPES = {cls.kind: cls for cls in (Spectrogram, WignerMap)}

# Maps of this many cells or more are written and read by two processes: a
# fork and join costs ~5 ms, a value 1.3 us to format and ~0.25 us to parse in
# bulk, so at the cutoff a split read gains ~3 ms, and only on a free core.
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
    with np.errstate(over="ignore"):
        w = 2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / lam
    if not np.isfinite(w).all():
        raise CalibrationError(f"wavelength {lam.min():g} nm overflows its angular frequency")
    return w


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


@contextlib.contextmanager
def _utf8_text(path, error):
    """The UTF-8 text handle of ``path``. Bytes that are not UTF-8 raise ``error`` wherever
    they are: a DataError raised before them gives way once the rest of the file, read in
    64 KB chunks and dropped, fails to decode."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            try:
                yield fh
            except DataError:
                while fh.read(1 << 16):
                    pass
                raise
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _lines(fh):
    """``(lineno, line)`` per line of a text handle, its LF, CR or CRLF ending removed."""
    return ((lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, 1))


def _bulk_rows(lines, delimiter=None):
    """The ``lines`` as one 2-d float array from numpy's C reader, or None where it
    declines: an empty body, a ragged row, or a token it does not convert.

    numpy converts each token with the parser ``float`` uses and accepts no
    token that ``float`` rejects, so a caller that reruns its per-line code on
    None keeps that code's every outcome. ``delimiter`` is None (whitespace),
    or ``","`` for lines from :func:`_comma_lines`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns on an empty body
        try:
            rows = np.loadtxt(lines, delimiter=delimiter, comments=None, encoding="utf-8",
                              ndmin=2)
        except ValueError:  # UnicodeDecodeError too
            return None
    return rows if rows.size else None


def _comma_lines(chunks):
    """The lines of the text ``chunks`` (a chunk may end mid-line) for a comma-separated
    :func:`_bulk_rows`. A unit separator (U+001C to U+001F) raises ValueError, so that
    the bulk pass declines: numpy strips one around a value, and ``float`` does not."""

    def split():
        tail = ""
        for chunk in chunks:
            if any(c in chunk for c in "\x1c\x1d\x1e\x1f"):
                raise ValueError("a unit separator")
            *whole, tail = (tail + chunk).split("\n")
            yield whole
        yield [tail]

    return itertools.chain.from_iterable(split())


def _float_rows(path, rows, out, message):
    """Parse each ``(lineno, line)`` of ``rows`` into the same row of ``out``, in bulk where
    numpy takes them all; else a bad token is named first, then a row of the wrong length
    raises ``path:lineno: message``."""
    bulk = _bulk_rows(line for _, line in rows)
    if bulk is not None and bulk.shape == out.shape:
        out[...] = bulk
        return
    for (lineno, line), dest in zip(rows, out):
        row = _parse_floats(line.split(), path, lineno)
        if len(row) != len(dest):
            raise FormatError(f"{path}:{lineno}: {message}")
        dest[:] = row


def _trace_lines(fh, path):
    """``(lineno, line)`` per line of a trace handle that is not blank, stripped."""
    lines = ((lineno, line) for lineno, raw in enumerate(fh, 1) if (line := raw.strip()))
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    return itertools.chain([first], lines)


def _long_order(path, d, w, linenos):
    """Whether the csv-long columns ``d, w`` keep the order rules: delay blocks (runs of
    ``==`` delays, so a NaN delay is a block of its own) rise, and wavelengths rise within
    a block. Where ``linenos`` is given, a broken rule raises at its row's line instead."""
    same = d[1:] == d[:-1]
    bad = np.flatnonzero((d[1:] < d[:-1]) | same & (w[1:] <= w[:-1]))
    if bad.size and linenos is not None:
        i = bad[0]
        rule = ("wavelength not strictly increasing within its delay block" if same[i]
                else "delay blocks must be strictly increasing")
        raise ParseError(f"{path}:{linenos[i + 1]}: {rule}")
    return not bad.size


def _long_trace(path, d, w, v, linenos=None):
    """``(delays, wave, vals)`` of the csv-long columns ``d, w, v``, held to every rule of
    the layout: :func:`_long_order`, then each block has the first block's wavelengths.
    Without ``linenos``, an order error cannot name its line, so None is returned."""
    if not _long_order(path, d, w, linenos):
        return None
    if not d.size:
        raise ParseError(f"{path}: no data rows")
    bounds = [0, *(np.flatnonzero(d[1:] != d[:-1]) + 1).tolist(), d.size]
    wave = w[: bounds[1]]
    for lo, hi in zip(bounds[1:], bounds[2:]):
        if not np.array_equal(w[lo:hi], wave):
            raise ParseError(f"{path}: delay block at {d[lo]:g} ps has a different wavelength axis")
    return d[bounds[:-1]], wave, v.reshape(-1, wave.size)


def _read_trace_long(path, fh):
    """``(delays, wave, vals)`` of a csv-long handle. Its rows are parsed in one bulk pass,
    or line by line from the start where that pass declines; the line pass only turns
    tokens into floats, three per row, and both feed :func:`_long_trace`."""
    lineno, line = next(_trace_lines(fh, path))
    if [t.strip() for t in line.split(",")] != ["delay_ps", "wavelength_nm", "intensity"]:
        raise ParseError(f"{path}:{lineno}: expected header 'delay_ps,wavelength_nm,intensity'")
    rows = _bulk_rows(_comma_lines(iter(lambda: fh.read(1 << 16), "")), ",")
    parsed = None if rows is None or rows.shape[1] != 3 else _long_trace(path, *rows.T)
    if parsed is not None:
        return parsed
    fh.seek(0)
    linenos, vals = array("l"), array("d")
    try:
        for lineno, line in itertools.islice(_trace_lines(fh, path), 1, None):
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 comma-separated columns")
            vals.extend(_parse_floats(parts, path, lineno))
            linenos.append(lineno)
    except ParseError:  # an order error on an earlier line comes first
        _long_order(path, *np.frombuffer(vals).reshape(-1, 3).T[:2], linenos)
        raise
    return _long_trace(path, *np.frombuffer(vals).reshape(-1, 3).T, linenos)


def _matrix_axis(path, lineno, line, axes):
    """Record in ``axes`` the axis that the ``#`` line of a csv-matrix trace gives, if any."""
    body = line[1:].strip()
    for key in ("delay_ps", "wavelength_nm"):
        if body.startswith(key + ":"):
            axes[key] = np.array(_parse_floats(body[len(key) + 1 :].split(), path, lineno))
            if not ARRAY_RULES["strictly monotone"](axes[key]):
                raise ParseError(f"{path}:{lineno}: {key} axis is not strictly monotone")


def _matrix_trace(path, axes, linenos, counts, vals):
    """``(delays, wave, vals)`` of csv-matrix data rows, held to every rule of the layout:
    both axis lines, one row per delay, one column per wavelength. ``linenos`` and
    ``counts`` give each row's line and column count, ``vals`` their values in order."""
    for key in ("delay_ps", "wavelength_nm"):
        if key not in axes:
            raise ParseError(f"{path}: missing '# {key}:' axis line")
    nd, nw = axes["delay_ps"].size, axes["wavelength_nm"].size
    if len(linenos) != nd:
        raise ParseError(f"{path}: expected {nd} data rows, found {len(linenos)}")
    for lineno, count in zip(linenos, counts):
        if count != nw:
            raise ParseError(f"{path}:{lineno}: expected {nw} columns, found {count}")
    return axes["delay_ps"], axes["wavelength_nm"], np.reshape(vals, (nd, nw))


def _read_trace_matrix(path, fh):
    """``(delays, wave, vals)`` of a csv-matrix handle. Its data rows are parsed in one
    bulk pass, or line by line from the start where that pass declines; the line pass
    only turns tokens into floats, and both feed :func:`_matrix_trace`."""
    comments, linenos = [], []  # the ``#`` lines, and the lines of the data rows

    def data():
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith("#"):
                comments.append((lineno, line))
            elif line:
                linenos.append(lineno)
                yield raw

    rows = _bulk_rows(_comma_lines(data()), ",")
    axes = {}
    if rows is not None:
        for lineno, line in comments:  # every data row parsed, so the first error is an axis's
            _matrix_axis(path, lineno, line, axes)
        return _matrix_trace(path, axes, linenos, [rows.shape[1]] * len(rows), rows)
    fh.seek(0)
    linenos, counts, vals = [], [], array("d")
    for lineno, line in _trace_lines(fh, path):
        if line.startswith("#"):
            _matrix_axis(path, lineno, line, axes)
            continue
        row = _parse_floats(line.split(","), path, lineno)
        linenos.append(lineno)
        counts.append(len(row))
        vals.extend(row)
    return _matrix_trace(path, axes, linenos, counts, vals)


def load_trace(path, format: str = "csv-long",
               negative_policy: str = "reject") -> ExperimentalTrace:
    """Read a measured trace.

    ``format`` is ``"csv-long"`` (three columns under a
    ``delay_ps,wavelength_nm,intensity`` header) or ``"csv-matrix"``
    (``# delay_ps:`` and ``# wavelength_nm:`` axis lines, then one
    comma-separated row per delay). ``negative_policy`` decides whether
    negative baseline entries reject the file or clamp to zero; clamped
    cells are counted in ``meta["clamped_count"]``. The file is UTF-8
    text whose lines end at LF, CR or CRLF; blank lines are skipped,
    fields may carry surrounding spaces, and errors name the physical
    line. The file is opened once; its body is parsed in one bulk pass, or
    where that pass declines (a token numpy does not take, or an order
    error, whose line it cannot name) one line at a time, which only turns
    tokens into floats. The rows of either pass meet one set of rules.
    """
    if format not in ("csv-long", "csv-matrix"):
        raise ConfigError(f"unknown trace format {format!r}")
    if negative_policy not in ("reject", "clamp"):
        raise ConfigError(f"unknown negative policy {negative_policy!r}")
    read = _read_trace_long if format == "csv-long" else _read_trace_matrix
    with _utf8_text(path, ParseError) as fh:
        delays, wave, vals = read(path, fh)
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


def _uniform_or_resample(axis, rows_axis_last, what, unit):
    """Return a uniform axis and values, resampling only when needed.

    Resampling keeps every measured sample: each needs a uniform point
    strictly between its two neighbours, or :class:`CalibrationError`
    names the first that would be dropped. So does an axis whose span
    is past the float range.
    """
    if np.isinf(float(axis[-1]) - float(axis[0])):
        raise CalibrationError(f"{what} axis spans past the float range: {axis[0]:g} to "
                               f"{axis[-1]:g} {unit}")
    steps = np.diff(axis)
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0):
        return axis, rows_axis_last
    uniform = np.linspace(axis[0], axis[-1], axis.size)
    dropped = np.flatnonzero(np.searchsorted(uniform, axis[2:], "left")
                             <= np.searchsorted(uniform, axis[:-2], "right"))
    if dropped.size:
        raise CalibrationError(
            f"{what} axis too irregular to resample: a uniform grid of step "
            f"{uniform[1] - uniform[0]:g} {unit} would drop the sample at "
            f"{axis[dropped[0] + 1]:g} {unit}")
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
    w_axis, vals = _uniform_or_resample(w_sorted, vals, "frequency", "rad/ps")
    delays = trace.delay_axis
    if delays[0] > delays[-1]:
        delays = delays[::-1]
        vals = vals[::-1, :]
    tau_axis, vals_t = _uniform_or_resample(delays, vals.T, "delay", "ps")
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
    with _utf8_text(path, FormatError) as fh:
        lines = _lines(fh)
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
    with _utf8_text(path, FormatError) as fh:
        lines = _lines(fh)
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
