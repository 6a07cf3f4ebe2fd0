"""Text I/O tests: streamed trace and map parsing against the line-list
parsers they replaced, arbitrary-byte inputs, atomic writes, and maps
written and read by two processes."""

import contextlib
import dataclasses
import math
import mmap
import os
import re
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from click.testing import CliRunner

import chronomap.cli as cli
from chronomap import (
    ChronoError,
    ComplexField,
    CompassSpec,
    ConfigError,
    FormatError,
    ParseError,
    SampleGrid,
    Spectrogram,
    WignerMap,
    compass_state,
    cross_section,
    dataio,
    export_plot_data,
    load_field,
    load_map,
    load_trace,
    make_grid,
    save_field,
    save_map,
    save_report,
    shg_frog,
    sweep_separation,
)

OMEGA0 = np.pi * 3.3

# ------------------------------------------- reference line-list parsers
#
# Copies of the parsers that read the whole file, split it into lines
# and parsed one token per call. The streamed parsers must return the
# same arrays and raise the same errors.


def _ref_lines(text):
    """``text`` split at LF, CR and CRLF, the line rule of the three formats
    (``str.splitlines`` also splits at \\f, \\x1c and \\x85, among others)."""
    lines = re.split("\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def _ref_parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: not a number: {token!r}") from None


def _ref_trace_long(path, lines):
    header = [t.strip() for t in lines[0][1].split(",")]
    if header != ["delay_ps", "wavelength_nm", "intensity"]:
        raise ParseError(
            f"{path}:{lines[0][0]}: expected header 'delay_ps,wavelength_nm,intensity'"
        )
    blocks = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 comma-separated columns")
        d, w, v = (_ref_parse_float(p, path, lineno) for p in parts)
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


def _ref_trace_matrix(path, lines):
    axes = {}
    rows = []
    for lineno, line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            for key in ("delay_ps", "wavelength_nm"):
                if body.startswith(key + ":"):
                    axes[key] = np.array(
                        [_ref_parse_float(t, path, lineno)
                         for t in body[len(key) + 1 :].split()]
                    )
                    steps = np.diff(axes[key])
                    if not (np.all(steps > 0) or np.all(steps < 0)):
                        raise ParseError(
                            f"{path}:{lineno}: {key} axis is not strictly monotone"
                        )
            continue
        rows.append((lineno, [_ref_parse_float(t, path, lineno) for t in line.split(",")]))
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


def _ref_load_trace(path, format, negative_policy):
    """The reference trace read, up to (not including) the trace type."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (i + 1, ln.strip())
            for i, ln in enumerate(_ref_lines(fh.read()))
            if ln.strip()
        ]
    if not lines:
        raise ParseError(f"{path}: empty file")
    if format == "csv-long":
        delays, wave, vals = _ref_trace_long(path, lines)
    else:
        delays, wave, vals = _ref_trace_matrix(path, lines)
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
    return delays, wave, vals, meta


def _ref_load_map(path):
    """The reference map read, up to (not including) the map type."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = _ref_lines(raw.decode("utf-8"))
    magic = dataio.MAP_MAGIC
    if not lines or lines[0].split(" v")[0] != magic.split(" v")[0]:
        raise FormatError(f"{path}: not a {magic} file")
    if lines[0] != magic:
        raise FormatError(f"{path}: unsupported version {lines[0]!r}")
    if len(lines) < 4:
        raise FormatError(f"{path}: truncated header")
    header = lines[1].split()
    if len(header) != 4 or not header[3].startswith("scale="):
        raise FormatError(f"{path}:2: malformed map header")
    kind = header[0]
    if kind not in ("spectrogram", "wigner"):
        raise FormatError(f"{path}:2: unknown map kind {kind!r}")
    scale = _ref_parse_float(header[3][len("scale="):], path, 2)
    ax1 = np.array([_ref_parse_float(t, path, 3) for t in lines[2].split()])
    ax2 = np.array([_ref_parse_float(t, path, 4) for t in lines[3].split()])
    rows = [ln for ln in lines[4:] if ln.strip()]
    if len(rows) != ax1.size:
        raise FormatError(
            f"{path}: expected {ax1.size} value rows, found {len(rows)} (truncated?)"
        )
    values = np.empty((ax1.size, ax2.size))
    for i, ln in enumerate(rows):
        row = [_ref_parse_float(t, path, 5 + i) for t in ln.split()]
        if len(row) != ax2.size:
            raise FormatError(f"{path}:{5 + i}: expected {ax2.size} values per row")
        values[i] = row
    return kind, ax1, ax2, values, scale


def _ref_load_field(path):
    """The reference field read, up to (not including) the field type."""
    with open(path, "rb") as fh:
        lines = _ref_lines(fh.read().decode("utf-8"))
    magic = dataio.FIELD_MAGIC
    if not lines or lines[0] != magic:
        raise FormatError(f"{path}: not a {magic} file")
    if len(lines) < 2:
        raise FormatError(f"{path}: truncated header")
    parts = lines[1].split()
    if len(parts) != 3:
        raise FormatError(f"{path}:2: expected 'n dt t_start'")
    try:
        n = int(parts[0])
    except ValueError:
        raise FormatError(f"{path}:2: sample count is not an integer: {parts[0]!r}") from None
    dt, t_start = (_ref_parse_float(t, path, 2) for t in parts[1:])
    grid = dataio._built(SampleGrid, FormatError, f"{path}:2", n, dt, t_start)
    rows = [(3 + i, ln) for i, ln in enumerate(lines[2:]) if ln.strip()]
    if len(rows) != n:
        raise FormatError(f"{path}: expected {n} sample rows, found {len(rows)}")
    pairs = np.empty((n, 2))
    for (lineno, ln), dest in zip(rows, pairs):
        row = [_ref_parse_float(t, path, lineno) for t in ln.split()]
        if len(row) != 2:
            raise FormatError(f"{path}:{lineno}: expected 're im'")
        dest[:] = row
    return grid, pairs.view(complex).ravel()


# -------------------------------------------------------- trace strategies


def _ascending(lo, hi, min_size, max_size):
    return st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=min_size, max_size=max_size,
        unique=True,
    ).map(sorted)


@st.composite
def traces(draw):
    """A valid trace as (delays, wavelengths, intensities)."""
    delays = draw(_ascending(-50, 50, 2, 5))
    waves = draw(_ascending(300, 1500, 2, 6))
    vals = draw(st.lists(
        st.floats(-0.5, 10, allow_nan=False),
        min_size=len(delays) * len(waves), max_size=len(delays) * len(waves),
    ))
    return delays, waves, np.array(vals).reshape(len(delays), len(waves)).tolist()


PADS = ["", "", " ", "  ", "\t"]
BLANKS = [None, None, None, None, "", "  ", "\t"]


@st.composite
def layouts(draw):
    """How to lay text lines out: token padding, blank lines, line ends and
    the intensity format (axes keep ``repr`` so that they stay distinct)."""
    rnd = draw(st.randoms(use_true_random=False))
    return types.SimpleNamespace(
        pad=lambda tok: rnd.choice(PADS) + tok + rnd.choice(PADS),
        blank=lambda: rnd.choice(BLANKS),
        newline=draw(st.sampled_from(["\n", "\r\n", "\r"])),
        last=draw(st.booleans()),
        fmt=draw(st.sampled_from([repr, lambda x: f"{x:.6g}", lambda x: f"{x:.3e}"])),
    )


def _join(lines, lay):
    out = []
    for line in lines:
        blank = lay.blank()
        if blank is not None:
            out.append(blank)
        out.append(line)
    return lay.newline.join(out) + (lay.newline if lay.last else "")


def _long_lines(trace, lay):
    delays, waves, vals = trace
    lines = [",".join(lay.pad(h) for h in ("delay_ps", "wavelength_nm", "intensity"))]
    for d, row in zip(delays, vals):
        for w, v in zip(waves, row):
            lines.append(",".join(lay.pad(t) for t in (repr(d), repr(w), lay.fmt(v))))
    return lines


def _matrix_lines(trace, lay):
    delays, waves, vals = trace
    lines = [
        "# delay_ps: " + " ".join(lay.pad(repr(d)) for d in delays),
        "# wavelength_nm: " + " ".join(lay.pad(repr(w)) for w in waves),
        "# a comment line",
    ]
    lines += [",".join(lay.pad(lay.fmt(v)) for v in row) for row in vals]
    return lines


def _write_bytes(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return str(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ChronoError as exc:
        return type(exc), str(exc)


_HYP = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@_HYP
@given(traces(), layouts(), st.sampled_from(["csv-long", "csv-matrix"]))
def test_load_trace_matches_reference(tmp_path, trace, lay, fmt):
    lines = _long_lines(trace, lay) if fmt == "csv-long" else _matrix_lines(trace, lay)
    path = _write_bytes(tmp_path, "t.csv", _join(lines, lay))
    delays, wave, vals, meta = _ref_load_trace(path, fmt, "clamp")
    got = load_trace(path, fmt, "clamp")
    assert np.array_equal(got.delay_axis, delays)
    assert np.array_equal(got.wavelength_axis, wave)
    assert np.array_equal(got.intensities, vals)
    assert got.meta == meta


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _set_wavelength(lines, k, text):
    d, _, v = lines[k].split(",")
    lines[k] = ",".join((d, text, v))


# Each defect edits a valid file's line list (header or axis lines first)
# and leaves it malformed in exactly one way.
LONG_DEFECTS = {
    "bad token": lambda ls, k: ls.__setitem__(k, ls[k].replace(",", ",x", 1)),
    "two columns": lambda ls, k: ls.__setitem__(k, ls[k].rsplit(",", 1)[0]),
    "four columns": lambda ls, k: ls.__setitem__(k, ls[k] + ",1"),
    "header": lambda ls, k: ls.__setitem__(0, "delay,wavelength,intensity"),
    "header only": lambda ls, k: ls.__delitem__(slice(1, None)),
    "nan intensity": lambda ls, k: ls.__setitem__(k, ls[k].rsplit(",", 1)[0] + ",nan"),
    "wavelength order": lambda ls, k: _swap(ls, k, k + 1),
    "block order": lambda ls, k: _swap(ls, 1, len(ls) - 1),
    "short block": lambda ls, k: ls.__delitem__(len(ls) - 1),
    "moved wavelength": lambda ls, k: _set_wavelength(
        ls, len(ls) - 1, repr(float(ls[-1].split(",")[1]) + 1.0)),
    "repeated wavelength": lambda ls, k: _set_wavelength(ls, k + 1, ls[k].split(",")[1]),
}
MATRIX_DEFECTS = {
    "bad token": lambda ls, k: ls.__setitem__(k, ls[k] + "x"),
    "bad axis token": lambda ls, k: ls.__setitem__(1, ls[1] + " y"),
    "axis order": lambda ls, k: ls.__setitem__(0, "# delay_ps: 3 1 2"),
    "missing axis": lambda ls, k: ls.__delitem__(1),
    "missing row": lambda ls, k: ls.__delitem__(len(ls) - 1),
    "short row": lambda ls, k: ls.__setitem__(k, ls[k].rsplit(",", 1)[0]),
    "nan intensity": lambda ls, k: ls.__setitem__(k, "nan," + ls[k].split(",", 1)[1]),
}


@_HYP
@given(traces(), layouts(), st.sampled_from(sorted(LONG_DEFECTS)), st.data())
def test_long_trace_defects_match_reference(tmp_path, trace, lay, defect, data):
    trace[2][:] = [[abs(v) for v in row] for row in trace[2]]
    lines = _long_lines(trace, lay)
    nw = len(trace[1])
    k = data.draw(st.integers(1, len(lines) - 2))
    assume(defect not in ("wavelength order", "repeated wavelength") or k % nw != 0)
    LONG_DEFECTS[defect](lines, k)
    path = _write_bytes(tmp_path, "bad.csv", _join(lines, lay))
    expected = _outcome(_ref_load_trace, path, "csv-long", "reject")
    assert isinstance(expected, tuple) and expected[0] is ParseError
    assert _outcome(load_trace, path, "csv-long", "reject") == expected


@_HYP
@given(traces(), layouts(), st.sampled_from(sorted(MATRIX_DEFECTS)), st.data())
def test_matrix_trace_defects_match_reference(tmp_path, trace, lay, defect, data):
    trace[2][:] = [[abs(v) for v in row] for row in trace[2]]
    lines = _matrix_lines(trace, lay)
    k = data.draw(st.integers(3, len(lines) - 1))
    MATRIX_DEFECTS[defect](lines, k)
    path = _write_bytes(tmp_path, "bad.csv", _join(lines, lay))
    expected = _outcome(_ref_load_trace, path, "csv-matrix", "reject")
    assert isinstance(expected, tuple) and expected[0] is ParseError
    assert _outcome(load_trace, path, "csv-matrix", "reject") == expected


def test_block_mismatch_reported_after_stream_errors(tmp_path):
    # The reference reports a mismatched block only once every row has
    # parsed, so a later bad token wins over an earlier short block.
    text = (
        "delay_ps,wavelength_nm,intensity\n"
        "0,780,1\n0,781,1\n1,780,1\n2,780,1\n2,781,oops\n"
    )
    path = _write_bytes(tmp_path, "both.csv", text)
    expected = _outcome(_ref_load_trace, path, "csv-long", "reject")
    assert expected == (ParseError, f"{path}:6: not a number: 'oops'")
    assert _outcome(load_trace, path, "csv-long", "reject") == expected


# ----------------------------------------------------------- map files


def _map_text(m, lay):
    lines = [dataio.MAP_MAGIC, f"spectrogram delay_ps ang_freq_rad_per_ps scale={m.scale!r}",
             " ".join(lay.pad(repr(x)) for x in m.tau_axis.tolist()),
             " ".join(lay.pad(repr(x)) for x in m.omega_axis.tolist())]
    lines += [" ".join(lay.pad(repr(x)) for x in row) for row in m.values.tolist()]
    return lay.newline.join(lines) + lay.newline


@pytest.fixture(scope="module")
def small_map():
    vals = np.random.default_rng(5).random((5, 6))
    return Spectrogram(0.1 * np.arange(-2, 3), -1.0 + 0.4 * np.arange(6),
                       vals / vals.max(), 2.5)


MAP_DEFECTS = {
    "bad token": lambda ls, k: ls.__setitem__(k, ls[k] + " 1.0x"),
    "short row": lambda ls, k: ls.__setitem__(k, " ".join(ls[k].split()[:-1])),
    "bad axis token": lambda ls, k: ls.__setitem__(3, ls[3] + " z"),
    "missing row": lambda ls, k: ls.__delitem__(len(ls) - 1),
    "bad scale": lambda ls, k: ls.__setitem__(1, ls[1] + "e"),
    "header": lambda ls, k: ls.__setitem__(1, "spectrogram delay_ps"),
}


@_HYP
@given(layouts(), st.sampled_from(sorted(MAP_DEFECTS) + [None]), st.data())
def test_load_map_matches_reference(tmp_path, small_map, lay, defect, data):
    lines = _map_text(small_map, lay).split(lay.newline)[:-1]
    if defect is not None:
        MAP_DEFECTS[defect](lines, data.draw(st.integers(4, len(lines) - 1)))
    path = _write_bytes(tmp_path, "m.chronomap", lay.newline.join(lines) + lay.newline)
    expected = _outcome(_ref_load_map, path)
    got = _outcome(load_map, path)
    if defect is None:
        kind, ax1, ax2, values, scale = expected
        assert kind == "spectrogram" and got.scale == scale
        for a, b in ((got.tau_axis, ax1), (got.omega_axis, ax2), (got.values, values)):
            assert np.array_equal(a, b)
    else:
        assert expected[0] is FormatError or expected[0] is ParseError
        assert got == expected


# --------------------------------------------------- arbitrary inputs


def _fuzz_bytes(magic):
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda b: magic + b),
    )


def _load_any(loader, tmp_path, raw, *args):
    p = tmp_path / "fuzz.dat"
    p.write_bytes(raw)
    try:
        loader(str(p), *args)
    except ChronoError:
        pass


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_bytes(b"delay_ps,wavelength_nm,intensity\n0,780,1\n"),
       st.sampled_from(["csv-long", "csv-matrix"]), st.sampled_from(["reject", "clamp"]))
def test_load_trace_arbitrary_bytes_raise_only_chrono_errors(tmp_path, raw, fmt, policy):
    _load_any(load_trace, tmp_path, raw, fmt, policy)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_bytes(b"CHRONO-MAP v1\nspectrogram delay_ps ang_freq_rad_per_ps scale=1.0\n"))
def test_load_map_arbitrary_bytes_raise_only_chrono_errors(tmp_path, raw):
    _load_any(load_map, tmp_path, raw)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_bytes(b"CHRONO-FIELD v1\n16 0.5 -4.0\n"))
def test_load_field_arbitrary_bytes_raise_only_chrono_errors(tmp_path, raw):
    _load_any(load_field, tmp_path, raw)


# ------------------------------------------- bulk pass against the references
#
# Every numeric body is parsed by numpy's reader first, and line by line only
# where that pass declines. Each body below starts from valid rows and has one
# case where numpy's reader and float(), or the line rule, could part.

# float() takes the first two; numpy's reader strips \xa0, \x85 and \u2028 as
# float() does, and \x1c-\x1f around a comma-separated value, which float() does not
BULK_TOKENS = ["1_0", "\u0661", "\xa0", "\x85", "\u2028", "\x00", "\x1c", "\x1f"]
BULK_CASES = ["none", "insert", "replace", "space line", "trailing comma", "hash",
              "blank before", "empty body"]
# the defects of the per-line tests, with the first and last line (from the end) they edit
BULK_DEFECTS = {"csv-long": (LONG_DEFECTS, 1, 2), "csv-matrix": (MATRIX_DEFECTS, 3, 1),
                "map": (MAP_DEFECTS, 4, 1)}


def _data_lines(kind, draw, lay):
    """Valid lines of a ``kind`` file, and the index of its first data line."""
    if kind in ("csv-long", "csv-matrix"):
        trace = draw(traces())
        if kind == "csv-long":
            return _long_lines(trace, lay), 1
        return _matrix_lines(trace, lay), 3
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _DENORMALS)
    if kind == "map":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        vals = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        lines = [dataio.MAP_MAGIC, "wigner delay_ps ang_freq_rad_per_ps scale=1.5",
                 " ".join(repr(0.5 * i) for i in range(rows)),
                 " ".join(repr(0.25 * i) for i in range(cols))]
        lines += [" ".join(lay.pad(repr(v)) for v in vals[i * cols:(i + 1) * cols])
                  for i in range(rows)]
        return lines, 4
    vals = draw(st.lists(values, min_size=32, max_size=32))
    lines = [dataio.FIELD_MAGIC, "16 0.5 -4.0"]
    lines += [lay.pad(repr(re)) + " " + lay.pad(repr(im)) for re, im in zip(vals[::2], vals[1::2])]
    return lines, 2


@st.composite
def bulk_bodies(draw, kinds=("csv-long", "csv-matrix", "map", "field"), defect=None):
    """``(kind, text)``: a valid file of one of the four bodies with one drawn case, or
    with the named defect of the per-line tests."""
    kind = draw(st.sampled_from(kinds))
    lay = draw(layouts())
    lines, first = _data_lines(kind, draw, lay)
    case = "defect" if defect else draw(st.sampled_from(BULK_CASES))
    k = draw(st.integers(first, len(lines) - 1))
    token = draw(st.sampled_from(BULK_TOKENS))
    if case == "insert":  # often next to a separator, where stripping rules differ
        edges = {0, len(lines[k])} | {i + j for i, c in enumerate(lines[k]) if c in ", \t"
                                      for j in (0, 1)}
        i = draw(st.sampled_from(sorted(edges)) | st.integers(0, len(lines[k])))
        lines[k] = lines[k][:i] + token + lines[k][i:]
    elif case == "replace":
        sep = "," if kind.startswith("csv") else " "
        parts = lines[k].split(sep)
        parts[draw(st.integers(0, len(parts) - 1))] = token
        lines[k] = sep.join(parts)
    elif case == "space line":
        lines.insert(k, draw(st.sampled_from([" ", "\t", " \t "])))
    elif case == "trailing comma":
        lines[k] += ","
    elif case == "hash":
        lines[k] += draw(st.sampled_from(["#", " # x", "#1"]))
    elif case == "blank before":
        lines[:0] = [""] * draw(st.integers(1, 3))
    elif case == "empty body":
        del lines[first:]
    elif case == "defect":
        defects, lo, last = BULK_DEFECTS[kind]
        defects[defect](lines, draw(st.integers(lo, len(lines) - last)))
    return kind, lay.newline.join(lines) + (lay.newline if lay.last else "")


def _ref_outcome(kind, path, policy):
    """The reference read of ``path``, built into the loader's type, or its error."""
    try:
        if kind == "map":
            kind_name, ax1, ax2, values, scale = _ref_load_map(path)
            return dataio._built(dataio._MAP_TYPES[kind_name], FormatError, path,
                                 ax1, ax2, values, scale)
        if kind == "field":
            return dataio._built(ComplexField, FormatError, path, *_ref_load_field(path))
        return dataio._built(dataio.ExperimentalTrace, ParseError, path,
                             *_ref_load_trace(path, kind, policy))
    except ChronoError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(kind, path, loader, policy="reject"):
    """``loader(path)`` and the reference give the same error, or the same type with
    bitwise equal fields (signbit included), with no warning from either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, expected = _outcome(loader, path), _ref_outcome(kind, path, policy)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
        return
    assert type(got) is type(expected)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bulk_bodies(), st.sampled_from(["reject", "clamp"]))
def test_bulk_pass_changes_no_outcome(tmp_path, body, policy):
    kind, text = body
    path = _write_bytes(tmp_path, "body.txt", text)
    loaders = {"map": load_map, "field": load_field}
    loader = loaders.get(kind, lambda p: load_trace(p, kind, policy))
    _assert_same_outcome(kind, path, loader, policy)


LONG_HEAD = "delay_ps,wavelength_nm,intensity\n"


MAP_2X2_HEAD = "CHRONO-MAP v1\nwigner delay_ps ang_freq_rad_per_ps scale=1.0\n0 0.5\n0 1\n"


@pytest.mark.parametrize("kind,text", [
    pytest.param("csv-long", LONG_HEAD + "0,780,1\n0,781\x1c,2\n1,780,3\n1,781,4\n",
                 id="long-unit-separator"),
    pytest.param("csv-matrix", "# delay_ps: 0 1\n# wavelength_nm: 780 781\n1,2\n3\x1f,4\n",
                 id="matrix-unit-separator"),
    pytest.param("map", MAP_2X2_HEAD + "1 1_0\n-0.0 2\n", id="map-underscore"),
    pytest.param("csv-long", LONG_HEAD + "0,780,1,2\n", id="long-one-row-of-four"),
    pytest.param("csv-long", LONG_HEAD + "1,780,1\n1,781,2\n0,780,3\n0,781,4\n",
                 id="long-falling-delays"),
    pytest.param("csv-long", LONG_HEAD + "0,781,1\n0,780,2\n1,781,3\n1,780,4\n",
                 id="long-equal-falling-wavelengths"),
    pytest.param("csv-long", LONG_HEAD + "0,780,1\n0,781,2\n1,780,3\n2,781,4\n",
                 id="long-unequal-blocks"),
    pytest.param("csv-matrix", "1,x\n# delay_ps: 1 0 2\n# wavelength_nm: 780 781\n",
                 id="matrix-row-before-axis"),
    pytest.param("map", MAP_2X2_HEAD + "1\n2\n", id="map-every-row-short"),
])
def test_bulk_pass_meets_edge_cases_as_the_references_do(tmp_path, kind, text):
    path = _write_bytes(tmp_path, "body.txt", text)
    _assert_same_outcome(kind, path, load_map if kind == "map" else
                         lambda p: load_trace(p, kind, "reject"))


@pytest.mark.parametrize("kind,defect", [(kind, defect) for kind, (defects, *_) in
                                         BULK_DEFECTS.items() for defect in sorted(defects)])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bulk_pass_meets_each_defect_as_the_references_do(tmp_path, kind, defect, data):
    kind, text = data.draw(bulk_bodies([kind], defect))
    path = _write_bytes(tmp_path, "body.txt", text)
    _assert_same_outcome(kind, path, load_map if kind == "map" else
                         lambda p: load_trace(p, kind, "reject"))


def test_valid_bodies_take_the_bulk_pass(tmp_path, monkeypatch, small_map, outputs):
    # the per-line parser reads only header and axis lines
    calls = []
    real = dataio._parse_floats
    monkeypatch.setattr(dataio, "_parse_floats", lambda *a: calls.append(1) or real(*a))
    lay = types.SimpleNamespace(pad=str, blank=lambda: None, newline="\n", last=True, fmt=repr)
    trace = ([0.0, 0.5, 1.0], [780.0, 781.0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    for kind, text, loader, header_calls in (
        ("csv-long", _join(_long_lines(trace, lay), lay), load_trace, 0),
        ("csv-matrix", _join(_matrix_lines(trace, lay), lay),
         lambda p: load_trace(p, "csv-matrix"), 2),
        ("map", _map_text(small_map, lay), load_map, 3),
    ):
        calls.clear()
        loader(_write_bytes(tmp_path, kind, text))
        assert len(calls) == header_calls, kind
    p = tmp_path / "f.chronofield"
    save_field(outputs.field, str(p))
    calls.clear()
    load_field(str(p))
    assert len(calls) == 1


# ------------------------------------------------------- data errors


def test_non_utf8_bytes_mid_trace_are_parse_errors(tmp_path):
    # Far enough in that the decoder meets them after yielding lines.
    rows = "".join(f"{d},{w},1.0\n" for d in range(400) for w in (780, 781))
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"delay_ps,wavelength_nm,intensity\n" + rows.encode() + b"9,780,\xe9\n")
    with pytest.raises(ParseError, match="latin1.csv: not UTF-8"):
        load_trace(str(p))


def test_non_utf8_field_is_format_error(tmp_path):
    # maps read their lines the same way
    for loader, name, head in ((load_field, "f.chronofield", b"CHRONO-FIELD v1\n16 0.5 -4.0\n"),
                               (load_map, "m.chronomap", MAP_HEAD.encode())):
        p = tmp_path / name
        p.write_bytes(head + b"\xff\xfe 0\n")
        with pytest.raises(FormatError) as info:
            loader(str(p))
        assert str(info.value) == f"{p}: not UTF-8 text (invalid start byte)"


def test_field_grid_and_sample_errors_are_format_errors(tmp_path):
    p = tmp_path / "g.chronofield"
    p.write_text("CHRONO-FIELD v1\n12 0.5 -4.0\n" + "0.0 0.0\n" * 12)
    with pytest.raises(FormatError, match=r"g\.chronofield:2"):
        load_field(str(p))
    p.write_text("CHRONO-FIELD v1\n16 0.5 -4.0\n" + "0.0 0.0\n" * 15 + "nan 0.0\n")
    with pytest.raises(FormatError, match="finite"):
        load_field(str(p))


MAP_HEAD = "CHRONO-MAP v1\nspectrogram delay_ps ang_freq_rad_per_ps scale=1.0\n0.0 0.5\n0 1 2 3\n"


@pytest.mark.parametrize("row,error,message", [
    ("0.5 bad 1 1", ParseError, "not a number: 'bad'"),
    ("0.5 1 1", FormatError, "expected 4 values per row"),
])
def test_map_errors_name_the_physical_line(tmp_path, row, error, message):
    # line 5 holds the first row, line 6 is blank, line 7 the bad row
    path = _write_bytes(tmp_path, "blank.chronomap", MAP_HEAD + "1 1 1 1\n\n" + row + "\n")
    with pytest.raises(error) as info:
        load_map(path)
    assert str(info.value) == f"{path}:7: {message}"


@pytest.mark.parametrize("row,message,newline", [
    pytest.param(row, message, newline, id=f"{row}-{message}{suffix}")
    for newline, suffix in (("\n", ""), ("\r\n", "-CRLF"), ("\r", "-CR"))
    for row, message in (("0.0 x", "not a number: 'x'"), ("0.0", "expected 're im'"),
                         ("0.0 x 1", "not a number: 'x'"))  # the bad token before the count
])
def test_field_errors_name_the_physical_line(tmp_path, row, message, newline):
    # samples start on line 3; blank lines 4 and 6 put the bad row on line 7
    lines = ["CHRONO-FIELD v1", "16 0.5 -4.0", "0.0 0.0", "", "0.0 0.0", "", row]
    path = _write_bytes(tmp_path, "blank.chronofield",
                        newline.join(lines + ["0.0 0.0"] * 13) + newline)
    with pytest.raises(FormatError if "re im" in message else ParseError) as info:
        load_field(path)
    assert str(info.value) == f"{path}:7: {message}"


def test_map_values_may_be_separated_by_a_form_feed(tmp_path):
    # str.split() separates values at these characters; only LF, CR and CRLF end a line
    for sep in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        path = _write_bytes(tmp_path, "sep.chronomap", MAP_HEAD + f"1{sep}1 1 1\n2 2 2{sep}2\n")
        assert np.array_equal(load_map(path).values, [[1, 1, 1, 1], [2, 2, 2, 2]])


def test_single_delay_block_is_parse_error(tmp_path):
    path = _write_bytes(tmp_path, "one.csv",
                        "delay_ps,wavelength_nm,intensity\n0,780,1\n0,781,2\n")
    with pytest.raises(ParseError, match=r"one\.csv: trace delay axis"):
        load_trace(path)


# ------------------------------------------------------------ writes


def test_format_row_matches_per_element_repr():
    vals = np.array([0.1, -0.0, 1e-300, 2.5e17, np.pi, 1 / 3])
    assert dataio._format_row(vals) == " ".join(repr(float(v)) for v in vals)
    assert dataio._format_row([1, 2]) == "1.0 2.0"


@pytest.fixture(scope="module")
def outputs():
    g = make_grid(256, 0.04, -5.12)
    spec = CompassSpec(1.0, OMEGA0, 0.25)
    f = compass_state(g, spec)
    m = shg_frog(f, 0.04 * np.arange(-8, 9))
    return types.SimpleNamespace(
        field=f, map=m, section=cross_section(m, "delay", 0.0),
        sweep=sweep_separation(spec, (1.0,), g),
    )


WRITERS = {
    "save_map": lambda o, p: save_map(o.map, p),
    "save_map pgm": lambda o, p: save_map(o.map, p, format="pgm"),
    "save_field": lambda o, p: save_field(o.field, p),
    "save_report": lambda o, p: save_report(o.sweep, p),
    "export_plot_data": lambda o, p: export_plot_data(o.section, p),
    "stamp": lambda o, p: cli._export(o.section, p, stamp=True),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, outputs, writer):
    p = tmp_path / "out.dat"
    p.write_text("old content\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](outputs, str(p))
    assert p.read_text() == "old content\n"
    assert os.listdir(tmp_path) == ["out.dat"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_replace_old_file(tmp_path, outputs, writer):
    p = tmp_path / "out.dat"
    p.write_text("old content\n")
    WRITERS[writer](outputs, str(p))
    assert p.read_bytes() != b"old content\n"
    assert os.listdir(tmp_path) == ["out.dat"]


def test_save_map_failing_mid_way_keeps_old_file(tmp_path, monkeypatch, outputs):
    p = tmp_path / "m.chronomap"
    save_map(outputs.map, str(p))
    before = p.read_bytes()
    calls = []

    def format_row(values):
        calls.append(1)
        if len(calls) == 5:
            raise MemoryError
        return " ".join(map(repr, np.asarray(values, float).tolist()))

    monkeypatch.setattr(dataio, "_format_row", format_row)
    with pytest.raises(MemoryError):
        save_map(outputs.map, str(p))
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.chronomap"]


class _FailingFooter:
    """A write handle that fails on the ``# zeros:`` footer of a cross-section."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        if text.startswith("# zeros:"):
            raise OSError("disk full")
        return self.fh.write(text)


def test_crosscut_footer_failure_keeps_old_file(tmp_path, monkeypatch, outputs):
    src = tmp_path / "m.chronomap"
    save_map(outputs.map, str(src))
    out = tmp_path / "cut.dat"
    out.write_text("old content\n")
    real_open = dataio.atomic_open

    @contextlib.contextmanager
    def failing_open(path, mode="w"):
        with real_open(path, mode) as fh:
            yield _FailingFooter(fh)

    monkeypatch.setattr(dataio, "atomic_open", failing_open)
    result = CliRunner().invoke(cli.main, ["crosscut", "--input", str(src),
                                           "--axis", "delay", "--out", str(out)])
    assert result.exit_code == 5, result.output
    assert "disk full" in result.output
    assert out.read_text() == "old content\n"
    assert sorted(os.listdir(tmp_path)) == ["cut.dat", "m.chronomap"]


@pytest.mark.parametrize("command", ["crosscut", "figure 5a"])
def test_stamp_adds_one_line_before_the_same_bytes(tmp_path, outputs, command):
    src = tmp_path / "m.chronomap"
    save_map(outputs.map, str(src))
    bodies = []
    for stamp in ([], ["--stamp"]):
        out = tmp_path / f"out{len(bodies)}"
        if command == "crosscut":
            args = ["crosscut", "--input", str(src), "--axis", "delay",
                    "--out", str(out / "cut.dat"), *stamp]
            out.mkdir()
        else:
            args = [*stamp, "--figure", "5a", "--out", str(out)]
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        name = "cut.dat" if command == "crosscut" else "fig5a_areas.dat"
        bodies.append((out / name).read_bytes())
    plain, stamped = bodies
    first, rest = stamped.split(b"\n", 1)
    assert re.fullmatch(rb"# generated \d{4}-\d\d-\d\dT[\d:.]+\+00:00", first), first
    assert rest == plain


def test_rejected_format_leaves_no_file(tmp_path, outputs):
    with pytest.raises(ConfigError):
        save_map(outputs.map, str(tmp_path / "x"), format="tiff")
    assert os.listdir(tmp_path) == []


def test_write_errors_name_the_target_path(tmp_path, outputs):
    target = tmp_path / "missing-dir" / "m.chronomap"
    with pytest.raises(FileNotFoundError) as info:
        save_map(outputs.map, str(target))
    assert str(target) in str(info.value) and ".tmp" not in str(info.value)


# ------------------------------------------------ two-process map I/O
#
# SPLIT_CELLS is patched down so that small maps take the forked path,
# or up to infinity so that the same call stays serial.


def _cutoff(monkeypatch, cells):
    """Set the split cutoff; return the list of forks made from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(dataio, "SPLIT_CELLS", cells)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _on_shared_pages(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(getattr(a, "obj", a), mmap.mmap)  # numpy wraps it in a memoryview


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(parent, fn):
    """``fn`` that raises MemoryError when called in a forked child of ``parent``."""

    def call(*args):
        if os.getpid() != parent:
            raise MemoryError
        return fn(*args)

    return call


_DENORMALS = st.sampled_from([5e-324, -5e-324, 1e-310, -2.2e-308, -0.0, 0.0])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([1, 2, 3, 4, 7, 8, 11]), st.integers(1, 6), st.data())
def test_split_map_io_gives_the_serial_bytes(tmp_path, monkeypatch, rows, cols, data):
    values = data.draw(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), _DENORMALS),
        min_size=rows * cols, max_size=rows * cols))
    m = WignerMap(-1.0 + 0.5 * np.arange(rows), 0.25 * np.arange(cols),
                  np.reshape(values, (rows, cols)), 1.5)
    outs = []
    for cells in (math.inf, 1):
        forks = _cutoff(monkeypatch, cells)
        p = tmp_path / f"m{len(outs)}.chronomap"
        save_map(m, str(p))
        back = load_map(str(p))
        assert np.array_equal(back.values, m.values)
        assert np.array_equal(np.signbit(back.values), np.signbit(m.values))
        assert _on_shared_pages(back.values) == (cells == 1)
        assert len(forks) == (2 if cells == 1 and rows > 1 else 0)
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]
    _assert_no_children()


def _defective(path, outputs, rows):
    """``outputs.map`` as text, with a bad token or a short row in the given rows
    (value row i is line 5 + i; the 17 rows split at row 8)."""
    save_map(outputs.map, path)
    with open(path) as fh:
        lines = fh.read().split("\n")
    for i, defect in rows:
        tokens = lines[4 + i].split()
        lines[4 + i] = " ".join(tokens[:-1] if defect == "short" else tokens + ["1.0x"])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


@pytest.mark.parametrize("rows", [
    [(2, "bad")], [(12, "bad")], [(3, "bad"), (14, "bad")], [(16, "short")],
    [(8, "short"), (9, "bad")], [(7, "bad"), (13, "short")],
], ids=str)
def test_split_load_map_gives_the_serial_errors(tmp_path, monkeypatch, outputs, rows):
    path = str(tmp_path / "m.chronomap")
    _defective(path, outputs, rows)
    _cutoff(monkeypatch, math.inf)
    serial = _outcome(load_map, path)
    forks = _cutoff(monkeypatch, 1)
    assert _outcome(load_map, path) == serial
    first = 5 + rows[0][0]
    assert serial[1].startswith(f"{path}:{first}: ")
    assert len(forks) == 1
    _assert_no_children()


def test_split_map_io_redoes_a_failed_childs_rows(tmp_path, monkeypatch, outputs):
    p = tmp_path / "m.chronomap"
    save_map(outputs.map, str(p))
    serial = p.read_bytes()
    forks = _cutoff(monkeypatch, 1)
    parent = os.getpid()
    monkeypatch.setattr(dataio, "_format_row", _in_child(parent, dataio._format_row))
    monkeypatch.setattr(dataio, "_bulk_rows", _in_child(parent, dataio._bulk_rows))
    save_map(outputs.map, str(p))
    assert p.read_bytes() == serial
    assert np.array_equal(load_map(str(p)).values, outputs.map.values)
    assert len(forks) == 2 and os.listdir(tmp_path) == ["m.chronomap"]
    _assert_no_children()


def test_split_save_map_failed_replace_keeps_old_file(tmp_path, monkeypatch, outputs):
    forks = _cutoff(monkeypatch, 1)
    test_failed_write_keeps_old_file(tmp_path, monkeypatch, outputs, "save_map")
    assert len(forks) == 1
    _assert_no_children()


def test_split_save_map_failing_mid_way_keeps_old_file(tmp_path, monkeypatch, outputs):
    forks = _cutoff(monkeypatch, 1)
    test_save_map_failing_mid_way_keeps_old_file(tmp_path, monkeypatch, outputs)
    assert len(forks) == 2  # the first save, then the failing one
    _assert_no_children()


@pytest.mark.parametrize("op", ["save_map", "load_map"])
def test_split_parent_interrupted_kills_the_child(tmp_path, monkeypatch, outputs, op):
    p = tmp_path / "m.chronomap"
    save_map(outputs.map, str(p))
    before = p.read_bytes()
    forks = _cutoff(monkeypatch, 1)
    parent = os.getpid()
    name = "_format_row" if op == "save_map" else "_bulk_rows"
    real = getattr(dataio, name)
    calls = []

    def step(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a child still busy when the parent is interrupted
        calls.append(1)
        if len(calls) == (5 if op == "save_map" else 1):  # the parent's third row, or half
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(dataio, name, step)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        save_map(outputs.map, str(p)) if op == "save_map" else load_map(str(p))
    assert time.monotonic() - began < 30
    assert len(forks) == 1
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.chronomap"]
    _assert_no_children()


def test_map_io_without_fork_stays_serial(tmp_path, monkeypatch, outputs):
    p = tmp_path / "m.chronomap"
    save_map(outputs.map, str(p))
    serial = p.read_bytes()
    monkeypatch.setattr(dataio, "SPLIT_CELLS", 1)
    monkeypatch.delattr(os, "fork")
    save_map(outputs.map, str(p))
    assert p.read_bytes() == serial
    back = load_map(str(p))
    assert np.array_equal(back.values, outputs.map.values)
    assert not _on_shared_pages(back.values)
    assert os.listdir(tmp_path) == ["m.chronomap"]
