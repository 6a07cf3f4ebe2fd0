"""Data I/O tests: formats, calibration, and export layouts."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from chronomap import (
    CalibrationError,
    Calibration,
    CellAreaReport,
    CompassSpec,
    ConfigError,
    ExperimentalTrace,
    FormatError,
    ParseError,
    SPEED_OF_LIGHT_NM_PER_PS,
    Spectrogram,
    SweepPoint,
    Window,
    calibrate_to_spectrogram,
    compass_state,
    cross_section,
    export_plot_data,
    load_field,
    load_map,
    load_trace,
    make_grid,
    report_to_json,
    save_field,
    save_map,
    save_report,
    shg_frog,
    trace_from_spectrogram,
    wavelength_to_angular_frequency,
    wigner,
)

OMEGA0 = np.pi * 3.3


def compass_frog():
    g = make_grid(512, 0.04, -10.24)
    f = compass_state(g, CompassSpec(2.0, OMEGA0, 0.25))
    return shg_frog(f, 0.04 * np.arange(-125, 126))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- types


def test_trace_validation():
    d = np.array([0.0, 1.0])
    w = np.array([780.0, 781.0, 782.0])
    vals = np.ones((2, 3))
    t = ExperimentalTrace(d, w, vals, {"note": "ok"})
    assert t.meta["note"] == "ok"
    with pytest.raises(ConfigError, match="monotone"):
        ExperimentalTrace(d, np.array([780.0, 782.0, 781.0]), vals, {})
    with pytest.raises(ConfigError, match="shaped"):
        ExperimentalTrace(d, w, np.ones((3, 2)), {})
    with pytest.raises(ConfigError, match="non-negative"):
        ExperimentalTrace(d, w, vals - 2.0, {})
    with pytest.raises(ConfigError, match="finite"):
        ExperimentalTrace(d, w, vals * np.nan, {})
    with pytest.raises(ConfigError):
        ExperimentalTrace(np.array([0.0]), w, np.ones((1, 3)), {})


def test_calibration_validation():
    cal = Calibration(reference_wavelength=782.0)
    assert cal.background_floor == 0.0
    with pytest.raises(ConfigError):
        Calibration(reference_wavelength=-782.0)
    with pytest.raises(ConfigError):
        Calibration(reference_wavelength=782.0, background_floor=1.0)
    with pytest.raises(ConfigError):
        Calibration(reference_wavelength=782.0, background_floor=-0.1)
    with pytest.raises(ConfigError, match="not adjustable"):
        Calibration(reference_wavelength=782.0, speed_of_light=3.0e8)


def test_wavelength_frequency_identity():
    nu = SPEED_OF_LIGHT_NM_PER_PS / 782.0
    assert nu == pytest.approx(383.366314578, rel=1e-9)
    assert nu * 782.0 - SPEED_OF_LIGHT_NM_PER_PS == 0.0
    half = SPEED_OF_LIGHT_NM_PER_PS / 1564.0
    assert nu / half == 2.0
    w = wavelength_to_angular_frequency(782.0)
    assert w == pytest.approx(2 * np.pi * nu, rel=1e-15)
    with pytest.raises(CalibrationError):
        wavelength_to_angular_frequency(-5.0)


# ----------------------------------------------------------- trace files


def long_csv_text():
    rows = ["delay_ps,wavelength_nm,intensity"]
    for d in (-1.0, 0.0, 1.0):
        for lam in (780.0, 781.0, 782.0, 783.0):
            rows.append(f"{d},{lam},{(d + 2) * lam / 782.0}")
    return "\n".join(rows) + "\n"


def matrix_csv_text():
    out = "# delay_ps: -1.0 0.0 1.0\n# wavelength_nm: 780.0 781.0 782.0 783.0\n"
    for d in (-1.0, 0.0, 1.0):
        out += ",".join(str((d + 2) * lam / 782.0) for lam in (780.0, 781.0, 782.0, 783.0))
        out += "\n"
    return out


def test_load_trace_both_formats(tmp_path):
    a = load_trace(write(tmp_path, "long.csv", long_csv_text()))
    b = load_trace(write(tmp_path, "mat.csv", matrix_csv_text()), format="csv-matrix")
    npt.assert_array_equal(a.delay_axis, [-1.0, 0.0, 1.0])
    npt.assert_array_equal(a.wavelength_axis, [780.0, 781.0, 782.0, 783.0])
    npt.assert_array_equal(a.intensities, b.intensities)
    npt.assert_array_equal(a.delay_axis, b.delay_axis)
    assert a.meta["format"] == "csv-long"
    assert a.meta["source"] == "long.csv"
    assert b.meta["format"] == "csv-matrix"


def test_load_trace_parse_error_has_line_number(tmp_path):
    p = write(
        tmp_path,
        "bad.csv",
        "delay_ps,wavelength_nm,intensity\n0.0,780.0,1.0\n0.0,781.0,oops\n",
    )
    with pytest.raises(ParseError, match=r"bad\.csv:3.*not a number"):
        load_trace(p)


def test_load_trace_monotonicity_error_names_row(tmp_path):
    p = write(
        tmp_path,
        "nonmono.csv",
        "delay_ps,wavelength_nm,intensity\n"
        "0.0,780.0,1.0\n0.0,782.0,1.0\n0.0,781.0,1.0\n",
    )
    with pytest.raises(ParseError, match=r"nonmono\.csv:4.*wavelength"):
        load_trace(p)
    p = write(
        tmp_path,
        "axis.csv",
        "# delay_ps: 0.0 1.0\n# wavelength_nm: 780.0 782.0 781.0\n1,1,1\n1,1,1\n",
    )
    with pytest.raises(ParseError, match=r"axis\.csv:2.*monotone"):
        load_trace(p, format="csv-matrix")


def test_load_trace_negative_policy(tmp_path):
    text = "delay_ps,wavelength_nm,intensity\n"
    for d in (0.0, 1.0):
        for lam, v in ((780.0, 1.0), (781.0, -0.02), (782.0, 0.5)):
            text += f"{d},{lam},{v}\n"
    p = write(tmp_path, "neg.csv", text)
    with pytest.raises(ParseError, match="2 negative"):
        load_trace(p)
    t = load_trace(p, negative_policy="clamp")
    assert t.meta["clamped_count"] == 2
    npt.assert_array_equal(t.intensities[:, 1], [0.0, 0.0])


def test_load_trace_structure_errors(tmp_path):
    p = write(tmp_path, "cols.csv", "delay_ps,wavelength_nm,intensity\n0.0,780.0\n")
    with pytest.raises(ParseError, match=r"cols\.csv:2"):
        load_trace(p)
    p = write(tmp_path, "hdr.csv", "delay,lam,val\n0.0,780.0,1.0\n")
    with pytest.raises(ParseError, match="header"):
        load_trace(p)
    p = write(tmp_path, "empty.csv", "\n")
    with pytest.raises(ParseError, match="empty"):
        load_trace(p)
    p = write(
        tmp_path,
        "ragged.csv",
        "delay_ps,wavelength_nm,intensity\n"
        "0.0,780.0,1.0\n0.0,781.0,1.0\n1.0,780.0,1.0\n1.0,784.0,1.0\n",
    )
    with pytest.raises(ParseError, match="different wavelength axis"):
        load_trace(p)
    p = write(
        tmp_path,
        "rowcount.csv",
        "# delay_ps: 0.0 1.0 2.0\n# wavelength_nm: 780.0 781.0\n1,1\n1,1\n",
    )
    with pytest.raises(ParseError, match="expected 3 data rows"):
        load_trace(p, format="csv-matrix")
    with pytest.raises(ConfigError, match="format"):
        load_trace(p, format="hdf5")
    with pytest.raises(ConfigError, match="policy"):
        load_trace(p, negative_policy="ignore")


def test_load_trace_matrix_short_row(tmp_path):
    p = write(
        tmp_path,
        "short.csv",
        "# delay_ps: 0.0 1.0\n# wavelength_nm: 780.0 781.0 782.0\n1,1,1\n1,1\n",
    )
    with pytest.raises(ParseError, match=r"short\.csv:4.*expected 3 columns"):
        load_trace(p, format="csv-matrix")


def test_load_trace_128_square(tmp_path):
    rows = ["delay_ps,wavelength_nm,intensity"]
    ds = np.linspace(-3, 3, 128)
    ls = np.linspace(770, 794, 128)
    for d in ds:
        for lam in ls:
            v = np.exp(-d * d) * np.exp(-(((lam - 782) / 5) ** 2))
            rows.append(f"{float(d)!r},{float(lam)!r},{float(v)!r}")
    p = write(tmp_path, "big.csv", "\n".join(rows) + "\n")
    t = load_trace(p)
    assert t.intensities.shape == (128, 128)
    m = calibrate_to_spectrogram(t, Calibration(reference_wavelength=782.0))
    assert m.values.shape == (128, 128)


# ----------------------------------------------------------- calibration


def test_calibrate_jacobian_weighting():
    lam = np.linspace(700.0, 900.0, 201)
    t = ExperimentalTrace(
        np.linspace(-1.0, 1.0, 5), lam, np.ones((5, 201)), {}
    )
    cal = Calibration(reference_wavelength=800.0)
    m = calibrate_to_spectrogram(t, cal)
    steps = np.diff(m.omega_axis)
    npt.assert_allclose(steps, steps[0], rtol=1e-12)
    w_ref = wavelength_to_angular_frequency(800.0)
    lam_of_w = 2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / (m.omega_axis + w_ref)
    expect = lam_of_w**2 / (2 * np.pi * SPEED_OF_LIGHT_NM_PER_PS)
    npt.assert_allclose(m.values[2] * m.scale, expect, rtol=1e-5)
    assert m.values[2].max() / m.values[2].min() == pytest.approx(
        (900.0 / 700.0) ** 2, rel=1e-6
    )


def test_calibrate_round_trip():
    m = compass_frog()
    cal = Calibration(reference_wavelength=782.0)
    t = trace_from_spectrogram(m, cal)
    assert np.all(np.diff(t.wavelength_axis) > 0)
    back = calibrate_to_spectrogram(t, cal)
    npt.assert_array_equal(back.tau_axis, m.tau_axis)
    npt.assert_allclose(back.omega_axis, m.omega_axis, atol=1e-9)
    assert np.max(np.abs(back.values - m.values)) <= 1e-6
    assert back.scale == pytest.approx(m.scale, rel=1e-12)


def test_calibrate_background_floor():
    m = compass_frog()
    cal = Calibration(reference_wavelength=782.0, background_floor=0.01)
    t = trace_from_spectrogram(m, Calibration(reference_wavelength=782.0))
    floored = calibrate_to_spectrogram(t, cal)
    assert floored.values.min() == 0.0
    assert floored.values.max() == 1.0
    assert floored.scale < m.scale


def test_calibrate_descending_wavelength_axis():
    t = ExperimentalTrace(
        np.array([0.0, 1.0]),
        np.array([783.0, 782.0, 781.0]),
        np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]]),
        {},
    )
    m = calibrate_to_spectrogram(t, Calibration(reference_wavelength=782.0))
    assert np.all(np.diff(m.omega_axis) > 0)


def test_trace_from_spectrogram_rejects_negative_absolute_frequency():
    m = compass_frog()
    shifted = Spectrogram(
        m.tau_axis, m.omega_axis - 5000.0, m.values.copy(), m.scale
    )
    with pytest.raises(CalibrationError, match="below zero"):
        trace_from_spectrogram(shifted, Calibration(reference_wavelength=782.0))


# --------------------------------------------------------------- map I/O


def test_map_round_trip_bitwise(tmp_path):
    m = compass_frog()
    p = tmp_path / "m.chronomap"
    save_map(m, str(p))
    back = load_map(str(p))
    assert isinstance(back, Spectrogram)
    npt.assert_array_equal(back.tau_axis, m.tau_axis)
    npt.assert_array_equal(back.omega_axis, m.omega_axis)
    npt.assert_array_equal(back.values, m.values)
    assert back.scale == m.scale
    p2 = tmp_path / "m2.chronomap"
    save_map(back, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_wigner_map_round_trip(tmp_path):
    g = make_grid(512, 0.04, -10.24)
    w = wigner(compass_state(g, CompassSpec(2.0, OMEGA0, 0.25)))
    p = tmp_path / "w.chronomap"
    save_map(w, str(p))
    back = load_map(str(p))
    assert type(back).__name__ == "WignerMap"
    npt.assert_array_equal(back.q_axis, w.q_axis)
    npt.assert_array_equal(back.p_axis, w.p_axis)
    npt.assert_array_equal(back.values, w.values)
    assert back.scale == w.scale


def test_load_map_rejects_bad_headers(tmp_path):
    p = write(tmp_path, "junk.txt", "hello\nworld\n")
    with pytest.raises(FormatError, match="not a CHRONO-MAP"):
        load_map(p)
    p = write(
        tmp_path,
        "v2.chronomap",
        "CHRONO-MAP v2\nspectrogram delay_ps ang_freq_rad_per_ps scale=1.0\n0 1\n0 1\n",
    )
    with pytest.raises(FormatError, match="version"):
        load_map(p)
    p = write(
        tmp_path,
        "kind.chronomap",
        "CHRONO-MAP v1\nhologram a b scale=1.0\n0.0 1.0\n0.0 1.0\n0 0\n0 0\n",
    )
    with pytest.raises(FormatError, match="kind"):
        load_map(p)


def test_load_map_rejects_truncation(tmp_path):
    m = compass_frog()
    p = tmp_path / "full.chronomap"
    save_map(m, str(p))
    lines = p.read_text().splitlines()
    q = write(tmp_path, "trunc.chronomap", "\n".join(lines[:50]) + "\n")
    with pytest.raises(FormatError, match="truncated"):
        load_map(q)


def test_save_map_pgm(tmp_path):
    m = compass_frog()
    p = tmp_path / "m.pgm"
    save_map(m, str(p), format="pgm")
    data = p.read_bytes()
    magic, dims, depth, payload = data.split(b"\n", 3)
    assert magic == b"P5"
    cols, rows = (int(x) for x in dims.split())
    assert (rows, cols) == m.values.shape
    assert depth == b"255"
    assert len(payload) == rows * cols
    with pytest.raises(FormatError):
        load_map(str(p))


def test_save_map_rejects(tmp_path):
    m = compass_frog()
    with pytest.raises(ConfigError, match="format"):
        save_map(m, str(tmp_path / "x"), format="png")
    with pytest.raises(ConfigError):
        save_map(np.ones((3, 3)), str(tmp_path / "y"))


def test_field_round_trip(tmp_path):
    g = make_grid(256, 0.04, -5.12)
    f = compass_state(g, CompassSpec(1.5, OMEGA0, 0.25))
    p = tmp_path / "f.chronofield"
    save_field(f, str(p))
    back = load_field(str(p))
    npt.assert_array_equal(back.samples, f.samples)
    assert back.grid.n == g.n
    assert back.grid.dt == g.dt
    assert back.grid.t_start == g.t_start
    q = write(tmp_path, "junk.chronofield", "NOT-A-FIELD\n")
    with pytest.raises(FormatError, match="not a CHRONO-FIELD"):
        load_field(q)


def test_field_non_integer_count_is_format_error(tmp_path):
    q = write(tmp_path, "frac.chronofield", "CHRONO-FIELD v1\n16.5 0.04 -0.32\n")
    with pytest.raises(FormatError, match="not an integer"):
        load_field(q)


# --------------------------------------------------------------- exports


def small_report():
    taus = np.array([0.3, 0.31])
    omegas = np.array([1.5])
    return CellAreaReport(
        taus, omegas, np.outer(taus, omegas).ravel(), 0.4575, True,
        Window(0.0, 2.0, 0.0, OMEGA0),
    )


def test_export_cross_section(tmp_path):
    m = compass_frog()
    cs = cross_section(m, "delay", 0.0)
    p = tmp_path / "cs.dat"
    export_plot_data(cs, str(p))
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#")
    data = np.loadtxt(str(p))
    npt.assert_array_equal(data[:, 0], cs.axis)
    npt.assert_array_equal(data[:, 1], cs.values)


def test_export_cell_area_report(tmp_path):
    p = tmp_path / "rep.dat"
    export_plot_data(small_report(), str(p))
    text = p.read_text()
    lines = text.splitlines()
    assert "delay spacings" in lines[1]
    assert "0.3 0.31" in lines[1]
    assert "frequency spacings" in lines[2]
    areas = [float(x) for x in lines if not x.startswith("#")]
    npt.assert_allclose(areas, [0.45, 0.465])
    assert "mean 0.4575" in lines[-1]
    assert "limit 0.5" in lines[-1]


def test_export_sweep(tmp_path):
    sw = (
        SweepPoint(2.0, 0.477, True, "ok"),
        SweepPoint(0.1, None, None, "error", "too few zeros"),
    )
    p = tmp_path / "sw.dat"
    export_plot_data(sw, str(p))
    rows = [ln.split() for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == ["2.0", "0.477", "0.5", "ok"]
    assert rows[1][0] == "0.1"
    assert rows[1][1] == "nan"
    assert rows[1][2] == "0.5"
    assert rows[1][3] == "error"
    with pytest.raises(ConfigError):
        export_plot_data({"not": "supported"}, str(tmp_path / "z.dat"))


def test_report_json(tmp_path):
    rep = small_report()
    text = report_to_json(rep)
    assert text == report_to_json(rep)
    payload = json.loads(text)
    assert payload["kind"] == "cell-areas"
    assert payload["mean_area"] == 0.4575
    assert payload["sub_fourier"] is True
    assert payload["limit"] == 0.5
    assert payload["window"]["tau_halfwidth"] == 2.0
    sweep_payload = json.loads(report_to_json((SweepPoint(2.0, 0.477, True, "ok"),)))
    assert sweep_payload["kind"] == "separation-sweep"
    assert sweep_payload["points"][0]["t0_ps"] == 2.0
    p = tmp_path / "rep.json"
    save_report(rep, str(p))
    assert json.loads(p.read_text())["mean_area"] == 0.4575
    with pytest.raises(ConfigError):
        report_to_json(3.14)
