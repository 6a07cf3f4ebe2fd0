"""CLI tests: exit codes, file outputs, dry runs, and determinism."""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from chronomap import (
    Calibration,
    CompassSpec,
    Window,
    compass_state,
    export_plot_data,
    load_field,
    load_map,
    make_grid,
    save_report,
    shg_frog,
    trace_from_spectrogram,
    wigner,
    wigner_cell_areas,
    save_map,
)
from chronomap.transforms import WignerMap
from chronomap.cli import PRESETS, main

OMEGA0 = np.pi * 3.3


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def all_text(result):
    # CliRunner captures stderr into result.output alongside stdout
    return result.output


def small_frog_map(tmp_path, name="m.chronomap"):
    g = make_grid(512, 0.04, -10.24)
    f = compass_state(g, CompassSpec(2.0, OMEGA0, 0.25))
    m = shg_frog(f, 0.04 * np.arange(-125, 126))
    p = tmp_path / name
    save_map(m, str(p))
    return m, str(p)


def test_help_lists_subcommands():
    result = invoke("--help")
    assert result.exit_code == 0
    for name in ("simulate", "frog", "wigner", "crosscut", "areas", "sweep",
                 "correspond", "ingest", "compare"):
        assert name in result.output


def test_correspond_compass_and_chirped():
    result = invoke("correspond", "--t0", "2.0")
    assert result.exit_code == 0
    residual = float(result.output.split("residual")[1])
    assert residual <= 1e-6
    result = invoke("correspond", "--state", "chirped", "--sigma",
                    "0.7071067811865476", "--chirp", "1.0")
    assert result.exit_code == 0
    assert float(result.output.split("residual")[1]) > 0.01


def test_config_errors_aggregate_into_one_message():
    result = invoke("frog", "--n", "100", "--dt", "-0.5", "--sigma", "0",
                    "--out", "ignored.chronomap")
    assert result.exit_code == 2
    text = all_text(result)
    assert text.count("error:") == 1
    assert "--n" in text and "--dt" in text and "--sigma" in text


def test_areas_insufficient_structure_exit_code(tmp_path):
    out = tmp_path / "g.json"
    result = invoke("areas", "--state", "gaussian", "--out", str(out))
    assert result.exit_code == 4
    assert "zeros" in all_text(result)
    assert not out.exists()


def test_simulate_writes_loadable_field(tmp_path):
    out = tmp_path / "f.chronofield"
    result = invoke("simulate", "--state", "gaussian", "--mask-t0", "2.0",
                    "--out", str(out))
    assert result.exit_code == 0
    f = load_field(str(out))
    assert f.grid.n == 2048
    assert f.grid.dt == 0.02


def test_frog_writes_loadable_map(tmp_path):
    out = tmp_path / "m.chronomap"
    pgm = tmp_path / "m.pgm"
    result = invoke("frog", "--n", "512", "--dt", "0.04", "--out", str(out),
                    "--pgm", str(pgm))
    assert result.exit_code == 0
    m = load_map(str(out))
    assert m.values.shape == (251, 512)
    assert pgm.read_bytes().startswith(b"P5\n512 251\n")


def test_frog_oracle_flag_matches_fft_route(tmp_path):
    a = tmp_path / "fft.chronomap"
    b = tmp_path / "quad.chronomap"
    args = ["frog", "--n", "256", "--dt", "0.04", "--t0", "1.0",
            "--tau-span", "2.0"]
    assert invoke(*args, "--out", str(a)).exit_code == 0
    assert invoke(*args, "--oracle", "--out", str(b)).exit_code == 0
    ma, mb = load_map(str(a)), load_map(str(b))
    npt.assert_allclose(mb.values * mb.scale, ma.values * ma.scale,
                        atol=1e-9 * ma.scale)


@pytest.mark.parametrize("command", ["simulate", "areas", "sweep", "correspond"])
def test_commands_without_a_quadrature_route_refuse_oracle(tmp_path, command):
    out = [] if command == "correspond" else ["--out", str(tmp_path / "out")]
    result = invoke(command, "--oracle", *out)
    assert result.exit_code == 2
    assert "No such option" in all_text(result) and "--oracle" in all_text(result)


def test_wigner_command(tmp_path):
    out = tmp_path / "w.chronomap"
    result = invoke("wigner", "--n", "256", "--dt", "0.04", "--t0", "1.0",
                    "--out", str(out))
    assert result.exit_code == 0
    w = load_map(str(out))
    assert type(w).__name__ == "WignerMap"
    assert w.values.shape == (512, 512)


def test_crosscut_appends_zeros_footer(tmp_path):
    _, p = small_frog_map(tmp_path)
    out = tmp_path / "cut.dat"
    result = invoke("crosscut", "--input", p, "--axis", "delay", "--at", "0.0",
                    "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    zero_lines = [ln for ln in lines if ln.startswith("# zeros:")]
    assert len(zero_lines) == 1
    assert len(zero_lines[0].split()) >= 4
    assert any("zero-method" in ln for ln in lines)
    body = np.loadtxt(str(out))
    assert body.shape[1] == 2


def test_crosscut_of_signed_values_near_the_float_limit(tmp_path):
    row = [1e308, -1e308, 1e308, -1e308, 1e308]
    p = str(tmp_path / "w.chronomap")
    save_map(WignerMap(np.arange(3.0), np.arange(0.0, 10.0, 2.0), np.array([row] * 3), 1.0), p)
    out = tmp_path / "cut.dat"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = invoke("crosscut", "--input", p, "--axis", "frequency", "--at", "1.0",
                        "--out", str(out))
    assert result.exit_code == 0, all_text(result)
    assert "# zeros: 1.0 3.0 5.0 7.0\n" in out.read_text()


def test_areas_of_a_stored_map_with_zeros_on_one_axis(tmp_path):
    p = str(tmp_path / "w.chronomap")
    result = invoke("wigner", "--n", "512", "--dt", "0.04", "--amplitudes", "1,0,1,0",
                    "--out", p)
    assert result.exit_code == 0, all_text(result)
    result = invoke("areas", "--input", p, "--window", "2,1,0,5",
                    "--out", str(tmp_path / "a.json"))
    assert result.exit_code == 0, all_text(result)
    assert "verdict not applicable: zeros resolved on one axis only" in result.output


def test_areas_of_a_stored_wigner_map_is_its_wigner_cell_report(tmp_path):
    # the compass Wigner map: one cell_areas call measures it through the CLI, and the
    # bytes are those written when the CLI chose wigner_cell_areas for signed maps
    w = str(tmp_path / "w.chronomap")
    assert invoke("wigner", "--n", "512", "--dt", "0.04", "--out", w).exit_code == 0
    window = Window(0.0, 1.0, 0.0, OMEGA0 / 2)
    out, plot = tmp_path / "a.json", tmp_path / "a.dat"
    result = invoke("areas", "--input", w, "--window", f"0,1.0,0,{OMEGA0 / 2!r}",
                    "--out", str(out), "--plot-data", str(plot))
    assert result.exit_code == 0, all_text(result)
    report = wigner_cell_areas(load_map(w), window)
    save_report(report, str(tmp_path / "ref.json"))
    export_plot_data(report, str(tmp_path / "ref.dat"))
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert plot.read_bytes() == (tmp_path / "ref.dat").read_bytes()
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, plot)] == [
        "3233bb87b639a7b4c44282a46e1a804bb6c1444f168ca33108927a08e1f1827e",
        "9fbf426c5b1f53d634b22cff7735c8e92222a89f3a8e9c9e8ed2044f5ba80cdd",
    ]


def test_areas_cli_reports_verdict(tmp_path):
    out = tmp_path / "areas.json"
    result = invoke("areas", "--out", str(out))
    assert result.exit_code == 0
    assert "sub-Fourier True" in result.output
    payload = json.loads(out.read_text())
    assert payload["kind"] == "cell-areas"
    assert payload["mean_area"] == pytest.approx(
        np.pi**2 / (2.0 * OMEGA0), rel=2e-2
    )
    assert payload["sub_fourier"] is True
    assert payload["limit"] == 0.5


def test_sweep_cli_verdict_flip(tmp_path):
    dat = tmp_path / "sweep.dat"
    js = tmp_path / "sweep.json"
    result = invoke("sweep", "--t0-list", "1.25,1.75,2.0,2.5",
                    "--out", str(dat), "--json", str(js))
    assert result.exit_code == 0
    payload = json.loads(js.read_text())
    verdicts = [p["sub_fourier"] for p in payload["points"]]
    assert verdicts == [False, False, True, True]
    means = [p["mean_area"] for p in payload["points"]]
    assert means == sorted(means, reverse=True)
    rows = [ln.split() for ln in dat.read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 4
    assert all(r[2] == "0.5" for r in rows)


def test_ingest_round_trip(tmp_path):
    g = make_grid(256, 0.04, -5.12)
    f = compass_state(g, CompassSpec(1.0, OMEGA0, 0.25))
    m = shg_frog(f, 0.04 * np.arange(-50, 51))
    trace = trace_from_spectrogram(m, Calibration(reference_wavelength=782.0))
    csv = tmp_path / "trace.csv"
    with open(csv, "w") as fh:
        fh.write("delay_ps,wavelength_nm,intensity\n")
        for i, d in enumerate(trace.delay_axis):
            for j, lam in enumerate(trace.wavelength_axis):
                fh.write(
                    f"{float(d)!r},{float(lam)!r},{float(trace.intensities[i, j])!r}\n"
                )
    out = tmp_path / "ingested.chronomap"
    result = invoke("ingest", "--input", str(csv), "--reference-wavelength",
                    "782.0", "--out", str(out))
    assert result.exit_code == 0
    back = load_map(str(out))
    assert np.max(np.abs(back.values - m.values)) <= 1e-6
    assert back.scale == pytest.approx(m.scale, rel=1e-9)


def test_ingest_clamp_reports_count(tmp_path):
    csv = tmp_path / "neg.csv"
    text = "delay_ps,wavelength_nm,intensity\n"
    for d in (0.0, 1.0):
        for lam, v in ((780.0, 1.0), (781.0, -0.02), (782.0, 0.5)):
            text += f"{d},{lam},{v}\n"
    csv.write_text(text)
    out = tmp_path / "m.chronomap"
    result = invoke("ingest", "--input", str(csv), "--negative-policy", "clamp",
                    "--out", str(out))
    assert result.exit_code == 0
    assert "clamped 2" in all_text(result)
    result = invoke("ingest", "--input", str(csv), "--out",
                    str(tmp_path / "n.chronomap"))
    assert result.exit_code == 3


def test_compare_exit_codes(tmp_path):
    m, p = small_frog_map(tmp_path)
    result = invoke("compare", "--input-a", p, "--input-b", p)
    assert result.exit_code == 0
    assert "similarity 1.0" in result.output
    g = make_grid(256, 0.04, -5.12)
    w = wigner(compass_state(g, CompassSpec(1.0, OMEGA0, 0.25)))
    pw = tmp_path / "w.chronomap"
    save_map(w, str(pw))
    result = invoke("compare", "--input-a", p, "--input-b", str(pw))
    assert result.exit_code == 2


def test_dry_run_skips_outputs(tmp_path):
    _, p = small_frog_map(tmp_path)
    cases = [
        ("simulate", "--out", str(tmp_path / "a")),
        ("frog", "--out", str(tmp_path / "b")),
        ("wigner", "--n", "256", "--dt", "0.04", "--t0", "1.0",
         "--out", str(tmp_path / "c")),
        ("areas", "--out", str(tmp_path / "d")),
        ("sweep", "--out", str(tmp_path / "e")),
        ("correspond",),
        ("crosscut", "--input", p, "--axis", "delay", "--out", str(tmp_path / "f")),
        ("compare", "--input-a", p, "--input-b", p),
    ]
    for args in cases:
        result = invoke(*args, "--dry-run")
        assert result.exit_code == 0, (args, all_text(result))
        assert "dry-run ok" in result.output
    for name in ("a", "b", "c", "d", "e", "f"):
        assert not (tmp_path / name).exists()


def test_dry_run_rejects_aliasing_grid():
    # dt small enough to synthesize but too coarse for quadratic products
    result = invoke("frog", "--dt", "0.06", "--n", "512", "--dry-run",
                    "--out", "ignored")
    assert result.exit_code == 2
    assert "alias" in all_text(result)


def test_unknown_option_exits_with_usage_error():
    result = invoke("frog", "--does-not-exist", "1")
    assert result.exit_code == 2


def test_figure_preset_determinism(tmp_path):
    for preset in ("5a", "5b"):
        d1 = tmp_path / f"{preset}_one"
        d2 = tmp_path / f"{preset}_two"
        for d in (d1, d2):
            result = invoke("--figure", preset, "--out", str(d))
            assert result.exit_code == 0
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for name in names:
            assert filecmp.cmp(str(d1 / name), str(d2 / name), shallow=False)


def test_figure_preset_dry_run(tmp_path):
    d = tmp_path / "empty"
    result = invoke("--figure", "3", "--out", str(d), "--dry-run")
    assert result.exit_code == 0
    assert "dry-run ok" in result.output
    assert os.listdir(str(d)) == []


def test_figure_dry_run_checks_sampling(tmp_path, monkeypatch):
    # the figure-3 state on a grid that synthesizes it but aliases its products
    monkeypatch.setitem(PRESETS, "3", ({"n": 1024, "dt": 0.06}, PRESETS["3"][1]))
    result = invoke("--figure", "3", "--out", str(tmp_path / "d"), "--dry-run")
    assert result.exit_code == 2, all_text(result)
    assert "frog: " in all_text(result) and "alias" in all_text(result)
    assert os.listdir(str(tmp_path / "d")) == []


def test_map_with_one_sample_axis(tmp_path):
    # 3 delays, 1 frequency: a delay cut holds the only frequency; the rest is a config error
    p = _write_map_text(tmp_path / "one.chronomap", [0.0, 0.1, 0.2], [0.5],
                        [[1.0], [0.5], [0.25]])
    cut = tmp_path / "cut.dat"
    result = invoke("crosscut", "--input", p, "--axis", "delay", "--at", "0.5",
                    "--out", str(cut))
    assert result.exit_code == 0, all_text(result)
    assert "0 zeros" in result.output and cut.exists()
    for args in (("crosscut", "--input", p, "--axis", "frequency", "--at", "0.1",
                  "--out", str(tmp_path / "cut2.dat")),
                 ("areas", "--input", p, "--out", str(tmp_path / "a.json"))):
        result = invoke(*args)
        assert result.exit_code == 2, (args, all_text(result))
        assert isinstance(result.exception, SystemExit), result.exception
        assert all_text(result).startswith("error: cross-section")
    assert sorted(os.listdir(tmp_path)) == ["cut.dat", "one.chronomap"]


def _write_map_text(path, ax1, ax2, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("CHRONO-MAP v1\nspectrogram delay_ps ang_freq_rad_per_ps scale=1.0\n")
        for line in (ax1, ax2, *rows):
            fh.write(" ".join(map(repr, line)) + "\n")
    return str(path)


@pytest.mark.parametrize("case", ["non-uniform axis", "nan value"])
def test_malformed_map_values_exit_3(tmp_path, case):
    ax1 = [0.0, 0.1, 0.3] if case == "non-uniform axis" else [0.0, 0.1, 0.2]
    rows = [[0.0, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, float("nan")]]
    if case == "non-uniform axis":
        rows[2][2] = 0.0
    p = _write_map_text(tmp_path / "bad.chronomap", ax1, [-1.0, 0.0, 1.0], rows)
    for args in (("compare", "--input-a", p, "--input-b", p),
                 ("crosscut", "--input", p, "--axis", "delay",
                  "--out", str(tmp_path / "cut.dat"))):
        result = invoke(*args)
        assert result.exit_code == 3, (args, all_text(result))
        assert "bad.chronomap" in all_text(result)


def test_single_delay_block_trace_exits_3(tmp_path):
    csv = tmp_path / "one.csv"
    csv.write_text("delay_ps,wavelength_nm,intensity\n0,780,1\n0,781,2\n")
    result = invoke("ingest", "--input", str(csv), "--out", str(tmp_path / "m"))
    assert result.exit_code == 3
    assert "one.csv" in all_text(result)


def test_infinite_trace_axis_exits_3(tmp_path):
    csv = tmp_path / "inf.csv"
    csv.write_text("delay_ps,wavelength_nm,intensity\n0,780,1\n0,781,2\ninf,780,1\ninf,781,2\n")
    result = invoke("ingest", "--input", str(csv), "--out", str(tmp_path / "m"))
    assert result.exit_code == 3, all_text(result)
    assert all_text(result).startswith(f"error: {csv}: trace delay axis must be finite")
    assert not (tmp_path / "m").exists()


def test_trace_overflowing_the_jacobian_exits_3(tmp_path):
    csv = tmp_path / "far.csv"
    csv.write_text("delay_ps,wavelength_nm,intensity\n0,800,1\n0,1e200,1\n1,800,1\n1,1e200,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = invoke("ingest", "--input", str(csv), "--out", str(tmp_path / "m"))
    assert result.exit_code == 3, all_text(result)
    assert all_text(result) == (
        "error: wavelengths up to 1e+200 nm overflow the Jacobian-weighted intensities\n")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("fmt", ["csv-long", "csv-matrix"])
def test_non_utf8_trace_exits_3(tmp_path, fmt):
    csv = tmp_path / "latin1.csv"
    if fmt == "csv-long":
        body = "delay_ps,wavelength_nm,intensity\n" + "".join(
            f"{d},780,1.0\n{d},781,1.0\n" for d in range(1000))
    else:
        body = "# delay_ps: 0 1\n# wavelength_nm: 780 781\n" + "1.0,1.0\n" * 4000
    csv.write_bytes(body.encode() + b"\xe9\n")
    result = invoke("ingest", "--input", str(csv), "--format", fmt,
                    "--out", str(tmp_path / "m"))
    assert result.exit_code == 3, all_text(result)
    assert "latin1.csv: not UTF-8" in all_text(result)
    assert not (tmp_path / "m").exists()


def test_cli_import_leaves_scipy_unloaded():
    # nor the process-pool modules: the two-process map I/O forks with os alone
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    unloaded = ("scipy", "multiprocessing", "concurrent.futures", "subprocess")
    code = f"import sys, chronomap.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
