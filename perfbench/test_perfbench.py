"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

import itertools
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import chronomap as cm
from chronomap.cli import main as cli_main

import checks
import inputs
import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def _take(gen, cycles):
    return list(itertools.islice(gen, cycles))


def test_draws_repeat_for_a_seed_and_differ_between_seeds():
    for make in (inputs.preset_cycles, inputs.kernel_cycles, inputs.ingest_cycles):
        assert _take(make(3), 4) == _take(make(3), 4)
        assert _take(make(3), 4) != _take(make(4), 4)
    assert inputs.ingest_sources(3) == inputs.ingest_sources(3)
    assert inputs.ingest_sources(3) != inputs.ingest_sources(4)


def test_every_cycle_covers_every_preset_and_grid_size():
    for cycle in _take(inputs.preset_cycles(0), 5):
        assert sorted(cycle) == sorted(inputs.PRESETS)
    for cycle in _take(inputs.kernel_cycles(0), 5):
        assert sorted(op["n"] for op in cycle) == list(inputs.KERNEL_SIZES)
    for cycle in _take(inputs.ingest_cycles(0), 5):
        assert sorted(name.split("-")[0] for name in cycle) == ["large", "small"]
        assert sorted(name.split("-")[1] for name in cycle) == ["long", "matrix"]


def test_kernel_draws_stay_inside_the_half_nyquist_limit():
    for cycle in _take(inputs.kernel_cycles(1), 8):
        for op in cycle:
            n = op["n"]
            grid = cm.make_grid(n, inputs.KERNEL_DT, -(n // 2) * inputs.KERNEL_DT)
            if op["family"] == "compass":
                f = cm.compass_state(grid, cm.CompassSpec(op["t0"], op["omega0"], op["sigma"]))
            else:
                f = cm.chirped_gaussian(grid, op["sigma"], op["chirp"])
            assert cm.fieldcore.spectral_support(f) <= np.pi / (2 * inputs.KERNEL_DT)


@pytest.fixture
def tiny_traces(monkeypatch):
    monkeypatch.setattr(inputs, "INGEST_TRACES", (
        ("a", 41, 96, "csv-long"),
        ("b", 21, 64, "csv-matrix"),
    ))


def test_ingest_inputs_are_byte_identical_for_a_seed(tmp_path, tiny_traces):
    first = inputs.write_ingest_inputs(5, str(tmp_path / "1"))
    inputs.write_ingest_inputs(5, str(tmp_path / "2"))
    other = inputs.write_ingest_inputs(6, str(tmp_path / "3"))
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "2"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    assert (tmp_path / "1" / "a.csv").read_bytes() != (tmp_path / "3" / "a.csv").read_bytes()
    assert other[0]["cells"] == first[0]["cells"] == 41 * 96


def test_ingest_traces_need_clamping_and_resampling(tmp_path, tiny_traces):
    for src in inputs.write_ingest_inputs(2, str(tmp_path)):
        with pytest.raises(cm.ParseError, match="negative"):
            cm.load_trace(src["trace"], src["layout"], "reject")
        trace = cm.load_trace(src["trace"], src["layout"], "clamp")
        assert trace.intensities.shape == (src["delays"], src["pixels"])
        assert trace.meta["clamped_count"] > 0
        steps = np.diff(trace.wavelength_axis)
        assert np.allclose(steps, steps[0], rtol=1e-9)
        omega = cm.wavelength_to_angular_frequency(trace.wavelength_axis)
        assert not np.allclose(np.diff(omega), np.diff(omega)[0], rtol=1e-9)


def _preset_bundle(tmp_path, figure):
    out = tmp_path / figure
    result = CliRunner().invoke(cli_main, ["--figure", figure, "--out", str(out)])
    assert result.exit_code == 0
    with open(os.path.join(HERE, "preset_hashes.json")) as fh:
        return out, json.load(fh)[figure]["files"]


def test_preset_check_passes_the_reference_bundle(tmp_path):
    out, expected = _preset_bundle(tmp_path, "5a")
    failure, agree, total = checks.check_preset("5a", str(out), expected)
    assert failure is None and (agree, total) == (1, 1)


@pytest.mark.parametrize("corrupt", ["flip", "remove", "extra"])
def test_preset_check_fails_a_corrupted_bundle(tmp_path, corrupt):
    out, expected = _preset_bundle(tmp_path, "5a")
    target = out / "fig5a_areas.dat"
    if corrupt == "flip":
        data = bytearray(target.read_bytes())
        data[-2] ^= 1
        target.write_bytes(bytes(data))
    elif corrupt == "remove":
        target.unlink()
    else:
        (out / "stray.txt").write_text("x")
    failure, _, _ = checks.check_preset("5a", str(out), expected)
    assert failure is not None and not failure.area_law


def test_ingest_op_checks_fail_wrong_outputs(tmp_path):
    mapped = tmp_path / "m.chronomap"
    mapped.write_text("CHRONO-MAP v1\nspectrogram delay_ps ang_freq_rad_per_ps scale=1.0\n")
    assert checks.check_ingest("wrote spectrogram x (4 x 8)", str(mapped), 4, 8) is None
    assert checks.check_ingest("wrote spectrogram x (4 x 7)", str(mapped), 4, 8)
    assert checks.check_ingest("", str(mapped), 4, 8)
    assert checks.check_compare("similarity 0.9995") is None
    assert checks.check_compare("similarity 0.98")
    assert checks.check_compare("error")
    report = tmp_path / "areas.json"
    law = checks.law_area(2.0, checks.PRESET_OMEGA0)
    report.write_text(json.dumps({"mean_area": law * 1.01, "sub_fourier": True}))
    assert checks.check_areas(str(report), 2.0, checks.PRESET_OMEGA0) == (None, True)
    report.write_text(json.dumps({"mean_area": 0.67, "sub_fourier": False}))
    failure, agrees = checks.check_areas(str(report), 2.0, checks.PRESET_OMEGA0)
    assert failure.area_law and not agrees


def test_failed_ops_are_counted_and_only_area_law_misses_keep_correct():
    ok, law_miss, broken = run.Op("a"), run.Op("areas"), run.Op("figure-3")
    law_miss.failure = checks.Failure("verdict", True)
    assert run.result([ok, law_miss], {})["correct"] is True
    broken.failure = checks.Failure("bytes differ", False)
    res = run.result([ok, law_miss, broken], {})
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 2, False)


def test_tail_keeps_ten_ops_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(25, 0, -1)])
    assert (value, beyond) == (15.0, 10) and pct == pytest.approx(60.0)


def test_tracing_nests_spans_across_modules_and_uninstalls():
    grid = cm.make_grid(64, 0.1, -3.2)
    field = cm.gaussian_pulse(grid, cm.PulseSpec(0.0, 0.0, 0.5))
    original = cm.transforms.upsample2
    rec = tracing.Recorder(op_id=0)
    uninstall = tracing.install(rec)
    try:
        cm.wigner(field)
    finally:
        uninstall()
    assert cm.transforms.upsample2 is original
    names = [s["name"] for s in rec.spans]
    assert names[0] == "transforms.wigner"
    assert {"fieldcore.spectral_support", "fieldcore.upsample2"} <= set(names[1:])
    assert all(s["parent"] == 0 for s in rec.spans[1:])
    selfs = tracing.self_times(rec.spans)
    children = sum(s["end"] - s["start"] for s in rec.spans[1:])
    assert selfs[0] == rec.spans[0]["end"] - rec.spans[0]["start"] - children
    assert rec.spans[0]["counts"]["wigner_cells"] == (2 * 64) ** 2
