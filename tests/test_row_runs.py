"""Row runs on threads: results do not depend on how many runs the row
blocks are split into, every thread is joined, and errors and imaginary
residues raised in any run reach the caller."""

import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronomap import CompassSpec, ComputeError, ConfigError, compass_state, make_grid
from chronomap import transforms
from chronomap.fieldcore import spectral_support
from chronomap.transforms import (
    OverlapMap,
    Spectrogram,
    WignerMap,
    correspondence_maps,
    overlap_map,
    shg_frog,
    wigner,
)


@st.composite
def kernel_inputs(draw):
    """A compass state inside half-Nyquist, its delays and frequency shifts.

    ``t_start`` is on the sample lattice or off it (then the correspondence
    pattern blends rows); the shifts lie on the FFT grid or anywhere.
    """
    n = draw(st.sampled_from([64, 128]))
    dt = 0.1
    offset = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.01, 0.99))
    half_span = (n // 2 - 1) * dt
    band = math.pi / (2 * dt)
    sigma = draw(st.floats(6.5 / band, half_span / 6.5))
    t0 = draw(st.floats(0.01, 1.0)) * (half_span - 6.5 * sigma) + 1e-3
    omega0 = draw(st.floats(0.01, 1.0)) * (band - 6.5 / sigma) + 1e-3
    f = compass_state(make_grid(n, dt, (offset - n // 2) * dt), CompassSpec(t0, omega0, sigma))
    assume(spectral_support(f) <= band)
    taus = dt * np.arange(-draw(st.integers(0, n // 2 - 1)), n // 2)
    dts = dt * np.arange(-draw(st.integers(0, n // 2)), draw(st.integers(1, n // 2)))
    w = f.grid.ang_freqs()
    if draw(st.booleans()):
        dnus = w[:: draw(st.integers(1, n))]
    else:
        dnus = np.unique(draw(st.lists(st.floats(-math.pi / dt, math.pi / dt), min_size=1,
                                       max_size=20)))
    return f, taus, dts, dnus


def on_runs(cpus, call):
    """``call()`` with the row blocks split into ``cpus`` runs; no thread outlives
    it, whether it returns or raises."""
    before = threading.active_count()
    try:
        with mock.patch.object(transforms, "_cpus", lambda: cpus):
            return call()
    finally:
        assert threading.active_count() == before


def all_outputs(f, taus, dts, dnus):
    frog = shg_frog(f, taus)
    w = wigner(f)
    c_frog, pattern, residual = correspondence_maps(f)
    om = overlap_map(f, dts, dnus)
    return [frog.values, frog.scale, w.values, w.scale, c_frog.values, c_frog.scale,
            pattern.values, pattern.scale, residual, om.values]


@settings(max_examples=25, deadline=None)
@given(kernel_inputs(), st.sampled_from([transforms.BLOCK_CELLS]) | st.integers(1, 4096))
def test_outputs_are_bitwise_equal_on_one_two_and_three_runs(inputs, block_cells):
    # small blocks give one to a few rows each, so three runs get blocks; the default
    # gives maps of one or two blocks, fewer than the runs
    with mock.patch.object(transforms, "BLOCK_CELLS", block_cells):
        got = [[np.asarray(x).tobytes() for x in on_runs(cpus, lambda: all_outputs(*inputs))]
               for cpus in (1, 2, 3)]
    assert got[1] == got[0]
    assert got[2] == got[0]


def test_results_come_back_in_block_order():
    # rows of BLOCK_CELLS cells make one block each: 9 blocks, on 3 runs rows 0-2, 3-5, 6-8
    blocks = on_runs(3, lambda: transforms._each_block(
        9, transforms.BLOCK_CELLS, lambda lo, hi, buf: (lo, hi, buf.shape)))
    assert blocks == [(i, i + 1, (1, transforms.BLOCK_CELLS)) for i in range(9)]


def test_an_error_in_the_second_run_reaches_the_caller():
    err = RuntimeError("second run")

    def body(lo, hi, buf):
        if lo == 3:  # the first block of the second run, as above
            raise err
        return lo

    with pytest.raises(RuntimeError) as caught:
        on_runs(3, lambda: transforms._each_block(9, transforms.BLOCK_CELLS, body))
    assert caught.value is err


def wigner_state():
    g = make_grid(256, 0.04, -5.12)
    return compass_state(g, CompassSpec(1.5, 2.0 * np.pi, 0.25))


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_error_in_a_wigner_run_reaches_the_caller(monkeypatch, cpus):
    err = ValueError("last block")
    lags = transforms._wigner_lags

    def failing(pairs, lo, hi, out):
        if hi == 512:
            raise err
        lags(pairs, lo, hi, out)

    monkeypatch.setattr(transforms, "BLOCK_CELLS", 512 * 16)  # 32 blocks of 16 rows
    monkeypatch.setattr(transforms, "_wigner_lags", failing)
    with pytest.raises(ValueError) as caught:
        on_runs(cpus, lambda: wigner(wigner_state()))
    assert caught.value is err


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_imaginary_residue_check_reads_every_run(monkeypatch, cpus):
    # a lag with no mirror in the last block's last row: only the last run sees a residue
    lags = transforms._wigner_lags

    def skewed(pairs, lo, hi, out):
        lags(pairs, lo, hi, out)
        if hi == 512:
            out[hi - lo - 1, 1] += 1j

    monkeypatch.setattr(transforms, "BLOCK_CELLS", 512 * 16)
    monkeypatch.setattr(transforms, "_wigner_lags", skewed)
    with pytest.raises(ComputeError, match="imaginary residue"):
        on_runs(cpus, lambda: wigner(wigner_state()))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("cls, dtype, bad, text", [
    (Spectrogram, float, np.nan, "spectrogram values must be finite and non-negative"),
    (Spectrogram, float, -1.0, "spectrogram values must be finite and non-negative"),
    (WignerMap, float, np.nan, "wigner values must be finite"),
    (OverlapMap, complex, complex(1.0, np.nan), "overlap values must be finite"),
], ids=["spectrogram-nan", "spectrogram-negative", "wigner-nan", "overlap-nan"])
def test_map_checks_refuse_a_bad_value_in_the_last_block(monkeypatch, cpus, cls, dtype, bad,
                                                         text):
    # rows of 16 cells and blocks of one row: 9 blocks, the bad value in the last one
    monkeypatch.setattr(transforms, "BLOCK_CELLS", 16)
    values = np.ones((9, 16), dtype)
    values[8, 11] = bad
    axes = (np.linspace(-1, 1, 9), np.linspace(-2, 2, 16))
    make = (lambda: cls(*axes, values)) if cls is OverlapMap else lambda: cls(*axes, values, 1.0)
    with pytest.raises(ConfigError) as caught:
        on_runs(cpus, make)
    assert str(caught.value) == text
