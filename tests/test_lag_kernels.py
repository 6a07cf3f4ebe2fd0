"""Lag-window kernels: bitwise agreement with the index-gather formulas,
node-subset correspondence, and FFT-vs-oracle agreement as a property."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronomap import (
    CompassSpec,
    ComplexField,
    ComputeError,
    chirped_gaussian,
    compass_state,
    make_grid,
    upsample2,
)
from chronomap import transforms
from chronomap.cli import RunConfig
from chronomap.fieldcore import spectral_support
from chronomap.transforms import (
    correspondence_maps,
    correspondence_residual,
    overlap_map,
    quadrature_oracle_wigner,
    shg_frog,
    wigner,
)

OMEGA0 = np.pi * 3.3
SIGMA = 0.25


# ------------------------------------------- reference formulas (index gather)


def gather_wigner_values(field):
    """Peak-normalized Wigner values by explicit index gather over the lag matrix."""
    g = field.grid
    n = g.n
    n2 = M = 2 * n
    F2 = upsample2(field).samples
    ks = np.arange(-(n - 1), n)
    h = np.arange(n2)[:, None]
    i_minus = h - 2 * ks[None, :]
    i_plus = h + 2 * ks[None, :]
    valid = (i_minus >= 0) & (i_minus < n2) & (i_plus >= 0) & (i_plus < n2)
    prods = np.where(
        valid,
        F2[np.clip(i_minus, 0, n2 - 1)] * np.conj(F2[np.clip(i_plus, 0, n2 - 1)]),
        0.0,
    )
    C = np.zeros((n2, M), dtype=np.complex128)
    C[:, ks % M] = prods
    W = (np.fft.fftshift(M * np.fft.ifft(C, axis=1), axes=1) * (g.dt / math.pi)).real
    peak = float(np.max(np.abs(W)))
    return W / peak if peak > 0 else W


def loop_shifted_products(a, E, steps):
    """Rows of a(t) * E(t - s*dt), one Python slice assignment per delay."""
    n = E.size
    P = np.zeros((len(steps), n), dtype=np.complex128)
    for i, s in enumerate(steps):
        if s >= 0:
            P[i, s:] = a[s:] * E[: n - s]
        else:
            P[i, : n + s] = a[: n + s] * E[-s:]
    return P


def loop_frog_values(field, taus):
    g = field.grid
    steps = [g.delay_steps(t) for t in taus]
    rows = np.fft.fftshift(g.n * np.fft.ifft(loop_shifted_products(field.samples, field.samples, steps),
                                         axis=1),
                           axes=1)
    vals = (g.dt * g.dt) * (rows.real**2 + rows.imag**2)
    peak = float(vals.max())
    return vals / peak if peak > 0 else vals


def scaled_subnormals(a, E, steps):
    """Nonzero values below the normal range in the 1/n-scaled inverse FFT of the
    lag-product rows: the values where ``n * ifft`` and ``ifft(norm="forward")`` differ."""
    S = np.fft.ifft(loop_shifted_products(a, E, steps), axis=1)
    return sum(np.count_nonzero((x != 0) & (np.abs(x) < np.finfo(float).tiny))
               for x in (S.real, S.imag))


def half_coordinate_pattern(field, W, taus):
    """|W(tau/2, omega/2)|^2 read off a full Wigner map, peak normalized."""
    g = field.grid
    n = g.n
    sub = W[:, 0 : 2 * n : 2]
    hf = taus / g.dt - 2.0 * g.t_start / g.dt
    exact = np.abs(hf - np.rint(hf)) < 1e-9  # on a row, from either side
    h0 = np.where(exact, np.rint(hf), np.floor(hf)).astype(int)
    frac = hf - h0
    h0 = np.clip(h0, 0, 2 * n - 1)
    h1 = np.clip(h0 + 1, 0, 2 * n - 1)
    rows = np.where(exact[:, None], sub[h0],
                    (1.0 - frac)[:, None] * sub[h0] + frac[:, None] * sub[h1])
    pattern = rows**2
    return pattern / pattern.max()


# ---------------------------------------------------------------- states


def figure_config(n, dt=0.02):
    return RunConfig(n=n, dt=dt).validate()


def figure4_field():
    cfg = figure_config(512, 0.04)
    return cfg.field()


def band_limited_16():
    """Random trigonometric polynomial on n=16, spectrum inside half Nyquist."""
    g = make_grid(16, 0.5, -4.0)
    rng = np.random.default_rng(3)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    t = g.times()
    return ComplexField(g, sum(c[i] * np.exp(1j * (i - 3) * g.dw * t) for i in range(7)))


def chirped_512():
    g = make_grid(512, 0.04, -10.24)
    return chirped_gaussian(g, 1 / np.sqrt(2), 1.0)


def compass_2048():
    """A kernel-range compass state whose far-delay FFT rows reach the subnormal range."""
    g = make_grid(2048, 0.02, -20.48)
    return compass_state(g, CompassSpec(1.8, 3.5 * np.pi, 0.27))


STATES = {
    "figure4": figure4_field,
    "n16": band_limited_16,
    "chirped": chirped_512,
}
FROG_STATES = {**STATES, "compass2048": compass_2048}  # no n=2048 index-gather Wigner


def corr_taus(field):
    K = field.grid.n // 2 - 1
    return field.grid.dt * np.arange(-K, K + 1)


# ------------------------------------------------------- bitwise agreement


@pytest.mark.parametrize("state", sorted(STATES))
def test_wigner_bitwise_equals_index_gather(state):
    f = STATES[state]()
    assert np.array_equal(wigner(f).values, gather_wigner_values(f))


@pytest.mark.parametrize("state", sorted(FROG_STATES))
def test_frog_bitwise_equals_loop_products(state):
    f = FROG_STATES[state]()
    taus = corr_taus(f)
    steps = f.grid.delay_steps(taus)
    assert (scaled_subnormals(f.samples, f.samples, steps) > 0) == (state == "compass2048")
    assert np.array_equal(shg_frog(f, taus).values, loop_frog_values(f, taus))


def test_frog_bitwise_on_figure3_delays():
    cfg = figure_config(1024)
    f = cfg.field()
    taus = cfg.tau_axis()
    assert np.array_equal(shg_frog(f, taus).values, loop_frog_values(f, taus))


def test_frog_bitwise_on_strided_delays():
    f = figure4_field()
    taus = f.grid.dt * np.arange(-40, 41, 3)
    assert np.array_equal(shg_frog(f, taus).values, loop_frog_values(f, taus))


def test_overlap_unsorted_irregular_shifts_match_loop_products():
    # the n=2048 state's far delays 900 and -730 have subnormal 1/n-scaled FFT values
    for f, steps, subnormal in ((figure4_field(), [7, -3, 0, 12, -20, 1], False),
                                (compass_2048(), [7, -3, 900, 0, 12, -730, -20, 1], True)):
        g = f.grid
        steps = np.array(steps)
        assert (scaled_subnormals(np.conj(f.samples), f.samples, steps) > 0) == subnormal
        w = g.ang_freqs()
        P = loop_shifted_products(np.conj(f.samples), f.samples, steps)
        order = np.argsort(steps)
        e0 = np.sum(np.abs(f.samples) ** 2) * g.dt
        for dnus in (w[[300, 40, 260, 256]], np.array([0.7, -1.3, 2.05])):
            ref = g.dt * (P @ np.exp(1j * np.outer(g.times(), dnus))) / e0
            om = overlap_map(f, g.dt * steps, dnus)
            npt.assert_allclose(om.values, ref[np.ix_(order, np.argsort(dnus))],
                                rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.float64, np.complex128]), st.integers(1, 40), st.data())
def test_windows_equal_the_sliding_window_rows(dtype, size, data):
    width = data.draw(st.integers(1, size))
    last = size - width  # the last start at which a window fits
    v = (np.arange(size) * 1.5 - 7).astype(dtype)
    if data.draw(st.booleans()):  # uniform starts: positive, negative or zero step
        first = data.draw(st.integers(0, last))
        step = data.draw(st.integers(-first, last - first))
        room = (last - first) // step if step > 0 else first // -step if step < 0 else 9
        starts = first + step * np.arange(data.draw(st.integers(1, room + 1)))
    else:  # irregular starts, possibly one
        starts = np.array(data.draw(st.lists(st.integers(0, last), min_size=1, max_size=12)))
    got = transforms._windows(v, width, starts)
    ref = np.lib.stride_tricks.sliding_window_view(v, width)[starts]
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    if starts.size == 1 or np.all(np.diff(starts) == starts[1] - starts[0]):
        assert np.shares_memory(got, v) and not got.flags.writeable


# --------------------------------------------------- node-subset correspondence


def correspondence_states():
    g = make_grid(512, 0.04, -10.24)
    off = make_grid(512, 0.04, -10.24 + 0.013)  # t_start off the dt lattice
    return {
        "compass": compass_state(g, CompassSpec(2.0, 2.0 * np.pi, SIGMA)),
        "chirped": chirped_gaussian(g, 1 / np.sqrt(2), 1.0),
        "off_lattice": compass_state(off, CompassSpec(2.0, 2.0 * np.pi, SIGMA)),
        # off centre, with every tau/2 on a q row but some a few ulp below it
        **{f"off_centre_{-t:g}": compass_state(make_grid(512, 0.02, t),
                                               CompassSpec(2.0, 2.0 * np.pi, SIGMA))
           for t in (-5.0, -5.11)},
    }


@pytest.mark.parametrize("state", ["compass", "chirped", "off_lattice", "off_centre_5",
                                   "off_centre_5.11"])
def test_node_subset_pattern_matches_full_wigner(monkeypatch, state):
    f = correspondence_states()[state]
    made = []  # the maps allocated; rows read exactly are used in place, not gathered
    real_empty = transforms._map_empty

    def map_empty(*args):
        made.append(real_empty(*args))
        return made[-1]

    monkeypatch.setattr(transforms, "_map_empty", map_empty)
    frog, pattern, residual = correspondence_maps(f)
    full = half_coordinate_pattern(f, wigner(f).values, frog.tau_axis)
    assert np.max(np.abs(pattern.values - full)) <= 1e-12
    assert residual == np.max(np.abs(frog.values - pattern.values))
    hf = frog.tau_axis / f.grid.dt - 2.0 * f.grid.t_start / f.grid.dt
    between_rows = np.abs(hf - np.rint(hf)) >= 1e-9
    assert np.all(between_rows) if state == "off_lattice" else not np.any(between_rows)
    assert np.all(transforms.row_fraction(hf)[1] != 0) == (state == "off_lattice")
    in_place = any(np.shares_memory(pattern.values, a) for a in made)
    assert in_place == (state != "off_lattice")


def test_correspondence_checks_imaginary_residue_on_nodes(monkeypatch):
    f = correspondence_states()["chirped"]
    monkeypatch.setattr(transforms, "IMAG_RESIDUE_LIMIT", 0.0)
    for cpus in (1, 2, 3):  # the 511 pattern rows come in 4 blocks
        monkeypatch.setattr(transforms, "_cpus", lambda: cpus)
        with pytest.raises(ComputeError, match="imaginary residue"):
            correspondence_residual(f)


# ------------------------------------------------ FFT-vs-oracle as a property


@st.composite
def compass_fields(draw):
    """Compass states whose spectra fit inside half the Nyquist range.

    Each pulse needs about 6.5 sigma of time span and 6.5/sigma of
    half-Nyquist band before it falls below the 1e-10 support floor. A
    32-point grid cannot hold that at any dt; 64 points hold it only for
    t0 up to about sigma, so the property runs on 64 and 128 points.
    """
    n = draw(st.sampled_from([64, 128]))
    dt = 0.1
    half_span = (n // 2 - 1) * dt
    band = math.pi / (2 * dt)
    reach = 6.5
    sigma = draw(st.floats(reach / band, half_span / reach))
    t0 = draw(st.floats(0.01, 1.0)) * (half_span - reach * sigma) + 1e-3
    omega0 = draw(st.floats(0.01, 1.0)) * (band - reach / sigma) + 1e-3
    f = compass_state(make_grid(n, dt, -(n // 2) * dt), CompassSpec(t0, omega0, sigma))
    assume(spectral_support(f) <= band)
    return f


@settings(max_examples=25, deadline=None)
@given(compass_fields())
def test_wigner_matches_quadrature_oracle(f):
    a = wigner(f)
    b = quadrature_oracle_wigner(f)
    raw_a = a.values * a.scale
    raw_b = b.values * b.scale
    assert np.max(np.abs(raw_a - raw_b)) / np.max(np.abs(raw_a)) <= 1e-9


# ------------------------------------------------------- map buffers


def on_own_pages(a):
    """Whether an array's memory is an anonymous map of its own."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, transforms.mmap.mmap)


def test_map_buffers_take_own_pages_from_the_size_cutoff():
    small = transforms._map_empty((2, 3), np.float64)
    big = transforms._map_empty((transforms.OWN_PAGES_BYTES // 16, 2), np.complex128)
    for a, shape, dtype in ((small, (2, 3), np.float64),
                            (big, (transforms.OWN_PAGES_BYTES // 16, 2), np.complex128)):
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
    assert small.flags.owndata
    assert on_own_pages(big) == hasattr(transforms.mmap, "MADV_HUGEPAGE")


def test_maps_are_bitwise_equal_on_either_buffer(monkeypatch):
    f = correspondence_states()["chirped"]
    taus = f.grid.dt * np.arange(-40, 41)

    def maps():
        frog, pattern, residual = correspondence_maps(f)
        om = overlap_map(f, taus, f.grid.ang_freqs())
        return frog.values, pattern.values, residual, wigner(f).values, om.values

    monkeypatch.setattr(transforms, "OWN_PAGES_BYTES", 0)
    paged = maps()
    assert on_own_pages(paged[0]) == hasattr(transforms.mmap, "MADV_HUGEPAGE")
    monkeypatch.setattr(transforms, "OWN_PAGES_BYTES", 1 << 62)
    for a, b in zip(paged, maps()):
        assert np.array_equal(a, b)
