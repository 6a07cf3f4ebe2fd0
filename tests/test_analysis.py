"""Analysis tests: slicing, zero finding, cell areas, sweeps, comparison."""

import bisect
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronomap import (
    CellAreaReport,
    ChronoError,
    CompassSpec,
    ComplexField,
    ConfigError,
    CrossSection,
    DataError,
    DomainError,
    InsufficientStructureError,
    PulseSpec,
    Spectrogram,
    Window,
    WignerMap,
    ZeroSet,
    cell_areas,
    compare_maps,
    compass_state,
    cross_section,
    find_zeros,
    gaussian_pulse,
    interior_spacings,
    load_map,
    make_grid,
    overlap_map,
    save_map,
    shg_frog,
    sweep_separation,
    wigner,
    wigner_cell_areas,
)
from chronomap.analysis import (SATELLITE_FLOOR, SIGN_CHATTER_FLOOR, SUB_FOURIER_LIMIT,
                                _auto_window, _build_report, _intensity_zeros,
                                _resample_bilinear, _satellite_halfwidth)

OMEGA0 = np.pi * 3.3
SIGMA = 0.25


def compass_map(t0=2.0, n=2048, dt=0.02, amplitudes=(1.0, 1.0, 1.0, 1.0)):
    g = make_grid(n, dt, -n * dt / 2)
    f = compass_state(g, CompassSpec(t0, OMEGA0, SIGMA, amplitudes=amplitudes))
    steps = int(round((2 * t0 + 1.0) / dt))
    return shg_frog(f, dt * np.arange(-steps, steps + 1))


# ---------------------------------------------------------------- types


def test_window_validation():
    Window(0.0, 1.0, 0.0, 2.0)
    with pytest.raises(ConfigError):
        Window(0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ConfigError):
        Window(0.0, 1.0, 0.0, -2.0)
    with pytest.raises(ConfigError):
        Window(np.nan, 1.0, 0.0, 2.0)


def test_cross_section_validation():
    ax = np.linspace(0, 1, 5)
    CrossSection(ax, np.ones(5), "intensity", ("frequency", 0.0))
    CrossSection(ax, np.array([-1.0, 1, -1, 1, -1]), "signed", ("delay", 0.0))
    with pytest.raises(ConfigError):
        CrossSection(ax, np.ones(4), "intensity", ("frequency", 0.0))
    with pytest.raises(ConfigError):
        CrossSection(ax, -np.ones(5), "intensity", ("frequency", 0.0))
    with pytest.raises(ConfigError):
        CrossSection(np.array([0.0, 0.1, 0.15, 0.4, 0.5]), np.ones(5), "intensity", ("frequency", 0.0))
    with pytest.raises(ConfigError):
        CrossSection(ax, np.ones(5), "magnitude", ("frequency", 0.0))
    sec = CrossSection(ax, np.ones(5), "intensity", ("frequency", 0.0))
    with pytest.raises(ValueError):
        sec.values[0] = 2.0


def test_zero_set_validation():
    ZeroSet(np.array([0.1, 0.4]), "sign-change")
    with pytest.raises(ConfigError):
        ZeroSet(np.array([0.4, 0.1]), "sign-change")


def test_cell_area_report_validation():
    w = Window(0, 1, 0, 1)
    with pytest.raises(ConfigError):
        CellAreaReport(np.array([0.3]), np.array([1.5]), np.array([0.45]), -0.45, True, w)


# --------------------------------------------------------- cross sections


def test_cross_section_grid_line_is_exact():
    m = compass_map(t0=1.5, n=512, dt=0.04)
    i = 10
    sec = cross_section(m, "frequency", m.tau_axis[i])
    npt.assert_array_equal(sec.values, m.values[i, :])
    npt.assert_array_equal(sec.axis, m.omega_axis)
    assert sec.kind == "intensity"
    assert sec.fixed_coordinate == ("delay", m.tau_axis[i])
    j = 100
    sec2 = cross_section(m, "delay", m.omega_axis[j])
    npt.assert_array_equal(sec2.values, m.values[:, j])


def test_cross_section_interpolates_between_lines():
    m = compass_map(t0=1.5, n=512, dt=0.04)
    mid = 0.5 * (m.omega_axis[40] + m.omega_axis[41])
    sec = cross_section(m, "delay", mid)
    npt.assert_allclose(sec.values, 0.5 * (m.values[:, 40] + m.values[:, 41]), atol=1e-14)


def test_cross_section_rejects():
    m = compass_map(t0=1.5, n=512, dt=0.04)
    with pytest.raises(DomainError):
        cross_section(m, "delay", m.omega_axis[-1] + 1.0)
    with pytest.raises(ConfigError):
        cross_section(m, "wavelength", 0.0)


def test_wigner_cross_section_is_signed():
    g = make_grid(512, 0.04, -10.24)
    wm = wigner(compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)))
    sec = cross_section(wm, "frequency", 0.0)
    assert sec.kind == "signed"
    assert np.any(sec.values < 0)


# ------------------------------------------------------------ find_zeros


def test_find_zeros_cosine_squared_slice():
    ax = np.arange(-2.0, 2.0001, 0.02)
    sec = CrossSection(ax, np.cos(OMEGA0 * ax) ** 2, "intensity", ("frequency", 0.0))
    zs = find_zeros(sec)
    assert zs.method == "minimum-below-threshold"
    # the outermost zero pair has no flanking maxima inside the slice
    expected = (np.arange(-6, 6) + 0.5) * np.pi / OMEGA0
    npt.assert_allclose(zs.positions, expected, atol=0.005)
    npt.assert_allclose(np.diff(zs.positions), np.pi / OMEGA0, rtol=1e-2)


def test_find_zeros_gaussian_slice_empty():
    ax = np.arange(-2.0, 2.0001, 0.02)
    sec = CrossSection(ax, np.exp(-(ax**2)), "intensity", ("frequency", 0.0))
    assert find_zeros(sec).positions.size == 0


def test_find_zeros_noise_regression():
    ax = np.arange(-2.0, 2.0001, 0.02)
    clean = np.cos(OMEGA0 * ax) ** 2 * np.exp(-(ax**2) / 4)
    n_clean = find_zeros(
        CrossSection(ax, clean, "intensity", ("frequency", 0.0)), 0.05
    ).positions.size
    assert n_clean == 12
    rng = np.random.default_rng(0)
    noisy = np.clip(clean + 0.01 * rng.standard_normal(ax.size), 0, None)
    n_noisy = find_zeros(
        CrossSection(ax, noisy, "intensity", ("frequency", 0.0)), 0.05
    ).positions.size
    assert n_noisy == n_clean


def test_find_zeros_signed_interpolation():
    ax = np.arange(-1.5, 1.5001, 0.02)
    sec = CrossSection(ax, np.sin(np.pi * ax), "signed", ("delay", 0.0))
    zs = find_zeros(sec)
    assert zs.method == "sign-change"
    npt.assert_allclose(zs.positions, [-1.0, 0.0, 1.0], atol=2e-3)


def test_find_zeros_signed_gates_roundoff_chatter():
    ax = np.arange(0.0, 4.0001, 0.02)
    body = np.sin(np.pi * ax) * np.exp(-(ax**2))
    chatter = 1e-13 * np.cos(40 * ax)
    vals = np.where(ax < 2.5, body, chatter[: ax.size])
    zs = find_zeros(CrossSection(ax, vals, "signed", ("delay", 0.0)))
    assert np.all(zs.positions < 2.5)
    npt.assert_allclose(zs.positions, [1.0, 2.0], atol=2e-3)


@pytest.mark.parametrize("values,expected", [
    ([1, 0, -1, -1, -1, -1], [1.0]),  # a single zero node keeps its position
    ([1, 0, 0, -1, -1, -1], [1.5]),  # a run of exact zeros counts once, at its midpoint
    ([-1, 0, 0, 0, 1, 1], [2.0]),
    ([1, 0, 0, 1, 1, 1], []),  # a touch, not a crossing
    ([0, 0, 1, 1, 0, 0], []),  # leading and trailing runs count nothing
])
def test_find_zeros_signed_runs_of_exact_zeros(values, expected):
    sec = CrossSection(np.arange(6.0), np.array(values, float), "signed", ("delay", 0.0))
    npt.assert_array_equal(find_zeros(sec).positions, expected)


def test_find_zeros_intensity_near_the_float_limit():
    """The parabola through the bracketing triple must not overflow."""
    y = np.array([0, 1.7e308, 1e300, 1.6e308, 2e300, 1.7e308, 0])
    ax = np.arange(7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = find_zeros(CrossSection(ax, y, "intensity", ("delay", 0.0))).positions
    small = find_zeros(CrossSection(ax, y * 1e-300, "intensity", ("delay", 0.0))).positions
    npt.assert_allclose(big, small, rtol=1e-15)
    npt.assert_allclose(big, [2.0152, 3.9848], atol=1e-4)


def test_find_zeros_rejects():
    ax = np.linspace(0, 1, 9)
    sec = CrossSection(ax, np.ones(9), "intensity", ("frequency", 0.0))
    with pytest.raises(ConfigError):
        find_zeros(sec, noise_floor=1.0)
    with pytest.raises(ConfigError):
        find_zeros(sec, noise_floor=-0.1)
    with pytest.raises(ConfigError):
        find_zeros(CrossSection(np.array([0.0, 1.0]), np.ones(2), "intensity", ("f", 0.0)))
    bad = np.ones(9)
    bad[4] = np.nan
    with pytest.raises(DataError):
        find_zeros(CrossSection(ax, bad, "signed", ("frequency", 0.0)))


# ---------------------------------------- reference per-sample loops


def _ref_intensity_zeros(x, y, noise_floor):
    """The per-sample loop: maxima listed, then one bisect per minimum."""
    n = y.size
    gate = SIGN_CHATTER_FLOOR * y.max()
    maxima = [i for i in range(1, n - 1)
              if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] >= gate]
    out = []
    for i in range(1, n - 1):
        if not (y[i] < y[i - 1] and y[i] <= y[i + 1]):
            continue
        k = bisect.bisect(maxima, i)
        if k == 0 or k == len(maxima):
            continue
        flank = min(y[maxima[k - 1]], y[maxima[k]])
        floor = max(noise_floor, 2 * math.sin(math.pi / (2 * (maxima[k] - maxima[k - 1]))) ** 2)
        if flank <= 0 or y[i] >= floor * flank:
            continue
        a, b, c = 0.25 * y[i - 1], 0.25 * y[i], 0.25 * y[i + 1]
        d2 = a - 2 * b + c
        shift = 0.0 if d2 <= 0 else 0.5 * (a - c) / d2
        shift = min(1.0, max(-1.0, shift))
        out.append(x[i] + shift * (x[i + 1] - x[i]))
    return np.array(out)


def _ref_satellite_halfwidth(axis, profile, fallback):
    """The per-sample loop: maxima listed, runs cut one gap at a time."""
    peak = profile.max()
    if peak <= 0:
        return fallback
    idx = [
        i
        for i in range(1, profile.size - 1)
        if profile[i] >= profile[i - 1]
        and profile[i] >= profile[i + 1]
        and profile[i] > SATELLITE_FLOOR * peak
    ]
    if len(idx) < 2:
        return fallback
    pos = axis[idx]
    val = profile[idx]
    gaps = np.diff(pos)
    cut = max(3 * np.median(gaps), 5 * (axis[1] - axis[0]))
    starts = [0] + [i + 1 for i in range(gaps.size) if gaps[i] > cut]
    bounds = starts + [pos.size]
    clusters = [(pos[a:b], val[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    if len(clusters) < 2:
        return fallback
    centroids = [float(np.sum(p * v) / np.sum(v)) for p, v in clusters]
    outermost = max(abs(c) for c in centroids)
    if outermost <= 3 * (axis[1] - axis[0]):
        return fallback
    return outermost / 2


def _ref_build_report(zt, zw, window):
    """Two return paths: cells and a verdict, or a spacing report alone."""
    has_t, has_w = zt.size >= 2, zw.size >= 2
    if not has_t and not has_w:
        raise InsufficientStructureError(
            "fewer than 2 zeros along both axes; no interference cells")
    st = interior_spacings(np.diff(zt)) if has_t else np.array([])
    sw = interior_spacings(np.diff(zw)) if has_w else np.array([])
    if has_t and has_w:
        areas = np.outer(st, sw).ravel()
        mean = float(areas.mean())
        return CellAreaReport(st, sw, areas, mean, bool(mean < SUB_FOURIER_LIMIT), window)
    return CellAreaReport(st, sw, np.array([]), None, None, window)


# ties, plateaus and runs of exact zeros come from a few repeated levels; the scales reach
# subnormal products at 1e-300 and, for zeros, the float limit
_LEVELS = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0]), st.floats(0, 1))
_SCALES = [1e-300, 1e-30, 1.0, 1e30, 1e300]


def _samples(scales=_SCALES):
    runs = st.lists(st.tuples(_LEVELS, st.integers(1, 9)), min_size=1, max_size=25).map(
        lambda r: [v for v, k in r for _ in range(k)]).filter(lambda v: len(v) >= 3)
    single = st.lists(_LEVELS, min_size=3, max_size=80)
    return st.tuples(st.one_of(single, runs), st.sampled_from(scales)).map(
        lambda t: np.array(t[0]) * t[1])


def _axis_for(data, size):
    start = data.draw(st.floats(-50, 50))
    return start + data.draw(st.floats(1e-3, 10)) * np.arange(size)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _report_bits(r):
    return (*(_bits(a) for a in (r.tau_spacings, r.omega_spacings, r.cell_areas)),
            r.mean_area, r.sub_fourier, r.window)


@settings(max_examples=300, deadline=None)
@given(_samples(_SCALES + [sys.float_info.max]),
       st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0, 1, exclude_max=True)), st.data())
def test_intensity_zeros_equal_the_loop_bitwise(y, noise_floor, data):
    x = _axis_for(data, y.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _intensity_zeros(x, y, noise_floor)
    assert _bits(got) == _bits(_ref_intensity_zeros(x, y, noise_floor))


@settings(max_examples=300, deadline=None)
@given(_samples(), st.data())
def test_satellite_halfwidth_equals_the_loop_bitwise(profile, data):
    axis = _axis_for(data, profile.size)
    axis = axis - axis[data.draw(st.integers(0, axis.size - 1))]  # the center on a node
    got = _satellite_halfwidth(axis, profile, 0.125)
    want = _ref_satellite_halfwidth(axis, profile, 0.125)
    assert type(got) is type(want) and _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(*[st.lists(st.floats(-1e3, 1e3), max_size=12, unique=True).map(sorted)] * 2)
@example([], [])
@example([0.0, 1.0], [])
def test_report_equals_the_two_path_report_bitwise(zt, zw):
    zt, zw, w = np.array(zt), np.array(zw), Window(0, 1, 0, 1)
    outcomes = []
    for build in (_build_report, _ref_build_report):
        try:
            r = build(zt, zw, w)
        except ChronoError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(_report_bits(r))
    assert outcomes[0] == outcomes[1]


def test_interior_spacings_trim():
    npt.assert_array_equal(interior_spacings([1.0, 2.0]), [1.0, 2.0])
    npt.assert_array_equal(interior_spacings([1, 2, 3, 4]), [1, 2, 3, 4])
    npt.assert_array_equal(interior_spacings([1, 2, 3, 4, 5]), [2, 3, 4])
    npt.assert_array_equal(interior_spacings(np.arange(7)), [2, 3, 4])
    npt.assert_array_equal(interior_spacings(np.arange(15)), np.arange(2, 13))


# ------------------------------------------------------------ cell areas


def test_cell_areas_compass_sub_fourier():
    m = compass_map(t0=2.5)
    rep = cell_areas(m, Window(0, 2.5, 0, OMEGA0))
    expected = np.pi**2 / (2.5 * OMEGA0)
    npt.assert_allclose(rep.mean_area, expected, rtol=2e-2)
    assert rep.sub_fourier is True
    npt.assert_allclose(rep.tau_spacings, np.pi / OMEGA0, rtol=1e-2)
    npt.assert_allclose(rep.omega_spacings, np.pi / 2.5, rtol=1e-2)
    npt.assert_allclose(
        rep.cell_areas,
        np.outer(rep.tau_spacings, rep.omega_spacings).ravel(),
    )
    assert rep.window.tau_halfwidth == 2.5


def test_cell_areas_small_separation_not_sub_fourier():
    rep = cell_areas(compass_map(t0=1.25), Window(0, 1.25, 0, OMEGA0))
    npt.assert_allclose(rep.mean_area, np.pi**2 / (1.25 * OMEGA0), rtol=2e-2)
    assert rep.sub_fourier is False


def test_cell_areas_gaussian_insufficient():
    g = make_grid(1024, 0.02, -10.24)
    m = shg_frog(gaussian_pulse(g, PulseSpec(0, 0, SIGMA)), g.dt * np.arange(-200, 201))
    with pytest.raises(InsufficientStructureError):
        cell_areas(m, Window(0, 2.0, 0, OMEGA0))


def test_cell_areas_auto_window():
    m = compass_map(t0=2.0)
    win = _auto_window(m)
    assert abs(win.tau_halfwidth - 2.0) < 0.05
    assert abs(win.omega_halfwidth - OMEGA0) < 0.15
    rep = cell_areas(m)
    npt.assert_allclose(rep.mean_area, np.pi**2 / (2.0 * OMEGA0), rtol=2e-2)


def test_cell_areas_rejects_wrong_type():
    g = make_grid(512, 0.04, -10.24)
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    wm, w = wigner(f), Window(0, 1, 0, 1)
    # either map kind is measured, a Wigner map as wigner_cell_areas measures it
    assert _report_bits(cell_areas(wm, w)) == _report_bits(wigner_cell_areas(wm, w))
    with pytest.raises(ConfigError):
        cell_areas(overlap_map(f, [0.0, 0.04], [0.0, 1.0]), w)
    with pytest.raises(ConfigError):
        wigner_cell_areas(compass_map(t0=1.5, n=512, dt=0.04), w)


def _spacing_ratio(rep):
    """The largest over the smallest interior zero spacing, on the worse axis."""
    return max(s.max() / s.min() for s in (rep.tau_spacings, rep.omega_spacings))


@settings(max_examples=25, deadline=None)
@given(st.floats(4.0, 20.0))
@example(5.0)  # each of these missed the law with a fixed 0.05 depth floor
@example(7.0)
def test_cell_areas_meet_the_law_at_four_to_twenty_samples_per_fringe(per_fringe):
    # frequency fringes are pi/t0 apart, so t0 = n*dt/(2P) puts P samples in each;
    # n is the power of two that keeps t0 in the reference range [1.25, 2.5) ps
    dt = 0.02
    n = 2 ** int(np.ceil(np.log2(2.5 * per_fringe / dt)))
    t0 = n * dt / (2 * per_fringe)
    f = compass_state(make_grid(n, dt, -n * dt / 2), CompassSpec(t0, OMEGA0, SIGMA))
    steps = int(round((t0 + 0.5) / dt))
    rep = cell_areas(shg_frog(f, dt * np.arange(-steps, steps + 1)), Window(0, t0, 0, OMEGA0))
    npt.assert_allclose(rep.mean_area, np.pi**2 / (t0 * OMEGA0), rtol=2e-2)
    assert _spacing_ratio(rep) < 1.5


# ----------------------------------------------------- Wigner cell areas


def test_wigner_cell_areas_compass():
    g = make_grid(512, 0.04, -10.24)
    wm = wigner(compass_state(g, CompassSpec(2.5, OMEGA0, SIGMA)))
    rep = wigner_cell_areas(wm, Window(0, 1.25, 0, OMEGA0 / 2))
    expected = np.pi**2 / (4 * 2.5 * OMEGA0)
    npt.assert_allclose(rep.mean_area, expected, rtol=2e-2)
    assert rep.sub_fourier is True
    # quarter of the spectrogram-coordinate cell area
    frog_rep = cell_areas(compass_map(t0=2.5), Window(0, 2.5, 0, OMEGA0))
    npt.assert_allclose(rep.mean_area, frog_rep.mean_area / 4, rtol=2e-2)
    npt.assert_allclose(rep.tau_spacings, np.pi / (2 * OMEGA0), rtol=2e-2)
    npt.assert_allclose(rep.omega_spacings, np.pi / 5, rtol=2e-2)


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 2.5))
@example(1.0)
@example(2.5)
def test_wigner_cells_meet_the_law_with_regular_spacings(t0):
    # the figure-4 grid; Wigner cells are a quarter of the spectrogram's, pi^2/(4 t0 w0)
    g = make_grid(512, 0.04, -10.24)
    wm = wigner(compass_state(g, CompassSpec(t0, OMEGA0, SIGMA)))
    w = Window(0, t0 / 2, 0, OMEGA0 / 2)
    rep = cell_areas(wm, w)
    npt.assert_allclose(rep.mean_area, np.pi**2 / (4 * t0 * OMEGA0), rtol=2e-2)
    assert _spacing_ratio(rep) < 1.5
    assert _report_bits(rep) == _report_bits(wigner_cell_areas(wm, w))


def test_wigner_cell_areas_cat_one_direction():
    g = make_grid(512, 0.04, -10.24)
    t = g.times()
    h = np.exp(-((t - 2.0) ** 2) / (2 * SIGMA**2)) + np.exp(-((t + 2.0) ** 2) / (2 * SIGMA**2))
    h = h / np.sqrt(np.sum(np.abs(h) ** 2) * g.dt)
    rep = wigner_cell_areas(wigner(ComplexField(g, h)), Window(0, 1.0, 0, OMEGA0 / 2))
    assert rep.mean_area is None and rep.sub_fourier is None
    assert rep.tau_spacings.size == 0 and rep.cell_areas.size == 0
    npt.assert_allclose(rep.omega_spacings, np.pi / 4, rtol=1e-2)


def test_wigner_cell_areas_gaussian_insufficient():
    g = make_grid(512, 0.04, -10.24)
    wm = wigner(gaussian_pulse(g, PulseSpec(0, 0, SIGMA)))
    with pytest.raises(InsufficientStructureError):
        wigner_cell_areas(wm)


# ----------------------------------------------------------------- sweep


def test_sweep_matches_area_law_and_flips_once():
    pts = sweep_separation(CompassSpec(1.0, OMEGA0, SIGMA), [1.25, 1.75, 2.0, 2.5])
    assert [p.status for p in pts] == ["ok"] * 4
    means = [p.mean_area for p in pts]
    for p in pts:
        npt.assert_allclose(p.mean_area, np.pi**2 / (p.t0 * OMEGA0), rtol=2e-2)
    assert all(a > b for a, b in zip(means, means[1:]))
    assert [p.sub_fourier for p in pts] == [False, False, True, True]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 168))
@example(93)  # t0 = 3.325, 5.075 and 5.125 ps read +55%, +73% and +47% with no roundoff gate
@example(163)
@example(165)
def test_sweep_meets_the_law_over_a_dense_separation_range(k):
    # t0 from 1 to 5.2 ps in steps of 0.025; the tolerance is acceptance criterion 2's
    t0 = 1.0 + 0.025 * k
    (point,) = sweep_separation(CompassSpec(1.0, OMEGA0, SIGMA), [t0])
    assert point.status == "ok"
    npt.assert_allclose(point.mean_area, np.pi**2 / (t0 * OMEGA0), rtol=2e-2)


def test_sweep_empty():
    assert sweep_separation(CompassSpec(1.0, OMEGA0, SIGMA), []) == ()


def test_sweep_records_bad_point():
    pts = sweep_separation(CompassSpec(1.0, OMEGA0, SIGMA), [0.1, 2.0])
    assert pts[0].status == "error"
    assert pts[0].mean_area is None and pts[0].sub_fourier is None
    assert "zero" in pts[0].message or "sample" in pts[0].message
    assert pts[1].status == "ok"


# ----------------------------------------------------------- compare_maps


def test_compare_map_with_itself():
    m = compass_map(t0=2.0, n=1024, dt=0.02)
    assert compare_maps(m, m) == pytest.approx(1.0, abs=1e-12)


def test_compare_perturbed_amplitudes():
    a = compass_map(t0=2.0, n=1024, dt=0.02)
    b = compass_map(t0=2.0, n=1024, dt=0.02, amplitudes=(1.0, 0.8, 1.0, 0.9))
    score = compare_maps(a, b)
    assert 0.9 < score < 0.9999


def test_compare_against_gaussian():
    a = compass_map(t0=2.0, n=1024, dt=0.02)
    g = make_grid(1024, 0.02, -10.24)
    b = shg_frog(gaussian_pulse(g, PulseSpec(0, 0, SIGMA)), g.dt * np.arange(-250, 251))
    assert compare_maps(a, b) < 0.5


def test_compare_wigner_maps():
    g = make_grid(512, 0.04, -10.24)
    wa = wigner(compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)))
    assert compare_maps(wa, wa) == pytest.approx(1.0, abs=1e-12)


def test_compare_rejects():
    from chronomap import Spectrogram

    a = compass_map(t0=1.5, n=512, dt=0.04)
    g = make_grid(512, 0.04, -10.24)
    wm = wigner(compass_state(g, CompassSpec(1.5, OMEGA0, SIGMA)))
    with pytest.raises(ConfigError):
        compare_maps(a, wm)
    far = Spectrogram(a.tau_axis + 1000.0, a.omega_axis, a.values.copy(), a.scale)
    with pytest.raises(DomainError):
        compare_maps(a, far)


def _compass_field(n, dt, t_start, t0=2.0, amplitudes=(1.0, 1.0, 1.0, 1.0)):
    g = make_grid(n, dt, t_start)
    return compass_state(g, CompassSpec(t0, OMEGA0, SIGMA, amplitudes=amplitudes))


def _shifted(m, d_first, d_second):
    """The same map on axes moved by the given offsets."""
    from chronomap import Spectrogram, WignerMap

    if isinstance(m, Spectrogram):
        return Spectrogram(m.tau_axis + d_first, m.omega_axis + d_second, m.values, m.scale)
    return WignerMap(m.q_axis + d_first, m.p_axis + d_second, m.values, m.scale)


def _frog_fine_vs_coarse():
    a = shg_frog(_compass_field(1024, 0.02, -10.24), 0.02 * np.arange(-250, 251))
    b = shg_frog(_compass_field(512, 0.04, -10.227), 0.04 * np.arange(-120, 121))
    return a, _shifted(b, 0.013, 0.0)


def _frog_perturbed():
    a = shg_frog(_compass_field(2048, 0.02, -20.48, amplitudes=(1.0, 0.8, 1.0, 0.9)),
                 0.02 * np.arange(-250, 251))
    b = shg_frog(_compass_field(1024, 0.025, -12.5, t0=1.9), 0.05 * np.arange(-100, 101))
    return a, _shifted(b, -0.031, 0.07)


def _wigner_coarse_vs_fine():
    a = wigner(_compass_field(512, 0.04, -10.24))
    b = wigner(_compass_field(1024, 0.02, -10.2437, amplitudes=(1.0, 0.7, 1.0, 1.0)))
    return a, _shifted(b, 0.0, -0.05)


# Scores from the scipy RegularGridInterpolator route this resample replaced.
@pytest.mark.parametrize("pair, expected", [
    (_frog_fine_vs_coarse, 0.9900542825586855),
    (_frog_perturbed, 0.8707530902938996),
    (_wigner_coarse_vs_fine, 0.9706317870747792),
])
def test_compare_maps_on_mismatched_grids(pair, expected):
    a, b = pair()
    assert compare_maps(a, b) == pytest.approx(expected, rel=0, abs=1e-12)
    assert compare_maps(b, a) == pytest.approx(expected, rel=0, abs=1e-12)


def _uniform_axis():
    return st.tuples(
        st.floats(-5, 5), st.floats(0.05, 1.0), st.integers(2, 12)
    ).map(lambda a: a[0] + a[1] * np.arange(a[2]))


@settings(max_examples=60, deadline=None)
@given(_uniform_axis(), _uniform_axis(), st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(0, 1), min_size=1, max_size=6),
       st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_resample_reproduces_bilinear_functions(ax_t, ax_w, coef, ft, fw):
    a, b, c, d = coef

    def f(t, w):
        return a + b * t + c * w + d * t * w

    values = f(ax_t[:, None], ax_w[None, :])
    ts = np.sort(np.r_[ax_t[0], ax_t[-1], ax_t[0] + np.array(ft) * (ax_t[-1] - ax_t[0])])
    ws = np.sort(np.r_[ax_w[0], ax_w[-1], ax_w[0] + np.array(fw) * (ax_w[-1] - ax_w[0])])
    ts, ws = np.clip(ts, ax_t[0], ax_t[-1]), np.clip(ws, ax_w[0], ax_w[-1])
    got = _resample_bilinear(values, ax_t, ax_w, ts, ws)
    npt.assert_allclose(got, f(ts[:, None], ws[None, :]), rtol=0, atol=1e-12)


def _ref_resample_bilinear(values, ax_t, ax_w, ts, ws):
    """Map-sized two-pass blend: all rows along the time-like axis, then all columns."""

    def weights(axis, x):
        i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    i, y = weights(ax_t, ts)
    rows = values[i] * (1 - y)[:, None] + values[i + 1] * y[:, None]
    j, z = weights(ax_w, ws)
    return rows[:, j] * (1 - z) + rows[:, j + 1] * z


def _ref_compare_maps(a, b):
    """Similarity with both patches normalized and centered in copies."""
    lo_t, hi_t = max(a.time_axis[0], b.time_axis[0]), min(a.time_axis[-1], b.time_axis[-1])
    lo_w, hi_w = max(a.freq_axis[0], b.freq_axis[0]), min(a.freq_axis[-1], b.freq_axis[-1])
    step_t = min(np.diff(a.time_axis)[0], np.diff(b.time_axis)[0])
    step_w = min(np.diff(a.freq_axis)[0], np.diff(b.freq_axis)[0])
    ts = np.linspace(lo_t, hi_t, max(2, int(round((hi_t - lo_t) / step_t)) + 1))
    ws = np.linspace(lo_w, hi_w, max(2, int(round((hi_w - lo_w) / step_w)) + 1))
    x, y = (_ref_resample_bilinear(m.values, m.time_axis, m.freq_axis, ts, ws).ravel()
            for m in (a, b))
    x, y = x / np.max(np.abs(x)), y / np.max(np.abs(y))
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (x.std() * y.std()))
    return max(-1.0, min(1.0, r))


@settings(max_examples=60, deadline=None)
@given(_uniform_axis(), _uniform_axis(), st.integers(2, 30), st.integers(2, 30),
       st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_resample_blocks_equal_the_two_pass_blend(ax_t, ax_w, n_t, n_w, block, seed):
    import chronomap.analysis as analysis

    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ax_t.size, ax_w.size))
    ts = np.sort(rng.uniform(ax_t[0], ax_t[-1], n_t))
    ws = np.sort(rng.uniform(ax_w[0], ax_w[-1], n_w))
    saved, analysis.BLOCK_CELLS = analysis.BLOCK_CELLS, block  # blocks of a few rows
    try:
        got = _resample_bilinear(values, ax_t, ax_w, ts, ws)
    finally:
        analysis.BLOCK_CELLS = saved
    assert got.tobytes() == _ref_resample_bilinear(values, ax_t, ax_w, ts, ws).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40), st.floats(0.5, 2.0), st.floats(-0.5, 0.5),
       st.integers(0, 2**32 - 1), st.booleans())
def test_similarity_matches_the_copying_correlation(rows, cols, scale, shift, seed, signed):
    rng = np.random.default_rng(seed)
    va, vb = rng.normal(size=(2, rows, cols)) + 0.5
    cls = WignerMap if signed else Spectrogram
    if not signed:
        va, vb = np.abs(va), np.abs(vb)
    a = cls(0.1 * np.arange(rows), 0.3 * np.arange(cols), va, 1.0)
    b = cls(0.1 * scale * np.arange(rows) + shift, 0.3 * (np.arange(cols) - shift), vb, 1.0)
    assume(a.time_axis[-1] > b.time_axis[0] and b.time_axis[-1] > a.time_axis[0])
    assert compare_maps(a, b) == pytest.approx(_ref_compare_maps(a, b), rel=0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(1, 7), st.integers(1, 7), st.data())
def test_any_loadable_map_raises_only_chrono_errors(signed, rows, cols, data):
    # small maps, one row or one column included, written and read back as a file
    def axis(size):
        start = data.draw(st.floats(-50, 50))
        return start + data.draw(st.floats(1e-3, 10)) * np.arange(size)

    value = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(data.draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    values = values.reshape(rows, cols) if signed else np.abs(values).reshape(rows, cols)
    cls = WignerMap if signed else Spectrogram
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.chronomap")
        save_map(cls(axis(rows), axis(cols), values, data.draw(st.floats(0, 1e6))), path)
        m = load_map(path)
    fractions = st.floats(0, 1)
    calls = [
        lambda: cross_section(m, "delay", m.freq_axis[0] + data.draw(fractions)
                              * (m.freq_axis[-1] - m.freq_axis[0])),
        lambda: cross_section(m, "frequency", m.time_axis[0] + data.draw(fractions)
                              * (m.time_axis[-1] - m.time_axis[0])),
        lambda: wigner_cell_areas(m) if signed else cell_areas(m),
        lambda: compare_maps(m, m),
    ]
    for call in calls:
        try:
            call()
        except ChronoError:
            pass
