"""Acceptance gate: one test and one printed verdict line per criterion, and
properties that hold a criterion over random states."""

import filecmp
import os
import time

import numpy as np
import numpy.testing as npt
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronomap import (
    Calibration,
    CompassSpec,
    ComplexField,
    PulseSpec,
    SPEED_OF_LIGHT_NM_PER_PS,
    ShaperMask,
    Window,
    apply_shaper,
    cell_areas,
    chirped_gaussian,
    compass_state,
    correspondence_residual,
    cross_section,
    energy,
    find_zeros,
    gaussian_pulse,
    load_field,
    load_map,
    make_grid,
    overlap_map,
    quadrature_oracle_frog,
    quadrature_oracle_wigner,
    save_field,
    save_map,
    shg_frog,
    spectrum,
    sweep_separation,
    trace_from_spectrogram,
    upsample2,
    wigner,
)
from chronomap.analysis import CrossSection
from chronomap.fieldcore import spectral_support
from chronomap.cli import main

OMEGA0 = np.pi * 3.3
SIGMA = 0.25
T0_POINTS = (1.25, 1.75, 2.0, 2.5)


def _verdict(num, label, ok, detail=""):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _raw(m):
    return m.values * m.scale if m.scale > 0 else m.values


def test_criterion_1_squared_map_correspondence():
    g = make_grid(1024, 0.02, -10.24)
    start = time.perf_counter()
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    r_compass = correspondence_residual(f)
    t_compass = time.perf_counter() - start
    start = time.perf_counter()
    r_chirp = correspondence_residual(chirped_gaussian(g, 2.0**-0.5, 1.0))
    t_chirp = time.perf_counter() - start
    ok = (
        r_compass <= 1e-6
        and r_chirp > 0.01
        and t_compass <= 10.0
        and t_chirp <= 10.0
    )
    _verdict(
        1, "squared-map correspondence", ok,
        f"compass residual {r_compass:.2e}, chirped {r_chirp:.3f}, "
        f"{t_compass:.1f}s/{t_chirp:.1f}s",
    )


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 2.5), st.floats(2.0, 5.0), st.floats(0.2, 0.35))
def test_criterion_1_holds_on_random_compass_states(t0, omega0_over_pi, sigma):
    # the kernel benchmark's symmetric compass draws (perfbench/inputs.py) on its smallest
    # grid, where t0 + 7.5 sigma stays inside +-5.12 ps and the spectrum inside half-Nyquist
    g = make_grid(512, 0.02, -5.12)
    f = compass_state(g, CompassSpec(t0, np.pi * omega0_over_pi, sigma))
    assert correspondence_residual(f) <= 1e-6


def test_criterion_2_sub_fourier_crossing():
    start = time.perf_counter()
    series = sweep_separation(CompassSpec(2.0, OMEGA0, SIGMA), T0_POINTS)
    elapsed = time.perf_counter() - start
    ok = all(p.status == "ok" for p in series) and elapsed <= 60.0
    worst = 0.0
    for p in series:
        expected = np.pi**2 / (p.t0 * OMEGA0)
        worst = max(worst, abs(p.mean_area - expected) / expected)
    ok = ok and worst <= 0.02
    verdicts = [p.sub_fourier for p in series]
    ok = ok and verdicts == [False, False, True, True]
    _verdict(
        2, "sub-Fourier crossing between 1.75 and 2.0 ps", ok,
        f"worst mean-area error {worst * 100:.2f}%, verdicts {verdicts}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_zero_spacing_law():
    g = make_grid(1024, 0.02, -10.24)
    omega_axis = (2 * np.pi / (2048 * 0.02)) * np.arange(-72, 73)
    worst_tau = worst_omega = 0.0
    for t0 in T0_POINTS:
        f = compass_state(g, CompassSpec(t0, OMEGA0, SIGMA))
        steps = int(round((2 * t0 + 1.0) / 0.02))
        taus = 0.02 * np.arange(-steps, steps + 1)
        m = quadrature_oracle_frog(f, taus, omega_axis)
        rep = cell_areas(m, Window(0.0, t0, 0.0, OMEGA0))
        d_tau = np.mean(rep.tau_spacings)
        d_omega = np.mean(rep.omega_spacings)
        worst_tau = max(worst_tau, abs(d_tau - np.pi / OMEGA0) / (np.pi / OMEGA0))
        worst_omega = max(worst_omega, abs(d_omega - np.pi / t0) / (np.pi / t0))
    ok = worst_tau <= 0.01 and worst_omega <= 0.01
    _verdict(
        3, "zero-spacing law on the quadrature route", ok,
        f"worst delay error {worst_tau * 100:.2f}%, "
        f"worst frequency error {worst_omega * 100:.2f}%",
    )


def test_criterion_4_orthogonalizing_shifts():
    dt_star = np.pi / (2 * OMEGA0)
    dt = dt_star / 8
    g = make_grid(1024, dt, -dt * 512)
    worst_overlap = 0.0
    worst_mismatch = 0.0
    for t0 in T0_POINTS:
        f = compass_state(g, CompassSpec(t0, OMEGA0, SIGMA))
        v_time = abs(overlap_map(f, [dt_star], [0.0]).values[0, 0])
        v_freq = abs(overlap_map(f, [0.0], [np.pi / (2 * t0)]).values[0, 0])
        worst_overlap = max(worst_overlap, v_time, v_freq)
        steps = int(round((2 * t0 + 1.0) / dt))
        taus = dt * np.arange(-steps, steps + 1)
        frog_zeros = find_zeros(cross_section(shg_frog(f, taus), "delay", 0.0))
        overlap_line = overlap_map(f, taus, [0.0]).values[:, 0]
        section = CrossSection(
            taus, np.abs(overlap_line) ** 2, "intensity", ("frequency-shift", 0.0)
        )
        overlap_zeros = find_zeros(section)
        assert frog_zeros.positions.size >= 4
        for z in frog_zeros.positions:
            worst_mismatch = max(
                worst_mismatch, np.min(np.abs(overlap_zeros.positions - z))
            )
    ok = worst_overlap <= 1e-3 and worst_mismatch <= dt
    _verdict(
        4, "half-spacing shifts orthogonalize the state", ok,
        f"worst |overlap| {worst_overlap:.2e}, "
        f"worst zero mismatch {worst_mismatch / dt:.2f} grid steps",
    )


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 2.5), st.floats(2.5, 4.0))
def test_criterion_4_half_spacing_overlaps_meet_their_closed_forms(t0, omega0_over_pi):
    # on criterion 4's grid; the closed forms drop the cross-lobe terms, of order
    # exp(-t0^2 / sigma^2) <= 1.2e-7, and hold between the criterion's four separations,
    # where |overlap| itself can pass 1e-3 (the carrier cross term exp(-(omega0 sigma)^2))
    omega0 = np.pi * omega0_over_pi
    dt_star = np.pi / (2 * omega0)
    dnu_star = np.pi / (2 * t0)
    g = make_grid(1024, dt_star / 8, -dt_star / 8 * 512)
    f = compass_state(g, CompassSpec(t0, omega0, SIGMA))
    carrier = np.exp(-((omega0 * SIGMA) ** 2))
    d = 1 + carrier * np.cos(2 * omega0 * t0)
    time_form = abs(np.cos(2 * omega0 * t0)) * np.exp(-dt_star**2 / (4 * SIGMA**2)) * carrier / d
    freq_form = abs(np.sin(2 * omega0 * t0)) * 0.5 * (
        np.exp(-((2 * omega0 - dnu_star) ** 2) * SIGMA**2 / 4)
        - np.exp(-((2 * omega0 + dnu_star) ** 2) * SIGMA**2 / 4)) / d
    assert abs(abs(overlap_map(f, [dt_star], [0.0]).values[0, 0]) - time_form) <= 1e-6
    assert abs(abs(overlap_map(f, [0.0], [dnu_star]).values[0, 0]) - freq_form) <= 1e-6


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (256, 512):
        g = make_grid(n, 0.04, -n * 0.02)
        states = (
            gaussian_pulse(g, PulseSpec(0, 0, SIGMA)),
            compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 0, 0))),
            compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)),
        )
        taus = 0.04 * np.arange(-100, 101)
        for f in states:
            a = shg_frog(f, taus)
            b = quadrature_oracle_frog(f, taus, g.ang_freqs())
            worst = max(
                worst,
                np.max(np.abs(_raw(a) - _raw(b))) / np.max(np.abs(_raw(a))),
            )
            wa = wigner(f)
            wb = quadrature_oracle_wigner(f)
            worst = max(
                worst,
                np.max(np.abs(_raw(wa) - _raw(wb))) / np.max(np.abs(_raw(wa))),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 120.0
    _verdict(
        5, "FFT and quadrature routes agree", ok,
        f"worst relative deviation {worst:.2e}, {elapsed:.1f}s",
    )


def _wigner_and_marginal_deviation(f):
    """``wigner(f)`` and the larger deviation of its two marginals from |f|^2 and the
    spectral density, the latter where the map's frequency axis meets the FFT grid."""
    wm = wigner(f)
    W = _raw(wm)
    dq = wm.q_axis[1] - wm.q_axis[0]
    dp = wm.p_axis[1] - wm.p_axis[0]
    marg_t = np.max(np.abs(W.sum(axis=1) * dp - np.abs(upsample2(f).samples) ** 2))
    marg_p = W.sum(axis=0) * dq
    s = np.abs(spectrum(f)) ** 2 / (2 * np.pi)
    w_axis = f.grid.ang_freqs()
    j = np.rint((-wm.p_axis - w_axis[0]) / f.grid.dw).astype(int)
    on = (
        (np.abs(-wm.p_axis - (w_axis[0] + j * f.grid.dw)) < 1e-9)
        & (j >= 0)
        & (j < f.grid.n)
    )
    return wm, max(marg_t, np.max(np.abs(marg_p[on] - s[j[on]])))


def test_criterion_6_quasiprobability_properties():
    g = make_grid(512, 0.04, -10.24)
    unit_gauss = gaussian_pulse(g, PulseSpec(0, 0, 1.0, np.pi**-0.25, 0))
    worst_marginal = 0.0
    for f in (unit_gauss, compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))):
        wm, marginal = _wigner_and_marginal_deviation(f)
        worst_marginal = max(worst_marginal, marginal)
        assert wm.scale <= 1 / np.pi + 1e-8
    wm = wigner(unit_gauss)
    peak_ok = (
        abs(wm.scale - 1 / np.pi) <= 1e-10
        and np.min(wm.values) >= -1e-10
        and wm.values[np.argmin(np.abs(wm.q_axis)), np.argmin(np.abs(wm.p_axis))] == 1.0
    )
    ok = worst_marginal <= 1e-8 and peak_ok
    _verdict(
        6, "quasiprobability marginals, bound, and positive peak", ok,
        f"worst marginal deviation {worst_marginal:.2e}",
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([256, 512]), st.data())
def test_criterion_6_holds_on_random_compass_states(n, data):
    # t0 up to 1.5 ps (6 sigma) short of half the span, carriers up to 4 pi rad/ps
    g = make_grid(n, 0.04, -n * 0.04 / 2)
    t0 = data.draw(st.floats(0.8, n * 0.04 / 2 - 1.5))
    omega0 = np.pi * data.draw(st.floats(1.0, 4.0))
    four = dict(min_size=4, max_size=4)
    amplitudes = data.draw(st.lists(st.floats(0, 1), **four).filter(any))
    phases = data.draw(st.lists(st.floats(-np.pi, np.pi), **four))
    f = compass_state(g, CompassSpec(t0, omega0, SIGMA, tuple(amplitudes), tuple(phases)))
    # wigner refuses a spectrum past half-Nyquist: a carrier near 4 pi rad/ps, or a pulse
    # whose tail still reaches the grid edge (about 2% of these draws)
    assume(spectral_support(f) <= np.pi / (2 * g.dt))
    wm, marginal = _wigner_and_marginal_deviation(f)
    assert marginal <= 1e-8
    assert wm.scale <= 1 / np.pi + 1e-8


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0, 2.0), st.floats(2.0, 5.0), st.floats(0.2, 0.3), st.integers(-25, 25))
def test_frog_and_wigner_follow_a_time_shift(t0, omega0_over_pi, sigma, k):
    # a shift by k samples leaves the FROG trace unchanged and moves W by 2k rows of
    # dt/2; the samples rolled round the grid's ends are below 1e-16 of the peak
    g = make_grid(512, 0.02, -5.12)
    f = compass_state(g, CompassSpec(t0, np.pi * omega0_over_pi, sigma))
    shifted = ComplexField(g, np.roll(f.samples, k))
    steps = int(round((2 * t0 + 1.0) / g.dt))
    taus = g.dt * np.arange(-steps, steps + 1)
    assert np.max(np.abs(shg_frog(shifted, taus).values - shg_frog(f, taus).values)) <= 1e-12
    rolled = np.roll(wigner(f).values, 2 * k, axis=0)
    assert np.max(np.abs(wigner(shifted).values - rolled)) <= 1e-12


def test_criterion_7_shaper_replicas():
    g = make_grid(2048, 0.02, -20.48)
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    shaped = apply_shaper(f, ShaperMask(mask_t0=2.0))
    t = g.times()
    a = np.abs(shaped.samples)
    i1 = int(np.argmax(a))
    far = np.abs(t - t[i1]) > 1.0
    i2 = int(np.argmax(np.where(far, a, 0.0)))
    separation = abs(t[i1] - t[i2])
    ratio = energy(shaped) / energy(f)
    ok = abs(separation - 4.0) <= g.dt and abs(ratio - 0.5) <= 1e-6
    _verdict(
        7, "shaper mask yields replicas 4 ps apart at half energy", ok,
        f"peaks {t[i1]:.2f}/{t[i2]:.2f} ps, energy ratio {ratio:.8f}",
    )


def test_criterion_8_wavelength_calibration():
    nu = SPEED_OF_LIGHT_NM_PER_PS / 782.0
    within_quote = abs(nu - 383.36) / 383.36 <= 1e-4
    rounds_to = abs(nu - 383.37) < 0.005
    g = make_grid(256, 0.04, -5.12)
    f = compass_state(g, CompassSpec(1.0, OMEGA0, SIGMA))
    m = shg_frog(f, 0.04 * np.arange(-50, 51))
    trace = trace_from_spectrogram(m, Calibration(reference_wavelength=782.0))
    lams = trace.wavelength_axis
    nus = SPEED_OF_LIGHT_NM_PER_PS / lams
    identity = np.max(np.abs(nus * lams - SPEED_OF_LIGHT_NM_PER_PS))
    eps_bound = 8 * np.finfo(float).eps * SPEED_OF_LIGHT_NM_PER_PS
    ok = within_quote and rounds_to and identity <= eps_bound
    _verdict(
        8, "wavelength-frequency calibration", ok,
        f"782 nm -> {nu:.5f} THz, worst |nu*lambda - c| {identity:.2e}",
    )


def test_criterion_9_round_trips_and_determinism(tmp_path):
    g = make_grid(512, 0.04, -10.24)
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    m = shg_frog(f, 0.04 * np.arange(-125, 126))
    p1 = tmp_path / "map.chronomap"
    save_map(m, str(p1))
    back = load_map(str(p1))
    bitwise = (
        np.array_equal(back.tau_axis, m.tau_axis)
        and np.array_equal(back.omega_axis, m.omega_axis)
        and np.array_equal(back.values, m.values)
        and back.scale == m.scale
    )
    p2 = tmp_path / "map2.chronomap"
    save_map(back, str(p2))
    bitwise = bitwise and p1.read_bytes() == p2.read_bytes()
    pf = tmp_path / "field.chronofield"
    save_field(f, str(pf))
    bitwise = bitwise and np.array_equal(load_field(str(pf)).samples, f.samples)
    runner = CliRunner()
    deterministic = True
    for preset in ("3", "4", "5a", "5b"):
        d1 = tmp_path / f"fig{preset}_one"
        d2 = tmp_path / f"fig{preset}_two"
        for d in (d1, d2):
            result = runner.invoke(main, ["--figure", preset, "--out", str(d)])
            assert result.exit_code == 0, result.output
        names = sorted(os.listdir(d1))
        deterministic = deterministic and names == sorted(os.listdir(d2))
        for name in names:
            deterministic = deterministic and filecmp.cmp(
                str(d1 / name), str(d2 / name), shallow=False
            )
    ok = bitwise and deterministic
    _verdict(
        9, "bitwise round trips and preset determinism", ok,
        f"map and field round trips bitwise={bitwise}, presets identical={deterministic}",
    )
