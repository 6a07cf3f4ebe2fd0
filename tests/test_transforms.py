"""Transform tests: closed forms, oracle equivalence, and map properties."""

import numpy as np
import numpy.testing as npt
import pytest

from chronomap import (
    CompassSpec,
    ComplexField,
    ComputeError,
    ConfigError,
    DomainError,
    PulseSpec,
    chirped_gaussian,
    compass_state,
    energy,
    gaussian_pulse,
    make_grid,
    spectrum,
    upsample2,
)
from chronomap.transforms import (
    OverlapMap,
    Spectrogram,
    WignerMap,
    correspondence_maps,
    correspondence_residual,
    overlap_map,
    quadrature_oracle_frog,
    quadrature_oracle_wigner,
    row_fraction,
    shg_frog,
    wigner,
)

OMEGA0 = np.pi * 3.3
SIGMA = 0.25


def grid512():
    return make_grid(512, 0.04, -10.24)


def raw(m):
    return m.values * m.scale if m.scale > 0 else m.values


def sign_change_positions(x, y):
    s = np.sign(y)
    out = []
    for i in range(len(y) - 1):
        if s[i] != 0 and s[i + 1] != 0 and s[i] != s[i + 1]:
            out.append(x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i]))
    return np.array(out)


# ---------------------------------------------------------------- types


def test_spectrogram_validation():
    tau = np.linspace(-1, 1, 5)
    om = np.linspace(-2, 2, 7)
    vals = np.ones((5, 7))
    Spectrogram(tau, om, vals, 1.0)
    with pytest.raises(ConfigError):
        Spectrogram(tau, om, np.ones((7, 5)), 1.0)
    with pytest.raises(ConfigError):
        Spectrogram(tau, om, -vals, 1.0)
    with pytest.raises(ConfigError):
        Spectrogram(tau[::-1], om, vals, 1.0)
    with pytest.raises(ConfigError):
        Spectrogram(np.array([0.0, 0.1, 0.3, 0.35, 0.4]), om[:5].copy() * 0 + np.arange(5), np.ones((5, 5)), 1.0)


def test_normalized_divides_by_the_peak_in_place():
    t, w = np.linspace(-1, 1, 2), np.linspace(-1, 1, 3)
    raw_values = np.array([[1.0, -4.0, 2.0], [0.5, 3.0, -1.0]])
    m = WignerMap.normalized(t, w, raw_values)
    assert m.scale == 4.0 and np.shares_memory(m.values, raw_values)
    npt.assert_array_equal(m.values, [[0.25, -1.0, 0.5], [0.125, 0.75, -0.25]])
    s = Spectrogram.normalized(t, w, np.array([[1.0, 4.0, 2.0], [0.5, 8.0, 1.0]]), peak=2.0)
    assert s.scale == 2.0 and s.values[1, 1] == 4.0  # a caller's peak is taken as given
    zero = Spectrogram.normalized(t, w, np.zeros((2, 3)))
    assert zero.scale == 0.0 and not np.any(zero.values)


def test_wigner_map_validation():
    q = np.linspace(-1, 1, 4)
    p = np.linspace(-1, 1, 6)
    WignerMap(q, p, np.zeros((4, 6)) - 0.5, 1.0)  # signed values allowed
    with pytest.raises(ConfigError):
        WignerMap(q, p, np.zeros((6, 4)), 1.0)
    with pytest.raises(ConfigError):
        WignerMap(q, p, np.zeros((4, 6)), -1.0)


def test_overlap_map_validation():
    with pytest.raises(ConfigError):
        OverlapMap(np.array([0.0, 1.0]), np.array([0.0]), np.zeros((1, 2)))


# ---------------------------------------------------------------- FROG


def test_frog_gaussian_closed_form():
    g = grid512()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    taus = g.dt * np.arange(-100, 101)
    sp = shg_frog(f, taus)
    T, W = np.meshgrid(sp.tau_axis, sp.omega_axis, indexing="ij")
    closed = np.exp(-(T**2) / (2 * SIGMA**2)) * np.exp(-(SIGMA**2) * W**2 / 2)
    npt.assert_allclose(sp.values, closed, atol=1e-12)
    npt.assert_allclose(sp.scale, np.pi * SIGMA**2, rtol=1e-10)


def test_frog_tau_zero_column_is_shg_spectrum():
    g = grid512()
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    sp = shg_frog(f, [0.0])
    assert sp.values.shape == (1, g.n)
    sq = ComplexField(g, f.samples**2)
    ref = np.abs(spectrum(sq)) ** 2
    npt.assert_allclose(sp.values[0] * sp.scale, ref, atol=1e-12 * ref.max())


def test_frog_compass_structure():
    g = make_grid(1024, 0.02, -10.24)
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    taus = g.dt * np.arange(-300, 301)  # covers +-6 ps
    sp = shg_frog(f, taus)
    assert np.all(sp.values >= 0)

    def value_at(tau, om):
        i = int(np.argmin(np.abs(sp.tau_axis - tau)))
        j = int(np.argmin(np.abs(sp.omega_axis - om)))
        return sp.values[i, j]

    # central peak and corner satellites (delay +-2 t0, frequency offsets 0, +-2 omega0)
    assert value_at(0, 0) > 0.9
    for stau in (-1, 1):
        for som in (-1, 0, 1):
            assert value_at(stau * 4.0, som * 2 * OMEGA0) > 0.02
    # quiet between the satellite columns
    assert value_at(2.0, 2 * OMEGA0) < 1e-3


def test_frog_oracle_equivalence():
    g = grid512()
    taus = g.dt * np.arange(-120, 121)
    states = [
        gaussian_pulse(g, PulseSpec(0, 0, SIGMA)),
        compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 0, 0))),
        compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)),
    ]
    for f in states:
        a = shg_frog(f, taus)
        b = quadrature_oracle_frog(f, taus, g.ang_freqs())
        npt.assert_allclose(a.tau_axis, b.tau_axis)
        dev = np.max(np.abs(raw(a) - raw(b))) / raw(a).max()
        assert dev <= 1e-9


def test_frog_zero_field():
    g = grid512()
    z = ComplexField(g, np.zeros(g.n, complex))
    sp = quadrature_oracle_frog(z, [0.0, g.dt], g.ang_freqs())
    assert sp.scale == 0.0
    assert np.all(sp.values == 0)


def test_frog_time_shift_covariance():
    g = grid512()
    f = compass_state(g, CompassSpec(1.5, OMEGA0, SIGMA))
    m = 12
    shifted = np.zeros(g.n, complex)
    shifted[m:] = f.samples[:-m]
    fs = ComplexField(g, shifted)
    taus = g.dt * np.arange(-80, 81)
    a = shg_frog(f, taus)
    b = shg_frog(fs, taus)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_frog_rejects_off_lattice_and_out_of_span():
    g = grid512()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    with pytest.raises(ConfigError):
        shg_frog(f, [0.013])
    with pytest.raises(DomainError):
        shg_frog(f, [g.n * g.dt * 2])


def test_frog_rejects_aliasing_bandwidth():
    g = grid512()
    # fits the synthesis span but its SHG product would wrap
    f = gaussian_pulse(g, PulseSpec(0, 50.0, SIGMA))
    with pytest.raises(ConfigError, match="alias"):
        shg_frog(f, [0.0])


# ---------------------------------------------------------------- Wigner


def test_wigner_gaussian_closed_form():
    g = grid512()
    f = gaussian_pulse(g, PulseSpec(0, 0, 1.0, np.pi**-0.25, 0))
    npt.assert_allclose(energy(f), 1.0, rtol=1e-12)
    wm = wigner(f)
    Q, P = np.meshgrid(wm.q_axis, wm.p_axis, indexing="ij")
    closed = (1 / np.pi) * np.exp(-(Q**2) - P**2)
    npt.assert_allclose(raw(wm), closed, atol=1e-12)
    npt.assert_allclose(wm.scale, 1 / np.pi, rtol=1e-10)  # peak 1/pi at origin
    assert np.min(wm.values) >= -1e-10  # strictly positive up to roundoff
    iq = int(np.argmin(np.abs(wm.q_axis)))
    ip = int(np.argmin(np.abs(wm.p_axis)))
    assert wm.values[iq, ip] == 1.0


def test_wigner_axes_layout():
    g = grid512()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    wm = wigner(f)
    assert wm.q_axis.size == 2 * g.n and wm.p_axis.size == 2 * g.n
    npt.assert_allclose(np.diff(wm.q_axis), g.dt / 2)
    npt.assert_allclose(np.diff(wm.p_axis), g.dw / 4)
    assert wm.p_axis[g.n] == 0.0


def test_wigner_cat_fringe_spacing():
    t0 = 2.0
    g = grid512()
    t = g.times()
    h = np.exp(-((t - t0) ** 2) / (2 * SIGMA**2)) + np.exp(-((t + t0) ** 2) / (2 * SIGMA**2))
    h = h / np.sqrt(np.sum(np.abs(h) ** 2) * g.dt)
    wm = wigner(ComplexField(g, h))
    iq = int(np.argmin(np.abs(wm.q_axis)))
    row = wm.values[iq]
    keep = np.abs(wm.p_axis) < 3.0
    zeros = sign_change_positions(wm.p_axis[keep], row[keep])
    spacings = np.diff(zeros)
    assert len(spacings) >= 4
    npt.assert_allclose(spacings, np.pi / (2 * t0), rtol=1e-2)


def test_wigner_marginals():
    g = grid512()
    for f in (
        gaussian_pulse(g, PulseSpec(0, 0, 1.0, np.pi**-0.25, 0)),
        compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)),
    ):
        wm = wigner(f)
        W = raw(wm)
        dp = wm.p_axis[1] - wm.p_axis[0]
        dq = wm.q_axis[1] - wm.q_axis[0]
        # marginal over p gives |F(q)|^2 on the refined grid
        F2 = upsample2(f).samples
        npt.assert_allclose(W.sum(axis=1) * dp, np.abs(F2) ** 2, atol=1e-8)
        # marginal over q gives the mirrored spectral density |S(-p)|^2/(2 pi)
        marg_p = W.sum(axis=0) * dq
        s = np.abs(spectrum(f)) ** 2 / (2 * np.pi)
        w_axis = f.grid.ang_freqs()
        j = np.rint((-wm.p_axis - w_axis[0]) / f.grid.dw).astype(int)
        on = (np.abs(-wm.p_axis - (w_axis[0] + j * f.grid.dw)) < 1e-9) & (j >= 0) & (j < g.n)
        npt.assert_allclose(marg_p[on], s[j[on]], atol=1e-8)


def test_wigner_boundedness():
    g = grid512()
    for f in (
        compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)),
        compass_state(g, CompassSpec(1.25, OMEGA0, SIGMA, amplitudes=(1, 0.7, 0.9, 1))),
    ):
        wm = wigner(f)  # unit energy by construction
        assert wm.scale <= 1 / np.pi + 1e-8


def test_wigner_oracle_equivalence():
    for n, dt in ((256, 0.04), (512, 0.04)):
        g = make_grid(n, dt, -n * dt / 2)
        states = [
            gaussian_pulse(g, PulseSpec(0, 0, SIGMA)),
            compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 0, 0))),
            compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA)),
        ]
        for f in states:
            a = wigner(f)
            b = quadrature_oracle_wigner(f)
            npt.assert_allclose(a.q_axis, b.q_axis)
            npt.assert_allclose(a.p_axis, b.p_axis)
            dev = np.max(np.abs(raw(a) - raw(b))) / np.max(np.abs(raw(a)))
            assert dev <= 1e-9


def test_wigner_time_shift_covariance():
    g = grid512()
    f = compass_state(g, CompassSpec(1.5, OMEGA0, SIGMA))
    m = 10
    shifted = np.zeros(g.n, complex)
    shifted[m:] = f.samples[:-m]
    a = wigner(f)
    b = wigner(ComplexField(g, shifted))
    rolled = np.zeros_like(a.values)
    rolled[2 * m :, :] = a.values[: -2 * m, :]  # q step is dt/2
    assert np.max(np.abs(b.values - rolled)) <= 1e-9


@pytest.mark.parametrize("k", [0, 1, 7, 2047])
def test_row_fraction_snaps_to_a_row_from_either_side(k):
    rows, fracs = row_fraction(np.array([k - 1e-12, k + 1e-12, k + 0.25]))
    assert rows.tolist() == [k, k, k] and fracs.tolist() == [0.0, 0.0, 0.25]
    for pos, frac in ((k - 1e-12, 0.0), (k + 1e-12, 0.0), (k + 0.25, 0.25)):
        for x in (pos, np.array(pos)):  # a float and a 0-d array
            row, got = row_fraction(x)
            assert (int(row), float(got)) == (k, frac)


def test_wigner_zero_field():
    g = grid512()
    wm = wigner(ComplexField(g, np.zeros(g.n, complex)))
    assert wm.scale == 0.0
    assert np.all(wm.values == 0)


# ---------------------------------------------------------------- overlap


def test_overlap_origin_is_one():
    g = grid512()
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    om = overlap_map(f, [0.0], [0.0])
    npt.assert_allclose(om.values[0, 0], 1.0, atol=1e-10)


def test_overlap_symmetry():
    g = grid512()
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 0.8, 1, 0.9)))
    dts = g.dt * np.arange(-20, 21, 4)
    dnus = np.linspace(-2.0, 2.0, 9)
    om = overlap_map(f, dts, dnus)
    mag = np.abs(om.values)
    npt.assert_allclose(mag, mag[::-1, ::-1], atol=1e-10)


def test_overlap_orthogonal_shifts():
    # grid step chosen so pi/(2 omega0) sits on the delay lattice
    dt_star = np.pi / (2 * OMEGA0)
    g = make_grid(1024, dt_star / 8, -(dt_star / 8) * 512)
    for t0 in (1.25, 1.75, 2.0, 2.5):
        f = compass_state(g, CompassSpec(t0, OMEGA0, SIGMA))
        om = overlap_map(f, [dt_star], [0.0])
        assert abs(om.values[0, 0]) <= 1e-3
        om2 = overlap_map(f, [0.0], [np.pi / (2 * t0)])
        assert abs(om2.values[0, 0]) <= 1e-3


def test_overlap_paths_agree():
    """The FFT route (shifts on the conjugate grid) against the defining sum."""
    g = grid512()
    f = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    steps = np.arange(-10, 11, 2)
    dnus = g.ang_freqs()[200:300:4]
    E = f.samples
    k = np.arange(g.n)
    direct = np.empty((steps.size, dnus.size), complex)
    for i, s in enumerate(steps):
        shifted = np.where((k >= s) & (k - s < g.n), E[(k - s) % g.n], 0)  # E(t - s dt)
        for m, nu in enumerate(dnus):
            direct[i, m] = g.dt * np.sum(np.conj(E) * shifted * np.exp(1j * nu * g.times()))
    om = overlap_map(f, g.dt * steps, dnus)
    npt.assert_allclose(om.values, direct / energy(f), rtol=0, atol=1e-12)


def test_overlap_rejects():
    g = grid512()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    with pytest.raises(DomainError):
        overlap_map(f, [0.0], [2 * np.pi / g.dt])
    with pytest.raises(ComputeError):
        overlap_map(ComplexField(g, np.zeros(g.n, complex)), [0.0], [0.0])


# ---------------------------------------------------------- correspondence


def test_correspondence_real_envelope_states():
    g = make_grid(1024, 0.02, -10.24)
    compass = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    assert correspondence_residual(compass) <= 1e-6
    gauss = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    assert correspondence_residual(gauss) <= 1e-6


def test_correspondence_chirp_breaks():
    g = make_grid(1024, 0.02, -10.24)
    ch = chirped_gaussian(g, 1 / np.sqrt(2), 1.0)
    assert correspondence_residual(ch) > 0.01


def test_correspondence_maps_shapes():
    g = make_grid(256, 0.04, -5.12)
    f = compass_state(g, CompassSpec(1.5, OMEGA0, SIGMA))
    frog, pattern, residual = correspondence_maps(f)
    npt.assert_allclose(frog.tau_axis, pattern.tau_axis)
    npt.assert_allclose(frog.omega_axis, pattern.omega_axis)
    assert frog.values.shape == pattern.values.shape
    assert residual == pytest.approx(np.max(np.abs(frog.values - pattern.values)))
    assert residual <= 1e-6
