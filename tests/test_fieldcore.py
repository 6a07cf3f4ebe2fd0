"""Grid, synthesis, and shaper tests against closed-form constructions."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronomap import (
    Calibration,
    CellAreaReport,
    ChronoError,
    CompassSpec,
    ComplexField,
    ConfigError,
    CrossSection,
    DomainError,
    ExperimentalTrace,
    OverlapMap,
    PulseSpec,
    SampleGrid,
    ShaperMask,
    ShapingError,
    Spectrogram,
    SynthesisError,
    WignerMap,
    Window,
    ZeroSet,
    apply_shaper,
    chirped_gaussian,
    compass_state,
    cross_section,
    energy,
    field_from_spectrum,
    find_zeros,
    gaussian_pulse,
    interior_spacings,
    make_grid,
    overlap_map,
    quadrature_oracle_frog,
    shg_frog,
    spectrum,
    sweep_separation,
    upsample2,
    wavelength_to_angular_frequency,
)
from chronomap.errors import check_real
from chronomap.transforms import check_axis

OMEGA0 = np.pi * 3.3  # rad/ps
SIGMA = 0.25  # ps


def default_grid():
    return make_grid(1024, 0.02, -10.24)


def spectral_lobes(w, s, level=0.5, gap=2.0):
    """Cluster above-threshold bins into lobes (fringes within a lobe are
    closer than ``gap`` rad/ps; distinct lobes are separated by more)."""
    idx = np.flatnonzero(s > level * s.max())
    groups = np.split(idx, np.flatnonzero(np.diff(w[idx]) > gap) + 1)
    return [float(w[g][np.argmax(s[g])]) for g in groups]


# ---------------------------------------------------------------- grids


def test_make_grid_spacing():
    g = make_grid(1024, 0.01, -5.12)
    assert g.t_start == -5.12
    npt.assert_allclose(g.t_end, 5.11)
    npt.assert_allclose(g.dw, 2 * np.pi / (1024 * 0.01))
    npt.assert_allclose(g.dw, 0.6136, atol=5e-5)


def test_make_grid_small():
    g = make_grid(16, 1.0, 0.0)
    npt.assert_allclose(g.dw, 2 * np.pi / 16)
    npt.assert_allclose(g.dw, 0.3927, atol=5e-5)


@pytest.mark.parametrize("n,dt", [(1000, 0.01), (8, 0.01), (1024, 0.0), (1024, -1.0)])
def test_make_grid_rejects(n, dt):
    with pytest.raises(ConfigError):
        make_grid(n, dt, 0.0)


def test_grid_axes_centered():
    g = default_grid()
    w = g.ang_freqs()
    assert w[g.n // 2] == 0.0
    npt.assert_allclose(np.diff(w), g.dw)
    t = g.times()
    assert t[0] == g.t_start
    npt.assert_allclose(t[-1], g.t_end)


def test_delay_snapping():
    g = default_grid()
    assert g.delay_steps(0.1) == 5
    assert g.delay_steps(-0.1) == -5
    with pytest.raises(ConfigError):
        g.delay_steps(0.013)
    with pytest.raises(DomainError):
        g.delay_steps(1000.0)
    # beyond the float range, or a quotient tau / dt that rounds to no integer
    with pytest.raises(ConfigError, match="delay must be finite"):
        SampleGrid(64, 0.1, 0.0).delay_steps(10**400)
    with pytest.raises(DomainError):
        SampleGrid(16, 1e-310, 0.0).delay_steps(1e300)
    f = gaussian_pulse(SampleGrid(128, 0.05, -3.2), PulseSpec(0.0, 0.0, 0.3))
    for call in (lambda: shg_frog(f, [1e308]), lambda: overlap_map(f, [1e308], [0.0])):
        with pytest.raises(DomainError):
            call()


# ------------------------------------------- reference delay snapping and span


def _ref_delay_steps(g, tau):
    """The one-delay snapper that array snapping must agree with."""
    check_real({"delay": tau}, delay="finite")
    steps = float(tau) / g.dt
    if abs(steps) > g.n - 0.5:
        raise DomainError(f"delay {tau} ps exceeds the grid span of {g.n * g.dt} ps")
    s = round(steps)
    if abs(tau - s * g.dt) > 1e-6 * g.dt:
        raise ConfigError(f"delay {tau} ps is not on the sample lattice (step {g.dt} ps)")
    return int(s)


def _ref_delay_axis(g, span):
    """The span rule the delay axis must keep: the lattice, or None where it rejects."""
    steps = span / g.dt
    if not (span > 0 and math.isfinite(steps) and round(steps) <= g.n - 1):
        return None
    steps = round(steps)
    return g.dt * np.arange(-steps, steps + 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ChronoError as exc:
        return type(exc), str(exc)


GRIDS = st.builds(SampleGrid, st.sampled_from([16, 64, 1024]),
                  st.sampled_from([0.02, 0.04, 0.1, 1e-3, 1e-310]), st.just(0.0))


@st.composite
def delays(draw, g):
    k = draw(st.integers(-(g.n + 2), g.n + 2))
    return draw(st.sampled_from([
        k * g.dt,  # on the lattice, or past the span for |k| >= n
        (k + draw(st.floats(1e-5, 1 - 1e-5))) * g.dt,  # between lattice points
        (k + draw(st.floats(-1e-7, 1e-7))) * g.dt,  # inside the lattice tolerance
        draw(st.sampled_from([1e308, -1e308, 1e300, -1e300, 0.0, -0.0, math.inf, math.nan])),
    ]))


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), st.lists(delays(g), max_size=8))))
def test_delay_steps_of_an_array_matches_one_by_one(case):
    g, taus = case
    expected = []
    for tau in taus:
        outcome = _outcome(_ref_delay_steps, g, tau)
        expected.append(outcome)
        if isinstance(outcome, tuple):  # the first bad delay decides
            expected = outcome
            break
    got = _outcome(g.delay_steps, np.array(taus, dtype=float))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.dtype == np.intp and got.tolist() == expected
    for tau in taus:
        assert _outcome(g.delay_steps, tau) == _outcome(_ref_delay_steps, g, tau)


@st.composite
def spans(draw, g):
    k = draw(st.integers(-3, g.n + 3))
    return draw(st.sampled_from([
        k * g.dt,  # the last one the grid holds is (n - 1)*dt
        (k + draw(st.floats(-0.5, 0.5))) * g.dt,  # rounding to k, ties included
        draw(st.floats(allow_nan=True, allow_infinity=True)),
    ]))


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), spans(g))))
def test_delay_axis_keeps_the_span_rule(case):
    g, span = case
    expected = _ref_delay_axis(g, span)
    if expected is None:
        with pytest.raises(DomainError):
            g.delay_axis(span)
    else:
        got = g.delay_axis(span)
        assert got.tobytes() == expected.tobytes()
        assert g.delay_steps(got).tolist() == list(range(-(got.size // 2), got.size // 2 + 1))


def test_delay_steps_and_axis_raise_no_warnings_on_extreme_values():
    extreme = [1e308, -1e308, np.inf, -np.inf, np.nan, 5e-324, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (SampleGrid(16, 1e-310, 0.0), SampleGrid(64, 0.1, 0.0)):
            for taus in ([1e308], [-1e308, 1e308], extreme, extreme[::-1], [0.0, np.nan]):
                with pytest.raises(ConfigError):
                    g.delay_steps(np.array(taus))
            for span in (1e308, -1.0, 0.0, np.inf, np.nan):
                with pytest.raises(DomainError):
                    g.delay_axis(span)


# ---------------------------------------------------------------- fields


def test_field_validation():
    g = default_grid()
    with pytest.raises(ConfigError):
        ComplexField(g, np.zeros(7))
    bad = np.zeros(g.n, complex)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        ComplexField(g, bad)


def test_field_immutable():
    f = gaussian_pulse(default_grid(), PulseSpec(0, 0, SIGMA))
    with pytest.raises(ValueError):
        f.samples[0] = 1.0


def test_spectrum_round_trip():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0.5, 3.0, SIGMA, 1.0, 0.3))
    back = field_from_spectrum(g, spectrum(f))
    npt.assert_allclose(back.samples, f.samples, atol=1e-13)


def test_spectrum_parseval():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 2.0, SIGMA))
    s = spectrum(f)
    npt.assert_allclose(np.sum(np.abs(s) ** 2) * g.dw / (2 * np.pi), energy(f), rtol=1e-12)


def test_upsample_matches_direct_formula():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    u = upsample2(f)
    assert u.grid.n == 2 * g.n and u.grid.dt == g.dt / 2
    direct = np.exp(-(u.grid.times() ** 2) / (2 * SIGMA**2))
    npt.assert_allclose(u.samples, direct, atol=1e-12)
    npt.assert_allclose(energy(u), energy(f), rtol=1e-12)


# ---------------------------------------------------------------- synthesis


def test_gaussian_unit_width_convention():
    # sigma = 1/sqrt(2) makes the envelope exactly exp(-t^2)
    g = make_grid(512, 0.02, -5.12)
    f = gaussian_pulse(g, PulseSpec(0.0, 0.0, 1 / np.sqrt(2), 1.0, 0.0))
    npt.assert_allclose(f.samples, np.exp(-g.times() ** 2), atol=1e-14)


def test_gaussian_zero_amplitude_rejected():
    with pytest.raises(SynthesisError):
        gaussian_pulse(default_grid(), PulseSpec(0, 0, SIGMA, amplitude=0.0))


def test_gaussian_peak_positions():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(2.0, 10.367, 0.3, 1.0, 0.0))
    t = g.times()
    assert abs(t[np.argmax(np.abs(f.samples))] - 2.0) <= g.dt / 2
    s = np.abs(spectrum(f))
    w = g.ang_freqs()
    assert abs(w[np.argmax(s)] - 10.367) <= g.dw


def test_gaussian_span_violations():
    g = make_grid(64, 0.02, -0.64)
    with pytest.raises(SynthesisError):
        gaussian_pulse(g, PulseSpec(0, 0, SIGMA))  # 5 sigma exceeds the time span
    g2 = make_grid(1024, 0.02, -10.24)
    with pytest.raises(SynthesisError, match="carrier"):
        gaussian_pulse(g2, PulseSpec(0, 200.0, SIGMA))  # beyond the frequency span
    with pytest.raises(SynthesisError, match="chirped"):
        chirped_gaussian(g2, SIGMA, 1e300)  # a bandwidth past the float range of chirp**2


def test_pulse_spec_validation():
    with pytest.raises(ConfigError):
        PulseSpec(0, 0, sigma=-1.0)
    with pytest.raises(ConfigError):
        PulseSpec(0, 0, sigma=1.0, amplitude=-0.5)


def test_compass_is_normalized_and_even():
    g = default_grid()
    c = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    npt.assert_allclose(energy(c), 1.0, rtol=1e-12)
    s = spectrum(c)
    # even spectrum about the reference for equal amplitudes (skip the
    # unpaired most-negative bin)
    sym = s[1:] - s[1:][::-1]
    assert np.max(np.abs(sym)) <= 1e-10 * np.max(np.abs(s))


def test_compass_temporal_and_spectral_structure():
    g = default_grid()
    c = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA))
    t = g.times()
    inten = np.abs(c.samples) ** 2
    # dominant peak on each side sits within half a carrier fringe of +-t0
    fringe = np.pi / OMEGA0
    pos = t[t > 0][np.argmax(inten[t > 0])]
    neg = t[t < 0][np.argmax(inten[t < 0])]
    assert abs(pos - 2.0) <= fringe / 2 + g.dt
    assert abs(neg + 2.0) <= fringe / 2 + g.dt
    # two spectral lobes at +-omega0
    s = np.abs(spectrum(c))
    w = g.ang_freqs()
    lobes = spectral_lobes(w, s)
    assert len(lobes) == 2
    npt.assert_allclose(lobes, [-OMEGA0, OMEGA0], atol=2 * g.dw)


def test_compass_linearity():
    g = default_grid()
    spec = CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1.0, 0.8, 1.0, 0.9),
                       phases=(0.0, 0.1, -0.2, 0.3))
    c = compass_state(g, spec)
    acc = np.zeros(g.n, complex)
    for a, phi, st, sf in zip(spec.amplitudes, spec.phases,
                              CompassSpec.TIME_SIGNS, CompassSpec.FREQ_SIGNS):
        acc += gaussian_pulse(g, PulseSpec(st * 2.0, sf * OMEGA0, SIGMA, a, phi)).samples
    acc /= np.sqrt(np.sum(np.abs(acc) ** 2) * g.dt)
    npt.assert_allclose(c.samples, acc, atol=1e-12 * np.max(np.abs(acc)))


def test_compass_degenerate_limit_is_gaussian():
    g = default_grid()
    c = compass_state(g, CompassSpec(1e-6, 1e-6, SIGMA))
    ref = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    ref_n = ref.samples / np.sqrt(energy(ref))
    npt.assert_allclose(c.samples, ref_n, atol=1e-8)


def test_compass_cat_subset():
    g = default_grid()
    c = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 0, 0)))
    t = g.times()
    inten = np.abs(c.samples) ** 2
    pos = t[t > 0][np.argmax(inten[t > 0])]
    neg = t[t < 0][np.argmax(inten[t < 0])]
    # single carrier: envelope peaks exactly at +-t0
    assert abs(pos - 2.0) <= g.dt
    assert abs(neg + 2.0) <= g.dt
    s = np.abs(spectrum(c))
    w = g.ang_freqs()
    assert abs(w[np.argmax(s)] + OMEGA0) <= g.dw  # one lobe, at -omega0


@pytest.mark.parametrize("amplitudes, same_as", [
    ((1e308,) * 4, (1, 1, 1, 1)),
    ((1, 1, 1, 1e308), (0, 0, 0, 1)),  # the other lobes fall below the smallest normal
    ((5e-324, 0, 0, 0), (1, 0, 0, 0)),
    ((2.5, 2.0, 2.5, 2.25), (1.0, 0.8, 1.0, 0.9)),
])
def test_compass_amplitudes_are_ratios(amplitudes, same_as):
    g = default_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=amplitudes))
    ref = compass_state(g, CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=same_as))
    npt.assert_allclose(energy(c), 1.0, rtol=1e-12)
    npt.assert_allclose(c.samples, ref.samples, rtol=0, atol=1e-12)


def test_compass_spec_validation():
    with pytest.raises(ConfigError):
        CompassSpec(0.0, OMEGA0, SIGMA)
    with pytest.raises(ConfigError):
        CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(0, 0, 0, 0))
    with pytest.raises(ConfigError):
        CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 1))
    with pytest.raises(ConfigError):
        CompassSpec(2.0, OMEGA0, SIGMA, amplitudes=(1, 1, 1, -1))


def test_specs_report_every_problem_in_one_error():
    cases = [
        (lambda: SampleGrid(100, -0.5, float("nan")), ["n", "dt", "t_start"]),
        (lambda: CompassSpec(0.0, -1.0, 0.25, amplitudes=(0, 0, 0, 0),
                             phases=(0, 0, 0, float("nan"))),
         ["t0", "omega0", "amplitudes", "phases"]),
        (lambda: ShaperMask(-1.0, float("inf"), -1.0),
         ["mask_t0", "block_halfwidth", "block_center"]),
    ]
    for build, names in cases:
        with pytest.raises(ConfigError) as info:
            build()
        assert [problem.split()[0] for problem in info.value.args] == names
        assert str(info.value) == "; ".join(info.value.args)


# ---------------------------------------------------------------- shaper


def test_shaper_identity():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 3.0, SIGMA))
    out = apply_shaper(f, ShaperMask(0.0, 0.0, 0.0))
    npt.assert_allclose(out.samples, f.samples, atol=1e-10 * np.max(np.abs(f.samples)))


def test_shaper_cosine_replicas():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    out = apply_shaper(f, ShaperMask(mask_t0=2.0))
    # oracle: direct time-domain construction (E(t) + E(t+4))/2
    t = g.times()
    oracle = 0.5 * (np.exp(-(t**2) / (2 * SIGMA**2))
                    + np.exp(-((t + 4.0) ** 2) / (2 * SIGMA**2)))
    npt.assert_allclose(out.samples, oracle, atol=1e-10)
    inten = np.abs(out.samples) ** 2
    i1 = int(np.argmax(inten))
    masked = inten.copy()
    masked[max(0, i1 - 100) : i1 + 100] = 0.0
    i2 = int(np.argmax(masked))
    assert abs(abs(t[i1] - t[i2]) - 4.0) <= g.dt
    npt.assert_allclose(inten[i1], 0.25 * np.max(np.abs(f.samples)) ** 2, rtol=1e-10)
    npt.assert_allclose(energy(out) / energy(f), 0.5, atol=1e-6)


def test_shaper_blocking_decreases_energy():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    e0 = energy(f)
    for hw in (0.5, 2.0, 8.0):
        e = energy(apply_shaper(f, ShaperMask(0.0, 0.0, hw)))
        assert e < e0
        e0 = e


def test_shaper_block_keeps_in_band_energy_exactly():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    hw = 4.0
    out = apply_shaper(f, ShaperMask(0.0, 0.0, hw))
    s = spectrum(f)
    w = g.ang_freqs()
    keep = np.abs(w) >= hw
    in_band = np.sum(np.abs(s[keep]) ** 2) * g.dw / (2 * np.pi)
    npt.assert_allclose(energy(out), in_band, rtol=1e-12)


def test_shaper_over_blocking():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    with pytest.raises(ShapingError):
        apply_shaper(f, ShaperMask(0.0, 0.0, g.w_max - g.dw))


def test_shaper_block_outside_span():
    g = default_grid()
    f = gaussian_pulse(g, PulseSpec(0, 0, SIGMA))
    with pytest.raises(ShapingError):
        apply_shaper(f, ShaperMask(0.0, 200.0, 5.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shaper_phase_beyond_the_float_range():
    f = gaussian_pulse(default_grid(), PulseSpec(0, 0, SIGMA))
    with pytest.raises(ShapingError, match="mask_t0"):
        apply_shaper(f, ShaperMask(1e308))


def test_shaper_four_pulse_construction():
    # broadband pulse -> central block -> two lobes -> cosine mask ->
    # two time replicas, i.e. four pulses spread over time and frequency
    g = make_grid(2048, 0.01, -10.24)
    f = gaussian_pulse(g, PulseSpec(0, 0, 0.05))
    out = apply_shaper(f, ShaperMask(mask_t0=2.0, block_center=0.0, block_halfwidth=OMEGA0))
    s = np.abs(spectrum(out))
    w = g.ang_freqs()
    lobes = spectral_lobes(w, s, gap=3.0)
    assert len(lobes) == 2  # two spectral lobes
    assert lobes[0] < -OMEGA0 * 0.9 and lobes[1] > OMEGA0 * 0.9
    assert np.all(s[np.abs(w) < OMEGA0] <= 1e-12 * s.max())  # blocked band empty
    inten = np.abs(out.samples) ** 2
    t = g.times()
    i1 = int(np.argmax(inten))
    masked = inten.copy()
    masked[np.abs(t - t[i1]) < 1.0] = 0.0
    i2 = int(np.argmax(masked))
    assert abs(abs(t[i1] - t[i2]) - 4.0) <= 0.2  # replicas 2*mask_t0 apart


# ------------------------------------------------ parameter types

AXIS3, AXIS4 = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 4)
VALID_PARAMETERS = {
    SampleGrid: dict(n=64, dt=0.1, t_start=0.0),
    PulseSpec: dict(center_time=0.0, center_ang_freq=0.0, sigma=0.5, amplitude=1.0, phase=0.0),
    CompassSpec: dict(t0=2.0, omega0=1.0, sigma=0.25, amplitudes=(1, 1, 1, 1),
                      phases=(0, 0, 0, 0)),
    ShaperMask: dict(mask_t0=0.0, block_center=0.0, block_halfwidth=0.0),
    Window: dict(tau_center=0.0, tau_halfwidth=1.0, omega_center=0.0, omega_halfwidth=1.0),
    Calibration: dict(reference_wavelength=782.0, background_floor=0.0),
    # types that hold arrays: an array parameter gets bad arrays, the others bad scalars
    ComplexField: dict(grid=SampleGrid(16, 0.1, 0.0), samples=np.ones(16, complex)),
    Spectrogram: dict(time_axis=AXIS3, freq_axis=AXIS4, values=np.ones((3, 4)), scale=1.0),
    WignerMap: dict(time_axis=AXIS3, freq_axis=AXIS4, values=-np.ones((3, 4)), scale=1.0),
    OverlapMap: dict(dt_axis=AXIS3, dnu_axis=AXIS4, values=np.ones((3, 4), complex)),
    CrossSection: dict(axis=AXIS4, values=np.ones(4), kind="intensity",
                       fixed_coordinate=("delay", 0.0)),
    ZeroSet: dict(positions=AXIS3, method="sign-change"),
    CellAreaReport: dict(tau_spacings=AXIS3, omega_spacings=AXIS4, cell_areas=np.ones(12),
                         mean_area=0.5, sub_fourier=False, window=Window(0, 1, 0, 1)),
    ExperimentalTrace: dict(delay_axis=AXIS3, wavelength_axis=780 + AXIS4,
                            intensities=np.ones((3, 4)), meta={}),
}
UNCHECKED = {"fixed_coordinate", "method", "sub_fourier", "window"}  # free-form labels
NON_NUMERIC = st.one_of(st.text(max_size=4), st.none(), st.builds(object),
                        st.complex_numbers(max_magnitude=10), st.just(10**400))
# (type, parameter, kind of bad value) that the type accepts on purpose
ACCEPTED = {
    (CrossSection, "values", "non-finite"),  # find_zeros rejects these as data
    (ZeroSet, "positions", "empty"),  # a slice without zeros
    (CellAreaReport, "tau_spacings", "empty"),  # one-axis reports
    (CellAreaReport, "omega_spacings", "empty"),
    (CellAreaReport, "cell_areas", "empty"),
    (CellAreaReport, "mean_area", "None"),
}


def _with_entry(valid, x):
    """``valid`` as nested lists, with its middle entry replaced by ``x``."""
    a = valid.astype(object)
    a.flat[a.size // 2] = x
    return a.tolist()


def bad_values(valid):
    """``(kind, value)`` pairs that break a parameter whose valid value is ``valid``."""
    scalars = NON_NUMERIC.map(lambda v: ("None" if v is None else "non-numeric", v))
    if not isinstance(valid, np.ndarray):
        return scalars
    return st.one_of(
        scalars,
        st.just(("ragged", [valid.tolist(), [1.0]])),
        st.sampled_from([np.nan, np.inf, -np.inf]).map(
            lambda x: ("non-finite", _with_entry(valid, x))),
        st.just(("huge entry", _with_entry(valid, 10**400))),
        st.just(("0-D", np.array(1.0))),
        st.just(("2-D", np.ones((2, 2)))),
        st.just(("empty", np.empty((0,) * valid.ndim))),
    )


@pytest.mark.parametrize("build, name", [
    (lambda: CompassSpec(2.0, 1.0, 0.25, amplitudes=("x", 1, 1, 1)), "amplitudes"),
    (lambda: CompassSpec("2", 1.0, 0.25), "t0"),
    (lambda: PulseSpec(0, 0, None), "sigma"),
    (lambda: ShaperMask("a", 1, 1), "mask_t0"),
    (lambda: Window("a", 1, 0, 1), "tau_center"),
])
def test_non_numeric_parameters_are_config_errors(build, name):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value).startswith(f"{name} must be ")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(VALID_PARAMETERS)), st.data())
def test_non_numeric_parameters_raise_only_config_errors(cls, data):
    kwargs = dict(VALID_PARAMETERS[cls])
    name = data.draw(st.sampled_from(sorted(set(kwargs) - UNCHECKED)))
    kind, bad = data.draw(bad_values(kwargs[name]))
    if isinstance(kwargs[name], tuple) and data.draw(st.booleans()):
        i = data.draw(st.integers(0, 3))  # one bad entry of a four-value parameter
        bad = kwargs[name][:i] + (bad,) + kwargs[name][i + 1:]
    kwargs[name] = bad
    try:
        cls(**kwargs)
    except ConfigError as exc:
        # text "" is an empty sequence: "amplitudes must be 4 real numbers, got ''"
        assert name in str(exc) or name.replace("_", " ") in str(exc)  # "trace delay axis"
    else:
        assert (cls, name, kind) in ACCEPTED


FIELD = gaussian_pulse(SampleGrid(128, 0.05, -3.2), PulseSpec(0.0, 0.0, 0.3))
SECTION = CrossSection(AXIS4, np.ones(4), "intensity", ("delay", 0.0))
# entry point -> (call with one input replaced, that input's valid value)
ENTRY_POINTS = {
    "check_axis": (lambda x: check_axis("axis", x), AXIS4),
    "shg_frog tau_axis": (lambda x: shg_frog(FIELD, x), 0.05 * np.arange(-2.0, 3.0)),
    "overlap_map dt_axis": (lambda x: overlap_map(FIELD, x, [0.0]), 0.05 * np.arange(3.0)),
    "overlap_map dnu_axis": (lambda x: overlap_map(FIELD, [0.0], x), np.zeros(1)),
    "quadrature_oracle_frog omega_axis": (
        lambda x: quadrature_oracle_frog(FIELD, [0.0], x), AXIS4),
    "field_from_spectrum": (lambda x: field_from_spectrum(FIELD.grid, x), np.zeros(128, complex)),
    "interior_spacings": (interior_spacings, AXIS4),
    "cross_section fixed_value": (
        lambda x: cross_section(Spectrogram(AXIS3, AXIS4, np.ones((3, 4)), 1.0), "delay", x), 0.0),
    "find_zeros noise_floor": (lambda x: find_zeros(SECTION, x), 0.05),
    "sweep_separation t0_values": (
        lambda x: sweep_separation(CompassSpec(1.0, 3.0, 0.3), x, FIELD.grid), np.ones(1)),
    "wavelength_to_angular_frequency": (wavelength_to_angular_frequency, 780 + AXIS4),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
def test_bad_inputs_to_entry_points_raise_only_chrono_errors(entry, data):
    call, valid = ENTRY_POINTS[entry]
    call(valid)
    huge = st.sampled_from([1e308, -1e308]).map(  # finite, but tau / dt may overflow
        lambda x: ("huge", _with_entry(valid, x) if isinstance(valid, np.ndarray) else x))
    _, bad = data.draw(st.one_of(bad_values(valid), huge))
    try:
        call(bad)
    except ChronoError:
        pass


def test_maps_keep_a_view_of_the_callers_values():
    v = np.ones((3, 4))
    m = Spectrogram(AXIS3, AXIS4, v, 1.0)
    assert np.shares_memory(m.values, v) and not m.values.flags.writeable
    assert v.flags.writeable
