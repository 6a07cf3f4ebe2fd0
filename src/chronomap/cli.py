"""Command-line driver for the simulate / transform / analyze pipeline.

Exit codes: 0 ok, 2 configuration, 3 data, 4 compute, 5 I/O.
"""

import dataclasses
import datetime
import functools
import math
import os
import sys

import click

from . import dataio
from .analysis import (
    DEFAULT_NOISE_FLOOR,
    Window,
    cell_areas,
    check_noise_floor,
    compare_maps,
    compass_plan,
    cross_section,
    find_zeros,
    sweep_separation,
    wigner_cell_areas,
)
from .errors import ComputeError, ConfigError, DataError, DomainError
from .fieldcore import (
    CompassSpec,
    PulseSpec,
    SampleGrid,
    ShaperMask,
    apply_shaper,
    chirped_gaussian,
    compass_state,
    gaussian_pulse,
)
from .transforms import (
    check_sampling,
    correspondence_residual,
    quadrature_oracle_frog,
    quadrature_oracle_wigner,
    shg_frog,
    wigner,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4
EXIT_IO = 5

STATES = ("compass", "gaussian", "chirped")

# figure -> RunConfig overrides and the names of the files in its bundle
PRESETS = {
    "3": ({"n": 1024}, ("fig3_frog.chronomap", "fig3_frog.pgm",
                        "fig3_cut_delay.dat", "fig3_cut_frequency.dat")),
    "4": ({"n": 512, "dt": 0.04}, ("fig4_wigner.chronomap", "fig4_wigner.pgm",
                                   "fig4_cut_time.dat", "fig4_cut_frequency.dat")),
    "5a": ({}, ("fig5a_areas.json", "fig5a_areas.dat")),
    "5b": ({}, ("fig5b_sweep.dat", "fig5b_sweep.json")),
}
SWEEP_T0S = (1.25, 1.75, 2.0, 2.5)  # figure 5b, and the sweep command's default


def _flagged(problem):
    """A library problem, which names its parameter first, reworded to name the option."""
    name, _, rest = problem.partition(" ")
    flag = "--omega0-over-pi-THz: omega0" if name == "omega0" else "--" + name.replace("_", "-")
    return f"{flag} {rest}"


@dataclasses.dataclass
class RunConfig:
    """Validated bundle of everything a subcommand run depends on."""

    state: str = "compass"
    n: int = 2048
    dt: float = 0.02
    t_start: float | None = None
    t0: float = 2.0
    omega0: float = math.pi * 3.3
    sigma: float = 0.25
    amplitudes: tuple = (1.0, 1.0, 1.0, 1.0)
    phases: tuple = (0.0, 0.0, 0.0, 0.0)
    chirp: float = 1.0
    mask_t0: float = 0.0
    block_center: float = 0.0
    block_halfwidth: float = 0.0
    noise_floor: float = DEFAULT_NOISE_FLOOR
    oracle: bool = False

    def validate(self, t0_values=()):
        """Raise one error that lists every problem, from the specs' own checks
        (built whatever the state) and from the rules only the CLI has."""
        problems = []
        start = 0.0 if self.t_start is None else self.t_start  # a centered start is finite
        for check in (lambda: SampleGrid(self.n, self.dt, start), self.compass, self.mask,
                      lambda: check_noise_floor(self.noise_floor)):
            try:
                check()
            except ConfigError as exc:
                problems += [_flagged(p) for p in exc.args]
        if self.state not in STATES:
            problems.append(f"--state must be one of {STATES}")
        if not math.isfinite(self.chirp):
            problems.append("--chirp must be finite")
        if not all(0 < v < math.inf for v in t0_values):
            problems.append("--t0-list values must be finite and positive")
        if problems:
            raise ConfigError("invalid configuration: " + "; ".join(problems))
        return self

    def grid(self):
        start = -(self.n // 2) * self.dt if self.t_start is None else self.t_start
        return SampleGrid(self.n, self.dt, start)

    def compass(self):
        return CompassSpec(self.t0, self.omega0, self.sigma, self.amplitudes, self.phases)

    def mask(self):
        return ShaperMask(self.mask_t0, self.block_center, self.block_halfwidth)

    def field(self, what=None):
        """The configured field; given a transform name ``what``, checked that it can
        feed that transform (see :func:`check_sampling`)."""
        grid = self.grid()
        if self.state == "compass":
            f = compass_state(grid, self.compass())
        elif self.state == "gaussian":
            f = gaussian_pulse(grid, PulseSpec(0.0, 0.0, self.sigma))
        else:
            f = chirped_gaussian(grid, self.sigma, self.chirp)
        if self.mask_t0 > 0 or self.block_halfwidth > 0:
            f = apply_shaper(f, self.mask())
        if what is not None:
            check_sampling(f, what)
        return f

    def tau_axis(self, span=None):
        """The grid's delay axis (:meth:`SampleGrid.delay_axis`) out to ``span``
        (``--tau-span``; default: past the state's own extent, from ``--t0`` or
        ``--sigma``); a span the grid cannot hold is a ConfigError naming the option."""
        flag = "--tau-span"
        if span is None:
            flag, span = (("--t0", compass_plan(self.compass())[0]) if self.state == "compass"
                          else ("--sigma", 1.0 + 4 * self.sigma))
        try:
            return self.grid().delay_axis(span)
        except DomainError as exc:
            raise ConfigError(f"{flag}: {exc} (--n, --dt)") from None


def _dry(name):
    click.echo(f"dry-run ok: {name}")


def _fail(code, exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Run a command, reporting library errors with their exit codes."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            _fail(EXIT_CONFIG, exc)
        except DataError as exc:
            _fail(EXIT_DATA, exc)
        except ComputeError as exc:
            _fail(EXIT_COMPUTE, exc)
        except OSError as exc:
            _fail(EXIT_IO, exc)

    return run


def _floats(text, flag, count=None):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise ConfigError(f"{flag} expects {count} values, got {len(values)}")
    if not values:
        raise ConfigError(f"{flag} expects at least one value")
    return values


def _parse_window(text):
    if text is None:
        return None
    c = _floats(text, "--window", 4)
    try:
        return Window(c[0], c[1], c[2], c[3])
    except ConfigError as exc:
        raise ConfigError(f"--window: {exc}") from None


def _export(obj, path, stamp=False, footer=""):
    """Plot data, after a generation stamp line if asked, in one atomic write."""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    dataio.export_plot_data(obj, path, f"# generated {now}\n" if stamp else "", footer)


def _write_map(m, path, pgm_path=None):
    dataio.save_map(m, path)
    if pgm_path:
        dataio.save_map(m, pgm_path, format="pgm")


def _write_areas(report, path, plot_path=None, stamp=False):
    dataio.save_report(report, path)
    if plot_path:
        _export(report, plot_path, stamp)


def _write_sweep(series, path, json_path=None, stamp=False):
    _export(series, path, stamp)
    if json_path:
        dataio.save_report(series, json_path)


def state_options(default_n=RunConfig.n):
    decorators = [
        click.option("--state", type=click.Choice(STATES), default=RunConfig.state,
                     show_default=True, help="Pulse family to synthesize."),
        click.option("--n", default=default_n, show_default=True,
                     help="Grid size (power of two)."),
        click.option("--dt", default=RunConfig.dt, show_default=True,
                     help="Time step in ps."),
        click.option("--t-start", default=RunConfig.t_start, type=float,
                     help="First sample time in ps (default centers the grid)."),
        click.option("--t0", default=RunConfig.t0, show_default=True,
                     help="Pulse pair half-separation in ps."),
        click.option("--omega0-over-pi-THz", "omega0_over_pi", default=3.3,
                     show_default=True,
                     help="Carrier detuning over pi, in rad/ps units of pi."),
        click.option("--sigma", default=RunConfig.sigma, show_default=True,
                     help="Gaussian envelope width in ps."),
        click.option("--amplitudes", default="1,1,1,1", show_default=True,
                     help="Four lobe amplitudes."),
        click.option("--phases", default="0,0,0,0", show_default=True,
                     help="Four lobe phases in rad."),
        click.option("--chirp", default=RunConfig.chirp, show_default=True,
                     help="Chirp rate for --state chirped."),
        click.option("--oracle", is_flag=True,
                     help="Force the slow quadrature route instead of FFTs."),
        click.option("--dry-run", is_flag=True,
                     help="Validate the full configuration, skip compute."),
    ]

    def wrap(fn):
        for deco in reversed(decorators):
            fn = deco(fn)
        return fn

    return wrap


def _config(kw, **rules):
    """A validated RunConfig from a command's options; the rest keep their defaults."""
    cfg = RunConfig(
        omega0=math.pi * kw.pop("omega0_over_pi"),
        amplitudes=_floats(kw.pop("amplitudes"), "--amplitudes", 4),
        phases=_floats(kw.pop("phases"), "--phases", 4),
        **kw,
    )
    return cfg.validate(**rules)


@click.group(invoke_without_command=True)
@click.option("--figure", type=click.Choice(["3", "4", "5a", "5b"]),
              help="Emit the plot-data bundle for one figure preset.")
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False),
              help="Output directory for --figure bundles.")
@click.option("--dry-run", is_flag=True)
@click.option("--stamp", is_flag=True,
              help="Add a generation timestamp to exported plot data.")
@click.pass_context
def main(ctx, figure, out_dir, dry_run, stamp):
    """Chronocyclic simulation and analysis toolkit."""
    if ctx.invoked_subcommand is not None:
        return
    if figure is None:
        click.echo(ctx.get_help())
        return
    _figure_bundle(figure, out_dir, dry_run, stamp)


@_guarded
def _figure_bundle(figure, out_dir, dry_run, stamp):
    overrides, names = PRESETS[figure]
    cfg = RunConfig(**overrides).validate()
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in names]
    taus = cfg.tau_axis() if figure in ("3", "5a") else None
    f = cfg.field({"3": "frog", "4": "wigner", "5a": "areas"}.get(figure))
    if dry_run:
        return _dry(f"figure {figure}")
    if figure in ("3", "4"):
        m = shg_frog(f, taus) if figure == "3" else wigner(f)
        _write_map(m, paths[0], paths[1])
        for axis, path in zip(("delay", "frequency"), paths[2:]):
            _export(cross_section(m, axis, 0.0), path, stamp)
    elif figure == "5a":
        report = cell_areas(shg_frog(f, taus), compass_plan(cfg.compass())[1], cfg.noise_floor)
        _write_areas(report, paths[0], paths[1], stamp)
    else:
        series = sweep_separation(cfg.compass(), SWEEP_T0S, cfg.grid(), cfg.noise_floor)
        _write_sweep(series, paths[0], paths[1], stamp)
    click.echo(f"wrote figure {figure} bundle to {out_dir}")


@main.command()
@state_options()
@click.option("--mask-t0", default=RunConfig.mask_t0, show_default=True,
              help="Shaper replica spacing parameter in ps.")
@click.option("--block-center", default=RunConfig.block_center, show_default=True)
@click.option("--block-halfwidth", default=RunConfig.block_halfwidth, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_guarded
def simulate(out_path, dry_run, **kw):
    """Synthesize a field and write it as CHRONO-FIELD text."""
    cfg = _config(kw)
    f = cfg.field()
    if dry_run:
        return _dry("simulate")
    dataio.save_field(f, out_path)
    click.echo(f"wrote field {out_path} (n={cfg.n})")


@main.command()
@state_options()
@click.option("--tau-span", default=None, type=float,
              help="Half-span of the delay axis in ps.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--pgm", "pgm_path", default=None, type=click.Path(dir_okay=False))
@_guarded
def frog(out_path, pgm_path, tau_span, dry_run, **kw):
    """Compute a delay-resolved second-harmonic spectrogram."""
    cfg = _config(kw)
    taus = cfg.tau_axis(tau_span)
    f = cfg.field("frog")
    if dry_run:
        return _dry("frog")
    if cfg.oracle:
        m = quadrature_oracle_frog(f, taus, f.grid.ang_freqs())
    else:
        m = shg_frog(f, taus)
    _write_map(m, out_path, pgm_path)
    click.echo(f"wrote spectrogram {out_path} ({m.values.shape[0]} x {m.values.shape[1]})")


@main.command(name="wigner")
@state_options()
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--pgm", "pgm_path", default=None, type=click.Path(dir_okay=False))
@_guarded
def wigner_cmd(out_path, pgm_path, dry_run, **kw):
    """Compute the time-frequency quasiprobability map of a state."""
    cfg = _config(kw)
    f = cfg.field("wigner")
    if dry_run:
        return _dry("wigner")
    w = quadrature_oracle_wigner(f) if cfg.oracle else wigner(f)
    _write_map(w, out_path, pgm_path)
    click.echo(f"wrote wigner map {out_path} ({w.values.shape[0]} x {w.values.shape[1]})")


@main.command()
@click.option("--input", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--axis", type=click.Choice(["delay", "frequency"]), required=True)
@click.option("--at", "fixed_value", default=0.0, show_default=True,
              help="Coordinate held fixed, in the other axis's units.")
@click.option("--noise-floor", default=RunConfig.noise_floor, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
@click.option("--dry-run", is_flag=True)
@_guarded
def crosscut(in_path, axis, fixed_value, noise_floor, out_path, stamp, dry_run):
    """Extract one cross-section of a stored map, with its zeros."""
    m = dataio.load_map(in_path)
    section = cross_section(m, axis, fixed_value)
    if dry_run:
        return _dry("crosscut")
    zeros = find_zeros(section, noise_floor)
    footer = "# zeros: " + " ".join(repr(float(z)) for z in zeros.positions) + "\n"
    _export(section, out_path, stamp, footer + f"# zero-method: {zeros.method}\n")
    click.echo(f"wrote cross-section {out_path} ({zeros.positions.size} zeros)")


@main.command()
@state_options()
@click.option("--input", "in_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Analyze a stored map instead of simulating one.")
@click.option("--window", "window_text", default=None,
              help="tau_center,tau_halfwidth,omega_center,omega_halfwidth")
@click.option("--noise-floor", default=RunConfig.noise_floor, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--plot-data", "plot_path", default=None, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
@_guarded
def areas(in_path, window_text, out_path, plot_path, stamp, dry_run, **kw):
    """Measure interference cell areas and the sub-Fourier verdict."""
    cfg = _config(kw)
    window = _parse_window(window_text)
    if in_path is not None:
        m = dataio.load_map(in_path)
    else:
        taus = cfg.tau_axis()
        f = cfg.field("areas")
        if window is None and cfg.state == "compass":
            window = compass_plan(cfg.compass())[1]
    if dry_run:
        return _dry("areas")
    if in_path is None:
        m = shg_frog(f, taus)
    report = wigner_cell_areas(m, window) if m.signed else cell_areas(m, window, cfg.noise_floor)
    _write_areas(report, out_path, plot_path, stamp)
    if report.mean_area is None:
        click.echo("verdict not applicable: zeros resolved on one axis only")
    else:
        click.echo(
            f"mean cell area {report.mean_area!r}, "
            f"sub-Fourier {report.sub_fourier}"
        )


@main.command()
@state_options()
@click.option("--t0-list", "--t0s", "t0_text", default=",".join(map(str, SWEEP_T0S)),
              show_default=True, help="Comma-separated separations in ps.")
@click.option("--noise-floor", default=RunConfig.noise_floor, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
@_guarded
def sweep(t0_text, out_path, json_path, stamp, dry_run, **kw):
    """Sweep the pulse separation and report mean areas per point."""
    t0_values = _floats(t0_text, "--t0-list")
    cfg = _config(kw, t0_values=t0_values)
    if dry_run:
        return _dry(f"sweep ({len(t0_values)} points)")
    series = sweep_separation(cfg.compass(), t0_values, cfg.grid(), cfg.noise_floor)
    _write_sweep(series, out_path, json_path, stamp)
    for p in series:
        if p.status == "ok":
            click.echo(
                f"t0 {p.t0:g} ps: mean area {p.mean_area!r}, "
                f"sub-Fourier {p.sub_fourier}"
            )
        else:
            click.echo(f"t0 {p.t0:g} ps: {p.status} ({p.message})")


@main.command()
@state_options(default_n=1024)
@_guarded
def correspond(dry_run, **kw):
    """Check the squared-map correspondence on one state."""
    f = _config(kw).field("correspond")
    if dry_run:
        return _dry("correspond")
    residual = correspondence_residual(f)
    click.echo(f"residual {residual!r}")


@main.command()
@click.option("--input", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv-long", "csv-matrix"]),
              default="csv-long", show_default=True)
@click.option("--negative-policy", type=click.Choice(["reject", "clamp"]),
              default="reject", show_default=True)
@click.option("--reference-wavelength", default=782.0, show_default=True,
              help="Center wavelength in nm.")
@click.option("--background-floor", default=0.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--dry-run", is_flag=True)
@_guarded
def ingest(in_path, fmt, negative_policy, reference_wavelength, background_floor,
           out_path, dry_run):
    """Calibrate a measured CSV trace into a spectrogram file."""
    cal = dataio.Calibration(reference_wavelength, background_floor)
    trace = dataio.load_trace(in_path, fmt, negative_policy)
    if dry_run:
        return _dry("ingest")
    m = dataio.calibrate_to_spectrogram(trace, cal)
    dataio.save_map(m, out_path)
    clamped = trace.meta.get("clamped_count", 0)
    if clamped:
        click.echo(f"clamped {clamped} negative cells", err=True)
    click.echo(f"wrote spectrogram {out_path} ({m.values.shape[0]} x {m.values.shape[1]})")


@main.command()
@click.option("--input-a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--input-b", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dry-run", is_flag=True)
@_guarded
def compare(input_a, input_b, dry_run):
    """Score the similarity of two stored maps on their shared region."""
    a = dataio.load_map(input_a)
    b = dataio.load_map(input_b)
    if dry_run:
        return _dry("compare")
    click.echo(f"similarity {compare_maps(a, b)!r}")


if __name__ == "__main__":
    main()
