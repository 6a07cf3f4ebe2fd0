"""Command-line driver for the simulate / transform / analyze pipeline.

Exit codes: 0 ok, 2 configuration, 3 data, 4 compute, 5 I/O.
"""

import dataclasses
import datetime
import math
import os
import sys

import click
import numpy as np

from . import dataio
from .analysis import (
    Window,
    cell_areas,
    compare_maps,
    cross_section,
    find_zeros,
    sweep_separation,
    wigner_cell_areas,
)
from .errors import ComputeError, ConfigError, DataError
from .fieldcore import (
    CompassSpec,
    PulseSpec,
    ShaperMask,
    apply_shaper,
    chirped_gaussian,
    compass_state,
    gaussian_pulse,
    make_grid,
)
from .transforms import (
    Spectrogram,
    _check_half_nyquist,
    _snap_taus,
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


@dataclasses.dataclass
class RunConfig:
    """Validated bundle of everything a subcommand run depends on."""

    subcommand: str
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
    noise_floor: float = 0.05
    oracle: bool = False

    def validate(self):
        # every problem is collected so one run reports the full list
        problems = []
        if not isinstance(self.n, int) or self.n < 16 or (self.n & (self.n - 1)) != 0:
            problems.append(f"--n must be a power of two >= 16, got {self.n}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            problems.append(f"--dt must be positive, got {self.dt}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            problems.append(f"--sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.t0) and self.t0 >= 0):
            problems.append(f"--t0 must be non-negative, got {self.t0}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            problems.append("--omega0-over-pi-THz must be positive")
        if self.state not in STATES:
            problems.append(f"--state must be one of {STATES}")
        if len(self.amplitudes) != 4 or any(
            not math.isfinite(a) or a < 0 for a in self.amplitudes
        ):
            problems.append("--amplitudes needs 4 non-negative values")
        if len(self.phases) != 4 or any(not math.isfinite(p) for p in self.phases):
            problems.append("--phases needs 4 finite values")
        if not 0 <= self.noise_floor < 1:
            problems.append(f"--noise-floor must lie in [0, 1), got {self.noise_floor}")
        if not math.isfinite(self.chirp):
            problems.append("--chirp must be finite")
        if self.mask_t0 < 0 or self.block_halfwidth < 0:
            problems.append("shaper mask lengths must be non-negative")
        if problems:
            raise ConfigError("invalid configuration: " + "; ".join(problems))
        return self

    def grid(self):
        start = self.t_start
        if start is None:
            start = -(self.n // 2) * self.dt
        return make_grid(self.n, self.dt, start)

    def build_field(self, grid):
        if self.state == "compass":
            f = compass_state(
                grid, CompassSpec(self.t0, self.omega0, self.sigma,
                                  self.amplitudes, self.phases)
            )
        elif self.state == "gaussian":
            f = gaussian_pulse(grid, PulseSpec(0.0, 0.0, self.sigma))
        else:
            f = chirped_gaussian(grid, self.sigma, self.chirp)
        if self.mask_t0 > 0 or self.block_halfwidth > 0:
            f = apply_shaper(
                f, ShaperMask(self.mask_t0, self.block_center, self.block_halfwidth)
            )
        return f

    def tau_axis(self):
        span = 2 * self.t0 + 1.0 if self.state == "compass" else 1.0 + 4 * self.sigma
        steps = int(round(span / self.dt))
        return self.dt * np.arange(-steps, steps + 1)


def _fail(code, exc):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _execute(fn):
    try:
        fn()
    except ConfigError as exc:
        _fail(EXIT_CONFIG, exc)
    except DataError as exc:
        _fail(EXIT_DATA, exc)
    except ComputeError as exc:
        _fail(EXIT_COMPUTE, exc)
    except OSError as exc:
        _fail(EXIT_IO, exc)


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
    return Window(c[0], c[1], c[2], c[3])


def _stamp_file(path, stamp):
    if not stamp:
        return
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "r", encoding="utf-8") as fh:
        body = fh.read()
    with dataio.atomic_open(path) as fh:
        fh.write(f"# generated {now}\n" + body)


def state_options(default_n=2048):
    decorators = [
        click.option("--state", type=click.Choice(STATES), default="compass",
                     show_default=True, help="Pulse family to synthesize."),
        click.option("--n", default=default_n, show_default=True,
                     help="Grid size (power of two)."),
        click.option("--dt", default=0.02, show_default=True,
                     help="Time step in ps."),
        click.option("--t-start", default=None, type=float,
                     help="First sample time in ps (default centers the grid)."),
        click.option("--t0", default=2.0, show_default=True,
                     help="Pulse pair half-separation in ps."),
        click.option("--omega0-over-pi-THz", "omega0_over_pi", default=3.3,
                     show_default=True,
                     help="Carrier detuning over pi, in rad/ps units of pi."),
        click.option("--sigma", default=0.25, show_default=True,
                     help="Gaussian envelope width in ps."),
        click.option("--amplitudes", default="1,1,1,1", show_default=True,
                     help="Four lobe amplitudes."),
        click.option("--phases", default="0,0,0,0", show_default=True,
                     help="Four lobe phases in rad."),
        click.option("--chirp", default=1.0, show_default=True,
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


def _config(subcommand, kw):
    cfg = RunConfig(
        subcommand=subcommand,
        state=kw.get("state", "compass"),
        n=kw["n"],
        dt=kw["dt"],
        t_start=kw.get("t_start"),
        t0=kw["t0"],
        omega0=math.pi * kw["omega0_over_pi"],
        sigma=kw["sigma"],
        amplitudes=_floats(kw.get("amplitudes", "1,1,1,1"), "--amplitudes", 4),
        phases=_floats(kw.get("phases", "0,0,0,0"), "--phases", 4),
        chirp=kw.get("chirp", 1.0),
        mask_t0=kw.get("mask_t0", 0.0),
        block_center=kw.get("block_center", 0.0),
        block_halfwidth=kw.get("block_halfwidth", 0.0),
        noise_floor=kw.get("noise_floor", 0.05),
        oracle=kw.get("oracle", False),
    )
    return cfg.validate()


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
    _execute(lambda: _figure_bundle(figure, out_dir, dry_run, stamp))


def _figure_bundle(figure, out_dir, dry_run, stamp):
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    if figure == "3":
        cfg = RunConfig("figure", n=1024).validate()
        if dry_run:
            cfg.build_field(cfg.grid())
            click.echo("dry-run ok: figure 3")
            return
        m = shg_frog(cfg.build_field(cfg.grid()), cfg.tau_axis())
        dataio.save_map(m, path("fig3_frog.chronomap"))
        dataio.save_map(m, path("fig3_frog.pgm"), format="pgm")
        for axis, name in (("delay", "fig3_cut_delay.dat"),
                           ("frequency", "fig3_cut_frequency.dat")):
            dataio.export_plot_data(cross_section(m, axis, 0.0), path(name))
            _stamp_file(path(name), stamp)
        click.echo(f"wrote figure 3 bundle to {out_dir}")
    elif figure == "4":
        cfg = RunConfig("figure", n=512, dt=0.04).validate()
        if dry_run:
            cfg.build_field(cfg.grid())
            click.echo("dry-run ok: figure 4")
            return
        w = wigner(cfg.build_field(cfg.grid()))
        dataio.save_map(w, path("fig4_wigner.chronomap"))
        dataio.save_map(w, path("fig4_wigner.pgm"), format="pgm")
        for axis, name in (("delay", "fig4_cut_time.dat"),
                           ("frequency", "fig4_cut_frequency.dat")):
            dataio.export_plot_data(cross_section(w, axis, 0.0), path(name))
            _stamp_file(path(name), stamp)
        click.echo(f"wrote figure 4 bundle to {out_dir}")
    elif figure == "5a":
        cfg = RunConfig("figure").validate()
        if dry_run:
            cfg.build_field(cfg.grid())
            click.echo("dry-run ok: figure 5a")
            return
        m = shg_frog(cfg.build_field(cfg.grid()), cfg.tau_axis())
        report = cell_areas(
            m, Window(0.0, cfg.t0, 0.0, cfg.omega0), cfg.noise_floor
        )
        dataio.save_report(report, path("fig5a_areas.json"))
        dataio.export_plot_data(report, path("fig5a_areas.dat"))
        _stamp_file(path("fig5a_areas.dat"), stamp)
        click.echo(f"wrote figure 5a bundle to {out_dir}")
    else:
        cfg = RunConfig("figure").validate()
        t0_values = (1.25, 1.75, 2.0, 2.5)
        if dry_run:
            click.echo("dry-run ok: figure 5b")
            return
        base = CompassSpec(cfg.t0, cfg.omega0, cfg.sigma)
        series = sweep_separation(base, t0_values, cfg.grid(), cfg.noise_floor)
        dataio.export_plot_data(series, path("fig5b_sweep.dat"))
        dataio.save_report(series, path("fig5b_sweep.json"))
        _stamp_file(path("fig5b_sweep.dat"), stamp)
        click.echo(f"wrote figure 5b bundle to {out_dir}")


@main.command()
@state_options()
@click.option("--mask-t0", default=0.0, show_default=True,
              help="Shaper replica spacing parameter in ps.")
@click.option("--block-center", default=0.0, show_default=True)
@click.option("--block-halfwidth", default=0.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def simulate(out_path, dry_run, **kw):
    """Synthesize a field and write it as CHRONO-FIELD text."""

    def run():
        cfg = _config("simulate", kw)
        f = cfg.build_field(cfg.grid())
        if dry_run:
            click.echo("dry-run ok: simulate")
            return
        dataio.save_field(f, out_path)
        click.echo(f"wrote field {out_path} (n={cfg.n})")

    _execute(run)


@main.command()
@state_options()
@click.option("--tau-span", default=None, type=float,
              help="Half-span of the delay axis in ps.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--pgm", "pgm_path", default=None, type=click.Path(dir_okay=False))
def frog(out_path, pgm_path, tau_span, dry_run, **kw):
    """Compute a delay-resolved second-harmonic spectrogram."""

    def run():
        cfg = _config("frog", kw)
        f = cfg.build_field(cfg.grid())
        taus = cfg.tau_axis()
        if tau_span is not None:
            if not (math.isfinite(tau_span) and tau_span > 0):
                raise ConfigError(f"--tau-span must be positive, got {tau_span}")
            steps = int(round(tau_span / cfg.dt))
            taus = cfg.dt * np.arange(-steps, steps + 1)
        if dry_run:
            _check_half_nyquist(f, "frog")
            _snap_taus(f, taus)
            click.echo("dry-run ok: frog")
            return
        if cfg.oracle:
            m = quadrature_oracle_frog(f, taus, f.grid.ang_freqs())
        else:
            m = shg_frog(f, taus)
        dataio.save_map(m, out_path)
        if pgm_path:
            dataio.save_map(m, pgm_path, format="pgm")
        click.echo(f"wrote spectrogram {out_path} ({m.values.shape[0]} x {m.values.shape[1]})")

    _execute(run)


@main.command(name="wigner")
@state_options()
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--pgm", "pgm_path", default=None, type=click.Path(dir_okay=False))
def wigner_cmd(out_path, pgm_path, dry_run, **kw):
    """Compute the time-frequency quasiprobability map of a state."""

    def run():
        cfg = _config("wigner", kw)
        f = cfg.build_field(cfg.grid())
        if dry_run:
            _check_half_nyquist(f, "wigner")
            click.echo("dry-run ok: wigner")
            return
        w = quadrature_oracle_wigner(f) if cfg.oracle else wigner(f)
        dataio.save_map(w, out_path)
        if pgm_path:
            dataio.save_map(w, pgm_path, format="pgm")
        click.echo(f"wrote wigner map {out_path} ({w.values.shape[0]} x {w.values.shape[1]})")

    _execute(run)


@main.command()
@click.option("--input", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--axis", type=click.Choice(["delay", "frequency"]), required=True)
@click.option("--at", "fixed_value", default=0.0, show_default=True,
              help="Coordinate held fixed, in the other axis's units.")
@click.option("--noise-floor", default=0.05, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
@click.option("--dry-run", is_flag=True)
def crosscut(in_path, axis, fixed_value, noise_floor, out_path, stamp, dry_run):
    """Extract one cross-section of a stored map, with its zeros."""

    def run():
        m = dataio.load_map(in_path)
        section = cross_section(m, axis, fixed_value)
        if dry_run:
            click.echo("dry-run ok: crosscut")
            return
        zeros = find_zeros(section, noise_floor)
        dataio.export_plot_data(section, out_path)
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write("# zeros: " + " ".join(repr(float(z)) for z in zeros.positions) + "\n")
            fh.write(f"# zero-method: {zeros.method}\n")
        _stamp_file(out_path, stamp)
        click.echo(f"wrote cross-section {out_path} ({zeros.positions.size} zeros)")

    _execute(run)


@main.command()
@state_options()
@click.option("--input", "in_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Analyze a stored map instead of simulating one.")
@click.option("--window", "window_text", default=None,
              help="tau_center,tau_halfwidth,omega_center,omega_halfwidth")
@click.option("--noise-floor", default=0.05, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--plot-data", "plot_path", default=None, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
def areas(in_path, window_text, out_path, plot_path, stamp, dry_run, **kw):
    """Measure interference cell areas and the sub-Fourier verdict."""

    def run():
        cfg = _config("areas", kw)
        window = _parse_window(window_text)
        if in_path is not None:
            m = dataio.load_map(in_path)
            if dry_run:
                click.echo("dry-run ok: areas")
                return
        else:
            f = cfg.build_field(cfg.grid())
            if dry_run:
                _check_half_nyquist(f, "areas")
                click.echo("dry-run ok: areas")
                return
            m = shg_frog(f, cfg.tau_axis())
            if window is None and cfg.state == "compass":
                window = Window(0.0, cfg.t0, 0.0, cfg.omega0)
        if isinstance(m, Spectrogram):
            report = cell_areas(m, window, cfg.noise_floor)
        else:
            report = wigner_cell_areas(m, window)
        dataio.save_report(report, out_path)
        if plot_path:
            dataio.export_plot_data(report, plot_path)
            _stamp_file(plot_path, stamp)
        if report.mean_area is None:
            click.echo("verdict not applicable: zeros resolved on one axis only")
        else:
            click.echo(
                f"mean cell area {report.mean_area!r}, "
                f"sub-Fourier {report.sub_fourier}"
            )

    _execute(run)


@main.command()
@state_options()
@click.option("--t0-list", "--t0s", "t0_text", default="1.25,1.75,2.0,2.5",
              show_default=True, help="Comma-separated separations in ps.")
@click.option("--noise-floor", default=0.05, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False))
@click.option("--stamp", is_flag=True)
def sweep(t0_text, out_path, json_path, stamp, dry_run, **kw):
    """Sweep the pulse separation and report mean areas per point."""

    def run():
        cfg = _config("sweep", kw)
        t0_values = _floats(t0_text, "--t0-list")
        if any(v <= 0 for v in t0_values):
            raise ConfigError("--t0-list values must be positive")
        if dry_run:
            click.echo(f"dry-run ok: sweep ({len(t0_values)} points)")
            return
        base = CompassSpec(cfg.t0, cfg.omega0, cfg.sigma, cfg.amplitudes, cfg.phases)
        series = sweep_separation(base, t0_values, cfg.grid(), cfg.noise_floor)
        dataio.export_plot_data(series, out_path)
        _stamp_file(out_path, stamp)
        if json_path:
            dataio.save_report(series, json_path)
        for p in series:
            if p.status == "ok":
                click.echo(
                    f"t0 {p.t0:g} ps: mean area {p.mean_area!r}, "
                    f"sub-Fourier {p.sub_fourier}"
                )
            else:
                click.echo(f"t0 {p.t0:g} ps: {p.status} ({p.message})")

    _execute(run)


@main.command()
@state_options(default_n=1024)
def correspond(dry_run, **kw):
    """Check the squared-map correspondence on one state."""

    def run():
        cfg = _config("correspond", kw)
        f = cfg.build_field(cfg.grid())
        if dry_run:
            _check_half_nyquist(f, "correspond")
            click.echo("dry-run ok: correspond")
            return
        residual = correspondence_residual(f)
        click.echo(f"residual {residual!r}")

    _execute(run)


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
def ingest(in_path, fmt, negative_policy, reference_wavelength, background_floor,
           out_path, dry_run):
    """Calibrate a measured CSV trace into a spectrogram file."""

    def run():
        cal = dataio.Calibration(reference_wavelength, background_floor)
        trace = dataio.load_trace(in_path, fmt, negative_policy)
        if dry_run:
            click.echo("dry-run ok: ingest")
            return
        m = dataio.calibrate_to_spectrogram(trace, cal)
        dataio.save_map(m, out_path)
        clamped = trace.meta.get("clamped_count", 0)
        if clamped:
            click.echo(f"clamped {clamped} negative cells", err=True)
        click.echo(f"wrote spectrogram {out_path} ({m.values.shape[0]} x {m.values.shape[1]})")

    _execute(run)


@main.command()
@click.option("--input-a", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--input-b", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dry-run", is_flag=True)
def compare(input_a, input_b, dry_run):
    """Score the similarity of two stored maps on their shared region."""

    def run():
        a = dataio.load_map(input_a)
        b = dataio.load_map(input_b)
        if dry_run:
            click.echo("dry-run ok: compare")
            return
        click.echo(f"similarity {compare_maps(a, b)!r}")

    _execute(run)


if __name__ == "__main__":
    main()
