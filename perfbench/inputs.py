"""Seeded inputs for the chronomap benchmark.

Every draw comes from the workload seed alone, so one seed always yields
the same preset order, the same kernel states and byte-identical ingest
files. The draws are plain functions of the seed; only the ingest writer
needs chronomap itself, because its traces are derived from simulated
spectrograms with ``trace_from_spectrogram``.

Run as a script to write the ingest inputs for one seed::

    PYTHONPATH=src python3 perfbench/inputs.py ingest SEED OUTDIR
"""

import itertools
import json
import math
import os
import random
import sys
import time

PRESETS = ("3", "4", "5a", "5b")

KERNEL_SIZES = (512, 1024, 2048)
KERNEL_DT = 0.02
# Symmetric compass draws. With dt = 0.02 ps the smallest grid spans
# +-5.12 ps; the widest state keeps 7.5 sigma of decay inside it
# (t0 + 7.5 sigma <= 5.12 ps), so truncation leaves no spectral floor
# above the 1e-10 support level, and omega0 + 6.8/sigma <= 49.7 rad/ps
# stays under half-Nyquist (78.5 rad/ps).
COMPASS_T0 = (1.0, 2.5)
COMPASS_OMEGA0_OVER_PI = (2.0, 5.0)
COMPASS_SIGMA = (0.2, 0.35)
# Chirped Gaussians: 5.12 ps / 0.65 ps = 7.9 sigma of decay, support
# 6.8 * sqrt(1 + 2.5^2) / 0.4 = 45.8 rad/ps.
CHIRP_RATE = (0.5, 2.5)
CHIRP_SIGMA = (0.4, 0.65)

# Ingest sources: compass states of the reference family (the paper's
# omega0 and sigma), separations over the paper's sweep range, on the
# grid sizes the figure presets use.
INGEST_SIZES = (1024, 2048)
INGEST_DT = 0.02
INGEST_T0 = (1.25, 2.5)
INGEST_OMEGA0 = math.pi * 3.3
INGEST_SIGMA = 0.25
REFERENCE_WAVELENGTH_NM = 782.0
# (name, delays, spectrometer pixels, layout). Delays sit on the
# simulation lattice; pixels are uniform in wavelength over the band
# where the spectrogram has signal, as a spectrometer delivers them.
INGEST_TRACES = (
    ("large-long", 401, 1024, "csv-long"),
    ("large-matrix", 401, 1024, "csv-matrix"),
    ("small-long", 201, 512, "csv-long"),
    ("small-matrix", 201, 512, "csv-matrix"),
)
BAND_FLOOR = 1e-6  # band edge, relative to the spectrogram peak
NOISE_RMS = 1e-3  # detector noise, relative to the trace peak
BASELINE = -5e-4  # dark-level offset, relative to the trace peak


def preset_cycles(seed):
    """Endless cycles of the figure presets, each cycle in seeded order."""
    rng = random.Random(f"presets-{seed}")
    while True:
        cycle = list(PRESETS)
        rng.shuffle(cycle)
        yield cycle


def kernel_cycles(seed):
    """Endless cycles of seeded kernel ops, every grid size once per cycle.

    Each op is a symmetric compass state (exact FROG/Wigner
    correspondence) or a chirped Gaussian (correspondence broken).
    """
    rng = random.Random(f"kernels-{seed}")
    while True:
        sizes = list(KERNEL_SIZES)
        rng.shuffle(sizes)
        cycle = []
        for n in sizes:
            if rng.random() < 0.5:
                cycle.append({
                    "n": n, "family": "compass",
                    "t0": rng.uniform(*COMPASS_T0),
                    "omega0": math.pi * rng.uniform(*COMPASS_OMEGA0_OVER_PI),
                    "sigma": rng.uniform(*COMPASS_SIGMA),
                })
            else:
                cycle.append({
                    "n": n, "family": "chirped",
                    "chirp": rng.uniform(*CHIRP_RATE),
                    "sigma": rng.uniform(*CHIRP_SIGMA),
                })
        yield cycle


def ingest_sources(seed):
    """One seeded source state per ingest trace."""
    rng = random.Random(f"ingest-{seed}")
    return [
        {
            "name": name, "delays": delays, "pixels": pixels, "layout": layout,
            "n": rng.choice(INGEST_SIZES), "t0": rng.uniform(*INGEST_T0),
            "omega0": INGEST_OMEGA0, "sigma": INGEST_SIGMA,
            "noise_seed": rng.randrange(2**32),
        }
        for name, delays, pixels, layout in INGEST_TRACES
    ]


def ingest_cycles(seed):
    """Endless cycles of two traces: one large and one small, one per CSV
    layout. The two such pairs alternate, the first and the order within
    each pair seeded, so any run of cycles holds every trace about equally."""
    rng = random.Random(f"ingest-order-{seed}")
    pairs = [["large-long", "small-matrix"], ["large-matrix", "small-long"]]
    rng.shuffle(pairs)
    for i in itertools.count():
        pair = list(pairs[i % 2])
        rng.shuffle(pair)
        yield pair


def _fmt(values):
    return [repr(v) for v in values.tolist()]


def _write_trace(path, layout, delays, wavelengths, values):
    ws = _fmt(wavelengths)
    with open(path, "w", encoding="utf-8") as fh:
        if layout == "csv-long":
            fh.write("delay_ps,wavelength_nm,intensity\n")
            for d, row in zip(_fmt(delays), values):
                fh.write("".join(f"{d},{w},{v}\n" for w, v in zip(ws, _fmt(row))))
        else:
            fh.write("# delay_ps: " + " ".join(_fmt(delays)) + "\n")
            fh.write("# wavelength_nm: " + " ".join(ws) + "\n")
            for row in values:
                fh.write(",".join(_fmt(row)) + "\n")


def write_ingest_inputs(seed, out_dir):
    """Write every ingest trace and its reference map; return the manifest.

    Each source is a compass state's SHG spectrogram, cropped to the band
    where it has signal and saved as the reference map. Its trace comes
    from ``trace_from_spectrogram``, resampled onto a uniform wavelength
    grid, with seeded detector noise and a small negative baseline, so
    ingest must clamp and calibration must resample.
    """
    import numpy as np
    import chronomap as cm

    os.makedirs(out_dir, exist_ok=True)
    cal = cm.Calibration(REFERENCE_WAVELENGTH_NM)
    manifest = []
    for src in ingest_sources(seed):
        n = src["n"]
        grid = cm.make_grid(n, INGEST_DT, -(n // 2) * INGEST_DT)
        field = cm.compass_state(
            grid, cm.CompassSpec(src["t0"], src["omega0"], src["sigma"])
        )
        k = src["delays"] // 2
        frog = cm.shg_frog(field, INGEST_DT * np.arange(-k, k + 1))
        band = np.nonzero(frog.values.max(axis=0) >= BAND_FLOOR)[0]
        cols = slice(band[0], band[-1] + 1)
        ref = cm.Spectrogram(frog.tau_axis, frog.omega_axis[cols],
                             frog.values[:, cols], frog.scale)
        trace = cm.trace_from_spectrogram(ref, cal)
        lam = trace.wavelength_axis
        pixels = np.linspace(lam[0], lam[-1], src["pixels"])
        rows = np.array([np.interp(pixels, lam, r) for r in trace.intensities])
        peak = rows.max()
        rng = np.random.default_rng(src["noise_seed"])
        rows = rows + peak * (NOISE_RMS * rng.standard_normal(rows.shape) + BASELINE)
        trace_path = os.path.join(out_dir, f"{src['name']}.csv")
        ref_path = os.path.join(out_dir, f"{src['name']}.ref.chronomap")
        _write_trace(trace_path, src["layout"], trace.delay_axis, pixels, rows)
        cm.save_map(ref, ref_path)
        manifest.append(dict(src, trace=trace_path, reference=ref_path,
                             cells=int(rows.size)))
    return manifest


def main(argv):
    if len(argv) != 3 or argv[0] != "ingest":
        sys.exit("usage: inputs.py ingest SEED OUTDIR")
    start = time.perf_counter()
    manifest = write_ingest_inputs(int(argv[1]), argv[2])
    print(json.dumps({"setup_s": time.perf_counter() - start, "traces": manifest}))


if __name__ == "__main__":
    main(sys.argv[1:])
