"""In-process kernel loop for the ``kernels`` workload.

Launched by ``run.py`` with ``PYTHONPATH`` pointing at the ``src/`` under
test, so the process that does the work holds nothing but chronomap.
Each op synthesizes one seeded state, then runs
``correspondence_residual(f)`` and ``overlap_map(f, taus, omegas)``; its
outputs are checked after the op's timed interval ends. Prints one JSON
object on stdout.

    PYTHONPATH=src python3 perfbench/kernels.py SEED SECONDS TRACE SPANS_PATH
    PYTHONPATH=src python3 perfbench/kernels.py SEED setup
"""

import json
import sys
import time

START = time.perf_counter()

import numpy as np  # noqa: E402  (timed as part of set-up)

import chronomap as cm  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

RESIDUAL_EXACT = 1e-6  # criterion 1: compass residual at most this
RESIDUAL_BROKEN = 0.01  # criterion 1: chirped residual above this
OVERLAP_TOL = 1e-12


def build(op):
    n = op["n"]
    grid = cm.make_grid(n, inputs.KERNEL_DT, -(n // 2) * inputs.KERNEL_DT)
    if op["family"] == "compass":
        return cm.compass_state(grid, cm.CompassSpec(op["t0"], op["omega0"], op["sigma"]))
    return cm.chirped_gaussian(grid, op["sigma"], op["chirp"])


def overlap_taus(n):
    """Delays over half the grid span, centred on zero."""
    k = n // 4
    return inputs.KERNEL_DT * np.arange(-k, k + 1)


def run_op(op):
    """One timed op; returns (seconds, residual, overlap map)."""
    t = time.perf_counter()
    f = build(op)
    residual = cm.correspondence_residual(f)
    overlap = cm.overlap_map(f, overlap_taus(op["n"]), f.grid.ang_freqs())
    return time.perf_counter() - t, residual, overlap


def check(op, residual, overlap):
    """Return a failure message, or None when the outputs are right."""
    if op["family"] == "compass" and not residual <= RESIDUAL_EXACT:
        return f"compass residual {residual!r} above {RESIDUAL_EXACT}"
    if op["family"] == "chirped" and not residual > RESIDUAL_BROKEN:
        return f"chirped residual {residual!r} not above {RESIDUAL_BROKEN}"
    mag = np.abs(overlap.values)
    origin = mag[op["n"] // 4, op["n"] // 2]
    if overlap.dt_axis[op["n"] // 4] != 0 or overlap.dnu_axis[op["n"] // 2] != 0:
        return "overlap origin not at (0, 0)"
    if abs(origin - 1) > OVERLAP_TOL:
        return f"|overlap(0, 0)| = {origin!r}, not 1"
    if mag.max() > 1 + OVERLAP_TOL:
        return f"max |overlap| = {mag.max()!r} exceeds 1"
    return None


def cells(n):
    """FROG, Wigner and overlap cells one op computes."""
    return (n - 1) * n + (2 * n) ** 2 + (2 * (n // 4) + 1) * n


def main(argv):
    seed = int(argv[0])
    cycles = inputs.kernel_cycles(seed)
    setup_s = time.perf_counter() - START
    if argv[1] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    seconds, traced, spans_path = float(argv[1]), argv[2] == "1", argv[3]
    rec = tracing.Recorder()
    ops = []
    began = time.perf_counter()
    # whole cycles only, so every run weighs the grid sizes equally
    while time.perf_counter() - began < seconds:
        for op in next(cycles):
            i = len(ops)
            rec_op = {"n": op["n"], "family": op["family"], "cells": cells(op["n"])}
            try:
                for mode in tracing.modes(traced, i):
                    rec.op_id = i
                    uninstall = tracing.install(rec) if mode else None
                    try:
                        latency, residual, overlap = run_op(op)
                    finally:
                        if uninstall:
                            uninstall()
                    rec_op["traced_s" if mode else "latency_s"] = latency
                rec_op["error"] = check(op, residual, overlap)
            except cm.ChronoError as exc:
                rec_op.setdefault("latency_s", None)
                rec_op["error"] = f"raised {exc!r}"
            ops.append(rec_op)
    wall_s = time.perf_counter() - began
    if traced:
        rec.dump(spans_path)
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "ops": ops}))


if __name__ == "__main__":
    main(sys.argv[1:])
