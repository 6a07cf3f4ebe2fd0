"""Spans around chronomap's public functions, recorded from outside the package.

``install`` replaces each traced function with a wrapper, both on the
module that defines it and on every module (and the package namespace)
that imported it by name, so calls between modules are seen too. Each
call becomes one span: name, start, end, parent span, op id and a few
counts taken from its arguments and result. Spans stay in memory until
``Recorder.dump`` writes them once. Timestamps come from
``time.perf_counter_ns``, which on Linux reads CLOCK_MONOTONIC and so is
comparable between the benchmark and the processes it launches.
"""

import functools
import importlib
import json
import os
import time

# (module, function) -> span name. A span name is "<layer>.<what>".
TRACED = {
    ("fieldcore", "compass_state"): "fieldcore.synth",
    ("fieldcore", "chirped_gaussian"): "fieldcore.synth",
    ("fieldcore", "gaussian_pulse"): "fieldcore.synth",
    ("fieldcore", "upsample2"): "fieldcore.upsample2",
    ("fieldcore", "spectral_support"): "fieldcore.spectral_support",
    ("transforms", "shg_frog"): "transforms.shg_frog",
    ("transforms", "wigner"): "transforms.wigner",
    ("transforms", "overlap_map"): "transforms.overlap_map",
    ("transforms", "correspondence_residual"): "transforms.correspondence",
    ("transforms", "correspondence_maps"): "transforms.correspondence",
    ("analysis", "cell_areas"): "analysis.cell_areas",
    ("analysis", "wigner_cell_areas"): "analysis.cell_areas",
    ("analysis", "cross_section"): "analysis.cross_section",
    ("analysis", "find_zeros"): "analysis.find_zeros",
    ("analysis", "sweep_separation"): "analysis.sweep",
    ("analysis", "compare_maps"): "analysis.compare_maps",
    ("dataio", "save_map"): "dataio.save_map",
    ("dataio", "export_plot_data"): "dataio.export",
    ("dataio", "save_report"): "dataio.export",
    ("dataio", "load_trace"): "dataio.load_trace",
    ("dataio", "load_map"): "dataio.load_map",
    ("dataio", "calibrate_to_spectrogram"): "dataio.calibrate",
}
MODULES = ("fieldcore", "transforms", "analysis", "dataio", "cli")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _counts(name, args, kwargs, result):
    """Work counts for one call, from its arguments and result."""
    if name in ("dataio.save_map", "dataio.export"):
        return {"bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    if name in ("dataio.load_trace", "dataio.load_map"):
        return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    if name == "transforms.wigner":
        return {"wigner_cells": result.values.size, "fft_points": result.values.size}
    if name == "transforms.shg_frog":
        return {"frog_cells": result.values.size, "fft_points": result.values.size}
    if name == "transforms.overlap_map":
        rows = result.values.shape[0]
        return {"fft_points": rows * _arg(args, kwargs, 0, "field").grid.n}
    if name == "fieldcore.upsample2":
        return {"fft_points": 3 * _arg(args, kwargs, 0, "f").grid.n}
    if name == "fieldcore.spectral_support":
        return {"fft_points": _arg(args, kwargs, 0, "f").grid.n}
    if name == "analysis.find_zeros":
        return {"zeros": result.positions.size}
    if name == "analysis.sweep":
        return {"points": len(result), "ok": sum(p.status == "ok" for p in result)}
    return {}


class Recorder:
    """In-memory span list for one process."""

    def __init__(self, op_id=None):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    def start(self, name):
        span = {"id": len(self.spans), "name": name, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter_ns(), "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def finish(self, span):
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _wrap(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(span)
        if name == "dataio.save_map" and _arg(args, kwargs, 2, "format") == "pgm":
            span["name"] = "dataio.export"
        span["counts"] = _counts(span["name"], args, kwargs, result)
        return result

    return traced


def install(rec):
    """Wrap every traced function in place; return a callable that undoes it."""
    pkg = importlib.import_module("chronomap")
    mods = {m: importlib.import_module(f"chronomap.{m}") for m in MODULES}
    originals = {}
    for (mod, fn_name), name in TRACED.items():
        fn = getattr(mods[mod], fn_name)
        originals[fn] = _wrap(rec, name, fn)
    replaced = []
    for ns in (pkg, *mods.values()):
        for attr, value in list(vars(ns).items()):
            if callable(value) and value in originals:
                setattr(ns, attr, originals[value])
                replaced.append((ns, attr, value))

    def uninstall():
        for ns, attr, value in replaced:
            setattr(ns, attr, value)

    return uninstall


def modes(traced, index):
    """Tracing off/on for one op: once untraced, or under tracing both
    ways, alternating which goes first so neither side always runs warm."""
    if not traced:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def self_times(spans):
    """Per-span self time in ns: duration minus the part its children cover.

    Spans come from one thread and nest, so children never overlap and
    their durations can simply be subtracted.
    """
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["op"], s["parent"])
            child[key] = child.get(key, 0) + s["end"] - s["start"]
    return [s["end"] - s["start"] - child.get((s["op"], s["id"]), 0) for s in spans]
