"""chronomap benchmark: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload {presets,kernels,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the code under test is that checkout's
``src/``, put on ``PYTHONPATH`` of every process that runs chronomap. One
client runs ops back to back: the next op starts only after the previous
one finished and its outputs were checked, and checks sit outside the
timed interval. With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` every op runs once untraced and
once through the benchmark's tracing (order alternating) and the last
line holds the per-layer metrics. Earlier lines give a readable summary
and the environment record.

    python3 perfbench/run.py --write-preset-hashes

regenerates ``preset_hashes.json`` from the checkout's ``src/``.

Workloads (see BENCHMARK.json for why each exists):
  presets  one ``chronomap --figure P`` subprocess per op, P cycling
           through 3, 4, 5a, 5b in seeded order; bytes checked against
           reference hashes.
  kernels  in-process ``correspondence_residual`` and ``overlap_map`` on
           seeded states, n cycling through 512, 1024, 2048.
  ingest   chains of ``ingest`` -> ``areas --input`` -> ``compare``
           subprocesses over seeded measured-shape traces.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PRESET_HASHES = os.path.join(HERE, "preset_hashes.json")
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=SRC)
CLI = [PY, "-m", "chronomap.cli"]
SHIM = [PY, os.path.join(HERE, "cli_shim.py")]

SETUP_REPEATS = 3
INTERP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


class Op:
    """One attempted op: what ran, how long, and whether its output held."""

    def __init__(self, kind, cells=0):
        self.kind = kind
        self.cells = cells
        self.latency_s = None
        self.traced_s = None
        self.rss_mb = 0.0
        self.ok_exit = False
        self.failure = None
        self.spans = []


def launch(cmd, work, tag):
    """Run one subprocess to completion: (seconds, peak RSS MB, exit, out, err)."""
    out_path = os.path.join(work, f"{tag}.out")
    err_path = os.path.join(work, f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ENV, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def run_cli(op, args, work, index, traced):
    """Time one CLI op; under tracing run it plain and through the shim."""
    codes = {}
    for mode in tracing.modes(traced, index):
        if mode:
            spans_path = os.path.join(work, f"spans{index}.json")
            op.traced_s, _, codes[mode], _, _ = launch(
                SHIM + [spans_path, str(index)] + args, work, f"t{index}")
            with open(spans_path) as fh:
                op.spans = json.load(fh)
        else:
            op.latency_s, op.rss_mb, codes[mode], stdout, stderr = launch(
                CLI + args, work, f"u{index}")
    if len(set(codes.values())) > 1:
        sys.exit(f"tracing changed the exit code of {op.kind}: {codes}")
    op.ok_exit = codes[False] == 0
    if not op.ok_exit:
        op.failure = checks.Failure(
            f"{op.kind} exited {codes[False]}: {stderr.strip()[-200:]}",
            op.kind == "areas" and "zeros" in stderr)
    return stdout


# ------------------------------------------------------------------ presets


def workload_presets(args, work):
    with open(PRESET_HASHES) as fh:
        reference = json.load(fh)

    # set-up is a warm-up import: it fills the page cache and compiles
    # bytecode before any op is timed
    setup_s = statistics.median(launch(CLI + ["--help"], work, "warmup")[0]
                                for _ in range(SETUP_REPEATS))
    ops, verdicts = [], [0, 0]
    began = time.perf_counter()
    cycles = inputs.preset_cycles(args.seed)
    while time.perf_counter() - began < args.seconds:
        for fig in next(cycles):
            i = len(ops)
            out_dir = os.path.join(work, f"fig{i}")
            op = Op(f"figure-{fig}", reference[fig]["cells"])
            run_cli(op, ["--figure", fig, "--out", out_dir], work, i, args.trace)
            if op.failure is None:
                op.failure, agree, total = checks.check_preset(
                    fig, out_dir, reference[fig]["files"])
                verdicts[0] += agree
                verdicts[1] += total
            shutil.rmtree(out_dir, ignore_errors=True)
            ops.append(op)
    wall_s = time.perf_counter() - began
    sizes = {fig: reference[fig]["cells"] for fig in inputs.PRESETS}
    return ops, wall_s, setup_s, None, verdicts, {"map_cells_per_preset": sizes}


def write_preset_hashes():
    work = os.path.join(WORK, "preset-hashes")
    os.makedirs(work, exist_ok=True)
    table = {}
    try:
        for fig in inputs.PRESETS:
            out_dir = os.path.join(work, fig)
            _, _, code, _, err = launch(CLI + ["--figure", fig, "--out", out_dir],
                                        work, fig)
            if code != 0:
                sys.exit(f"figure {fig} failed: {err}")
            cells = 0
            for name in os.listdir(out_dir):
                if name.endswith(".chronomap"):
                    with open(os.path.join(out_dir, name)) as fh:
                        lines = [fh.readline() for _ in range(4)]
                    cells += len(lines[2].split()) * len(lines[3].split())
            table[fig] = {"cells": cells, "files": checks.bundle_hashes(out_dir)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PRESET_HASHES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ kernels


def workload_kernels(args, work):
    worker = [PY, os.path.join(HERE, "kernels.py"), str(args.seed)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        _, _, code, out, err = launch(worker + ["setup"], work, "setup")
        if code != 0:
            sys.exit(f"kernels set-up failed: {err}")
        setups.append(json.loads(out)["setup_s"])
    spans_path = os.path.join(work, "spans.json")
    _, rss, code, out, err = launch(
        worker + [str(args.seconds), str(args.trace), spans_path], work, "kernels")
    if code != 0:
        sys.exit(f"kernels worker failed: {err}")
    result = json.loads(out)
    setups.append(result["setup_s"])
    spans = []
    if args.trace:
        with open(spans_path) as fh:
            spans = json.load(fh)
    ops = []
    for i, rec in enumerate(result["ops"]):
        op = Op(f"n{rec['n']}-{rec['family']}", rec["cells"])
        op.latency_s, op.traced_s = rec["latency_s"], rec.get("traced_s")
        op.ok_exit, op.rss_mb, op.n = True, rss, rec["n"]
        op.spans = [s for s in spans if s["op"] == i]
        if rec["error"]:
            op.failure = checks.Failure(rec["error"], False)
        ops.append(op)
    sizes = {"n": list(inputs.KERNEL_SIZES), "dt_ps": inputs.KERNEL_DT,
             "overlap_delays": "n/2 + 1"}
    return ops, result["wall_s"], statistics.median(setups), rss, [0, 0], sizes


# ------------------------------------------------------------------- ingest


def ingest_chain(args, work, t, ops, verdicts):
    """ingest -> areas --input -> compare on one trace, one op each."""
    mapped = os.path.join(work, f"{t['name']}.chronomap")
    report = mapped + ".json"
    window = f"0,{t['t0']!r},0,{t['omega0']!r}"
    chain = [
        ("ingest", t["cells"], ["ingest", "--input", t["trace"], "--format", t["layout"],
                                "--negative-policy", "clamp", "--out", mapped]),
        ("areas", 0, ["areas", "--input", mapped, "--window", window, "--out", report]),
        ("compare", 0, ["compare", "--input-a", mapped, "--input-b", t["reference"]]),
    ]
    for kind, cells, cli_args in chain:
        op = Op(kind, cells)
        if kind != "ingest" and not os.path.isfile(mapped):
            op.failure = checks.Failure("skipped: ingest wrote no map", False)
            ops.append(op)
            continue
        stdout = run_cli(op, cli_args, work, len(ops), args.trace)
        if op.failure is None:
            if kind == "ingest":
                op.failure = checks.check_ingest(stdout, mapped, t["delays"], t["pixels"])
            elif kind == "areas":
                op.failure, agrees = checks.check_areas(report, t["t0"], t["omega0"])
                verdicts[0] += agrees
        if kind == "areas":
            verdicts[1] += 1
        ops.append(op)
    for path in (mapped, report):
        if os.path.exists(path):
            os.remove(path)


def workload_ingest(args, work):
    gen = [PY, os.path.join(HERE, "inputs.py"), "ingest", str(args.seed)]
    setups = []
    for _ in range(SETUP_REPEATS):
        # each repeat rewrites the same files with the same bytes
        _, _, code, out, err = launch(gen + [os.path.join(work, "inputs")], work, "inputs")
        if code != 0:
            sys.exit(f"ingest set-up failed: {err}")
        manifest = json.loads(out)
        setups.append(manifest["setup_s"])
    traces = {t["name"]: t for t in manifest["traces"]}
    ops, verdicts = [], [0, 0]
    began = time.perf_counter()
    cycles = inputs.ingest_cycles(args.seed)
    while time.perf_counter() - began < args.seconds:
        for name in next(cycles):
            ingest_chain(args, work, traces[name], ops, verdicts)
    wall_s = time.perf_counter() - began
    sizes = {t["name"]: {"delays": t["delays"], "pixels": t["pixels"], "layout": t["layout"],
                         "source_n": t["n"], "source_t0_ps": t["t0"]}
             for t in manifest["traces"]}
    return ops, wall_s, statistics.median(setups), None, verdicts, sizes


# ------------------------------------------------------------------ metrics


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def end_to_end(ops, wall_s, setup_s, rss):
    ran = [op for op in ops if op.latency_s is not None]
    latencies = [op.latency_s for op in ran]
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ran) / wall_s, "1/s"),
        "cells_per_s": (sum(op.cells for op in ran if op.ok_exit) / wall_s, "cells/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss if rss is not None else max(op.rss_mb for op in ran), "MB"),
    }
    note = f"op_tail_s is p{tail_pct:.1f} of {len(latencies)} ops ({beyond} beyond it)"
    return metrics, note


def per_layer(ops, verdicts, interp_s, workload):
    traced = [op for op in ops if op.traced_s is not None]
    n_ops = len(traced)
    per_op = {}
    top_level = 0
    for op in traced:
        for span, self_ns in zip(op.spans, tracing.self_times(op.spans)):
            name = span["name"]
            per_op[name] = per_op.get(name, 0.0) + self_ns / 1e9
            if span["parent"] is None:
                top_level += (span["end"] - span["start"]) / 1e9
            for key, value in span["counts"].items():
                per_op[key] = per_op.get(key, 0) + value

    def mean(key):
        return per_op.get(key, 0.0) / n_ops

    written = per_op.get("bytes_written", 0)
    write_s = per_op.get("dataio.save_map", 0.0) + per_op.get("dataio.export", 0.0)
    read = per_op.get("bytes_read", 0)
    read_s = per_op.get("dataio.load_trace", 0.0) + per_op.get("dataio.load_map", 0.0)
    cli_self = 0.0
    if workload != "kernels":
        cli_self = (sum(op.traced_s for op in traced) - top_level) / n_ops
    metrics = {
        "cli.interp_start_s": (interp_s, "s"),
        "cli.import_s": (mean("cli.import"), "s"),
        "cli.self_s": (cli_self, "s"),
        "dataio.save_map_s": (mean("dataio.save_map"), "s"),
        "dataio.export_s": (mean("dataio.export"), "s"),
        "dataio.bytes_written": (mean("bytes_written"), "bytes"),
        "dataio.write_mb_per_s": (written / write_s / 1e6 if write_s else 0.0, "MB/s"),
        "dataio.load_trace_s": (mean("dataio.load_trace"), "s"),
        "dataio.load_map_s": (mean("dataio.load_map"), "s"),
        "dataio.calibrate_s": (mean("dataio.calibrate"), "s"),
        "dataio.bytes_read": (mean("bytes_read"), "bytes"),
        "dataio.read_mb_per_s": (read / read_s / 1e6 if read_s else 0.0, "MB/s"),
        "transforms.wigner_s": (mean("transforms.wigner"), "s"),
        "transforms.correspondence_self_s": (mean("transforms.correspondence"), "s"),
        "transforms.overlap_map_s": (mean("transforms.overlap_map"), "s"),
        "fieldcore.upsample2_s": (mean("fieldcore.upsample2"), "s"),
        "transforms.wigner_cells": (mean("wigner_cells"), "count"),
        "transforms.fft_points_computed": (mean("fft_points"), "count"),
        "transforms.shg_frog_s": (mean("transforms.shg_frog"), "s"),
        "transforms.frog_cells": (mean("frog_cells"), "count"),
        "fieldcore.synth_s": (mean("fieldcore.synth"), "s"),
        "fieldcore.spectral_support_s": (mean("fieldcore.spectral_support"), "s"),
        "analysis.compare_maps_s": (mean("analysis.compare_maps"), "s"),
        "analysis.cell_areas_s": (mean("analysis.cell_areas"), "s"),
        "analysis.cross_section_s": (mean("analysis.cross_section"), "s"),
        "analysis.find_zeros_s": (mean("analysis.find_zeros"), "s"),
        "analysis.sweep_self_s": (mean("analysis.sweep"), "s"),
        "analysis.zeros_found": (mean("zeros"), "count"),
        "analysis.sweep_ok_ratio": (per_op.get("ok", 0) / per_op["points"]
                                    if per_op.get("points") else 0.0, "ratio"),
        "analysis.verdict_law_agree_ratio": (verdicts[0] / verdicts[1]
                                             if verdicts[1] else 0.0, "ratio"),
        "trace.overhead_ratio": (statistics.median(op.traced_s for op in traced)
                                 / statistics.median(op.latency_s for op in traced), "ratio"),
    }
    return metrics, shares(traced, metrics, workload)


def shares(traced, m, workload):
    """Shares of mean traced op time taken by the layers each workload targets."""
    op_s = statistics.fmean(op.traced_s for op in traced)
    v = {k: value for k, (value, _) in m.items()}
    groups = {
        "cli.import": v["cli.import_s"],
        "dataio writes": v["dataio.save_map_s"] + v["dataio.export_s"],
        "dataio reads": v["dataio.load_trace_s"] + v["dataio.load_map_s"],
        "transforms.wigner + correspondence_self":
            v["transforms.wigner_s"] + v["transforms.correspondence_self_s"],
    }
    lines = [f"share of traced op time, {name}: {value / op_s:.1%}"
             for name, value in groups.items()]
    if workload == "kernels":
        big = [op for op in traced if op.n >= 1024]
        names = ("transforms.wigner", "transforms.correspondence")
        kernel_ns = sum(t for op in big for s, t in zip(op.spans, tracing.self_times(op.spans))
                        if s["name"] in names)
        lines.append("share of traced op time on n >= 1024 ops, "
                     "transforms.wigner + correspondence_self: "
                     f"{kernel_ns / 1e9 / sum(op.traced_s for op in big):.1%}")
    return lines


def interp_start():
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(INTERP_PROBES):
        start = time.perf_counter()
        subprocess.run([PY, "-c", "pass"], env=ENV, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -------------------------------------------------------------- environment


def environment(args, sizes):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "chronomap"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            src_hash.update(os.path.relpath(path, SRC).encode())
            src_hash.update(checks.sha256_file(path).encode())
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), **versions,
        "commit": commit, "src_sha256": src_hash.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": sizes,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in THREAD_VARS or "THREAD" in k},
    }


WORKLOADS = {"presets": workload_presets, "kernels": workload_kernels,
             "ingest": workload_ingest}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-preset-hashes", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chronomap", "cli.py")):
        sys.exit(f"error: no chronomap sources under {SRC}")
    if args.write_preset_hashes:
        write_preset_hashes()
        return
    if args.workload is None:
        parser.error("--workload is required")
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops, wall_s, setup_s, rss, verdicts, sizes = WORKLOADS[args.workload](args, work)
        interp_s = interp_start() if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [op for op in ops if op.failure is not None]
    if args.trace:
        metrics, notes = per_layer(ops, verdicts, interp_s, args.workload)
        spans_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([span for op in ops for span in op.spans], fh)
        notes.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics, note = end_to_end(ops, wall_s, setup_s, rss)
        notes = [note]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops attempted, "
          f"{len(failed)} failed (error_ratio {len(failed) / len(ops):.4f} ratio), "
          f"area verdicts agreeing with the law {verdicts[0]}/{verdicts[1]}")
    for note in notes:
        print("  " + note)
    for kind in sorted({op.kind for op in ops}):
        times = sorted(op.latency_s for op in ops if op.kind == kind and op.latency_s)
        if times:
            print(f"  {kind}: {len(times)} ops, median {statistics.median(times):.4g} s, "
                  f"range {times[0]:.4g}-{times[-1]:.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for op in failed[:20]:
        print(f"  failed {op.kind}: {op.failure.message}")
    print("environment: " + json.dumps(environment(args, sizes), sort_keys=True))
    print(json.dumps(result(ops, metrics)))


def result(ops, metrics):
    """The result line. Area-law misses count as failed ops but leave
    ``correct`` true: they are the known zero-finding defect (checks.py)."""
    failed = [op for op in ops if op.failure is not None]
    return {
        "correct": all(op.failure.area_law for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    main()
