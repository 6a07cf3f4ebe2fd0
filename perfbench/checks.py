"""Output checks for the benchmark's CLI ops (standard library only).

Each check returns ``None`` when the op's output is right, or a
``Failure`` naming what is wrong. A failure marked ``area_law`` is a
cell-area report that misses the zero-spacing law (acceptance criterion
2). The benchmark counts it as a failed op like any other but keeps it
out of ``correct``: ``find_zeros`` misses or splits zeros when a map's
sampling leaves minima above its noise floor or when clamped noise
leaves runs of exact zeros, so measured-shape maps miss the law even
when the rest of the pipeline is right.
"""

import collections
import hashlib
import json
import math
import os
import re

Failure = collections.namedtuple("Failure", "message area_law")

SUB_FOURIER_LIMIT = 0.5
AREA_LAW_TOL = 0.02  # acceptance criterion 2
# Lowest accepted similarity between an ingested trace and the spectrogram
# it was derived from; noise, baseline and two resamplings cost about 2e-3.
SIMILARITY_MIN = 0.99

# Fixed parameters of the figure presets 5a (one point) and 5b (sweep).
PRESET_OMEGA0 = math.pi * 3.3
PRESET_5A_T0 = 2.0
REPORTS = {"5a": "fig5a_areas.json", "5b": "fig5b_sweep.json"}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def bundle_hashes(out_dir):
    return {name: sha256_file(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


def law_area(t0, omega0):
    """Mean cell area the zero-spacing law predicts: (pi/omega0)(pi/t0)."""
    return math.pi**2 / (t0 * omega0)


def area_verdict(mean_area, sub_fourier, t0, omega0):
    """Criterion 2 on one report: (verdict agrees, failure or None)."""
    law = law_area(t0, omega0)
    agrees = sub_fourier == (law < SUB_FOURIER_LIMIT)
    if mean_area is None or not agrees or abs(mean_area - law) > AREA_LAW_TOL * law:
        return agrees, Failure(
            f"t0={t0!r}: mean area {mean_area!r}, sub-Fourier {sub_fourier!r}; "
            f"law {law!r} (verdict {law < SUB_FOURIER_LIMIT})", True)
    return agrees, None


def check_preset(figure, out_dir, expected):
    """Compare a figure bundle with its reference hashes.

    Returns (failure or None, verdicts agreeing with the law, verdicts).
    """
    found = bundle_hashes(out_dir)
    if set(found) != set(expected):
        return Failure(f"figure {figure}: files {sorted(found)}, "
                       f"expected {sorted(expected)}", False), 0, 0
    changed = sorted(n for n in expected if found[n] != expected[n])
    agree = total = 0
    if figure in REPORTS:
        with open(os.path.join(out_dir, REPORTS[figure]), encoding="utf-8") as fh:
            report = json.load(fh)
        points = (report["points"] if figure == "5b" else
                  [dict(report, t0_ps=PRESET_5A_T0)])
        for p in points:
            total += 1
            agree += area_verdict(p["mean_area"], p["sub_fourier"],
                                  p["t0_ps"], PRESET_OMEGA0)[0]
    if changed:
        return Failure(f"figure {figure}: bytes differ in {changed}", False), agree, total
    return None, agree, total


def check_ingest(stdout, out_path, delays, pixels):
    match = re.search(r"wrote spectrogram .* \((\d+) x (\d+)\)", stdout)
    if not match or not os.path.isfile(out_path):
        return Failure("ingest wrote no spectrogram", False)
    if (int(match[1]), int(match[2])) != (delays, pixels):
        return Failure(f"ingested map is {match[1]} x {match[2]}, "
                       f"trace is {delays} x {pixels}", False)
    with open(out_path, encoding="utf-8") as fh:
        head = [fh.readline() for _ in range(2)]
    if head[0] != "CHRONO-MAP v1\n" or not head[1].startswith("spectrogram "):
        return Failure("ingested map has a wrong header", False)
    return None


def check_areas(report_path, t0, omega0):
    """Returns (failure or None, verdict agrees with the law)."""
    if not os.path.isfile(report_path):
        return Failure("areas wrote no report", False), False
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    agrees, failure = area_verdict(report["mean_area"], report["sub_fourier"], t0, omega0)
    return failure, agrees


def check_compare(stdout):
    match = re.search(r"similarity (\S+)", stdout)
    if not match:
        return Failure("compare printed no similarity", False)
    similarity = float(match[1])
    if not similarity >= SIMILARITY_MIN:
        return Failure(f"similarity {similarity!r} below {SIMILARITY_MIN}", False)
    return None
