"""CLI validation table: one row per option rule, with its exit code and the
flag the error message must name."""

import functools
import math
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronomap import (Calibration, CompassSpec, compass_state, make_grid, shg_frog,
                       trace_from_spectrogram)
from chronomap.cli import STATES, SWEEP_T0S, main
from chronomap.dataio import MAP_MAGIC

SIM = ("simulate", "--dry-run", "--out", "unused.chronofield")

# (id, arguments, exit code, flag named in the message)
ROWS = [
    ("n", (*SIM, "--n", "100"), 2, "--n"),
    ("dt", (*SIM, "--dt", "-0.5"), 2, "--dt"),
    ("dt-zero", (*SIM, "--dt", "0"), 2, "--dt"),
    ("t-start", (*SIM, "--t-start", "nan"), 2, "--t-start"),
    ("t0", (*SIM, "--t0", "-1"), 2, "--t0"),
    ("t0-zero", (*SIM, "--t0", "0"), 2, "--t0"),
    ("t0-zero-gaussian", (*SIM, "--state", "gaussian", "--t0", "0"), 2, "--t0"),
    ("omega0", (*SIM, "--omega0-over-pi-THz", "0"), 2, "--omega0-over-pi-THz"),
    ("omega0-nan", (*SIM, "--omega0-over-pi-THz", "nan"), 2, "--omega0-over-pi-THz"),
    ("sigma", (*SIM, "--sigma", "0"), 2, "--sigma"),
    ("sigma-gaussian", (*SIM, "--state", "gaussian", "--sigma", "-1"), 2, "--sigma"),
    ("amplitudes-count", (*SIM, "--amplitudes", "1,1,1"), 2, "--amplitudes"),
    ("amplitudes-text", (*SIM, "--amplitudes", "1,x,1,1"), 2, "--amplitudes"),
    ("amplitudes-negative", (*SIM, "--amplitudes", "1,1,1,-1"), 2, "--amplitudes"),
    ("amplitudes-zero", (*SIM, "--amplitudes", "0,0,0,0"), 2, "--amplitudes"),
    ("amplitudes-zero-chirped",
     (*SIM, "--state", "chirped", "--amplitudes", "0,0,0,0"), 2, "--amplitudes"),
    ("phases-count", (*SIM, "--phases", "0,0"), 2, "--phases"),
    ("phases-nan", (*SIM, "--phases", "0,0,0,nan"), 2, "--phases"),
    ("chirp", (*SIM, "--state", "chirped", "--chirp", "inf"), 2, "--chirp"),
    ("chirp-compass", (*SIM, "--chirp", "nan"), 2, "--chirp"),
    ("noise-floor", ("areas", "--dry-run", "--out", "unused.json",
                     "--noise-floor", "1.5"), 2, "--noise-floor"),
    ("noise-floor-negative", ("sweep", "--dry-run", "--out", "unused.dat",
                              "--noise-floor", "-0.1"), 2, "--noise-floor"),
    ("mask-t0", (*SIM, "--mask-t0", "-1"), 2, "--mask-t0"),
    ("block-halfwidth", (*SIM, "--block-halfwidth", "-1"), 2, "--block-halfwidth"),
    ("block-center", (*SIM, "--block-center", "nan", "--block-halfwidth", "1"), 2,
     "--block-center"),
    ("block-center-unshaped", (*SIM, "--block-center", "nan"), 2, "--block-center"),
    ("tau-span", ("frog", "--dry-run", "--out", "unused.chronomap",
                  "--tau-span", "0"), 2, "--tau-span"),
    ("tau-span-huge", ("frog", "--dry-run", "--out", "unused.chronomap",
                       "--tau-span", "1e12"), 2, "--tau-span"),
    ("tau-span-past-grid", ("frog", "--dry-run", "--out", "unused.chronomap",
                            "--tau-span", "40.96"), 2, "--tau-span"),  # 2048 steps of 0.02
    ("valid-tau-span-edge", ("frog", "--dry-run", "--out", "unused.chronomap",
                             "--tau-span", "40.94"), 0, None),  # (n - 1)*dt
    ("t0-list", ("sweep", "--dry-run", "--out", "unused.dat",
                 "--t0-list", "1,-2"), 2, "--t0-list"),
    ("t0-list-non-finite", ("sweep", "--dry-run", "--out", "unused.dat",
                            "--t0-list", "nan,1e309"), 2, "--t0-list"),
    ("t0-list-inf", ("sweep", "--dry-run", "--out", "unused.dat",
                     "--t0-list", "1,1e309"), 2, "--t0-list"),
    # the default delay span, 2*t0 + 1 (compass) or 1 + 4*sigma, must fit the grid too
    ("t0-span-past-grid", ("frog", "--dry-run", "--out", "unused.chronomap",
                           "--t0", "1e200"), 2, "--t0"),
    ("t0-span-past-grid-areas", ("areas", "--dry-run", "--out", "unused.json",
                                 "--t0", "1e300"), 2, "--t0"),
    ("sigma-span-past-grid", ("frog", "--dry-run", "--out", "unused.chronomap",
                              "--state", "gaussian", "--sigma", "1e300"), 2, "--sigma"),
    ("dt-span-overflow", ("frog", "--dry-run", "--out", "unused.chronomap",
                          "--n", "16", "--dt", "1e-320"), 2, "--dt"),
    ("t0-list-text", ("sweep", "--dry-run", "--out", "unused.dat",
                      "--t0-list", "1,two"), 2, "--t0-list"),
    ("window-count", ("areas", "--dry-run", "--out", "unused.json",
                      "--window", "0,1,0"), 2, "--window"),
    ("window-halfwidth", ("areas", "--dry-run", "--out", "unused.json",
                          "--window", "0,1,0,0"), 2, "--window"),
    ("valid-compass", SIM, 0, None),
    ("valid-gaussian", (*SIM, "--state", "gaussian"), 0, None),
    ("valid-shaped", (*SIM, "--mask-t0", "1", "--block-halfwidth", "0.5"), 0, None),
]


@pytest.mark.parametrize("args,code,flag", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_option_rule(tmp_path, monkeypatch, args, code, flag):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == code, result.output
    if flag is None:
        assert "dry-run ok" in result.output
    else:
        assert result.output.count("error:") == 1
        assert flag in result.output, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_several_bad_options_each_get_their_own_message():
    result = CliRunner().invoke(main, [
        "frog", "--dry-run", "--out", "unused.chronomap", "--n", "100",
        "--dt", "-0.5", "--sigma", "0", "--t0", "-1", "--chirp", "inf",
    ])
    assert result.exit_code == 2
    text = result.output
    assert text.count("error:") == 1
    problems = text.split("invalid configuration:", 1)[1].strip().split("; ")
    for flag in ("--n", "--dt", "--sigma", "--t0", "--chirp"):
        assert sum(p.startswith(flag + " ") for p in problems) == 1, (flag, problems)


# ------------------------------------------- extreme values of any one option

EXTREMES = ["0", "-0", "1e-320", "-1e-320", "1e308", "-1e308", "inf", "nan", str(10**23), "-1"]
STATE_OPTIONS = ["--n", "--dt", "--t-start", "--t0", "--omega0-over-pi-THz", "--sigma", "--chirp"]
OWN_OPTIONS = {
    "simulate": ["--mask-t0", "--block-center", "--block-halfwidth"],
    "frog": ["--tau-span"],
    "wigner": [],
    "areas": ["--noise-floor"],
    "sweep": ["--noise-floor", "--t0-list"],
    "correspond": [],
}


# each list option: the commands that take it, and the list whose one element a draw replaces
LIST_OPTIONS = {
    "--amplitudes": (sorted(OWN_OPTIONS), "1,1,1,1"),
    "--phases": (sorted(OWN_OPTIONS), "0,0,0,0"),
    "--t0-list": (["sweep"], ",".join(map(str, SWEEP_T0S))),
    "--window": (["areas"], "0,2,0,10"),
}


def _dry_run(command, state, option, value):
    args = [command, "--dry-run", "--state", state, option, value]
    return args if command == "correspond" else args + ["--out", "unused.out"]


@st.composite
def extreme_invocations(draw):
    command = draw(st.sampled_from(sorted(OWN_OPTIONS)))
    option = draw(st.sampled_from(STATE_OPTIONS + OWN_OPTIONS[command]))
    return _dry_run(command, draw(st.sampled_from(STATES)), option,
                    draw(st.sampled_from(EXTREMES)))


@st.composite
def extreme_list_invocations(draw):
    option = draw(st.sampled_from(sorted(LIST_OPTIONS)))
    commands, base = LIST_OPTIONS[option]
    values = base.split(",")
    values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(EXTREMES))
    return _dry_run(draw(st.sampled_from(commands)), draw(st.sampled_from(STATES)), option,
                    ",".join(values))


def _exits_0_or_2_writing_nothing(args):
    runner = CliRunner()
    with runner.isolated_filesystem(), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is a fault, not noise
        result = runner.invoke(main, args)
        assert os.listdir() == []
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    assert "Traceback" not in result.output


@settings(max_examples=150, deadline=None)
@given(extreme_invocations())
@example(["simulate", "--dry-run", "--state", "compass", "--mask-t0", "1e308", "--out", "x"])
def test_extreme_option_value_exits_0_or_2_without_numpy_warnings(args):
    _exits_0_or_2_writing_nothing(args)


@settings(max_examples=150, deadline=None)
@given(extreme_list_invocations())
@example(_dry_run("areas", "compass", "--amplitudes", "1,1,1,1e308"))
@example(_dry_run("simulate", "compass", "--amplitudes", "1e308,1,1,1"))
def test_extreme_list_element_exits_0_or_2_without_numpy_warnings(args):
    _exits_0_or_2_writing_nothing(args)


# ------------------------------------------- extreme values in input files


@functools.lru_cache(maxsize=None)
def _valid_inputs():
    """Tokens of a small FROG map, and of the trace it implies: delays, wavelengths and
    intensity rows, each as the ``repr`` strings that the writers use."""
    f = compass_state(make_grid(256, 0.04, -5.12), CompassSpec(1.0, 3.3 * math.pi, 0.25))
    m = shg_frog(f, 0.04 * np.arange(-8, 9))
    trace = trace_from_spectrogram(m, Calibration(782.0))

    def tokens(a):
        return [repr(float(x)) for x in np.ravel(a)]

    return (tokens(m.tau_axis), tokens(m.omega_axis), [tokens(r) for r in m.values],
            repr(float(m.scale))), (tokens(trace.delay_axis), tokens(trace.wavelength_axis),
                                    [tokens(r) for r in trace.intensities])


def _map_text(time_axis, freq_axis, rows, scale):
    lines = [MAP_MAGIC, f"spectrogram delay_ps ang_freq_rad_per_ps scale={scale}",
             " ".join(time_axis), " ".join(freq_axis)] + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _trace_text(layout, delays, waves, rows):
    if layout == "csv-matrix":
        lines = ["# delay_ps: " + " ".join(delays), "# wavelength_nm: " + " ".join(waves)]
        lines += [",".join(r) for r in rows]
    else:
        lines = ["delay_ps,wavelength_nm,intensity"]
        lines += [f"{d},{w},{v}" for d, r in zip(delays, rows) for w, v in zip(waves, r)]
    return "\n".join(lines) + "\n"


# where one extreme value goes: a trace axis or intensity, or a map axis, value or scale
FILE_TARGETS = ["delay", "wavelength", "intensity", "time axis", "frequency axis",
                "map value", "scale"]
MAP_COMMANDS = [["crosscut", "--axis", "delay", "--out", "cut.dat"],
                ["crosscut", "--axis", "frequency", "--out", "cut.dat"],
                ["areas", "--out", "areas.json"], ["compare"]]


def _ingest(layout, delays, waves, rows, policy="reject"):
    return ({"trace.csv": _trace_text(layout, delays, waves, rows)},
            ["ingest", "--input", "trace.csv", "--format", layout, "--negative-policy", policy,
             "--out", "m.chronomap"])


def _on_map(time_axis, command):
    """``command`` on a 2x2 map whose time axis holds ``time_axis``."""
    files = {"m.chronomap": _map_text(time_axis, ["0.0", "1.0"], [["1.0", "0.5"], ["0.5", "1.0"]],
                                      "1.0")}
    if command == ["compare"]:
        return files, ["compare", "--input-a", "m.chronomap", "--input-b", "m.chronomap"]
    return files, command[:1] + ["--input", "m.chronomap"] + command[1:]


@st.composite
def extreme_file_invocations(draw):
    """``(files, args)``: small valid input files with two values, often neighbours, set
    to extremes, and the command that reads them."""
    (taus, omegas, values, scale), (delays, waves, intensities) = _valid_inputs()
    target = draw(st.sampled_from(FILE_TARGETS))
    extremes = draw(st.lists(st.sampled_from(EXTREMES), min_size=2, max_size=2))

    def two_of(tokens):  # a copy with two tokens, often the ends or neighbours, replaced
        tokens = list(tokens)
        i = draw(st.sampled_from([0, -1]) | st.integers(0, len(tokens) - 1)) % len(tokens)
        j = draw(st.sampled_from([i - 1, i + 1, -1 - i]) | st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j % len(tokens)] = extremes
        return tokens

    if target in ("delay", "wavelength", "intensity"):
        if target == "delay":
            delays = two_of(delays)
        elif target == "wavelength":
            waves = two_of(waves)
        else:
            i = draw(st.integers(0, len(intensities) - 1))
            intensities = intensities[:i] + [two_of(intensities[i])] + intensities[i + 1:]
        return _ingest(draw(st.sampled_from(["csv-long", "csv-matrix"])), delays, waves,
                       intensities, draw(st.sampled_from(["reject", "clamp"])))
    if target == "time axis":
        taus = two_of(taus)
    elif target == "frequency axis":
        omegas = two_of(omegas)
    elif target == "scale":
        scale = extremes[0]
    else:
        i = draw(st.integers(0, len(values) - 1))
        values = values[:i] + [two_of(values[i])] + values[i + 1:]
    files = {"m.chronomap": _map_text(taus, omegas, values, scale)}
    command = draw(st.sampled_from(MAP_COMMANDS))
    if command == ["compare"]:
        files["valid.chronomap"] = _map_text(*_valid_inputs()[0])
        pair = draw(st.permutations(["m.chronomap", "valid.chronomap"]))
        return files, ["compare", "--input-a", pair[0], "--input-b", pair[1]]
    return files, command[:1] + ["--input", "m.chronomap"] + command[1:]


SPAN = ["-1e308", "1e308"]  # an axis whose one step is past the float range
ROWS_2X2 = [["1.0", "2.0"], ["3.0", "4.0"]]


@settings(max_examples=200, deadline=None)
@given(extreme_file_invocations())
@example(_ingest("csv-long", SPAN, ["780.0", "781.0"], ROWS_2X2))
@example(_ingest("csv-matrix", SPAN, ["780.0", "781.0"], ROWS_2X2))
@example(_ingest("csv-long", ["0.0", "1.0"], SPAN, ROWS_2X2))
@example(_ingest("csv-matrix", ["0.0", "1.0"], SPAN, ROWS_2X2))
@example(_on_map(SPAN, ["areas", "--out", "areas.json"]))
@example(_on_map(SPAN, ["compare"]))
@example(_on_map(SPAN, ["crosscut", "--axis", "delay", "--out", "cut.dat"]))
@example(_on_map(SPAN, ["crosscut", "--axis", "frequency", "--out", "cut.dat"]))
def test_extreme_value_in_an_input_file_exits_cleanly(case):
    files, args = case
    runner = CliRunner()
    with runner.isolated_filesystem(), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is a fault, not noise
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        result = runner.invoke(main, args)
        left = sorted(os.listdir())
    assert result.exit_code in (0, 2, 3, 4), (args, result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        assert left == sorted(files), (args, result.output)
