"""CLI validation table: one row per option rule, with its exit code and the
flag the error message must name."""

import os
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronomap.cli import STATES, main

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


@st.composite
def extreme_invocations(draw):
    command = draw(st.sampled_from(sorted(OWN_OPTIONS)))
    option = draw(st.sampled_from(STATE_OPTIONS + OWN_OPTIONS[command]))
    args = [command, "--dry-run", "--state", draw(st.sampled_from(STATES)),
            option, draw(st.sampled_from(EXTREMES))]
    return args if command == "correspond" else args + ["--out", "unused.out"]


@settings(max_examples=150, deadline=None)
@given(extreme_invocations())
@example(["simulate", "--dry-run", "--state", "compass", "--mask-t0", "1e308", "--out", "x"])
def test_extreme_option_value_exits_0_or_2_without_numpy_warnings(args):
    runner = CliRunner()
    with runner.isolated_filesystem(), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is a fault, not noise
        result = runner.invoke(main, args)
        assert os.listdir() == []
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    assert "Traceback" not in result.output
