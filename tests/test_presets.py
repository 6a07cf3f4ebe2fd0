"""Every file of the four --figure bundles, byte for byte against the
reference hashes that the benchmark also checks."""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from chronomap.cli import main

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "preset_hashes.json")


@pytest.mark.parametrize("figure", ["3", "4", "5a", "5b"])
def test_figure_bundle_matches_reference_hashes(tmp_path, figure):
    with open(HASHES, encoding="utf-8") as fh:
        expected = json.load(fh)[figure]["files"]
    result = CliRunner().invoke(main, ["--figure", figure, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(tmp_path)}
    assert got == expected
