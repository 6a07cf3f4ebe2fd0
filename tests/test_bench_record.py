"""tools/bench_record.py: the record it keeps of a benchmark run."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_a_short_run_gives_its_environment_and_result_lines():
    proc = subprocess.run([sys.executable, bench_record.RUN, "--workload", "kernels",
                           "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                          capture_output=True, text=True, check=True)
    environment, result = bench_record.parse_run(proc.stdout)
    assert (environment["workload"], environment["seed"]) == ("kernels", 1)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"]["peak_rss_mb"]["unit"] == "MB"


@pytest.mark.parametrize("stdout", ["", "{}\n", "environment: {}\n",
                                    "environment: {}\nfailed areas: zeros\n{}\n"])
def test_output_that_does_not_end_in_both_lines_is_refused(stdout):
    with pytest.raises(ValueError, match="environment and result lines"):
        bench_record.parse_run(stdout)


def test_src_status_names_what_differs_from_the_commit(tmp_path):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("outside src\n")
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "c"], check=True)
    assert bench_record.src_status(tmp_path) == []
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    (tmp_path / "src" / "b.py").write_text("y = 1\n")
    (tmp_path / "notes.md").write_text("changed outside src\n")
    assert bench_record.src_status(tmp_path) == [" M src/a.py", "?? src/b.py"]
