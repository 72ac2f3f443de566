import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"


#: The end of a tier-1 run's output under ``pytest -q``.
TIER1_OUTPUT = (
    "FAILED tests/test_acceptance.py::test_criterion_1_paper_reproduction - assert 26.19 < 1.0\n"
    "FAILED tests/test_acceptance.py::test_criterion_2_update_reduction - assert False\n"
    "2 failed, 338 passed in 31.52s\n"
)


#: The output of the in-process run: one JSON line.
IN_PROCESS_OUTPUT = (
    '{"runs": {"paper_siv full, 60 s": [0.52, 0.49, 0.61],'
    ' "verify paper_siv, 60 s": [0.1, 0.098, 0.11]},'
    ' "export_s": [1.31, 1.05, 1.12], "import_s": [2.4, 2.2, 2.6], "rows": 600001,'
    ' "csv_bytes": 161234567}\n'
)


def load_tool():
    """The script as a fresh module."""
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tool(tmp_path, monkeypatch):
    """The script as a module, rooted in a checkout of only BENCHMARK.json.

    Its tier-1 run returns ``TIER1_OUTPUT`` after 31.9 s and its in-process
    run ``IN_PROCESS_OUTPUT``; no pytest and no simulation start.
    """
    module = load_tool()
    shutil.copy(TOOL.parents[1] / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "run_tier1", lambda: (TIER1_OUTPUT, 31.9))
    monkeypatch.setattr(module, "run_in_process", lambda: IN_PROCESS_OUTPUT)
    return module


PROVENANCE = {
    "commit": "0123456789abcdef0123456789abcdef01234567", "nproc": 2, "numpy": "2.4.6",
    "python": "3.11.7", "seed": 0, "src_lines": 2337,
    "src_sha256": "89abcdef" * 8,
    "horizons_s": {"siv_simulate_io": 4.0, "siv_verify": 5.0, "smallgain_compare": 1.0},
}


def canned_record(failed=0):
    """A result record as perfbench/run.py --trace 0 writes it, cut to five repetitions."""
    phases = {"avg_steps_per_s": 0.0, "export_rows_per_s": 4.8e5,
              "import_rows_per_s": 2.4e5, "sim_steps_per_s": 1.8e6}
    walls = [0.30, 0.28, 0.36, 0.29, 0.31]
    return {
        "result": {"attempted": 28, "correct": failed == 0, "failed": failed,
                   "metrics": {"wall_s": {"unit": "s", "value": 0.36}}},
        "provenance": PROVENANCE,
        "samples": {
            "setup_s": [0.20, 0.24, 0.22],
            "peak_rss_mb": [44.25],
            "plain": [{"phases": phases, "wall_s": wall} for wall in walls],
            "traced": [],
        },
        "errors": [],
        "layer_kinds": {},
        "verb_rates": phases,
    }


def test_summary_is_median_and_iqr_of_the_samples(tool):
    entry = tool.summarize(canned_record())
    assert entry["wall_s"] == {"median": 0.30, "iqr": pytest.approx(0.02), "n": 5}
    assert entry["setup_s"] == {"median": 0.22, "iqr": pytest.approx(0.02), "n": 3}
    assert entry["peak_rss_mb"] == {"median": 44.25, "iqr": 0.0, "n": 1}
    assert entry["operations"] == 28
    assert entry["provenance"] == PROVENANCE


def test_bench_file_names_every_workload(tool, monkeypatch):
    runs = []

    def run(name, seed, seconds):
        runs.append((name, seed, seconds))
        return canned_record()

    monkeypatch.setattr(tool, "run_workload", run)
    assert tool.main(["3", "--seed", "7"]) == 0
    payload = json.loads((tool.ROOT / "BENCH_3.json").read_text())
    names = ["siv_simulate_io", "smallgain_compare", "siv_verify"]
    assert runs == [(name, 7, 30) for name in names]
    assert (payload["pr"], payload["seed"], payload["seconds"]) == (3, 7, 30)
    assert list(payload["workloads"]) == names
    assert payload["workloads"]["siv_verify"] == tool.summarize(canned_record())
    assert payload["tier1"] == tool.tier1_summary(TIER1_OUTPUT, 31.9)
    assert payload["in_process"] == tool.in_process_summary(IN_PROCESS_OUTPUT)


def test_in_process_entry_is_min_and_median(tool):
    assert tool.in_process_summary("numpy says hello\n" + IN_PROCESS_OUTPUT) == {
        "run": "paper_siv full, 60 s", "rows": 600_001, "csv_bytes": 161_234_567,
        "export_s": {"min": 1.05, "median": 1.12, "n": 3},
        "import_s": {"min": 2.2, "median": 2.4, "n": 3},
        "runs": {"paper_siv full, 60 s": {"min": 0.49, "median": 0.52, "n": 3},
                 "verify paper_siv, 60 s": {"min": 0.098, "median": 0.1, "n": 3}},
    }
    record = json.loads(IN_PROCESS_OUTPUT)
    bad_runs = [{**record, "runs": runs} for runs in ({}, [0.52], {"verify paper_siv, 60 s": []})]
    no_runs = {key: value for key, value in record.items() if key != "runs"}
    for output in ("", "Traceback (most recent call last):\n", '{"rows": 600001}\n',
                   IN_PROCESS_OUTPUT.replace("[2.4, 2.2, 2.6]", "[]"),
                   *(json.dumps(bad) for bad in [*bad_runs, no_runs])):
        with pytest.raises(ValueError, match="no in-process record"):
            tool.in_process_summary(output)


def test_in_process_run_is_a_fresh_python_on_the_checkout(tmp_path, monkeypatch):
    module = load_tool()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    calls, codes = [], iter([0, 1])

    def run(args, **kwargs):
        calls.append((args, kwargs))
        return subprocess.CompletedProcess(args, next(codes), stdout=IN_PROCESS_OUTPUT)

    monkeypatch.setattr(module.subprocess, "run", run)
    assert module.run_in_process() == IN_PROCESS_OUTPUT
    (args, kwargs), = calls
    assert args == [sys.executable, "-c", module.IN_PROCESS]
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")
    with pytest.raises(ValueError, match="exited with status 1"):
        module.run_in_process()


def test_tier1_entry_is_the_summary_line(tool):
    assert tool.tier1_summary(TIER1_OUTPUT, 31.9) == {
        "command": tool.TIER1, "wall_s": 31.9, "passed": 338, "failed": 2, "errors": 0,
    }
    assert tool.tier1_summary("340 passed in 75.10s (0:01:15)\n", 75.4)["failed"] == 0
    # A module that fails to import is counted, not read as a pass.
    broken = tool.tier1_summary("2 failed, 330 passed, 1 error in 30.00s\n", 30.2)
    assert (broken["passed"], broken["failed"], broken["errors"]) == (330, 2, 1)
    assert tool.tier1_summary("338 passed, 2 errors in 30.00s\n", 30.2)["errors"] == 2
    with pytest.raises(ValueError, match="no pytest summary"):
        tool.tier1_summary("Traceback (most recent call last):\n", 0.5)


def test_a_failed_operation_writes_nothing(tool, monkeypatch, capsys):
    records = iter([canned_record(), canned_record(failed=2), canned_record()])
    monkeypatch.setattr(tool, "run_workload", lambda name, seed, seconds: next(records))
    assert tool.main(["3"]) == 1
    assert not (tool.ROOT / "BENCH_3.json").exists()
    assert capsys.readouterr().err == (
        "bench_trajectory: smallgain_compare: 2 of 28 operations failed; nothing written\n"
    )
