"""Write BENCH_<pr>.json: the end-to-end benchmark figures of this checkout.

    python3 tools/bench_trajectory.py PR [--seed N]

Run from anywhere inside a checkout.  For each workload that
``BENCHMARK.json`` names, it runs the benchmark unchanged, for the
``run_seconds`` that ``BENCHMARK.json`` sets (S),

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

one workload at a time, and reads the record that run leaves in
``.perfbench_work/<W>/result_seed<N>_trace0.json``.  From the record's
samples it takes the median and the interquartile range of ``setup_s``,
``wall_s`` and ``peak_rss_mb``, and it keeps the record's provenance
(commit, source hash and lines, CPUs, Python and numpy versions).  The
last line that ``run.py`` prints holds only the run's headline figures,
with no spread and no provenance, so the record is read instead.

Next it times what no workload measures, in a fresh Python process on
the checkout's ``src/``, each three times and recorded as the min and
the median: the runs of ``ROADMAP.md`` item 1's "Current figures" table
(``paper_siv`` full and averaged for 60 s, ``smallgain`` full,
``continuous-control`` and averaged for 30 s, and ``verify`` on
``paper_siv`` for 60 s), then the CSV export and import of the 60 s
``paper_siv`` full trace (600,001 rows, about 161 MB) into a temporary
directory.

Then it runs the tier-1 suite once, with the command ``ROADMAP.md``
gives, from the root of the checkout, and records its wall time and the
passed, failed and error counts of pytest's summary line (a module that
fails to import is an error).  Failing tests do not stop the file (two
acceptance criteria fail by design).

``BENCH_<PR>.json`` is written at the root of the checkout only if every
workload ran with no failed operation, the in-process run printed its
record and the suite printed its summary; otherwise nothing is written
and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The tier-1 command of ROADMAP.md, run by the shell from the root of the checkout.
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"

#: The in-process run, as ``python -c``: time each run of ROADMAP item 1's
#: "Current figures" three times, then export and import the 60 s paper_siv
#: full trace three times each; print one JSON line of timings.
IN_PROCESS = """
import json, tempfile, time
from dataclasses import replace
from pathlib import Path
from etseek.analysis import verify_scenario
from etseek.config import load_scenario
from etseek.engine import run_simulation
from etseek.traceio import export_trace, import_trace

siv, smallgain = load_scenario("paper_siv.cfg"), load_scenario("smallgain.cfg")


def scenario(base, mode, seconds):
    return replace(base, t_final=seconds, mode=mode, sample_period=None)


RUNS = {
    "paper_siv full, 60 s": (run_simulation, scenario(siv, "full", 60.0)),
    "smallgain full, 30 s": (run_simulation, scenario(smallgain, "full", 30.0)),
    "smallgain continuous-control, 30 s":
        (run_simulation, scenario(smallgain, "continuous-control", 30.0)),
    "paper_siv average, 60 s": (run_simulation, scenario(siv, "average", 60.0)),
    "smallgain average, 30 s": (run_simulation, scenario(smallgain, "average", 30.0)),
    "verify paper_siv, 60 s": (verify_scenario, scenario(siv, "full", 60.0)),
}
record = {"runs": {}, "export_s": [], "import_s": []}
for name, (run, sc) in RUNS.items():
    times = record["runs"][name] = []
    for _ in range(3):
        start = time.perf_counter()
        result = run(sc)
        times.append(time.perf_counter() - start)
    if name == "paper_siv full, 60 s":
        trace = result[0]
record["rows"] = len(trace)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.csv"
    for _ in range(3):
        start = time.perf_counter()
        export_trace(trace, path)
        exported = time.perf_counter()
        import_trace(path)
        record["export_s"].append(exported - start)
        record["import_s"].append(time.perf_counter() - exported)
    record["csv_bytes"] = path.stat().st_size
print(json.dumps(record))
"""


def spread(samples: list[float]) -> dict:
    """Median, interquartile range and count of one metric's samples."""
    iqr = 0.0
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(samples), "iqr": iqr, "n": len(samples)}


def summarize(record: dict) -> dict:
    """One workload's entry of BENCH_<pr>.json, from its run's result record.

    Raises ValueError if the run reports a failed operation.
    """
    result = record["result"]
    if result["failed"]:
        raise ValueError(f"{result['failed']} of {result['attempted']} operations failed")
    samples = record["samples"]
    entry = {
        "setup_s": spread(samples["setup_s"]),
        "wall_s": spread([rep["wall_s"] for rep in samples["plain"]]),
        "peak_rss_mb": spread(samples["peak_rss_mb"]),
    }
    entry["operations"] = result["attempted"]
    entry["provenance"] = record["provenance"]
    return entry


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """Run one workload through perfbench/run.py and return its result record.

    Raises ValueError if the run exits with an error.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT,
    )
    if proc.returncode:
        raise ValueError(f"perfbench/run.py exited with status {proc.returncode}")
    path = ROOT / ".perfbench_work" / name / f"result_seed{seed}_trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_in_process() -> str:
    """Run ``IN_PROCESS`` in a fresh Python on the checkout's ``src/``; its standard output.

    Raises ValueError if it exits with an error.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise ValueError(f"the in-process run exited with status {proc.returncode}")
    return proc.stdout


def min_median(times: list[float]) -> dict:
    """Min, median and count of one in-process run's times; ValueError if there are none."""
    return {"min": min(times), "median": statistics.median(times), "n": len(times)}


def in_process_summary(output: str) -> dict:
    """The in_process entry of BENCH_<pr>.json, from the run's last output line.

    Keeps the trace's rows and CSV bytes, and the min, median and count
    of the export and import times and of each timed run; raises
    ValueError if the line is not such a record.
    """
    lines = output.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        entry = {"run": "paper_siv full, 60 s", "rows": record["rows"],
                 "csv_bytes": record["csv_bytes"]}
        for phase in ("export_s", "import_s"):
            entry[phase] = min_median(record[phase])
        entry["runs"] = {name: min_median(times) for name, times in record["runs"].items()}
        if not entry["runs"]:
            raise ValueError("no timed run")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        # ValueError: bad JSON, no times; AttributeError: runs is not a mapping
        raise ValueError(f"no in-process record in its output: {output[-200:]!r}") from None
    return entry


def run_tier1() -> tuple[str, float]:
    """Run the tier-1 suite once; its standard output and wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, shell=True, cwd=ROOT, capture_output=True, text=True)
    return proc.stdout, time.perf_counter() - start


def tier1_summary(output: str, wall_s: float) -> dict:
    """The tier-1 entry of BENCH_<pr>.json, from pytest's output and the run's wall time.

    Reads the summary line that ends the output, such as ``2 failed, 338
    passed, 1 error in 31.52s``; raises ValueError if there is none.
    """
    lines = output.strip().splitlines()
    summary = lines[-1] if lines else ""
    if not re.search(r"\d+ \w+.* in [\d.]+s", summary):
        raise ValueError(f"no pytest summary line in the tier-1 output: {summary!r}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)s?\b", summary)}
    return {"command": TIER1, "wall_s": wall_s, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0)}


def trajectory(pr: int, seed: int) -> dict:
    """The BENCH_<pr>.json payload.

    Raises ValueError naming a workload that failed, if the in-process
    run printed no record, or if the tier-1 suite printed no summary line.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            workloads[name] = summarize(run_workload(name, seed, seconds))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    in_process = in_process_summary(run_in_process())
    tier1 = tier1_summary(*run_tier1())
    return {"pr": pr, "seed": seed, "seconds": seconds, "workloads": workloads,
            "in_process": in_process, "tier1": tier1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the reference)")
    args = parser.parse_args(argv)
    try:
        payload = trajectory(args.pr, args.seed)
    except ValueError as exc:
        print(f"bench_trajectory: {exc}; nothing written", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
