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

Before the first workload and again after the last, it times a fixed
host calibration in a fresh Python process: a pure-Python float loop and
a numpy kernel, five times each, then the float loop in two forked
children at once, three times (``pair_s``).  The ``host`` entry keeps
each kernel's min from both runs and their sum, averaged over the two
runs, as the control; each workload's ``wall_s`` median as a multiple of
the control; the calibration's move, the larger relative change of a
kernel's min between the two runs; the workloads whose ``wall_s``
relative interquartile range (IQR over median) is below that move, for
which the host changed more during the run than the workload's own
spread; ``usable_cpus``, the CPUs this process may run on (None where the
platform cannot say), since the CSV split forks a child per usable CPU
and ``compare`` overlaps its lanes from two on; ``parallel_ratio``, for
each calibration the min ``pair_s`` over the min of the float loop
alone, near 1 where a second CPU was free for those forks and near 2
where it was busy; and ``bytecode_cache``,
False where ``PYTHONDONTWRITEBYTECODE`` is set and non-empty in the
environment the workloads inherit, since then every worker compiles
``src/`` and ``setup_s`` and ``peak_rss_mb`` grow with its length.  The
multiples let a reader of several ``BENCH_*.json`` tell a change of the
code from a change of the host.

Next it times what no workload measures, in a fresh Python process on
the checkout's ``src/``, each three times and recorded as the min and
the median: the runs of ``ROADMAP.md`` item 1's "Current figures" table
(``paper_siv`` full and averaged for 60 s, ``smallgain`` full,
``continuous-control``, ``sampled-data(0.05)`` and averaged for 30 s,
and ``verify`` on ``paper_siv`` for 60 s), then the CSV export and
import of the 60 s ``paper_siv`` full trace (600,001 rows, about
161 MB) into a temporary directory.

It counts the modules of ``src/etseek/*.py``, their lines (newlines, as
``wc -l`` counts them) and their code lines (lines that are not blank,
not in a docstring and not a whole-line comment) into a top-level
``src`` entry.

Then it runs the tier-1 suite once, with the command ``ROADMAP.md``
gives, from the root of the checkout, and records its wall time, the
passed, failed and error counts of pytest's summary line (a module that
fails to import is an error) and, under ``failing``, the test IDs of the
``FAILED`` and ``ERROR`` lines of its short summary.  Failing tests do
not stop the file (two acceptance criteria fail by design, and
``failing`` shows that they are the ones that fail).

``BENCH_<PR>.json`` is written at the root of the checkout only if every
workload ran with no failed operation, both calibrations and the
in-process run printed their records and the suite printed its summary;
otherwise nothing is written and the exit status is 1.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tokenize
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
    return replace(base, t_final=seconds, mode=mode)


RUNS = {
    "paper_siv full, 60 s": (run_simulation, scenario(siv, "full", 60.0)),
    "smallgain full, 30 s": (run_simulation, scenario(smallgain, "full", 30.0)),
    "smallgain continuous-control, 30 s":
        (run_simulation, scenario(smallgain, "continuous-control", 30.0)),
    "smallgain sampled-data(0.05), 30 s":
        (run_simulation, scenario(smallgain, "sampled-data(0.05)", 30.0)),
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


#: The host calibration, as ``python -c``: time a pure-Python float loop
#: and a numpy kernel five times each, and the loop in two forked children
#: at once three times; print one JSON line of timings.
CALIBRATION = """
import json, os, time
import numpy as np


def python_loop():
    x = 0.5
    for _ in range(500_000):
        x = 3.9 * x * (1.0 - x)
    return x


a = np.linspace(0.0, 1.0, 1 << 20)


def numpy_kernel():
    return float(np.sqrt(np.sin(a) * np.sin(a) + np.cos(a) * a).sum())


def python_pair():
    children = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                python_loop()
                status = 0
            finally:
                os._exit(status)
        children.append(pid)
    if any([os.waitpid(pid, 0)[1] for pid in children]):
        raise SystemExit("a forked calibration child failed")


record = {}
for name, kernel, repeats in (
    ("python_s", python_loop, 5), ("numpy_s", numpy_kernel, 5), ("pair_s", python_pair, 3)
):
    times = record[name] = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
print(json.dumps(record))
"""

#: The calibration's kernels, as its record names them.
KERNELS = ("python_s", "numpy_s")


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


def run_python(code: str, what: str) -> str:
    """Run ``code`` in a fresh Python on the checkout's ``src/``; its standard output.

    Raises ValueError, naming ``what`` ran, if it exits with an error.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise ValueError(f"the {what} exited with status {proc.returncode}")
    return proc.stdout


def run_in_process() -> str:
    """Run ``IN_PROCESS``; its standard output.  Raises ValueError if it fails."""
    return run_python(IN_PROCESS, "in-process run")


def run_calibration() -> str:
    """Run ``CALIBRATION``; its standard output.  Raises ValueError if it fails."""
    return run_python(CALIBRATION, "host calibration")


def calibration_summary(output: str) -> dict:
    """Each kernel's min time and ``pair_s``'s, from the calibration's last
    output line; raises ValueError if the line is not such a record."""
    lines = output.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        return {name: min(float(t) for t in record[name]) for name in (*KERNELS, "pair_s")}
    except (IndexError, KeyError, TypeError, ValueError):
        # ValueError: bad JSON, no times or a time that is no number; TypeError: no mapping
        raise ValueError(f"no calibration record in its output: {output[-200:]!r}") from None


def usable_cpus() -> int | None:
    """CPUs this process may run on, or None where ``os.sched_getaffinity`` is missing."""
    affinity = getattr(os, "sched_getaffinity", None)
    return None if affinity is None else len(affinity(0))


def host_summary(before: str, after: str, workloads: dict) -> dict:
    """The host entry of BENCH_<pr>.json, from the two calibrations' outputs
    and the workload entries.

    The control is the sum of the kernels' mins, averaged over the two
    runs.  The move is the larger relative change of a kernel's min from
    the first run to the second; ``moved`` names the workloads whose
    ``wall_s`` relative IQR is below it.  ``parallel_ratio`` is each
    run's min ``pair_s`` over its min ``python_s``.  ``usable_cpus`` is
    :func:`usable_cpus`; ``bytecode_cache`` is whether the workloads,
    which inherit this environment, may write bytecode caches.
    """
    first, second = calibration_summary(before), calibration_summary(after)
    # Popping pair_s leaves only KERNELS in each run's mins.
    parallel = {run: mins.pop("pair_s") / mins["python_s"]
                for run, mins in (("before", first), ("after", second))}
    control = (sum(first.values()) + sum(second.values())) / 2.0
    move = max(abs(second[kernel] / first[kernel] - 1.0) for kernel in KERNELS)
    walls = {name: entry["wall_s"] for name, entry in workloads.items()}
    return {
        "before": first, "after": second, "control_s": control, "move": move,
        "wall_s_per_control": {name: wall["median"] / control for name, wall in walls.items()},
        "moved": [name for name, wall in walls.items() if wall["iqr"] / wall["median"] < move],
        "parallel_ratio": parallel,
        "usable_cpus": usable_cpus(),
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


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


def code_lines(source: str) -> int:
    """Lines of a module's ``source`` that are not blank, not in a docstring
    and not a whole-line comment."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    spanned = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            spanned.update(range(token.start[0], token.end[0] + 1))
    lines = source.splitlines()
    return sum(1 for n in spanned - docstrings if lines[n - 1].strip())


def src_size(root: Path) -> dict:
    """The src entry of BENCH_<pr>.json: how many modules ``src/etseek/*.py``
    under ``root`` holds, their lines and their :func:`code_lines`."""
    files = sorted((root / "src" / "etseek").glob("*.py"))
    return {"modules": len(files), "lines": sum(path.read_bytes().count(b"\n") for path in files),
            "code_lines": sum(code_lines(path.read_text(encoding="utf-8")) for path in files)}


def run_tier1() -> tuple[str, float]:
    """Run the tier-1 suite once; its standard output and wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, shell=True, cwd=ROOT, capture_output=True, text=True)
    return proc.stdout, time.perf_counter() - start


def tier1_summary(output: str, wall_s: float) -> dict:
    """The tier-1 entry of BENCH_<pr>.json, from pytest's output and the run's wall time.

    Reads the summary line that ends the output, such as ``2 failed, 338
    passed, 1 error in 31.52s``; raises ValueError if there is none.  The
    ``failing`` IDs come from the short summary's ``FAILED <id>`` and
    ``ERROR <id>`` lines, in their order, without their messages.
    """
    lines = output.strip().splitlines()
    summary = lines[-1] if lines else ""
    if not re.search(r"\d+ \w+.* in [\d.]+s", summary):
        raise ValueError(f"no pytest summary line in the tier-1 output: {summary!r}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)s?\b", summary)}
    # An ID is a path, then a bracketed parameter id that may hold spaces.
    failing = re.findall(r"^(?:FAILED|ERROR) ([^\s\[]+(?:\[[^\]]*\])?)", output, re.MULTILINE)
    return {"command": TIER1, "wall_s": wall_s, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "failing": failing}


def trajectory(pr: int, seed: int) -> dict:
    """The BENCH_<pr>.json payload.

    Raises ValueError naming a workload that failed, if a calibration or
    the in-process run printed no record, or if the tier-1 suite printed
    no summary line.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {}
    before = run_calibration()
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            workloads[name] = summarize(run_workload(name, seed, seconds))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    host = host_summary(before, run_calibration(), workloads)
    in_process = in_process_summary(run_in_process())
    tier1 = tier1_summary(*run_tier1())
    return {"pr": pr, "seed": seed, "seconds": seconds, "workloads": workloads, "host": host,
            "in_process": in_process, "src": src_size(ROOT), "tier1": tier1}


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
