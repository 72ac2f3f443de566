"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted reference digest turns into failed operations,
that the pinned reference passes, that the traced run emits every
per-layer metric of BENCHMARK.json on every workload, and that the
benchmark refuses to report from a directory without the sources.  Takes
about a minute; exits non-zero at the first broken expectation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(*args: str) -> dict:
    proc = bench(*args)
    if proc.returncode != 0:
        sys.exit(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    short = ("--seconds", "1")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    columns = reference["siv_simulate_io"]["traces"][0]["columns"]
    columns["x"] = columns["x"][::-1]
    corrupted = WORK / "corrupted_reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    bad = result("--workload", "siv_simulate_io", "--seed", "0", *short, "--trace", "0",
                 "--reference", str(corrupted))
    expect(bad["failed"] > 0 and bad["correct"] is False,
           f"corrupted x digest gives failed_fraction {bad['failed']}/{bad['attempted']}")

    good = result("--workload", "siv_simulate_io", "--seed", "0", *short, "--trace", "0")
    expect(good["failed"] == 0 and good["correct"] is True, "pinned reference passes on seed 0")
    expect(sorted(good["metrics"]) == sorted(m["name"] for m in spec["end_to_end"]),
           "untraced run emits exactly the end-to-end metrics")

    layer_names = sorted(m["name"] for m in spec["per_layer"])
    for workload in spec["workloads"]:
        traced = result("--workload", workload["name"], "--seed", "1", *short, "--trace", "1")
        values = [m["value"] for m in traced["metrics"].values()]
        expect(sorted(traced["metrics"]) == layer_names
               and all(isinstance(v, float) and math.isfinite(v) for v in values)
               and traced["failed"] == 0,
               f"traced {workload['name']} emits all {len(layer_names)} per-layer metrics")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", spec["workloads"][0]["name"], "--seed", "0", *short, "--trace", "0",
                 cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"a directory without the sources exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
