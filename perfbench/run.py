"""etseek benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process at a time: each worker
(``worker.py``) is a fresh interpreter with ``PYTHONPATH=src`` that sets
up, then repeats the workload in-process through ``etseek.cli.main``.

``--trace 0`` spends about S seconds on untraced repetitions and reports
the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced workers for S seconds and reports every
per-layer metric: the traced repetitions' layer figures, the untraced
repetitions' verb-level rates, and the tracing overhead between the two.

Figures are medians over the run's repetitions, with one exception:
``wall_s`` is the 90th-percentile repetition (nearest rank).  On a shared
host, neighbours slow this process by up to 2x in phases that last from
seconds to minutes.  The fastest and the median repetition move with how
much of a run happened to be contended; the slow tail sits on the
contended plateau, which nearly every 30 s run reaches, and so repeats
best from run to run.  Set-up time is the median over every
fresh-interpreter set-up in the run (a few set-up-only starts plus one
per worker).

Every repetition's outputs are checked: against the digests pinned in
``reference.json`` for the reference seed, by invariants for any other
seed.  A non-zero exit, an exception or a mismatch is a failed
operation.  Human-readable lines come first; the last line of standard
output is the JSON result.  A fuller record, with provenance and every
sample, goes to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6
CHILD_BUDGET_S = 8.0
WALL_PERCENTILE = 90
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, reference_failures, scenario_input  # noqa: E402


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, workload, config: str, out_dir: Path, env,
              budget: float) -> tuple[dict | None, str]:
    """Start one worker and wait for it; (result, error text)."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload.name, config, str(out_dir),
             repr(spawned), repr(budget)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition exceeded {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"{mode} repetition printed no result: {lines[-1][:200]}"


def provenance(seed: int) -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    blob = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        blob.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    import numpy

    return {
        "commit": commit,
        "src_sha256": blob.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "horizons_s": {name: w.t_final for name, w in WORKLOADS.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="pinned outputs of the reference seed")
    args = parser.parse_args()

    if not (ROOT / "src" / "etseek" / "__init__.py").is_file():
        die(f"no etseek sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(f"cannot read the benchmark definition: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from etseek.config import packaged_scenario_path
    except ImportError as exc:
        die(f"cannot import etseek: {exc}")

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_work" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    config = scenario_input(workload, args.seed, packaged_scenario_path(workload.scenario), out_dir)
    env = child_env()

    attempted = failed = 0
    errors: list[str] = []
    samples: dict[str, list] = {"setup_s": [], "peak_rss_mb": [], "plain": [], "traced": []}

    def account(ops: tuple[str, ...], found: list) -> None:
        nonlocal attempted, failed
        attempted += len(ops)
        errors.extend(f"{where}: {message}" for where, message in found)
        failed += len({where for where, _ in found} & set(ops))

    def spawn(mode: str, budget: float) -> bool:
        result, error = run_child(mode, workload, config, out_dir, env, budget)
        ops = ("setup",) if mode == "setup" else workload.ops
        if result is None:
            account(ops, [(op, error) for op in ops])
            return False
        if mode == "setup":
            account(ops, [])
        for rep in result.get("reps", []):
            found = rep["failures"] + [
                [workload.ops[0], f"reference mismatch {message}"]
                for message in reference_failures(workload, args.seed, rep["observed"], reference)
            ]
            account(workload.ops, found)
            samples[mode].append(rep)
        if mode != "traced":
            samples["setup_s"].append(result["setup_s"])
        if mode == "plain":
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        return True

    def spend(modes: tuple[str, ...]) -> None:
        """Alternate workers of the given modes until the run's seconds are spent."""
        while True:
            for mode in modes:
                remaining = args.seconds - (time.perf_counter() - started)
                if remaining <= 0 and all(samples[m] for m in modes):
                    return
                if not spawn(mode, min(CHILD_BUDGET_S, max(remaining, 0.0)) / len(modes)):
                    return

    run_child("setup", workload, config, out_dir, env, 0.0)  # fills bytecode caches; not a sample
    started = time.perf_counter()
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            spawn("setup", 0.0)
        spend(("plain",))
    else:
        spend(("plain", "traced"))

    if not samples["plain"] or (args.trace == 1 and not samples["traced"]):
        for error in errors[:5]:
            print(error, file=sys.stderr)
        die("no repetition completed, so nothing was measured")

    plain, traced = samples["plain"], samples["traced"]
    median = statistics.median
    phases = {key: median(r["phases"][key] for r in plain) for key in plain[0]["phases"]}
    if args.trace == 0:
        walls = sorted(r["wall_s"] for r in plain)
        metrics = {
            "setup_s": median(samples["setup_s"]),
            "wall_s": walls[math.ceil(WALL_PERCENTILE / 100 * len(walls)) - 1],
            "peak_rss_mb": median(samples["peak_rss_mb"]),
        }
        wanted = spec["end_to_end"]
    else:
        metrics = {key: median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        metrics.update(phases)
        metrics["tracing.overhead_fraction"] = (
            median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in plain) - 1.0
        )
        wanted = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    prov = provenance(args.seed)
    print(f"workload {workload.name}, seed {args.seed}"
          f"{' (reference)' if args.seed == REFERENCE_SEED else ''}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{len(samples['setup_s'])} set-up samples")
    shown = dict(metrics)
    if args.trace == 0:
        shown.update((name, value) for name, value in phases.items() if value)
    show_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in shown.items():
        kind = "" if args.trace == 0 else f"  [{LAYER_METRICS[name][0]}]"
        print(f"  {name:42s} {value:.6g} {show_units[name]}{kind}")
    print(f"  {'failed_fraction':42s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for error in errors[:5]:
        print(f"  failure: {error.splitlines()[-1] if error.strip() else error}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record_path = out_dir / f"result_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "result": line,
        "provenance": prov,
        "verb_rates": phases,
        "layer_kinds": {name: LAYER_METRICS[name] for name in metrics if name in LAYER_METRICS},
        "errors": errors,
        "samples": {"setup_s": samples["setup_s"], "peak_rss_mb": samples["peak_rss_mb"],
                    "plain": [{k: r[k] for k in ("wall_s", "phases")} for r in plain],
                    "traced": [{k: r[k] for k in ("wall_s", "layers")} for r in traced]},
    }, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
