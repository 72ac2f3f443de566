"""Pin the reference outputs: one reference-seed repetition per workload.

    python3 perfbench/pin_reference.py

Writes ``perfbench/reference.json`` from what the current sources
produce.  Run it only when the outputs are meant to change; every
benchmark run on the reference seed is checked against this file.
"""

import json
import sys

from run import HERE, ROOT, child_env, run_child
from workloads import REFERENCE_SEED, WORKLOADS, scenario_input


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from etseek.config import packaged_scenario_path

    pinned = {}
    for workload in WORKLOADS.values():
        out_dir = ROOT / ".perfbench_work" / workload.name
        out_dir.mkdir(parents=True, exist_ok=True)
        config = scenario_input(workload, REFERENCE_SEED,
                                packaged_scenario_path(workload.scenario), out_dir)
        result, error = run_child("plain", workload, config, out_dir, child_env(), 0.0)
        if result is None or result["reps"][0]["failures"]:
            sys.exit(f"{workload.name}: {error or result['reps'][0]['failures']}")
        pinned[workload.name] = result["reps"][0]["observed"]
    (HERE / "reference.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    main()
