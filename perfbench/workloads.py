"""The benchmark's workloads: their CLI inputs, seeded scenarios and checks.

Each workload is one closed-loop job, run one at a time: a single
``etseek`` CLI verb (plus ``import_trace`` for the trace-I/O workload)
driven in-process through ``etseek.cli.main``.  Horizons are shortened
from the shipped scenarios so a run repeats the job several times, but
each horizon keeps the character the workload was chosen for:

* ``siv_simulate_io`` - ``paper_siv`` full loop for 4 s (40k steps): all
  59 events fall before t = 3.75 s, so the run is plant-bound, then the
  trace is exported to CSV and imported back.  The only trace I/O.
* ``smallgain_compare`` - ``compare --omega-list 20,40`` on ``smallgain``
  for 1 s: dense events in the full loop (4,515 and 1,088 of 10k steps)
  and an averaged loop that fires on every step at omega3 = 20.
* ``siv_verify`` - ``verify`` on ``paper_siv`` for 5 s: the averaged
  loop fires twice and then holds for the rest of the run, plus the
  Lyapunov solve and the decay-envelope check; no plant, no I/O.

The reference seed runs the shipped scenarios verbatim so the pinned
digests in ``reference.json`` apply.  Any other seed moves the initial
pose by a small uniform draw (at most 1 mm in x0 and y0, 1 mrad in
theta0); those runs are checked by invariants and by the report fields
that do not depend on the initial pose.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 0
POSITION_JITTER_M = 1e-3
HEADING_JITTER_RAD = 1e-3
OMEGA_LIST = "20,40"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # packaged scenario file name
    t_final: float  # horizon passed as --t-final, s
    ops: tuple[str, ...]  # operations one repetition attempts

    def argv(self, config: str, out_dir: Path) -> list[str]:
        horizon = ["--t-final", repr(self.t_final)]
        if self.name == "siv_simulate_io":
            return ["simulate", "--config", config, "--out", str(out_dir / "trace.csv"),
                    "--metrics", str(out_dir / "metrics.json"), "--mode", "full", *horizon]
        if self.name == "smallgain_compare":
            return ["compare", "--config", config, "--omega-list", OMEGA_LIST,
                    "--metrics", str(out_dir / "metrics.json"), *horizon]
        return ["verify", "--config", config, "--metrics", str(out_dir / "metrics.json"), *horizon]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("siv_simulate_io", "paper_siv.cfg", 4.0, ("simulate", "import")),
        Workload("smallgain_compare", "smallgain.cfg", 1.0, ("compare",)),
        Workload("siv_verify", "paper_siv.cfg", 5.0, ("verify",)),
    )
}

#: TheoryReport fields that depend only on the scenario constants, not on
#: the initial pose, so they are pinned for every seed.
POSE_FREE_REPORT_FIELDS = (
    "hurwitz",
    "alpha_min",
    "alpha_ok",
    "tau_star",
    "decay_rate",
    "averaging_sup_error",
    "residual_scale_theorem",
    "residual_scale_appendix",
)


def scenario_input(workload: Workload, seed: int, packaged: Path, out_dir: Path) -> str:
    """The --config value for this seed: the packaged name, or a perturbed copy."""
    if seed == REFERENCE_SEED:
        return workload.scenario
    rng = random.Random(f"{workload.name}/{seed}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(packaged, encoding="utf-8")
    run = parser["run"]
    theta0 = math.radians(float(run.pop("theta0_deg"))) if "theta0_deg" in run else float(run["theta0"])
    run["x0"] = repr(float(run["x0"]) + rng.uniform(-POSITION_JITTER_M, POSITION_JITTER_M))
    run["y0"] = repr(float(run["y0"]) + rng.uniform(-POSITION_JITTER_M, POSITION_JITTER_M))
    run["theta0"] = repr(theta0 + rng.uniform(-HEADING_JITTER_RAD, HEADING_JITTER_RAD))
    path = out_dir / f"seed{seed}_{workload.scenario}"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return str(path)


def digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def mismatches(observed, expected, path: str = "") -> list[str]:
    """Paths at which two JSON-like values differ (floats compared exactly)."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out = []
        for key in sorted(set(expected) | set(observed)):
            if key not in observed or key not in expected:
                out.append(f"{path}/{key}: missing on one side")
            else:
                out.extend(mismatches(observed[key], expected[key], f"{path}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(observed, list) and len(expected) == len(observed):
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out.extend(mismatches(o, e, f"{path}/{i}"))
        return out
    if observed != expected or type(observed) is not type(expected):
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


def reference_failures(workload: Workload, seed: int, observed: dict, reference: dict) -> list[str]:
    """Mismatches of one repetition's observed outputs against the pinned ones."""
    expected = reference[workload.name]
    if seed == REFERENCE_SEED:
        return mismatches(observed, expected)
    if workload.name == "siv_verify":
        got = {k: observed.get("report", {}).get(k) for k in POSE_FREE_REPORT_FIELDS}
        want = {k: expected["report"][k] for k in POSE_FREE_REPORT_FIELDS}
        return mismatches(got, want, "/report")
    return []
