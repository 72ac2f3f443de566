"""Spans recorded from outside the package, and the per-layer metrics.

The traced run rebinds the public names each ``etseek`` caller resolves
at call time (``etseek.engine.evaluate``, ``etseek.cli.run_simulation``,
...) to timing wrappers.  A span is (name, start, end, parent id); spans
live in flat arrays in memory and are written out once the repetition
ends.  A span's self time is its duration minus its children's.

Every per-layer metric is listed in ``LAYER_METRICS`` with the
end-to-end metric and workload it should move.  Counts are exact: they
come from call counters and from the program's outputs, never from the
clock.  A layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

#: name -> (kind, what it should move).  Timings are clock readings,
#: memory is read from the kernel's RSS accounting, and counts repeat
#: exactly for a given seed and program version.
LAYER_METRICS = {
    "engine.us_per_step": ("timing", "sim_steps_per_s on siv_simulate_io and smallgain_compare"),
    "engine.self_us_per_step": ("timing", "sim_steps_per_s on siv_simulate_io"),
    "engine.integrate_step.self_us_per_call": ("timing", "sim_steps_per_s on siv_simulate_io"),
    "vehicle.us_per_step": ("timing", "sim_steps_per_s on siv_simulate_io"),
    "vehicle.dither_velocities.calls_per_step": ("count", "sim_steps_per_s on siv_simulate_io"),
    "vehicle.VehicleState.constructs_per_step": ("count", "sim_steps_per_s on siv_simulate_io"),
    "field.evaluate.us_per_step": ("timing", "sim_steps_per_s on siv_simulate_io"),
    "estimator.us_per_step": ("timing", "sim_steps_per_s on siv_simulate_io"),
    "trigger.us_per_step": ("timing", "sim_steps_per_s on smallgain_compare; none on siv_simulate_io"),
    "trigger.us_per_event": ("timing", "sim_steps_per_s on smallgain_compare; none on siv_simulate_io"),
    "trigger.events": ("count", "sim_steps_per_s on smallgain_compare"),
    "trigger.event_fraction": ("count", "sim_steps_per_s on smallgain_compare"),
    "trigger.dt_gap_fraction": ("count", "sim_steps_per_s on smallgain_compare"),
    "average.us_per_step": ("timing", "wall_s on siv_verify; avg_steps_per_s on smallgain_compare"),
    "average.events": ("count", "avg_steps_per_s on smallgain_compare"),
    "average.event_fraction": ("count", "avg_steps_per_s on smallgain_compare"),
    "analysis.solve_lyapunov.ms": ("timing", "wall_s on siv_verify"),
    "analysis.decay_envelope_check.ms": ("timing", "wall_s on siv_verify"),
    "analysis.verify_self_ms": ("timing", "wall_s on siv_verify"),
    "analysis.averaging_error.ms": ("timing", "wall_s on smallgain_compare"),
    "config.load_scenario.ms": ("timing", "setup_s on all workloads"),
    "config.scale_probing_frequency.ms": ("timing", "setup_s on smallgain_compare"),
    "bessel.bessel_j.calls": ("count", "setup_s on all workloads"),
    "trace.preallocate_bytes": ("count", "peak_rss_mb on siv_simulate_io"),
    "traceio.export_trace.us_per_row": ("timing", "export_rows_per_s on siv_simulate_io"),
    "traceio.import_trace.us_per_row": ("timing", "import_rows_per_s on siv_simulate_io"),
    "traceio.bytes_per_row": ("count", "export_rows_per_s and import_rows_per_s on siv_simulate_io"),
    "traceio.import_rss_growth_mb": ("memory", "peak_rss_mb on siv_simulate_io"),
    "cli.self_ms": ("timing", "wall_s on all workloads"),
    "tracing.overhead_fraction": ("timing", "nothing; traced wall / untraced wall - 1"),
    "sim_steps_per_s": ("timing", "wall_s on siv_simulate_io and smallgain_compare"),
    "avg_steps_per_s": ("timing", "wall_s on smallgain_compare and siv_verify"),
    "export_rows_per_s": ("timing", "wall_s on siv_simulate_io"),
    "import_rows_per_s": ("timing", "wall_s on siv_simulate_io"),
}

#: (module, attribute, span name): the call-time bindings the traced run
#: rebinds.  Bindings in the callers' modules, not the definitions, are
#: replaced, because the callers import the names into their globals.
BINDINGS = (
    ("etseek.cli", "load_scenario", "config.load_scenario"),
    ("etseek.cli", "scale_probing_frequency", "config.scale_probing_frequency"),
    ("etseek.cli", "run_simulation", "engine.run_simulation"),
    ("etseek.cli", "averaging_error", "analysis.averaging_error"),
    ("etseek.cli", "verify_scenario", "analysis.verify_scenario"),
    ("etseek.cli", "export_trace", "traceio.export_trace"),
    ("etseek.cli", "export_metrics", "traceio.export_metrics"),
    ("etseek.analysis", "solve_lyapunov", "analysis.solve_lyapunov"),
    ("etseek.analysis", "decay_envelope_check", "analysis.decay_envelope_check"),
    ("etseek.analysis", "run_average_loop", "average.run_average_loop"),
    ("etseek.engine", "run_average_loop", "average.run_average_loop"),
    ("etseek.engine", "integrate_step", "engine.integrate_step"),
    ("etseek.engine", "dither_velocities", "vehicle.dither_velocities"),
    ("etseek.engine", "estimator_pose", "vehicle.estimator_pose"),
    ("etseek.engine", "VehicleState", "vehicle.VehicleState"),
    ("etseek.engine", "evaluate", "field.evaluate"),
    ("etseek.engine", "demodulation_vector", "estimator.demodulation_vector"),
    ("etseek.engine", "gradient_estimate", "estimator.gradient_estimate"),
    ("etseek.engine", "trigger_value", "trigger.trigger_value"),
    ("etseek.engine", "step_trigger", "trigger.step_trigger"),
    ("etseek.engine", "control_input", "trigger.control_input"),
    ("etseek.trigger", "control_input", "trigger.control_input"),
    ("etseek.trigger", "TriggerEvent", "trigger.TriggerEvent"),
    ("etseek.trigger", "bessel_j", "bessel.bessel_j"),
    ("etseek.average", "bessel_j", "bessel.bessel_j"),
)

CHECK_SPAN = "bench.check"
_STEP_ROOT = "engine.run_simulation"
_AVERAGE_LOOP = "average.run_average_loop"


class Tracer:
    """In-memory span recorder; ``wrap`` returns a timed stand-in for a callable."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    def clear(self) -> None:
        """Drop every recorded span; the installed wrappers keep recording."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self._stack[:] = [-1]

    def install(self) -> None:
        """Rebind every name in BINDINGS to its timed stand-in."""
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span, getattr(module, attr)))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _ancestor_flags(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """True for every span that is one of ``roots`` or lies below one."""
    flags = roots.copy()
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        flags[live] |= roots[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return flags


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``facts`` carries what the spans cannot: full-loop steps and events
    and inter-event gaps (from the returned traces), averaged-loop steps
    and events, preallocated trace bytes, exported/imported rows, CSV
    size and the RSS growth across ``import_trace``.
    """
    nid = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    n = nid.shape[0]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child_sum

    def of(*names: str) -> np.ndarray:
        return np.isin(nid, [tracer.name_id(name) for name in names])

    # Benchmark checks run inside some spans; take them out of inclusive times.
    checks = of(CHECK_SPAN)
    below = np.zeros(n)
    anc = parent[checks]
    weight = dur[checks]
    while anc.size:
        live = anc >= 0
        anc, weight = anc[live], weight[live]
        np.add.at(below, anc, weight)
        anc = parent[anc]
    incl = dur - below

    # A run_simulation span is the full loop unless it delegated to the averaged loop.
    full_root = of(_STEP_ROOT)
    avg_loop = of(_AVERAGE_LOOP)
    delegated = parent[avg_loop]
    full_root[delegated[delegated >= 0]] = False
    in_full = _ancestor_flags(parent, full_root)
    parent_or_0 = np.where(has_parent, parent, 0)  # only read where has_parent

    def total(mask: np.ndarray, values: np.ndarray = incl) -> float:
        return float(values[mask].sum())

    def per_call_ms(name: str, values: np.ndarray = incl) -> float:
        sel = of(name)
        return float(values[sel].mean()) * 1e3 if sel.any() else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = facts["full_steps"]
    avg_steps = facts["avg_steps"]
    events = facts["full_events"]
    trigger_spans = of("trigger.trigger_value", "trigger.step_trigger", "trigger.control_input",
                       "trigger.TriggerEvent")
    trigger_top = trigger_spans & in_full & ~(has_parent & trigger_spans[parent_or_0])
    verify = of("analysis.verify_scenario")
    verify_avg = avg_loop & has_parent & verify[parent_or_0]
    integrate = of("engine.integrate_step")
    us = 1e6
    return {
        "engine.us_per_step": ratio(total(full_root) * us, steps),
        "engine.self_us_per_step": ratio(
            (total(full_root, self_t) + total(integrate & in_full, self_t)) * us, steps
        ),
        "engine.integrate_step.self_us_per_call": ratio(
            total(integrate, self_t) * us, float(integrate.sum())
        ),
        "vehicle.us_per_step": ratio(
            total(of("vehicle.dither_velocities", "vehicle.estimator_pose", "vehicle.VehicleState")
                  & in_full) * us,
            steps,
        ),
        "vehicle.dither_velocities.calls_per_step": ratio(
            float((of("vehicle.dither_velocities") & in_full).sum()), steps
        ),
        "vehicle.VehicleState.constructs_per_step": ratio(
            float((of("vehicle.VehicleState") & in_full).sum()), steps
        ),
        "field.evaluate.us_per_step": ratio(total(of("field.evaluate") & in_full) * us, steps),
        "estimator.us_per_step": ratio(
            total(of("estimator.demodulation_vector", "estimator.gradient_estimate") & in_full) * us,
            steps,
        ),
        "trigger.us_per_step": ratio(total(trigger_top) * us, steps),
        "trigger.us_per_event": ratio(
            total(of("trigger.control_input", "trigger.TriggerEvent") & in_full) * us, events
        ),
        "trigger.events": float(events),
        "trigger.event_fraction": ratio(events, steps),
        "trigger.dt_gap_fraction": ratio(facts["full_dt_gaps"], facts["full_gaps"]),
        "average.us_per_step": ratio(total(avg_loop) * us, avg_steps),
        "average.events": float(facts["avg_events"]),
        "average.event_fraction": ratio(facts["avg_events"], avg_steps),
        "analysis.solve_lyapunov.ms": per_call_ms("analysis.solve_lyapunov"),
        "analysis.decay_envelope_check.ms": per_call_ms("analysis.decay_envelope_check"),
        "analysis.verify_self_ms": ratio(
            (total(verify) - total(verify_avg)) * 1e3, float(verify.sum())
        ),
        "analysis.averaging_error.ms": per_call_ms("analysis.averaging_error"),
        "config.load_scenario.ms": per_call_ms("config.load_scenario"),
        "config.scale_probing_frequency.ms": per_call_ms("config.scale_probing_frequency"),
        "bessel.bessel_j.calls": float(of("bessel.bessel_j").sum()),
        "trace.preallocate_bytes": float(facts["trace_bytes"]),
        "traceio.export_trace.us_per_row": ratio(
            total(of("traceio.export_trace")) * us, facts["export_rows"]
        ),
        "traceio.import_trace.us_per_row": ratio(
            total(of("traceio.import_trace")) * us, facts["import_rows"]
        ),
        "traceio.bytes_per_row": ratio(facts["csv_bytes"], facts["export_rows"]),
        "traceio.import_rss_growth_mb": facts["import_rss_growth_mb"],
        "cli.self_ms": per_call_ms("cli.main", values=self_t),
    }
