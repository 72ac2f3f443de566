"""Benchmark repetitions in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD CONFIG OUT_DIR SPAWNED BUDGET

MODE is ``setup`` (set up and stop), ``plain`` (run the workload with
one coarse timer per verb-level call) or ``traced`` (run it with every
binding in ``tracing.BINDINGS`` timed).  SPAWNED is the parent's
``time.perf_counter()`` just before it started this process; the clock
is system-wide, so set-up time covers interpreter start, ``import
etseek.cli`` and ``load_scenario`` with its Bessel-derived bias.  After
set-up the workload repeats in this process until BUDGET seconds have
passed, at least once.  The last line of standard output is one JSON
object with the timings, the outputs observed (digests and report
fields) and any failed check of each repetition.

Only ``sys`` and ``time`` are imported before set-up is timed; every
other import happens inside the functions that need it, after set-up.
"""

import sys
import time


def main(argv: list[str]) -> None:
    mode, workload_name, config, out_dir, spawned, budget = argv[1:7]
    import etseek.cli
    import etseek.config

    scenario = etseek.config.load_scenario(config)
    setup_s = time.perf_counter() - float(spawned)
    result = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
        runner = Runner(workload_name, config, out_dir, scenario.dt, tracer)
        reps = []
        began = time.perf_counter()
        while not reps or time.perf_counter() - began < float(budget):
            reps.append(runner.repetition())
        result["reps"] = reps
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.save(runner.out_dir / "spans.npz")
    import json

    print(json.dumps(result))


class Runner:
    """Runs one workload repeatedly and checks what each repetition produced.

    The CLI's calls into the engine, the averaged loop and the trace
    exporter are rebound once to coarse timers that also summarize each
    returned trace (digests and invariants).  Summaries run inside the
    timed region, so their time is measured and taken out of the wall
    time.
    """

    def __init__(self, workload_name, config, out_dir, dt, tracer):
        from pathlib import Path

        import etseek.analysis
        import etseek.cli
        import etseek.engine
        import etseek.traceio
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload_name]
        self.config = config
        self.out_dir = Path(out_dir)
        self.expected_steps = round(self.workload.t_final / dt)
        self.tracer = tracer
        self.clock = time.perf_counter
        self.summarize = self._summarize
        if tracer is not None:
            from tracing import CHECK_SPAN

            tracer.install()
            self.summarize = tracer.wrap(CHECK_SPAN, self._summarize)
        etseek.cli.run_simulation = self._timed_simulation(etseek.cli.run_simulation)
        etseek.cli.export_trace = self._timed_export(etseek.cli.export_trace)
        etseek.engine.run_average_loop = self._timed_average(etseek.engine.run_average_loop)
        etseek.analysis.run_average_loop = self._timed_average(etseek.analysis.run_average_loop)
        self.cli_main = etseek.cli.main
        self.import_trace = etseek.traceio.import_trace
        if tracer is not None:
            self.cli_main = tracer.wrap("cli.main", self.cli_main)
            self.import_trace = tracer.wrap("traceio.import_trace", self.import_trace)

    # -- per-repetition state, reset by repetition() -------------------------

    def _fail(self, where: str, message: str) -> None:
        self.failures.append([where, message])

    def _checked(self, trace) -> None:
        t0 = self.clock()
        self.summarize(trace)
        self.check_s += self.clock() - t0

    def _summarize(self, trace) -> None:
        import numpy as np

        import etseek.analysis
        from etseek.trace import TRACE_COLUMNS
        from workloads import digest

        op = self.workload.ops[0]
        n = len(trace)
        if n != self.expected_steps + 1:
            self._fail(op, f"{trace.system} trace has {n} rows, expected {self.expected_steps + 1}")
        for name in TRACE_COLUMNS:
            if not np.isfinite(trace.column(name)).all():
                self._fail(op, f"{trace.system} trace column {name} is not finite")
        mask = trace.event_indices()
        events = np.ascontiguousarray(trace.events, dtype=float)
        sampled = (trace.t, trace.g1, trace.g2, trace.g3, trace.u1, trace.u2)
        if events.shape != (mask.shape[0], 6) or not all(
            np.array_equal(events[:, j], col[mask]) for j, col in enumerate(sampled)
        ):
            self._fail(op, f"{trace.system} event log differs from the event-mask rows")
        gaps = np.diff(mask)
        summary = {
            "system": trace.system,
            "rows": n,
            "num_events": int(events.shape[0]),
            "dt_gaps": int((gaps == 1).sum()),
            "gaps": int(gaps.size),
            "columns": {name: digest(np.ascontiguousarray(trace.column(name)))
                        for name in TRACE_COLUMNS},
            "events": digest(events),
            "final_pose": [float(trace.x[-1]).hex(), float(trace.y[-1]).hex(),
                           float(trace.theta[-1]).hex()],
        }
        if trace.system == "average" and self.last_full is not None and len(self.last_full) == n:
            summary["deviation"] = etseek.analysis.averaging_error(self.last_full, trace)
        if trace.system == "full":
            self.last_full = trace
        self.traces.append(summary)

    def _timed_simulation(self, fn):
        def timed(sc):
            t0 = self.clock()
            trace, metrics = fn(sc)
            if sc.mode != "average":
                self.phases["sim"].append((metrics.num_steps, self.clock() - t0))
                self._checked(trace)
            return trace, metrics

        return timed

    def _timed_average(self, fn):
        def timed(*args, **kwargs):
            t0 = self.clock()
            trace = fn(*args, **kwargs)
            self.phases["avg"].append((len(trace) - 1, self.clock() - t0))
            self._checked(trace)
            return trace

        return timed

    def _timed_export(self, fn):
        def timed(trace, path):
            t0 = self.clock()
            fn(trace, path)
            self.phases["export"].append((len(trace), self.clock() - t0))

        return timed

    def repetition(self) -> dict:
        """One run of the workload: its timings, observed outputs and failures."""
        import contextlib
        import io
        import json
        import traceback

        import numpy as np

        from etseek.trace import TRACE_COLUMNS
        from workloads import digest

        workload = self.workload
        op = workload.ops[0]
        self.failures: list[list[str]] = []
        self.traces: list[dict] = []
        self.phases = {"sim": [], "avg": [], "export": [], "import": []}
        self.check_s = 0.0
        self.last_full = None
        if self.tracer is not None:
            self.tracer.clear()
        csv_path = self.out_dir / "trace.csv"
        metrics_path = self.out_dir / "metrics.json"
        for stale in (csv_path, metrics_path):
            stale.unlink(missing_ok=True)
        captured = io.StringIO()
        imported = None
        rss_before = 0.0
        clock = self.clock
        t_start = clock()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli_main(workload.argv(self.config, self.out_dir))
        except Exception:
            rc = None
            self._fail(op, traceback.format_exc())
        self.last_full = None
        if rc not in (0, None):
            self._fail(op, f"exit code {rc}: {captured.getvalue()[-2000:]}")
        if rc == 0 and "import" in workload.ops:
            rss_before = _current_rss_mb()
            t0 = clock()
            try:
                imported = self.import_trace(csv_path)
            except Exception:
                self._fail("import", traceback.format_exc())
            self.phases["import"].append((0 if imported is None else len(imported), clock() - t0))
        wall_s = clock() - t_start - self.check_s
        peak_rss_mb = _peak_rss_mb()

        traces = self.traces
        observed: dict = {}
        metrics = None
        if rc == 0:
            try:
                with open(metrics_path, encoding="utf-8") as handle:
                    metrics = json.load(handle)
            except (OSError, ValueError) as exc:
                self._fail(op, f"metrics JSON unreadable: {exc}")
        if metrics is not None:
            observed = self._check_metrics(metrics)
        if imported is not None and traces:
            original = traces[0]["columns"]
            if imported.system != "full" or len(imported) != traces[0]["rows"] or any(
                digest(np.ascontiguousarray(imported.column(name))) != original[name]
                for name in TRACE_COLUMNS
            ):
                self._fail("import", "CSV round trip is not bit-exact")

        def rate(pairs):
            secs = sum(p[1] for p in pairs)
            return sum(p[0] for p in pairs) / secs if secs > 0 else 0.0

        result = {
            "wall_s": wall_s,
            "phases": {
                "sim_steps_per_s": rate(self.phases["sim"]),
                "avg_steps_per_s": rate(self.phases["avg"]),
                "export_rows_per_s": rate(self.phases["export"]),
                "import_rows_per_s": rate(self.phases["import"]),
            },
            "observed": observed,
            "failures": self.failures,
        }
        if self.tracer is not None:
            from tracing import layer_metrics

            full = [t for t in traces if t["system"] == "full"]
            avg = [t for t in traces if t["system"] == "average"]
            phases = self.phases
            facts = {
                "full_steps": sum(p[0] for p in phases["sim"]),
                "full_events": sum(t["num_events"] for t in full),
                "full_dt_gaps": sum(t["dt_gaps"] for t in full),
                "full_gaps": sum(t["gaps"] for t in full),
                "avg_steps": sum(p[0] for p in phases["avg"]),
                "avg_events": sum(t["num_events"] for t in avg),
                "trace_bytes": sum(t["rows"] for t in traces) * len(TRACE_COLUMNS) * 8,
                "export_rows": sum(p[0] for p in phases["export"]),
                "import_rows": sum(p[0] for p in phases["import"]),
                "csv_bytes": csv_path.stat().st_size if phases["export"] else 0,
                "import_rss_growth_mb": peak_rss_mb - rss_before if phases["import"] else 0.0,
            }
            result["layers"] = layer_metrics(self.tracer, facts)
        return result

    def _check_metrics(self, metrics: dict) -> dict:
        """Invariants on the verb's metrics JSON; returns the observed outputs."""
        op = self.workload.ops[0]
        traces = self.traces
        name = self.workload.name
        if name == "siv_simulate_io":
            if metrics.get("num_steps") != self.expected_steps:
                self._fail(op, f"num_steps {metrics.get('num_steps')} != {self.expected_steps}")
            if not traces or metrics.get("num_events") != traces[0]["num_events"]:
                self._fail(op, "metrics num_events differs from the event log")
            return {"metrics": metrics, "traces": traces}
        if name == "smallgain_compare":
            reported = list(metrics["averaging_sup_error"].values())
            recomputed = [t["deviation"] for t in traces if "deviation" in t]
            if recomputed != reported or not all(_positive_finite(v) for v in reported):
                self._fail(op, f"deviations {reported} differ from the traces' {recomputed}")
            if len(reported) != 2 or list(metrics["ratios"].values()) != [reported[1] / reported[0]]:
                self._fail(op, "deviation ratio differs from the deviations")
            return {"deviations": metrics["averaging_sup_error"], "ratios": metrics["ratios"],
                    "traces": traces}
        gap = metrics.get("min_inter_event")
        if gap is not None and not _positive_finite(gap):
            self._fail(op, f"min_inter_event {gap!r} is not a positive number")
        if not isinstance(metrics.get("envelope_violations"), int):
            self._fail(op, "envelope_violations missing")
        return {"report": metrics, "traces": traces}


def _positive_finite(value) -> bool:
    return isinstance(value, float) and 0.0 < value < float("inf")


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_rss_mb() -> float:
    import os

    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


if __name__ == "__main__":
    main(sys.argv)
