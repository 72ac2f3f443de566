"""Command-line interface.

Verbs: ``simulate`` (full plant), ``average`` (averaged loop),
``compare`` (averaging-error scaling across probing frequencies),
``verify`` (theory report), ``bessel`` (debug utility).  Exit codes:
0 success, 1 validation error or a file that cannot be read or written,
2 numerical failure (non-finite state).
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import replace

from etseek.analysis import averaging_error, verify_scenario
from etseek.config import load_scenario, scale_probing_frequency
from etseek.engine import _full_loop_ahead, run_simulation
from etseek.trace import NonFiniteStateError, ScenarioError
from etseek.traceio import export_metrics, export_trace
from etseek.vehicle import bessel_j


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for numerical
    # failures and report usage problems as validation errors instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError("cli", message)


# Built on the first call and reused: the verb functions look up the
# run entry points as module globals when they run, so rebinding those
# still takes effect.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="etseek", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, cmd, about, metrics, mode=None):
        p = sub.add_parser(name, help=about)
        p.set_defaults(cmd=cmd, mode=mode)
        p.add_argument("--config", required=True, help="scenario file path or packaged name")
        p.add_argument("--metrics", help=f"write the {metrics} JSON here")
        p.add_argument("--dt", type=float, help="override the integration step")
        p.add_argument("--t-final", type=float, help="override the horizon")
        return p

    sim = add_verb("simulate", _cmd_run, "run the configured scenario", "metrics")
    sim.add_argument("--mode", help="override the run mode")
    avg = add_verb("average", _cmd_run, "run the averaged loop", "metrics", mode="average")
    for p in (sim, avg):
        p.add_argument("--out", help="write the trace CSV here")
    add_verb(
        "compare", _cmd_compare, "averaging error across probing frequencies", "comparison"
    ).add_argument("--omega-list", required=True, help="comma-separated omega3 values, e.g. 20,40")
    add_verb("verify", _cmd_verify, "machine-check the theory on a scenario", "theory report")

    bes_p = sub.add_parser("bessel", help="print J_m(x) in full precision")
    bes_p.set_defaults(cmd=_cmd_bessel)
    bes_p.add_argument("--order", type=int, required=True)
    bes_p.add_argument("--arg", type=float, required=True)
    return parser


def _load_with_overrides(args):
    for flag in ("out", "metrics"):
        path = getattr(args, flag, None)
        if path is not None and not path.strip():
            raise ScenarioError(f"cli.{flag}", "empty file path")
    sc = load_scenario(args.config)
    updates = {}
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.t_final is not None:
        updates["t_final"] = args.t_final
    if args.mode is not None:
        updates["mode"] = args.mode.strip()
    return replace(sc, **updates) if updates else sc


def _cmd_run(args) -> int:
    sc = _load_with_overrides(args)
    trace, metrics = run_simulation(sc)
    summary = metrics.as_dict()
    print(
        f"{sc.mode}: steps={summary['num_steps']} events={summary['num_events']} "
        f"final_error_norm={summary['final_error_norm']:.6g}"
    )
    if args.out:
        export_trace(trace, args.out)
    if args.metrics:
        export_metrics(summary, args.metrics)
    return 0


def _cmd_compare(args) -> int:
    sc = _load_with_overrides(args)
    tokens = args.omega_list.split(",")
    empty = [i for i, tok in enumerate(tokens, 1) if not tok.strip()]
    if empty:
        raise ScenarioError(
            "cli.omega-list", f"entry {empty[0]} of {args.omega_list!r} is empty"
        )
    try:
        omegas = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ScenarioError("cli.omega-list", f"not numeric: {args.omega_list!r}") from exc
    if len(omegas) < 2:
        raise ScenarioError("cli.omega-list", "need at least two omega3 values")
    # Each lane's --metrics entry is keyed f"{omega:g}", so no two lanes may share one.
    first: dict[str, int] = {}
    for j, omega in enumerate(omegas, 1):
        i = first.setdefault(f"{omega:g}", j)
        if i != j:
            raise ScenarioError(
                "cli.omega-list",
                f"--omega-list entries {i} ({tokens[i - 1].strip()}) and {j} "
                f"({tokens[j - 1].strip()}) share the lane key {omega:g}",
            )
    base = sc.dithers.omega3
    lanes = []
    for omega in omegas:
        try:
            lanes.append((omega, scale_probing_frequency(sc, omega / base)))
        except ValueError as exc:
            raise ScenarioError(
                "cli.omega-list", f"--omega-list value {omega} cannot scale the scenario: {exc}"
            ) from exc
    runs = [[replace(scaled, mode=mode) for mode in ("full", "average")] for _, scaled in lanes]
    deviations: dict[str, float] = {}
    for j, (omega, _) in enumerate(lanes):
        # While this lane runs, a child may run the next lane's full loop.
        with _full_loop_ahead(runs[j + 1][0] if j + 1 < len(runs) else None):
            # Both runs from one call site: the grid warning prints once per site.
            dev = averaging_error(*(run_simulation(run)[0] for run in runs[j]))
            deviations[f"{omega:g}"] = dev
            print(f"omega3={omega:g}: sup deviation = {dev:.6g}")
    ratios = {}
    for lo, hi in zip(omegas[:-1], omegas[1:]):
        ratios[f"{hi:g}/{lo:g}"] = deviations[f"{hi:g}"] / deviations[f"{lo:g}"]
    for name, value in ratios.items():
        print(f"deviation ratio {name} = {value:.4f}")
    if args.metrics:
        export_metrics({"averaging_sup_error": deviations, "ratios": ratios}, args.metrics)
    return 0


def _cmd_verify(args) -> int:
    sc = _load_with_overrides(args)
    report, _ = verify_scenario(sc)
    payload = report.as_dict()
    for key, value in payload.items():
        print(f"{key} = {value}")
    if args.metrics:
        export_metrics(payload, args.metrics)
    return 0


def _cmd_bessel(args) -> int:
    print(format(bessel_j(args.order, args.arg), ".17g"))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        with warnings.catch_warnings():  # also resets the once-per-location registry
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # only -h/--help: _Parser.error raises instead
                return exc.code
            return args.cmd(args)
    except NonFiniteStateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError, MemoryError, Warning) as exc:
        # A Warning arrives here only when a -W error filter raises it.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
