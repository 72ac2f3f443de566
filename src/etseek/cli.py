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
from etseek.bessel import bessel_j
from etseek.config import load_scenario, parse_mode, scale_probing_frequency
from etseek.engine import run_simulation
from etseek.trace import NonFiniteStateError, ScenarioError
from etseek.traceio import export_metrics, export_trace


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
    sc = load_scenario(args.config)
    updates = {}
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.t_final is not None:
        updates["t_final"] = args.t_final
    if args.mode:
        updates["mode"], updates["sample_period"] = parse_mode(args.mode)
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
    base = sc.dithers.omega3
    lanes = []
    for omega in omegas:
        try:
            lanes.append((omega, scale_probing_frequency(sc, omega / base)))
        except ValueError as exc:
            raise ScenarioError(
                "cli.omega-list", f"--omega-list value {omega} cannot scale the scenario: {exc}"
            ) from exc
    deviations: dict[str, float] = {}
    for omega, scaled in lanes:
        full_trace, _ = run_simulation(replace(scaled, mode="full", sample_period=None))
        avg_trace, _ = run_simulation(replace(scaled, mode="average", sample_period=None))
        dev = averaging_error(full_trace, avg_trace)
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
            args = parser.parse_args(argv)
            return args.cmd(args)
    except NonFiniteStateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, OSError, ValueError, OverflowError, MemoryError, Warning) as exc:
        # A Warning arrives here only when a -W error filter raises it.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
