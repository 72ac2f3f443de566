"""Command-line interface.

Verbs: ``simulate`` (full plant), ``average`` (averaged loop),
``compare`` (averaging-error scaling across probing frequencies),
``verify`` (theory report), ``bessel`` (debug utility).  Exit codes:
0 success, 1 validation error, 2 numerical failure (non-finite state).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from etseek.analysis import averaging_error, verify_scenario
from etseek.bessel import bessel_j
from etseek.config import ScenarioError, load_scenario, parse_mode, scale_probing_frequency
from etseek.engine import NonFiniteStateError, run_simulation
from etseek.traceio import export_metrics, export_trace


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for numerical
    # failures and report usage problems as validation errors instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ScenarioError("cli", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="etseek", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_run_flags(p, with_mode=True):
        p.add_argument("--config", required=True, help="scenario file path or packaged name")
        p.add_argument("--out", help="write the trace CSV here")
        p.add_argument("--metrics", help="write the metrics JSON here")
        p.add_argument("--dt", type=float, help="override the integration step")
        p.add_argument("--t-final", type=float, help="override the horizon")
        if with_mode:
            p.add_argument("--mode", help="override the run mode")

    add_run_flags(sub.add_parser("simulate", help="run the configured scenario"))
    add_run_flags(sub.add_parser("average", help="run the averaged loop"), with_mode=False)

    cmp_p = sub.add_parser("compare", help="averaging error across probing frequencies")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--omega-list", required=True,
                       help="comma-separated omega3 values, e.g. 20,40")
    cmp_p.add_argument("--metrics", help="write the comparison JSON here")
    cmp_p.add_argument("--dt", type=float)
    cmp_p.add_argument("--t-final", type=float)

    ver_p = sub.add_parser("verify", help="machine-check the theory on a scenario")
    ver_p.add_argument("--config", required=True)
    ver_p.add_argument("--metrics", help="write the theory report JSON here")
    ver_p.add_argument("--dt", type=float)
    ver_p.add_argument("--t-final", type=float)

    bes_p = sub.add_parser("bessel", help="print J_m(x) in full precision")
    bes_p.add_argument("--order", type=int, required=True)
    bes_p.add_argument("--arg", type=float, required=True)
    return parser


def _load_with_overrides(args, force_mode: str | None = None):
    sc = load_scenario(args.config)
    updates = {}
    if getattr(args, "dt", None) is not None:
        updates["dt"] = args.dt
    if getattr(args, "t_final", None) is not None:
        updates["t_final"] = args.t_final
    mode_text = force_mode if force_mode else getattr(args, "mode", None)
    if mode_text:
        mode, period = parse_mode(mode_text)
        updates["mode"] = mode
        updates["sample_period"] = period
    if updates:
        sc = replace(sc, **updates)
    return sc


def _cmd_run(args, force_mode: str | None = None) -> int:
    sc = _load_with_overrides(args, force_mode)
    trace, metrics = run_simulation(sc)
    summary = metrics.as_dict()
    print(
        f"{sc.mode}: steps={summary['num_steps']} events={summary['num_events']} "
        f"final_error_norm={summary['final_error_norm']:.6g}"
    )
    if args.out:
        export_trace(trace, args.out)
    if args.metrics:
        export_metrics(metrics, args.metrics)
    return 0


def _cmd_compare(args) -> int:
    sc = _load_with_overrides(args)
    try:
        omegas = [float(tok) for tok in args.omega_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError("cli.omega-list", f"not numeric: {args.omega_list!r}") from exc
    if len(omegas) < 2:
        raise ScenarioError("cli.omega-list", "need at least two omega3 values")
    base = sc.dithers.omega3
    deviations: dict[str, float] = {}
    for omega in omegas:
        scaled = scale_probing_frequency(sc, omega / base)
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
    report, _ = verify_scenario(sc, dt=args.dt, t_final=args.t_final)
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
        args = parser.parse_args(argv)
        if args.verb == "simulate":
            return _cmd_run(args)
        if args.verb == "average":
            return _cmd_run(args, force_mode="average")
        if args.verb == "compare":
            return _cmd_compare(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "bessel":
            return _cmd_bessel(args)
        raise ScenarioError("cli", f"unknown verb {args.verb!r}")
    except NonFiniteStateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, FileNotFoundError, ValueError, OverflowError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
