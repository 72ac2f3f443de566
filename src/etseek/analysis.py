"""Machine checks of the theoretical guarantees.

Covers the Lyapunov certificate behind the stabilizing-gain assumption,
the lower bound on the trigger constant alpha, the inter-event decay
envelope of the averaged loop, the dwell-time bound that excludes Zeno
behavior, and the order-of-averaging error between full and averaged
trajectories.  Everything here operates on small dense matrices and
immutable traces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from etseek.average import AverageModel, build_average_matrices, initial_error, run_average_loop
from etseek.config import Scenario
from etseek.trace import SimulationTrace, inter_event_stats
from etseek.trigger import TriggerConstants, trigger_floor

_HURWITZ_MARGIN = -1e-9
_RESIDUAL_REL_TOL = 1e-8


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution P of Acl'P + P Acl = -Q together with its residual."""

    p: np.ndarray
    q: np.ndarray
    residual: float


@dataclass(kw_only=True)
class TheoryReport:
    """Verification summary for one scenario.

    The residual scale of the convergence bound is reported in both the
    theorem form 1.5*a3 and the appendix form 0.5*sqrt(a1^2+a2^2+a3^2);
    the acceptance checks use the appendix form.  The checks that need a
    Lyapunov certificate stay None when the averaged gain is not Hurwitz.
    """

    hurwitz: bool
    alpha_min: float | None = None
    alpha_ok: bool | None = None
    tau_star: float | None = None
    min_inter_event: float | None = None
    decay_rate: float | None = None
    envelope_violations: int | None = None
    averaging_sup_error: dict[str, float] | None = None
    residual_scale_theorem: float
    residual_scale_appendix: float

    def as_dict(self) -> dict:
        return asdict(self)


def hurwitz_check(acl: np.ndarray) -> bool:
    """True iff every eigenvalue real part is below -1e-9."""
    return bool(np.all(np.linalg.eigvals(np.asarray(acl, dtype=float)).real < _HURWITZ_MARGIN))


def solve_lyapunov(acl: np.ndarray, q: np.ndarray) -> LyapunovCertificate:
    """Solve Acl'P + P Acl = -Q through the vectorized linear system.

    The 9x9 Kronecker system is solved densely, the result symmetrized,
    and the certificate validated: P must be symmetric positive definite
    and the residual must stay below 1e-8 * ||Q||.
    """
    acl = np.asarray(acl, dtype=float)
    q = np.asarray(q, dtype=float)
    n = acl.shape[0]
    if acl.shape != (n, n) or q.shape != (n, n):
        raise ValueError("solve_lyapunov expects square matrices of equal size")
    if not hurwitz_check(acl):
        raise ValueError("solve_lyapunov requires a Hurwitz matrix")
    lhs = np.kron(np.eye(n), acl.T) + np.kron(acl.T, np.eye(n))
    try:
        vec_p = np.linalg.solve(lhs, -q.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular Lyapunov system") from exc
    p = vec_p.reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    residual = float(np.abs(acl.T @ p + p @ acl + q).max())
    q_norm = float(np.linalg.norm(q, 2))
    if residual > _RESIDUAL_REL_TOL * q_norm:
        raise ValueError(
            f"Lyapunov residual {residual:.3e} exceeds {_RESIDUAL_REL_TOL:g}*||Q||"
        )
    if np.any(np.linalg.eigvalsh(p) <= 0.0):
        raise ValueError("Lyapunov solution is not positive definite")
    return LyapunovCertificate(p=p, q=q, residual=residual)


def alpha_lower_bound(p: np.ndarray, acl: np.ndarray, q: np.ndarray) -> float:
    """2*||P Acl||_2 / lambda_min(Q); configured alpha should exceed this."""
    p = np.asarray(p, dtype=float)
    acl = np.asarray(acl, dtype=float)
    lam_min = float(np.linalg.eigvalsh(np.asarray(q, dtype=float))[0])
    return 2.0 * float(np.linalg.norm(p @ acl, 2)) / lam_min


def dwell_time_bound(sigma: float, acl: np.ndarray, bk: np.ndarray) -> float:
    """Minimum inter-event time of the averaged loop.

    With n = sigma/2, m = 1/(2*sigma) and the O(1/omega) correction terms
    set to zero:

        tau* = (m/n) / ((||A-BK|| + ||BK||) * (1 + sqrt(m/n)))

    in spectral norms.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    norm_sum = float(np.linalg.norm(np.asarray(acl, float), 2)) + float(
        np.linalg.norm(np.asarray(bk, float), 2)
    )
    if not (math.isfinite(norm_sum) and norm_sum > 0.0):
        raise ValueError("matrix norms must be finite and positive")
    m_over_n = 1.0 / (sigma * sigma)
    return (1.0 / norm_sum) * m_over_n / (1.0 + math.sqrt(m_over_n))


def check_grid_resolution(sc: Scenario, model: AverageModel) -> float | None:
    """Warn when dt exceeds tau*/10; return the dwell-time bound tau* (None if undefined).

    Trigger monitoring is discretized to the grid, so events can overshoot
    their continuous-time instant by one step; that is negligible only
    while dt stays well below the guaranteed inter-event time.
    """
    k = np.asarray(sc.gain.rows, dtype=float)
    try:
        tau_star = dwell_time_bound(sc.trigger.sigma, model.a - model.b @ k, model.b @ k)
    except ValueError:
        return None
    if sc.dt > tau_star / 10.0:
        warnings.warn(
            f"integration step dt = {sc.dt:g} exceeds tau*/10 = {tau_star / 10.0:g}; "
            "grid-sampled trigger events may overshoot",
            RuntimeWarning,
            stacklevel=3,
        )
    return tau_star


def decay_envelope_check(
    trace: SimulationTrace,
    p: np.ndarray,
    rate: float,
    tolerance: float,
    floor: float = 0.0,
) -> int:
    """Count event pairs violating the inter-event Lyapunov contraction.

    For consecutive events at t_k < t_k+1 the averaged analysis gives
    V(t_k+1) <= exp(-rate*(t_k+1 - t_k)) * V(t_k); a pair counts as a
    violation when it exceeds that envelope by more than the relative
    tolerance.  Pairs are only checked while the estimate norm stays
    above ``floor`` on the whole closed window [t_k, t_k+1], both event
    rows included (inside the trigger floor ball the constant bias
    dominates and no decay is claimed).

    The cost grows with the events, not with the trace: norms are taken
    on the rows from the first event to the last, V and the envelope
    factor only for the pairs that pass the floor.  The factor comes from
    ``math.exp``, called once per checked pair: numpy's vectorized
    ``exp`` may differ from it in the last bit, which could flip a tie.
    """
    idx = trace.event_indices()
    if idx.shape[0] < 2:
        return 0
    span = slice(idx[0], idx[-1] + 1)
    g1, g2, g3 = trace.g1[span], trace.g2[span], trace.g3[span]
    norms = np.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
    window_min = np.minimum(
        np.minimum.reduceat(norms, idx[:-1] - idx[0]), norms[idx[1:] - idx[0]]
    )
    # Negated so that a NaN minimum keeps its pair checked.
    pairs = np.flatnonzero(~(window_min <= floor))
    start, end = idx[pairs], idx[pairs + 1]
    decay = np.fromiter(
        map(math.exp, (-rate * (trace.t[end] - trace.t[start])).tolist()),
        dtype=float,
        count=pairs.shape[0],
    )
    v_end = _quadratic_form(trace, end, p)
    bound = decay * _quadratic_form(trace, start, p) * (1.0 + tolerance)
    return int(np.count_nonzero(v_end > bound))


def _quadratic_form(trace: SimulationTrace, rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """V = g'Pg on the given trace rows, as one (rows, 3) einsum."""
    g = np.column_stack((trace.g1[rows], trace.g2[rows], trace.g3[rows]))
    return np.einsum("ij,jk,ik->i", g, np.asarray(p, dtype=float), g)


def averaging_error(trace_full: SimulationTrace, trace_avg: SimulationTrace) -> float:
    """Sup over the shared grid of the error-coordinate deviation.

    Both traces must live on the same time grid; the comparison uses the
    dither-stripped pose columns, so no knowledge of the source location
    is needed.
    """
    if len(trace_full) != len(trace_avg) or not np.allclose(
        trace_full.t, trace_avg.t, rtol=0.0, atol=1e-12
    ):
        raise ValueError("traces do not share a time grid")
    dx = trace_full.xhat - trace_avg.xhat
    dy = trace_full.yhat - trace_avg.yhat
    dth = trace_full.thetahat - trace_avg.thetahat
    return float(np.sqrt(dx * dx + dy * dy + dth * dth).max())


def verify_scenario(sc: Scenario) -> tuple[TheoryReport, SimulationTrace | None]:
    """Build the full theory report for a scenario.

    Runs the averaged loop from the scenario's initial estimation error
    and checks the decay envelope above the trigger floor.  Returns the
    report together with the averaged trace (None when the averaged gain
    is not Hurwitz, in which case no certificate exists).
    """
    d = sc.dithers
    model = build_average_matrices(sc.field.theta_star, d)
    k = np.asarray(sc.gain.rows, dtype=float)
    acl = model.a - model.b @ k
    report = TheoryReport(
        hurwitz=hurwitz_check(acl),
        tau_star=check_grid_resolution(sc, model),
        residual_scale_theorem=1.5 * d.a3,
        residual_scale_appendix=0.5 * math.sqrt(d.a1**2 + d.a2**2 + d.a3**2),
    )
    if not report.hurwitz:
        return report, None
    cert = solve_lyapunov(acl, np.eye(3))
    report.alpha_min = alpha_lower_bound(cert.p, acl, cert.q)
    report.alpha_ok = sc.trigger.alpha > report.alpha_min
    lam_q_min = float(np.linalg.eigvalsh(cert.q)[0])
    lam_p_max = float(np.linalg.eigvalsh(cert.p)[-1])
    report.decay_rate = lam_q_min * (1.0 - sc.trigger.sigma) / lam_p_max
    g0 = initial_error(sc.initial, d, sc.field)
    avg_trace = run_average_loop(
        model, sc.gain, sc.trigger, g0, sc.dt, sc.t_final, field=sc.field
    )
    report.envelope_violations = decay_envelope_check(
        avg_trace, cert.p, report.decay_rate, 0.05, floor=trigger_floor(sc.trigger)
    )
    report.min_inter_event, _ = inter_event_stats(avg_trace)
    return report, avg_trace
