"""Fixed-step integration engine and run orchestration.

One classical RK4 step per grid point with the held control treated as
constant over the step, which is exactly what the zero-order hold means.
Event detection is discretized to the same grid: the trigger is evaluated
once per step and an event fires at the first grid point where Xi < 0.
Identical scenarios therefore produce bit-identical traces.

For speed, the full-plant loop is inlined: RK4, the dithered kinematics,
field evaluation, demodulation, the trigger with its zero-order hold and
the estimator pose are written out as one flat loop over local floats.
The composable functions (:func:`integrate_step`,
:func:`~etseek.vehicle.dither_velocities`, :func:`~etseek.field.evaluate`,
:func:`~etseek.estimator.demodulation_vector`,
:func:`~etseek.trigger.step_trigger`, :func:`~etseek.vehicle.estimator_pose`)
are its tested reference: the loop keeps their float expressions in the
same evaluation order, so it reproduces them bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from etseek.analysis import dwell_time_bound
from etseek.average import build_average_matrices, initial_error, run_average_loop
from etseek.config import Scenario
from etseek.trace import TRACE_COLUMNS, RunMetrics, SimulationTrace, inter_event_stats

# The building blocks the inlined loop expands, importable from here as its
# reference.
from etseek.estimator import demodulation_vector, gradient_estimate  # noqa: F401
from etseek.field import evaluate  # noqa: F401
from etseek.trigger import control_input, step_trigger, trigger_value  # noqa: F401
from etseek.vehicle import VehicleState, dither_velocities, estimator_pose  # noqa: F401


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite state; carries the failure time."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state became non-finite at t = {t:.6f} s")


def integrate_step(derivative, state, t: float, dt: float):
    """One classical 4th-order Runge-Kutta step.

    ``derivative(t, state)`` must return an object of the same shape as
    ``state``; scalar states are supported alongside tuples of floats.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if isinstance(state, (int, float)):
        k1 = derivative(t, state)
        k2 = derivative(t + 0.5 * dt, state + 0.5 * dt * k1)
        k3 = derivative(t + 0.5 * dt, state + 0.5 * dt * k2)
        k4 = derivative(t + dt, state + dt * k3)
        return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    k1 = derivative(t, state)
    mid1 = tuple(s + 0.5 * dt * k for s, k in zip(state, k1))
    k2 = derivative(t + 0.5 * dt, mid1)
    mid2 = tuple(s + 0.5 * dt * k for s, k in zip(state, k2))
    k3 = derivative(t + 0.5 * dt, mid2)
    end = tuple(s + dt * k for s, k in zip(state, k3))
    k4 = derivative(t + dt, end)
    return tuple(
        s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
        for s, a, b, c, e in zip(state, k1, k2, k3, k4)
    )


def run_simulation(sc: Scenario) -> tuple[SimulationTrace, RunMetrics]:
    """Run one scenario and return its trace and metrics.

    In ``average`` mode this delegates to the averaged loop; otherwise the
    full nonlinear plant is integrated with the control update policy set
    by the mode (event trigger, every step, or a fixed sampling period).
    """
    _check_grid_resolution(sc)
    run = _run_average if sc.mode == "average" else _run_full
    trace, final_error = run(sc)
    events = trace.events
    min_gap, mean_gap = inter_event_stats(events[:, 0])
    metrics = RunMetrics(
        num_steps=len(trace) - 1,
        num_events=int(events.shape[0]),
        min_inter_event=min_gap,
        mean_inter_event=mean_gap,
        final_error_norm=final_error,
        theory=None,
    )
    return trace, metrics


def _check_grid_resolution(sc: Scenario) -> None:
    """Warn when the grid is too coarse for the dwell-time bound.

    Trigger monitoring is discretized to the grid, so events can overshoot
    their continuous-time instant by one step; that is negligible only
    while dt stays well below the guaranteed inter-event time.
    """
    model = build_average_matrices(sc.field.theta_star, sc.dithers)
    k = np.asarray(sc.gain.rows, dtype=float)
    try:
        tau_star = dwell_time_bound(sc.trigger.sigma, model.a - model.b @ k, model.b @ k)
    except ValueError:
        return
    if sc.dt > tau_star / 10.0:
        warnings.warn(
            f"integration step dt = {sc.dt:g} exceeds tau*/10 = {tau_star / 10.0:g}; "
            "grid-sampled trigger events may overshoot",
            RuntimeWarning,
            stacklevel=3,
        )


def _run_average(sc: Scenario) -> tuple[SimulationTrace, float]:
    model = build_average_matrices(sc.field.theta_star, sc.dithers)
    g0 = initial_error(sc.initial, sc.dithers, sc.field)
    trace = run_average_loop(
        model, sc.gain, sc.trigger, g0, sc.dt, sc.t_final, field=sc.field
    )
    final_error = math.sqrt(
        trace.g1[-1] ** 2 + trace.g2[-1] ** 2 + trace.g3[-1] ** 2
    )
    return trace, final_error


_FULL, _CONTINUOUS, _SAMPLED = range(3)
_POLICY = {"full": _FULL, "continuous-control": _CONTINUOUS, "sampled-data": _SAMPLED}


def _run_full(sc: Scenario) -> tuple[SimulationTrace, float]:
    d = sc.dithers
    field = sc.field
    x_star, y_star, theta_star, q_star = field.x_star, field.y_star, field.theta_star, field.q_star
    (k00, k01, k02), (k10, k11, k12) = sc.gain.rows
    sigma, alpha, bias = sc.trigger.sigma, sc.trigger.alpha, sc.trigger.bias
    policy = _POLICY[sc.mode]
    period = sc.sample_period
    dt = sc.dt
    n = round(sc.t_final / dt)
    trace = SimulationTrace.preallocate(n + 1, system="full")
    # Constant prefixes of the building blocks' expressions, grouped the way
    # left-to-right evaluation already groups them there.
    w1, w2, w3 = d.omega1, d.omega2, d.omega3
    aw1 = d.a1 * d.omega1
    aw2 = d.a2 * d.omega2
    aw3 = 0.5 * d.a3 * d.omega3
    ha1, ha2, ha3 = 0.5 * d.a1, 0.5 * d.a2, 0.5 * d.a3
    # Undithered channels carry no probing information, so their estimate
    # is pinned to zero instead of dividing by a zero amplitude.
    m1 = -(4.0 / d.a1) if d.a1 > 0.0 else 0.0
    m2 = (4.0 / d.a2) if d.a2 > 0.0 else 0.0
    m3 = -(4.0 / d.a3) if d.a3 > 0.0 else 0.0
    half = 0.5 * dt
    sixth = dt / 6.0
    sin, cos, sqrt, isfinite = math.sin, math.cos, math.sqrt, math.isfinite
    col_t, col_x, col_y, col_th, col_xh, col_yh, col_thh, col_q, col_g1, col_g2, col_g3, \
        col_u1, col_u2, col_xi, col_ev = (memoryview(trace.column(name)) for name in TRACE_COLUMNS)
    x, y, th = sc.initial.x, sc.initial.y, sc.initial.theta
    held = False
    h1 = h2 = h3 = 0.0
    u1 = u2 = 0.0
    last_event = next_sample = 0.0
    for i in range(n + 1):
        t = i * dt
        try:
            q = q_star - 0.5 * (x - x_star) ** 2 - 0.5 * (y - y_star) ** 2 - 0.5 * (th - theta_star) ** 2
        except OverflowError:
            # squaring a huge-but-finite coordinate overflows before the
            # state itself turns inf/nan; same diagnosis either way
            raise NonFiniteStateError(t) from None
        if not isfinite(q) or abs(q) > 1e100:
            # a non-finite pose makes q non-finite; beyond any physically
            # meaningful signal level the downstream norms would overflow
            raise NonFiniteStateError(t)
        s1 = sin(w1 * t)
        c2 = cos(w2 * t)
        s3 = sin(w3 * t)
        g1 = m1 * s1 * q
        g2 = m2 * c2 * q
        g3 = m3 * s3 * q
        e_norm = sqrt((h1 - g1) ** 2 + (h2 - g2) ** 2 + (h3 - g3) ** 2) if held else 0.0
        xi = sigma * sqrt(g1 ** 2 + g2 ** 2 + g3 ** 2) - alpha * (e_norm + bias)
        if i == n:
            fired = False
        elif policy == _FULL:
            fired = not held or (xi < 0.0 and t > last_event)
        elif policy == _CONTINUOUS:
            fired = True
        else:
            fired = t >= next_sample - half
            if fired:
                next_sample += period
        if fired:
            held = True
            h1, h2, h3 = g1, g2, g3
            u1 = -(k00 * g1 + k01 * g2 + k02 * g3)
            u2 = -(k10 * g1 + k11 * g2 + k12 * g3)
            last_event = t
            col_ev[i] = 1
        col_t[i] = t
        col_x[i] = x
        col_y[i] = y
        col_th[i] = th
        col_xh[i] = x - ha1 * s1
        col_yh[i] = y + ha2 * c2
        col_thh[i] = th - ha3 * s3
        col_q[i] = q
        col_g1[i] = g1
        col_g2[i] = g2
        col_g3[i] = g3
        col_u1[i] = u1
        col_u2[i] = u2
        col_xi[i] = xi
        if i == n:
            break
        # RK4 under the held control.  The right-hand side reads only the
        # heading, so the mid and end stages need no x/y; the dither terms
        # at t + dt/2 are shared by k2 and k3.
        tm = t + half
        te = t + dt
        p1 = aw1 * cos(w1 * t) + u1
        p2 = aw2 * sin(w2 * t) + u1
        wr1 = aw3 * cos(w3 * t) + u2
        pm1 = aw1 * cos(w1 * tm) + u1
        pm2 = aw2 * sin(w2 * tm) + u1
        wrm = aw3 * cos(w3 * tm) + u2
        pe1 = aw1 * cos(w1 * te) + u1
        pe2 = aw2 * sin(w2 * te) + u1
        wre = aw3 * cos(w3 * te) + u2
        c = cos(th)
        s = sin(th)
        v = c * p1 + s * p2
        k1x = v * c
        k1y = v * s
        thm = th + half * wr1
        c = cos(thm)
        s = sin(thm)
        v = c * pm1 + s * pm2
        k2x = v * c
        k2y = v * s
        thm = th + half * wrm
        c = cos(thm)
        s = sin(thm)
        v = c * pm1 + s * pm2
        k3x = v * c
        k3y = v * s
        the = th + dt * wrm
        c = cos(the)
        s = sin(the)
        v = c * pe1 + s * pe2
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + v * c)
        y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + v * s)
        th = th + sixth * (wr1 + 2.0 * wrm + 2.0 * wrm + wre)
    final_error = math.sqrt(
        (x - field.x_star) ** 2 + (y - field.y_star) ** 2 + (th - field.theta_star) ** 2
    )
    return trace, final_error
