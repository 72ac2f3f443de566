"""Averaged linear closed loop: constant matrices, dynamics, and trigger.

The averaged error dynamics in original time t read

    dGhat_av/dt = (A - B K) Ghat_av - B K e_av + delta_bar,

where A, B and the constant disturbance delta_bar come from averaging the
dithered plant over one probing period (the 1/omega3 factor of the
rescaled-time formulation is absorbed by simulating in t).  The averaged
loop reuses the same trigger and zero-order-hold machinery as the full
plant, applied to the averaged signals.
"""

from __future__ import annotations

import math

import numpy as np

from etseek.bessel import bessel_j
from etseek.field import QuadraticField
from etseek.trace import SimulationTrace
from etseek.trigger import GainMatrix, TriggerConstants, TriggerState, step_trigger
from etseek.vehicle import DitherParams

from dataclasses import dataclass

_SQRT2_2 = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class AverageModel:
    """Constant matrices of the averaged error dynamics.

    a is 3x3 with nonzero entries only in rows 1-2 of column 3; b has
    first column (b11, b21, 0) and second column (0, 0, 1); delta_bar is
    (d, -d, 0).  period is the probing period 2*pi/omega3.
    """

    a: np.ndarray
    b: np.ndarray
    delta_bar: np.ndarray
    period: float


def build_average_matrices(theta_star: float, d: DitherParams) -> AverageModel:
    """Assemble A, B, delta_bar from the source heading and dither choice."""
    j0 = bessel_j(0, d.a3)
    j2 = bessel_j(2, d.a3)
    plus = math.cos(2.0 * theta_star + math.pi / 4.0)
    minus = math.cos(2.0 * theta_star - math.pi / 4.0)
    scale = _SQRT2_2 * d.a1 * d.omega3 * j2
    a = np.zeros((3, 3))
    a[0, 2] = scale * plus
    a[1, 2] = scale * minus
    b = np.zeros((3, 2))
    b[0, 0] = 0.5 + _SQRT2_2 * minus * j0
    b[1, 0] = 0.5 - _SQRT2_2 * plus * j0
    b[2, 1] = 1.0
    delta_bar = np.array([scale * minus, -scale * minus, 0.0])
    return AverageModel(a=a, b=b, delta_bar=delta_bar, period=d.period)


def delta_bar_norm_bound(model: AverageModel, d: DitherParams) -> tuple[float, float]:
    """(||delta_bar||, a1*omega3*|J_2(a3)|); the bound always dominates."""
    norm = float(np.linalg.norm(model.delta_bar))
    bound = d.a1 * d.omega3 * abs(bessel_j(2, d.a3))
    return norm, bound


def average_derivative(
    g_av: np.ndarray, e_av: np.ndarray, model: AverageModel, gain: GainMatrix
) -> np.ndarray:
    """Right-hand side (A - BK) g_av - BK e_av + delta_bar in original time."""
    k = np.asarray(gain.rows, dtype=float)
    bk = model.b @ k
    return (model.a - bk) @ np.asarray(g_av) - bk @ np.asarray(e_av) + model.delta_bar


def run_average_loop(
    model: AverageModel,
    gain: GainMatrix,
    consts: TriggerConstants,
    g0,
    dt: float,
    t_final: float,
    field: QuadraticField | None = None,
    continuous: bool = False,
) -> SimulationTrace:
    """Integrate the averaged loop under the average static trigger.

    Between events the control is held, so the flow is dG/dt = A G + c
    with c = -B K G(t_k) + delta_bar; RK4 on the uniform grid keeps the
    trace aligned with full-plant runs.  ``continuous`` recomputes the
    control every step instead (test hook for the trigger-free loop).
    The pose columns of the returned trace are the source location offset
    by G_av (the averaged estimate equals the averaged error); with no
    field they are referenced to the origin.
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    k = np.asarray(gain.rows, dtype=float)
    bk = model.b @ k
    a13 = float(model.a[0, 2])
    a23 = float(model.a[1, 2])
    d1, d2, d3 = (float(v) for v in model.delta_bar)
    n = round(t_final / dt)
    trace = SimulationTrace.preallocate(n + 1, system="average")
    state = TriggerState()
    if field is None:
        x_star = y_star = theta_star = 0.0
        q_star = 0.0
    else:
        x_star, y_star, theta_star = field.x_star, field.y_star, field.theta_star
        q_star = field.q_star
    g1, g2, g3 = (float(v) for v in g0)
    c1 = c2 = c3 = 0.0
    for i in range(n + 1):
        t = i * dt
        g = (g1, g2, g3)
        if state.held_gradient is None:
            e = (0.0, 0.0, 0.0)
        else:
            h = state.held_gradient
            e = (h[0] - g1, h[1] - g2, h[2] - g3)
        e_norm = math.sqrt(e[0] ** 2 + e[1] ** 2 + e[2] ** 2)
        g_norm = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        xi = consts.sigma * g_norm - consts.alpha * (e_norm + consts.bias)
        fired = False
        if i < n:
            if continuous:
                state.held_gradient = g
                state.held_control = (
                    -(k[0, 0] * g1 + k[0, 1] * g2 + k[0, 2] * g3),
                    -(k[1, 0] * g1 + k[1, 1] * g2 + k[1, 2] * g3),
                )
                state.last_event_time = t
                fired = True
            else:
                fired = step_trigger(state, t, g, consts, gain)
            if fired:
                held = state.held_gradient
                c1 = -(bk[0, 0] * held[0] + bk[0, 1] * held[1] + bk[0, 2] * held[2]) + d1
                c2 = -(bk[1, 0] * held[0] + bk[1, 1] * held[1] + bk[1, 2] * held[2]) + d2
                c3 = -(bk[2, 0] * held[0] + bk[2, 1] * held[1] + bk[2, 2] * held[2]) + d3
        u1, u2 = state.held_control
        trace.t[i] = t
        trace.x[i] = x_star + g1
        trace.y[i] = y_star + g2
        trace.theta[i] = theta_star + g3
        trace.xhat[i] = x_star + g1
        trace.yhat[i] = y_star + g2
        trace.thetahat[i] = theta_star + g3
        trace.q[i] = q_star - 0.5 * (g1 * g1 + g2 * g2 + g3 * g3)
        trace.g1[i] = g1
        trace.g2[i] = g2
        trace.g3[i] = g3
        trace.u1[i] = u1
        trace.u2[i] = u2
        trace.xi[i] = xi
        trace.event[i] = 1 if fired else 0
        if i == n:
            break
        # RK4 on dG/dt = A G + c; A acts through column 3 only.
        k1 = (a13 * g3 + c1, a23 * g3 + c2, c3)
        y3 = g3 + 0.5 * dt * k1[2]
        k2 = (a13 * y3 + c1, a23 * y3 + c2, c3)
        y3 = g3 + 0.5 * dt * k2[2]
        k3 = (a13 * y3 + c1, a23 * y3 + c2, c3)
        y3 = g3 + dt * k3[2]
        k4 = (a13 * y3 + c1, a23 * y3 + c2, c3)
        g1 += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        g2 += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        g3 += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    if continuous:
        trace.events = trace.events_from_mask()
    else:
        trace.events = np.array(
            [[e.time, *e.gradient, *e.control] for e in state.events]
        ).reshape(-1, 6)
    return trace

