"""Averaged linear closed loop: constant matrices, dynamics, and trigger.

The averaged error dynamics in original time t read

    dGhat_av/dt = (A - B K) Ghat_av - B K e_av + delta_bar,

where A, B and the constant disturbance delta_bar come from averaging the
dithered plant over one probing period (the 1/omega3 factor of the
rescaled-time formulation is absorbed by simulating in t).  The averaged
loop is one flat loop over local floats, like the full plant's, and applies
the same event rule and zero-order hold to the averaged signals.  The
composable functions of :mod:`etseek.trigger` are its tested reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from etseek.bessel import bessel_j
from etseek.field import QuadraticField
from etseek.trace import TRACE_COLUMNS, SimulationTrace
from etseek.trigger import GainMatrix, TriggerConstants
from etseek.vehicle import DitherParams, VehicleState, estimator_pose

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


def initial_error(
    initial: VehicleState, d: DitherParams, field: QuadraticField
) -> tuple[float, float, float]:
    """Averaged error G_av(0): the estimator pose at t = 0 minus the source."""
    hat = estimator_pose(initial, d, 0.0)
    return (hat[0] - field.x_star, hat[1] - field.y_star, hat[2] - field.theta_star)


def run_average_loop(
    model: AverageModel,
    gain: GainMatrix,
    consts: TriggerConstants,
    g0,
    dt: float,
    t_final: float,
    field: QuadraticField,
) -> SimulationTrace:
    """Integrate the averaged loop under the average static trigger.

    Events fire on the full plant's rule: t = 0, then the first grid point
    after the last event where Xi < 0.  Between events the control is held,
    so the flow is dG/dt = A G + c with c = -B K G(t_k) + delta_bar; RK4 on
    the uniform grid keeps the trace aligned with full-plant runs.  The
    pose columns of the returned trace are the source location offset by
    G_av (the averaged estimate equals the averaged error).
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    (k00, k01, k02), (k10, k11, k12) = gain.rows
    bk = model.b @ np.asarray(gain.rows, dtype=float)
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = bk.tolist()
    a13 = float(model.a[0, 2])
    a23 = float(model.a[1, 2])
    d1, d2, d3 = model.delta_bar.tolist()
    sigma, alpha, bias = consts.sigma, consts.alpha, consts.bias
    x_star, y_star, theta_star, q_star = field.x_star, field.y_star, field.theta_star, field.q_star
    n = round(t_final / dt)
    trace = SimulationTrace.preallocate(n + 1, system="average")
    half = 0.5 * dt
    sixth = dt / 6.0
    sqrt = math.sqrt
    col_t, col_x, col_y, col_th, col_xh, col_yh, col_thh, col_q, col_g1, col_g2, col_g3, \
        col_u1, col_u2, col_xi, col_ev = (memoryview(trace.column(name)) for name in TRACE_COLUMNS)
    g1, g2, g3 = (float(v) for v in g0)
    held = False
    h1 = h2 = h3 = 0.0
    u1 = u2 = 0.0
    c1 = c2 = c3 = hc3 = dc3 = step3 = 0.0
    last_event = 0.0
    for i in range(n + 1):
        t = i * dt
        e_norm = sqrt((h1 - g1) ** 2 + (h2 - g2) ** 2 + (h3 - g3) ** 2) if held else 0.0
        xi = sigma * sqrt(g1 * g1 + g2 * g2 + g3 * g3) - alpha * (e_norm + bias)
        if i == n:
            fired = False
        else:
            # The decision squares with ** 2 like trigger_value, the recorded
            # Xi above with g * g.  On glibc 2.36, pow(x, 2) and x * x differ
            # in the last bit for about 0.08% of doubles, so they stay apart.
            fired = not held or (
                sigma * sqrt(g1 ** 2 + g2 ** 2 + g3 ** 2) - alpha * (e_norm + bias) < 0.0
                and t > last_event
            )
        if fired:
            held = True
            h1, h2, h3 = g1, g2, g3
            u1 = -(k00 * g1 + k01 * g2 + k02 * g3)
            u2 = -(k10 * g1 + k11 * g2 + k12 * g3)
            c1 = -(b00 * g1 + b01 * g2 + b02 * g3) + d1
            c2 = -(b10 * g1 + b11 * g2 + b12 * g3) + d2
            c3 = -(b20 * g1 + b21 * g2 + b22 * g3) + d3
            hc3 = half * c3
            dc3 = dt * c3
            step3 = sixth * (c3 + 2.0 * c3 + 2.0 * c3 + c3)
            last_event = t
            col_ev[i] = 1
        col_t[i] = t
        col_x[i] = col_xh[i] = x_star + g1
        col_y[i] = col_yh[i] = y_star + g2
        col_th[i] = col_thh[i] = theta_star + g3
        col_q[i] = q_star - 0.5 * (g1 * g1 + g2 * g2 + g3 * g3)
        col_g1[i] = g1
        col_g2[i] = g2
        col_g3[i] = g3
        col_u1[i] = u1
        col_u2[i] = u2
        col_xi[i] = xi
        if i == n:
            break
        # RK4 on dG/dt = A G + c.  A acts through G3 only and dG3/dt = c3 is
        # constant, so the k2 and k3 stages coincide and G3 moves by a fixed
        # step between events.
        km = a13 * (g3 + hc3) + c1
        g1 += sixth * (a13 * g3 + c1 + 2.0 * km + 2.0 * km + (a13 * (g3 + dc3) + c1))
        km = a23 * (g3 + hc3) + c2
        g2 += sixth * (a23 * g3 + c2 + 2.0 * km + 2.0 * km + (a23 * (g3 + dc3) + c2))
        g3 += step3
    return trace
