"""Averaged linear closed loop: constant matrices, dynamics, and trigger.

The averaged error dynamics in original time t read

    dGhat_av/dt = (A - B K) Ghat_av - B K e_av + delta_bar,

where A, B and the constant disturbance delta_bar come from averaging the
dithered plant over one probing period (the 1/omega3 factor of the
rescaled-time formulation is absorbed by simulating in t).  The averaged
loop is one flat loop over local floats, like the full plant's, and applies
the same event rule and zero-order hold to the averaged signals: it fires
on the Xi it records, at t = 0 and then wherever Xi < 0.

Between events the latched G and c are constant, and ``paper_siv``
holds from its second event (at 0.095 s) to the horizon.  Long holds go
to the hold-block runner of :mod:`etseek.hold`, which both loops share;
this module supplies the fold, in which G3 moves by a fixed step and G1
and G2 are left folds of the scalar loop's RK4 increments.  The fold
returns the rows' states and trace columns; the runner hands back at the
first row whose recorded Xi fires.  The closed-form G(t) of a hold would
not be bit-identical to stepping.

The loop and the fold store per row only q, G and Xi.  ``t`` is filled
before the run, and u and the pose, the source offset by G_av, after it.
The averaged estimate equals that pose, so its ``xhat``, ``yhat`` and
``thetahat`` are its ``x``, ``y`` and ``theta`` arrays (see
:meth:`~etseek.trace.SimulationTrace.preallocate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from etseek import hold
from etseek.bessel import bessel_j
from etseek.field import QuadraticField
from etseek.trace import Q_LIMIT, NonFiniteStateError, SimulationTrace
from etseek.trigger import GainMatrix, TriggerConstants
from etseek.vehicle import DitherParams, VehicleState, estimator_pose

_SQRT2_2 = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class AverageModel:
    """Constant matrices of the averaged error dynamics.

    a is 3x3 with nonzero entries only in rows 1-2 of column 3; b has
    first column (b11, b21, 0) and second column (0, 0, 1); delta_bar is
    (d, -d, 0).
    """

    a: np.ndarray
    b: np.ndarray
    delta_bar: np.ndarray


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
    return AverageModel(a=a, b=b, delta_bar=delta_bar)


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

    Events fire on the full plant's rule: t = 0, then every grid point
    where the recorded Xi is negative.  Between events the control is
    held, so the flow is dG/dt = A G + c with c = -B K G(t_k) + delta_bar;
    RK4 on the uniform grid keeps the trace aligned with full-plant runs.
    """
    n = round(t_final / dt) if dt > 0.0 else 0
    if n < 1:
        raise ValueError(f"dt = {dt}, t_final = {t_final}: need dt > 0 and at least one step")
    bk = model.b @ np.asarray(gain.rows, dtype=float)
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = bk.tolist()
    a13 = float(model.a[0, 2])
    a23 = float(model.a[1, 2])
    d1, d2, d3 = model.delta_bar.tolist()
    sigma, alpha, bias, q_star = consts.sigma, consts.alpha, consts.bias, field.q_star
    trace = SimulationTrace.preallocate(n + 1, system="average")
    np.multiply(np.arange(n + 1), dt, out=trace.t)
    half = 0.5 * dt
    sixth = dt / 6.0
    sqrt, isfinite, q_limit = math.sqrt, math.isfinite, Q_LIMIT
    col_q, col_g1, col_g2, col_g3, col_xi, col_ev = map(
        memoryview, (trace.q, trace.g1, trace.g2, trace.g3, trace.xi, trace.event))
    g1, g2, g3 = (float(v) for v in g0)
    h1 = h2 = h3 = 0.0
    c1 = c2 = c3 = hc3 = dc3 = step3 = 0.0
    # Unfired rows from `block_from` on go to hold blocks.
    block_from = n + 1
    scalar_hold = hold._SCALAR_HOLD
    block_consts = (a13, a23, sixth, sigma, alpha, bias, q_star)
    start = 0
    while True:
        for i in range(start, n + 1):
            sq = g1 * g1 + g2 * g2 + g3 * g3
            q = q_star - 0.5 * sq
            if not isfinite(q) or abs(q) > q_limit:
                raise NonFiniteStateError(i * dt)
            # Past that check |G| and the latched H stay below
            # sqrt(2 * (|q_star| + q_limit)), so no square overflows unless
            # |q_star| exceeds about 2e307.
            e_norm = sqrt((h1 - g1) ** 2 + (h2 - g2) ** 2 + (h3 - g3) ** 2) if i else 0.0
            xi = sigma * sqrt(sq) - alpha * (e_norm + bias)
            if i < n and (i == 0 or xi < 0.0):
                h1, h2, h3 = g1, g2, g3
                c1 = -(b00 * g1 + b01 * g2 + b02 * g3) + d1
                c2 = -(b10 * g1 + b11 * g2 + b12 * g3) + d2
                c3 = -(b20 * g1 + b21 * g2 + b22 * g3) + d3
                hc3 = half * c3
                dc3 = dt * c3
                step3 = sixth * (c3 + 2.0 * c3 + 2.0 * c3 + c3)
                block_from = i + scalar_hold
                col_ev[i] = 1
            elif i >= block_from:
                break
            col_q[i] = q
            col_g1[i] = g1
            col_g2[i] = g2
            col_g3[i] = g3
            col_xi[i] = xi
            if i == n:
                continue  # no step past the last row
            # RK4 on dG/dt = A G + c.  A acts through G3 only and dG3/dt = c3
            # is constant, so the k2 and k3 stages coincide and G3 moves by a
            # fixed step between events.
            km = a13 * (g3 + hc3) + c1
            g1 += sixth * (a13 * g3 + c1 + 2.0 * km + 2.0 * km + (a13 * (g3 + dc3) + c1))
            km = a23 * (g3 + hc3) + c2
            g2 += sixth * (a23 * g3 + c2 + 2.0 * km + 2.0 * km + (a23 * (g3 + dc3) + c2))
            g3 += step3
        else:
            break  # the scalar loop wrote the last row
        held = (h1, h2, h3, c1, c2, hc3, dc3, step3)
        start, (g1, g2, g3) = hold.run_blocks(
            trace, i, partial(_hold_block, block_consts, held), (g1, g2, g3)
        )
        # The scalar loop takes row `start`.  Should it not fire there,
        # blocks resume a row later.
        block_from = start + 1
    hold.fill_control(trace, gain)
    np.add(field.x_star, trace.g1, out=trace.x)
    np.add(field.y_star, trace.g2, out=trace.y)
    np.add(field.theta_star, trace.g3, out=trace.theta)
    return trace


def _hold_block(consts, held, t, g):
    """One hold block of the averaged loop, a fold for
    :func:`etseek.hold.run_blocks`; ``t`` only sets its length."""
    a13, a23, sixth, sigma, alpha, bias, q_star = consts
    h1, h2, h3, c1, c2, hc3, dc3, step3 = held
    g1, g2, g3 = g
    square = hold.square
    gs3 = hold.accumulate(g3, np.full(t.shape[0], step3))
    b3 = gs3[:-1]
    mid3 = b3 + hc3
    end3 = b3 + dc3
    gs1 = _fold(g1, a13, c1, b3, mid3, end3, sixth)
    gs2 = _fold(g2, a23, c2, b3, mid3, end3, sixth)
    b1, b2 = gs1[:-1], gs2[:-1]
    e_norm = np.sqrt(square(h1 - b1) + square(h2 - b2) + square(h3 - b3))
    sq = b1 * b1 + b2 * b2 + b3 * b3
    columns = {
        "q": q_star - 0.5 * sq, "g1": b1, "g2": b2, "g3": b3,
        "xi": sigma * np.sqrt(sq) - alpha * (e_norm + bias),
    }
    return (gs1, gs2, gs3), columns


def _fold(g, a, c, g3, mid3, end3, sixth):
    """G1 or G2 over a hold block: the scalar loop's RK4 increments, with its
    association, summed left to right from g."""
    km = a * mid3 + c
    return hold.accumulate(g, sixth * (a * g3 + c + 2.0 * km + 2.0 * km + (a * end3 + c)))
