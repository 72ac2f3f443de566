"""Fixed-step integration engine and run orchestration.

:func:`run_simulation` maps a scenario's mode to its loop.  It runs the
event trigger on the full plant (``full``) or on the averaged loop
(``average``), or the full plant updated every step
(``continuous-control``) or every P seconds (``sampled-data(P)``).

One classical RK4 step per grid point with the held control treated as
constant over the step, which is exactly what the zero-order hold means.
Every mode fires at t = 0; then the trigger fires at each grid point where
Xi < 0, or the sample clock fires.  Identical scenarios therefore produce
bit-identical traces.

For speed, the full-plant loop is inlined: RK4, the dithered kinematics,
field evaluation, demodulation, the trigger with its zero-order hold and
the estimator pose are written out as a scalar loop over local floats
that stores neither ``t`` nor u per row (see :mod:`etseek.trigger`).  The
composable functions (:func:`integrate_step`, :func:`~etseek.vehicle.dither_velocities`,
:func:`~etseek.vehicle.evaluate`, :func:`~etseek.vehicle.demodulation_vector`,
:func:`~etseek.trigger.step_trigger`, :func:`~etseek.vehicle.estimator_pose`)
are its tested reference: the loop keeps their float expressions in the
same evaluation order, so it reproduces them bit for bit.

Long holds, under the trigger or a sample clock, go to the hold-block
runner of :mod:`etseek.trigger`, which the averaged loop shares.  Under
the held control the plant's right-hand side reads only theta and t, so a
block computes the scalar loop's expressions elementwise, with theta, x
and y as left folds of their RK4 increments; the trace stays
bit-identical.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings

import numpy as np

from etseek import traceio, trigger
from etseek.analysis import trigger_model
from etseek.average import run_average_loop
from etseek.config import Scenario
from etseek.trace import Q_LIMIT, NonFiniteStateError, RunMetrics, SimulationTrace, inter_event_stats

#: The full trace a forked child ran ahead, with the Scenario object it is
#: for: one ``(sc, trace)`` pair or none (see :func:`_full_loop_ahead`).
_ahead: list = []

# The building blocks the inlined loop expands, importable from here as its
# reference.
from etseek.trigger import control_input, step_trigger, trigger_value  # noqa: F401
from etseek.vehicle import VehicleState, demodulation_vector, dither_velocities, estimator_pose, evaluate, gradient_estimate  # noqa: F401


def integrate_step(derivative, state, t: float, dt: float):
    """One classical 4th-order Runge-Kutta step.

    ``derivative(t, state)`` must return an object of the same shape as
    ``state``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
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

    The mode picks the loop and its control update policy:

    - ``full``: the full plant under the event trigger;
    - ``continuous-control``: the full plant, updated every step (a sample
      clock of period 0);
    - ``sampled-data(P)``: the full plant, updated every P seconds;
    - ``average``: the averaged loop under the event trigger.

    Only the trigger modes (update period None) build the averaged model and
    warn on a coarse grid.  Each run first takes any trace that
    :func:`_full_loop_ahead` handed off, so none outlives it; a ``full`` run
    uses it in place of its loop only if it ran for this very ``Scenario``
    (identity, not equality: ``x0 = -0.0`` equals ``0.0``).  The final error
    is the last pose's distance from the source, on the averaged loop the
    norm of the last G.
    """
    handed_to, trace = _ahead.pop() if _ahead else (None, None)
    f = sc.field
    model = trigger_model(sc)[0] if sc.update_period is None else None
    if sc.mode == "average":
        trace = run_average_loop(model, sc)
        final_error = math.sqrt(trace.g1[-1] ** 2 + trace.g2[-1] ** 2 + trace.g3[-1] ** 2)
    else:
        trace = trace if handed_to is sc else _run_full(sc)
        x, y, th = float(trace.x[-1]), float(trace.y[-1]), float(trace.theta[-1])
        final_error = math.sqrt((x - f.x_star) ** 2 + (y - f.y_star) ** 2 + (th - f.theta_star) ** 2)
    num_events = int(np.count_nonzero(trace.event))
    return trace, RunMetrics(len(trace) - 1, num_events, *inter_event_stats(trace), final_error)


@contextlib.contextmanager
def _full_loop_ahead(sc: Scenario | None):
    """Run ``sc``'s full loop in a forked child while the body runs.

    The child (:func:`etseek.traceio._in_children`) runs only :func:`_run_full`,
    with warnings raised as errors so that it prints nothing, and spills the
    trace's float block and ``event`` array.  Once the body returns, the parent
    reads both back with one ``os.preadv`` and hands the trace to
    ``run_simulation(sc)``.  No child runs for a None or non-``full`` ``sc`` or
    below two usable CPUs.  Where the spill, fork, child or read fails, or the
    body raises, nothing is handed off: the parent runs the loop itself.
    """
    if sc is None or sc.mode != "full" or traceio._usable_cpus() < 2:
        yield
        return

    def run(_, spill):
        warnings.simplefilter("error")  # in the child, which leaves through os._exit
        trace = _run_full(sc)
        spill.write(trace.t.base)
        spill.write(trace.event)

    with traceio._in_children([0], run) as take:
        yield
        if (spill := take(0)) is not None:
            trace = SimulationTrace.preallocate(sc.steps + 1)
            columns = [trace.t.base, trace.event]
            with contextlib.suppress(OSError):
                if os.preadv(spill, columns, 0) == sum(c.nbytes for c in columns):
                    _ahead[:] = [(sc, trace)]


def _run_full(sc: Scenario) -> SimulationTrace:
    """The full plant's loop, under the event trigger or a sample clock."""
    period = sc.update_period  # None for the event trigger
    d = sc.dithers
    field = sc.field
    x_star, y_star, theta_star, q_star = field.x_star, field.y_star, field.theta_star, field.q_star
    (k00, k01, k02), (k10, k11, k12) = sc.gain.rows
    sigma, alpha, bias = sc.trigger.sigma, sc.trigger.alpha, sc.bias
    dt = sc.dt
    n = sc.steps
    trace = SimulationTrace.preallocate(n + 1, system="full")
    np.multiply(np.arange(n + 1), dt, out=trace.t)
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
    sin, cos, sqrt, isfinite, q_limit = math.sin, math.cos, math.sqrt, math.isfinite, Q_LIMIT
    col_x, col_y, col_th, col_xh, col_yh, col_thh, col_q, col_g1, col_g2, col_g3, col_xi, col_ev = map(
        memoryview, (trace.x, trace.y, trace.theta, trace.xhat, trace.yhat, trace.thetahat,
                     trace.q, trace.g1, trace.g2, trace.g3, trace.xi, trace.event))
    x, y, th = sc.initial.x, sc.initial.y, sc.initial.theta
    h1 = h2 = h3 = 0.0
    u1 = u2 = 0.0
    next_sample = 0.0
    # Unfired rows from `block_from` on go to hold blocks: a trigger's hold,
    # which may end on any row, after _SCALAR_HOLD rows; a clock's from its
    # first row if the period spans _SCALAR_HOLD // 2 steps, else none.
    block_from = n + 1
    scalar_hold = trigger._SCALAR_HOLD if period is None else 1 if period >= trigger._SCALAR_HOLD // 2 * dt else n + 1

    def hold_block(t, pose):
        """One hold block of the full loop, a fold for :func:`etseek.trigger.run_blocks`.

        The scalar loop's expressions, elementwise over the block's rows.
        Under the held control the heading's RK4 increment depends on t alone,
        so theta is a left fold of increments, and x and y are left folds of
        increments that depend on (theta, t).  Their stage sums
        k1 + 2 k2 + 2 k3 + k4 are added up stage by stage, in the scalar
        loop's order, and the stage arrays are freed once the poses are
        folded, so that few block-length arrays are alive at once: a block's
        temporaries share the heap with the trace.
        """
        sin, cos, sqrt, square, accumulate = np.sin, np.cos, np.sqrt, trigger.square, trigger.accumulate

        def stage(heading, p1, p2):
            c = cos(heading)
            s = sin(heading)
            v = c * p1 + s * p2
            return v * c, v * s

        tm = t + half
        te = t + dt
        wr1 = aw3 * cos(w3 * t) + u2
        wrm = aw3 * cos(w3 * tm) + u2
        ths = accumulate(pose[2], sixth * (wr1 + 2.0 * wrm + 2.0 * wrm + (aw3 * cos(w3 * te) + u2)))
        th = ths[:-1]
        sum_x, sum_y = stage(th, aw1 * cos(w1 * t) + u1, aw2 * sin(w2 * t) + u1)
        pm1 = aw1 * cos(w1 * tm) + u1
        pm2 = aw2 * sin(w2 * tm) + u1
        for heading in (th + half * wr1, th + half * wrm):
            kx, ky = stage(heading, pm1, pm2)
            sum_x += 2.0 * kx
            sum_y += 2.0 * ky
        kx, ky = stage(th + dt * wrm, aw1 * cos(w1 * te) + u1, aw2 * sin(w2 * te) + u1)
        sum_x += kx
        sum_y += ky
        xs = accumulate(pose[0], sixth * sum_x)
        ys = accumulate(pose[1], sixth * sum_y)
        del tm, te, wr1, wrm, pm1, pm2, heading, kx, ky, sum_x, sum_y
        x, y = xs[:-1], ys[:-1]
        q = q_star - 0.5 * square(x - x_star) - 0.5 * square(y - y_star) - 0.5 * square(th - theta_star)
        s1 = sin(w1 * t)
        c2 = cos(w2 * t)
        s3 = sin(w3 * t)
        g1 = m1 * s1 * q
        g2 = m2 * c2 * q
        g3 = m3 * s3 * q
        e_norm = sqrt(square(h1 - g1) + square(h2 - g2) + square(h3 - g3))
        xi = sigma * sqrt(square(g1) + square(g2) + square(g3)) - alpha * (e_norm + bias)
        columns = {
            "x": x, "y": y, "theta": th,
            "xhat": x - ha1 * s1, "yhat": y + ha2 * c2, "thetahat": th - ha3 * s3,
            "q": q, "g1": g1, "g2": g2, "g3": g3, "xi": xi,
        }
        return (xs, ys, ths), columns

    start = 0
    while True:
        for i in range(start, n + 1):
            t = i * dt
            try:
                q = q_star - 0.5 * (x - x_star) ** 2 - 0.5 * (y - y_star) ** 2 - 0.5 * (th - theta_star) ** 2
                if not isfinite(q) or abs(q) > q_limit:
                    # a non-finite pose makes q non-finite; beyond any
                    # physically meaningful signal level the downstream
                    # norms would overflow
                    raise NonFiniteStateError(t)
                s1 = sin(w1 * t)
                c2 = cos(w2 * t)
                s3 = sin(w3 * t)
                g1 = m1 * s1 * q
                g2 = m2 * c2 * q
                g3 = m3 * s3 * q
                e_norm = sqrt((h1 - g1) ** 2 + (h2 - g2) ** 2 + (h3 - g3) ** 2) if i else 0.0
                xi = sigma * sqrt(g1 ** 2 + g2 ** 2 + g3 ** 2) - alpha * (e_norm + bias)
            except OverflowError:
                # a square overflows before the state itself turns inf/nan:
                # of a huge-but-finite coordinate in q, or of G, whose
                # demodulation gain 4/a is huge for a tiny dither amplitude
                raise NonFiniteStateError(t) from None
            if i == n:
                fired = False
            elif period is None:
                fired = i == 0 or xi < 0.0
            else:
                fired = t >= next_sample - half
                if fired:
                    next_sample += period
            if fired:
                h1, h2, h3 = g1, g2, g3
                u1 = -(k00 * g1 + k01 * g2 + k02 * g3)
                u2 = -(k10 * g1 + k11 * g2 + k12 * g3)
                block_from = i + scalar_hold
                col_ev[i] = 1
            elif i >= block_from:
                break
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
            col_xi[i] = xi
            if i == n:
                continue  # no step past the last row
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
        else:
            break  # the scalar loop wrote the last row
        # A clock's hold ends at its next firing row, by the scalar loop's test, or past row n, which never fires.
        stop = None if period is None else max(int(np.searchsorted(trace.t, next_sample - half)), i + 1)
        start, (x, y, th) = trigger.run_blocks(trace, i, hold_block, (x, y, th), stop)
        # The scalar loop takes row `start`.  Should it not fire there,
        # blocks resume a row later.
        block_from = start + 1
    trigger.fill_control(trace, sc.gain)
    return trace

