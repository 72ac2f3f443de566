"""The inlined full-plant and averaged loops against their composable references.

``reference_run_full`` drives the plant through the public building
blocks one call at a time: ``integrate_step`` over ``dither_velocities``,
``evaluate``, ``demodulation_vector``, ``step_trigger`` and
``estimator_pose``.  ``reference_run_average`` fires on the Xi it
records, as the averaged loop does, and latches into a ``TriggerState``
with ``control_input``.  The engine's inlined loops must reproduce them
bit for bit, including the time at which a divergent run is abandoned.
Each reference keeps its own ``TriggerEvent`` log, so the event log the
engine reads off the event-flagged rows is checked against an independent
record.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from etseek import hold
from etseek.average import build_average_matrices
from etseek.config import load_scenario, scale_probing_frequency
from etseek.engine import NonFiniteStateError, integrate_step, run_simulation
from etseek.estimator import demodulation_vector, gradient_estimate
from etseek.field import evaluate
from etseek.trace import TRACE_COLUMNS, SimulationTrace
from etseek.trigger import (
    TriggerEvent,
    TriggerState,
    control_input,
    step_trigger,
    trigger_value,
)
from etseek.vehicle import VehicleState, dither_velocities, estimator_pose


def reference_run_full(sc):
    """Trace and event log of one full-plant run, from the composable functions."""
    d = sc.dithers
    dt = sc.dt
    n = round(sc.t_final / dt)
    trace = SimulationTrace.preallocate(n + 1, system="full")
    trig = TriggerState()
    next_sample = 0.0
    x, y, th = sc.initial.x, sc.initial.y, sc.initial.theta
    for i in range(n + 1):
        t = i * dt
        try:
            pose = VehicleState(x, y, th)
            q = evaluate(sc.field, pose)
        except (ValueError, OverflowError):
            raise NonFiniteStateError(t) from None
        if not math.isfinite(q) or abs(q) > 1e100:
            raise NonFiniteStateError(t)
        g = gradient_estimate(demodulation_vector(d, t), q)
        if trig.held_gradient is None:
            e = (0.0, 0.0, 0.0)
        else:
            h = trig.held_gradient
            e = (h[0] - g[0], h[1] - g[1], h[2] - g[2])
        xi = trigger_value(g, e, sc.trigger)
        fired = False
        if i < n:
            if sc.mode == "full":
                fired = step_trigger(trig, t, g, sc.trigger, sc.gain)
            elif sc.mode == "continuous-control" or t >= next_sample - 0.5 * dt:
                trig.held_gradient = g
                trig.held_control = control_input(sc.gain, g)
                trig.last_event_time = t
                trig.events.append(TriggerEvent(t, g, trig.held_control))
                if sc.mode == "sampled-data":
                    next_sample += sc.sample_period
                fired = True
        u = trig.held_control
        row = (t, x, y, th, *estimator_pose(pose, d, t), q, *g, *u, xi, 1 if fired else 0)
        for name, value in zip(TRACE_COLUMNS, row):
            trace.column(name)[i] = value
        if i == n:
            break

        def rhs(tt, s):
            v, w = dither_velocities(d, tt, s[2], u)
            return v * math.cos(s[2]), v * math.sin(s[2]), w

        x, y, th = integrate_step(rhs, (x, y, th), t, dt)
    return trace, trig.events


def reference_run_average(sc):
    """Trace and event log of one averaged run, from the composable trigger."""
    model = build_average_matrices(sc.field.theta_star, sc.dithers)
    hat0 = estimator_pose(sc.initial, sc.dithers, 0.0)
    g0 = (
        hat0[0] - sc.field.x_star,
        hat0[1] - sc.field.y_star,
        hat0[2] - sc.field.theta_star,
    )
    consts = sc.trigger
    k = np.asarray(sc.gain.rows, dtype=float)
    bk = model.b @ k
    a13 = float(model.a[0, 2])
    a23 = float(model.a[1, 2])
    d1, d2, d3 = (float(v) for v in model.delta_bar)
    dt = sc.dt
    n = round(sc.t_final / dt)
    trace = SimulationTrace.preallocate(n + 1, system="average")
    trig = TriggerState()
    field = sc.field
    x_star, y_star, theta_star = field.x_star, field.y_star, field.theta_star
    q_star = field.q_star
    g1, g2, g3 = (float(v) for v in g0)
    c1 = c2 = c3 = 0.0
    for i in range(n + 1):
        t = i * dt
        g = (g1, g2, g3)
        if trig.held_gradient is None:
            e = (0.0, 0.0, 0.0)
        else:
            h = trig.held_gradient
            e = (h[0] - g1, h[1] - g2, h[2] - g3)
        e_norm = math.sqrt(e[0] ** 2 + e[1] ** 2 + e[2] ** 2)
        g_norm = math.sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        xi = consts.sigma * g_norm - consts.alpha * (e_norm + consts.bias)
        # The averaged loop fires on the Xi it records, whose norm squares
        # with g * g where trigger_value uses ** 2; latch like step_trigger.
        fired = i < n and (i == 0 or xi < 0.0)
        if fired:
            trig.held_gradient = g
            trig.held_control = control_input(sc.gain, g)
            trig.last_event_time = t
            trig.events.append(TriggerEvent(t, g, trig.held_control))
            c1 = -(bk[0, 0] * g1 + bk[0, 1] * g2 + bk[0, 2] * g3) + d1
            c2 = -(bk[1, 0] * g1 + bk[1, 1] * g2 + bk[1, 2] * g3) + d2
            c3 = -(bk[2, 0] * g1 + bk[2, 1] * g2 + bk[2, 2] * g3) + d3
        u1, u2 = trig.held_control
        row = (
            t, x_star + g1, y_star + g2, theta_star + g3,
            x_star + g1, y_star + g2, theta_star + g3,
            q_star - 0.5 * (g1 * g1 + g2 * g2 + g3 * g3),
            g1, g2, g3, u1, u2, xi, 1 if fired else 0,
        )
        for name, value in zip(TRACE_COLUMNS, row):
            trace.column(name)[i] = value
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
    return trace, trig.events


def assert_bit_equal(trace, ref, log):
    for name in TRACE_COLUMNS:
        assert trace.column(name).tobytes() == ref.column(name).tobytes(), name
    expected = np.array([[e.time, *e.gradient, *e.control] for e in log]).reshape(-1, 6)
    assert trace.events.shape == expected.shape
    assert trace.events.tobytes() == expected.tobytes()


def jittered(sc, dx, dy, dth, **changes):
    initial = VehicleState(sc.initial.x + dx, sc.initial.y + dy, sc.initial.theta + dth)
    return replace(sc, initial=initial, **changes)


# A mismatch is reported as found: shrinking would rerun the slow reference
# loop hundreds of times for little gain on a few float draws.
PROPERTY = settings(deadline=None, database=None, phases=(Phase.explicit, Phase.generate))

SCENARIOS = {name: load_scenario(name) for name in ("paper_siv.cfg", "smallgain.cfg")}

jitter = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
modes = st.one_of(
    st.just(("full", None)),
    st.just(("continuous-control", None)),
    st.tuples(st.just("sampled-data"), st.floats(min_value=1e-4, max_value=0.02)),
)


@settings(PROPERTY, max_examples=30)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    dx=jitter,
    dy=jitter,
    dth=jitter,
    mode=modes,
    t_final=st.floats(min_value=1e-3, max_value=0.05),
)
# Holds of 1 to 27 steps, so blocks hand back at firing rows.
@example(name="smallgain.cfg", dx=0.0, dy=0.0, dth=0.0, mode=("full", None), t_final=0.05)
def test_inlined_loop_matches_reference(name, dx, dy, dth, mode, t_final):
    sc = jittered(
        SCENARIOS[name], dx, dy, dth, mode=mode[0], sample_period=mode[1], t_final=t_final
    )
    # Short hold-block thresholds put these runs' holds into blocks of
    # doubling width, with hand-backs at firing rows and at the horizon.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hold, "_SCALAR_HOLD", 2)
        patch.setattr(hold, "_FIRST_BLOCK", 4)
        trace, metrics = run_simulation(sc)
    ref, log = reference_run_full(sc)
    assert_bit_equal(trace, ref, log)
    assert metrics.num_events == len(log)


# paper_siv holds after its second event; smallgain (omega3 = 20) sits
# inside its trigger-floor ball and fires on every step; smallgain scaled to
# omega3 = 40 mixes runs of every-step events with holds of up to 353 steps,
# long enough for the averaged loop to compute them in blocks.
AVERAGED = {
    **SCENARIOS,
    "smallgain.cfg@40": scale_probing_frequency(SCENARIOS["smallgain.cfg"], 2.0),
}


@settings(PROPERTY, max_examples=30)
@given(
    name=st.sampled_from(sorted(AVERAGED)),
    dx=jitter,
    dy=jitter,
    dth=jitter,
    t_final=st.floats(min_value=1e-3, max_value=0.5),
)
def test_averaged_loop_matches_reference(name, dx, dy, dth, t_final):
    sc = jittered(AVERAGED[name], dx, dy, dth, mode="average", t_final=t_final)
    trace, metrics = run_simulation(sc)
    ref, log = reference_run_average(sc)
    assert_bit_equal(trace, ref, log)
    assert metrics.num_events == len(log)
    assert metrics.num_steps == len(ref) - 1


@settings(PROPERTY, max_examples=3)
@given(dx=jitter, dy=jitter, dth=jitter)
# The published gain under 10 ms sampling escapes in about a second
# (at 1.1101 s from the shipped start).
@example(dx=0.0, dy=0.0, dth=0.0)
def test_divergent_run_fails_at_the_same_time(dx, dy, dth):
    sc = jittered(
        SCENARIOS["paper_siv.cfg"], dx, dy, dth,
        mode="sampled-data", sample_period=0.01, t_final=2.0,
    )
    try:
        ref, log = reference_run_full(sc)
    except NonFiniteStateError as failed:
        with pytest.raises(NonFiniteStateError) as inlined:
            run_simulation(sc)
        assert inlined.value.t == failed.t
    else:
        # Some jittered starts stay bounded for the 2 s run (one from
        # dx = 4.35e-5, dth = -5.03e-4); then every row must agree.
        trace, _ = run_simulation(sc)
        assert_bit_equal(trace, ref, log)


@pytest.mark.parametrize("x0", [1e200, -1e160])
def test_overflowing_square_is_non_finite(x0):
    sc = jittered(SCENARIOS["smallgain.cfg"], 0.0, 0.0, 0.0, t_final=0.01)
    sc = replace(sc, initial=VehicleState(x0, sc.initial.y, sc.initial.theta))
    with pytest.raises(NonFiniteStateError) as ref:
        reference_run_full(sc)
    with pytest.raises(NonFiniteStateError) as inlined:
        run_simulation(sc)
    assert inlined.value.t == ref.value.t == 0.0
