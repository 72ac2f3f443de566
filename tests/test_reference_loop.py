"""The inlined full-plant loop against its composable reference.

``reference_run_full`` drives the plant through the public building
blocks one call at a time: ``integrate_step`` over ``dither_velocities``,
``evaluate``, ``demodulation_vector``, ``step_trigger`` and
``estimator_pose``.  The engine's inlined loop must reproduce it bit for
bit, including the time at which a divergent run is abandoned.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from etseek.config import load_scenario
from etseek.engine import NonFiniteStateError, integrate_step, run_simulation
from etseek.estimator import demodulation_vector, gradient_estimate
from etseek.field import evaluate
from etseek.trace import TRACE_COLUMNS, SimulationTrace
from etseek.trigger import TriggerState, control_input, step_trigger, trigger_value
from etseek.vehicle import VehicleState, dither_velocities, estimator_pose


def reference_run_full(sc):
    """Trace of one full-plant run, built from the composable functions."""
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
    if sc.mode == "full":
        trace.events = np.array(
            [[e.time, *e.gradient, *e.control] for e in trig.events]
        ).reshape(-1, 6)
    else:
        trace.events = trace.events_from_mask()
    return trace


def assert_bit_equal(trace, ref):
    for name in TRACE_COLUMNS:
        assert trace.column(name).tobytes() == ref.column(name).tobytes(), name
    assert trace.events.shape == ref.events.shape
    assert trace.events.tobytes() == ref.events.tobytes()


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
def test_inlined_loop_matches_reference(name, dx, dy, dth, mode, t_final):
    sc = jittered(
        SCENARIOS[name], dx, dy, dth, mode=mode[0], sample_period=mode[1], t_final=t_final
    )
    trace, metrics = run_simulation(sc)
    ref = reference_run_full(sc)
    assert_bit_equal(trace, ref)
    assert metrics.num_events == ref.events.shape[0]


@settings(PROPERTY, max_examples=3)
@given(dx=jitter, dy=jitter, dth=jitter)
def test_divergent_run_fails_at_the_same_time(dx, dy, dth):
    # The published gain under 10 ms sampling escapes in about a second.
    sc = jittered(
        SCENARIOS["paper_siv.cfg"], dx, dy, dth,
        mode="sampled-data", sample_period=0.01, t_final=2.0,
    )
    with pytest.raises(NonFiniteStateError) as ref:
        reference_run_full(sc)
    with pytest.raises(NonFiniteStateError) as inlined:
        run_simulation(sc)
    assert inlined.value.t == ref.value.t


@pytest.mark.parametrize("x0", [1e200, -1e160])
def test_overflowing_square_is_non_finite(x0):
    sc = jittered(SCENARIOS["smallgain.cfg"], 0.0, 0.0, 0.0, t_final=0.01)
    sc = replace(sc, initial=VehicleState(x0, sc.initial.y, sc.initial.theta))
    with pytest.raises(NonFiniteStateError) as ref:
        reference_run_full(sc)
    with pytest.raises(NonFiniteStateError) as inlined:
        run_simulation(sc)
    assert inlined.value.t == ref.value.t == 0.0
