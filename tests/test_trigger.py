import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etseek import hold
from etseek.config import load_scenario, scale_probing_frequency
from etseek.engine import run_simulation
from etseek.trace import ScenarioError
from etseek.trigger import (
    GainMatrix,
    TriggerConstants,
    TriggerState,
    control_input,
    error_vector,
    step_trigger,
    trigger_floor,
    trigger_value,
)
from etseek.vehicle import VehicleState
from tests.conftest import PAPER_SIV_GAIN

SIV_BIAS = 0.3060402345868264
SIV_CONSTS = TriggerConstants(sigma=0.5, alpha=0.195, bias=SIV_BIAS)


class TestConstants:
    def test_bias_from_dithers(self, siv_dithers):
        c = TriggerConstants.from_dithers(0.5, 0.195, siv_dithers)
        assert c.bias == pytest.approx(SIV_BIAS, abs=1e-15)

    def test_validation(self, siv_dithers):
        # Each rule names the scenario-file key of its value.
        with pytest.raises(ScenarioError, match=r"^trigger\.sigma: must lie in \(0, 1\), got 1.2$"):
            TriggerConstants(sigma=1.2, alpha=0.1, bias=0.0)
        with pytest.raises(ScenarioError, match=r"^trigger\.alpha: must be > 0, got 0\.0$"):
            TriggerConstants(sigma=0.5, alpha=0.0, bias=0.0)
        with pytest.raises(ScenarioError, match=r"^dithers: trigger bias .*got -1\.0$"):
            TriggerConstants(sigma=0.5, alpha=0.1, bias=-1.0)
        with pytest.raises(ScenarioError, match=r"^dithers\.a3: Bessel series is accurate only"):
            TriggerConstants.from_dithers(0.5, 0.195, replace(siv_dithers, a3=12.0))

    def test_floor(self):
        assert trigger_floor(SIV_CONSTS) == pytest.approx(0.2387113829777246, abs=1e-12)


class TestErrorVector:
    def test_reset_at_event(self):
        assert error_vector((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == (0.0, 0.0, 0.0)

    def test_plain_difference(self):
        assert error_vector((1.0, 2.0, 3.0), (0.0, 0.0, 0.0)) == (1.0, 2.0, 3.0)

    def test_componentwise(self):
        e = error_vector((0.0, 1.0, 0.0), (0.0, 4.903376, 0.0))
        assert e == (0.0, pytest.approx(-3.903376, abs=1e-12), 0.0)


class TestTriggerValue:
    def test_zero_gradient(self):
        xi = trigger_value((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), SIV_CONSTS)
        assert xi == pytest.approx(-0.05967784574443115, abs=1e-12)

    def test_unit_gradient(self):
        xi = trigger_value((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), SIV_CONSTS)
        assert xi == pytest.approx(0.44032215425556885, abs=1e-12)

    def test_boundary_is_exactly_zero(self):
        # sigma, alpha, bias and the norms are all exact binary fractions.
        c = TriggerConstants(sigma=0.5, alpha=0.25, bias=0.75)
        xi = trigger_value((0.5, 0.0, 0.0), (0.25, 0.0, 0.0), c)
        assert xi == 0.0


class TestControlInput:
    def test_zero_gradient(self):
        assert control_input(PAPER_SIV_GAIN, (0.0, 0.0, 0.0)) == (0.0, 0.0)

    def test_first_column(self):
        assert control_input(PAPER_SIV_GAIN, (1.0, 0.0, 0.0)) == (-4.3822, 9.4326)

    def test_linearity(self):
        g = (0.3, -1.7, 0.9)
        u1 = control_input(PAPER_SIV_GAIN, g)
        u2 = control_input(PAPER_SIV_GAIN, tuple(2.0 * v for v in g))
        assert u2 == tuple(2.0 * v for v in u1)


class TestStepTrigger:
    def test_time_zero_is_always_an_event(self):
        st = TriggerState()
        fired = step_trigger(st, 0.0, (0.2, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        assert fired
        assert st.last_event_time == 0.0
        assert len(st.events) == 1
        assert st.held_control == control_input(PAPER_SIV_GAIN, (0.2, 0.0, 0.0))

    def test_no_event_right_after_latch(self):
        # e = 0 and ||G|| above (alpha/sigma)*bias keeps Xi positive.
        st = TriggerState()
        step_trigger(st, 0.0, (1.0, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        fired = step_trigger(st, 0.01, (1.0, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        assert not fired
        assert len(st.events) == 1

    def test_decayed_gradient_fires(self):
        # sigma*||G|| < alpha*bias makes Xi negative independently of e.
        st = TriggerState()
        step_trigger(st, 0.0, (0.05, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        fired = step_trigger(st, 0.01, (0.05, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        assert fired

    def test_boundary_does_not_fire(self):
        c = TriggerConstants(sigma=0.5, alpha=0.25, bias=0.75)
        st = TriggerState()
        step_trigger(st, 0.0, (0.75, 0.0, 0.0), c, PAPER_SIV_GAIN)
        # held (0.75,0,0) against current (0.5,0,0): e = (0.25,0,0) and
        # Xi = 0.5*0.5 - 0.25*(0.25+0.75) = 0 exactly; the strict
        # inequality must keep the hold.
        fired = step_trigger(st, 0.5, (0.5, 0.0, 0.0), c, PAPER_SIV_GAIN)
        assert not fired

    def test_scripted_linear_drift_fires_at_predicted_step(self):
        # Latch (1,0,0); drift the estimate to zero linearly in s over [0,1].
        # Xi(s) = 0.5*(1-s) - 0.195*(s + bias) crosses zero at
        # s* = (0.5 - 0.195*bias) / 0.695; the event must land at the first
        # grid point strictly beyond s*.
        st = TriggerState()
        step_trigger(st, 0.0, (1.0, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        s_star = (0.5 - 0.195 * SIV_BIAS) / 0.695
        ds = 1e-3
        fired_at = None
        for k in range(1, 1001):
            s = k * ds
            g = (1.0 - s, 0.0, 0.0)
            if step_trigger(st, s, g, SIV_CONSTS, PAPER_SIV_GAIN):
                fired_at = k
                break
        assert fired_at is not None
        expected = math.floor(s_star / ds) + 1
        assert fired_at == expected

    def test_rejects_non_monotone_time(self):
        st = TriggerState()
        step_trigger(st, 1.0, (1.0, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        with pytest.raises(ValueError):
            step_trigger(st, 0.5, (1.0, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)

    def test_event_times_strictly_increase(self):
        st = TriggerState()
        step_trigger(st, 0.0, (0.01, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        # Xi stays negative at this tiny norm, but a second event at the
        # same instant must not be recorded.
        assert not step_trigger(st, 0.0, (0.01, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        assert step_trigger(st, 1e-4, (0.01, 0.0, 0.0), SIV_CONSTS, PAPER_SIV_GAIN)
        times = [e.time for e in st.events]
        assert times == sorted(times) and len(set(times)) == len(times)


def test_gain_matrix_validation():
    with pytest.raises(ValueError):
        GainMatrix(rows=((1.0, 2.0), (3.0, 4.0)))
    with pytest.raises(ValueError):
        GainMatrix(rows=((1.0, 2.0, math.nan), (3.0, 4.0, 5.0)))


# paper_siv holds after its second event, smallgain fires on every step,
# and smallgain at omega3 = 40 mixes runs of events with long holds.
SMALLGAIN = load_scenario("smallgain.cfg")
INVARIANT_SCENARIOS = {
    "paper_siv": load_scenario("paper_siv.cfg"),
    "smallgain": SMALLGAIN,
    "smallgain@40": scale_probing_frequency(SMALLGAIN, 2.0),
}
jitter = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


@settings(deadline=None, database=None, max_examples=30)
@given(
    name=st.sampled_from(sorted(INVARIANT_SCENARIOS)),
    mode=st.sampled_from(["full", "average"]),
    dx=jitter,
    dy=jitter,
    dth=jitter,
    t_final=st.floats(min_value=1e-3, max_value=0.5),
)
def test_trigger_invariants_on_every_row(name, mode, dx, dy, dth, t_final):
    # Both event-triggered loops fire on the Xi they record and hold the
    # control between events, on scalar rows and in hold blocks alike.  The
    # time column is the grid i*dt, and the averaged pose is the source
    # offset by G.
    sc = INVARIANT_SCENARIOS[name]
    pose = VehicleState(sc.initial.x + dx, sc.initial.y + dy, sc.initial.theta + dth)
    sc = replace(sc, initial=pose, mode=mode, t_final=t_final)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hold, "_SCALAR_HOLD", 2)
        patch.setattr(hold, "_FIRST_BLOCK", 4)
        trace, _ = run_simulation(sc)
    n = len(trace) - 1
    rows = np.arange(n + 1)
    event = trace.event == 1
    assert np.array_equal(event, (rows == 0) | ((rows < n) & (trace.xi < 0.0)))
    assert np.array_equal(bits(trace.t), bits(rows * sc.dt))
    if mode == "average":
        source = (sc.field.x_star, sc.field.y_star, sc.field.theta_star)
        for pose, star, g in zip((trace.x, trace.y, trace.theta), source, (trace.g1, trace.g2, trace.g3)):
            assert np.array_equal(bits(pose), bits(star + g))
    for u in (trace.u1, trace.u2):
        changed = np.flatnonzero(bits(u[1:]) != bits(u[:-1])) + 1
        assert event[changed].all()
    g1, g2, g3 = trace.g1[event], trace.g2[event], trace.g3[event]
    for u, (k0, k1, k2) in zip((trace.u1, trace.u2), sc.gain.rows):
        assert np.array_equal(bits(u[event]), bits(-(k0 * g1 + k1 * g2 + k2 * g3)))
