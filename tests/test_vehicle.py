import math

import pytest

from etseek.engine import integrate_step
from etseek.trace import ScenarioError
from etseek.vehicle import DitherParams, VehicleState, dither_velocities, estimator_pose
from tests.reference import dither_vector, state_derivative


def equal_freqs(a=0.5):
    # omega1 = omega2 = omega3 lets all three phases be set with one t.
    return DitherParams(a, a, a, 1.0, 1.0, 1.0, frequency_override=True)


class TestDitherParams:
    def test_accepts_compliant_frequencies(self):
        DitherParams(0.1, 0.1, 0.1, 4.0, 4.0, 2.0)

    def test_rejects_frequency_mismatch_without_override(self):
        expected = r"^dithers\.omega1: 10\.0 violates .*; set frequency_override to relax$"
        with pytest.raises(ScenarioError, match=expected):
            DitherParams(0.1, 0.1, 0.1, 10.0, 10.0, 20.0)

    def test_override_accepts_any_pattern(self):
        DitherParams(0.1, 0.1, 0.1, 10.0, 10.0, 20.0, frequency_override=True)

    def test_rejects_negative_amplitude_and_bad_omega3(self):
        with pytest.raises(ScenarioError, match=r"^dithers\.a1: must be finite and >= 0$"):
            DitherParams(-0.1, 0.1, 0.1, 4.0, 4.0, 2.0)
        with pytest.raises(ScenarioError, match=r"^dithers\.omega3: must be > 0$"):
            DitherParams(0.1, 0.1, 0.1, 4.0, 4.0, 0.0)


class TestDitherVelocities:
    def test_siv_at_time_zero(self, siv_dithers):
        v, omega = dither_velocities(siv_dithers, 0.0, math.pi / 3, (0.0, 0.0))
        assert v == pytest.approx(2.5, abs=1e-12)
        assert omega == pytest.approx(5.0, abs=1e-12)

    def test_zero_amplitude_passes_control_through(self):
        d = DitherParams(0.0, 0.3, 0.1, 4.0, 4.0, 2.0)
        v, _ = dither_velocities(d, 0.25, 0.0, (1.7, 0.0))
        # theta = 0 kills the sine bracket; a1 = 0 leaves only u1.
        assert v == pytest.approx(1.7, abs=1e-15)

    def test_cosine_zeros(self):
        d = equal_freqs()
        v, omega = dither_velocities(
            DitherParams(d.a1, 0.0, d.a3, 1.0, 1.0, 1.0, frequency_override=True),
            math.pi / 2,
            0.0,
            (0.0, 0.0),
        )
        assert v == pytest.approx(0.0, abs=1e-12)
        assert omega == pytest.approx(0.0, abs=1e-12)


class TestStateDerivative:
    def test_straight_line(self):
        assert state_derivative(VehicleState(0, 0, 0.0), 1.0, 0.0) == (1.0, 0.0, 0.0)

    def test_pure_rotation(self):
        assert state_derivative(VehicleState(1, 2, 0.7), 0.0, 3.0) == (0.0, 0.0, 3.0)

    def test_heading_north(self):
        dx, dy, dth = state_derivative(VehicleState(0, 0, math.pi / 2), 2.0, 1.0)
        assert dx == pytest.approx(0.0, abs=1e-12)
        assert dy == pytest.approx(2.0, abs=1e-12)
        assert dth == 1.0


class TestEstimatorPose:
    def test_siv_at_time_zero(self, siv_dithers):
        hat = estimator_pose(VehicleState(12.5, 7.5, math.pi / 3), siv_dithers, 0.0)
        assert hat[0] == 12.5
        assert hat[1] == pytest.approx(7.75, abs=1e-15)
        assert hat[2] == math.pi / 3

    def test_zero_amplitudes_identity(self):
        d = DitherParams(0.0, 0.0, 0.0, 4.0, 4.0, 2.0)
        s = VehicleState(1.5, -2.0, 0.3)
        assert estimator_pose(s, d, 17.3) == (1.5, -2.0, 0.3)

    def test_quarter_phase(self):
        hat = estimator_pose(VehicleState(0.0, 0.0, 0.0), equal_freqs(), math.pi / 2)
        assert hat[0] == pytest.approx(-0.25, abs=1e-12)
        assert hat[1] == pytest.approx(0.0, abs=1e-12)
        assert hat[2] == pytest.approx(-0.25, abs=1e-12)

    def test_round_trip_identity(self, siv_dithers):
        # pose minus maximizer equals estimation error plus dither; the
        # subtract-then-add round trip is exact up to one rounding.
        s = VehicleState(3.7, -1.2, 0.9)
        for t in (0.0, 0.123, 4.56):
            hat = estimator_pose(s, siv_dithers, t)
            dither = dither_vector(siv_dithers, t)
            assert hat[0] + dither[0] == pytest.approx(s.x, abs=4e-16 * abs(s.x))
            assert hat[1] + dither[1] == pytest.approx(s.y, abs=4e-16 * abs(s.y))
            assert hat[2] + dither[2] == pytest.approx(s.theta, abs=4e-16)


class TestIntegration:
    def test_constant_without_excitation(self):
        d = DitherParams(0.0, 0.0, 0.0, 4.0, 4.0, 2.0)

        def rhs(t, s):
            v, w = dither_velocities(d, t, s[2], (0.0, 0.0))
            return v * math.cos(s[2]), v * math.sin(s[2]), w

        state = (0.4, -0.7, 1.1)
        for i in range(50):
            state = integrate_step(rhs, state, i * 0.01, 0.01)
        assert state == (0.4, -0.7, 1.1)

    def test_heading_returns_after_one_period(self):
        d = DitherParams(0.3, 0.3, 0.3, 10.0, 10.0, 5.0)
        period = 2.0 * math.pi / d.omega3
        n = 2000
        dt = period / n

        def rhs(t, s):
            v, w = dither_velocities(d, t, s[2], (0.0, 0.0))
            return v * math.cos(s[2]), v * math.sin(s[2]), w

        state = (0.0, 0.0, 0.25)
        for i in range(n):
            state = integrate_step(rhs, state, i * dt, dt)
        # zero-mean angular dither: theta comes back to O(a3) (here, exactly
        # up to integrator error).
        assert abs(state[2] - 0.25) <= 0.01 * d.a3


def test_vehicle_state_rejects_non_finite():
    with pytest.raises(ValueError):
        VehicleState(math.inf, 0.0, 0.0)
