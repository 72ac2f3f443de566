import math

import pytest

from etseek.estimator import demodulation_vector, gradient_estimate
from etseek.field import QuadraticField, evaluate
from etseek.vehicle import DitherParams, VehicleState
from tests.reference import dither_vector


def test_siv_at_time_zero(siv_dithers):
    m = demodulation_vector(siv_dithers, 0.0)
    assert m == (0.0, 8.0, 0.0)


def test_quarter_phase():
    d = DitherParams(0.5, 0.5, 0.5, 1.0, 1.0, 1.0, frequency_override=True)
    m = demodulation_vector(d, math.pi / 2)
    assert m[0] == pytest.approx(-8.0, abs=1e-12)
    assert m[1] == pytest.approx(0.0, abs=1e-12)
    assert m[2] == pytest.approx(-8.0, abs=1e-12)


def test_unit_gain_amplitudes():
    d = DitherParams(4.0, 4.0, 4.0, 4.0, 4.0, 2.0)
    assert demodulation_vector(d, 0.0) == (0.0, 1.0, 0.0)


def test_rejects_zero_amplitude():
    d = DitherParams(0.0, 0.5, 0.5, 4.0, 4.0, 2.0)
    with pytest.raises(ValueError):
        demodulation_vector(d, 0.0)


def test_gradient_estimate_zero_measurement():
    assert gradient_estimate((3.0, -8.0, 1.0), 0.0) == (0.0, 0.0, 0.0)


def test_gradient_estimate_start_value():
    # 8 * Q(12.5, 7.5, pi/3) with the published field
    measured = 0.6129221610959811
    g = gradient_estimate((0.0, 8.0, 0.0), measured)
    assert g == (0.0, pytest.approx(4.903377288767849, abs=1e-12), 0.0)


def test_gradient_estimate_linearity():
    m = (-1.25, 8.0, 0.5)
    c = 0.8372619
    doubled = gradient_estimate(m, 2.0 * c)
    single = gradient_estimate(m, c)
    assert doubled == tuple(2.0 * v for v in single)


def test_one_period_average_recovers_error():
    """Averaging the demodulated raw signal over one period gives the error.

    Frozen estimation error, zero control: the vehicle pose is the source
    plus error plus dither, and the Simpson average of M(t)*Q(t) must land
    on the error within 5% plus a small absolute allowance (the quadratic
    dither terms leave an O(a^2) imprint).
    """
    field = QuadraticField(1.0, -2.0, 0.3, 5.0)
    d = DitherParams(0.2, 0.2, 0.04, 20.0, 20.0, 10.0)
    err = (0.05, -0.06, 0.08)
    period = 2.0 * math.pi / d.omega3
    n = 4000  # even panel count for composite Simpson
    h = period / n
    acc = [0.0, 0.0, 0.0]
    for i in range(n + 1):
        t = i * h
        weight = 1.0 if i in (0, n) else (4.0 if i % 2 == 1 else 2.0)
        s = dither_vector(d, t)
        pose = VehicleState(
            field.x_star + err[0] + s[0],
            field.y_star + err[1] + s[1],
            field.theta_star + err[2] + s[2],
        )
        g = gradient_estimate(demodulation_vector(d, t), evaluate(field, pose))
        for k in range(3):
            acc[k] += weight * g[k]
    avg = [v * h / 3.0 / period for v in acc]
    for k in range(3):
        assert abs(avg[k] - err[k]) <= 0.05 * abs(err[k]) + 1e-3
