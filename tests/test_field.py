import math

import numpy as np
import pytest

from etseek.vehicle import QuadraticField, VehicleState, evaluate
from tests.reference import gradient

SIV_FIELD = QuadraticField(10.0, 5.0, math.pi / 6, 7.0)


def test_value_at_maximizer():
    assert evaluate(SIV_FIELD, VehicleState(10.0, 5.0, math.pi / 6)) == 7.0


def test_value_at_start_pose():
    # 7 - 0.5*2.5^2 - 0.5*2.5^2 - 0.5*(pi/6)^2
    value = evaluate(SIV_FIELD, VehicleState(12.5, 7.5, math.pi / 3))
    assert value == pytest.approx(0.6129221610959811, abs=1e-12)


def test_unit_offset():
    assert evaluate(SIV_FIELD, VehicleState(11.0, 5.0, math.pi / 6)) == 6.5


def test_gradient_examples():
    assert gradient(SIV_FIELD, VehicleState(10.0, 5.0, math.pi / 6)) == (0.0, 0.0, 0.0)
    assert gradient(SIV_FIELD, VehicleState(11.0, 5.0, math.pi / 6)) == (-1.0, 0.0, 0.0)
    g = gradient(SIV_FIELD, VehicleState(12.5, 7.5, math.pi / 3))
    assert g[0] == -2.5 and g[1] == -2.5
    assert g[2] == pytest.approx(-math.pi / 6, abs=1e-15)


def test_unique_maximum():
    rng = np.random.default_rng(7)
    best = evaluate(SIV_FIELD, VehicleState(10.0, 5.0, math.pi / 6))
    for _ in range(100):
        dx, dy, dth = rng.uniform(-10.0, 10.0, size=3)
        if dx == dy == dth == 0.0:
            continue
        pose = VehicleState(10.0 + dx, 5.0 + dy, math.pi / 6 + dth)
        assert evaluate(SIV_FIELD, pose) < best


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        offset = rng.uniform(-1.0, 1.0, size=3)
        offset *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(offset), 1e-9)
        pose = (10.0 + offset[0], 5.0 + offset[1], math.pi / 6 + offset[2])
        g = gradient(SIV_FIELD, VehicleState(*pose))
        for axis in range(3):
            hi = list(pose)
            lo = list(pose)
            hi[axis] += h
            lo[axis] -= h
            fd = (
                evaluate(SIV_FIELD, VehicleState(*hi))
                - evaluate(SIV_FIELD, VehicleState(*lo))
            ) / (2.0 * h)
            assert fd == pytest.approx(g[axis], abs=1e-6)


def test_rejects_non_finite_parameters():
    with pytest.raises(ValueError):
        QuadraticField(math.nan, 0.0, 0.0, 1.0)
