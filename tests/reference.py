"""Test-only oracles: closed forms that no production path evaluates.

Each restates a quantity of the model independently of the code under
test, so the tests can check the production functions against it.
"""

import math

import numpy as np

from etseek.average import AverageModel
from etseek.field import QuadraticField
from etseek.trigger import GainMatrix
from etseek.vehicle import DitherParams, VehicleState


def gradient(field: QuadraticField, pose: VehicleState) -> tuple[float, float, float]:
    """Analytic field gradient."""
    return (
        -(pose.x - field.x_star),
        -(pose.y - field.y_star),
        -(pose.theta - field.theta_star),
    )


def state_derivative(
    s: VehicleState, v: float, omega: float
) -> tuple[float, float, float]:
    """Kinematics of the robot center: (v cos theta, v sin theta, omega)."""
    return v * math.cos(s.theta), v * math.sin(s.theta), omega


def dither_vector(d: DitherParams, t: float) -> tuple[float, float, float]:
    """Additive dither S(t); pose minus maximizer equals error plus S(t)."""
    return (
        0.5 * d.a1 * math.sin(d.omega1 * t),
        -0.5 * d.a2 * math.cos(d.omega2 * t),
        0.5 * d.a3 * math.sin(d.omega3 * t),
    )


def average_derivative(
    g_av: np.ndarray, e_av: np.ndarray, model: AverageModel, gain: GainMatrix
) -> np.ndarray:
    """Right-hand side (A - BK) g_av - BK e_av + delta_bar in original time."""
    k = np.asarray(gain.rows, dtype=float)
    bk = model.b @ k
    return (model.a - bk) @ np.asarray(g_av) - bk @ np.asarray(e_av) + model.delta_bar
