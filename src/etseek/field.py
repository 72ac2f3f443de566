"""Quadratic scalar field sensed by the vehicle.

Controller modules never read the field parameters; they only see values
returned by :func:`evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from etseek.vehicle import VehicleState


@dataclass(frozen=True)
class QuadraticField:
    """Concave quadratic signal field with its unique maximum at the source."""

    x_star: float
    y_star: float
    theta_star: float
    q_star: float

    def __post_init__(self) -> None:
        for name in ("x_star", "y_star", "theta_star", "q_star"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"QuadraticField.{name} must be finite")


def evaluate(field: QuadraticField, pose: VehicleState) -> float:
    """Signal value at the given pose."""
    return (
        field.q_star
        - 0.5 * (pose.x - field.x_star) ** 2
        - 0.5 * (pose.y - field.y_star) ** 2
        - 0.5 * (pose.theta - field.theta_star) ** 2
    )
