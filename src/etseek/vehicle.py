"""Nonlinear unicycle plant under the dithered velocity tuning laws."""

from __future__ import annotations

import math
from dataclasses import dataclass

from etseek.trace import ScenarioError

_FREQ_RTOL = 1e-9


@dataclass(frozen=True)
class VehicleState:
    """Planar pose of the robot center.

    Heading is kept unwrapped (no mod-2pi reduction) so small-deviation
    assumptions can be checked as plain inequalities.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"VehicleState.{name} must be finite")


@dataclass(frozen=True)
class DitherParams:
    """Probing signal amplitudes and frequencies.

    By default the probing frequencies must satisfy omega1 = omega2 =
    2*omega3; set ``frequency_override`` to accept other patterns (the
    shipped paper-reproduction scenario needs it, since it uses the
    literal published values omega1 = omega2 = 10, omega3 = 20).

    Amplitudes are allowed to be zero here so that dither-free plants can
    be constructed in tests; the full loop pins an undithered channel's
    gradient estimate to zero.  Only scenario loading and the reference
    :func:`~etseek.estimator.demodulation_vector` insist on strictly
    positive amplitudes.  A broken rule raises ``dithers.<name>``.
    """

    a1: float
    a2: float
    a3: float
    omega1: float
    omega2: float
    omega3: float
    frequency_override: bool = False

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ScenarioError(f"dithers.{name}", "must be finite and >= 0")
        for name in ("omega1", "omega2", "omega3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScenarioError(f"dithers.{name}", "must be finite")
        if self.omega3 <= 0.0:
            raise ScenarioError("dithers.omega3", "must be > 0")
        if not self.frequency_override:
            target = 2.0 * self.omega3
            for name in ("omega1", "omega2"):
                value = getattr(self, name)
                if abs(value - target) > _FREQ_RTOL * max(1.0, abs(target)):
                    raise ScenarioError(
                        f"dithers.{name}",
                        f"{value} violates omega1 = omega2 = 2*omega3 = {target}; "
                        "set frequency_override to relax",
                    )


def dither_velocities(
    d: DitherParams, t: float, theta: float, u: tuple[float, float]
) -> tuple[float, float]:
    """Linear and angular speeds under the dithered tuning laws."""
    u1, u2 = u
    v = math.cos(theta) * (d.a1 * d.omega1 * math.cos(d.omega1 * t) + u1) + math.sin(
        theta
    ) * (d.a2 * d.omega2 * math.sin(d.omega2 * t) + u1)
    omega = 0.5 * d.a3 * d.omega3 * math.cos(d.omega3 * t) + u2
    return v, omega


def estimator_pose(
    s: VehicleState, d: DitherParams, t: float
) -> tuple[float, float, float]:
    """Dither-stripped pose (xhat, yhat, thetahat)."""
    return (
        s.x - 0.5 * d.a1 * math.sin(d.omega1 * t),
        s.y + 0.5 * d.a2 * math.cos(d.omega2 * t),
        s.theta - 0.5 * d.a3 * math.sin(d.omega3 * t),
    )
