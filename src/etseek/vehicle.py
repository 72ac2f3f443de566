"""Nonlinear unicycle plant under the dithered velocity tuning laws, and what
the loop measures from it: the quadratic scalar field the vehicle senses,
the demodulation-based gradient estimate and the dither-stripped pose;
and the Bessel functions the averaged model of the dither takes.

Both loops read the field parameters ``x_star`` through ``q_star``
directly: the full loop computes the signal inline, as :func:`evaluate`
states it, and the averaged loop takes ``q_star`` for its signal and the
source position for its pose.

The gradient estimate is the instantaneous product of the demodulation
sinusoids with the raw measured signal; no washout or low-pass stage is
inserted.  The averaged analysis takes its one-period average for the
pose-estimation error, but with omega1 = omega2 = 2*omega3 the plant's
planar average moves by about I + J0(a3) R(2 theta*) per unit of error,
not by I (README "Known defects" 5 defines the reflection R).

The averaged loop matrices and the trigger bias need J_0 and J_2, the
Bessel functions of the first kind, at the angular dither amplitude
(arguments well below 1 in practice); :func:`bessel_j` computes J_m by
its power series.  The tests check the series against an independent
composite-Simpson evaluation of the integral representation

    J_m(x) = (1/pi) * integral_0^pi cos(x sin(tau) - m tau) dtau

so that neither route has to be trusted on its own.
"""

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
    :func:`demodulation_vector` insist on strictly positive amplitudes.
    A broken rule raises ``dithers.<name>``.
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


# Power series terms are capped far beyond what |x| <= 10 needs; the loop
# normally exits on the magnitude test after ~20 terms for |x| <= 1.
_MAX_SERIES_TERMS = 200

# The series starts from (x/2)^m / m!, and 171! no longer converts to a
# float; rejecting larger orders up front also keeps math.factorial from
# running for minutes on a huge order.
_MAX_ORDER = 170


def _check_args(order: int, x: float) -> None:
    if not 0 <= order <= _MAX_ORDER or order != int(order):
        raise ValueError(
            f"Bessel order must be an integer in [0, {_MAX_ORDER}], got {order!r}"
        )
    # Past |x| = 10 the alternating terms outgrow the sum and cancellation
    # eats its digits (J_0(50) would sum to 655.29); this also bounds
    # (x/2)**m / m! within the float range for every accepted order.
    if not abs(x) <= 10.0:
        raise ValueError(
            "Bessel series is accurate only for |x| <= 10: "
            f"order {int(order)} at argument {x!r} is outside it"
        )


def bessel_j(order: int, x: float) -> float:
    """J_order(x) by the alternating power series.

    Accurate to about 1e-12 absolute for |x| <= 10.  Negative arguments
    are handled directly by the series, which reproduces the parity
    identity J_m(-x) = (-1)^m J_m(x) exactly.
    """
    _check_args(order, x)
    m = int(order)
    half = 0.5 * x
    term = half**m / math.factorial(m)
    total = term
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term *= -(half * half) / (k * (k + m))
        total += term
        if abs(term) <= 1e-18 * max(1.0, abs(total)):
            break
    return total


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


#: Gradient estimate: (signal per m, signal per m, signal per rad).
GradientEstimate = tuple[float, float, float]


def demodulation_vector(d: DitherParams, t: float) -> tuple[float, float, float]:
    """Demodulation sinusoids M(t); requires strictly positive amplitudes."""
    if d.a1 <= 0.0 or d.a2 <= 0.0 or d.a3 <= 0.0:
        raise ValueError("demodulation requires strictly positive dither amplitudes")
    return (
        -(4.0 / d.a1) * math.sin(d.omega1 * t),
        (4.0 / d.a2) * math.cos(d.omega2 * t),
        -(4.0 / d.a3) * math.sin(d.omega3 * t),
    )


def gradient_estimate(
    m: tuple[float, float, float], measured: float
) -> GradientEstimate:
    """Scale the demodulation vector by the measured signal value."""
    return (m[0] * measured, m[1] * measured, m[2] * measured)
