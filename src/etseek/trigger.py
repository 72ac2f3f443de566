"""Static event trigger and the zero-order-hold control law it gates.

Events fire at the first time where

    Xi = sigma*||Ghat|| - alpha*(||e|| + bias) < 0,

with e the deviation of the gradient estimate from its value at the last
event and bias the constant a1*omega3*|J_2(a3)| that dominates the norm
of the averaged disturbance.  Between events the control is held
constant; t = 0 is always an event.

The full-plant and averaged loops inline this rule over local floats as
``i == 0 or xi < 0.0`` on grid row i: each fires on the Xi it records in
the trace, and reads its event log off the trace's event-flagged rows.
:class:`TriggerState`, :func:`step_trigger` and :class:`TriggerEvent` are
the composable form of the same rule, which no production loop calls.
The tests check the full loop against :func:`step_trigger` bit for bit.
The averaged loop's Xi squares G with ``g * g`` where
:func:`trigger_value` uses ``** 2``, so its reference fires on the Xi it
records and latches with :func:`control_input`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from etseek.bessel import bessel_j
from etseek.estimator import GradientEstimate
from etseek.trace import ScenarioError
from etseek.vehicle import DitherParams


@dataclass(frozen=True)
class TriggerConstants:
    """sigma in (0, 1), alpha > 0 and bias >= 0, each refused under its file key."""

    sigma: float
    alpha: float
    bias: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma < 1.0):
            raise ScenarioError("trigger.sigma", f"must lie in (0, 1), got {self.sigma}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ScenarioError("trigger.alpha", f"must be > 0, got {self.alpha}")
        if not (math.isfinite(self.bias) and self.bias >= 0.0):
            msg = f"trigger bias a1*omega3*|J_2(a3)|: must be finite and >= 0, got {self.bias}"
            raise ScenarioError("dithers", msg)

    @classmethod
    def from_dithers(
        cls, sigma: float, alpha: float, d: DitherParams
    ) -> "TriggerConstants":
        """Derive the bias a1*omega3*|J_2(a3)|; J_2 refuses |a3| > 10 as ``dithers.a3``."""
        try:
            j2 = bessel_j(2, d.a3)
        except ValueError as exc:
            raise ScenarioError("dithers.a3", str(exc)) from exc
        return cls(sigma, alpha, d.a1 * d.omega3 * abs(j2))


@dataclass(frozen=True)
class GainMatrix:
    """2x3 feedback gain; rows map the gradient estimate to (u1, u2)."""

    rows: tuple[tuple[float, float, float], tuple[float, float, float]]

    def __post_init__(self) -> None:
        if len(self.rows) != 2 or any(len(r) != 3 for r in self.rows):
            raise ValueError("GainMatrix.rows must be 2 rows of 3 entries")
        for r in self.rows:
            for v in r:
                if not math.isfinite(v):
                    raise ValueError("GainMatrix entries must be finite")


@dataclass(frozen=True)
class TriggerEvent:
    time: float
    gradient: GradientEstimate
    control: tuple[float, float]


@dataclass
class TriggerState:
    """Held control and event log of one run of the composable trigger."""

    held_gradient: GradientEstimate | None = None
    held_control: tuple[float, float] = (0.0, 0.0)
    last_event_time: float | None = None
    events: list[TriggerEvent] = field(default_factory=list)


def error_vector(
    held: GradientEstimate, current: GradientEstimate
) -> tuple[float, float, float]:
    """Deviation of the gradient estimate since the last event."""
    return (held[0] - current[0], held[1] - current[1], held[2] - current[2])


def trigger_value(
    current: GradientEstimate, e: tuple[float, float, float], c: TriggerConstants
) -> float:
    """Xi = sigma*||Ghat|| - alpha*(||e|| + bias), Euclidean norms."""
    g_norm = math.sqrt(current[0] ** 2 + current[1] ** 2 + current[2] ** 2)
    e_norm = math.sqrt(e[0] ** 2 + e[1] ** 2 + e[2] ** 2)
    return c.sigma * g_norm - c.alpha * (e_norm + c.bias)


def control_input(gain: GainMatrix, latched: GradientEstimate) -> tuple[float, float]:
    """Zero-order-hold control u = -K * Ghat(t_k)."""
    r0, r1 = gain.rows
    return (
        -(r0[0] * latched[0] + r0[1] * latched[1] + r0[2] * latched[2]),
        -(r1[0] * latched[0] + r1[1] * latched[1] + r1[2] * latched[2]),
    )


def trigger_floor(c: TriggerConstants) -> float:
    """Radius 2*(alpha/sigma)*bias of the steady-state trigger floor ball."""
    return 2.0 * (c.alpha / c.sigma) * c.bias


def step_trigger(
    state: TriggerState,
    t: float,
    current: GradientEstimate,
    c: TriggerConstants,
    gain: GainMatrix,
) -> bool:
    """Evaluate the trigger at time t and latch on Xi < 0.

    The first call always fires (t0 is an event by definition).  Returns
    True when an event was recorded.  Time must not run backwards; a
    repeated call at the last event time is a no-op so event times stay
    strictly increasing.
    """
    if state.last_event_time is not None and t < state.last_event_time:
        raise ValueError(
            f"trigger stepped backwards: t = {t} < last event {state.last_event_time}"
        )
    if state.held_gradient is None:
        fire = True
    else:
        e = error_vector(state.held_gradient, current)
        fire = trigger_value(current, e, c) < 0.0 and t > state.last_event_time
    if fire:
        control = control_input(gain, current)
        state.held_gradient = current
        state.held_control = control
        state.last_event_time = t
        state.events.append(TriggerEvent(t, current, control))
    return fire
