"""Static event trigger and the zero-order-hold control law it gates.

Events fire at the first time where

    Xi = sigma*||Ghat|| - alpha*(||e|| + bias) < 0,

with e the deviation of the gradient estimate from its value at the last
event and bias the constant a1*omega3*|J_2(a3)| (:func:`trigger_bias`)
that dominates the norm of the averaged disturbance.  Between events the
control is held constant; t = 0 is always an event.

The full-plant and averaged loops inline this rule over local floats as
``i == 0 or xi < 0.0`` on grid row i: each fires on the Xi it records in
the trace, and reads its event log off the trace's event-flagged rows.
:class:`TriggerState`, :func:`step_trigger` and :class:`TriggerEvent` are
the composable form of the same rule, which no production loop calls.
The tests check the full loop against :func:`step_trigger` bit for bit.
The averaged loop's Xi squares G with ``g * g`` where
:func:`trigger_value` uses ``** 2``, so its reference fires on the Xi it
records and latches with :func:`control_input`.

Holds, for every update policy: hold blocks and the held control.

Between updates the latched control is constant, and a hold can last for
the rest of a run (the 60 s ``paper_siv`` run holds for its last 56 s in
the full loop, and for its last 59.9 s in the averaged loop).  The loops
hand a hold's rows to :func:`run_blocks`, which computes them in blocks
and hands back to the scalar loop where the hold ends.
A trigger's hold ends at the first row that fires; both loops fire on the
Xi they record, so the runner reads that rule off the block's ``xi``
column.  A sample clock's hold ends at its next firing row, known in
advance, whatever Xi's sign.  Blocks read their times off the trace's
``t``, filled before the run; :func:`fill_control` writes u after it.

Each loop supplies its fold: its scalar step's arithmetic done
elementwise over a block, in a closure that reads the loop's constants
and latched values, which stay fixed through the hold it computes.  A
running state is a left fold (``np.add.accumulate``) of the same
increments, so it equals ``+=``; every ``** 2`` is ``np.float_power``,
libm ``pow`` like Python's, and every ``g * g`` stays a product; sin and
cos are numpy's, which must give ``math``'s bits (numpy does not promise
it, so a test checks it).  The trace is therefore bit-identical to
stepping.  A block also hands back the first row whose q fails the
loops' finiteness check, or whose Xi is not finite because a square
overflowed, so both paths raise
:class:`~etseek.trace.NonFiniteStateError` at the same row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from etseek.trace import Q_LIMIT, ScenarioError, SimulationTrace
from etseek.vehicle import DitherParams, GradientEstimate, bessel_j


@dataclass(frozen=True)
class TriggerConstants:
    """sigma in (0, 1) and alpha > 0, each refused under its file key."""

    sigma: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma < 1.0):
            raise ScenarioError("trigger.sigma", f"must lie in (0, 1), got {self.sigma}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ScenarioError("trigger.alpha", f"must be > 0, got {self.alpha}")


def trigger_bias(d: DitherParams) -> float:
    """a1*omega3*|J_2(a3)|; refuses |a3| > 10 as ``dithers.a3``, an overflow as ``dithers``."""
    try:
        bias = d.a1 * d.omega3 * abs(bessel_j(2, d.a3))
    except ValueError as exc:
        raise ScenarioError("dithers.a3", str(exc)) from exc
    if not (math.isfinite(bias) and bias >= 0.0):
        msg = f"trigger bias a1*omega3*|J_2(a3)|: must be finite and >= 0, got {bias}"
        raise ScenarioError("dithers", msg)
    return bias


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
    current: GradientEstimate, e: tuple[float, float, float], c: TriggerConstants, bias: float
) -> float:
    """Xi = sigma*||Ghat|| - alpha*(||e|| + bias), Euclidean norms."""
    g_norm = math.sqrt(current[0] ** 2 + current[1] ** 2 + current[2] ** 2)
    e_norm = math.sqrt(e[0] ** 2 + e[1] ** 2 + e[2] ** 2)
    return c.sigma * g_norm - c.alpha * (e_norm + bias)


def control_input(gain: GainMatrix, latched: GradientEstimate) -> tuple[float, float]:
    """Zero-order-hold control u = -K * Ghat(t_k)."""
    r0, r1 = gain.rows
    return (
        -(r0[0] * latched[0] + r0[1] * latched[1] + r0[2] * latched[2]),
        -(r1[0] * latched[0] + r1[1] * latched[1] + r1[2] * latched[2]),
    )


def trigger_floor(c: TriggerConstants, bias: float) -> float:
    """Radius 2*(alpha/sigma)*bias of the steady-state trigger floor ball."""
    return 2.0 * (c.alpha / c.sigma) * bias


def step_trigger(
    state: TriggerState,
    t: float,
    current: GradientEstimate,
    c: TriggerConstants,
    bias: float,
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
        fire = trigger_value(current, e, c, bias) < 0.0 and t > state.last_event_time
    if fire:
        control = control_input(gain, current)
        state.held_gradient = current
        state.held_control = control
        state.last_event_time = t
        state.events.append(TriggerEvent(t, current, control))
    return fire


# Blocks span up to _MAX_BLOCK rows (about 1 MB of temporaries); a trigger's
# hold, of unknown length, starts at _FIRST_BLOCK rows and doubles.  A first
# block costs as much as 40 (averaged) to 60 (full) scalar steps, so short
# holds stay scalar: a trigger's for _SCALAR_HOLD steps, as inside the
# trigger-floor ball, and a clock's unless its period spans _SCALAR_HOLD // 2.
_SCALAR_HOLD = 128
_FIRST_BLOCK = 256
_MAX_BLOCK = 4096


def run_blocks(trace: SimulationTrace, start: int, fold, state: tuple, stop: int | None = None):
    """Fill the rows of a hold from row ``start`` on, block by block.

    ``fold(t, state)`` computes one block from the times ``t`` of its rows
    and the running state at its first row.  It returns ``(states,
    columns)``: the running state at each row and one row past the block,
    and the block's trace columns by name.

    Returns the row where the scalar loop resumes, and the running state
    there: the first row that fails (its ``xi`` is not finite, or its ``|q|``
    exceeds ``Q_LIMIT`` or is NaN) or ends the hold.  A sample clock's hold
    ends at its firing row ``stop``; the trigger's at the first row whose
    ``xi`` is negative, or one past the last row.
    """
    end = len(trace) if stop is None else stop
    width = _FIRST_BLOCK if stop is None else _MAX_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rows = min(width, end - start)
            states, columns = fold(trace.t[start:start + rows], state)
            xi = columns["xi"]
            held = np.isfinite(xi) & (np.abs(columns["q"]) <= Q_LIMIT) & (xi >= 0.0 if stop is None else True)
            k = rows if held.all() else int(held.argmin())
            for name, values in columns.items():
                trace.column(name)[start:start + k] = values[:k]
            start += k
            state = tuple(float(s[k]) for s in states)
            if k < rows or start == end:
                return start, state
            width = min(2 * width, _MAX_BLOCK)


def fill_control(trace: SimulationTrace, gain: GainMatrix) -> None:
    """Write u = -K G at each event row, held up to the next event, with
    the loops' float expression."""
    rows = trace.event_indices()
    widths = np.diff(rows, append=len(trace))
    g1, g2, g3 = trace.g1[rows], trace.g2[rows], trace.g3[rows]
    for u, (k0, k1, k2) in zip((trace.u1, trace.u2), gain.rows):
        u[:] = np.repeat(-(k0 * g1 + k1 * g2 + k2 * g3), widths)


def accumulate(first: float, increments: np.ndarray) -> np.ndarray:
    """``first`` and its running sums with ``increments``, added left to
    right, so bit-identical to ``+=`` in a loop."""
    return np.add.accumulate(np.concatenate(((first,), increments)))


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as Python's float computes it, with libm ``pow``; numpy's
    ``** 2`` is ``x * x``, which differs in the last bit for some doubles."""
    return np.float_power(x, 2.0)
