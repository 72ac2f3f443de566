"""Time-indexed run records, summary metrics, and the errors a run raises.

A trace row's ``xi`` is the trigger value Xi at that row.  The
event-triggered modes (``full`` and ``average``) fire on exactly that
value: a row is an event when it is row 0, or when it is not the last
row and its ``xi`` is negative.  The loops fill ``t`` and ``u1``/``u2``
once per trace, not per row (:func:`etseek.trigger.fill_control`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

#: Most grid steps one run may take.  A trace row is 120 bytes, so this
#: caps a trace at 1.2 GB: 1000 s at the default dt = 1e-4, 16 times the
#: longest shipped run.  ``Scenario.steps`` checks it before any allocation.
MAX_STEPS = 10_000_000


#: Largest |q| a run may reach.  Beyond it the downstream norms would
#: overflow, so both loops treat it like a non-finite state.
Q_LIMIT = 1e100


class ScenarioError(ValueError):
    """Invalid scenario value, annotated with its scenario-file key (section.key)."""

    def __init__(self, context: str, message: str):
        self.context = context
        super().__init__(f"{context}: {message}")


class NonFiniteStateError(RuntimeError):
    """A run's state became non-finite; carries the failure time.

    Both loops raise it at the first row whose signal q is non-finite or
    exceeds :data:`Q_LIMIT` in magnitude, or whose squares overflow.
    """

    def __init__(self, t: float):
        self.t = t
        # To the microsecond, but not in the 301 digits of t = 1e300.
        text = f"{t:.6f}" if abs(t) < 1e9 else repr(t)
        super().__init__(f"state became non-finite at t = {text} s")


@dataclass
class SimulationTrace:
    """One row per integration grid point.

    ``event`` flags the rows where the control was updated; those rows are
    the event log (see :attr:`events`).  ``system`` is "full" for the
    nonlinear plant and "average" for the averaged loop.  :meth:`preallocate`
    puts the float columns in one block, and an averaged trace's estimate
    columns are its pose columns (see there).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    xhat: np.ndarray
    yhat: np.ndarray
    thetahat: np.ndarray
    q: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    xi: np.ndarray
    event: np.ndarray
    system: str = "full"

    @classmethod
    def preallocate(cls, n_rows: int, system: str = "full") -> "SimulationTrace":
        """Empty trace of ``n_rows`` rows (a run's :attr:`etseek.config.Scenario.steps` + 1).

        The float columns are the rows of one C-order ``(k, n_rows)``
        block, each a contiguous 1-D view, so a run makes one allocation
        (glibc can reuse it for the next run, and numpy asks for huge
        pages from 4 MB on) instead of k.  An averaged trace's estimate is
        its pose, so there ``xhat``, ``yhat`` and ``thetahat`` are ``x``,
        ``y`` and ``theta`` and k is 11, not 14.  ``event`` is an array of
        its own.  A view kept from any column keeps the whole block alive.
        """
        alias = {"xhat": "x", "yhat": "y", "thetahat": "theta"} if system == "average" else {}
        own = [name for name in TRACE_COLUMNS if name != "event" and name not in alias]
        cols = dict(zip(own, np.empty((len(own), n_rows))))
        cols.update((hat, cols[pose]) for hat, pose in alias.items())
        return cls(event=np.zeros(n_rows, dtype=np.int64), system=system, **cols)

    def __len__(self) -> int:
        return self.t.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)

    def event_indices(self) -> np.ndarray:
        return np.flatnonzero(self.event == 1)

    @property
    def events(self) -> np.ndarray:
        """Event log: (n_events, 6) rows (time, G1, G2, G3, u1, u2).

        At an event the trace row holds the latched gradient estimate and
        the control applied from then on, so the event-flagged rows are the
        log itself.
        """
        idx = self.event_indices()
        cols = (self.t, self.g1, self.g2, self.g3, self.u1, self.u2)
        return np.column_stack([col[idx] for col in cols])


#: Columns of the exported CSV, in order: the trace's array fields.
TRACE_COLUMNS = tuple(f.name for f in fields(SimulationTrace) if f.name != "system")


@dataclass
class RunMetrics:
    """Summary of a completed run; inter-event times are None below two events."""

    num_steps: int
    num_events: int
    min_inter_event: float | None
    mean_inter_event: float | None
    final_error_norm: float

    def as_dict(self) -> dict:
        """Flat mapping with the stable export key names.

        The five theory keys are always null here; ``verify`` writes the
        theory report to its own JSON.
        """
        theory = ("tau_star", "alpha_min", "hurwitz", "decay_violations", "averaging_sup_error")
        return asdict(self) | dict.fromkeys(theory)


def inter_event_stats(trace: SimulationTrace) -> tuple[float | None, float | None]:
    """(min, mean) gap between the trace's consecutive events; None with < 2 events."""
    event_times = trace.t[trace.event_indices()]
    if event_times.shape[0] < 2:
        return None, None
    gaps = np.diff(event_times)
    return float(gaps.min()), float(gaps.mean())
