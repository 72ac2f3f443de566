"""Time-indexed run records and summary metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from etseek.analysis import TheoryReport

#: Columns of the exported CSV, in order.
TRACE_COLUMNS = (
    "t",
    "x",
    "y",
    "theta",
    "xhat",
    "yhat",
    "thetahat",
    "q",
    "g1",
    "g2",
    "g3",
    "u1",
    "u2",
    "xi",
    "event",
)


@dataclass
class SimulationTrace:
    """One row per integration grid point.

    ``event`` flags the rows where the control was updated; those rows are
    the event log (see :attr:`events`).  ``system`` is "full" for the
    nonlinear plant and "average" for the averaged loop.
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
        cols = {name: np.empty(n_rows) for name in TRACE_COLUMNS if name != "event"}
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


@dataclass
class RunMetrics:
    """Summary of a completed run; inter-event times are None below two events."""

    num_steps: int
    num_events: int
    min_inter_event: float | None
    mean_inter_event: float | None
    final_error_norm: float
    theory: "TheoryReport | None" = None

    def as_dict(self) -> dict:
        """Flat mapping with the stable export key names."""
        th = self.theory
        return {
            "num_steps": self.num_steps,
            "num_events": self.num_events,
            "min_inter_event": self.min_inter_event,
            "mean_inter_event": self.mean_inter_event,
            "final_error_norm": self.final_error_norm,
            "tau_star": None if th is None else th.tau_star,
            "alpha_min": None if th is None else th.alpha_min,
            "hurwitz": None if th is None else th.hurwitz,
            "decay_violations": None if th is None else th.envelope_violations,
            "averaging_sup_error": None if th is None else th.averaging_sup_error,
        }


def inter_event_stats(event_times: np.ndarray) -> tuple[float | None, float | None]:
    """(min, mean) gap between consecutive events; None with < 2 events."""
    if event_times.shape[0] < 2:
        return None, None
    gaps = np.diff(event_times)
    return float(gaps.min()), float(gaps.mean())
