"""Holds, for both event-triggered loops: hold blocks and the held control.

Between events the latched control is constant, and a hold can last for
the rest of a run (the 60 s ``paper_siv`` run holds for its last 56 s in
the full loop, and for its last 59.9 s in the averaged loop).  Once a hold
has lasted ``_SCALAR_HOLD`` steps, the event-triggered loops hand its
rows to :func:`run_blocks`, which computes them in blocks of doubling
width and hands back to the scalar loop at the first row that fires.
Both loops fire on the Xi they record, so the runner reads that rule off
the block's ``xi`` column.  Blocks read their times off the trace's
``t``, filled before the run; :func:`fill_control` writes u after it.

Each loop supplies its fold: its scalar step's arithmetic done
elementwise over a block.  A running state is a left fold
(``np.add.accumulate``) of the same increments, so it equals ``+=``;
every ``** 2`` is ``np.float_power``, libm ``pow`` like Python's, and
every ``g * g`` stays a product; sin and cos are numpy's, which must
give ``math``'s bits (numpy does not promise it, so a test checks it).
The trace is therefore bit-identical to stepping.  A block also hands
back the first row whose q fails the loops' finiteness check, or whose
Xi is not finite because a square overflowed, so both paths raise
:class:`~etseek.trace.NonFiniteStateError` at the same row.
"""

from __future__ import annotations

import numpy as np

from etseek.trace import Q_LIMIT, SimulationTrace
from etseek.trigger import GainMatrix

# Hold blocks start at _FIRST_BLOCK rows and double up to _MAX_BLOCK (about
# 1 MB of temporaries).  A first block costs about as much as 40 (averaged)
# to 60 (full) scalar steps, so short holds, as inside the trigger-floor
# ball, stay on the scalar path.
_SCALAR_HOLD = 128
_FIRST_BLOCK = 256
_MAX_BLOCK = 4096


def run_blocks(trace: SimulationTrace, start: int, fold, state: tuple):
    """Fill the rows of a hold from row ``start`` on, block by block.

    ``fold(t, state)`` computes one block from the times ``t`` of its rows
    and the running state at its first row.  It returns ``(states,
    columns)``: the running state at each row and one row past the block,
    and the block's trace columns by name.

    Returns the row where the scalar loop resumes, and the running state
    there: the first row that fires (its ``xi`` is negative or not finite)
    or fails (its ``|q|`` exceeds ``Q_LIMIT`` or is NaN), or one past the
    last row once the hold reaches it.
    """
    n = len(trace) - 1
    width = _FIRST_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rows = min(width, n + 1 - start)
            states, columns = fold(trace.t[start:start + rows], state)
            xi = columns["xi"]
            held = np.isfinite(xi) & (xi >= 0.0) & (np.abs(columns["q"]) <= Q_LIMIT)
            k = rows if held.all() else int(held.argmin())
            for name, values in columns.items():
                trace.column(name)[start:start + k] = values[:k]
            start += k
            state = tuple(float(s[k]) for s in states)
            if k < rows or start > n:
                return start, state
            width = min(2 * width, _MAX_BLOCK)


def fill_control(trace: SimulationTrace, gain: GainMatrix) -> None:
    """Write u = -K G at each event row, held up to the next event, with
    the loops' float expression; rows before the first event hold 0."""
    rows = trace.event_indices()
    widths = np.diff(rows, prepend=0, append=len(trace))
    g1, g2, g3 = trace.g1[rows], trace.g2[rows], trace.g3[rows]
    for u, (k0, k1, k2) in zip((trace.u1, trace.u2), gain.rows):
        u[:] = np.repeat(np.append(0.0, -(k0 * g1 + k1 * g2 + k2 * g3)), widths)


def accumulate(first: float, increments: np.ndarray) -> np.ndarray:
    """``first`` and its running sums with ``increments``, added left to
    right, so bit-identical to ``+=`` in a loop."""
    return np.add.accumulate(np.concatenate(((first,), increments)))


def square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` as Python's float computes it, with libm ``pow``; numpy's
    ``** 2`` is ``x * x``, which differs in the last bit for some doubles."""
    return np.float_power(x, 2.0)
