"""Trace and metrics export.

The CSV header is part of the external contract and must stay bit-exact:

    t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event

Floats are written with 17 significant digits so that re-parsing
reproduces them bit-exactly.  Averaged-loop traces carry one extra
trailing ``system`` column with the literal value ``average``.  Rows are
written in blocks with one ``%``-format per row, and traces are read back
with :func:`numpy.loadtxt`, whose float parser is correctly rounded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from etseek.trace import TRACE_COLUMNS, RunMetrics, SimulationTrace

CSV_HEADER = "t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event"

#: Rows formatted per write; bounds the text held in memory at once.
_CHUNK_ROWS = 4096


def _run_text(col: np.ndarray) -> np.ndarray | None:
    """Per-row ``.17g`` text of a column made of few constant runs, else None.

    Held columns (the zero-order-hold control) change only at events, so
    formatting each run once saves most of their conversions.
    """
    bits = col.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 4 * starts.shape[0] > col.shape[0]:
        return None
    texts = np.array(["%.17g" % v for v in col[starts].tolist()], dtype=object)
    return texts.repeat(np.diff(np.append(starts, col.shape[0])))


def export_trace(trace: SimulationTrace, path: str | Path) -> None:
    path = Path(path)
    marker = trace.system != "full"
    header = CSV_HEADER + (",system" if marker else "")
    columns = []
    formats = []
    for name in TRACE_COLUMNS[:-1]:
        col = trace.column(name)
        text = _run_text(col)
        columns.append(col if text is None else text)
        formats.append("%.17g" if text is None else "%s")
    columns.append(trace.event)
    row_format = ",".join(formats + ["%d"])
    if marker:
        row_format += "," + trace.system.replace("%", "%%")
    row_format += "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(header + "\n")
            for a in range(0, len(trace), _CHUNK_ROWS):
                block = zip(*[col[a:a + _CHUNK_ROWS].tolist() for col in columns])
                handle.write("".join([row_format % row for row in block]))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def import_trace(path: str | Path) -> SimulationTrace:
    """Re-parse an exported trace; its event log is the event-flagged rows."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header not in (CSV_HEADER, CSV_HEADER + ",system"):
                raise ValueError(f"unexpected trace header in {path}: {header!r}")
            first = next((line for line in handle if line.strip()), "")
            if first:
                handle.seek(0)
                data = np.loadtxt(
                    handle, delimiter=",", skiprows=1, usecols=range(len(TRACE_COLUMNS)),
                    ndmin=2, comments=None,
                )
            else:
                data = np.empty((0, len(TRACE_COLUMNS)))
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    parts = first.rstrip("\n").split(",")
    system = parts[len(TRACE_COLUMNS)] if len(parts) > len(TRACE_COLUMNS) else "full"
    columns = {name: data[:, j] for j, name in enumerate(TRACE_COLUMNS)}
    columns["event"] = columns["event"].astype(np.int64)
    return SimulationTrace(system=system, **columns)


def export_metrics(metrics: RunMetrics | dict, path: str | Path) -> None:
    """Write metrics as JSON with the stable key names."""
    payload = metrics.as_dict() if isinstance(metrics, RunMetrics) else metrics
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc
