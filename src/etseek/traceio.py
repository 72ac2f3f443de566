"""Trace and metrics export.

The CSV header is part of the external contract and must stay bit-exact:

    t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event

Floats are written as ``'%.17g' % v`` would write them, so that
re-parsing reproduces them bit-exactly.  Averaged-loop traces carry one
extra trailing ``system`` column with the literal value ``average``.

The exporter computes that text in numpy, 1024 rows at a time.  For a
finite ``1e-4 <= |v| < 1e14``, ``v = m * 2**(e - 53)`` with an integer
53-bit ``m``; with ``k = floor(log10 |v|)`` and ``p = 16 - k``, the 17
digits are ``m * 5**p`` (an exact 128-bit product of 32-bit limbs)
shifted right by ``53 - e - p`` bits and rounded half to even, accepted
only if they are 17 digits long (``log10`` may misjudge ``k`` next to a
power of ten).  The digits are laid out as ``%g`` lays them out: trailing
zeros dropped, ``0.`` and leading zeros below 1.  Every other value
(zeros, nan, infinities, subnormals, other magnitudes, rejected ``k``)
falls back to ``'%.17g' % v``.  The ``event`` column and the marker are
one text per distinct event value.  Traces are read back with
:func:`numpy.loadtxt`, whose float parser is correctly rounded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from etseek.trace import TRACE_COLUMNS, SimulationTrace

CSV_HEADER = "t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event"

#: Rows encoded per write; bounds the memory the exporter holds at once.
_CHUNK_ROWS = 1024

#: 5**p for the scales p = 16 - k the kernel can ask for (p <= 21 < 23).
_POW5 = np.array([5 ** p for p in range(23)], dtype=np.uint64)

_ZERO, _COMMA, _DOT, _MINUS = (ord(c) for c in "0,.-")

#: Place of each of the 17 digits, counted from 1, as a column.
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _decimal_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)); ``log10`` may make it one off next to a power of ten."""
    return np.floor(np.log10(a)).astype(np.int64)


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``%.17g`` significand and exponent of each value: (ok, q, k).

    Where ``ok``, ``v`` rounds to ``q * 10**(k - 16)`` with ``10**16 <= q <
    10**17``; elsewhere ``q`` and ``k`` are 0.
    """
    a = np.abs(v)
    ok = (a >= 1e-4) & (a < 1e14)
    a = np.where(ok, a, 1.0)
    frac, e = np.frexp(a)
    m = np.ldexp(frac, 53).astype(np.uint64)
    # A k that is one off gives a q of 16 or 18 digits, which the length
    # checks below reject.  With k within one, p = 16 - k lies in [2, 21],
    # the shift in [2, 48] and q below 10**18.
    k = _decimal_exponent(a)
    p = 16 - k
    shift = (53 - e - p).astype(np.uint64)
    # m * 5**p as (hi, lo) 64-bit words; every limb product fits 64 bits.
    scale = _POW5.take(p)
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    s_lo, s_hi = scale & 0xFFFFFFFF, scale >> 32
    low = m_lo * s_lo
    mid = m_lo * s_hi + m_hi * s_lo
    lo = low + (mid << 32)
    hi = m_hi * s_hi + (mid >> 32) + (lo < low)
    # Shift right by ``shift``; ``dropped`` holds the dropped bits at the
    # top of a word, so a tie is 2**63 and rounds to the even q.
    left = 64 - shift
    q = (hi << left) | (lo >> shift)
    dropped = lo << left
    ok &= q >= 10 ** 16
    q += dropped > (2 ** 63 - (q & 1))
    ok &= q < 10 ** 17
    return ok, np.where(ok, q, 0), np.where(ok, k, 0)


def _encode_rows(fields: np.ndarray, tails: list[bytes], tail_of: np.ndarray) -> np.ndarray:
    """CSV bytes of rows: the ``%.17g`` text of each field, then a tail.

    ``fields`` is (rows, cols) float64; every field is followed by a
    comma.  Row ``r`` ends with the bytes ``tails[tail_of[r]]``.
    """
    rows, cols = fields.shape
    v = fields.ravel()
    ok, q, k = _digits17(v)
    digits = np.empty((17, v.shape[0]), dtype=np.uint8)
    high9 = q // 10 ** 8
    low8 = (q - high9 * 10 ** 8).astype(np.uint32)
    high9 = high9.astype(np.uint32)
    for i in range(16, -1, -1):  # numpy's ``//`` by a scalar is much faster than ``%``
        part = low8 if i > 8 else high9
        rest = part // 10
        digits[i] = part - rest * 10
        part[:] = rest
    # Significant digits, up to the last nonzero one; 0 outside ``ok``.
    nz = ((digits != 0) * _PLACES).max(axis=0)
    digits += _ZERO
    neg = ok & (v < 0.0)
    lead = np.maximum(-k, 0)  # "0." and the zeros before the first digit
    length = neg + lead + np.maximum(nz, k + 1) + (nz > k + 1)
    slow = np.flatnonzero(~ok)
    texts = [("%.17g" % x).encode() for x in v[slow].tolist()]
    length[slow] = [len(t) for t in texts]

    width = np.empty((rows, cols + 1), dtype=np.int64)
    width[:, :cols] = (length + 1).reshape(rows, cols)
    width[:, cols] = np.array([len(t) for t in tails], dtype=np.int64)[tail_of]
    start = np.cumsum(width.ravel()).reshape(rows, cols + 1) - width
    total = int(start[-1, -1] + width[-1, -1])
    tail_start = start[:, cols]
    start = start[:, :cols].ravel()

    # Slots left unwritten stay "0" (leading and integer zeros).  Digits
    # past a field's last significant one land on its comma slot, which is
    # written afterwards.
    buf = np.full(total, _ZERO, dtype=np.uint8)
    base = start + neg + lead
    comma = start + length
    for i in range(17):
        buf[np.minimum(base + i + (k < i), comma)] = digits[i]
    buf[comma] = _COMMA
    buf[start[neg]] = _MINUS
    buf[(base + k + 1)[nz > k + 1]] = _DOT
    for j, text in zip(slow.tolist(), texts):
        buf[start[j]:start[j] + len(text)] = np.frombuffer(text, dtype=np.uint8)
    for u, text in enumerate(tails):
        at = tail_start[tail_of == u]
        for j, byte in enumerate(text):
            buf[at + j] = byte
    return buf


def export_trace(trace: SimulationTrace, path: str | Path) -> None:
    """Write the trace as CSV; see the module docstring for the text."""
    path = Path(path)
    marker = "," + trace.system if trace.system != "full" else ""
    header = CSV_HEADER + (",system" if marker else "") + "\n"
    values, tail_of = np.unique(trace.event, return_inverse=True)
    tails = [("%d" % v + marker + "\n").encode() for v in values.tolist()]
    columns = [trace.column(name) for name in TRACE_COLUMNS[:-1]]
    try:
        with open(path, "wb") as handle:
            handle.write(header.encode())
            for a in range(0, len(trace), _CHUNK_ROWS):
                b = a + _CHUNK_ROWS
                fields = np.column_stack([col[a:b] for col in columns])
                handle.write(_encode_rows(fields, tails, tail_of[a:b]))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def import_trace(path: str | Path) -> SimulationTrace:
    """Re-parse an exported trace; its event log is the event-flagged rows.

    Raises ValueError for an unknown header, a data row whose ``system``
    marker does not match the header or the first row's, or an ``event``
    value other than 0 or 1.
    """
    path = Path(path)
    width = len(TRACE_COLUMNS)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            if header not in (CSV_HEADER, CSV_HEADER + ",system"):
                raise ValueError(f"unexpected trace header in {path}: {header!r}")
            marked = header != CSV_HEADER
            first = next((line for line in handle if line.strip()), "")
            fields = first.rstrip("\n").split(",")
            system = fields[width] if len(fields) > width else "full"
            if first and (len(fields) > width) != marked:
                raise ValueError(
                    f"data row 1 of {path} does not match its header "
                    f"({'missing' if marked else 'unexpected'} system marker)"
                )
            data = np.empty((0, width + marked))
            if first:
                handle.seek(0)
                # Given max_rows, loadtxt allocates the table once, not a quarter more at a time.
                rows = sum(line != "\n" for line in handle) - 1
                handle.seek(0)
                # Without usecols, loadtxt refuses a row whose field count
                # differs from the first row's; each marker reads as 1.0
                # where it equals the first row's.
                try:
                    data = np.loadtxt(
                        handle, delimiter=",", skiprows=1, max_rows=rows, ndmin=2, comments=None,
                        converters={width: system.__eq__} if marked else None,
                    )
                except ValueError as exc:
                    if "number of columns changed" not in str(exc):
                        raise
                    changed = str(exc).split(";")[0]
                    raise ValueError(
                        f"a data row of {path} does not match its header: {changed}"
                    ) from None
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    if marked and not data[:, width].all():
        row = int(data[:, width].argmin()) + 1
        raise ValueError(
            f"data row {row} of {path} does not match its header "
            f"(system marker differs from row 1's {system!r})"
        )
    event = data[:, width - 1]
    bad = np.flatnonzero((event != 0.0) & (event != 1.0))
    if bad.size:
        raise ValueError(
            f"event in data row {bad[0] + 1} of {path} is {event[bad[0]]!r}; must be 0 or 1"
        )
    columns = {name: data[:, j] for j, name in enumerate(TRACE_COLUMNS)}
    columns["event"] = event.astype(np.int64)
    return SimulationTrace(system=system, **columns)


def export_metrics(payload: dict, path: str | Path) -> None:
    """Write a metrics mapping as JSON, in its key order."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc
