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
one text per distinct event value.

Both directions cut the rows into parts by one rule (:func:`_split`)
and run parts in forked children by one runner (:func:`_in_children`),
each child writing into an unnamed spill file in the temporary
directory.  The exporter encodes the first part while a child encodes
each later one, a chunk at a time, and copies the spills in row order
with ``os.sendfile``; it encodes a part itself where its spill, fork or
child fails.  Traces are read back with :func:`numpy.loadtxt`, whose
correctly rounded parse of 17-digit fields is nearly all of an import,
so the importer scans the file once for its newlines and parses each
part in a child, whose float64 block the parent reads from its spill
into its slice of the table.  A file that is not LF-only, has a blank
line or gives one part, and a part that fails are parsed in one
``loadtxt`` call, given the scanned row count if any, so every error is
the one it raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from etseek.trace import TRACE_COLUMNS, SimulationTrace

CSV_HEADER = "t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event"

#: Rows encoded per write; bounds the memory the exporter holds at once.
_CHUNK_ROWS = 1024

#: Bytes the importer's row scan reads at a time.
_SCAN_BYTES = 1 << 20

#: Fewest rows of a part: both directions cut ``rows`` rows into one part per
#: usable CPU but at most ``rows // _MIN_PART_ROWS``, and at least one.
_MIN_PART_ROWS = 4096

#: 5**p for the scales p = 16 - k the kernel can ask for (p <= 21 < 23).
_POW5 = np.array([5 ** p for p in range(23)], dtype=np.uint64)

_ZERO, _COMMA, _DOT, _MINUS = (ord(c) for c in "0,.-")

#: Place of each of the 17 digits, counted from 1, as a column.
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _work(work: dict, slot: int, count: int, dtype=np.uint64) -> np.ndarray:
    """``count`` uninitialised items of ``dtype`` in an export's work array ``slot``.

    One export keeps its work arrays in ``work`` from chunk to chunk, so
    each is allocated once (and again only if a later chunk needs more
    bytes) instead of once per chunk, which glibc would return to the OS
    and fault in again.  Arrays that are never live at the same time
    share a slot.
    """
    size = count * np.dtype(dtype).itemsize
    if slot not in work or work[slot].shape[0] < size:
        work[slot] = np.empty(size, dtype=np.uint8)
    return work[slot][:size].view(dtype)


def _decimal_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) as floats; ``log10`` may make it one off next to a power of ten."""
    e = np.log10(a)
    return np.floor(e, out=e)


def _digits17(v: np.ndarray, work: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``%.17g`` significand and exponent of each value: (ok, q, k).

    Where ``ok``, ``v`` rounds to ``q * 10**(k - 16)`` with ``10**16 <= q <
    10**17``; elsewhere ``q`` and ``k`` are 0.  The three arrays live in
    slots 9, 5 and 4 of ``work``; slots 0-8 are free again on return.
    """
    n = v.shape[0]

    def out(slot, dtype=np.uint64):
        return _work(work, slot, n, dtype)

    a = np.abs(v, out=out(0, np.float64))
    ok = np.greater_equal(a, 1e-4, out=out(9, bool))
    ok &= a < 1e14
    a[~ok] = 1.0
    frac, e = np.frexp(a, out=(out(1, np.float64), out(2, np.int32)))
    m = out(3)
    m[:] = np.ldexp(frac, 53, out=frac)
    # A k that is one off gives a q of 16 or 18 digits, which the length
    # checks below reject.  With k within one, p = 16 - k lies in [2, 21],
    # the shift in [2, 48] and q below 10**18.
    k = out(4, np.int64)
    k[:] = _decimal_exponent(a)
    p = np.subtract(16, k, out=out(0, np.int64))
    shift = np.subtract(53, e, out=out(1, np.int64))
    shift -= p
    shift = shift.view(np.uint64)  # as ``astype`` would convert it
    # m * 5**p as (hi, lo) 64-bit words; every limb product fits 64 bits.
    s_lo = _POW5.take(p, out=out(2))
    m_hi = np.right_shift(m, 32, out=out(0))
    m_lo = np.bitwise_and(m, 0xFFFFFFFF, out=m)
    hi = np.right_shift(s_lo, 32, out=out(5))  # s_hi until the high word
    s_lo &= 0xFFFFFFFF
    low = np.multiply(m_lo, s_lo, out=out(6))
    mid = np.multiply(m_lo, hi, out=out(7))
    mid += np.multiply(m_hi, s_lo, out=s_lo)
    lo = np.left_shift(mid, 32, out=m_lo)
    lo += low
    np.multiply(m_hi, hi, out=hi)
    hi += np.right_shift(mid, 32, out=mid)
    hi += np.less(lo, low, out=out(8, bool))
    # Shift right by ``shift``; ``dropped`` holds the dropped bits at the
    # top of a word, so a tie is 2**63 and rounds to the even q.
    left = np.subtract(64, shift, out=out(0))
    q = np.left_shift(hi, left, out=hi)
    q |= np.right_shift(lo, shift, out=out(6))
    dropped = np.left_shift(lo, left, out=lo)
    ok &= q >= 10 ** 16
    half = np.subtract(2 ** 63, np.bitwise_and(q, 1, out=out(6)), out=out(6))
    q += np.greater(dropped, half, out=out(8, bool))
    ok &= q < 10 ** 17
    rejected = np.logical_not(ok, out=out(8, bool))
    np.copyto(q, 0, where=rejected)
    np.copyto(k, 0, where=rejected)
    return ok, q, k


def _encode_rows(
    fields: np.ndarray, tails: list[bytes], tail_of: np.ndarray, work: dict | None = None
) -> np.ndarray:
    """CSV bytes of rows: the ``%.17g`` text of each field, then a tail.

    ``fields`` is (rows, cols) float64; every field is followed by a
    comma.  Row ``r`` ends with the bytes ``tails[tail_of[r]]``.  The
    result is a view into ``work`` (see :func:`_work`), valid until the
    next call with it; without ``work`` the call allocates its own.
    """
    work = {} if work is None else work
    rows, cols = fields.shape
    v = fields.ravel()
    n = v.shape[0]

    def out(slot, dtype=np.int64, count=n):
        return _work(work, slot, count, dtype)

    ok, q, k = _digits17(v, work)
    digits = out(10, np.uint8, 17 * n).reshape(17, n)
    high = np.floor_divide(q, 10 ** 8, out=out(0, np.uint64))
    q -= np.multiply(high, 10 ** 8, out=out(1, np.uint64))
    low8, high9 = out(2, np.uint32), out(3, np.uint32)
    low8[:], high9[:] = q, high
    rest, tens = out(0, np.uint32), out(1, np.uint32)
    for i in range(16, -1, -1):  # numpy's ``//`` by a scalar is much faster than ``%``
        part = low8 if i > 8 else high9
        np.floor_divide(part, 10, out=rest)
        digits[i] = np.subtract(part, np.multiply(rest, 10, out=tens), out=tens)
        part[:] = rest
    # Significant digits, up to the last nonzero one; 0 outside ``ok``.
    places = out(11, np.uint8, 17 * n).reshape(17, n)
    np.not_equal(digits, 0, out=places.view(bool))
    places *= _PLACES
    nz = places.max(axis=0, out=out(12, np.uint8))
    digits += _ZERO
    neg = np.less(v, 0.0, out=out(13, bool))
    neg &= ok
    lead = np.negative(k, out=out(0))  # "0." and the zeros before the first digit
    np.maximum(lead, 0, out=lead)
    k1 = np.add(k, 1, out=out(1))
    length = np.maximum(nz, k1, out=out(2))
    dot = np.greater(nz, k1, out=out(14, bool))
    length += dot
    length += lead
    length += neg
    slow = np.flatnonzero(~ok)
    texts = [("%.17g" % x).encode() for x in v[slow].tolist()]
    length[slow] = [len(t) for t in texts]

    width = out(3, count=rows * (cols + 1)).reshape(rows, cols + 1)
    np.add(length.reshape(rows, cols), 1, out=width[:, :cols])
    width[:, cols] = np.array([len(t) for t in tails], dtype=np.int64)[tail_of]
    ends = np.cumsum(width, out=out(5, count=rows * (cols + 1))).reshape(rows, cols + 1)
    total = int(ends[-1, -1])
    tail_start = np.subtract(ends[:, cols], width[:, cols], out=out(6, count=rows))
    start = out(7).reshape(rows, cols)
    np.subtract(ends[:, :cols], width[:, :cols], out=start)
    start = start.ravel()

    # Slots left unwritten stay "0" (leading and integer zeros).  Digits
    # past a field's last significant one land on its comma slot, which is
    # written afterwards.
    buf = out(15, np.uint8, total)
    buf[:] = _ZERO
    base = np.add(start, lead, out=lead)
    base += neg
    comma = np.add(start, length, out=length)
    at = out(1)
    for i in range(17):
        np.add(base, i, out=at)
        at += np.less(k, i, out=out(8, bool))
        buf[np.minimum(at, comma, out=at)] = digits[i]
    buf[comma] = _COMMA
    buf[start[neg]] = _MINUS
    np.add(base, k, out=at)
    at += 1
    buf[at[dot]] = _DOT
    for j, text in zip(slow.tolist(), texts):
        buf[start[j]:start[j] + len(text)] = np.frombuffer(text, dtype=np.uint8)
    for u, text in enumerate(tails):
        at = tail_start[tail_of == u]
        for j, byte in enumerate(text):
            buf[at + j] = byte
    return buf


def export_trace(trace: SimulationTrace, path: str | Path) -> None:
    """Write the trace as CSV; see the module docstring for the text and its parts."""
    path = Path(path)
    marker = "," + trace.system if trace.system != "full" else ""
    header = CSV_HEADER + (",system" if marker else "") + "\n"
    values, tail_of = np.unique(trace.event, return_inverse=True)
    tails = [("%d" % v + marker + "\n").encode() for v in values.tolist()]
    columns = [trace.column(name) for name in TRACE_COLUMNS[:-1]]

    firsts = _split(len(trace))
    parts = range(len(firsts) - 1)

    def encode(i: int, handle) -> None:
        work: dict = {}
        for a in range(firsts[i], firsts[i + 1], _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, firsts[i + 1])
            fields = _work(work, 16, (b - a) * len(columns), np.float64)
            fields = fields.reshape(b - a, len(columns))
            for j, col in enumerate(columns):
                fields[:, j] = col[a:b]
            handle.write(_encode_rows(fields, tails, tail_of[a:b], work))

    try:
        with open(path, "wb") as handle, _in_children(parts[1:], encode) as take:
            handle.write(header.encode())
            for i in parts:
                spill = take(i)
                if spill is None:  # part 0, or a part whose child did not write it
                    encode(i, handle)
                    continue
                handle.flush()
                done, size = 0, os.fstat(spill).st_size
                while done < size:
                    done += os.sendfile(handle.fileno(), spill, done, size - done)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _row_ends(raw) -> np.ndarray | None:
    """Byte offset of the end of the header and of every row, read from a file's start.

    A row ends at its ``\\n``, or at the last byte if it has none.  None
    for a file that is not LF-only or that has a blank line, whose rows
    the newlines do not count.  The file is read ``_SCAN_BYTES`` at a
    time into one reused buffer.
    """
    buf = bytearray(_SCAN_BYTES)
    codes = np.frombuffer(buf, dtype=np.uint8)
    ends, at = [], 0
    while size := raw.readinto(buf):
        if buf.find(b"\r", 0, size) >= 0:
            return None
        found = np.flatnonzero(codes[:size] == 10)
        found += at
        ends.append(found)
        at += size
    ends = np.concatenate(ends)
    if (np.diff(ends) == 1).any():
        return None
    if ends[-1] != at - 1:
        ends = np.append(ends, at - 1)
    return ends


def _usable_cpus() -> int:
    """CPUs this process may run on, or 0 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 0
    return len(os.sched_getaffinity(0))


def _split(rows: int) -> list[int]:
    """The first row of each part of ``rows`` rows, then ``rows``; see ``_MIN_PART_ROWS``."""
    parts = max(1, min(_usable_cpus(), rows // _MIN_PART_ROWS))
    return [rows * i // parts for i in range(parts + 1)]


def _fork() -> int:
    # Python 3.12+ warns when a process with more than one thread forks,
    # and numpy's OpenBLAS starts a worker thread at import.  The child
    # only parses or encodes text with numpy and leaves through os._exit,
    # so it takes no lock that another thread could hold.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


@contextlib.contextmanager
def _in_children(parts, work):
    """Run ``work(part, spill)`` for each part in a forked child; yield ``take``.

    For each part the parent opens an unnamed spill in the temporary
    directory (:func:`tempfile.TemporaryFile`, which follows ``TMPDIR``)
    and forks; the child writes the part to the spill, flushes it and
    leaves through ``os._exit``, with status 0 only if ``work`` returned.
    So it flushes no stdio buffer copied from the parent and never
    returns into the parent's code.  ``take(part)`` waits for that child
    and returns the spill's descriptor if it exited 0, else None: no
    spill, no fork, or a child that failed or whose status is lost.  On
    leaving, every child is reaped and every spill closed.
    """
    spills, pids = {}, {}
    try:
        for part in parts:
            with contextlib.suppress(OSError):  # that part gets no child
                spills[part] = tempfile.TemporaryFile()
                pids[part] = _fork()
            if pids.get(part) == 0:
                status = 1
                try:
                    work(part, spills[part])
                    spills[part].flush()
                    status = 0
                finally:
                    os._exit(status)

        def take(part):
            pid = pids.pop(part, None)
            return None if pid is None or _exit_code(pid) else spills[part].fileno()

        yield take
    finally:
        for pid in pids.values():
            _exit_code(pid)
        for spill in spills.values():
            spill.close()


def _parse_in_parts(path: Path, cols: int, load) -> tuple[np.ndarray | None, int | None]:
    """The data rows of ``path`` as a (rows, cols) table, parsed in parts, and ``rows``.

    ``load(lines, rows)`` parses the next ``rows`` rows of ``lines``, in a
    forked child per part (:func:`_in_children`), which writes its
    float64 block to its spill; the parent reads each spill into its
    slice of the table.  The table is None if the file gives fewer than
    two parts or if a part fails; ``rows`` is None if the file cannot be
    split (see :func:`_row_ends`).
    """
    with open(path, "rb") as raw:
        ends = _row_ends(raw)
    if ends is None:
        return None, None
    rows = ends.size - 1
    firsts = _split(rows)
    if len(firsts) < 3:
        return None, rows
    starts = (ends[firsts[:-1]] + 1).tolist()
    del ends

    def parse(i: int, spill) -> None:
        raw, n = open(path, "rb"), firsts[i + 1] - firsts[i]
        raw.seek(starts[i])
        with io.TextIOWrapper(raw, encoding="utf-8") as lines:
            block = load(lines, n)
        if block.shape == (n, cols):  # else the parent's read of the spill falls short
            spill.write(block)

    parts = range(len(starts))
    try:
        with _in_children(parts, parse) as take:
            table = np.empty((rows, cols))
            for i in parts:
                # One read returns at most 2 GiB: a larger part is parsed again.
                part, spill = table[firsts[i]:firsts[i + 1]], take(i)
                if spill is None or os.preadv(spill, [part], 0) < part.nbytes:
                    return None, rows
    except OSError:
        # The one-call parse that follows reports the error exactly.
        return None, rows
    return table, rows


def _exit_code(pid: int) -> int:
    """A child's exit code, once it has exited; 1 if its status is lost."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:  # reaped by the kernel in a process that ignores SIGCHLD
        return 1


def import_trace(path: str | Path) -> SimulationTrace:
    """Re-parse an exported trace; its event log is the event-flagged rows.

    Raises ValueError for an unknown header, a data row whose ``system``
    marker does not match the header or the first row's, or an ``event``
    value other than 0 or 1.  The rows are parsed in forked children, one
    per usable CPU (see :func:`_parse_in_parts`); where that gives fewer
    than two parts or fails, they are parsed in one ``loadtxt`` call,
    whose error names the row.
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

            def load(lines, rows):
                # Without usecols, loadtxt refuses a row whose field count
                # differs from the first row's; each marker reads as 1.0
                # where it equals the first row's.  Given max_rows, it
                # allocates its table once and reads no line past that row.
                return np.loadtxt(
                    lines, delimiter=",", max_rows=rows, ndmin=2, comments=None,
                    converters={width: system.__eq__} if marked else None,
                )

            data = np.empty((0, width + marked))
            if first:
                data, rows = _parse_in_parts(path, width + marked, load)
            if data is None:
                handle.seek(0)
                handle.readline()
                try:
                    data = load(handle, rows)
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
            f"event in data row {bad[0] + 1} of {path} is {float(event[bad[0]])!r}; must be 0 or 1"
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
