import errno
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etseek import traceio
from etseek.config import load_scenario
from etseek.engine import run_simulation
from etseek.trace import TRACE_COLUMNS, RunMetrics, SimulationTrace
from etseek.traceio import CSV_HEADER, export_metrics, export_trace, import_trace

METRIC_KEYS = [
    "num_steps",
    "num_events",
    "min_inter_event",
    "mean_inter_event",
    "final_error_norm",
    "tau_star",
    "alpha_min",
    "hurwitz",
    "decay_violations",
    "averaging_sup_error",
]

#: The averaged loop's estimate columns and the pose columns they equal.
POSE_OF_ESTIMATE = {"xhat": "x", "yhat": "y", "thetahat": "theta"}


def test_header_is_exact(tmp_path, smallgain_scenario):
    sc = replace(smallgain_scenario, t_final=0.01)
    trace, _ = run_simulation(sc)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    first = path.read_text().splitlines()[0]
    assert first == "t,x,y,theta,xhat,yhat,thetahat,Q,G1,G2,G3,u1,u2,xi,event"
    assert first == CSV_HEADER


def test_empty_trace_is_header_only(tmp_path):
    trace = SimulationTrace.preallocate(0)
    path = tmp_path / "empty.csv"
    export_trace(trace, path)
    assert path.read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize("header", [CSV_HEADER, CSV_HEADER + ",system"])
def test_header_only_imports_as_empty_trace(tmp_path, header):
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = import_trace(path)
    assert len(back) == 0
    assert back.event.dtype == np.int64
    # A marked header means an averaged-loop trace, rows or none.
    assert back.system == ("full" if header == CSV_HEADER else "average")
    for name in TRACE_COLUMNS:
        assert back.column(name).shape == (0,)


def test_single_row_full_precision(tmp_path):
    trace = SimulationTrace.preallocate(1)
    values = [0.0, 0.1 + 0.2, -1.0 / 3.0, 1e-17, 12.5, 7.75, 0.9, 0.6129221610959811,
              0.0, 4.903377288767849, 0.0, -4.3822, 9.4326, -0.05967784574443115]
    for name, v in zip(
        ("t", "x", "y", "theta", "xhat", "yhat", "thetahat", "q",
         "g1", "g2", "g3", "u1", "u2", "xi"), values,
    ):
        getattr(trace, name)[0] = v
    trace.event[0] = 1
    path = tmp_path / "one.csv"
    export_trace(trace, path)
    body = path.read_text().splitlines()[1]
    parsed = [float(tok) for tok in body.split(",")[:-1]]
    assert parsed == values


def test_held_columns_format_like_the_rest(tmp_path):
    # u1 is made of constant runs of values that take the fallback path
    # (signed zeros, nan, inf) and of values that the kernel formats.
    u1 = np.repeat([0.0, -0.0, 0.1 + 0.2, float("nan"), float("inf"), -1.0 / 3.0], 8)
    rng = np.random.default_rng(7)
    trace = SimulationTrace.preallocate(len(u1))
    for name in TRACE_COLUMNS[:-1]:
        trace.column(name)[:] = rng.standard_normal(len(u1)) * 10.0 ** rng.integers(-20, 20)
    trace.u1[:] = u1
    trace.event[::5] = 1
    path = tmp_path / "held.csv"
    export_trace(trace, path)
    for i, line in enumerate(path.read_text().splitlines()[1:]):
        expected = [format(float(trace.column(name)[i]), ".17g") for name in TRACE_COLUMNS[:-1]]
        assert line.split(",") == expected + [str(int(trace.event[i]))]


def test_round_trip_bitwise(tmp_path, smallgain_scenario):
    for mode in ("full", "average"):
        sc = replace(smallgain_scenario, t_final=0.02, mode=mode)
        trace, _ = run_simulation(sc)
        path = tmp_path / f"{mode}.csv"
        export_trace(trace, path)
        back = import_trace(path)
        for name in TRACE_COLUMNS:
            assert trace.column(name).tobytes() == back.column(name).tobytes(), (mode, name)
        assert trace.events.shape[0] > 0
        assert back.events.tobytes() == trace.events.tobytes(), mode
        assert back.event.dtype == np.int64
        assert back.system == trace.system == mode
        again = tmp_path / f"{mode}-again.csv"
        export_trace(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_average_trace_carries_marker(tmp_path, smallgain_scenario):
    sc = replace(smallgain_scenario, mode="average", t_final=0.01)
    trace, _ = run_simulation(sc)
    path = tmp_path / "avg.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER + ",system"
    assert lines[1].endswith(",average")
    back = import_trace(path)
    assert back.system == "average"
    for hat, pose in POSE_OF_ESTIMATE.items():
        assert back.column(hat).tobytes() == back.column(pose).tobytes(), hat


@pytest.mark.parametrize("system, blocked", [("full", 14), ("average", 11)])
def test_preallocated_float_columns_are_rows_of_one_block(system, blocked):
    trace = SimulationTrace.preallocate(1000, system)
    floats = [trace.column(name) for name in TRACE_COLUMNS if name != "event"]
    block = floats[0].base
    assert block.shape == (blocked, 1000) and block.flags.c_contiguous
    for column in floats:
        assert column.base is block
        assert column.shape == (1000,) and column.flags.c_contiguous
    assert len({id(column) for column in floats}) == blocked
    assert trace.event.dtype == np.int64 and trace.event.base is None
    assert not trace.event.any()


def test_averaged_estimate_columns_are_the_pose_columns():
    trace = SimulationTrace.preallocate(10, "average")
    for hat, pose in POSE_OF_ESTIMATE.items():
        assert trace.column(hat) is trace.column(pose)


def test_full_estimate_columns_are_their_own():
    trace = SimulationTrace.preallocate(10, "full")
    for hat, pose in POSE_OF_ESTIMATE.items():
        trace.column(hat)[:] = 1.0
        trace.column(pose)[:] = 2.0
        assert (trace.column(hat) == 1.0).all(), hat


def test_metrics_keys_and_round_trip(tmp_path, smallgain_scenario):
    sc = replace(smallgain_scenario, t_final=0.01)
    _, metrics = run_simulation(sc)
    path = tmp_path / "metrics.json"
    export_metrics(metrics.as_dict(), path)
    import json

    payload = json.loads(path.read_text())
    assert list(payload.keys()) == METRIC_KEYS
    assert payload["num_steps"] == metrics.num_steps
    assert payload["tau_star"] is None


def test_metrics_none_below_two_events():
    m = RunMetrics(10, 1, None, None, 0.5)
    payload = m.as_dict()
    assert payload["min_inter_event"] is None
    assert payload["mean_inter_event"] is None


#: sha256 of the CSV of 2 s runs, written by the row-at-a-time ``'%.17g'``
#: exporter that the vectorized kernel replaced.
GOLDEN_CSV = {
    ("paper_siv.cfg", "full"): "eb85a99bcc40baace70f21615e297f8b05b720d9d40eb71db4c3870b76ef450f",
    ("smallgain.cfg", "full"): "7c155d4e5b7d37c228df59c5f1835a6116abda040f48c1f97e516deb3a47473c",
    ("smallgain.cfg", "average"): "8ddc8420a69bde72854d21e9837cbe63e32e9a236d2a2b4811d29fd3b1bc492c",
}


@pytest.mark.parametrize(("name", "mode"), list(GOLDEN_CSV))
def test_csv_bytes_are_pinned(tmp_path, name, mode):
    sc = replace(load_scenario(name), t_final=2.0, mode=mode)
    trace, _ = run_simulation(sc)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[(name, mode)]


def kernel_texts(values) -> list[str]:
    """The exporter's text of each value, one value per row."""
    v = np.asarray(values, dtype=np.float64)
    csv = traceio._encode_rows(v.reshape(-1, 1), [b"\n"], np.zeros(v.shape[0], np.int64), {})
    return [line[:-1] for line in csv.tobytes().decode().split("\n")[:-1]]


def percent_texts(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _edge_values() -> list[float]:
    values = [0.0, float("nan"), float("inf"), 5e-324, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
              100.0, 0.5, 0.001, 123.0, 0.1 + 0.2, 1.0 / 3.0,
              # exact ties of the 17th digit: to even, down and up
              12345678901234.0625, 12345678901234.1875]
    for edge in (1e-4, 1e14):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    for e in range(-6, 18):
        p = float(f"1e{e}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return values + [-v for v in values]


def test_kernel_edge_values_match_percent_format():
    values = _edge_values()
    assert kernel_texts(values) == percent_texts(values)


@pytest.mark.parametrize("off", [-1, 1])
def test_kernel_rejects_a_misjudged_exponent(monkeypatch, off):
    # Every value the kernel would accept gets a k that is one off, so all
    # of them must fall back to the scalar path and still be exact.
    exact = traceio._decimal_exponent
    monkeypatch.setattr(traceio, "_decimal_exponent", lambda a: exact(a) + off)
    values = _edge_values() + [0.1 + 0.2, -4.3822, 12345.678, 9.999e-5, 7.5e13]
    assert kernel_texts(values) == percent_texts(values)


def test_kernel_matches_percent_format_on_a_seeded_sweep():
    rng = np.random.default_rng(20)
    n = 100_000
    log_uniform = 10.0 ** rng.uniform(-5.0, 15.0, n) * rng.choice([-1.0, 1.0], n)
    scale = 10.0 ** rng.integers(0, 9, n)  # few digits: many trailing zeros
    rounded = np.rint(rng.uniform(-1e6, 1e6, n) * scale) / scale
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    for values in (log_uniform, rounded, bits):
        assert kernel_texts(values) == percent_texts(values)


# Exponent fields of doubles from 2**-14 to 2**47, a superset of the
# kernel's 1e-4 <= |v| < 1e14.
_WINDOW = st.tuples(st.integers(0, 1), st.integers(1023 - 14, 1023 + 47), st.integers(0, 2 ** 52 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_kernel_matches_percent_format_on_any_bits(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert kernel_texts(values) == percent_texts(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WINDOW, min_size=1, max_size=64))
def test_kernel_matches_percent_format_in_its_window(fields):
    bits = [(sign << 63) | (exponent << 52) | mantissa for sign, exponent, mantissa in fields]
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert kernel_texts(values) == percent_texts(values)


def test_export_memory_is_bounded(tmp_path, siv_scenario):
    # The 4 s paper_siv trace of the I/O benchmark; the exporter encodes
    # 1024 rows at a time, so its peak does not grow with the trace.
    trace, _ = run_simulation(replace(siv_scenario, t_final=4.0, mode="full"))
    assert len(trace) == 40_001
    tracemalloc.start()
    try:
        export_trace(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def assert_import_allocates_the_table_once(tmp_path, siv_scenario):
    trace, _ = run_simulation(replace(siv_scenario, t_final=4.0, mode="full"))
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    tracemalloc.start()
    try:
        back = import_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = len(trace) * len(TRACE_COLUMNS) * 8
    assert len(back) == 40_001
    assert peak < 1.05 * table + back.event.nbytes


def test_import_allocates_the_table_once(tmp_path, siv_scenario):
    # Counting the rows first lets loadtxt allocate its table once, instead
    # of regrowing it a quarter at a time to about 1.15 times its size.
    assert_import_allocates_the_table_once(tmp_path, siv_scenario)


@pytest.mark.parametrize("cpus", [0, 1])
def test_one_call_import_allocates_the_table_once(tmp_path, siv_scenario, monkeypatch, cpus):
    # No fork (0) or one part (1): the one loadtxt call is given the
    # scanned row count, so it too allocates its table once.
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    assert_import_allocates_the_table_once(tmp_path, siv_scenario)


def _csv(tmp_path, header, *tails):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + "".join(",".join(["0.5"] * 14) + "," + tail + "\n" for tail in tails))
    return path


@pytest.mark.parametrize("event", ["nan", "0.7", "2", "-1", "inf", "0.5"])
def test_import_rejects_event_values_other_than_0_and_1(tmp_path, event):
    path = _csv(tmp_path, CSV_HEADER, event)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            import_trace(path)
    # The plain float text (0.5), not numpy's repr (np.float64(0.5)).
    assert str(raised.value) == f"event in data row 1 of {path} is {float(event)!r}; must be 0 or 1"


@pytest.mark.parametrize(
    ("header", "tails"),
    [
        (CSV_HEADER, ["1,average"]),
        (CSV_HEADER + ",system", ["1"]),
        (CSV_HEADER, ["1", "0,average"]),
        (CSV_HEADER + ",system", ["1,average", "0"]),
        (CSV_HEADER + ",system", ["1,average", "0,full"]),
        (CSV_HEADER + ",system", ["1,banana"]),
    ],
    ids=[
        "marker-under-plain-header",
        "marker-missing",
        "row-2-marker-under-plain-header",
        "row-2-marker-missing",
        "row-2-marker-differs",
        "row-1-marker-not-average",
    ],
)
def test_import_rejects_a_marker_that_does_not_match_the_header(tmp_path, header, tails):
    with pytest.raises(ValueError, match="does not match its header"):
        import_trace(_csv(tmp_path, header, *tails))


def test_import_refuses_an_unknown_header(tmp_path):
    path = _csv(tmp_path, "t,x,y", "1")
    with pytest.raises(ValueError) as raised:
        import_trace(path)
    assert str(raised.value) == f"unexpected trace header in {path}: 't,x,y'"


def test_import_of_an_unreadable_path_names_it(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(OSError) as raised:
        import_trace(path)
    assert str(raised.value) == (
        f"cannot read trace from {path}: [Errno 2] No such file or directory: {str(path)!r}"
    )


def test_metrics_export_to_a_directory_names_it(tmp_path):
    with pytest.raises(OSError) as raised:
        export_metrics({"num_steps": 1}, tmp_path)
    assert str(raised.value) == (
        f"cannot write metrics to {tmp_path}: [Errno 21] Is a directory: {str(tmp_path)!r}"
    )


def test_an_unknown_column_is_a_key_error():
    with pytest.raises(KeyError) as raised:
        SimulationTrace.preallocate(1).column("nope")
    assert raised.value.args == ("nope",)


def test_event_and_marker_text_per_row(tmp_path):
    # One tail text per distinct event value; values of any width and sign.
    trace = SimulationTrace.preallocate(2500, system="average")
    for name in TRACE_COLUMNS[:-1]:
        trace.column(name)[:] = 0.25
    trace.event[:] = np.resize([0, 1, 12, -3, 1, 1, 0], 2500)
    path = tmp_path / "events.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER + ",system"
    assert [line.split(",", 14)[14] for line in lines[1:]] == [
        f"{e},average" for e in trace.event.tolist()
    ]


#: Rows of a trace that splits into three parts when three CPUs are usable.
SPLIT_ROWS = 3 * traceio._MIN_PART_ROWS + 77


@pytest.fixture()
def forks(monkeypatch):
    """The pids ``import_trace`` forks in this process; sets three usable CPUs."""
    pids = []
    fork = traceio._fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(traceio, "_fork", counted)
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 3)
    return pids


def _fork_that_exits_3(fork):
    def forked():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid
    return forked


@pytest.fixture(scope="module")
def split_csv_bytes(tmp_path_factory):
    """CSV bytes of a random full and averaged trace of ``SPLIT_ROWS`` rows."""
    # Arbitrary bits: nan, infinities, subnormals and every magnitude.
    rng = np.random.default_rng(16)
    texts = {}
    for system in ("full", "average"):
        trace = SimulationTrace.preallocate(SPLIT_ROWS, system)
        for column in TRACE_COLUMNS[:-1]:
            bits = rng.integers(0, 2 ** 64, SPLIT_ROWS, dtype=np.uint64)
            trace.column(column)[:] = bits.view(np.float64)
        trace.event[:] = rng.integers(0, 2, SPLIT_ROWS)
        path = tmp_path_factory.mktemp(system) / "split.csv"
        export_trace(trace, path)
        texts[system] = path.read_bytes()
    return texts


@pytest.fixture()
def split_csv(tmp_path, split_csv_bytes):
    def write(system):
        path = tmp_path / "split.csv"
        path.write_bytes(split_csv_bytes[system])
        return path
    return write


def _one_call(path, marked):
    """The table of one ``loadtxt`` call over every row, or the error it raises."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        return np.loadtxt(
            handle, delimiter=",", ndmin=2, comments=None,
            converters={len(TRACE_COLUMNS): "average".__eq__} if marked else None,
        )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("system", ["full", "average"])
def test_split_import_is_bit_identical_to_one_part(split_csv, monkeypatch, forks, system):
    path = split_csv(system)
    split = import_trace(path)
    assert len(forks) == 3
    assert_no_child_left()
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 1)
    whole = import_trace(path)
    assert len(forks) == 3
    table = _one_call(path, system == "average")
    assert split.system == whole.system == system
    for j, name in enumerate(TRACE_COLUMNS):
        expected = table[:, j] if name != "event" else table[:, j].astype(np.int64)
        assert split.column(name).tobytes() == expected.tobytes(), name
        assert whole.column(name).tobytes() == expected.tobytes(), name


def test_split_import_parses_nothing_in_the_parent(split_csv, monkeypatch, forks):
    # Every part is parsed in a child; a call counted there stays in the child.
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    back = import_trace(split_csv("full"))
    assert len(forks) == 3
    assert calls == []
    assert len(back) == SPLIT_ROWS


def test_import_where_the_process_cannot_fork(split_csv, monkeypatch):
    # No usable CPU for a child, so the rows go to the one loadtxt call.
    path = split_csv("average")
    monkeypatch.delattr(os, "fork")
    back = import_trace(path)
    assert back.xi.tobytes() == _one_call(path, True)[:, 13].tobytes()


def _corrupt(path, row, fault):
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    if fault == "malformed":
        fields[2] = "abc"
    elif fault == "columns":
        del fields[3]
    elif fault == "marker":
        fields[-1] = "full"
    else:
        fields[14] = "2"
    lines[row + 1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("fault", ["malformed", "columns", "marker", "event"])
@pytest.mark.parametrize("row", [100, SPLIT_ROWS - 5], ids=["parent-part", "child-part"])
def test_split_import_raises_the_one_call_error(split_csv, forks, fault, row):
    path = split_csv("average")
    _corrupt(path, row, fault)
    expected = {
        "marker": f"data row {row + 1} of {path} does not match its header "
                  "(system marker differs from row 1's 'average')",
        "event": f"event in data row {row + 1} of {path} is 2.0; must be 0 or 1",
    }
    if fault in ("malformed", "columns"):
        with pytest.raises(ValueError) as one_call:
            _one_call(path, True)
        text = str(one_call.value)
        expected[fault] = (
            text if fault == "malformed"
            else f"a data row of {path} does not match its header: {text.split(';')[0]}"
        )
    with pytest.raises(ValueError) as raised:
        import_trace(path)
    assert str(raised.value) == expected[fault]
    assert len(forks) == 3
    assert_no_child_left()


def test_a_part_with_other_columns_is_refused(split_csv, forks):
    # Every row of the last part has one field more than the header, so
    # the child's own parse succeeds; the table it would send is wider.
    path = split_csv("average")
    lines = path.read_text().splitlines(keepends=True)
    last_part = 1 + SPLIT_ROWS * 2 // 3
    lines[last_part:] = [line.replace("\n", ",0\n") for line in lines[last_part:]]
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as one_call:
        _one_call(path, True)
    changed = str(one_call.value).split(";")[0]
    with pytest.raises(ValueError) as raised:
        import_trace(path)
    assert str(raised.value) == f"a data row of {path} does not match its header: {changed}"
    assert len(forks) == 3
    assert_no_child_left()


def test_a_failed_child_falls_back_to_one_call(split_csv, monkeypatch, forks):
    path = split_csv("full")
    monkeypatch.setattr(traceio, "_fork", _fork_that_exits_3(traceio._fork))
    back = import_trace(path)
    assert len(forks) == 3
    assert_no_child_left()
    table = _one_call(path, False)
    assert back.t.tobytes() == table[:, 0].tobytes()
    assert back.xi.tobytes() == table[:, 13].tobytes()


def test_split_import_where_sigchld_is_ignored(split_csv, forks):
    # The kernel reaps the children at once, so their exit codes are lost
    # and the rows are parsed again in one call.
    path = split_csv("full")
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        back = import_trace(path)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 3
    assert back.xi.tobytes() == _one_call(path, False)[:, 13].tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_imports_leave_no_descriptor_open(split_csv, monkeypatch, forks):
    path = split_csv("full")
    text = path.read_bytes()
    before = set(os.listdir("/proc/self/fd"))
    import_trace(path)
    with monkeypatch.context() as patched:
        patched.setattr(traceio, "_fork", _fork_that_exits_3(traceio._fork))
        import_trace(path)
    path.write_bytes(text.replace(b"\n", b"\r\n"))
    import_trace(path)
    assert set(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 6
    assert_no_child_left()


@pytest.mark.parametrize("layout", ["crlf", "blank-lines", "no-final-newline"])
def test_split_import_reads_other_layouts(split_csv, forks, layout):
    path = split_csv("average")
    expected = import_trace(path)
    text = path.read_bytes()
    if layout == "crlf":
        text = text.replace(b"\n", b"\r\n")
    elif layout == "blank-lines":
        text = text.replace(b"1,average\n", b"1,average\n\n")
    else:
        text = text[:-1]
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = import_trace(path)
    assert_no_child_left()
    assert len(forks) == (6 if layout == "no-final-newline" else 3)
    assert back.system == "average"
    for name in TRACE_COLUMNS:
        assert back.column(name).tobytes() == expected.column(name).tobytes(), name


@pytest.mark.parametrize("action", ["error", "always"])
def test_split_import_prints_nothing_under_warning_filters(split_csv, action):
    path = split_csv("average")
    src = str(Path(traceio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys; from etseek import traceio; traceio._usable_cpus = lambda: 3; "
        "print(len(traceio.import_trace(sys.argv[1])))"
    )
    proc = subprocess.run(
        [sys.executable, "-W", action, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"{SPLIT_ROWS}\n"


def assert_export_in_parts(trace, path, monkeypatch, forks, parts):
    """Export ``trace`` with 1-4 usable CPUs, in ``parts[cpus]`` parts each; the bytes.

    Each part after the first is a child's.
    """
    texts = []
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(traceio, "_usable_cpus", lambda cpus=cpus: cpus)
        before = len(forks)
        export_trace(trace, path)
        assert len(forks) - before == parts[cpus] - 1, cpus
        texts.append(path.read_bytes())
    assert_no_child_left()
    assert texts == texts[:1] * 4
    return texts[0]


@pytest.mark.parametrize("system", ["full", "average"])
def test_export_in_parts_is_byte_identical(split_csv, tmp_path, monkeypatch, forks, system):
    path = split_csv(system)
    trace = import_trace(path)
    text = assert_export_in_parts(trace, tmp_path / "parts.csv", monkeypatch, forks,
                                  {1: 1, 2: 2, 3: 3, 4: 3})
    assert text == path.read_bytes()


def test_siv_export_in_parts_is_byte_identical(tmp_path, siv_scenario, monkeypatch, forks):
    trace, _ = run_simulation(replace(siv_scenario, t_final=4.0, mode="full"))
    assert len(trace) == 40_001
    assert_export_in_parts(trace, tmp_path / "parts.csv", monkeypatch, forks,
                           {1: 1, 2: 2, 3: 3, 4: 4})


def test_export_flushes_its_part_before_each_copy(tmp_path, monkeypatch, forks):
    # Part 0 has 4,097 rows, so its last chunk is one short row, which
    # waits in the file's buffer until it is flushed; part 1 must follow it.
    trace = SimulationTrace.preallocate(2 * (traceio._MIN_PART_ROWS + 1))
    for j, column in enumerate(TRACE_COLUMNS[:-1]):
        trace.column(column)[:] = np.arange(len(trace)) + j / 8
    text = assert_export_in_parts(trace, tmp_path / "parts.csv", monkeypatch, forks,
                                  {1: 1, 2: 2, 3: 2, 4: 2})
    assert [line.split(b",")[0] for line in text.splitlines()[4097:4099]] == [b"4096", b"4097"]


def _spills_refused():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    ("fault", "children"),
    [("child-exits-3", 2), ("spill-refused", 0), ("no-O_TMPFILE", 0), ("SIGCHLD-ignored", 2)],
)
def test_export_encodes_in_the_parent_where_a_part_fails(
    split_csv, tmp_path, monkeypatch, forks, fault, children
):
    path = split_csv("full")
    trace = import_trace(path)
    out = tmp_path / "out"
    out.mkdir()
    before, forked = set(os.listdir("/proc/self/fd")), len(forks)
    previous = signal.getsignal(signal.SIGCHLD)
    with monkeypatch.context() as patched:
        if fault == "child-exits-3":
            patched.setattr(traceio, "_fork", _fork_that_exits_3(traceio._fork))
        elif fault == "spill-refused":
            patched.setattr(tempfile, "TemporaryFile", _spills_refused)
        elif fault == "no-O_TMPFILE":
            # No temporary file, unnamed or named: the directory is gone.
            patched.setattr(tempfile, "tempdir", str(tmp_path / "gone"))
        else:
            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            export_trace(trace, out / "trace.csv")
        finally:
            signal.signal(signal.SIGCHLD, previous)
    assert len(forks) - forked == children
    assert_no_child_left()
    assert set(os.listdir("/proc/self/fd")) == before
    assert os.listdir(out) == ["trace.csv"]
    assert (out / "trace.csv").read_bytes() == path.read_bytes()


def test_export_to_dev_null_spills_in_the_temporary_directory(
    split_csv, tmp_path, monkeypatch, forks
):
    # /dev takes no unnamed file here, so a spill beside the output would
    # fail; the child's spill is made in the temporary directory instead.
    path = split_csv("full")
    trace = import_trace(path)
    opened, copied = [], []
    opener, sendfile = os.open, os.sendfile

    def refused_in_dev(name, flags, *args, **kwargs):
        opened.append(os.fspath(name))
        if flags & os.O_TMPFILE == os.O_TMPFILE and opened[-1].startswith("/dev"):
            raise PermissionError(errno.EACCES, "Permission denied")
        return opener(name, flags, *args, **kwargs)

    def recorded(out, spill, offset, count):
        copied.append(os.pread(spill, count, offset))
        return sendfile(out, spill, offset, count)

    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "open", refused_in_dev)
    monkeypatch.setattr(os, "sendfile", recorded)
    forked = len(forks)
    export_trace(trace, "/dev/null")
    assert len(forks) - forked == 1
    assert_no_child_left()
    assert opened and all(name.startswith(str(tmp_path)) for name in opened)
    # The child's part is the one-part export's rows from the second part on.
    rows = path.read_bytes().splitlines(keepends=True)
    assert b"".join(copied) == b"".join(rows[1 + SPLIT_ROWS // 2:])


#: Seconds a ``sleep`` child of :class:`_PartFaults` waits before its work.
SLEEP_S = 30


class _PartFaults:
    """Fault each part a runner is given by its place: ``kinds[place]``.

    A kind is ``ok``, ``exit`` (the child exits 3), ``sleep`` (the child
    sleeps :data:`SLEEP_S` before its work), ``spill`` (its spill is
    refused) or ``fork`` (its fork raises).  ``children`` counts the forks
    that made a child.
    """

    def __init__(self, kinds):
        self.kinds, self.places, self.children = kinds, [], 0
        self.temporary_file, self.fork = tempfile.TemporaryFile, traceio._fork

    def spill(self):
        self.places.append(self.kinds[len(self.places)])
        if self.places[-1] == "spill":
            raise OSError(errno.EMFILE, "Too many open files")
        return self.temporary_file()

    def forked(self):
        if self.places[-1] == "fork":
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = self.fork()
        if pid == 0 and self.places[-1] == "exit":
            os._exit(3)
        if pid == 0 and self.places[-1] == "sleep":
            time.sleep(SLEEP_S)
        self.children += 1
        return pid


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_failed_part_stops_the_children_no_one_will_take(split_csv, monkeypatch, forks):
    # Part 0's child fails, so every row is parsed again in one call: the
    # sleeping children of parts 1 and 2 are killed, not waited for.
    path = split_csv("full")
    before = set(os.listdir("/proc/self/fd"))
    faults = _PartFaults(["exit", "sleep", "sleep"])
    monkeypatch.setattr(tempfile, "TemporaryFile", faults.spill)
    monkeypatch.setattr(traceio, "_fork", faults.forked)
    start = time.monotonic()
    back = import_trace(path)
    assert time.monotonic() - start < SLEEP_S / 3
    assert faults.children == len(forks) == 3
    assert_no_child_left()
    assert set(os.listdir("/proc/self/fd")) == before
    assert back.xi.tobytes() == _one_call(path, False)[:, 13].tobytes()


@pytest.fixture(scope="module")
def split_table(split_csv_bytes, tmp_path_factory):
    """The full ``split_csv_bytes`` trace, its one-call table and its CSV file."""
    path = tmp_path_factory.mktemp("table") / "split.csv"
    path.write_bytes(split_csv_bytes["full"])
    return import_trace(path), _one_call(path, False), path


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@settings(deadline=None, database=None, max_examples=10)
@given(
    cpus=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(["ok", "exit", "spill", "fork"]), min_size=4, max_size=4),
    malformed=st.none() | st.integers(0, SPLIT_ROWS - 1),
)
def test_any_part_may_fail_in_either_direction(split_table, tmp_path_factory, cpus, kinds, malformed):
    trace, table, csv = split_table
    path = tmp_path_factory.mktemp("matrix") / "split.csv"
    path.write_bytes(csv.read_bytes())
    if malformed is not None:
        _corrupt(path, malformed, "malformed")
    before = set(os.listdir("/proc/self/fd"))
    for run in ("export", "import"):
        faults = _PartFaults(kinds)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(traceio, "_usable_cpus", lambda: cpus)
            patched.setattr(tempfile, "TemporaryFile", faults.spill)
            patched.setattr(traceio, "_fork", faults.forked)
            if run == "export":
                export_trace(trace, path.with_name("out.csv"))
                assert path.with_name("out.csv").read_bytes() == csv.read_bytes()
            elif malformed is None:
                back = import_trace(path)
                for j, name in enumerate(TRACE_COLUMNS[:-1]):
                    assert back.column(name).tobytes() == table[:, j].tobytes(), name
            else:
                with pytest.raises(ValueError) as one_call:
                    _one_call(path, False)
                with pytest.raises(ValueError) as raised:
                    import_trace(path)
                assert str(raised.value) == str(one_call.value)
        assert faults.children == sum(kind in ("ok", "exit") for kind in faults.places)
        assert_no_child_left()
    assert set(os.listdir("/proc/self/fd")) == before


def _sendfile_on_a_full_disk(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["dev-full", "sendfile"])
def test_export_write_error_leaves_no_child(split_csv, tmp_path, monkeypatch, forks, fault):
    trace = import_trace(split_csv("full"))
    path = tmp_path / "trace.csv"
    if fault == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        path = Path("/dev/full")
    else:
        monkeypatch.setattr(os, "sendfile", _sendfile_on_a_full_disk)
    with pytest.raises(OSError, match=f"^cannot write trace to {path}: .*No space left"):
        export_trace(trace, path)
    assert_no_child_left()
