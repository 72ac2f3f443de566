import hashlib
import tracemalloc
import warnings
from dataclasses import replace

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
    assert back.system == "full"
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
    sc = replace(load_scenario(name), t_final=2.0, mode=mode, sample_period=None)
    trace, _ = run_simulation(sc)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[(name, mode)]


def kernel_texts(values) -> list[str]:
    """The exporter's text of each value, one value per row."""
    v = np.asarray(values, dtype=np.float64)
    csv = traceio._encode_rows(v.reshape(-1, 1), [b"\n"], np.zeros(v.shape[0], np.int64))
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
    trace, _ = run_simulation(replace(siv_scenario, t_final=4.0, mode="full", sample_period=None))
    assert len(trace) == 40_001
    tracemalloc.start()
    try:
        export_trace(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_import_allocates_the_table_once(tmp_path, siv_scenario):
    # Counting the rows first lets loadtxt allocate its table once, instead
    # of regrowing it a quarter at a time to about 1.15 times its size.
    trace, _ = run_simulation(replace(siv_scenario, t_final=4.0, mode="full", sample_period=None))
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


def _csv(tmp_path, header, *tails):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + "".join(",".join(["0.5"] * 14) + "," + tail + "\n" for tail in tails))
    return path


@pytest.mark.parametrize("event", ["nan", "0.7", "2", "-1", "inf"])
def test_import_rejects_event_values_other_than_0_and_1(tmp_path, event):
    path = _csv(tmp_path, CSV_HEADER, event)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be 0 or 1"):
            import_trace(path)


@pytest.mark.parametrize(
    ("header", "tails"),
    [
        (CSV_HEADER, ["1,average"]),
        (CSV_HEADER + ",system", ["1"]),
        (CSV_HEADER, ["1", "0,average"]),
        (CSV_HEADER + ",system", ["1,average", "0"]),
        (CSV_HEADER + ",system", ["1,average", "0,full"]),
    ],
    ids=[
        "marker-under-plain-header",
        "marker-missing",
        "row-2-marker-under-plain-header",
        "row-2-marker-missing",
        "row-2-marker-differs",
    ],
)
def test_import_rejects_a_marker_that_does_not_match_the_header(tmp_path, header, tails):
    with pytest.raises(ValueError, match="does not match its header"):
        import_trace(_csv(tmp_path, header, *tails))


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
