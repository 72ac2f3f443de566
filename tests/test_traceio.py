import warnings
from dataclasses import replace

import numpy as np
import pytest

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
    trace.events = np.empty((0, 6))
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
    # u1 is made of constant runs, so its text is formatted once per run;
    # runs are split on bit patterns, which keeps 0.0 and -0.0 apart.
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
    assert import_trace(path).system == "average"


def test_metrics_keys_and_round_trip(tmp_path, smallgain_scenario):
    sc = replace(smallgain_scenario, t_final=0.01)
    _, metrics = run_simulation(sc)
    path = tmp_path / "metrics.json"
    export_metrics(metrics, path)
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
