import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from etseek import analysis, engine, hold
from etseek.config import Scenario
from etseek.engine import NonFiniteStateError, integrate_step, run_simulation
from etseek.field import QuadraticField
from etseek.trace import TRACE_COLUMNS, SimulationTrace
from etseek.trigger import GainMatrix, TriggerConstants
from etseek.vehicle import DitherParams, VehicleState
from tests.conftest import PAPER_SIV_GAIN


class TestIntegrateStep:
    def test_polynomial_exactness(self):
        assert integrate_step(lambda t, x: 1.0, 0.0, 0.0, 0.1) == pytest.approx(
            0.1, abs=1e-16
        )

    def test_exponential_accuracy(self):
        value = integrate_step(lambda t, x: x, 1.0, 0.0, 0.1)
        assert value == pytest.approx(1.1051708333333333, abs=1e-15)  # RK4 truncation
        assert value == pytest.approx(1.105170917, abs=1e-7)  # against exp(0.1)

    def test_zero_derivative_keeps_state_bitwise(self):
        state = (0.1 + 0.2, -0.7, 1.9)
        out = integrate_step(lambda t, s: (0.0, 0.0, 0.0), state, 3.0, 0.5)
        assert out == state

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_step(lambda t, x: x, 1.0, 0.0, 0.0)


def equilibrium_scenario():
    # No dithers, starting exactly at the source: nothing can move.
    return Scenario(
        field=QuadraticField(10.0, 5.0, math.pi / 6, 7.0),
        dithers=DitherParams(0.0, 0.0, 0.0, 4.0, 4.0, 2.0),
        gain=PAPER_SIV_GAIN,
        trigger=TriggerConstants(0.5, 0.195, 0.0),
        initial=VehicleState(10.0, 5.0, math.pi / 6),
        dt=1e-3,
        t_final=0.05,
    )


class TestRunSimulation:
    def test_equilibrium_without_excitation(self):
        trace, metrics = run_simulation(equilibrium_scenario())
        assert metrics.num_events == 1
        assert trace.events[0, 0] == 0.0
        assert np.all(trace.x == 10.0)
        assert np.all(trace.y == 5.0)
        assert np.all(trace.theta == math.pi / 6)
        assert metrics.final_error_norm == 0.0

    def test_determinism(self, smallgain_scenario):
        sc = replace(smallgain_scenario, t_final=0.5)
        t1, m1 = run_simulation(sc)
        t2, m2 = run_simulation(sc)
        for name in ("t", "x", "y", "theta", "q", "g1", "u1", "xi", "event"):
            assert np.array_equal(t1.column(name), t2.column(name))
        assert m1.as_dict() == m2.as_dict()

    def test_grid_and_flags(self, smallgain_scenario):
        sc = replace(smallgain_scenario, t_final=0.2)
        trace, metrics = run_simulation(sc)
        assert len(trace) == metrics.num_steps + 1
        assert np.allclose(np.diff(trace.t), sc.dt, rtol=0.0, atol=1e-12)
        # event flags and the event log name the same instants
        assert np.array_equal(trace.t[trace.event == 1], trace.events[:, 0])

    def test_zoh_and_error_reset(self, smallgain_scenario):
        sc = replace(smallgain_scenario, t_final=0.2)
        trace, _ = run_simulation(sc)
        idx = trace.event_indices()
        assert idx.shape[0] >= 2
        # latched gradient equals the trace gradient at each event instant
        assert np.array_equal(trace.events[:, 1], trace.g1[idx])
        assert np.array_equal(trace.events[:, 2], trace.g2[idx])
        assert np.array_equal(trace.events[:, 3], trace.g3[idx])
        # control is bit-constant from one event up to the next
        for a, b in zip(idx[:-1], idx[1:]):
            assert np.unique(trace.u1[a:b]).size == 1
            assert np.unique(trace.u2[a:b]).size == 1
        # the estimate itself keeps moving while the control is held
        a, b = idx[0], idx[1]
        if b - a > 1:
            assert np.unique(trace.g2[a:b]).size > 1

    def test_trigger_sign_convention(self, smallgain_scenario):
        sc = replace(smallgain_scenario, t_final=0.2)
        trace, _ = run_simulation(sc)
        idx = trace.event_indices()
        # after the forced start event, events happen exactly at Xi < 0
        assert np.all(trace.xi[idx[1:]] < 0.0)
        interior = np.setdiff1d(np.arange(idx[0] + 1, idx[-1]), idx)
        assert np.all(trace.xi[interior] >= 0.0)

    def test_continuous_mode_updates_every_step(self, smallgain_scenario):
        sc = replace(
            smallgain_scenario, mode="continuous-control", t_final=0.05
        )
        trace, metrics = run_simulation(sc)
        assert metrics.num_events == metrics.num_steps
        assert metrics.min_inter_event == pytest.approx(sc.dt, rel=1e-9)

    def test_sampled_data_matches_continuous_at_dt(self, smallgain_scenario):
        base = replace(smallgain_scenario, t_final=0.05)
        cont, _ = run_simulation(replace(base, mode="continuous-control"))
        samp, _ = run_simulation(
            replace(base, mode="sampled-data", sample_period=base.dt)
        )
        # Continuous control is the sample clock with period 0; a period of
        # dt fires on the same rows and so yields the same bits.
        for name in TRACE_COLUMNS:
            assert cont.column(name).tobytes() == samp.column(name).tobytes(), name
        assert cont.events.tobytes() == samp.events.tobytes()

    def test_sampled_data_period(self, smallgain_scenario):
        sc = replace(
            smallgain_scenario, mode="sampled-data", sample_period=0.01, t_final=0.1
        )
        trace, metrics = run_simulation(sc)
        expected = np.arange(0.0, 0.1, 0.01)
        assert np.allclose(trace.events[:, 0], expected, atol=1e-9)
        assert metrics.min_inter_event == pytest.approx(0.01, rel=1e-6)

    def test_average_mode_shares_grid_with_full(self, smallgain_scenario):
        sc = replace(smallgain_scenario, t_final=0.2)
        full, _ = run_simulation(sc)
        avg, _ = run_simulation(replace(sc, mode="average"))
        assert avg.system == "average"
        assert np.array_equal(full.t, avg.t)
        # the averaged loop starts from the initial estimation error
        d, f = sc.dithers, sc.field
        assert avg.g1[0] == sc.initial.x - f.x_star
        assert avg.g2[0] == pytest.approx(
            sc.initial.y + 0.5 * d.a2 - f.y_star, abs=1e-15
        )

    def test_coarse_grid_warns(self, smallgain_scenario):
        coarse = replace(smallgain_scenario, dt=0.05, t_final=0.2)
        with pytest.warns(RuntimeWarning, match="tau"):
            run_simulation(coarse)

    def test_verify_warns_on_the_same_coarse_grid(self, smallgain_scenario):
        # verify runs the averaged loop on the same grid, so one rule warns
        # for both, at the caller's line; the default dt stays silent.
        coarse = replace(smallgain_scenario, dt=0.05, t_final=0.2)
        with pytest.warns(RuntimeWarning, match="tau") as record:
            analysis.verify_scenario(coarse)
        assert record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis.verify_scenario(replace(smallgain_scenario, t_final=0.2))

    def test_non_finite_state_aborts(self, siv_scenario):
        # The published gain under continuous updates of the raw demodulated
        # estimate escapes in finite time; the engine must turn the overflow
        # into a diagnostic rather than NaNs.
        sc = replace(siv_scenario, mode="continuous-control", t_final=3.0)
        with pytest.raises(NonFiniteStateError):
            run_simulation(sc)

    def test_smallgain_converges_end_to_end(self, smallgain_scenario):
        """Full-horizon run of the compliant scenario reaches the source.

        The neighborhood radius is set by the dither amplitudes and the
        averaged bias amplification; observed final errors sit near 0.9 m
        (3-norm over position and heading).
        """
        trace, metrics = run_simulation(smallgain_scenario)
        assert metrics.final_error_norm <= 1.5
        assert metrics.num_events >= 2
        assert metrics.min_inter_event is not None and metrics.min_inter_event > 0.0
        start_error = math.hypot(
            smallgain_scenario.initial.x - smallgain_scenario.field.x_star,
            smallgain_scenario.initial.y - smallgain_scenario.field.y_star,
        )
        final_xy = math.hypot(
            trace.x[-1] - smallgain_scenario.field.x_star,
            trace.y[-1] - smallgain_scenario.field.y_star,
        )
        assert final_xy < 2.0 * start_error


def test_overflow_in_a_full_hold_block_raises_at_the_scalar_row(monkeypatch, siv_scenario):
    # From x0 = -1e50, q is near -5e99.  Row 0 latches u1 of about -7e50
    # (g1 and g3 vanish at t = 0, and the gain reads only g2), so the
    # vehicle runs away from the source without firing again, and |q| passes
    # 1e100 on row 552, inside the second hold block.  The block must hand
    # that row back to the scalar loop, which raises there, with the same
    # rows written as the scalar-only loop.
    traces = []
    allocate = SimulationTrace.preallocate

    def marked(n_rows, system="full"):
        trace = allocate(n_rows, system)
        for column in TRACE_COLUMNS[:-1]:
            trace.column(column)[:] = np.nan
        traces.append(trace)
        return trace

    monkeypatch.setattr(SimulationTrace, "preallocate", marked)
    sc = replace(
        siv_scenario,
        t_final=0.1,
        gain=GainMatrix(rows=((0.0, -1.7e-50, 0.0), (0.0, 0.0, 0.0))),
        initial=VehicleState(-1e50, 5.0, 0.0),
    )
    first_blocks = hold._SCALAR_HOLD + hold._FIRST_BLOCK
    failed_at = []
    for scalar_hold in (hold._SCALAR_HOLD, 10**9):
        monkeypatch.setattr(hold, "_SCALAR_HOLD", scalar_hold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as info:
                run_simulation(sc)
        failed_at.append(info.value.t)
    blocked, scalar = traces
    written = np.count_nonzero(~np.isnan(scalar.q))
    assert first_blocks + 1 < written < first_blocks + 2 * hold._FIRST_BLOCK
    assert np.count_nonzero(scalar.event) == 1
    assert failed_at[0] == failed_at[1] == written * sc.dt
    assert np.all(np.abs(scalar.q[:written]) <= 1e100)
    for column in TRACE_COLUMNS:
        assert blocked.column(column).tobytes() == scalar.column(column).tobytes(), column


def test_overflowing_estimate_raises_at_the_same_row_in_blocks(monkeypatch, siv_scenario):
    # With a1 = 3e-155 the demodulation gain 4/a1 makes |G1| pass
    # sqrt(max double) on row 190, while q stays near its start value.  The
    # zero gain keeps the vehicle on its dither, and row 0 is the only
    # event, so from row 2 the hold goes to blocks.  The scalar loop raises
    # where G1 squared overflows; a block's Xi is not finite there, so it
    # hands that row back and the scalar loop raises at the same time.
    traces, entered = [], []
    allocate = SimulationTrace.preallocate
    run_blocks = hold.run_blocks

    def marked(n_rows, system="full"):
        trace = allocate(n_rows, system)
        for column in TRACE_COLUMNS[:-1]:
            trace.column(column)[:] = np.nan
        traces.append(trace)
        return trace

    def recorded(trace, start, *args):
        resume = run_blocks(trace, start, *args)
        entered.append((start, resume and resume[0]))
        return resume

    monkeypatch.setattr(SimulationTrace, "preallocate", marked)
    monkeypatch.setattr(hold, "run_blocks", recorded)
    monkeypatch.setattr(hold, "_FIRST_BLOCK", 4)
    sc = replace(
        siv_scenario,
        t_final=0.1,
        gain=GainMatrix(rows=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
        dithers=replace(siv_scenario.dithers, a1=3e-155),
    )
    failed_at = []
    for scalar_hold in (2, 10**9):
        monkeypatch.setattr(hold, "_SCALAR_HOLD", scalar_hold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as info:
                run_simulation(sc)
        failed_at.append(info.value.t)
    blocked, scalar = traces
    written = np.count_nonzero(~np.isnan(scalar.q))
    assert entered == [(2, written)]
    assert failed_at[0] == failed_at[1] == written * sc.dt
    assert np.count_nonzero(scalar.event) == 1
    assert np.all(np.abs(scalar.q[:written]) < 1.0)
    assert np.all(np.isfinite(scalar.xi[:written]))
    for column in TRACE_COLUMNS:
        assert blocked.column(column).tobytes() == scalar.column(column).tobytes(), column


@pytest.mark.parametrize("mode, period", [("continuous-control", None), ("sampled-data", 0.01)])
def test_sample_clocks_never_enter_hold_blocks(monkeypatch, siv_scenario, mode, period):
    # paper_siv under a 10 ms clock holds for 100 steps at a time; with
    # _SCALAR_HOLD = 0 any hold would reach the runner.  The full loop is
    # the control that shows the stand-in is reachable.
    def refuse(*args):
        raise AssertionError("entered the hold-block runner")

    monkeypatch.setattr(hold, "_SCALAR_HOLD", 0)
    monkeypatch.setattr(hold, "run_blocks", refuse)
    run_simulation(replace(siv_scenario, mode=mode, sample_period=period, t_final=0.5))
    with pytest.raises(AssertionError, match="hold-block runner"):
        run_simulation(replace(siv_scenario, t_final=0.5))


def test_each_run_builds_one_model_and_calls_module_globals(monkeypatch, siv_scenario):
    # perfbench times the averaged loop by rebinding `run_average_loop` in
    # both modules, so each must call it through its own module global.
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for module, name in [(engine, "build_average_matrices"), (engine, "run_average_loop"),
                         (analysis, "build_average_matrices"), (analysis, "run_average_loop")]:
        spy(module, name)
    for mode in ("full", "continuous-control", "average"):
        run_simulation(replace(siv_scenario, mode=mode, t_final=0.01))
    analysis.verify_scenario(replace(siv_scenario, t_final=0.01))
    assert calls == ["etseek.engine.build_average_matrices"] * 2 + [
        "etseek.engine.build_average_matrices",
        "etseek.engine.run_average_loop",
        "etseek.analysis.build_average_matrices",
        "etseek.analysis.run_average_loop",
    ]
