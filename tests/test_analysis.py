import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etseek.analysis import (
    alpha_lower_bound,
    averaging_error,
    decay_envelope_check,
    dwell_time_bound,
    hurwitz_check,
    solve_lyapunov,
    verify_scenario,
)
from etseek.average import build_average_matrices
from etseek.config import load_scenario
from etseek.trace import TRACE_COLUMNS, SimulationTrace
from etseek.trigger import GainMatrix, trigger_floor
from etseek.vehicle import DitherParams
from tests.conftest import PAPER_SIV_GAIN, THETA_STAR
from tests.reference import decay_envelope_violations

# Certificate for the published setup with Q = I, frozen once computed.
SIV_P = np.array(
    [
        [2.42932940e00, -3.94082341e00, 4.86844748e-03],
        [-3.94082341e00, 6.67798376e00, 5.78761018e-02],
        [4.86844748e-03, 5.78761018e-02, 1.26360018e-01],
    ]
)
SIV_ALPHA_MIN = 3.750933537108479
SIV_TAU_STAR = 0.04786966671118977


def siv_closed_loop():
    d = DitherParams(0.5, 0.5, 0.5, 10.0, 10.0, 20.0, frequency_override=True)
    model = build_average_matrices(THETA_STAR, d)
    k = np.asarray(PAPER_SIV_GAIN.rows)
    return model.a - model.b @ k, model.b @ k


def random_hurwitz(rng):
    m = rng.uniform(-1.0, 1.0, size=(3, 3))
    shift = max(np.linalg.eigvals(m).real.max(), 0.0) + rng.uniform(0.2, 2.0)
    return m - shift * np.eye(3)


class TestSolveLyapunov:
    def test_identity_case(self):
        cert = solve_lyapunov(-np.eye(3), np.eye(3))
        assert np.abs(cert.p - 0.5 * np.eye(3)).max() <= 1e-12

    def test_scaling(self):
        cert = solve_lyapunov(-np.eye(3), 2.0 * np.eye(3))
        assert np.abs(cert.p - np.eye(3)).max() <= 1e-12

    def test_siv_certificate(self):
        acl, _ = siv_closed_loop()
        cert = solve_lyapunov(acl, np.eye(3))
        assert cert.residual <= 1e-10
        assert np.all(np.linalg.eigvalsh(cert.p) > 0.0)
        assert np.abs(cert.p - SIV_P).max() <= 1e-8

    def test_random_hurwitz_batch(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            acl = random_hurwitz(rng)
            cert = solve_lyapunov(acl, np.eye(3))
            assert cert.residual <= 1e-8
            assert np.all(np.linalg.eigvalsh(cert.p) > 0.0)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.zeros((3, 3)), np.eye(3))


class TestHurwitz:
    def test_examples(self):
        assert hurwitz_check(-np.eye(3))
        assert not hurwitz_check(np.zeros((3, 3)))

    def test_siv_gain_stabilizes(self):
        acl, _ = siv_closed_loop()
        assert hurwitz_check(acl)


class TestAlphaLowerBound:
    def test_identity_case(self):
        cert = solve_lyapunov(-np.eye(3), np.eye(3))
        assert alpha_lower_bound(cert.p, -np.eye(3), cert.q) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_q_scaling(self):
        rng = np.random.default_rng(3)
        acl = random_hurwitz(rng)
        b1 = alpha_lower_bound(solve_lyapunov(acl, np.eye(3)).p, acl, np.eye(3))
        q = 7.5 * np.eye(3)
        b2 = alpha_lower_bound(solve_lyapunov(acl, q).p, acl, q)
        assert b1 == pytest.approx(b2, rel=1e-9)

    def test_siv_value_rejects_published_alpha(self):
        acl, _ = siv_closed_loop()
        cert = solve_lyapunov(acl, np.eye(3))
        bound = alpha_lower_bound(cert.p, acl, cert.q)
        assert bound == pytest.approx(SIV_ALPHA_MIN, abs=1e-9)
        # The published trigger constant sits far below its own lower
        # bound; the verification report records this as alpha_ok = False.
        assert 0.195 < bound


class TestDwellTimeBound:
    def test_half_sigma_closed_form(self):
        acl, bk = siv_closed_loop()
        norms = np.linalg.norm(acl, 2) + np.linalg.norm(bk, 2)
        assert dwell_time_bound(0.5, acl, bk) == pytest.approx(
            (4.0 / 3.0) / norms, rel=1e-12
        )

    def test_sigma_near_one_limit(self):
        acl, bk = siv_closed_loop()
        norms = np.linalg.norm(acl, 2) + np.linalg.norm(bk, 2)
        assert dwell_time_bound(1.0 - 1e-9, acl, bk) == pytest.approx(
            0.5 / norms, rel=1e-6
        )

    def test_siv_value(self):
        acl, bk = siv_closed_loop()
        assert dwell_time_bound(0.5, acl, bk) == pytest.approx(SIV_TAU_STAR, abs=1e-12)

    def test_monotone_in_norms(self):
        acl, bk = siv_closed_loop()
        assert dwell_time_bound(0.5, 2.0 * acl, 2.0 * bk) < dwell_time_bound(
            0.5, acl, bk
        )

    def test_rejects_bad_sigma(self):
        acl, bk = siv_closed_loop()
        for sigma in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                dwell_time_bound(sigma, acl, bk)


def _toy_trace(times, g_values, event_indices):
    n = len(times)
    zeros = np.zeros(n)
    g = np.asarray(g_values, dtype=float)
    event = np.zeros(n, dtype=np.int64)
    event[list(event_indices)] = 1
    return SimulationTrace(
        t=np.asarray(times, dtype=float),
        x=zeros.copy(), y=zeros.copy(), theta=zeros.copy(),
        xhat=g[:, 0].copy(), yhat=g[:, 1].copy(), thetahat=g[:, 2].copy(),
        q=zeros.copy(),
        g1=g[:, 0].copy(), g2=g[:, 1].copy(), g3=g[:, 2].copy(),
        u1=zeros.copy(), u2=zeros.copy(), xi=zeros.copy(),
        event=event,
    )


@functools.cache
def _verify_trace(config, t_final):
    """(averaged trace, P, decay rate, trigger floor) of a verify run."""
    sc = replace(load_scenario(config), t_final=t_final)
    report, trace = verify_scenario(sc)
    model = build_average_matrices(sc.field.theta_star, sc.dithers)
    k = np.asarray(sc.gain.rows, dtype=float)
    p = solve_lyapunov(model.a - model.b @ k, np.eye(3)).p
    return trace, p, report.decay_rate, trigger_floor(sc.trigger)


class TestDecayEnvelope:
    def test_exact_decay_passes(self):
        times = np.linspace(0.0, 1.0, 11)
        rate = 2.0
        g = np.stack([np.exp(-0.5 * rate * times), np.zeros(11), np.zeros(11)], axis=1)
        trace = _toy_trace(times, g, [0, 5, 10])
        assert decay_envelope_check(trace, np.eye(3), rate, 1e-6) == 0

    def test_doubling_between_events_is_flagged(self):
        times = np.array([0.0, 0.5, 1.0])
        g = np.array([[1.0, 0, 0], [1.2, 0, 0], [math.sqrt(2.0), 0, 0]])
        trace = _toy_trace(times, g, [0, 2])
        assert decay_envelope_check(trace, np.eye(3), 1.0, 1e-6) == 1

    def test_floor_gates_the_check(self):
        times = np.array([0.0, 0.5, 1.0])
        g = np.array([[0.1, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        trace = _toy_trace(times, g, [0, 2])
        assert decay_envelope_check(trace, np.eye(3), 1.0, 1e-6, floor=0.5) == 0
        assert decay_envelope_check(trace, np.eye(3), 1.0, 1e-6, floor=0.0) == 1

    def test_fewer_than_two_events_count_nothing(self):
        times = np.array([0.0, 0.5, 1.0])
        g = np.array([[1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])
        for events in ([], [0], [2]):
            trace = _toy_trace(times, g, events)
            assert decay_envelope_check(trace, np.eye(3), 1.0, 0.0) == 0

    def test_floor_window_is_closed_at_both_events(self):
        # With rate 0, a pair violates whenever V grows by more than the
        # tolerance; the floor skips a pair when any row of its closed
        # window, event rows included, has a norm at or below it.
        times = np.arange(7.0)
        norms = [1.0, 1.0, 1.0, math.sqrt(2.0), 3.0, 0.5, 2.0]
        g = np.array([[n, 0.0, 0.0] for n in norms])

        def counts(events, tolerance, floors):
            trace = _toy_trace(times, g, events)
            return [decay_envelope_check(trace, np.eye(3), 0.0, tolerance, f) for f in floors]

        # V goes 1 -> 2 -> 4; the second window dips to 0.5 strictly inside.
        assert counts([0, 3, 6], 0.0, (0.4, 0.5, 0.9, 1.0)) == [2, 1, 1, 0]
        # V goes 1 -> 0.25 -> 4; the 0.5 row closes one window and opens the next.
        assert counts([0, 5, 6], -0.9, (0.4, 0.5)) == [2, 0]

    def test_ties_at_the_envelope_are_decided_like_math_exp(self):
        # V(t_1) is the envelope exp(-dt) * V(t_0) = exp(-dt) exactly, or
        # the next float above it, so the last bit of exp decides the pair.
        # numpy's vectorized exp differs from math.exp in that bit for some
        # arguments on some CPUs.
        for dt in np.random.default_rng(5).uniform(1e-4, 2.0, 200):
            trace = _toy_trace([0.0, dt], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0, 1])
            envelope = math.exp(-dt)
            counts = [
                decay_envelope_check(trace, np.diag([1.0, v_end, 0.0]), 1.0, 0.0)
                for v_end in (envelope, np.nextafter(envelope, math.inf))
            ]
            assert counts == [0, 1]

    @settings(deadline=None, database=None, max_examples=200)
    @given(data=st.data())
    def test_matches_the_per_pair_oracle(self, data):
        n = data.draw(st.integers(1, 24), label="rows")
        coord = st.one_of(st.sampled_from([0.0, 1.0, -1.0, math.nan]), st.floats(-10.0, 10.0))
        gaps = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1))
        g = np.array(
            data.draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n)),
            dtype=float,
        ).reshape(n, 3)
        events = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="events")
        trace = _toy_trace(np.concatenate([[0.0], np.cumsum(gaps)]), g, np.flatnonzero(events))
        # A floor drawn from the rows' own norms can equal a window's minimum.
        row_norms = np.linalg.norm(g, axis=1).tolist()
        floor = data.draw(
            st.one_of(st.sampled_from(row_norms), st.sampled_from([0.0, -1.0]), st.floats(0.0, 20.0)),
            label="floor",
        )
        tolerance = data.draw(
            st.one_of(st.sampled_from([0.05, 0.0, -0.5, -1.0]), st.floats(-2.0, 2.0)),
            label="tolerance",
        )
        rate = data.draw(st.one_of(st.just(0.0), st.floats(-5.0, 20.0)), label="rate")
        p = data.draw(
            st.one_of(
                st.just(np.eye(3)),
                st.lists(coord, min_size=9, max_size=9).map(lambda e: np.reshape(e, (3, 3))),
            ),
            label="P",
        )
        assert decay_envelope_check(trace, p, rate, tolerance, floor) == (
            decay_envelope_violations(trace, p, rate, tolerance, floor)
        )

    @pytest.mark.parametrize(
        ("config", "t_final", "floor", "tolerance", "rate_scale", "expected"),
        [
            ("paper_siv.cfg", 5.0, "trigger", 0.05, 1.0, 0),
            ("paper_siv.cfg", 5.0, "trigger", -0.5, 1.0, 1),
            ("smallgain.cfg", 1.0, "trigger", 0.05, 1.0, 0),
            ("smallgain.cfg", 1.0, "zero", -1e-3, 1.0, 9999),
            ("smallgain.cfg", 1.0, "median", -1e-3, 1.0, 4999),
            ("smallgain.cfg", 1.0, "zero", -1e-4, 10.0, 487),
        ],
    )
    def test_matches_the_oracle_on_verify_traces(
        self, config, t_final, floor, tolerance, rate_scale, expected
    ):
        trace, p, rate, trigger_level = _verify_trace(config, t_final)
        levels = {
            "trigger": trigger_level,
            "zero": 0.0,
            "median": float(np.median(np.sqrt(trace.g1**2 + trace.g2**2 + trace.g3**2))),
        }
        args = (trace, p, rate * rate_scale, tolerance, levels[floor])
        assert decay_envelope_check(*args) == decay_envelope_violations(*args) == expected

    def test_memory_scales_with_events_not_rows(self):
        # 600,001 rows with both events in the first 1,000: stacking G for
        # every row alone would take 14.4 MB.
        n = 600_001
        zeros = np.zeros(n)
        cols = {name: zeros for name in TRACE_COLUMNS if name != "event"}
        cols.update(t=np.arange(n) * 1e-4, g1=np.linspace(2.0, 1.0, n))
        event = np.zeros(n, dtype=np.int64)
        event[[0, 999]] = 1
        trace = SimulationTrace(event=event, **cols)
        tracemalloc.start()
        try:
            count = decay_envelope_check(trace, np.eye(3), 50.0, 0.0, floor=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert count == decay_envelope_violations(trace, np.eye(3), 50.0, 0.0, floor=0.5) == 1


class TestAveragingError:
    def test_identical_traces(self):
        times = np.linspace(0.0, 1.0, 5)
        g = np.random.default_rng(0).normal(size=(5, 3))
        trace = _toy_trace(times, g, [0])
        assert averaging_error(trace, trace) == 0.0

    def test_constant_offset(self):
        times = np.linspace(0.0, 1.0, 5)
        g = np.random.default_rng(1).normal(size=(5, 3))
        a = _toy_trace(times, g, [0])
        b = _toy_trace(times, g + np.array([0.3, -0.4, 1.2]), [0])
        assert averaging_error(a, b) == pytest.approx(
            math.sqrt(0.3**2 + 0.4**2 + 1.2**2), abs=1e-12
        )

    def test_grid_mismatch_rejected(self):
        g = np.zeros((5, 3))
        a = _toy_trace(np.linspace(0.0, 1.0, 5), g, [0])
        b = _toy_trace(np.linspace(0.0, 2.0, 5), g, [0])
        with pytest.raises(ValueError):
            averaging_error(a, b)
        c = _toy_trace(np.linspace(0.0, 1.0, 4), np.zeros((4, 3)), [0])
        with pytest.raises(ValueError):
            averaging_error(a, c)


class TestVerifyScenario:
    def test_siv_report(self, siv_scenario):
        report, trace = verify_scenario(replace(siv_scenario, t_final=10.0))
        assert report.hurwitz is True
        assert report.alpha_min == pytest.approx(SIV_ALPHA_MIN, abs=1e-9)
        assert report.alpha_ok is False
        assert report.tau_star == pytest.approx(SIV_TAU_STAR, abs=1e-12)
        assert report.min_inter_event == pytest.approx(0.0953, abs=1e-6)
        assert report.envelope_violations == 0
        assert report.decay_rate == pytest.approx(0.055365887360831235, abs=1e-12)
        assert report.residual_scale_theorem == pytest.approx(0.75, abs=1e-15)
        assert report.residual_scale_appendix == pytest.approx(
            0.4330127018922193, abs=1e-15
        )
        assert trace is not None

    def test_smallgain_report_is_compliant(self, smallgain_scenario):
        report, _ = verify_scenario(replace(smallgain_scenario, t_final=5.0))
        assert report.hurwitz is True
        assert report.alpha_ok is True
        assert report.envelope_violations == 0

    def test_siv_report_is_pinned_at_five_seconds(self, siv_scenario):
        # The exact report of `etseek verify --config paper_siv.cfg
        # --t-final 5`, as pinned for the benchmark's siv_verify workload.
        report, _ = verify_scenario(replace(siv_scenario, t_final=5.0))
        assert report.as_dict() == {
            "hurwitz": True,
            "alpha_min": 3.750933537108479,
            "alpha_ok": False,
            "tau_star": 0.04786966671118977,
            "min_inter_event": 0.09530000000000001,
            "decay_rate": 0.055365887360831235,
            "envelope_violations": 0,
            "averaging_sup_error": None,
            "residual_scale_theorem": 0.75,
            "residual_scale_appendix": 0.4330127018922193,
        }
        assert list(report.as_dict()) == [
            "hurwitz", "alpha_min", "alpha_ok", "tau_star", "min_inter_event",
            "decay_rate", "envelope_violations", "averaging_sup_error",
            "residual_scale_theorem", "residual_scale_appendix",
        ]

    def test_non_hurwitz_gain_gets_no_certificate(self, siv_scenario):
        # With K = 0 the closed loop is A itself, whose eigenvalues are all 0.
        zero = GainMatrix(rows=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        report, trace = verify_scenario(replace(siv_scenario, gain=zero, t_final=0.01))
        assert trace is None
        assert report.hurwitz is False
        assert report.tau_star is not None and report.tau_star > 0.0
        assert report.residual_scale_theorem == 0.75
        assert report.residual_scale_appendix == pytest.approx(0.4330127018922193, abs=1e-15)
        for name in (
            "alpha_min", "alpha_ok", "min_inter_event", "decay_rate",
            "envelope_violations", "averaging_sup_error",
        ):
            assert getattr(report, name) is None, name
