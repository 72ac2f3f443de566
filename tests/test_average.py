import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from etseek import trigger
from etseek.analysis import alpha_lower_bound, solve_lyapunov
from etseek.average import AverageModel, build_average_matrices, run_average_loop
from etseek.config import Scenario, load_scenario, scale_probing_frequency
from etseek.engine import run_simulation
from etseek.trace import TRACE_COLUMNS, NonFiniteStateError, ScenarioError, SimulationTrace
from etseek.trigger import TriggerConstants, trigger_bias, trigger_floor
from etseek.vehicle import DitherParams, QuadraticField, VehicleState, bessel_j
from tests.conftest import PAPER_SIV_GAIN, THETA_STAR
from tests.reference import average_derivative, delta_bar_norm_bound, period_average_drift

# Source at the origin: the pose columns then carry the averaged error itself.
ORIGIN = QuadraticField(0.0, 0.0, 0.0, 0.0)
NO_DITHERS = DitherParams(0.0, 0.0, 0.0, 4.0, 4.0, 2.0)


def loop_scenario(gain, consts, g0, dt, t_final, dithers=NO_DITHERS):
    """A scenario whose averaged loop starts from G(0) = g0 exactly, under
    the trigger bias a1*omega3*|J_2(a3)| of ``dithers``.

    With the source at the origin the estimator pose at t = 0 is the
    initial pose with y offset by a2/2, so the scenario takes ``dithers``
    with a2 = 0, which the bias does not read.  The model is passed to the
    loop on its own, so the dithers set nothing else.
    """
    return Scenario(
        field=ORIGIN, dithers=replace(dithers, a2=0.0), gain=gain,
        trigger=consts, initial=VehicleState(*g0), dt=dt, t_final=t_final, mode="average",
    )

# Entries for theta* = pi/6, a1 = a3 = 0.5, omega3 = 20, frozen from an
# independent evaluation with J0(0.5) = 0.938469807240813 and
# J2(0.5) = 0.030604023458683.  (A published round-off puts B11 near
# 1.141085; the formula value is the one asserted here.)
SIV_A13 = -0.0560092502194637
SIV_A23 = 0.2090293675128769
SIV_B11 = 1.140986798687818
SIV_B21 = 0.6717518950674114


def siv_model():
    d = DitherParams(0.5, 0.5, 0.5, 10.0, 10.0, 20.0, frequency_override=True)
    return build_average_matrices(THETA_STAR, d), d


class TestBuildAverageMatrices:
    def test_siv_entries(self):
        model, _ = siv_model()
        assert model.a[0, 2] == pytest.approx(SIV_A13, abs=1e-12)
        assert model.a[1, 2] == pytest.approx(SIV_A23, abs=1e-12)
        assert model.b[0, 0] == pytest.approx(SIV_B11, abs=1e-12)
        assert model.b[1, 0] == pytest.approx(SIV_B21, abs=1e-12)
        assert model.delta_bar[0] == pytest.approx(SIV_A23, abs=1e-12)
        assert model.delta_bar[1] == pytest.approx(-SIV_A23, abs=1e-12)
        assert model.delta_bar[2] == 0.0

    def test_zero_forward_amplitude_kills_bias(self):
        d = DitherParams(0.0, 0.5, 0.5, 4.0, 4.0, 2.0)
        model = build_average_matrices(0.7, d)
        assert np.all(model.a == 0.0)
        assert np.all(model.delta_bar == 0.0)

    def test_vanishing_angular_dither_limit(self):
        d = DitherParams(0.5, 0.5, 1e-8, 4.0, 4.0, 2.0)
        model = build_average_matrices(0.7, d)
        expected_b11 = 0.5 + math.sqrt(2) / 2 * math.cos(2 * 0.7 - math.pi / 4)
        assert np.abs(model.a).max() <= 1e-14
        assert np.abs(model.delta_bar).max() <= 1e-14
        assert model.b[0, 0] == pytest.approx(expected_b11, abs=1e-8)

    def test_structure_invariants_random(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            theta = rng.uniform(-math.pi, math.pi)
            a1, a2, a3 = rng.uniform(0.01, 1.0, size=3)
            w3 = rng.uniform(0.5, 50.0)
            d = DitherParams(a1, a2, a3, 2 * w3, 2 * w3, w3)
            model = build_average_matrices(theta, d)
            assert np.all(model.a[:, :2] == 0.0)
            assert np.all(model.a[2, :] == 0.0)
            assert np.all(model.b[:, 1] == np.array([0.0, 0.0, 1.0]))
            assert model.b[2, 0] == 0.0
            assert model.delta_bar[1] == -model.delta_bar[0]
            assert model.delta_bar[2] == 0.0


@pytest.mark.parametrize("name", ["smallgain.cfg", "paper_siv.cfg"])
def test_b_first_column_is_the_plant_period_average(name):
    # u1 enters the speed linearly, so the plant's averaged d(xhat, yhat)/dt
    # moves by B[:, 0] per unit of u1 at thetahat = theta*.
    sc = load_scenario(name)
    d, theta_star = sc.dithers, sc.field.theta_star
    model = build_average_matrices(theta_star, d)
    zero = period_average_drift(d, theta_star, (0.0, 0.0))
    unit = period_average_drift(d, theta_star, (1.0, 0.0))
    assert unit[0] - zero[0] == pytest.approx(model.b[0, 0], abs=1e-12)
    assert unit[1] - zero[1] == pytest.approx(model.b[1, 0], abs=1e-12)


@pytest.mark.parametrize("thetahat", [0.0, 0.3, math.pi / 6, 2.0])
def test_period_average_drift_closed_forms(thetahat):
    # With omega1 = omega2 = 2*omega3 the forward dither resonates with the
    # second harmonic of the heading dither; with omega1 = omega2 = omega3/2,
    # as on paper_siv, nothing resonates and the plant has no drift.
    d = DitherParams(0.5, 0.5, 0.4, 40.0, 40.0, 20.0)
    kappa = d.a1 * d.omega3 * bessel_j(2, d.a3)
    drift = period_average_drift(d, thetahat, (0.0, 0.0))
    assert drift[0] == pytest.approx(kappa * math.cos(2.0 * thetahat), abs=1e-12)
    assert drift[1] == pytest.approx(kappa * math.sin(2.0 * thetahat), abs=1e-12)
    d = DitherParams(0.5, 0.5, 0.5, 10.0, 10.0, 20.0, frequency_override=True)
    assert period_average_drift(d, thetahat, (0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize(
    "name, a_col, d_delta",
    [("smallgain.cfg", (-0.03612, 0.13479), 0.07223), ("paper_siv.cfg", (-0.05601, 0.20903), 0.11202)],
)
def test_a_third_column_is_not_the_derivative_of_delta_bar(name, a_col, d_delta):
    # The transcribed model is not self-consistent: A[:, 2] should be
    # d(delta_bar)/d(theta*), the drift's linearization in the heading
    # error, but A[1, 2] is delta_bar[0] itself and A[0, 2] half its
    # derivative, so A[:2, 2] is neither (README "Known defects" 5).
    sc = load_scenario(name)
    d, theta_star = sc.dithers, sc.field.theta_star
    model = build_average_matrices(theta_star, d)
    h = 1e-5
    ahead = build_average_matrices(theta_star + h, d).delta_bar
    behind = build_average_matrices(theta_star - h, d).delta_bar
    derivative = (ahead - behind) / (2.0 * h)
    assert model.a[1, 2] == model.delta_bar[0]
    assert model.a[0, 2] == pytest.approx(0.5 * derivative[0], rel=1e-9)
    assert model.a[:2, 2] == pytest.approx(a_col, abs=1e-5)
    assert derivative[:2] == pytest.approx((-d_delta, d_delta), abs=1e-5)
    assert not np.allclose(model.a[:2, 2], derivative[:2], rtol=0.1)


class TestDeltaBarNormBound:
    def test_siv_values(self):
        model, d = siv_model()
        norm, bound = delta_bar_norm_bound(model, d)
        assert norm == pytest.approx(0.2956121664709806, abs=1e-12)
        assert bound == pytest.approx(0.3060402345868264, abs=1e-12)
        assert norm <= bound

    def test_zero_amplitude(self):
        d = DitherParams(0.0, 0.5, 0.5, 4.0, 4.0, 2.0)
        model = build_average_matrices(0.3, d)
        assert delta_bar_norm_bound(model, d) == (0.0, 0.0)

    def test_tightness_at_pi_over_eight(self):
        # cos(2*theta* - pi/4) = 1 makes the bound exact; composed rounding
        # may overshoot by one ulp, so the comparison gets ulp-scale slack.
        d = DitherParams(0.5, 0.5, 0.5, 4.0, 4.0, 2.0)
        model = build_average_matrices(math.pi / 8, d)
        norm, bound = delta_bar_norm_bound(model, d)
        assert norm <= bound * (1.0 + 4e-16)
        assert abs(bound - norm) <= 1e-12 * bound

    def test_bound_dominates_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            theta = rng.uniform(-math.pi, math.pi)
            a1, a2, a3 = rng.uniform(0.01, 1.0, size=3)
            w3 = rng.uniform(0.5, 50.0)
            d = DitherParams(a1, a2, a3, 2 * w3, 2 * w3, w3)
            norm, bound = delta_bar_norm_bound(build_average_matrices(theta, d), d)
            assert norm <= bound + 1e-15


class TestAverageDerivative:
    def test_affine_offset(self):
        model, _ = siv_model()
        out = average_derivative(np.zeros(3), np.zeros(3), model, PAPER_SIV_GAIN)
        assert np.allclose(out, model.delta_bar, atol=1e-15)

    def test_linear_part_without_bias(self):
        model, _ = siv_model()
        no_bias = AverageModel(a=model.a, b=model.b, delta_bar=np.zeros(3))
        k = np.asarray(PAPER_SIV_GAIN.rows)
        g = np.array([0.4, -0.2, 0.9])
        out = average_derivative(g, np.zeros(3), no_bias, PAPER_SIV_GAIN)
        assert np.allclose(out, (model.a - model.b @ k) @ g, atol=1e-14)

    def test_first_column_assembly(self):
        model, _ = siv_model()
        k = np.asarray(PAPER_SIV_GAIN.rows)
        out = average_derivative(
            np.array([1.0, 0.0, 0.0]), np.zeros(3), model, PAPER_SIV_GAIN
        )
        expected = model.delta_bar + (model.a - model.b @ k)[:, 0]
        assert np.allclose(out, expected, atol=1e-14)


class TestRunAverageLoop:
    def test_equilibrium_at_origin(self):
        model, _ = siv_model()
        no_bias = AverageModel(a=model.a, b=model.b, delta_bar=np.zeros(3))
        c = TriggerConstants(0.5, 0.195)
        trace = run_average_loop(
            no_bias, loop_scenario(PAPER_SIV_GAIN, c, (0.0, 0.0, 0.0), 1e-3, 0.5)
        )
        assert trace.events.shape[0] == 1
        assert trace.events[0, 0] == 0.0
        assert np.all(trace.g1 == 0.0) and np.all(trace.g2 == 0.0)
        assert np.all(trace.g3 == 0.0)

    def test_horizon_must_hold_a_step(self):
        # t_final < dt/2 rounds to zero steps, which would leave row 0 as
        # the last row and so not an event.  The scenario refuses any
        # t_final < dt before the loop can see it.
        model, d = siv_model()
        c = TriggerConstants(0.5, 0.195)
        g0 = (2.5, 2.75, math.pi / 6)
        with pytest.raises(ScenarioError, match="run.t_final"):
            loop_scenario(PAPER_SIV_GAIN, c, g0, 1e-3, 3e-4, d)
        trace = run_average_loop(model, loop_scenario(PAPER_SIV_GAIN, c, g0, 1e-3, 1e-3, d))
        assert len(trace) == 2
        assert trace.event_indices().tolist() == [0]

    def test_continuous_decay(self):
        # The Euclidean norm of a non-normal stable system is not monotone
        # (it transiently grows here); the Lyapunov-weighted norm is, and
        # the state must contract to zero.  A trigger bias of 1e3 puts the
        # whole run inside the floor ball of radius 2*(alpha/sigma)*bias = 780,
        # where Xi < 0 at every step, so the control is updated every step.
        model, _ = siv_model()
        no_bias = AverageModel(a=model.a, b=model.b, delta_bar=np.zeros(3))
        c = TriggerConstants(0.5, 0.195)
        d = replace(NO_DITHERS, a1=1e3 / (2.0 * bessel_j(2, 1.0)), a3=1.0)
        assert trigger_bias(d) == pytest.approx(1e3, rel=1e-15)
        trace = run_average_loop(
            no_bias, loop_scenario(PAPER_SIV_GAIN, c, (1.0, -0.5, 0.3), 1e-3, 12.0, d)
        )
        assert trace.event[:-1].all()
        k = np.asarray(PAPER_SIV_GAIN.rows)
        cert = solve_lyapunov(model.a - model.b @ k, np.eye(3))
        g = np.stack([trace.g1, trace.g2, trace.g3], axis=1)
        v = np.einsum("ij,jk,ik->i", g, cert.p, g)
        assert np.all(np.diff(v) <= 1e-12)
        assert np.linalg.norm(g[-1]) <= 1e-3 * np.linalg.norm(g[0])

    def test_siv_run_escapes_after_two_events(self):
        """Regression pin for the published constants.

        With sigma = 0.5 > alpha = 0.195 the hold that starts at the second
        event never terminates: sigma*||G|| outgrows alpha*||e|| along the
        drift direction, so the averaged loop leaves the neighborhood of the
        origin instead of entering the trigger-floor ball.  See the
        known-defects section of the README.
        """
        model, d = siv_model()
        c = TriggerConstants(0.5, 0.195)
        trace = run_average_loop(
            model, loop_scenario(PAPER_SIV_GAIN, c, (2.5, 2.75, math.pi / 6), 1e-4, 60.0, d)
        )
        assert trace.events.shape[0] == 2
        assert trace.events[1, 0] == pytest.approx(0.0953, abs=1e-6)
        final_norm = math.sqrt(trace.g1[-1] ** 2 + trace.g2[-1] ** 2 + trace.g3[-1] ** 2)
        assert final_norm > trigger_floor(c, trigger_bias(d))

    def test_lyapunov_rate_between_events_with_certified_alpha(self):
        """Finite-difference check of dV/dt <= -lmin(Q)(1-sigma)||G||^2.

        Uses a compliant trigger constant (above every constant the decay
        derivation needs), so the bound must hold at every step whose norm
        stays above the trigger floor, within 5% slack.
        """
        d = DitherParams(0.25, 0.25, 0.3, 40.0, 40.0, 20.0)
        model = build_average_matrices(THETA_STAR, d)
        k = np.asarray(PAPER_SIV_GAIN.rows) / 10.0
        gain = type(PAPER_SIV_GAIN)(rows=tuple(tuple(row) for row in k))
        acl = model.a - model.b @ k
        bk = model.b @ k
        cert = solve_lyapunov(acl, np.eye(3))
        lam_q = 1.0
        alpha = 1.05 * max(
            alpha_lower_bound(cert.p, acl, cert.q),
            2.0 * np.linalg.norm(cert.p @ bk, 2) / lam_q,
            2.0 * np.linalg.norm(cert.p, 2) / lam_q,
        )
        sigma = 0.5
        c = TriggerConstants(sigma, alpha)
        dt = 1e-4
        # Large initial condition: the certified alpha makes the trigger
        # floor sit around 24, and the decay claim only applies above it.
        trace = run_average_loop(model, loop_scenario(gain, c, (80.0, 60.0, 30.0), dt, 8.0, d))
        g = np.stack([trace.g1, trace.g2, trace.g3], axis=1)
        v = np.einsum("ij,jk,ik->i", g, cert.p, g)
        norms = np.linalg.norm(g, axis=1)
        floor = trigger_floor(c, trigger_bias(d))
        rate = lam_q * (1.0 - sigma)
        checked = 0
        for i in range(len(trace) - 1):
            if min(norms[i], norms[i + 1]) <= floor:
                continue
            vdot = (v[i + 1] - v[i]) / dt
            assert vdot <= -0.95 * rate * norms[i] ** 2 + 1e-9
            checked += 1
        assert checked > 100


# sha256 over the 15 trace columns and the event log of the shipped
# scenarios' full-horizon runs (60 s and 30 s), averaged and full.
# Regrouping one float expression of a loop, or a last-bit difference
# between a hold block and the scalar step, can move a last bit only once in
# hundreds of thousands of steps, which the 2 s golden digests and the
# short reference runs rarely reach.
FULL_HORIZON_DIGESTS = {
    "paper_siv.cfg": "b1eb510a4e983324fff19a0e31569fc6423c91f33e4779e36be14e3429162442",
    "smallgain.cfg": "c08f306d8d26872baf4905356aec044b65723711e37e94c5433b0b0b0b250534",
}
FULL_LOOP_DIGESTS = {
    "paper_siv.cfg": "00b55e154c9360eb260c51b077a76fde56e93c5a78d4e99b2d48e4172a9a94d4",
    "smallgain.cfg": "dbc13286b3250897da9732eb1b14ddb7edb7f9ac1df20495d607705c126cb348",
}


def trace_digest(trace):
    digest = hashlib.sha256()
    for column in TRACE_COLUMNS:
        digest.update(trace.column(column).tobytes())
    digest.update(trace.events.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FULL_HORIZON_DIGESTS))
def test_full_horizon_digests(name):
    trace, _ = run_simulation(replace(load_scenario(name), mode="average"))
    assert trace_digest(trace) == FULL_HORIZON_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FULL_LOOP_DIGESTS))
def test_full_loop_full_horizon_digests(name):
    # paper_siv holds for its last 56 s, almost all of it in hold blocks;
    # smallgain never holds for long enough to leave the scalar path.
    trace, _ = run_simulation(load_scenario(name))
    assert trace_digest(trace) == FULL_LOOP_DIGESTS[name]


# The sample clocks over the same horizons, pinned while every clock row ran
# on the scalar loop.  A 20 ms or 50 ms clock now holds in hold blocks; a
# diverging run pins the time of its NonFiniteStateError.
CLOCK_DIGESTS = {
    ("paper_siv.cfg", 0.05): 0.3501,
    ("smallgain.cfg", 0.02): "209a99eb9b187de28c6ccfe1fee3e4e71ea1a504c8ff8879338a70dbe091dccb",
    ("smallgain.cfg", 0.05): "65fef7e4f68f7e3b616d028c10779d3757375d31bc7ef0c2558c19a8a6e069d0",
}


@pytest.mark.parametrize("name, period", sorted(CLOCK_DIGESTS))
def test_sample_clock_full_horizon_digests(name, period):
    sc = replace(load_scenario(name), mode=f"sampled-data({period})")
    expected = CLOCK_DIGESTS[(name, period)]
    if isinstance(expected, float):
        with pytest.raises(NonFiniteStateError) as info:
            run_simulation(sc)
        assert info.value.t == expected
        return
    trace, _ = run_simulation(sc)
    assert trace_digest(trace) == expected


HOLD_CASES = {
    # Two events, then one hold that runs to the horizon.
    "paper_siv": replace(load_scenario("paper_siv.cfg"), mode="average", t_final=0.5),
    # Runs of every-step events between holds of up to 353 steps.
    "smallgain@40": replace(
        scale_probing_frequency(load_scenario("smallgain.cfg"), 2.0),
        mode="average", t_final=0.5,
    ),
    # The full loop: 38 events, holds of 1 to 2,715 steps.
    "paper_siv-full": replace(load_scenario("paper_siv.cfg"), t_final=0.5),
}


@pytest.mark.parametrize("name", sorted(HOLD_CASES))
@pytest.mark.parametrize("scalar_hold, first, widest", [(1, 2, 3), (0, 1, 1), (3, 1, 2)])
def test_hold_blocks_of_any_width_match_default(monkeypatch, name, scalar_hold, first, widest):
    # Tiny blocks make a hold fire on a block's first row, end a block on
    # the last row, and carry a hold to the horizon, many times over.  Both
    # loops read the one set of block constants in etseek.trigger.
    sc = HOLD_CASES[name]
    expected, _ = run_simulation(sc)
    monkeypatch.setattr(trigger, "_SCALAR_HOLD", scalar_hold)
    monkeypatch.setattr(trigger, "_FIRST_BLOCK", first)
    monkeypatch.setattr(trigger, "_MAX_BLOCK", widest)
    trace, _ = run_simulation(sc)
    for column in TRACE_COLUMNS:
        assert trace.column(column).tobytes() == expected.column(column).tobytes(), column
    assert trace.events.tobytes() == expected.events.tobytes()


def test_float_power_squares_like_python():
    # The full loop squares with ** 2 in q, e_norm and Xi; the averaged loop
    # only in e_norm (its q and Xi square G with g * g).  ** 2 is libm
    # pow(x, 2.0); x * x is the correctly rounded square and differs in the
    # last bit for a fraction of doubles.  Hold blocks square with
    # np.float_power(x, 2.0), so it must give pow's bits, including where
    # x * x does not.
    rng = np.random.default_rng(20261018)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 8, 100_000)
    python = np.array([v ** 2 for v in x.tolist()])
    apart = x[x * x != python]
    for values in (apart, x):
        squared = np.float_power(values, 2.0)
        expected = np.array([v ** 2 for v in values.tolist()])
        mismatched = np.count_nonzero(squared != expected)
        assert mismatched == 0, (
            f"np.float_power(x, 2.0) differs from Python's x ** 2 on {mismatched} of "
            f"{values.size} doubles ({apart.size} of the draws have x * x != x ** 2): "
            "the hold blocks of the full and averaged loops would no longer "
            "reproduce their scalar steps bit for bit"
        )


def test_numpy_trig_matches_math():
    # The full loop's hold blocks take sin and cos from numpy where the
    # scalar loop calls math.sin and math.cos.  numpy does not promise the
    # same bits (its SIMD loops may differ from libm); checked here on every
    # dither argument w*t, w*(t + dt/2) and w*(t + dt) of the 60 s paper_siv
    # run and on seeded draws over the headings a run visits.
    sc = load_scenario("paper_siv.cfg")
    d = sc.dithers
    dt = sc.dt
    t = np.arange(round(sc.t_final / dt) + 1) * dt
    grid = np.concatenate([
        w * times
        for w in sorted({d.omega1, d.omega2, d.omega3})
        for times in (t, t + 0.5 * dt, t + dt)
    ])
    headings = np.random.default_rng(20261018).uniform(-100.0, 100.0, 500_000)
    for label, values in (("dither arguments", grid), ("headings", headings)):
        listed = values.tolist()
        for ours, reference in ((np.sin, math.sin), (np.cos, math.cos)):
            expected = np.fromiter(map(reference, listed), float, len(listed))
            mismatched = np.count_nonzero(ours(values) != expected)
            assert mismatched == 0, (
                f"np.{ours.__name__} differs from math.{reference.__name__} on "
                f"{mismatched} of {values.size} {label}: the full loop's hold "
                "blocks would no longer reproduce its scalar steps bit for bit"
            )


def test_overflow_in_a_hold_block_raises_at_the_scalar_row(monkeypatch):
    # From |G| near 7e49, |q| passes 1e100 about 565 steps into the hold,
    # inside the second block; the block must hand that row back to the
    # scalar loop, which raises there, with the same rows written as the
    # scalar-only loop.
    traces = []
    allocate = SimulationTrace.preallocate

    def marked(n_rows, system="full"):
        trace = allocate(n_rows, system)
        for column in TRACE_COLUMNS[:-1]:
            trace.column(column)[:] = np.nan
        traces.append(trace)
        return trace

    monkeypatch.setattr(SimulationTrace, "preallocate", marked)
    model, d = siv_model()
    c = TriggerConstants(0.5, 0.195)
    g0 = (7e49, -7e49, 3.5e49)
    first_blocks = trigger._SCALAR_HOLD + trigger._FIRST_BLOCK
    failed_at = []
    for scalar_hold in (trigger._SCALAR_HOLD, 10**9):
        monkeypatch.setattr(trigger, "_SCALAR_HOLD", scalar_hold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as info:
                run_average_loop(model, loop_scenario(PAPER_SIV_GAIN, c, g0, 1e-4, 0.1, d))
        failed_at.append(info.value.t)
    blocked, scalar = traces
    written = np.count_nonzero(~np.isnan(scalar.q))
    assert written > first_blocks + 1
    assert failed_at[0] == failed_at[1] == written * 1e-4
    assert np.all(np.abs(scalar.q[:written]) <= 1e100)
    for column in TRACE_COLUMNS:
        assert blocked.column(column).tobytes() == scalar.column(column).tobytes(), column
