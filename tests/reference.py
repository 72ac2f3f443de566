"""Test-only oracles: closed forms that no production path evaluates.

Each restates a quantity of the model independently of the code under
test, so the tests can check the production functions against it.
"""

import math
from fractions import Fraction

import numpy as np

from etseek.average import AverageModel
from etseek.trace import SimulationTrace
from etseek.trigger import GainMatrix
from etseek.vehicle import (
    DitherParams,
    QuadraticField,
    VehicleState,
    _check_args,
    bessel_j,
    dither_velocities,
)


def gradient(field: QuadraticField, pose: VehicleState) -> tuple[float, float, float]:
    """Analytic field gradient."""
    return (
        -(pose.x - field.x_star),
        -(pose.y - field.y_star),
        -(pose.theta - field.theta_star),
    )


def state_derivative(
    s: VehicleState, v: float, omega: float
) -> tuple[float, float, float]:
    """Kinematics of the robot center: (v cos theta, v sin theta, omega)."""
    return v * math.cos(s.theta), v * math.sin(s.theta), omega


def dither_vector(d: DitherParams, t: float) -> tuple[float, float, float]:
    """Additive dither S(t); pose minus maximizer equals error plus S(t)."""
    return (
        0.5 * d.a1 * math.sin(d.omega1 * t),
        -0.5 * d.a2 * math.cos(d.omega2 * t),
        0.5 * d.a3 * math.sin(d.omega3 * t),
    )


def average_derivative(
    g_av: np.ndarray, e_av: np.ndarray, model: AverageModel, gain: GainMatrix
) -> np.ndarray:
    """Right-hand side (A - BK) g_av - BK e_av + delta_bar in original time."""
    k = np.asarray(gain.rows, dtype=float)
    bk = model.b @ k
    return (model.a - bk) @ np.asarray(g_av) - bk @ np.asarray(e_av) + model.delta_bar


# Panel count for the Simpson rule.  2048 panels already meet the 1e-10
# route-agreement budget for |x| <= 5, m <= 4; 8192 gives margin.
_QUADRATURE_PANELS = 8192


def bessel_j_quadrature(order: int, x: float) -> float:
    """J_order(x) by composite Simpson on the integral representation.

    Fixed, deterministic panel count; an independent oracle for
    :func:`etseek.vehicle.bessel_j`, with the same argument checks.
    """
    _check_args(order, x)
    m = int(order)
    n = _QUADRATURE_PANELS
    h = math.pi / n
    acc = math.cos(x * math.sin(0.0)) + math.cos(x * math.sin(math.pi) - m * math.pi)
    for i in range(1, n):
        tau = i * h
        weight = 4.0 if i % 2 == 1 else 2.0
        acc += weight * math.cos(x * math.sin(tau) - m * tau)
    return acc * h / (3.0 * math.pi)


def common_dither_period(d: DitherParams) -> float:
    """The shortest T > 0 after which all three dither sinusoids repeat:
    2*pi over the greatest common divisor of omega1, omega2 and omega3,
    each read as the exact rational its float holds."""
    num, den = 0, 1
    for omega in (d.omega1, d.omega2, d.omega3):
        f = Fraction(abs(omega))
        # gcd(p/q, r/s) = gcd(p*s, r*q) / (q*s)
        num, den = math.gcd(num * f.denominator, f.numerator * den), den * f.denominator
    return 2.0 * math.pi * den / num


def period_average_drift(
    d: DitherParams, thetahat: float, u: tuple[float, float], points: int = 2**14
) -> tuple[float, float]:
    """Mean of d(xhat, yhat)/dt under :func:`etseek.vehicle.dither_velocities`
    over one common dither period, with thetahat and u held fixed.

    The heading is theta = thetahat + (a3/2) sin(omega3 t) and the
    estimator pose strips (a1/2) sin(omega1 t) from x and adds
    (a2/2) cos(omega2 t) to y, so
    d(xhat)/dt = v cos(theta) - (a1/2) omega1 cos(omega1 t) and
    d(yhat)/dt = v sin(theta) - (a2/2) omega2 sin(omega2 t).  The
    rectangle rule over a whole period of a smooth periodic integrand
    converges geometrically in ``points``.
    """
    period = common_dither_period(d)
    sx = sy = 0.0
    for i in range(points):
        t = period * i / points
        theta = thetahat + 0.5 * d.a3 * math.sin(d.omega3 * t)
        v, _ = dither_velocities(d, t, theta, u)
        sx += v * math.cos(theta) - 0.5 * d.a1 * d.omega1 * math.cos(d.omega1 * t)
        sy += v * math.sin(theta) - 0.5 * d.a2 * d.omega2 * math.sin(d.omega2 * t)
    return sx / points, sy / points


def delta_bar_norm_bound(model: AverageModel, d: DitherParams) -> tuple[float, float]:
    """(||delta_bar||, a1*omega3*|J_2(a3)|); the bound always dominates."""
    norm = float(np.linalg.norm(model.delta_bar))
    bound = d.a1 * d.omega3 * abs(bessel_j(2, d.a3))
    return norm, bound


def decay_envelope_violations(
    trace: SimulationTrace, p: np.ndarray, rate: float, tolerance: float, floor: float = 0.0
) -> int:
    """Per-pair count of :func:`etseek.analysis.decay_envelope_check`.

    Evaluates V and the norm on every row, then walks the event pairs one
    by one: a pair whose closed window [t_k, t_k+1] keeps the norm above
    ``floor`` is a violation when V(t_k+1) exceeds
    exp(-rate*(t_k+1 - t_k)) * V(t_k) * (1 + tolerance).
    """
    p = np.asarray(p, dtype=float)
    g = np.stack([trace.g1, trace.g2, trace.g3], axis=1)
    v = np.einsum("ij,jk,ik->i", g, p, g)
    norms = np.linalg.norm(g, axis=1)
    idx = trace.event_indices()
    violations = 0
    for a, b in zip(idx[:-1], idx[1:]):
        if norms[a : b + 1].min() <= floor:
            continue
        dt_pair = trace.t[b] - trace.t[a]
        if v[b] > math.exp(-rate * dt_pair) * v[a] * (1.0 + tolerance):
            violations += 1
    return violations
