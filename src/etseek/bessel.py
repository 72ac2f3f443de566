"""Bessel functions of the first kind, J_m, by their power series.

The averaged loop matrices and the trigger bias need J_0 and J_2 at the
angular dither amplitude (arguments well below 1 in practice).  The tests
check the series against an independent composite-Simpson evaluation of
the integral representation

    J_m(x) = (1/pi) * integral_0^pi cos(x sin(tau) - m tau) dtau

so that neither route has to be trusted on its own.
"""

from __future__ import annotations

import math

# Power series terms are capped far beyond what |x| <= 10 needs; the loop
# normally exits on the magnitude test after ~20 terms for |x| <= 1.
_MAX_SERIES_TERMS = 200

# The series starts from (x/2)^m / m!, and 171! no longer converts to a
# float; rejecting larger orders up front also keeps math.factorial from
# running for minutes on a huge order.
_MAX_ORDER = 170


def _check_args(order: int, x: float) -> None:
    if not 0 <= order <= _MAX_ORDER or order != int(order):
        raise ValueError(
            f"Bessel order must be an integer in [0, {_MAX_ORDER}], got {order!r}"
        )
    # Past |x| = 10 the alternating terms outgrow the sum and cancellation
    # eats its digits (J_0(50) would sum to 655.29); this also bounds
    # (x/2)**m / m! within the float range for every accepted order.
    if not abs(x) <= 10.0:
        raise ValueError(
            "Bessel series is accurate only for |x| <= 10: "
            f"order {int(order)} at argument {x!r} is outside it"
        )


def bessel_j(order: int, x: float) -> float:
    """J_order(x) by the alternating power series.

    Accurate to about 1e-12 absolute for |x| <= 10.  Negative arguments
    are handled directly by the series, which reproduces the parity
    identity J_m(-x) = (-1)^m J_m(x) exactly.
    """
    _check_args(order, x)
    m = int(order)
    half = 0.5 * x
    term = half**m / math.factorial(m)
    total = term
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term *= -(half * half) / (k * (k + m))
        total += term
        if abs(term) <= 1e-18 * max(1.0, abs(total)):
            break
    return total
