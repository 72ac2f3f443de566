import math
import re

import numpy as np
import pytest

from etseek.vehicle import bessel_j
from tests.reference import bessel_j_quadrature

# Reference values frozen from an independent power-series evaluation
# (cross-checked against scipy.special.jv to 1e-15).
J0_HALF = 0.938469807240813
J2_HALF = 0.030604023458682638


def test_value_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(2, 0.0) == 0.0
    assert bessel_j(5, 0.0) == 0.0


def test_series_reference_values():
    assert bessel_j(0, 0.5) == pytest.approx(J0_HALF, abs=1e-12)
    assert bessel_j(2, 0.5) == pytest.approx(J2_HALF, abs=1e-12)


def test_quadrature_matches_reference():
    assert bessel_j_quadrature(0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert bessel_j_quadrature(0, 0.5) == pytest.approx(J0_HALF, abs=1e-10)
    assert bessel_j_quadrature(2, 0.5) == pytest.approx(J2_HALF, abs=1e-10)


def test_route_agreement_grid():
    for m in range(5):
        for x in np.linspace(-5.0, 5.0, 21):
            assert bessel_j(m, float(x)) == pytest.approx(
                bessel_j_quadrature(m, float(x)), abs=1e-10
            )


def test_recurrence():
    for m in (1, 2, 3):
        for x in (0.1, 0.5, 1.0, 2.0):
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = (2.0 * m / x) * bessel_j(m, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_parity():
    for m in range(5):
        for x in (0.25, 0.5, 1.5, 3.0):
            sign = -1.0 if m % 2 else 1.0
            assert bessel_j(m, -x) == pytest.approx(sign * bessel_j(m, x), abs=1e-15)


def test_accuracy_up_to_ten():
    # Spot values from Abramowitz & Stegun tables.
    assert bessel_j(0, 10.0) == pytest.approx(-0.2459357644513483, abs=1e-12)
    assert bessel_j(1, 5.0) == pytest.approx(-0.3275791375914652, abs=1e-12)
    # The domain's edge is accepted on both sides.
    assert bessel_j(2, 10.0) == pytest.approx(0.2546303136851206, abs=1e-12)
    assert bessel_j(2, -10.0) == bessel_j(2, 10.0)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_j(0, math.nan)
    with pytest.raises(ValueError):
        bessel_j(0, math.inf)
    with pytest.raises(ValueError):
        bessel_j(-1, 0.5)
    with pytest.raises(ValueError):
        bessel_j_quadrature(0, math.nan)
    # 170! is the largest factorial a float holds; past it the series cannot
    # start, so the order is refused before math.factorial runs.
    assert math.isfinite(bessel_j(170, 1.0))
    for order in (171, 10**8):
        with pytest.raises(ValueError, match="order"):
            bessel_j(order, 1.0)
        with pytest.raises(ValueError, match="order"):
            bessel_j_quadrature(order, 1.0)


@pytest.mark.parametrize(
    ("order", "x"), [(2, 1e308), (170, 700.0), (3, -1e200), (0, 50.0), (2, -10.5)]
)
def test_overflowing_series_names_its_input(order, x):
    # Past |x| = 10 the series loses its digits well before it overflows.
    with pytest.raises(ValueError, match=re.escape(f"order {order} at argument {x!r}")):
        bessel_j(order, x)
