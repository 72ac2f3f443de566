import math

import pytest

from etseek.config import load_scenario
from etseek.trigger import GainMatrix
from etseek.vehicle import DitherParams

# Gain matrix from the paper_siv reproduction scenario.
PAPER_SIV_GAIN = GainMatrix(rows=((4.3822, 4.3822, 0.1437), (-9.4326, 9.4326, 4.0)))

THETA_STAR = math.pi / 6


@pytest.fixture(scope="session")
def siv_scenario():
    return load_scenario("paper_siv.cfg")


@pytest.fixture(scope="session")
def smallgain_scenario():
    return load_scenario("smallgain.cfg")


@pytest.fixture()
def siv_dithers():
    return DitherParams(
        a1=0.5, a2=0.5, a3=0.5, omega1=10.0, omega2=10.0, omega3=20.0,
        frequency_override=True,
    )
