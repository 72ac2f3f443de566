"""Event-triggered source seeking for a nonholonomic unicycle.

Simulation of the full nonlinear dithered unicycle loop, its averaged
linear counterpart, and numerical verification of the stability, trigger,
and dwell-time guarantees that come with the event-triggered design.
"""

from etseek.vehicle import DitherParams, QuadraticField, VehicleState, bessel_j, estimator_pose
from etseek.trigger import GainMatrix, TriggerConstants, trigger_floor
from etseek.average import AverageModel, build_average_matrices, run_average_loop
from etseek.analysis import (
    LyapunovCertificate,
    TheoryReport,
    alpha_lower_bound,
    averaging_error,
    decay_envelope_check,
    dwell_time_bound,
    hurwitz_check,
    solve_lyapunov,
    verify_scenario,
)
from etseek.trace import NonFiniteStateError, RunMetrics, ScenarioError, SimulationTrace
from etseek.config import Scenario, load_scenario, packaged_scenario_path
from etseek.engine import run_simulation

__all__ = [
    "AverageModel",
    "DitherParams",
    "GainMatrix",
    "LyapunovCertificate",
    "NonFiniteStateError",
    "QuadraticField",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "SimulationTrace",
    "TheoryReport",
    "TriggerConstants",
    "VehicleState",
    "alpha_lower_bound",
    "averaging_error",
    "bessel_j",
    "build_average_matrices",
    "decay_envelope_check",
    "dwell_time_bound",
    "estimator_pose",
    "hurwitz_check",
    "load_scenario",
    "packaged_scenario_path",
    "run_average_loop",
    "run_simulation",
    "solve_lyapunov",
    "trigger_floor",
    "verify_scenario",
]
