"""Event-triggered source seeking for a nonholonomic unicycle.

Simulation of the full nonlinear dithered unicycle loop, its averaged
linear counterpart, and numerical verification of the stability, trigger,
and dwell-time guarantees that come with the event-triggered design.
"""

from etseek.bessel import bessel_j, bessel_j_quadrature
from etseek.field import QuadraticField, evaluate
from etseek.vehicle import DitherParams, VehicleState, dither_velocities, estimator_pose
from etseek.estimator import demodulation_vector, gradient_estimate
from etseek.trigger import (
    GainMatrix,
    TriggerConstants,
    control_input,
    trigger_floor,
    trigger_value,
)
from etseek.average import (
    AverageModel,
    build_average_matrices,
    delta_bar_norm_bound,
    run_average_loop,
)
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
from etseek.trace import RunMetrics, SimulationTrace
from etseek.config import Scenario, ScenarioError, load_scenario, packaged_scenario_path
from etseek.engine import NonFiniteStateError, integrate_step, run_simulation

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
    "bessel_j_quadrature",
    "build_average_matrices",
    "control_input",
    "decay_envelope_check",
    "delta_bar_norm_bound",
    "demodulation_vector",
    "dither_velocities",
    "dwell_time_bound",
    "estimator_pose",
    "evaluate",
    "gradient_estimate",
    "hurwitz_check",
    "integrate_step",
    "load_scenario",
    "packaged_scenario_path",
    "run_average_loop",
    "run_simulation",
    "solve_lyapunov",
    "trigger_floor",
    "trigger_value",
    "verify_scenario",
]
