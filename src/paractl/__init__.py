"""Control of systems driven by parallel actuators.

Library plus CLI harness: actuator-value kinematics on flat and rigid-body
pose manifolds, Lagrangian dynamics with reflected actuator inertia,
constrained force distribution, the shared-gain system controller, a
closed-loop physics simulator and trace analysis.
"""
from .actuator import (ActuatorModel, ActuatorTrace, ControllerGains,
                       StabilityReport, closed_loop_poles, feedforward_step,
                       open_loop_command, pd_gains, simulate_single_actuator,
                       stability_check)
from .config import RobotConfig, load_config, parse_config, save_config
from .dynamics import (InertialParams, ModalDecomposition, RobotModel,
                       bias_force, cable_tensions, forward_dynamics,
                       kinetic_energy, mass_matrix, modal_decomposition,
                       modal_masses, no_load_forces, potential_energy,
                       total_energy)
from .errors import (DegenerateGeometry, InfeasibleWrench, NoConvergence,
                     NumericBlowup, ParactlError, ParseError, RankDeficient,
                     SingularMass, ValidationError)
from .force_distribution import (ForceConstraints, distribute,
                                 in_constraint_set, wrench_feasible)
from .kinematics import (EuclideanPose, Pose, RigidPose, RobotGeometry,
                         actuator_rates, forward_kinematics,
                         inverse_kinematics, jacobian,
                         jacobian_directional_derivative, manifold_dim,
                         pose_difference, pose_to_chart, retract)
from .simulator import (ModalMatch, PlantState, SimConfig, TraceLog,
                        TrackingMetrics, modal_regulation, run_closed_loop,
                        settling_time, step_plant, tracking_metrics)
from .system import (Command, ControlDiagnostics, ModalResponse,
                     ReferenceSample, SystemControllerState, control_step,
                     finite_difference_stack, matrix_action,
                     predicted_modal_response)
from .trace_io import read_trace, trace_header, write_trace
from .trajectory import Segment, Trajectory, load_trajectory

__all__ = [name for name in dir() if not name.startswith("_")]
