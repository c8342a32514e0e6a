"""Whole-system control loop for parallel-actuator robots.

Each tick maps measured actuator values and one reference sample to either
a force command for every actuator or a brake order.  The loop:

  1. read the reference pose, velocity and acceleration
  2. recover the pose from the measured values (forward kinematics, warm
     started from the previous tick)
  3. form the pose error as a tangent vector and its derivative stack by
     filtered backward differences of recent samples
  4. run the shared-gain state-space law on tangent vectors to get the
     command acceleration
  5. turn acceleration into a command wrench through the mass matrix and
     bias force
  6. compensate actuator resistance from the reference value rates
  7. evaluate the no-load forces
  8. pick admissible actuator forces realizing the wrench, or brake when
     none exist

The same gain constants serve every actuator and every pose; no quantity
here is scheduled on the operating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .actuator import ControllerGains, closed_loop_poles, discretize
# modal_decomposition is not called here; it stays bound as
# system.modal_decomposition, a name perfbench's tracer wraps
from .dynamics import (RobotModel, _potential_gradient, _rigid_bias,
                       modal_decomposition, modal_masses, no_load_forces,
                       point_mass_tables, rigid_pose_tables)
from .errors import ParactlError, RankDeficient
from .force_distribution import (ForceConstraints, active_pattern, distribute)
from .kinematics import (EuclideanPose, Pose, _spd_solve, forward_kinematics,
                         jacobian, manifold_dim, pose_difference)


@dataclass(frozen=True)
class ReferenceSample:
    """One sample of the requested motion: pose, twist, twist rate."""

    pose: Pose
    velocity: np.ndarray
    accel: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        d = manifold_dim(self.pose)
        velocity = np.asarray(self.velocity, float).reshape(d)
        accel = np.asarray(self.accel, float).reshape(d)
        object.__setattr__(self, "velocity", velocity)
        object.__setattr__(self, "accel", accel)


@dataclass(frozen=True)
class Command:
    """Actuator order: a force per actuator, or brake."""

    forces: np.ndarray | None
    reason: str | None = None

    @property
    def is_brake(self) -> bool:
        return self.forces is None

    @classmethod
    def apply(cls, forces: np.ndarray) -> "Command":
        return cls(forces=np.asarray(forces, float))

    @classmethod
    def brake(cls, reason: str | None = None) -> "Command":
        return cls(forces=None, reason=reason)


@dataclass(frozen=True)
class SystemControllerState:
    """Controller memory carried between ticks."""

    xi: np.ndarray                       # (s, d) tangent-vector state
    error_history: tuple                  # recent pose errors, newest last
    length_history: tuple                 # recent measured values
    prev_pose: Pose
    braked: bool = False
    brake_reason: str | None = None
    window: int = 3
    solver_hint: tuple | None = None      # last force-bound pattern

    @classmethod
    def initial(cls, gains: ControllerGains,
                guess: Pose) -> "SystemControllerState":
        return cls(xi=np.zeros((gains.state_dim, manifold_dim(guess))),
                   error_history=(), length_history=(), prev_pose=guess,
                   window=max(3, gains.derivative_order))


@dataclass(frozen=True)
class ControlDiagnostics:
    """Per-tick internals surfaced for logging and analysis."""

    pose: Pose | None = None
    pose_error: np.ndarray | None = None
    accel_cmd: np.ndarray | None = None
    wrench_cmd: np.ndarray | None = None
    forces: np.ndarray | None = None
    command_offset: np.ndarray | None = None
    no_load: np.ndarray | None = None
    tensions: np.ndarray | None = None


def matrix_action(matrix: np.ndarray, tangents) -> list[np.ndarray]:
    """Apply a plain matrix to a vector of tangent vectors, component-wise:
    output_i = sum_j matrix[i, j] * tangents[j]."""
    matrix = np.atleast_2d(np.asarray(matrix, float))
    stack = np.asarray([np.asarray(t, float) for t in tangents])
    if matrix.shape[1] != stack.shape[0]:
        raise ValueError("matrix width does not match tangent count")
    out = np.tensordot(matrix, stack, axes=1)
    return [out[i] for i in range(out.shape[0])]


def finite_difference_stack(history, dt: float, order: int) -> np.ndarray:
    """Backward-difference derivative stack from recent samples.

    `history` holds samples oldest first; entry k of the result is the
    k-th derivative estimate (binomial backward differences over the k+1
    newest samples).  Derivatives without enough history are zero, so a
    cold-started controller sees no phantom rates.
    """
    samples = [np.atleast_1d(np.asarray(h, float)) for h in history]
    if not samples:
        raise ValueError("need at least one sample")
    d = samples[0].size
    stack = np.zeros((order, d))
    stack[0] = samples[-1]
    for k in range(1, order):
        if len(samples) < k + 1:
            break
        acc = np.zeros(d)
        for j in range(k + 1):
            acc += (-1.0) ** j * math.comb(k, j) * samples[-1 - j]
        stack[k] = acc / dt ** k
    return stack


def _estimate_twist(jac: np.ndarray, length_history, lengths: np.ndarray,
                    dt: float) -> np.ndarray:
    """Damped least-squares twist from backward differences of the values;
    RankDeficient when the damped gram does not factor."""
    if not length_history:
        return np.zeros(jac.shape[1])
    rates = (lengths - length_history[-1]) / dt
    gram = jac.T @ jac
    damped = gram + 1e-12 * np.trace(gram) * np.eye(gram.shape[0])
    twist = _spd_solve(damped, jac.T @ rates)
    if twist is None:
        raise RankDeficient("twist-estimate normal equations do not factor")
    return twist


def control_step(model: RobotModel, gains: ControllerGains,
                 con: ForceConstraints, state: SystemControllerState,
                 lengths: np.ndarray, ref: ReferenceSample, dt: float,
                 evaluate_at_reference: bool = False
                 ) -> tuple[Command, SystemControllerState,
                            ControlDiagnostics]:
    """One control tick; pure function of the explicit state.

    The brake latches: once a tick brakes (any library error inside the
    tick, such as an infeasible wrench or a forward kinematics failure,
    with the error's class named in the reason) every later tick brakes
    until a fresh state is supplied.  With `evaluate_at_reference` the
    mass matrix, bias force, jacobian and no-load forces are evaluated at
    the reference pose and velocity instead of the measured ones, and the
    pose error flips to minus the difference taken at the reference.
    """
    if state.braked:
        return (Command.brake(state.brake_reason or "brake latched"),
                state, ControlDiagnostics())
    lengths = np.asarray(lengths, float)
    geom = model.geometry
    diag = ControlDiagnostics()
    try:
        pose = forward_kinematics(geom, lengths, state.prev_pose)
        if evaluate_at_reference:
            error = -pose_difference(ref.pose, pose)
        else:
            error = pose_difference(pose, ref.pose)
        err_history = (state.error_history + (error,))[-state.window:]
        err_stack = finite_difference_stack(err_history, dt,
                                            gains.derivative_order)

        # shared-gain law on tangent vectors, state advanced by exact
        # discretization after the output is formed
        accel_cmd = ref.accel.copy()
        if gains.state_dim:
            accel_cmd += np.tensordot(gains.C[0], state.xi, axes=1)
        accel_cmd += np.tensordot(gains.D[0], err_stack, axes=1)
        ad, bd = discretize(gains.A, gains.B, dt)
        xi_next = ad @ state.xi + np.outer(bd[:, 0], error) \
            if gains.state_dim else state.xi

        eval_pose = ref.pose if evaluate_at_reference else pose
        if isinstance(eval_pose, EuclideanPose):
            # the golden planar trace pins the twist estimate and the
            # no-load curvature to `jacobian`'s cable evaluation, the
            # tables to their own batched one, so flat poses keep both
            twist = ref.velocity if evaluate_at_reference else \
                _estimate_twist(jacobian(geom, pose), state.length_history,
                                lengths, dt)
            jac, mass, bias = point_mass_tables(model, eval_pose.coords, twist)
            if not twist.any():
                bias = None
            no_load = no_load_forces(model, eval_pose, twist, accel_cmd,
                                     jac=jac)
        else:
            # one cable evaluation: a measured twist is estimated through
            # the tables' own rows
            twist = ref.velocity if evaluate_at_reference else (
                lambda rows: _estimate_twist(rows, state.length_history,
                                             lengths, dt))
            jac, mass, gyro, curve = rigid_pose_tables(model, eval_pose, twist)
            bias = _rigid_bias(model, jac, gyro, curve)
            no_load = np.zeros(jac.shape[0]) if curve is None else \
                model.inertial.actuator_mass * (jac @ accel_cmd + curve)
        wrench_cmd = mass @ accel_cmd + _potential_gradient(model, eval_pose)
        if bias is not None:
            wrench_cmd += bias
        command_offset = np.zeros(jac.shape[0])
        if gains.back_emf:
            ref_jac = jac if evaluate_at_reference else jacobian(geom,
                                                                 ref.pose)
            command_offset = gains.back_emf * (ref_jac @ ref.velocity)
        diag = ControlDiagnostics(pose=pose, pose_error=error,
                                  accel_cmd=accel_cmd, wrench_cmd=wrench_cmd,
                                  no_load=no_load)
        forces = distribute(jac, wrench_cmd, command_offset, no_load, con,
                            pattern_hint=state.solver_hint)
    except ParactlError as exc:
        braked = replace(state, braked=True,
                         brake_reason=f"{type(exc).__name__}: {exc}")
        return Command.brake(braked.brake_reason), braked, diag
    new_state = replace(
        state, xi=xi_next, error_history=tuple(err_history),
        length_history=(state.length_history + (lengths,))[-state.window:],
        prev_pose=pose,
        solver_hint=active_pattern(con, forces, command_offset, no_load))
    diag = replace(diag, forces=forces, command_offset=command_offset,
                   tensions=no_load - forces)
    return Command.apply(forces + command_offset), new_state, diag


@dataclass(frozen=True)
class ModalResponse:
    """Closed-loop poles predicted for one decoupled error mode."""

    modal_mass: float
    poles: np.ndarray


def predicted_modal_response(model: RobotModel, gains: ControllerGains,
                             pose: Pose) -> list[ModalResponse]:
    """Per-mode pole sets of the decoupled error dynamics at a pose.

    Each modal error behaves like a single actuator loaded with the modal
    mass, so its poles come straight from the scalar closed-loop analysis
    with that mass; one batched call covers every mode, and without
    value-rate terms it returns the gain set's cached load-independent
    poles.  The masses come from `modal_masses`, which finds the
    eigenvalues of the modal split without its modes.
    """
    masses = modal_masses(model, pose)
    poles = closed_loop_poles(gains, model.actuator, masses)
    return [ModalResponse(modal_mass=float(m), poles=p)
            for m, p in zip(masses, poles)]
