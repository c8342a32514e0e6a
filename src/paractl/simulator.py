"""Closed-loop physics: ground-truth plant plus the control loop on top.

The plant integrates the end-effector equations of motion under the
commanded actuator forces with RK4, substepping several physics steps per
control tick.  Sensing is ideal by default: the measured actuator values
are the true ones, optionally with seeded Gaussian noise.

RK4 works on one packed state vector, made from a `PlantState` and split
back into one only at step boundaries:

    rigid body   [position (3), quaternion (4), twist (6), filter states]
    point mass   [coords (d), twist (d), filter states]

Filter states exist only under a command filter (`_command_filter`) and
are stored actuator by actuator.  The quaternion is renormalized wherever
the vector is read, once per RK4 stage.  Each stage (`_derivative`)
writes its rate into one row of a preallocated (4, size) array, and
evaluates the cables once through the tables.  Without a spring the
potential gradient is constant, so `step_plant` forms it once per step.
Inputs are shape-checked once per `step_plant` call, outside the stages.

`run_closed_loop` fills one NaN-prefilled table laid out by
`trace_columns`, a row per tick, and cuts it at a brake tick.
`modal_regulation` runs a hold from an offset and compares each modal
error with a single actuator carrying that mode's modal mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .actuator import (_realization, closed_loop_poles,
                       simulate_single_actuator)
from .dynamics import (RobotModel, _potential_gradient, _solve_mass,
                       modal_decomposition, point_mass_tables,
                       rigid_pose_tables)
from .errors import NumericBlowup, ValidationError
from .kinematics import (EuclideanPose, Pose, RigidPose, inverse_kinematics,
                         pose_to_chart, quat_normalize, retract)
from .force_distribution import ForceConstraints
from .system import ControllerGains, SystemControllerState, control_step
from .trajectory import Trajectory

BLOWUP_LIMIT = 1e9


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop run settings; control period must be an integer
    multiple of the physics step."""

    dt_control: float = 1e-3
    dt_physics: float = 2.5e-4
    duration: float = 10.0
    disturbance: np.ndarray | None = None
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.dt_physics <= self.dt_control < math.inf):
            raise ValidationError("need 0 < dt_physics <= dt_control < inf")
        ratio = self.dt_control / self.dt_physics
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError(
                "dt_control must be an integer multiple of dt_physics")
        if not (0 < self.duration < math.inf):
            raise ValidationError("duration must be positive and finite")
        if not (0 <= self.noise_sigma < math.inf):
            raise ValidationError("noise_sigma must be finite and >= 0")
        if self.disturbance is not None:
            object.__setattr__(self, "disturbance",
                               np.asarray(self.disturbance, float))

    @property
    def substeps(self) -> int:
        return int(round(self.dt_control / self.dt_physics))


@dataclass(frozen=True)
class PlantState:
    """True state of the simulated end effector."""

    pose: Pose
    twist: np.ndarray
    time: float = 0.0
    actuator_states: np.ndarray | None = None  # command-filter states

    def __post_init__(self):
        object.__setattr__(self, "twist", np.asarray(self.twist, float))


def _pack(ps: PlantState, n: int, filt) -> np.ndarray:
    """Packed state of `ps`; missing filter states start at zero."""
    if isinstance(ps.pose, RigidPose):
        parts = [ps.pose.position, ps.pose.quaternion, ps.twist]
    else:
        parts = [ps.pose.coords, ps.twist]
    if filt is not None:
        states = ps.actuator_states
        if states is None:
            states = np.zeros((n, filt[0].shape[0]))
        parts.append(states.reshape(-1))
    return np.concatenate(parts)


def _unpack(model: RobotModel, y: np.ndarray, time: float) -> PlantState:
    if model.geometry.is_rigid:
        pose = RigidPose(y[:3], quat_normalize(y[3:7]))
        twist, rest = y[7:13], y[13:]
    else:
        d = model.manifold_dim
        pose, twist, rest = EuclideanPose(y[:d]), y[d:2 * d], y[2 * d:]
    states = rest.reshape(model.actuator_count, -1) if rest.size else None
    return PlantState(pose=pose, twist=twist, time=time,
                      actuator_states=states)


@lru_cache(maxsize=32)
def _command_filter(act):
    """Per-actuator linear filter from command force to supplied force.

    None for the ideal model, else (a, b, c, feed), cached and read-only:
    each actuator's filter states s follow s' = a s + b f_cmd and supply
    s . c + feed f_cmd, the direct feedthrough `feed` being nonzero only
    when the command and force derivative orders match.  Value-rate coefficients beyond the
    back-EMF term would demand value-acceleration feedthrough inside the
    force law, which the explicit integrator cannot honor, so they are
    rejected here (the eigenvalue analysis still accepts them).
    """
    if any(c != 0.0 for c in act.rate_coeffs[1:]):
        raise ValidationError(
            "plant simulation supports value-rate coefficients only through "
            "the back-EMF term")
    nc = len(act.force_deriv_coeffs)
    if len(act.command_deriv_coeffs) > nc:
        raise ValidationError(
            "command-derivative order exceeds force-derivative order")
    if nc == 0:
        return None
    filt = _realization(np.array([1.0, *act.command_deriv_coeffs]),
                        np.array([1.0, *act.force_deriv_coeffs]))
    for array in filt[:3]:
        array.setflags(write=False)   # cached: every caller shares it
    return filt


def _derivative(model: RobotModel, y: np.ndarray, forces_cmd: np.ndarray,
                filt, extra_wrench, grad, out: np.ndarray) -> None:
    """Time derivative of the packed plant state, written into `out`.

    `grad` is the potential gradient, or None when a spring makes it
    depend on the position.  On a rigid body the cable curvature enters
    as J^T (supplied - m0 c), one matvec for the supplied forces and the
    actuator share of the velocity bias together.
    """
    rigid = model.geometry.is_rigid
    if rigid:
        q = y[3:7]
        q = q / math.sqrt(q @ q)
        twist = y[7:13]
        pose = RigidPose(y[:3], q)
        rows, mass, gyro, curve = rigid_pose_tables(model, pose, twist)
        out[:3] = twist[:3]
        # q' = 0.5 (0, w) * q, products and order as quat_multiply's
        qw, qx, qy, qz = q.tolist()
        wx, wy, wz = twist[3:].tolist()
        out[3:7] = (0.5 * (-wx * qx - wy * qy - wz * qz),
                    0.5 * (wx * qw + wy * qz - wz * qy),
                    0.5 * (-wx * qz + wy * qw + wz * qx),
                    0.5 * (wx * qy - wy * qx + wz * qw))
        d, head = 6, 7
    else:
        d = head = model.manifold_dim
        twist = y[d:2 * d]
        rows, mass, bias = point_mass_tables(model, y[:d], twist)
        out[:d] = twist
    supplied = forces_cmd
    if filt is not None:
        a, b, c, feed = filt
        states = y[head + d:].reshape(-1, b.size)
        supplied = states @ c
        if feed:
            supplied = supplied + feed * forces_cmd
        out[head + d:] = (states @ a.T + np.outer(forces_cmd, b)).reshape(-1)
    back_emf = model.actuator.back_emf
    if back_emf:
        supplied = supplied - back_emf * (rows @ twist)
    if rigid and curve is not None:
        supplied = supplied - model.inertial.actuator_mass * curve
    rhs = rows.T @ supplied
    if extra_wrench is not None:
        rhs += extra_wrench
    if grad is None:
        grad = _potential_gradient(model, pose if rigid
                                   else EuclideanPose(y[:d]))
    rhs -= grad
    if rigid:
        rhs[3:] -= gyro
    elif twist.any():
        rhs -= bias
    out[head:head + d] = _solve_mass(mass, rhs)


def _checked_vector(value, size: int, name: str) -> np.ndarray:
    value = np.asarray(value, float)
    if value.shape != (size,):
        raise ValidationError(
            f"{name} needs shape ({size},), got {value.shape}")
    return value


def step_plant(model: RobotModel, ps: PlantState, forces_cmd: np.ndarray,
               dt: float, extra_wrench: np.ndarray | None = None
               ) -> PlantState:
    """Advance the plant one RK4 step under constant commanded forces.

    `forces_cmd` needs one value per actuator and `extra_wrench` one per
    velocity coordinate; anything else raises ValidationError.
    """
    n = model.actuator_count
    forces_cmd = _checked_vector(forces_cmd, n, "forces_cmd")
    if extra_wrench is not None:
        extra_wrench = _checked_vector(extra_wrench, model.manifold_dim,
                                       "extra_wrench")
    filt = _command_filter(model.actuator)
    # without a spring the potential gradient is constant over the step
    grad = None if model.inertial.spring_stiffness != 0.0 \
        else _potential_gradient(model, ps.pose)

    def deriv(y: np.ndarray, out: np.ndarray) -> None:
        _derivative(model, y, forces_cmd, filt, extra_wrench, grad, out)

    y0 = _pack(ps, n, filt)
    k = np.empty((4, y0.size))
    deriv(y0, k[0])
    deriv(y0 + (0.5 * dt) * k[0], k[1])
    deriv(y0 + (0.5 * dt) * k[1], k[2])
    deriv(y0 + dt * k[2], k[3])
    y1 = y0 + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    if not np.isfinite(y1).all() or np.abs(y1).max() > BLOWUP_LIMIT:
        raise NumericBlowup(f"plant state diverged at t={ps.time}")
    return _unpack(model, y1, ps.time + dt)


def trace_columns(manifold_dim: int, actuator_count: int) -> tuple:
    """The trace table's column blocks in CSV order, as (field, CSV name
    prefix, width); width None marks a single unnumbered column."""
    d, n = manifold_dim, actuator_count
    return (("t", "t", None), ("pose", "eta", d), ("ref_pose", "etar", d),
            ("pose_error", "thetad", d), ("modal_error", "mode", d),
            ("forces_cmd", "fc", n), ("tensions", "tension", n),
            ("brake", "brake", None))


@dataclass(frozen=True, eq=False)
class TraceLog:
    """Per-control-tick record of a closed-loop run.

    The named fields are views of `table`'s columns, 1-D for t and the 0/1
    brake flag; `accel_cmd` (ticks, d) is not written to CSV.  Values a
    braked tick did not produce are NaN.  No table means an empty trace;
    a table or accel_cmd of another shape raises ValueError.
    """

    manifold_dim: int
    actuator_count: int
    table: np.ndarray | None = None
    accel_cmd: np.ndarray | None = None
    t: np.ndarray = field(init=False, repr=False)
    pose: np.ndarray = field(init=False, repr=False)    # chart coordinates
    ref_pose: np.ndarray = field(init=False, repr=False)
    pose_error: np.ndarray = field(init=False, repr=False)
    modal_error: np.ndarray = field(init=False, repr=False)
    forces_cmd: np.ndarray = field(init=False, repr=False)
    tensions: np.ndarray = field(init=False, repr=False)
    brake: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.manifold_dim
        blocks = trace_columns(d, self.actuator_count)
        sizes = [1 if size is None else size for *_, size in blocks]
        width = sum(sizes)
        table = np.empty((0, width)) if self.table is None \
            else np.asarray(self.table, float)
        accel = np.full((len(table), d), np.nan) if self.accel_cmd is None \
            else np.asarray(self.accel_cmd, float)
        if table.shape[1:] != (width,) or accel.shape != (len(table), d):
            raise ValueError(f"trace needs a (ticks, {width}) table and a "
                             f"(ticks, {d}) accel_cmd")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "accel_cmd", accel)
        pieces = np.split(table, np.cumsum(sizes)[:-1], axis=1)
        for (name, _, size), piece in zip(blocks, pieces):
            object.__setattr__(self, name,
                               piece[:, 0] if size is None else piece)

    def __len__(self) -> int:
        return len(self.table)

    def times(self) -> np.ndarray:
        return self.t

    def modal_errors(self) -> np.ndarray:
        return self.modal_error

    def pose_errors(self) -> np.ndarray:
        return self.pose_error


def run_closed_loop(model: RobotModel, gains: ControllerGains,
                    con: ForceConstraints, trajectory: Trajectory,
                    sim: SimConfig, initial_pose: Pose | None = None,
                    initial_twist: np.ndarray | None = None,
                    evaluate_at_reference: bool = False) -> TraceLog:
    """Drive the plant with the system controller and record every tick.

    Measured actuator values come from the true pose (plus optional seeded
    noise).  The run ends at the configured duration or at the first brake
    tick, which is logged.  Modal error projections use the decomposition
    at the initial reference pose, held fixed so the logged components stay
    comparable across the run.
    """
    if not np.isclose(gains.back_emf, model.actuator.back_emf):
        raise ValidationError(
            "controller and actuator-model back-EMF constants disagree")
    d = model.manifold_dim
    n = model.actuator_count
    disturbance = None if sim.disturbance is None \
        else _checked_vector(sim.disturbance, d, "disturbance")
    twist0 = np.zeros(d) if initial_twist is None \
        else _checked_vector(initial_twist, d, "initial_twist")
    ref0 = trajectory.sample(0.0)
    start_pose = initial_pose if initial_pose is not None else ref0.pose
    rng = np.random.default_rng(sim.seed)
    basis = modal_decomposition(model, ref0.pose)
    state = SystemControllerState.initial(gains, start_pose)
    ps = PlantState(pose=start_pose, twist=twist0, time=0.0)
    n_ticks = int(np.floor(sim.duration / sim.dt_control + 1e-9))
    width = TraceLog(d, n).table.shape[1]
    log = TraceLog(d, n, np.full((n_ticks, width), np.nan))
    ticks = n_ticks
    for tick in range(n_ticks):
        t = log.t[tick] = tick * sim.dt_control
        ref = trajectory.sample(t)
        lengths = inverse_kinematics(model.geometry, ps.pose)
        if sim.noise_sigma > 0.0:
            lengths = lengths + rng.normal(0.0, sim.noise_sigma, size=n)
        cmd, state, diag = control_step(
            model, gains, con, state, lengths, ref, sim.dt_control,
            evaluate_at_reference=evaluate_at_reference)
        log.ref_pose[tick] = pose_to_chart(ref.pose)
        log.brake[tick] = cmd.is_brake
        # a tick braked inside forward kinematics has no estimate; one
        # braked later has its estimate but no forces
        if diag.pose is not None:
            log.pose[tick] = pose_to_chart(diag.pose)
            log.pose_error[tick] = diag.pose_error
            log.accel_cmd[tick] = diag.accel_cmd
        if cmd.is_brake:
            ticks = tick + 1
            break
        log.forces_cmd[tick] = cmd.forces
        log.tensions[tick] = diag.tensions
        for _ in range(sim.substeps):
            ps = step_plant(model, ps, cmd.forces, sim.dt_physics,
                            extra_wrench=disturbance)
    trace = TraceLog(d, n, log.table[:ticks], log.accel_cmd[:ticks])
    trace.modal_error[:] = basis.project(trace.pose_error)
    return trace


@dataclass(frozen=True)
class TrackingMetrics:
    """Summary numbers from a trace."""

    max_error: float
    rms_error: float
    settling_times: np.ndarray   # per modal component, 2% band
    brake_events: int


def settling_time(t: np.ndarray, signal: np.ndarray,
                  band: float = 0.02) -> float:
    """Time after which |signal| stays within `band` of its initial
    magnitude; 0 when it never leaves, inf when it never settles."""
    reference = abs(signal[0])
    if reference < 1e-300:
        return 0.0
    outside = np.abs(signal) > band * reference
    if not outside.any():
        return 0.0
    last = int(np.max(np.nonzero(outside)[0]))
    if last == len(signal) - 1:
        return float("inf")
    return float(t[last + 1])


def tracking_metrics(trace: TraceLog, band: float = 0.02) -> TrackingMetrics:
    if len(trace) == 0:
        raise ValueError("empty trace")
    finite = trace.pose_error[np.isfinite(trace.pose_error).all(axis=1)]
    norms = np.linalg.norm(finite, axis=1) if finite.size else np.array([0.0])
    settles = np.array([settling_time(trace.t, mode, band)
                        for mode in trace.modal_error.T])
    return TrackingMetrics(max_error=float(np.max(norms)),
                           rms_error=float(np.sqrt(np.mean(norms**2))),
                           settling_times=settles,
                           brake_events=int(np.sum(trace.brake)))


@dataclass(frozen=True)
class ModalMatch:
    """One mode of `modal_regulation`: the closed loop's modal error
    against a single actuator carrying that mode's modal mass."""

    modal_mass: float
    poles: np.ndarray        # predicted poles of that single-actuator loop
    mismatch: float          # relative RMS deviation of the modal error
    settle_system: float     # 2% settling time of the modal error
    settle_single: float     # 2% settling time of the single actuator


def modal_regulation(model: RobotModel, gains: ControllerGains,
                     con: ForceConstraints, pose: Pose, offset,
                     sim: SimConfig) -> tuple[TraceLog, list[ModalMatch]]:
    """Hold `pose` from `retract(pose, offset)` and match every modal error
    against one actuator loaded with that mode's modal mass.

    This is the paper's claim run end to end: each modal error of the
    whole robot follows a single actuator with the same gains, so gains
    tuned on one actuator serve every pose.  Mode j's actuator is
    `model.actuator` at modal mass j of `modal_decomposition(model, pose)`,
    simulated by `simulate_single_actuator` at `sim.dt_control` for
    `sim.duration` from the mode's first logged error, at rest; its poles
    come from `closed_loop_poles` on the same masses.  The mismatch is
    |modal - single| / |single| over the ticks the run logged (a braked
    run ends at its brake tick, see `trace.brake`).

    What mismatch remains is first order in the control period.  Forces
    are held between ticks while the tensioned cables turn with the body,
    so the held forces' wrench drifts by the cables' geometric stiffness.
    On the 8-cable rigid robot (cable forces near 190 N) that is 0.2-1.4%
    per mode at a 1 ms tick.  It roughly doubles at 2 ms and halves when
    gravity (and so the tension) halves; it moves little with the offset
    size or the actuator mass, and not at all with the physics step.
    """
    trace = run_closed_loop(model, gains, con, Trajectory.hold(pose), sim,
                            initial_pose=retract(pose, offset))
    masses = modal_decomposition(model, pose).modal_masses
    poles = closed_loop_poles(gains, model.actuator, masses)
    rest = np.zeros(gains.derivative_order + 1)
    matches = []
    for mass, pole_set, error in zip(masses, poles, trace.modal_error.T):
        single = simulate_single_actuator(
            gains, model.actuator, mass, lambda _t: rest, sim.dt_control,
            sim.duration, initial=[error[0], 0.0])
        value = single.value[:len(trace)]
        matches.append(ModalMatch(
            modal_mass=float(mass), poles=pole_set,
            mismatch=float(np.linalg.norm(error - value)
                           / np.linalg.norm(value)),
            settle_system=settling_time(trace.t, error),
            settle_single=settling_time(single.t, single.value)))
    return trace, matches
