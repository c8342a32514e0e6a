"""Generalized mass, bias forces, no-load forces and the modal split.

The equations of motion used everywhere are

    wrench = M(pose) @ accel + bias(pose, twist)

with M the body mass/inertia plus the reflected actuator inertia
m0 * J^T J, and bias the velocity bias plus the potential gradient.

Every actuator spends m0 * (J accel + c)_i on its own inertia, where c_i
is the second time derivative of actuator value i along the motion (the
cable curvature, `kinematics.jacobian_directional_derivative`).  So on
rigid poses the velocity bias is the Newton-Euler gyroscopic torque plus
m0 J^T c, pinned against the Lagrangian of the chart mass
`_chart_mass_rigid` by the rigid-table tests in tests/test_dynamics.py and
exercised through the plant by `test_energy_conserved_rigid_plant`.

`rigid_pose_tables` evaluates the cables once and returns the jacobian
rows, the mass, the gyroscopic torque and c, rather than the summed bias:
the plant folds c into the supplied forces as J^T (supplied - m0 c), and
the controller forms the no-load forces m0 (J accel + c) from the same c.
It takes the twist as a function of the rows where the twist is estimated
through them, so a control tick evaluates the cables once.  Flat poses
take the velocity bias from central differences of the mass in the local
chart (`point_mass_tables`), because tests/data/golden_planar3.csv pins
the planar closed loop byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actuator import ActuatorModel
from .errors import DegenerateGeometry, SingularMass, ValidationError
from .kinematics import (FD_STEP, EuclideanPose, Pose, RigidPose,
                         RobotGeometry, _hat, _rigid_cable_vectors,
                         _rigid_curvature, _rigid_rows, gram_matrix, jacobian,
                         jacobian_directional_derivative, retract,
                         so3_left_jacobian)


@dataclass(frozen=True)
class InertialParams:
    """Body and actuator inertial constants.

    `actuator_mass` is the effective no-load mass of each actuator, felt by
    the body through the cable directions.  The optional spring adds a
    quadratic potential about `spring_center` (positions only), useful as a
    second conservative force besides gravity.
    """

    body_mass: float
    gravity: np.ndarray
    inertia: np.ndarray | None = None
    actuator_mass: float = 0.0
    spring_stiffness: float = 0.0
    spring_center: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "gravity",
                           np.atleast_1d(np.asarray(self.gravity, float)))
        if self.inertia is not None:
            object.__setattr__(self, "inertia",
                               np.asarray(self.inertia, float))
        if self.spring_center is not None:
            object.__setattr__(self, "spring_center",
                               np.asarray(self.spring_center, float))


@dataclass(frozen=True)
class RobotModel:
    """Everything the control and simulation layers need about the plant.

    A rigid body must carry an inertia tensor; ValidationError otherwise.
    """

    geometry: RobotGeometry
    inertial: InertialParams
    actuator: ActuatorModel = ActuatorModel.ideal()

    def __post_init__(self):
        if self.geometry.is_rigid and self.inertial.inertia is None:
            raise ValidationError("rigid body needs an inertia tensor")

    @property
    def manifold_dim(self) -> int:
        return self.geometry.manifold_dim

    @property
    def actuator_count(self) -> int:
        return self.geometry.actuator_count


def _position_of(pose: Pose) -> np.ndarray:
    return pose.position if isinstance(pose, RigidPose) else pose.coords


def _body_mass_matrix(model: RobotModel, pose: Pose) -> np.ndarray:
    inert = model.inertial
    if isinstance(pose, RigidPose):
        m = np.zeros((6, 6))
        m[:3, :3] = inert.body_mass * np.eye(3)
        rot = pose.rotation
        m[3:, 3:] = rot @ inert.inertia @ rot.T
        return m
    d = pose.coords.size
    return inert.body_mass * np.eye(d)


def mass_matrix(model: RobotModel, pose: Pose) -> np.ndarray:
    """Generalized mass: body part plus reflected actuator inertia."""
    m = _body_mass_matrix(model, pose)
    m0 = model.inertial.actuator_mass
    if m0 != 0.0:
        m = m + m0 * gram_matrix(model.geometry, pose)
    return m


def potential_energy(model: RobotModel, pose: Pose) -> float:
    inert = model.inertial
    p = _position_of(pose)
    v = -inert.body_mass * float(inert.gravity @ p)
    if inert.spring_stiffness != 0.0:
        center = inert.spring_center if inert.spring_center is not None \
            else np.zeros_like(p)
        delta = p - center
        v += 0.5 * inert.spring_stiffness * float(delta @ delta)
    return v


def _potential_gradient(model: RobotModel, pose: Pose) -> np.ndarray:
    """Chart gradient of the potential (zero on rotation coordinates, the
    gravity line of action passing through the body origin)."""
    inert = model.inertial
    p = _position_of(pose)
    grad_p = -inert.body_mass * inert.gravity
    if inert.spring_stiffness != 0.0:
        center = inert.spring_center if inert.spring_center is not None \
            else np.zeros_like(p)
        grad_p = grad_p + inert.spring_stiffness * (p - center)
    if isinstance(pose, RigidPose):
        return np.concatenate([grad_p, np.zeros(3)])
    return grad_p


def kinetic_energy(model: RobotModel, pose: Pose, twist: np.ndarray) -> float:
    twist = np.asarray(twist, float)
    return 0.5 * float(twist @ mass_matrix(model, pose) @ twist)


def total_energy(model: RobotModel, pose: Pose, twist: np.ndarray) -> float:
    return kinetic_energy(model, pose, twist) + potential_energy(model, pose)


def _chart_mass_rigid(model: RobotModel, pose: Pose,
                      theta: np.ndarray) -> np.ndarray:
    # chart velocities map to twists through blockdiag(I, J_l(theta_rot)),
    # which is what turns the orientation dependence of the inertia into
    # the usual gyroscopic bias terms
    stepped = retract(pose, theta)
    m = mass_matrix(model, stepped)
    jl = so3_left_jacobian(theta[3:])
    big = np.eye(6)
    big[3:, 3:] = jl
    return big.T @ m @ big


def rigid_pose_tables(model: RobotModel, pose: RigidPose, twist):
    """Jacobian rows, mass matrix, gyroscopic torque and cable curvature at
    a rigid pose, in closed form from one cable evaluation.

    The velocity bias is the Newton-Euler gyroscopic torque plus the
    reflected actuator inertia's share (`_rigid_bias` sums it),

        [0; w x (Iw w)] + m0 J^T c,    Iw = R I R^T,

    with c the cable curvature (`kinematics._rigid_curvature`, None when
    m0 is zero): each actuator spends m0 (J accel + c)_i on its own
    inertia, so the body feels m0 J^T (J accel + c).  Tests pin the bias
    against the chart mass (`_chart_mass_rigid`) differenced axis by axis
    and the Euler-Lagrange oracle, and the rigid plant's energy
    conservation.

    `twist` may also be a function that takes the jacobian rows to the
    twist: the controller estimates its twist from value rates through the
    rows at the same pose, and this keeps its tick to one cable evaluation.
    """
    inert = model.inertial
    rot, diffs, lengths, offsets = _rigid_cable_vectors(model.geometry, pose)
    units = diffs / lengths[:, None]
    rows = _rigid_rows(units, offsets)
    if callable(twist):
        twist = twist(rows)
    world_inertia = rot @ inert.inertia @ rot.T
    m0 = inert.actuator_mass
    mass = m0 * (rows.T @ rows) if m0 != 0.0 else np.zeros((6, 6))
    mass[3:, 3:] += world_inertia
    mass.flat[:21:7] += inert.body_mass          # the linear diagonal
    omega = twist[3:]
    spin_hat = _hat(omega)
    gyro = spin_hat @ (world_inertia @ omega)
    if m0 == 0.0:
        return rows, mass, gyro, None
    return rows, mass, gyro, _rigid_curvature(units, lengths, offsets,
                                              twist[:3], spin_hat)


def _rigid_bias(model: RobotModel, rows: np.ndarray, gyro: np.ndarray,
                curve) -> np.ndarray:
    """Velocity bias [0; w x (Iw w)] + m0 J^T c from `rigid_pose_tables`."""
    bias = np.zeros(6)
    bias[3:] = gyro
    if curve is not None:
        bias += model.inertial.actuator_mass * (rows.T @ curve)
    return bias


def _velocity_bias(slabs: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """Velocity bias from the chart mass derivatives dM/dtheta_k (slabs)."""
    mdot = np.einsum("kij,k->ij", slabs, twist)
    quad = 0.5 * np.einsum("i,kij,j->k", twist, slabs, twist)
    return mdot @ twist - quad


def _solve_mass(mass: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^{-1} rhs; SingularMass when M is singular."""
    try:
        return np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMass("mass matrix is singular") from exc


@lru_cache(maxsize=None)
def _fd_offsets(d: int) -> np.ndarray:
    """The origin, then +-FD_STEP along each of the d axes, (2d+1, d)."""
    hit = np.zeros((2 * d + 1, d))
    for k in range(d):
        hit[2 * k + 1, k] = FD_STEP
        hit[2 * k + 2, k] = -FD_STEP
    return hit


def point_mass_tables(model: RobotModel, coords: np.ndarray,
                      twist: np.ndarray):
    """Jacobian rows, mass matrix and velocity bias at a flat pose, all
    from one vectorized cable evaluation.

    The bias comes from the mass chart derivatives taken by central
    differences (`_velocity_bias`), not from the cable curvature: the
    golden planar trace pins these bits.  A test pins the rows and mass
    to `jacobian` and `mass_matrix`, and the bias to one built from
    `mass_matrix` differences.
    """
    geom = model.geometry
    d = coords.size
    m0 = model.inertial.actuator_mass
    positions = coords + _fd_offsets(d)
    diffs = positions[:, None, :] - geom.anchors[None, :, :]
    lengths2 = np.einsum("mki,mki->mk", diffs, diffs)
    if lengths2.min() < 1e-24:
        raise DegenerateGeometry("zero actuator length")
    rows = diffs / np.sqrt(lengths2)[:, :, None]
    if m0 == 0.0:
        return rows[0], model.inertial.body_mass * np.eye(d), np.zeros(d)
    grams = np.einsum("mki,mkj->mij", rows, rows)
    mass = m0 * grams[0]
    mass.flat[::d + 1] += model.inertial.body_mass
    slabs = m0 * (grams[1::2] - grams[2::2]) / (2.0 * FD_STEP)
    return rows[0], mass, _velocity_bias(slabs, twist)


def _tables(model: RobotModel, pose: Pose, twist: np.ndarray):
    """Jacobian rows, mass matrix and velocity bias on either manifold."""
    if isinstance(pose, EuclideanPose):
        return point_mass_tables(model, pose.coords, twist)
    rows, mass, gyro, curve = rigid_pose_tables(model, pose, twist)
    return rows, mass, _rigid_bias(model, rows, gyro, curve)


def bias_force(model: RobotModel, pose: Pose,
               twist: np.ndarray) -> np.ndarray:
    """Velocity-product and potential terms of the equations of motion.

    Expanding d/dt(M twist) minus the chart gradient of the Lagrangian
    gives the velocity bias plus dV/dtheta.  On rigid poses the velocity
    bias is the gyroscopic torque plus m0 J^T c with c the cable
    curvature (`rigid_pose_tables`); on flat ones it comes from central
    differences of the mass (`point_mass_tables`).  Holding the force at
    `bias` keeps a resting pose still, and M @ accel + bias reproduces the
    Lagrangian dynamics for moving ones.
    """
    twist = np.asarray(twist, float)
    grad_v = _potential_gradient(model, pose)
    if not twist.any():
        return grad_v
    return _tables(model, pose, twist)[2] + grad_v


def no_load_forces(model: RobotModel, pose: Pose, twist: np.ndarray,
                   accel: np.ndarray, jac: np.ndarray | None = None
                   ) -> np.ndarray:
    """Actuator forces if the actuators ran detached, matching the same
    value motion: m0 * (J accel + c), with c the closed-form cable
    curvature (`jacobian_directional_derivative`)."""
    m0 = model.inertial.actuator_mass
    if m0 == 0.0:
        return np.zeros(model.actuator_count)
    if jac is None:
        jac = jacobian(model.geometry, pose)
    curve = jacobian_directional_derivative(model.geometry, pose, twist)
    return m0 * (jac @ np.asarray(accel, float) + curve)


def cable_tensions(no_load: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Tensions are the no-load forces minus the applied actuator forces."""
    no_load = np.asarray(no_load, float)
    applied = np.asarray(applied, float)
    if no_load.shape != applied.shape:
        raise ValueError("force vectors differ in length")
    return no_load - applied


def forward_dynamics(model: RobotModel, pose: Pose, twist: np.ndarray,
                     wrench: np.ndarray) -> np.ndarray:
    """Acceleration produced by a wrench: M^{-1} (wrench - bias)."""
    twist = np.asarray(twist, float)
    _, mass, bias = _tables(model, pose, twist)
    rhs = np.asarray(wrench, float) - _potential_gradient(model, pose)
    if twist.any():
        rhs = rhs - bias
    return _solve_mass(mass, rhs)


@dataclass(frozen=True)
class ModalDecomposition:
    """Eigenstructure of M^{-1} J^T J with a biorthogonal dual basis.

    Columns of `modes` are the eigenvectors sigma_i, columns of `duals`
    the dual covectors pi_i with pi_i . sigma_j = delta_ij.  Modal masses
    are reciprocal eigenvalues; a zero eigenvalue (direction the actuators
    cannot sense) is reported as an infinite modal mass.
    """

    eigenvalues: np.ndarray
    modal_masses: np.ndarray
    modes: np.ndarray
    duals: np.ndarray

    def project(self, tangent: np.ndarray) -> np.ndarray:
        """Coordinates of a tangent vector in the modal basis."""
        return self.duals.T @ np.asarray(tangent, float)


# eigenvalues at or below this count as zero: a singular mass matrix, or a
# modal direction the actuators cannot sense
_ZERO_TOL = 1e-12


def _mass_split(model: RobotModel, pose: Pose, zero_tol: float):
    """J^T J and the eigendecomposition of M from one jacobian evaluation,
    M formed as `mass_matrix` does.

    SingularMass unless every eigenvalue of M exceeds `zero_tol`;
    ValidationError when either matrix is not finite (a non-finite pose
    or inertial constant).
    """
    jac = jacobian(model.geometry, pose)
    gram = jac.T @ jac
    m = _body_mass_matrix(model, pose)
    m0 = model.inertial.actuator_mass
    if m0 != 0.0:
        m = m + m0 * gram
    if not (np.isfinite(m).all() and np.isfinite(gram).all()):
        raise ValidationError("mass matrix or actuator directions not finite")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] <= zero_tol:
        raise SingularMass("mass matrix is not positive definite")
    return gram, vals, vecs


def _masses_of(eigs: np.ndarray, zero_tol: float) -> np.ndarray:
    """Reciprocal eigenvalues, +inf where an eigenvalue is at most
    `zero_tol` (a direction the actuators cannot sense)."""
    sensed = eigs > zero_tol
    return np.where(sensed, 1.0 / np.where(sensed, eigs, 1.0), np.inf)


def modal_decomposition(model: RobotModel, pose: Pose,
                        zero_tol: float = _ZERO_TOL) -> ModalDecomposition:
    """Diagonalize M^{-1} J^T J through its symmetric similar form.

    M^{-1/2} J^T J M^{-1/2} is symmetric positive semi-definite, so a real
    eigenbasis always exists; eigenvectors map back by M^{-1/2} and the
    duals by M^{1/2}, which makes biorthogonality exact by construction.
    Modes are ordered by decreasing eigenvalue (increasing modal mass).
    The jacobian is evaluated once and M is formed from it as
    `mass_matrix` does.
    """
    gram, vals, vecs = _mass_split(model, pose, zero_tol)
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    sym = inv_root @ gram @ inv_root
    sym = 0.5 * (sym + sym.T)
    eigs, sym_vecs = np.linalg.eigh(sym)
    order = np.argsort(eigs)[::-1]
    eigs = eigs[order]
    sym_vecs = sym_vecs[:, order]
    # fix the sign of each mode so traces and logs are reproducible
    for j in range(sym_vecs.shape[1]):
        col = sym_vecs[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            sym_vecs[:, j] = -col
    modes = inv_root @ sym_vecs
    duals = root @ sym_vecs
    return ModalDecomposition(eigenvalues=eigs,
                              modal_masses=_masses_of(eigs, zero_tol),
                              modes=modes, duals=duals)


def modal_masses(model: RobotModel, pose: Pose) -> np.ndarray:
    """The modal masses of `modal_decomposition`, in its order (increasing,
    unsensed directions last as +inf), without the modes.

    With M = V diag(vals) V^T and W = V diag(vals)^{-1/2}, W^T J^T J W is
    similar to M^{-1/2} J^T J M^{-1/2}, so one symmetric eigenvalue call
    without vectors gives the same eigenvalues, to rounding.  The
    eigendecomposition of M is `modal_decomposition`'s own, so both raise
    SingularMass at the same poses.
    """
    gram, vals, vecs = _mass_split(model, pose, _ZERO_TOL)
    white = vecs / np.sqrt(vals)
    eigs = np.linalg.eigvalsh(white.T @ gram @ white)[::-1]
    return _masses_of(eigs, _ZERO_TOL)
