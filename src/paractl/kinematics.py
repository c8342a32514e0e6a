"""Configuration manifolds and actuator-value kinematics.

Two manifolds are supported: flat d-dimensional position space (point-mass
end effector, d in {1, 2, 3}) and rigid-body pose space (position plus unit
quaternion, 6 velocity coordinates).  Twists stack linear velocity with
world-frame angular velocity; wrenches pair with twists by the plain dot
product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import (DegenerateGeometry, NoConvergence, RankDeficient,
                     ValidationError)

FD_STEP = 1e-6
MIN_CABLE_LENGTH = 1e-12


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with a x = b for a symmetric positive-definite `a`, from one
    LAPACK Cholesky solve (dposv), or None when the factorization fails.

    Only one triangle of `a` is read, so a matrix symmetric only to
    rounding is solved as its symmetric part, to rounding.  A tiny solve
    costs a fraction of a general LU solve's dispatch.
    """
    _, x, info = dposv(a, b)
    return x if info == 0 else None


# --------------------------------------------------------------------------
# quaternions, stored (w, x, y, z)

def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / math.sqrt(q @ q)   # bit for bit np.linalg.norm, cheaper


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a nonzero quaternion, the rotation of q / |q|.

    Scaling by 2 / |q|^2 normalizes without a square root, so callers
    need not normalize first.
    """
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return np.array([
        [1 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)],
        [s * (x * y + w * z), 1 - s * (x * x + z * z), s * (y * z - w * x)],
        [s * (x * z - w * y), s * (y * z + w * x), 1 - s * (x * x + y * y)],
    ])


def quat_from_rotation_vector(rv: np.ndarray) -> np.ndarray:
    """Unit quaternion of the rotation by angle |rv| about axis rv/|rv|."""
    rv = np.asarray(rv, dtype=float)
    angle = np.linalg.norm(rv)
    if angle < 1e-8:
        # sin(a/2)/a series keeps full precision near zero
        s = 0.5 - angle * angle / 48.0
        return quat_normalize(np.array([1.0 - angle * angle / 8.0, *(s * rv)]))
    s = np.sin(angle / 2.0) / angle
    return np.array([np.cos(angle / 2.0), *(s * rv)])


def rotation_vector_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation vector (magnitude <= pi) of a unit quaternion."""
    if q[0] < 0.0:
        q = -q  # pick the cover with w >= 0 so the angle is <= pi
    vec = q[1:]
    s = np.linalg.norm(vec)
    if s < 1e-12:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(s, q[0])
    return (angle / s) * vec


def _hat(v: np.ndarray) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def so3_left_jacobian(rv: np.ndarray) -> np.ndarray:
    """Map from rotation-vector rates to world angular velocity at exp(rv)."""
    angle = np.linalg.norm(rv)
    k = _hat(rv)
    if angle < 1e-4:
        a = 0.5 - angle * angle / 24.0
        b = 1.0 / 6.0 - angle * angle / 120.0
    else:
        a = (1.0 - np.cos(angle)) / angle ** 2
        b = (angle - np.sin(angle)) / angle ** 3
    return np.eye(3) + a * k + b * (k @ k)


# --------------------------------------------------------------------------
# poses

@dataclass(frozen=True)
class EuclideanPose:
    """Point-mass configuration: d coordinates, d in {1, 2, 3}."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           np.atleast_1d(np.asarray(self.coords, dtype=float)))


@dataclass(frozen=True)
class RigidPose:
    """Rigid-body configuration: position and unit quaternion (w, x, y, z)."""

    position: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float))
        object.__setattr__(self, "quaternion",
                           np.asarray(self.quaternion, dtype=float))

    @classmethod
    def identity(cls, position=(0.0, 0.0, 0.0)) -> "RigidPose":
        return cls(np.asarray(position, dtype=float),
                   np.array([1.0, 0.0, 0.0, 0.0]))

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quaternion)


Pose = EuclideanPose | RigidPose


def read_pose(values, rigid: bool, dim: int) -> Pose:
    """The pose of a flat list of numbers: `dim` coordinates on a point
    mass, or position then quaternion (w, x, y, z) on a rigid body.  All
    must be finite and the quaternion of nonzero finite norm, else
    ValidationError; the quaternion is normalized once."""
    width = 7 if rigid else dim
    try:
        values = np.asarray(values, dtype=float).reshape(-1)
        ok = values.size == width and np.isfinite(values).all()
    except (TypeError, ValueError):
        ok = False
    if ok and rigid:   # |q|^2 in Python floats: overflow gives inf, silently
        ok = 0.0 < sum(x * x for x in values[3:].tolist()) < math.inf
    if not ok:
        raise ValidationError(f"a pose needs {width} finite numbers" + (
            " (position, then a nonzero quaternion w, x, y, z)"
            if rigid else ""))
    if not rigid:
        return EuclideanPose(values)
    return RigidPose(values[:3], quat_normalize(values[3:]))


def manifold_dim(pose: Pose) -> int:
    if isinstance(pose, RigidPose):
        return 6
    return pose.coords.size


def retract(pose: Pose, step: np.ndarray) -> Pose:
    """Move a pose along a tangent vector (world-frame rotation update)."""
    step = np.asarray(step, dtype=float)
    if isinstance(pose, EuclideanPose):
        return EuclideanPose(pose.coords + step)
    dq = quat_from_rotation_vector(step[3:])
    return RigidPose(pose.position + step[:3],
                     quat_normalize(quat_multiply(dq, pose.quaternion)))


def pose_difference(a: Pose, b: Pose) -> np.ndarray:
    """Tangent vector at `a` pointing to `b`, exact inverse of `retract`.

    Flat case: plain subtraction.  Rigid case: translation difference
    stacked with the rotation vector of the relative rotation, branch
    chosen so its magnitude is at most pi.
    """
    if isinstance(a, EuclideanPose):
        if not isinstance(b, EuclideanPose) or a.coords.size != b.coords.size:
            raise ValueError("poses live on different manifolds")
        return b.coords - a.coords
    if not isinstance(b, RigidPose):
        raise ValueError("poses live on different manifolds")
    q_rel = quat_multiply(quat_normalize(b.quaternion),
                          quat_conjugate(quat_normalize(a.quaternion)))
    return np.concatenate([b.position - a.position,
                           rotation_vector_from_quat(q_rel)])


def pose_to_chart(pose: Pose) -> np.ndarray:
    """Flatten a pose to manifold_dim numbers (rotation vector for rigid)."""
    if isinstance(pose, EuclideanPose):
        return pose.coords.copy()
    return np.concatenate([pose.position,
                           rotation_vector_from_quat(
                               quat_normalize(pose.quaternion))])


# --------------------------------------------------------------------------
# robot geometry

@dataclass(frozen=True)
class RobotGeometry:
    """Anchor points in the frame and attachment points on the body.

    `attachments is None` marks a point-mass robot; anchors then have the
    same dimension as the pose coordinates.  For a rigid body, anchors are
    3-vectors in the world frame and attachments 3-vectors in body
    coordinates.
    """

    anchors: np.ndarray
    attachments: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "anchors",
                           np.atleast_2d(np.asarray(self.anchors, dtype=float)))
        if self.attachments is not None:
            object.__setattr__(
                self, "attachments",
                np.atleast_2d(np.asarray(self.attachments, dtype=float)))

    @classmethod
    def point_mass(cls, anchors) -> "RobotGeometry":
        return cls(anchors=anchors, attachments=None)

    @classmethod
    def rigid(cls, anchors, attachments) -> "RobotGeometry":
        return cls(anchors=anchors, attachments=attachments)

    @property
    def is_rigid(self) -> bool:
        return self.attachments is not None

    @property
    def actuator_count(self) -> int:
        return self.anchors.shape[0]

    @property
    def manifold_dim(self) -> int:
        return 6 if self.is_rigid else self.anchors.shape[1]

    def home_pose(self) -> Pose:
        if self.is_rigid:
            return RigidPose.identity()
        return EuclideanPose(np.zeros(self.anchors.shape[1]))


def _checked_lengths(diffs: np.ndarray) -> np.ndarray:
    # bit for bit np.linalg.norm(diffs, axis=1), at a fraction of its cost
    lengths = np.sqrt(np.add.reduce(diffs * diffs, axis=1))
    if lengths.min() < MIN_CABLE_LENGTH:
        bad = int(np.argmin(lengths))
        raise DegenerateGeometry(
            f"actuator {bad} has zero length; direction undefined")
    return lengths


def _rigid_cable_vectors(geom: RobotGeometry, pose: Pose):
    """Body rotation, anchor-to-attachment vectors, lengths, and world
    attachment offsets at a rigid pose."""
    if not isinstance(pose, RigidPose):
        raise ValueError("rigid geometry requires a RigidPose")
    rot = pose.rotation
    offsets = geom.attachments @ rot.T          # (n, 3) world frame
    diffs = pose.position + offsets - geom.anchors
    return rot, diffs, _checked_lengths(diffs), offsets


def _cable_vectors(geom: RobotGeometry, pose: Pose):
    """Anchor-to-attachment vectors, lengths, and world attachment offsets."""
    if geom.is_rigid:
        _, diffs, lengths, offsets = _rigid_cable_vectors(geom, pose)
        return diffs, lengths, offsets
    if not isinstance(pose, EuclideanPose):
        raise ValueError("point-mass geometry requires a EuclideanPose")
    diffs = pose.coords - geom.anchors
    return diffs, _checked_lengths(diffs), None


def inverse_kinematics(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """Actuator values for a pose: straight-line anchor-to-attachment
    distances."""
    _, lengths, _ = _cable_vectors(geom, pose)
    return lengths


# hat(e_k) for the three world axes: one einsum against it forms many cross
# products, bit for bit as np.cross does, at a fraction of its call cost
_AXIS_HATS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])


def _rigid_rows(units: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rigid jacobian rows [u, r x u] from unit cable directions u and
    world attachment offsets r."""
    rows = np.empty((units.shape[0], 6))
    rows[:, :3] = units
    np.einsum("nk,kij,nj->ni", offsets, _AXIS_HATS, units, out=rows[:, 3:])
    return rows


def jacobian(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """Derivative of the actuator values with respect to the pose.

    Point mass: row k is the unit vector from anchor k to the body.
    Rigid body: row k is [u, r x u] with u the unit cable direction and r
    the world-frame attachment offset, so rows act on [v, omega] twists.
    """
    diffs, lengths, offsets = _cable_vectors(geom, pose)
    units = diffs / lengths[:, None]
    if not geom.is_rigid:
        return units
    return _rigid_rows(units, offsets)


def actuator_rates(geom: RobotGeometry, pose: Pose,
                   twist: np.ndarray) -> np.ndarray:
    """Rate of change of the actuator values for a given twist."""
    return jacobian(geom, pose) @ np.asarray(twist, dtype=float)


def _curvature(units: np.ndarray, lengths: np.ndarray, offsets, twist):
    """Second time derivative of each actuator value along the flow of a
    constant `twist`, from the unit cable directions u, the lengths L and
    the world attachment offsets r (None on a point mass).

    Attachment i moves at p' = v + w x r_i and accelerates at
    p'' = w x (w x r_i) (p' = twist and p'' = 0 on a point mass), so
    L_i'' = (|p'|^2 - (u_i . p')^2) / L_i + u_i . p''.
    """
    if offsets is None:
        rates = units @ twist
        return (twist @ twist - rates * rates) / lengths
    return _rigid_curvature(units, lengths, offsets, twist[:3],
                            _hat(twist[3:]))


def _rigid_curvature(units, lengths, offsets, linear, spin_hat):
    """`_curvature` on a rigid body, given hat(w) so that callers which
    also need it build it once."""
    spin = spin_hat.T
    turn = offsets @ spin
    speeds = turn + linear
    rates = np.einsum("ij,ij->i", units, speeds)
    return ((np.einsum("ij,ij->i", speeds, speeds) - rates * rates) / lengths
            + np.einsum("ij,ij->i", units, turn @ spin))


def jacobian_directional_derivative(geom: RobotGeometry, pose: Pose,
                                    twist: np.ndarray) -> np.ndarray:
    """Curvature term: the twist contracted twice with the jacobian
    derivative, i.e. the second time derivative of the actuator values
    along the flow of a constant twist, in closed form (`_curvature`).
    It is the no-load actuator force's second piece, after J accel."""
    diffs, lengths, offsets = _cable_vectors(geom, pose)
    return _curvature(diffs / lengths[:, None], lengths, offsets,
                      np.asarray(twist, dtype=float))


def gram_matrix(geom: RobotGeometry, pose: Pose) -> np.ndarray:
    """Jacobian-transpose times jacobian (the actuator inertia shape)."""
    jac = jacobian(geom, pose)
    return jac.T @ jac


def forward_kinematics(geom: RobotGeometry, lengths: np.ndarray, guess: Pose,
                       max_iters: int = 50) -> Pose:
    """Recover the pose whose actuator values best match `lengths`.

    Damped Gauss-Newton on the over-determined residual: with more
    actuators than pose freedoms the measured values are generally not
    exactly realizable, so the least-squares pose is returned.  Each step
    solves the normal equations J^T J + damping I by Cholesky.  Damping
    starts at 1e-10 and grows tenfold whenever a step fails to reduce the
    residual or the factorization fails; past 1e8 FK raises RankDeficient,
    and NoConvergence after `max_iters` accepted steps.  A non-finite
    reading (or guess), or one whose residual exceeds 1e150 so that its
    square would overflow, raises ValidationError before the first step.
    The gradient tolerance, 1e-12 max(1, max|lengths|), and the damping's
    identity are fixed once per call.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (geom.actuator_count,):
        raise ValidationError(
            f"expected {geom.actuator_count} actuator values, got shape "
            f"{lengths.shape}")
    pose = guess
    damping = 1e-10
    residual = inverse_kinematics(geom, pose) - lengths
    # refused before its square is formed: a NaN, an infinity, or a
    # residual so large (e.g. a 1e300 reading) that the square overflows
    if not np.abs(residual).max() < 1e150:
        raise ValidationError("actuator values or guess give a non-finite "
                              "or overflowing residual")
    cost = residual @ residual
    grad_tol = 1e-12 * max(1.0, np.abs(lengths).max())
    eye = np.eye(geom.manifold_dim)
    for _ in range(max_iters):
        if np.abs(residual).max() <= 1e-12:
            return pose
        jac = jacobian(geom, pose)
        grad = jac.T @ residual
        if np.abs(grad).max() <= grad_tol:
            return pose
        hess = jac.T @ jac
        while True:
            step = _spd_solve(hess + damping * eye, -grad)
            if step is not None:
                candidate = retract(pose, step)
                cand_res = inverse_kinematics(geom, candidate) - lengths
                cand_cost = cand_res @ cand_res
                if cand_cost <= cost * (1.0 + 1e-14) + 1e-300:
                    pose, residual, cost = candidate, cand_res, cand_cost
                    damping = max(damping / 10.0, 1e-12)
                    break
            # a rejected step or a failed factorization: damp harder
            damping *= 10.0
            if damping > 1e8:
                raise RankDeficient(
                    "normal equations unusable even under heavy damping")
        if np.abs(step).max() <= 1e-12:
            return pose
    raise NoConvergence(f"no convergence after {max_iters} iterations")
