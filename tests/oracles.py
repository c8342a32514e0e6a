"""Independent reference computations the tests check the library against.

Everything here deliberately takes a different route from the library:
global-chart Euler-Lagrange differences instead of the exponential-chart
expansion, exhaustive bound-pattern enumeration or, with two more
actuators than freedoms, the nearest point of a polygon in the null-space
plane instead of the active-set walk, plain-sign Routh-Hurwitz instead of
eigenvalues, and eigenvalues of the closed-loop state matrix instead of
characteristic-polynomial roots.
"""
from itertools import product

import numpy as np

from paractl import (EuclideanPose, RigidPose, mass_matrix,
                     potential_energy)
from paractl.actuator import _plant_state_space
from paractl.kinematics import (quat_conjugate, quat_multiply, quat_normalize,
                                quat_from_rotation_vector,
                                rotation_vector_from_quat, so3_left_jacobian)


def kkt_enumeration(jac, wrench, lo, hi, residual_tol=1e-8):
    """Minimum-norm force for J^T f = wrench inside [lo, hi] by checking
    every bound pattern; None when no pattern is primal feasible."""
    jac = np.asarray(jac, float)
    n = jac.shape[0]
    best, best_norm = None, np.inf
    for pattern in product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        if np.any((pattern == -1) & ~np.isfinite(lo)) or \
                np.any((pattern == 1) & ~np.isfinite(hi)):
            continue
        f = np.zeros(n)
        f[pattern == -1] = lo[pattern == -1]
        f[pattern == 1] = hi[pattern == 1]
        free = np.where(pattern == 0)[0]
        if free.size:
            rhs = wrench - jac[pattern != 0].T @ f[pattern != 0]
            fill, *_ = np.linalg.lstsq(jac[free].T, rhs, rcond=None)
            f[free] = fill
            if np.any(f[free] < lo[free] - 1e-9) or \
                    np.any(f[free] > hi[free] + 1e-9):
                continue
        if np.max(np.abs(jac.T @ f - wrench)) > residual_tol:
            continue
        norm = float(f @ f)
        if norm < best_norm - 1e-12:
            best, best_norm = f, norm
    return best


def null_plane_least_norm(jac, wrench, lo, hi, tol=1e-9):
    """Minimum-norm force for J^T f = wrench inside [lo, hi] when J^T has a
    2-D null space (n = d + 2 actuators, e.g. cube8's 8 cables on 6
    freedoms); None when no force is admissible.

    With f0 the least-norm solution and N an orthonormal null-space basis
    (both from the SVD), f = f0 + N lam and |f|^2 = |f0|^2 + |lam|^2, and
    the 2n bounds become half-planes a . lam <= b.  The point of that
    polygon nearest the origin is the origin, the foot of the
    perpendicular on an edge line, or a vertex: every candidate is tried
    and the admissible one of least norm kept.  A 2n-line polygon costs
    O(n^2) candidates where the enumeration tries 3^n patterns.

    A candidate is admissible within max(tol, 1e-13 max|b|): the floor
    governs up to |b| = 1e4 (the unit-scale test problems reach 4e3), the
    relative part keeps rounding from excluding the optimum when the
    wrench and bounds are scaled up.  The line and vertex tests read rows
    of an orthonormal basis, which no scaling of the problem changes.
    """
    jac = np.asarray(jac, float)
    n, d = jac.shape
    left, singulars, _ = np.linalg.svd(jac)
    assert n == d + 2 and singulars[-1] > 1e-9 * singulars[0]
    null = left[:, d:]
    f0 = np.linalg.lstsq(jac.T, wrench, rcond=None)[0]
    normals = np.vstack([null, -null])
    offsets = np.concatenate([hi - f0, f0 - lo])
    keep = np.isfinite(offsets)
    normals, offsets = normals[keep], offsets[keep]
    sizes2 = np.einsum("ij,ij->i", normals, normals)
    lines = sizes2 > 1e-24          # a cable whose force the plane moves
    feet = offsets[lines, None] * normals[lines] / sizes2[lines, None]
    i, j = np.triu_indices(len(offsets), 1)
    det = normals[i, 0] * normals[j, 1] - normals[i, 1] * normals[j, 0]
    cross = np.abs(det) > 1e-12
    i, j, det = i[cross], j[cross], det[cross]
    vertices = np.stack([
        (offsets[i] * normals[j, 1] - offsets[j] * normals[i, 1]) / det,
        (normals[i, 0] * offsets[j] - normals[j, 0] * offsets[i]) / det],
        axis=1)
    cands = np.vstack([np.zeros((1, 2)), feet, vertices])
    tol = max(tol, 1e-13 * np.abs(offsets).max(initial=0.0))
    admissible = np.all(cands @ normals.T <= offsets + tol, axis=1)
    if not admissible.any():
        return None
    cands = cands[admissible]
    best = cands[np.argmin(np.einsum("ij,ij->i", cands, cands))]
    return f0 + null @ best


def bounds_from_constraints(con, command_offset, no_load):
    lo = -con.max_command - command_offset
    hi = np.minimum(no_load - con.min_tension,
                    con.max_command - command_offset)
    return lo, hi


# --------------------------------------------------------------------------
# Euler-Lagrange oracle in a fixed global chart

_CHART_OFFSET = np.array([0.2, -0.15, 0.1])


def _chart_of_pose(pose):
    if isinstance(pose, EuclideanPose):
        return pose.coords.copy(), None
    ref_quat = quat_normalize(quat_multiply(
        quat_conjugate(quat_from_rotation_vector(_CHART_OFFSET)),
        pose.quaternion))
    rho = rotation_vector_from_quat(
        quat_multiply(pose.quaternion, quat_conjugate(ref_quat)))
    return np.concatenate([pose.position, rho]), ref_quat


def _pose_of_chart(q, ref_quat):
    if ref_quat is None:
        return EuclideanPose(q)
    return RigidPose(q[:3], quat_normalize(
        quat_multiply(quat_from_rotation_vector(q[3:]), ref_quat)))


def _chart_rates_map(q, ref_quat):
    """K(q): chart coordinate rates to twists."""
    if ref_quat is None:
        return np.eye(q.size)
    big = np.eye(6)
    big[3:, 3:] = so3_left_jacobian(q[3:])
    return big


def euler_lagrange_bias(model, pose, twist, accel, dt=1e-4, h=1e-5):
    """Bias force from d/dt(dL/dqdot) - dL/dq in a fixed rotation-vector
    chart, minus the mass-acceleration part.

    The chart differs from the library's exponential chart at the current
    pose, and the derivatives are taken along an explicit quadratic path,
    so agreement is a genuine cross-check of the velocity-product terms.
    """
    twist = np.asarray(twist, float)
    accel = np.asarray(accel, float)
    q0, ref_quat = _chart_of_pose(pose)
    d = q0.size
    k0 = _chart_rates_map(q0, ref_quat)
    qdot0 = np.linalg.solve(k0, twist)
    kd = (_chart_rates_map(q0 + dt * qdot0, ref_quat)
          - _chart_rates_map(q0 - dt * qdot0, ref_quat)) / (2 * dt)
    qddot0 = np.linalg.solve(k0, accel - kd @ qdot0)

    def momentum(t):
        q = q0 + t * qdot0 + 0.5 * t * t * qddot0
        qd = qdot0 + t * qddot0
        kq = _chart_rates_map(q, ref_quat)
        m = mass_matrix(model, _pose_of_chart(q, ref_quat))
        return kq.T @ m @ kq @ qd

    def lagrangian(q, qd):
        kq = _chart_rates_map(q, ref_quat)
        pose_q = _pose_of_chart(q, ref_quat)
        tw = kq @ qd
        m = mass_matrix(model, pose_q)
        return 0.5 * tw @ m @ tw - potential_energy(model, pose_q)

    dpdt = (momentum(dt) - momentum(-dt)) / (2 * dt)
    grad = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (lagrangian(q0 + e, qdot0)
                   - lagrangian(q0 - e, qdot0)) / (2 * h)
    gen_force = dpdt - grad
    wrench = np.linalg.solve(k0.T, gen_force)
    return wrench - mass_matrix(model, pose) @ accel


def routh_hurwitz_2nd_order(kp, kd, back_emf, mass):
    """Strict stability of s^2 + (kd + k0/m)s + kp by coefficient signs."""
    damping = kd + (back_emf / mass if np.isfinite(mass) else 0.0)
    return damping > 0.0 and kp > 0.0


def closed_loop_matrix_poles(gains, model, mass):
    """Eigenvalues of the closed-loop state matrix of one loaded actuator.

    The plant is the state-space realization (a, b, c) from command
    acceleration to actuator value, the controller (A, B, C, D) is fed
    error = -value, and the error derivatives are read off the plant
    state as -c a^j x, which needs c a^(j-1) b = 0 below the feedback
    order.  No characteristic polynomial is formed.
    """
    a, b, c = _plant_state_space(model, mass)
    rows = [c[0]]
    for _ in range(gains.derivative_order - 1):
        assert abs(rows[-1] @ b[:, 0]) <= 1e-12 * np.max(np.abs(rows[-1]))
        rows.append(rows[-1] @ a)
    feedback = gains.D[0] @ np.array(rows)      # u = C xi - feedback @ x
    deg, s = a.shape[0], gains.state_dim
    closed = np.zeros((deg + s, deg + s))
    closed[:deg, :deg] = a - np.outer(b[:, 0], feedback)
    closed[:deg, deg:] = b @ gains.C
    closed[deg:, :deg] = -gains.B @ c
    closed[deg:, deg:] = gains.A
    return np.linalg.eigvals(closed)
