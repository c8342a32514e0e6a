import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PLANAR3_ANCHORS, count_cable_evaluations,
                      cube8_geometry, cube8_home, planar3_pose,
                      random_planar_poses, random_rigid_poses,
                      record_fk_poses)
from paractl import (DegenerateGeometry, EuclideanPose, NoConvergence,
                     RankDeficient, RigidPose, RobotGeometry, ValidationError,
                     forward_kinematics, inverse_kinematics, jacobian,
                     jacobian_directional_derivative, load_config,
                     manifold_dim, pose_difference, retract)
from paractl import kinematics
from paractl.kinematics import gram_matrix, quat_normalize

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SQ5 = np.sqrt(5.0)


def fd_jacobian(geom, pose, h=1e-6):
    d = geom.manifold_dim
    cols = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        plus = inverse_kinematics(geom, retract(pose, e))
        minus = inverse_kinematics(geom, retract(pose, -e))
        cols.append((plus - minus) / (2 * h))
    return np.column_stack(cols)


def test_ik_one_dimensional():
    geom = RobotGeometry.point_mass([[0.0]])
    assert inverse_kinematics(geom, EuclideanPose([1.5])) == pytest.approx(1.5)


def test_ik_planar3(planar3_geom):
    lengths = inverse_kinematics(planar3_geom, planar3_pose())
    np.testing.assert_allclose(lengths, [SQ5, SQ5, 2.0], atol=1e-7)


def test_ik_rigid_identity_attachments_at_origin():
    anchors = np.array([[1.0, 2.0, 2.0], [-1.0, 0.5, 3.0], [0.0, -2.0, 1.0],
                        [2.0, -1.0, 2.5], [-2.0, 1.0, 1.5], [1.5, 1.5, 0.5]])
    geom = RobotGeometry.rigid(anchors, np.zeros((6, 3)))
    lengths = inverse_kinematics(geom, RigidPose.identity())
    np.testing.assert_allclose(lengths, np.linalg.norm(anchors, axis=1))


def test_ik_degenerate_raises():
    geom = RobotGeometry.point_mass([[1.0, 1.0], [3.0, 0.0]])
    with pytest.raises(DegenerateGeometry):
        inverse_kinematics(geom, EuclideanPose([1.0, 1.0]))


def test_jacobian_planar3_rows(planar3_geom):
    jac = jacobian(planar3_geom, planar3_pose())
    expected = np.array([[2 / SQ5, 1 / SQ5],
                         [-2 / SQ5, 1 / SQ5],
                         [0.0, -1.0]])
    np.testing.assert_allclose(jac, expected, atol=1e-7)


def test_jacobian_one_dimensional_is_unit():
    geom = RobotGeometry.point_mass([[0.0]])
    assert jacobian(geom, EuclideanPose([2.0])) == pytest.approx(1.0)


def test_jacobian_matches_finite_differences(planar3_geom):
    rng = np.random.default_rng(3)
    for pose in random_planar_poses(rng, 20):
        jac = jacobian(planar3_geom, pose)
        ref = fd_jacobian(planar3_geom, pose)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * max(1.0, np.abs(jac).max())


def test_jacobian_matches_finite_differences_rigid():
    geom = cube8_geometry()
    rng = np.random.default_rng(4)
    for pose in random_rigid_poses(rng, 10):
        jac = jacobian(geom, pose)
        ref = fd_jacobian(geom, pose)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * max(1.0, np.abs(jac).max())


def test_rigid_rows_match_np_cross_exactly():
    # the einsum cross product must give np.cross's bits, so rigid traces
    # do not move with the row builder
    from paractl.kinematics import _rigid_rows
    rng = np.random.default_rng(5)
    for _ in range(200):
        offsets, units = rng.normal(size=(2, 8, 3))
        np.testing.assert_array_equal(
            _rigid_rows(units, offsets),
            np.hstack([units, np.cross(offsets, units)]))


@given(st.floats(0.6, 3.4), st.floats(0.3, 2.4))
def test_jacobian_rows_unit_norm_point_mass(x, y):
    geom = RobotGeometry.point_mass(np.array([[0.0, 0.0], [4.0, 0.0],
                                              [2.0, 3.0]]))
    jac = jacobian(geom, EuclideanPose([x, y]))
    np.testing.assert_allclose(np.linalg.norm(jac, axis=1), 1.0, atol=1e-12)


def test_rates_zero_twist(planar3_geom):
    rates = jacobian(planar3_geom, planar3_pose()) @ np.zeros(2)
    np.testing.assert_array_equal(rates, 0.0)


def test_rates_planar3_axes(planar3_geom):
    rx = jacobian(planar3_geom, planar3_pose()) @ np.array([1.0, 0.0])
    ry = jacobian(planar3_geom, planar3_pose()) @ np.array([0.0, 1.0])
    np.testing.assert_allclose(rx, [2 / SQ5, -2 / SQ5, 0.0], atol=1e-7)
    np.testing.assert_allclose(ry, [1 / SQ5, 1 / SQ5, -1.0], atol=1e-7)


def test_rates_match_length_derivative(planar3_geom):
    # d/dt of the values along a straight-line motion
    pose = planar3_pose()
    twist = np.array([0.7, -0.4])
    h = 1e-6
    fd = (inverse_kinematics(planar3_geom, retract(pose, h * twist))
          - inverse_kinematics(planar3_geom, retract(pose, -h * twist))) \
        / (2 * h)
    rates = jacobian(planar3_geom, pose) @ twist
    assert np.max(np.abs(rates - fd)) <= 1e-6


def test_fk_round_trip_planar(planar3_geom):
    rng = np.random.default_rng(11)
    for pose in random_planar_poses(rng, 50):
        lengths = inverse_kinematics(planar3_geom, pose)
        guess = retract(pose, rng.uniform(-0.05, 0.05, 2))
        sol = forward_kinematics(planar3_geom, lengths, guess)
        assert np.linalg.norm(pose_difference(sol, pose)) <= 1e-8


def test_fk_round_trip_rigid():
    geom = cube8_geometry()
    rng = np.random.default_rng(12)
    for pose in random_rigid_poses(rng, 25):
        lengths = inverse_kinematics(geom, pose)
        guess = retract(pose, rng.uniform(-0.03, 0.03, 6))
        sol = forward_kinematics(geom, lengths, guess)
        assert np.linalg.norm(pose_difference(sol, pose)) <= 1e-8


def test_fk_planar3_documented_case(planar3_geom):
    sol = forward_kinematics(planar3_geom, np.array([SQ5, SQ5, 2.0]),
                             EuclideanPose([1.9, 1.1]))
    np.testing.assert_allclose(sol.coords, [2.0, 1.0], atol=1e-8)


def test_fk_noisy_lengths_least_squares(planar3_geom):
    # grid-search oracle for the least-squares pose under perturbed values
    lengths = np.array([SQ5 + 1e-3, SQ5 - 1e-3, 2.0])

    def cost(x, y):
        r = inverse_kinematics(planar3_geom, EuclideanPose([x, y])) - lengths
        return r @ r

    xs = np.linspace(1.95, 2.05, 141)
    ys = np.linspace(0.95, 1.05, 141)
    grid = [(cost(x, y), x, y) for x in xs for y in ys]
    _, bx, by = min(grid)
    # refine around the best cell
    for _ in range(3):
        span = xs[1] - xs[0]
        xs = np.linspace(bx - span, bx + span, 21)
        ys = np.linspace(by - span, by + span, 21)
        _, bx, by = min((cost(x, y), x, y) for x in xs for y in ys)
    sol = forward_kinematics(planar3_geom, lengths, EuclideanPose([2.0, 1.0]))
    assert abs(sol.coords[0] - bx) <= 1e-5
    assert abs(sol.coords[1] - by) <= 1e-5
    # this perturbation happens to lie nearly tangent to the realizable
    # surface, so the least-squares pose absorbs almost all of it
    residual = inverse_kinematics(planar3_geom, sol) - lengths
    assert 0.0 < np.linalg.norm(residual) < 1e-5


def test_fk_off_surface_lengths_keep_residual(planar3_geom):
    # perturb along the normal of the realizable surface: no pose can
    # absorb it, the solver must settle at a least-squares compromise
    jac = jacobian(planar3_geom, planar3_pose())
    normal = np.cross(jac[:, 0], jac[:, 1])
    normal /= np.linalg.norm(normal)
    lengths = np.array([SQ5, SQ5, 2.0]) + 1e-3 * normal
    sol = forward_kinematics(planar3_geom, lengths, EuclideanPose([2.0, 1.0]))
    residual = inverse_kinematics(planar3_geom, sol) - lengths
    assert np.linalg.norm(residual) == pytest.approx(1e-3, rel=1e-3)
    grad = jacobian(planar3_geom, sol).T @ residual
    assert np.max(np.abs(grad)) <= 1e-9  # stationary point of the cost


def test_fk_no_convergence(planar3_geom):
    with pytest.raises(NoConvergence):
        forward_kinematics(planar3_geom, np.array([SQ5, SQ5, 2.0]),
                           EuclideanPose([150.0, 220.0]), max_iters=3)


@pytest.mark.parametrize("failures", [3, None], ids=["some", "every"])
def test_fk_failed_factorization_damps_harder(planar3_geom, monkeypatch,
                                              failures):
    # a normal matrix that does not factor counts as a rejected step: FK
    # recovers when more damping lets it factor, and otherwise ends in
    # RankDeficient once the damping passes 1e8, never in LinAlgError
    solve = kinematics._spd_solve
    calls = []

    def failing(a, b):
        calls.append(a)
        if failures is None or len(calls) <= failures:
            return None
        return solve(a, b)

    monkeypatch.setattr(kinematics, "_spd_solve", failing)
    pose = planar3_pose(2.2, 1.3)
    lengths = inverse_kinematics(planar3_geom, pose)
    guess = planar3_pose()
    if failures is None:
        with pytest.raises(RankDeficient):
            forward_kinematics(planar3_geom, lengths, guess)
        assert len(calls) == 19     # damping 1e-10 up to 1e9, tenfold
        return
    sol = forward_kinematics(planar3_geom, lengths, guess)
    np.testing.assert_allclose(sol.coords, pose.coords, atol=1e-9)
    assert len(calls) > failures


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("rigid", [False, True], ids=["planar3", "cube8"])
def test_fk_rejects_non_finite_reading(planar3_geom, monkeypatch, rigid,
                                       bad):
    # rejected before any step, so the error names the reading instead of
    # the normal equations
    calls = []
    monkeypatch.setattr(kinematics, "_spd_solve",
                        lambda a, b: calls.append(a))
    geom, pose = (cube8_geometry(), cube8_home()) if rigid \
        else (planar3_geom, planar3_pose())
    lengths = inverse_kinematics(geom, pose)
    lengths[1] = bad
    with pytest.raises(ValidationError):
        forward_kinematics(geom, lengths, pose)
    assert calls == []


def test_pose_difference_same_pose_is_zero():
    pose = RigidPose.identity([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(pose_difference(pose, pose), np.zeros(6))


def test_pose_difference_euclidean_subtraction():
    a = EuclideanPose([2.0, 1.0])
    b = EuclideanPose([2.5, 0.5])
    np.testing.assert_allclose(pose_difference(a, b), [0.5, -0.5])


def test_pose_difference_rotation_about_z():
    a = RigidPose.identity([0.5, 0.0, 1.0])
    b = RigidPose(a.position, quat_normalize(
        [np.cos(0.05), 0.0, 0.0, np.sin(0.05)]))
    np.testing.assert_allclose(pose_difference(a, b),
                               [0, 0, 0, 0, 0, 0.1], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.3),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.3))
def test_pose_difference_matches_scipy_rotvec(qa, qb):
    from scipy.spatial.transform import Rotation
    qa = quat_normalize(qa)
    qb = quat_normalize(qb)
    a = RigidPose(np.zeros(3), qa)
    b = RigidPose(np.zeros(3), qb)
    diff = pose_difference(a, b)[3:]
    # scipy uses (x, y, z, w) ordering
    ra = Rotation.from_quat([qa[1], qa[2], qa[3], qa[0]])
    rb = Rotation.from_quat([qb[1], qb[2], qb[3], qb[0]])
    relative = rb * ra.inv()
    # compare as rotations: at a half-turn the two principal rotation
    # vectors +pi*axis and -pi*axis are both correct
    assert np.linalg.norm(diff) <= np.pi + 1e-9
    np.testing.assert_allclose(Rotation.from_rotvec(diff).as_matrix(),
                               relative.as_matrix(), atol=1e-9)


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.3), st.floats(0.2, 5.0))
def test_rotation_of_non_unit_quaternion_matches_scipy(q, scale):
    # RigidPose.rotation takes the quaternion as stored; quat_to_matrix
    # normalizes through 2 / |q|^2, so any nonzero scale gives the rotation
    from scipy.spatial.transform import Rotation
    q = np.asarray(q)
    rot = RigidPose(np.zeros(3), scale * q).rotation
    expected = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
    np.testing.assert_allclose(rot, expected, atol=1e-13)


def test_pose_difference_first_order_ratio_rigid():
    # walk the pose along a straight line in Euler-angle coordinates: a
    # "reasonable" chart where the instantaneous rotation axis varies, so
    # the difference recovers the velocity only to first order and the
    # recovery error shrinks linearly with the step
    from scipy.spatial.transform import Rotation

    rpy0 = np.array([0.4, -0.3, 0.6])
    rpy_rate = np.array([0.3, -0.2, 0.25])
    vel = np.array([0.3, -0.2, 0.1])
    base_rot = Rotation.from_euler("xyz", rpy0)

    def pose_at(eps):
        rot = Rotation.from_euler("xyz", rpy0 + eps * rpy_rate)
        x, y, z, w = rot.as_quat()
        return RigidPose([eps * vel[0], eps * vel[1], 1.0 + eps * vel[2]],
                         np.array([w, x, y, z]))

    delta = 1e-7
    omega0 = (Rotation.from_euler("xyz", rpy0 + delta * rpy_rate)
              * base_rot.inv()).as_rotvec() / delta
    theta = np.concatenate([vel, omega0])
    base = pose_at(0.0)
    errors = []
    for eps in (1e-3, 1e-4):
        diff = pose_difference(base, pose_at(eps))
        errors.append(np.linalg.norm(diff / eps - theta))
    assert errors[1] < errors[0]
    ratio = errors[0] / errors[1]
    assert 5.0 < ratio < 20.0


def test_pose_difference_retract_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pose = RigidPose(rng.normal(size=3),
                         quat_normalize(rng.normal(size=4)))
        step = rng.uniform(-1.0, 1.0, 6)
        back = pose_difference(pose, retract(pose, step))
        np.testing.assert_allclose(back, step, atol=1e-12)


def test_directional_derivative_zero_twist(planar3_geom):
    out = jacobian_directional_derivative(planar3_geom, planar3_pose(),
                                          np.zeros(2))
    np.testing.assert_array_equal(out, 0.0)


def test_directional_derivative_constant_jacobian():
    geom = RobotGeometry.point_mass([[0.0]])
    out = jacobian_directional_derivative(geom, EuclideanPose([2.0]), [0.7])
    assert abs(out[0]) <= 1e-8


def test_directional_derivative_matches_second_difference(planar3_geom):
    # values along a straight-line motion: d2l/dt2 = J a + curvature; a = 0
    pose = planar3_pose()
    twist = np.array([1.0, 0.0])
    h = 1e-5
    second = (inverse_kinematics(planar3_geom, retract(pose, h * twist))
              - 2 * inverse_kinematics(planar3_geom, pose)
              + inverse_kinematics(planar3_geom, retract(pose, -h * twist))) \
        / h**2
    curve = jacobian_directional_derivative(planar3_geom, pose, twist)
    assert np.max(np.abs(curve - second)) <= 1e-4


def test_directional_derivative_matches_second_difference_cube8():
    # along retract(pose, t * twist) the twist is constant, so the second
    # time derivative of the values is the curvature alone
    from conftest import random_rigid_poses
    geom = cube8_geometry()
    rng = np.random.default_rng(41)
    h = 1e-4
    for pose in random_rigid_poses(rng, 50):
        twist = rng.uniform(-1.0, 1.0, 6)

        def values(t):
            return inverse_kinematics(geom, retract(pose, t * twist))

        second = (values(h) - 2 * values(0.0) + values(-h)) / h**2
        curve = jacobian_directional_derivative(geom, pose, twist)
        assert np.linalg.norm(curve - second) \
            <= 1e-6 * max(1.0, np.linalg.norm(second))


def test_manifold_dim():
    assert manifold_dim(EuclideanPose([1.0, 2.0])) == 2
    assert manifold_dim(RigidPose.identity()) == 6
    assert cube8_geometry().manifold_dim == 6
    assert cube8_home().position[2] == 1.5


HOME7 = [0.0, 0.0, 1.5, 1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("values, rigid", [
    ([2.0], False), ([2.0, 1.0, 0.0], False), ([2.0, np.nan], False),
    ([np.inf, 1.0], False), (["2", "x"], False), ([[2.0], [1.0, 0.0]], False),
    (HOME7[:6], True), (HOME7 + [0.0], True), ([np.nan, *HOME7[1:]], True),
    ([*HOME7[:3], np.nan, 0.0, 0.0, 0.0], True),
    ([*HOME7[:3], 0.0, 0.0, 0.0, 0.0], True),
    ([*HOME7[:3], 1e-170, 0.0, 0.0, 0.0], True),
    ([*HOME7[:3], 1e200, 0.0, 0.0, 0.0], True),
], ids=["flat_short", "flat_long", "flat_nan", "flat_inf", "flat_text",
        "flat_ragged", "se3_short", "se3_long", "se3_nan_position",
        "se3_nan_quaternion", "se3_zero_quaternion",
        "se3_underflowing_quaternion", "se3_overflowing_quaternion"])
def test_read_pose_rejects_malformed(values, rigid):
    with pytest.raises(ValidationError):
        kinematics.read_pose(values, rigid, 2)


def test_read_pose_normalizes_quaternion_once():
    quat = np.array([0.3, -0.2, 0.9, 0.1])
    pose = kinematics.read_pose([1.0, 2.0, 3.0, *(2.0 * quat)], True, 6)
    assert pose.position.tolist() == [1.0, 2.0, 3.0]
    assert pose.quaternion.tobytes() == quat_normalize(2.0 * quat).tobytes()
    assert kinematics.read_pose(HOME7, True, 6).quaternion.tolist() == \
        [1.0, 0.0, 0.0, 0.0]
    flat = kinematics.read_pose(["2", "1"], False, 2)
    assert isinstance(flat, EuclideanPose)
    assert flat.coords.tolist() == [2.0, 1.0]


def _frozen_forward_kinematics(geom, lengths, guess, max_iters=50):
    """`forward_kinematics` as it was while it rebuilt the gradient
    tolerance and the damping's identity on every iteration and took its
    maxima with np.max: the reference whose poses and errors FK must
    equal bit for bit."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (geom.actuator_count,):
        raise ValidationError(
            f"expected {geom.actuator_count} actuator values, got shape "
            f"{lengths.shape}")
    pose = guess
    damping = 1e-10
    residual = kinematics.inverse_kinematics(geom, pose) - lengths
    if not np.abs(residual).max() < 1e150:
        raise ValidationError("actuator values or guess give a non-finite "
                              "or overflowing residual")
    cost = residual @ residual
    for _ in range(max_iters):
        if np.max(np.abs(residual)) <= 1e-12:
            return pose
        jac = kinematics.jacobian(geom, pose)
        grad = jac.T @ residual
        if np.max(np.abs(grad)) <= 1e-12 * max(1.0, np.max(np.abs(lengths))):
            return pose
        hess = jac.T @ jac
        eye = np.eye(hess.shape[0])
        while True:
            step = kinematics._spd_solve(hess + damping * eye, -grad)
            if step is not None:
                candidate = retract(pose, step)
                cand_res = kinematics.inverse_kinematics(geom, candidate) \
                    - lengths
                cand_cost = cand_res @ cand_res
                if cand_cost <= cost * (1.0 + 1e-14) + 1e-300:
                    pose, residual, cost = candidate, cand_res, cand_cost
                    damping = max(damping / 10.0, 1e-12)
                    break
            damping *= 10.0
            if damping > 1e8:
                raise RankDeficient(
                    "normal equations unusable even under heavy damping")
        if np.max(np.abs(step)) <= 1e-12:
            return pose
    raise NoConvergence(f"no convergence after {max_iters} iterations")


def _fk_cases(cfg, rng, count):
    """(reading, guess, max_iters) at poses uniform in the workspace box
    (cube8 tilted up to 0.3 rad per axis): mostly noisy readings (sigma
    1e-4 to 1e-2) with guesses up to 0.05 away (every tenth at the true
    pose); also readings 0.1-1 off the realizable set, which make steps
    fail and the damping grow, readings capped at 1-3 iterations, and
    non-finite, overflowing or short readings."""
    geom = cfg.model.geometry
    d = geom.manifold_dim
    cases = []
    for k in range(count):
        position = rng.uniform(cfg.workspace_min, cfg.workspace_max)
        if geom.is_rigid:
            true = RigidPose(position, kinematics.quat_from_rotation_vector(
                rng.uniform(-0.3, 0.3, 3)))
        else:
            true = EuclideanPose(position)
        reading = inverse_kinematics(geom, true)
        radius = 0.0 if k % 10 == 0 else rng.uniform(0.0, 0.05)
        guess = retract(true, rng.uniform(-radius, radius, d))
        kind, max_iters = k % 20, 50
        if kind < 14:
            reading = reading + 10.0 ** rng.uniform(-4, -2) \
                * rng.standard_normal(reading.size)
        elif kind < 17:
            reading = reading + rng.uniform(0.1, 1.0) \
                * rng.standard_normal(reading.size)
        elif kind < 19:
            reading = reading + 1e-2 * rng.standard_normal(reading.size)
            max_iters = int(rng.integers(1, 4))
        else:
            reading[rng.integers(reading.size)] = rng.choice(
                [np.nan, np.inf, -np.inf, 1e300])
            if rng.uniform() < 0.25:
                reading = reading[:-1]
        cases.append((reading, guess, max_iters))
    return cases


def _fk_outcome(fk, geom, reading, guess, max_iters):
    try:
        pose = fk(geom, reading, guess, max_iters)
    except (RankDeficient, NoConvergence, ValidationError) as exc:
        return type(exc), str(exc)
    if isinstance(pose, RigidPose):
        return pose.position.tobytes() + pose.quaternion.tobytes()
    return pose.coords.tobytes()


@pytest.mark.parametrize("name", ["planar3", "cube8"])
def test_fk_bit_identical_to_frozen_reference(name, monkeypatch):
    cfg = load_config(CONFIGS / f"{name}.json")
    geom = cfg.model.geometry
    solve, jacobian_of = kinematics._spd_solve, kinematics.jacobian
    solves, jacobians = [], []
    monkeypatch.setattr(kinematics, "_spd_solve",
                        lambda a, b: solves.append(1) or solve(a, b))
    monkeypatch.setattr(kinematics, "jacobian",
                        lambda g, p: jacobians.append(1) or jacobian_of(g, p))
    seen, damped = {}, 0
    for reading, guess, max_iters in _fk_cases(
            cfg, np.random.default_rng([9301, len(name)]), 2000):
        ref = _fk_outcome(_frozen_forward_kinematics, geom, reading, guess,
                          max_iters)
        solves.clear()
        jacobians.clear()
        got = _fk_outcome(forward_kinematics, geom, reading, guess,
                          max_iters)
        assert got == ref
        damped += len(solves) > len(jacobians)   # some step was rejected
        key = ref[0] if isinstance(ref, tuple) else "pose"
        seen[key] = seen.get(key, 0) + 1
    # the batch reaches every outcome, and the damping grows in some runs
    assert seen["pose"] >= 1300 and damped >= 300
    assert seen[NoConvergence] >= 200 and seen[ValidationError] == 100


@pytest.mark.parametrize("failures", [1, 2, 5, 20, None])
def test_fk_failed_factorizations_match_frozen_reference(planar3_geom,
                                                         monkeypatch,
                                                         failures):
    # factorizations that fail, for a while or for good, damp harder in
    # the same steps and end in the same pose or the same RankDeficient
    solve = kinematics._spd_solve
    rng = np.random.default_rng(9311)
    for geom, poses in ((planar3_geom, random_planar_poses(rng, 20)),
                        (cube8_geometry(), random_rigid_poses(rng, 20))):
        for pose in poses:
            reading = inverse_kinematics(geom, pose) \
                + 1e-3 * rng.standard_normal(geom.actuator_count)
            guess = retract(pose, rng.uniform(-0.05, 0.05,
                                              geom.manifold_dim))
            outcomes = []
            for fk in (_frozen_forward_kinematics, forward_kinematics):
                calls = []

                def failing(a, b):
                    calls.append(a)
                    if failures is None or len(calls) <= failures:
                        return None
                    return solve(a, b)

                monkeypatch.setattr(kinematics, "_spd_solve", failing)
                outcomes.append(_fk_outcome(fk, geom, reading, guess, 50))
            assert outcomes[0] == outcomes[1]
            if failures is None or failures == 20:
                assert outcomes[0][0] is RankDeficient


def _cable_bits(geom, pose):
    """Every public view of a pose's cables, as bytes."""
    twist = np.linspace(-0.5, 0.7, geom.manifold_dim)
    return (inverse_kinematics(geom, pose).tobytes(),
            jacobian(geom, pose).tobytes(),
            gram_matrix(geom, pose).tobytes(),
            jacobian_directional_derivative(geom, pose, twist).tobytes())


def _fresh(pose):
    """An equal pose that has evaluated nothing."""
    return dataclasses.replace(pose)


@pytest.mark.parametrize("rigid", [False, True], ids=["planar3", "cube8"])
def test_returned_arrays_are_the_callers_own(planar3_geom, rigid):
    # writing into what inverse_kinematics or jacobian returned leaves the
    # pose's memo, and every later call, as it was
    geom, pose = (cube8_geometry(), cube8_home()) if rigid \
        else (planar3_geom, planar3_pose(2.3, 0.8))
    for _ in range(2):
        inverse_kinematics(geom, pose)[:] = 1e300
        jacobian(geom, pose)[:] = np.nan
        gram_matrix(geom, pose)[:] = np.inf
    assert _cable_bits(geom, pose) == _cable_bits(geom, _fresh(pose))
    reading = inverse_kinematics(geom, pose)
    assert forward_kinematics(geom, reading, pose) is pose


def test_poses_are_values(planar3_geom):
    # a pose copies what it is built from and refuses writes, so its memo
    # cannot go stale
    coords, position = np.array([2.3, 0.8]), np.array([0.05, -0.02, 1.5])
    quat = quat_normalize(np.array([1.0, 0.1, -0.05, 0.2]))
    flat, rigid = EuclideanPose(coords), RigidPose(position, quat)
    expected = (_cable_bits(planar3_geom, _fresh(flat)),
                _cable_bits(cube8_geometry(), _fresh(rigid)))
    geom8 = cube8_geometry()
    _cable_bits(planar3_geom, flat)   # the memos exist before the writes
    _cable_bits(geom8, rigid)
    coords[0] = position[2] = quat[1] = 0.5
    for array in (flat.coords, rigid.position, rigid.quaternion):
        with pytest.raises(ValueError):
            array[0] = 3.0
        with pytest.raises(ValueError):
            array.setflags(write=True)
    assert (_cable_bits(planar3_geom, flat), _cable_bits(geom8, rigid)) \
        == expected


def test_one_pose_under_two_geometries(planar3_geom):
    # the memo holds the last geometry's evaluation: another geometry,
    # even an equal one, gets its own
    geom8 = cube8_geometry()
    cases = [(EuclideanPose([2.3, 0.8]),
              [planar3_geom, RobotGeometry.point_mass(PLANAR3_ANCHORS),
               RobotGeometry.point_mass(PLANAR3_ANCHORS + [0.3, -0.2])]),
             (RigidPose([0.05, -0.02, 1.5], quat_normalize(
                 np.array([1.0, 0.1, -0.05, 0.2]))),
              [geom8, RobotGeometry.rigid(geom8.anchors * 1.1,
                                          geom8.attachments)])]
    for pose, geometries in cases:
        expected = [_cable_bits(g, _fresh(pose)) for g in geometries]
        assert expected[0] != expected[-1]
        for _ in range(2):
            for geom, bits in zip(geometries, expected):
                assert _cable_bits(geom, pose) == bits
    with pytest.raises(ValueError):
        jacobian(geom8, cases[0][0])
    with pytest.raises(ValueError):
        jacobian(planar3_geom, cases[1][0])


@pytest.mark.parametrize("rigid", [False, True], ids=["planar3", "cube8"])
def test_copies_of_an_evaluated_pose(planar3_geom, rigid):
    # a replaced field is evaluated afresh; copies and pickles come back as
    # read-only values that evaluate to the same bits
    geom, pose, field, moved = (
        (cube8_geometry(), cube8_home(), "position", [0.1, -0.05, 1.4])
        if rigid else (planar3_geom, planar3_pose(2.3, 0.8), "coords",
                       [2.5, 0.75]))
    bits = _cable_bits(geom, pose)
    other = dataclasses.replace(pose, **{field: moved})
    built = type(pose)(**{f.name: getattr(other, f.name)
                          for f in dataclasses.fields(pose)})
    assert _cable_bits(geom, other) == _cable_bits(geom, built) != bits
    copies = [copy.copy(pose), copy.deepcopy(pose),
              pickle.loads(pickle.dumps(pose))]
    geom_copy, pose_copy = copy.deepcopy((geom, pose))
    for twin in copies:
        assert _cable_bits(geom, twin) == bits
        with pytest.raises(ValueError):
            getattr(twin, field)[0] = 9.0
    assert _cable_bits(geom_copy, pose_copy) == bits


@pytest.mark.parametrize("name", ["planar3", "cube8"])
def test_fk_evaluates_each_pose_once(name, monkeypatch):
    # each pose FK linearizes or takes a residual at is evaluated once: the
    # next step's jacobian reads the accepted candidate's evaluation
    cfg = load_config(CONFIGS / f"{name}.json")
    geom = cfg.model.geometry
    visited = record_fk_poses(monkeypatch)
    evaluations = count_cable_evaluations(monkeypatch)
    linearized = 0
    for reading, guess, max_iters in _fk_cases(
            cfg, np.random.default_rng([9501, len(name)]), 200):
        visited.clear()
        evaluations.clear()
        _fk_outcome(forward_kinematics, geom, reading, guess, max_iters)
        assert len(evaluations) == len({id(p) for p in visited})
        linearized += len(visited) - len({id(p) for p in visited})
    assert linearized >= 200
