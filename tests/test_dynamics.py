from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cube8_geometry, cube8_home, cube8_model, planar3_pose,
                      random_planar_poses, random_rigid_poses)
from oracles import euler_lagrange_bias
from paractl import (DegenerateGeometry, EuclideanPose, InertialParams,
                     RigidPose, RobotGeometry, RobotModel, SingularMass,
                     ValidationError, bias_force, cable_tensions,
                     forward_dynamics, jacobian, load_config, mass_matrix,
                     modal_decomposition, modal_masses, no_load_forces,
                     total_energy)
from paractl.dynamics import point_mass_tables
from paractl.kinematics import (gram_matrix, quat_from_rotation_vector,
                                quat_normalize)
from paractl.simulator import PlantState, step_plant

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def spring_planar_model(planar3_geom=None):
    geom = RobotGeometry.point_mass([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    inertial = InertialParams(body_mass=1.3, gravity=[0.4, -9.81],
                              actuator_mass=0.2, spring_stiffness=2.5,
                              spring_center=[1.5, 1.2])
    return RobotModel(geom, inertial)


def test_mass_matrix_no_actuator_inertia(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0, -9.81]))
    np.testing.assert_allclose(mass_matrix(model, planar3_pose()), np.eye(2))


def test_mass_matrix_planar3(planar3_model):
    m = mass_matrix(planar3_model, planar3_pose())
    np.testing.assert_allclose(m, [[1.16, 0.0], [0.0, 1.14]], atol=1e-9)
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > 0


def test_mass_matrix_rigid_translation_block():
    anchors = np.array([[1.0, 2.0, 2.0], [-1.0, 0.5, 3.0], [0.0, -2.0, 1.0],
                        [2.0, -1.0, 2.5], [-2.0, 1.0, 1.5], [1.5, 1.5, 0.5]])
    geom = RobotGeometry.rigid(anchors, np.zeros((6, 3)))
    inertia = np.diag([0.1, 0.2, 0.3])
    model = RobotModel(geom, InertialParams(body_mass=2.0, gravity=[0, 0, 0],
                                            inertia=inertia,
                                            actuator_mass=0.25))
    pose = RigidPose.identity()
    units = -anchors / np.linalg.norm(anchors, axis=1)[:, None]
    expected_tt = 2.0 * np.eye(3) + 0.25 * sum(np.outer(u, u) for u in units)
    m = mass_matrix(model, pose)
    np.testing.assert_allclose(m[:3, :3], expected_tt, atol=1e-12)
    np.testing.assert_allclose(m[3:, 3:], inertia, atol=1e-12)


def test_bias_zero_velocity_zero_gravity(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0.0, 0.0],
                                      actuator_mass=0.1))
    np.testing.assert_allclose(
        bias_force(model, planar3_pose(), np.zeros(2)), 0.0, atol=1e-12)


def test_bias_static_gravity_hold(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0.0, -9.81]))
    mu = bias_force(model, planar3_pose(), np.zeros(2))
    np.testing.assert_allclose(mu, [0.0, 9.81], atol=1e-12)


def test_bias_matches_euler_lagrange_oracle_planar():
    model = spring_planar_model()
    rng = np.random.default_rng(21)
    for pose in random_planar_poses(rng, 20):
        twist = rng.uniform(-1.5, 1.5, 2)
        accel = rng.uniform(-2.0, 2.0, 2)
        mine = bias_force(model, pose, twist)
        ref = euler_lagrange_bias(model, pose, twist, accel)
        scale = max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(mine - ref) <= 1e-5 * scale


def test_bias_matches_euler_lagrange_oracle_rigid():
    model = cube8_model(actuator_mass=0.08)
    rng = np.random.default_rng(22)
    from conftest import random_rigid_poses
    for pose in random_rigid_poses(rng, 12):
        twist = rng.uniform(-1.0, 1.0, 6)
        accel = rng.uniform(-1.0, 1.0, 6)
        mine = bias_force(model, pose, twist)
        ref = euler_lagrange_bias(model, pose, twist, accel)
        scale = max(1.0, np.linalg.norm(ref))
        assert np.linalg.norm(mine - ref) <= 1e-5 * scale


def test_bias_gyroscopic_terms_match_newton_euler():
    model = cube8_model(actuator_mass=0.0)
    model = RobotModel(model.geometry,
                       InertialParams(body_mass=5.0, gravity=[0, 0, 0],
                                      inertia=np.diag([0.02, 0.03, 0.04])))
    pose = RigidPose([0.3, -0.2, 1.5],
                     quat_normalize([0.9, 0.1, -0.3, 0.2]))
    omega = np.array([0.4, -1.2, 0.7])
    twist = np.concatenate([[0.5, -0.3, 0.2], omega])
    world_inertia = pose.rotation @ np.diag([0.02, 0.03, 0.04]) \
        @ pose.rotation.T
    expected = np.concatenate([np.zeros(3),
                               np.cross(omega, world_inertia @ omega)])
    np.testing.assert_allclose(bias_force(model, pose, twist), expected,
                               atol=1e-9)


def test_no_load_forces_rest(planar3_model):
    out = no_load_forces(planar3_model, planar3_pose(), np.zeros(2),
                         np.zeros(2))
    np.testing.assert_array_equal(out, 0.0)


def test_no_load_forces_zero_actuator_mass(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0, -9.81]))
    out = no_load_forces(model, planar3_pose(), [1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(out, 0.0)


def test_no_load_forces_planar3_acceleration(planar3_model):
    out = no_load_forces(planar3_model, planar3_pose(), np.zeros(2),
                         [1.0, 0.0])
    np.testing.assert_allclose(out, [0.0894427, -0.0894427, 0.0], atol=1e-7)


def test_no_load_forces_match_second_difference_cube8():
    # detached actuators spend m0 times the second derivative of their
    # values along retract(pose, t twist + t^2 accel / 2)
    from paractl import inverse_kinematics, retract
    model = cube8_model()
    geom = model.geometry
    m0 = model.inertial.actuator_mass
    rng = np.random.default_rng(42)
    h = 1e-4
    for pose in random_rigid_poses(rng, 50):
        twist = rng.uniform(-1.0, 1.0, 6)
        accel = rng.uniform(-1.0, 1.0, 6)

        def values(t):
            return inverse_kinematics(
                geom, retract(pose, t * twist + 0.5 * t * t * accel))

        expected = m0 * (values(h) - 2 * values(0.0) + values(-h)) / h**2
        out = no_load_forces(model, pose, twist, accel)
        assert np.linalg.norm(out - expected) \
            <= 1e-6 * np.linalg.norm(expected)


def test_cable_tensions():
    np.testing.assert_array_equal(cable_tensions([1.0, 2.0], [1.0, 2.0]),
                                  [0.0, 0.0])
    assert cable_tensions([0.0], [-9.81])[0] == pytest.approx(9.81)
    with pytest.raises(ValueError):
        cable_tensions(np.zeros(3), np.zeros(2))


def test_forward_dynamics_equilibrium(planar3_model):
    pose = planar3_pose()
    twist = np.array([0.2, -0.1])
    mu = bias_force(planar3_model, pose, twist)
    accel = forward_dynamics(planar3_model, pose, twist, mu)
    np.testing.assert_allclose(accel, 0.0, atol=1e-10)


def test_forward_dynamics_planar3_unit(planar3_model):
    pose = planar3_pose()
    mu = bias_force(planar3_model, pose, np.zeros(2))
    accel = forward_dynamics(planar3_model, pose, np.zeros(2),
                             np.array([1.16, 0.0]) + mu)
    np.testing.assert_allclose(accel, [1.0, 0.0], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_forward_dynamics_inverts_equations_of_motion(twist, accel):
    geom = RobotGeometry.point_mass([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    model = RobotModel(geom, InertialParams(body_mass=1.0,
                                            gravity=[0.0, -9.81],
                                            actuator_mass=0.1))
    pose = planar3_pose()
    twist = np.asarray(twist)
    accel = np.asarray(accel)
    wrench = mass_matrix(model, pose) @ accel + bias_force(model, pose, twist)
    np.testing.assert_allclose(forward_dynamics(model, pose, twist, wrench),
                               accel, atol=1e-10)


def test_modal_single_actuator_scalar_case():
    geom = RobotGeometry.point_mass([[0.0]])
    model = RobotModel(geom, InertialParams(body_mass=1.0, gravity=[0.0],
                                            actuator_mass=0.3))
    dec = modal_decomposition(model, EuclideanPose([2.0]))
    assert dec.eigenvalues[0] == pytest.approx(1.0 / 1.3)
    assert dec.eigenvalues[0] <= 1.0 / 0.3
    assert dec.modal_masses[0] == pytest.approx(1.3)


def test_modal_planar3_frozen_values(planar3_model):
    dec = modal_decomposition(planar3_model, planar3_pose())
    np.testing.assert_allclose(dec.eigenvalues, [1.3793103, 1.2280702],
                               atol=1e-6)
    np.testing.assert_allclose(dec.modal_masses, [0.725, 0.8142857],
                               atol=1e-6)


def test_modal_pure_actuator_inertia(planar3_geom):
    # body mass zero leaves only the reflected inertia: every eigenvalue
    # collapses to 1/m0
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=0.0, gravity=[0, 0],
                                      actuator_mass=0.4))
    dec = modal_decomposition(model, planar3_pose())
    np.testing.assert_allclose(dec.eigenvalues, 1.0 / 0.4, atol=1e-9)


def test_modal_biorthogonality_and_eigen_property(planar3_model):
    pose = planar3_pose(2.7, 1.6)
    dec = modal_decomposition(planar3_model, pose)
    m = mass_matrix(planar3_model, pose)
    gram = jacobian(planar3_model.geometry, pose).T \
        @ jacobian(planar3_model.geometry, pose)
    n_mat = np.linalg.solve(m, gram)
    np.testing.assert_allclose(dec.duals.T @ dec.modes, np.eye(2), atol=1e-9)
    for i in range(2):
        np.testing.assert_allclose(n_mat @ dec.modes[:, i],
                                   dec.eigenvalues[i] * dec.modes[:, i],
                                   atol=1e-8)


def test_modal_matches_general_eigensolver(cube8):
    from conftest import cube8_home
    pose = cube8_home()
    dec = modal_decomposition(cube8, pose)
    m = mass_matrix(cube8, pose)
    gram = jacobian(cube8.geometry, pose).T @ jacobian(cube8.geometry, pose)
    raw = np.linalg.eigvals(np.linalg.solve(m, gram))
    assert np.max(np.abs(raw.imag)) <= 1e-9
    np.testing.assert_allclose(np.sort(raw.real),
                               np.sort(dec.eigenvalues), atol=1e-8)
    bound = 1.0 / cube8.inertial.actuator_mass
    assert np.all(dec.eigenvalues >= -1e-9)
    assert np.all(dec.eigenvalues <= bound + 1e-9)


@pytest.mark.parametrize("actuator_mass", [0.05, 0.0])
def test_modal_split_matches_mass_and_gram_reference(actuator_mass):
    # the modal split evaluates the jacobian once; composed here from
    # mass_matrix and gram_matrix it must give the very same bits
    from paractl.kinematics import gram_matrix
    model = cube8_model(actuator_mass=actuator_mass)
    for pose in random_rigid_poses(np.random.default_rng(21), 12):
        dec = modal_decomposition(model, pose)
        m = mass_matrix(model, pose)
        gram = gram_matrix(model.geometry, pose)
        vals, vecs = np.linalg.eigh(m)
        root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        sym = inv_root @ gram @ inv_root
        eigs, sym_vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        order = np.argsort(eigs)[::-1]
        eigs, sym_vecs = eigs[order], sym_vecs[:, order]
        flip = sym_vecs[np.argmax(np.abs(sym_vecs), axis=0),
                        np.arange(sym_vecs.shape[1])] < 0.0
        sym_vecs[:, flip] = -sym_vecs[:, flip]
        masses = np.where(eigs > 1e-12, 1.0 / np.where(eigs > 1e-12,
                                                       eigs, 1.0), np.inf)
        assert np.array_equal(dec.eigenvalues, eigs)
        assert np.array_equal(dec.modal_masses, masses)
        assert np.array_equal(dec.modes, inv_root @ sym_vecs)
        assert np.array_equal(dec.duals, root @ sym_vecs)


def test_rigid_model_without_inertia_rejected():
    # caught where the model is built, not as a raw error inside a tick
    with pytest.raises(ValidationError, match="inertia"):
        RobotModel(cube8_geometry(),
                   InertialParams(body_mass=5.0, gravity=[0, 0, -9.81],
                                  actuator_mass=0.05))


def _sweep_poses(cfg, rng, count, tilt_max):
    """Positions uniform in the config's workspace box, rotation vectors
    uniform in [-tilt_max, tilt_max] per component (flat: positions)."""
    positions = rng.uniform(cfg.workspace_min, cfg.workspace_max,
                            (count, cfg.workspace_min.size))
    if cfg.manifold != "se3":
        return [EuclideanPose(p) for p in positions]
    rotvecs = rng.uniform(-tilt_max, tilt_max, (count, 3))
    return [RigidPose(p, quat_from_rotation_vector(r))
            for p, r in zip(positions, rotvecs)]


@pytest.mark.parametrize("name,count", [("cube8", 2000), ("planar3", 300)])
def test_modal_masses_match_decomposition_and_general_eigensolver(name,
                                                                  count):
    cfg = load_config(CONFIGS / f"{name}.json")
    model = cfg.model
    for pose in _sweep_poses(cfg, np.random.default_rng(8101), count, 0.3):
        masses = modal_masses(model, pose)
        split = modal_decomposition(model, pose).modal_masses
        assert np.all(np.diff(masses) >= 0.0)
        np.testing.assert_allclose(masses, split, rtol=1e-10, atol=0.0)
        # the generalized symmetric eigenproblem J^T J v = lam M v, from
        # the public mass and gram matrices
        lam = scipy.linalg.eigh(gram_matrix(model.geometry, pose),
                                mass_matrix(model, pose), eigvals_only=True)
        np.testing.assert_allclose(masses, 1.0 / lam[::-1], rtol=1e-10,
                                   atol=0.0)


@pytest.mark.parametrize("body_mass", [0.0, 1e-13])
def test_modal_masses_singular_where_decomposition_is(body_mass):
    model = RobotModel(cube8_geometry(),
                       InertialParams(body_mass=body_mass,
                                      gravity=[0, 0, -9.81],
                                      inertia=np.diag([0.02, 0.025, 0.03]),
                                      actuator_mass=0.0))
    for split in (modal_masses, modal_decomposition):
        with pytest.raises(SingularMass):
            split(model, cube8_home())


def test_modal_split_rejects_non_finite_pose():
    pose = RigidPose([np.nan, 0.0, 1.5], [1.0, 0.0, 0.0, 0.0])
    for split in (modal_masses, modal_decomposition):
        with pytest.raises(ValidationError):
            split(cube8_model(), pose)


def test_reflected_inertia_never_exceeds_total(planar3_model):
    rng = np.random.default_rng(9)
    geom = planar3_model.geometry
    m0 = planar3_model.inertial.actuator_mass
    for pose in random_planar_poses(rng, 40):
        jac = jacobian(geom, pose)
        body = mass_matrix(planar3_model, pose) - m0 * jac.T @ jac
        assert np.min(np.linalg.eigvalsh(body)) >= -1e-9


def test_point_mass_tables_match_generic_path():
    model = spring_planar_model()
    rng = np.random.default_rng(33)
    h = 1e-6
    for pose in random_planar_poses(rng, 15):
        twist = rng.uniform(-1.5, 1.5, 2)
        rows, mass, bias = point_mass_tables(model, pose.coords, twist)
        np.testing.assert_allclose(rows, jacobian(model.geometry, pose),
                                   atol=1e-14)
        np.testing.assert_allclose(mass, mass_matrix(model, pose),
                                   atol=1e-14)
        # velocity bias of the Lagrangian, (dM/dt) twist - 1/2 d(twist^T M
        # twist)/dx, from central differences of mass_matrix
        slabs = []
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            slabs.append((mass_matrix(model, EuclideanPose(pose.coords + e))
                          - mass_matrix(model, EuclideanPose(pose.coords - e)))
                         / (2 * h))
        expected = (sum(t * s for t, s in zip(twist, slabs)) @ twist
                    - 0.5 * np.array([twist @ s @ twist for s in slabs]))
        np.testing.assert_allclose(bias, expected, rtol=0, atol=1e-9)


def _assert_rigid_tables_match_chart_differences(model, poses, rng):
    from paractl.dynamics import (_chart_mass_rigid, _rigid_bias,
                                  _velocity_bias, rigid_pose_tables)
    for pose in poses:
        twist = rng.uniform(-1.0, 1.0, 6)
        rows, mass, gyro, curve = rigid_pose_tables(model, pose, twist)
        bias = _rigid_bias(model, rows, gyro, curve)
        np.testing.assert_allclose(rows, jacobian(model.geometry, pose),
                                   atol=1e-14)
        np.testing.assert_allclose(mass, mass_matrix(model, pose),
                                   atol=1e-14)
        h = 1e-6
        slabs = np.empty((6, 6, 6))
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            slabs[k] = (_chart_mass_rigid(model, pose, e)
                        - _chart_mass_rigid(model, pose, -e)) / (2 * h)
        # the reference slabs difference O(1) numbers over 2e-6, so they
        # hold only to rounding noise of ~5e-9, which the bias carries
        # scaled by |twist|^2
        np.testing.assert_allclose(bias, _velocity_bias(slabs, twist),
                                   rtol=0, atol=5e-9 * (twist @ twist))


def test_rigid_tables_match_per_offset_chart_masses():
    model = cube8_model(actuator_mass=0.08)
    rng = np.random.default_rng(34)
    _assert_rigid_tables_match_chart_differences(
        model, random_rigid_poses(rng, 5), rng)


def test_rigid_tables_body_only():
    # m0 = 0 leaves only the body inertia and chart-rate terms
    model = cube8_model(actuator_mass=0.0)
    rng = np.random.default_rng(35)
    _assert_rigid_tables_match_chart_differences(
        model, random_rigid_poses(rng, 5), rng)


def test_rigid_tables_non_diagonal_inertia():
    geom = cube8_model().geometry
    inertia = np.array([[0.03, 0.004, -0.002],
                        [0.004, 0.025, 0.003],
                        [-0.002, 0.003, 0.02]])
    model = RobotModel(geom, InertialParams(body_mass=5.0,
                                            gravity=[0.0, 0.0, -9.81],
                                            inertia=inertia,
                                            actuator_mass=0.08))
    rng = np.random.default_rng(36)
    _assert_rigid_tables_match_chart_differences(
        model, random_rigid_poses(rng, 5), rng)


def test_rigid_tables_reject_zero_length_actuator():
    from paractl.dynamics import rigid_pose_tables
    model = cube8_model(actuator_mass=0.08)
    geom = model.geometry
    # body placed so attachment 3 sits exactly on its anchor
    pose = RigidPose.identity(geom.anchors[3] - geom.attachments[3])
    with pytest.raises(DegenerateGeometry):
        rigid_pose_tables(model, pose, np.zeros(6))


def test_energy_conserved_without_forcing(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0.0, 0.0],
                                      actuator_mass=0.1))
    ps = PlantState(planar3_pose(), np.array([0.3, -0.2]))
    start = total_energy(model, ps.pose, ps.twist)
    for _ in range(2000):
        ps = step_plant(model, ps, np.zeros(3), 1e-3)
    end = total_energy(model, ps.pose, ps.twist)
    assert abs(end - start) / abs(start) <= 1e-6


def test_energy_conserved_with_spring_potential():
    model = spring_planar_model()
    model = RobotModel(model.geometry,
                       InertialParams(body_mass=1.3, gravity=[0.0, 0.0],
                                      actuator_mass=0.2,
                                      spring_stiffness=2.5,
                                      spring_center=[1.5, 1.2]))
    ps = PlantState(planar3_pose(2.2, 1.4), np.array([0.4, 0.3]))
    start = total_energy(model, ps.pose, ps.twist)
    for _ in range(2000):
        ps = step_plant(model, ps, np.zeros(3), 1e-3)
    assert abs(total_energy(model, ps.pose, ps.twist) - start) \
        / abs(start) <= 1e-6


@pytest.mark.parametrize("spring", [
    {},
    # a position-dependent potential: the plant must take its gradient at
    # every RK4 stage, not once per step
    {"spring_stiffness": 30.0, "spring_center": [0.05, -0.04, 1.45]}],
    ids=["no_spring", "spring"])
def test_energy_conserved_rigid_plant(spring):
    # gyroscopic and cable-curvature terms all run through the closed-form
    # rigid tables here
    geom = cube8_model().geometry
    model = RobotModel(geom, InertialParams(body_mass=5.0,
                                            gravity=[0.0, 0.0, 0.0],
                                            inertia=np.diag([0.02, 0.025,
                                                             0.03]),
                                            actuator_mass=0.08, **spring))
    ps = PlantState(cube8_home(),
                    np.array([0.1, -0.05, 0.02, 0.4, 0.3, -0.2]))
    start = total_energy(model, ps.pose, ps.twist)
    for _ in range(2000):
        ps = step_plant(model, ps, np.zeros(8), 1e-3)
    end = total_energy(model, ps.pose, ps.twist)
    assert abs(end - start) / abs(start) <= 1e-6
