import warnings

import numpy as np
import pytest

from conftest import cube8_geometry, cube8_home, cube8_model, planar3_pose
from paractl import (Command, EuclideanPose, ReferenceSample, RobotGeometry,
                     RobotModel, InertialParams, SingularMass,
                     SystemControllerState, modal_decomposition,
                     bias_force, control_step, finite_difference_stack,
                     inverse_kinematics, jacobian, mass_matrix,
                     matrix_action, no_load_forces, pd_gains,
                     predicted_modal_response, feedforward_step,
                     ForceConstraints, force_distribution, retract, system)
from paractl.actuator import ActuatorModel


def hold_reference(pose):
    d = pose.coords.size
    return ReferenceSample(pose, np.zeros(d), np.zeros(d))


def test_matrix_action_identity_and_zero():
    tangents = [np.array([1.0, 2.0]), np.array([-0.5, 0.3])]
    out = matrix_action(np.eye(2), tangents)
    np.testing.assert_array_equal(out[0], tangents[0])
    np.testing.assert_array_equal(out[1], tangents[1])
    out = matrix_action(np.zeros((2, 2)), tangents)
    assert all(np.all(v == 0.0) for v in out)


def test_matrix_action_linear_combination():
    ta = np.array([1.0, 0.0])
    tb = np.array([0.0, 1.0])
    out = matrix_action(np.array([[1.0, 2.0], [3.0, 4.0]]), [ta, tb])
    np.testing.assert_allclose(out[0], ta + 2 * tb)
    np.testing.assert_allclose(out[1], 3 * ta + 4 * tb)
    with pytest.raises(ValueError):
        matrix_action(np.eye(3), [ta, tb])


def test_finite_difference_stack_cold_start():
    stack = finite_difference_stack([np.array([0.5, 0.0])], 0.1, 3)
    np.testing.assert_allclose(stack[0], [0.5, 0.0])
    np.testing.assert_array_equal(stack[1], 0.0)
    np.testing.assert_array_equal(stack[2], 0.0)


def test_finite_difference_stack_derivatives():
    dt = 0.1
    samples = [np.array([x]) for x in (0.0, 0.1, 0.4)]
    stack = finite_difference_stack(samples, dt, 3)
    assert stack[0][0] == pytest.approx(0.4)
    assert stack[1][0] == pytest.approx((0.4 - 0.1) / dt)
    assert stack[2][0] == pytest.approx((0.4 - 0.2 + 0.0) / dt**2)


def test_control_step_perfect_tracking(planar3_geom, planar3_constraints,
                                       planar3_gains):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0.0, 0.0],
                                      actuator_mass=0.1))
    con = ForceConstraints.uniform(3)  # zero tension floor for zero forces
    ref = hold_reference(planar3_pose())
    lengths = inverse_kinematics(planar3_geom, ref.pose)
    state = SystemControllerState.initial(planar3_gains, ref.pose)
    cmd, state, diag = control_step(model, planar3_gains, con, state,
                                    lengths, ref, 1e-3)
    assert not cmd.is_brake
    np.testing.assert_allclose(cmd.forces, 0.0, atol=1e-9)
    np.testing.assert_allclose(diag.pose_error, 0.0, atol=1e-12)
    np.testing.assert_allclose(diag.accel_cmd, 0.0, atol=1e-12)


def test_control_step_static_hold_forces(planar3_model, planar3_constraints,
                                         planar3_gains):
    pose = planar3_pose()
    ref = hold_reference(pose)
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    cmd, state, diag = control_step(planar3_model, planar3_gains,
                                    planar3_constraints, state, lengths,
                                    ref, 1e-3)
    np.testing.assert_allclose(diag.wrench_cmd, [0.0, 9.81], atol=1e-9)
    np.testing.assert_allclose(cmd.forces, [-0.5, -0.5, -10.2572136],
                               atol=1e-7)
    np.testing.assert_allclose(diag.tensions, [0.5, 0.5, 10.2572136],
                               atol=1e-7)


def test_control_step_brake_on_unreachable_reference(planar3_model,
                                                     planar3_constraints,
                                                     planar3_gains):
    pose = planar3_pose()
    # far enough above the anchors that even the first-tick acceleration
    # command cannot be realized
    ref = hold_reference(EuclideanPose([2.0, 100.0]))
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    cmd, state, _ = control_step(planar3_model, planar3_gains,
                                 planar3_constraints, state, lengths, ref,
                                 1e-3)
    assert cmd.is_brake
    assert state.braked
    # latched: even a sane reference afterwards keeps braking
    cmd2, state, _ = control_step(planar3_model, planar3_gains,
                                  planar3_constraints, state, lengths,
                                  hold_reference(pose), 1e-3)
    assert cmd2.is_brake


def _assert_latched_brake(model, gains, con, state, lengths, ref, cause,
                          **kwargs):
    cmd, state, _ = control_step(model, gains, con, state, lengths, ref,
                                 1e-3, **kwargs)
    assert cmd.is_brake and state.braked
    assert cause in cmd.reason and cause in state.brake_reason
    cmd, state, _ = control_step(model, gains, con, state, lengths, ref,
                                 1e-3, **kwargs)
    assert cmd.is_brake and cause in cmd.reason


def test_control_step_brakes_on_nan_reading(planar3_model,
                                            planar3_constraints,
                                            planar3_gains):
    pose = planar3_pose()
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    lengths[1] = np.nan
    state = SystemControllerState.initial(planar3_gains, pose)
    _assert_latched_brake(planar3_model, planar3_gains, planar3_constraints,
                          state, lengths, hold_reference(pose),
                          "ValidationError")
    model, pose = cube8_model(), cube8_home()
    gains = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.05)
    lengths = inverse_kinematics(model.geometry, pose)
    lengths[5] = np.nan
    con = ForceConstraints.uniform(8, 1.0, 400.0)
    _assert_latched_brake(model, gains, con,
                          SystemControllerState.initial(gains, pose), lengths,
                          ReferenceSample(pose, np.zeros(6), np.zeros(6)),
                          "ValidationError")


def test_control_step_brakes_on_overflowing_reading(planar3_model,
                                                    planar3_constraints,
                                                    planar3_gains):
    # a 1e300 reading squares past the float range: forward kinematics
    # refuses it before forming its cost, so under warnings as errors the
    # tick brakes with ValidationError and no numpy warning escapes
    cube8, pose8 = cube8_model(), cube8_home()
    gains8 = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.05)
    for model, gains, con, pose in [
            (planar3_model, planar3_gains, planar3_constraints,
             planar3_pose()),
            (cube8, gains8, ForceConstraints.uniform(8, 1.0, 400.0), pose8)]:
        lengths = inverse_kinematics(model.geometry, pose)
        lengths[0] = 1e300
        d = model.manifold_dim
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_latched_brake(model, gains, con,
                                  SystemControllerState.initial(gains, pose),
                                  lengths, ReferenceSample(pose, np.zeros(d),
                                                           np.zeros(d)),
                                  "ValidationError")


def test_control_step_brakes_on_reference_at_anchor(planar3_model,
                                                    planar3_constraints,
                                                    planar3_gains):
    pose = planar3_pose()
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    # the reference sits on the first anchor, where that cable has no
    # direction, and the tables are evaluated there
    _assert_latched_brake(planar3_model, planar3_gains, planar3_constraints,
                          state, lengths,
                          hold_reference(EuclideanPose([0.0, 0.0])),
                          "DegenerateGeometry", evaluate_at_reference=True)


def test_control_step_brakes_on_parallel_cable_rows(planar3_gains):
    # two cables share each anchor, so the jacobian rows come in equal
    # pairs; the hold wrench is infeasible under these limits, and the
    # force solver's working set once lost rank here and leaked a raw
    # LinAlgError out of the tick
    anchors = np.array([[0.0, 3.0], [4.0, 3.0], [0.0, 3.0], [4.0, 3.0]])
    model = RobotModel(RobotGeometry.point_mass(anchors),
                       InertialParams(body_mass=1.0, gravity=[0.0, -9.81],
                                      actuator_mass=0.1),
                       ActuatorModel.ideal(0.0))
    con = ForceConstraints.uniform(4, min_tension=1.0, max_command=3.0)
    pose = planar3_pose(2.4, 1.0)
    lengths = inverse_kinematics(model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    _assert_latched_brake(model, planar3_gains, con, state, lengths,
                          hold_reference(pose), "InfeasibleWrench")


@pytest.mark.parametrize("rigid", [False, True], ids=["planar3", "cube8"])
def test_control_step_brakes_when_twist_gram_does_not_factor(
        monkeypatch, planar3_model, planar3_constraints, planar3_gains, rigid):
    # the twist estimate's damped gram goes through the Cholesky solve once
    # the tick has a previous reading; a failed factorization brakes
    monkeypatch.setattr(system, "_spd_solve", lambda a, b: None)
    if rigid:
        model, pose = cube8_model(), cube8_home()
        gains = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.05)
        con = ForceConstraints.uniform(8, 1.0, 400.0)
        ref = ReferenceSample(pose, np.zeros(6), np.zeros(6))
    else:
        model, pose = planar3_model, planar3_pose()
        gains, con = planar3_gains, planar3_constraints
        ref = hold_reference(pose)
    lengths = inverse_kinematics(model.geometry, pose)
    state = SystemControllerState.initial(gains, pose)
    cmd, state, _ = control_step(model, gains, con, state, lengths, ref, 1e-3)
    assert not cmd.is_brake         # no previous reading: no estimate yet
    _assert_latched_brake(model, gains, con, state, lengths, ref,
                          "RankDeficient")


def test_control_step_brakes_on_force_solver_cap(monkeypatch, planar3_model,
                                                 planar3_constraints,
                                                 planar3_gains):
    # a cold hold tick needs two bounds added, which a cap of zero forbids
    monkeypatch.setattr(force_distribution, "MAX_ACTIVE_SET_ITERS", 0)
    pose = planar3_pose()
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    _assert_latched_brake(planar3_model, planar3_gains, planar3_constraints,
                          state, lengths, hold_reference(pose),
                          "NoConvergence")


def test_control_step_brakes_on_nan_reference_acceleration(
        planar3_model, planar3_constraints, planar3_gains):
    pose = planar3_pose()
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    ref = ReferenceSample(pose, np.zeros(2), np.array([np.nan, 0.0]))
    _assert_latched_brake(planar3_model, planar3_gains, planar3_constraints,
                          state, lengths, ref, "ValidationError: ")


def test_control_step_brakes_on_wrong_reading_count():
    model = cube8_model()
    pose = cube8_home()
    gains = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.05)
    con = ForceConstraints.uniform(8, min_tension=1.0, max_command=400.0)
    lengths = inverse_kinematics(model.geometry, pose)[:7]
    state = SystemControllerState.initial(gains, pose)
    _assert_latched_brake(model, gains, con, state, lengths,
                          ReferenceSample(pose, np.zeros(6), np.zeros(6)),
                          "ValidationError: ")


@pytest.mark.parametrize("at_reference", [False, True])
def test_moving_cube8_control_step_matches_public_dynamics(at_reference):
    # two ticks along a moving reference; the tick's wrench and no-load
    # forces are checked against mass_matrix, bias_force and
    # no_load_forces composed at the tick's pose and twist
    model = cube8_model(actuator_mass=0.08)
    gains = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.08)
    con = ForceConstraints.uniform(8, min_tension=1.0, max_command=400.0)
    geom = model.geometry
    dt = 1e-3
    velocity = np.array([0.05, -0.03, 0.02, 0.3, -0.2, 0.25])
    accel = np.array([0.4, 0.1, -0.2, 1.0, 0.5, -0.8])
    start = retract(cube8_home(), [0.01, 0.0, -0.01, 0.02, 0.01, 0.0])
    state = SystemControllerState.initial(gains, start)
    prev_lengths = None
    for tick in range(2):
        ref = ReferenceSample(retract(cube8_home(), velocity * tick * dt),
                              velocity, accel)
        lengths = inverse_kinematics(
            geom, retract(start, 0.9 * velocity * tick * dt))
        cmd, state, diag = control_step(model, gains, con, state, lengths,
                                        ref, dt,
                                        evaluate_at_reference=at_reference)
        assert not cmd.is_brake
        if at_reference:
            pose, twist = ref.pose, ref.velocity
        elif prev_lengths is None:
            pose, twist = diag.pose, np.zeros(6)
        else:
            # damped least-squares twist from the value rates
            pose = diag.pose
            jac = jacobian(geom, pose)
            gram = jac.T @ jac
            twist = np.linalg.solve(
                gram + 1e-12 * np.trace(gram) * np.eye(6),
                jac.T @ ((lengths - prev_lengths) / dt))
        prev_lengths = lengths
        assert tick == 0 or np.linalg.norm(twist) > 0.1
        wrench = (mass_matrix(model, pose) @ diag.accel_cmd
                  + bias_force(model, pose, twist))
        np.testing.assert_allclose(diag.wrench_cmd, wrench, rtol=1e-12,
                                   atol=1e-12 * np.abs(wrench).max())
        no_load = no_load_forces(model, pose, twist, diag.accel_cmd)
        np.testing.assert_allclose(diag.no_load, no_load, rtol=1e-12,
                                   atol=1e-12 * np.abs(no_load).max())


def test_control_step_wrench_realized(planar3_model, planar3_constraints,
                                      planar3_gains):
    pose = planar3_pose()
    ref = hold_reference(EuclideanPose([2.05, 1.02]))
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    cmd, state, diag = control_step(planar3_model, planar3_gains,
                                    planar3_constraints, state, lengths,
                                    ref, 1e-3)
    jac = jacobian(planar3_model.geometry, diag.pose)
    np.testing.assert_allclose(jac.T @ diag.forces, diag.wrench_cmd,
                               atol=1e-8)
    from paractl import in_constraint_set
    assert in_constraint_set(planar3_constraints, diag.forces,
                             diag.command_offset, diag.no_load)


def test_zero_error_fixed_point_no_self_excitation(planar3_model,
                                                   planar3_constraints,
                                                   planar3_gains):
    pose = planar3_pose()
    ref = hold_reference(pose)
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    worst = 0.0
    for _ in range(1000):
        cmd, state, diag = control_step(planar3_model, planar3_gains,
                                        planar3_constraints, state, lengths,
                                        ref, 1e-3)
        worst = max(worst, float(np.max(np.abs(diag.pose_error))))
    assert worst <= 1e-9


def test_degenerates_to_single_actuator_controller():
    # one actuator on a line with the load hanging below it (gravity keeps
    # the cable taut): the tangent-space law must reproduce the scalar
    # controller tick for tick
    geom = RobotGeometry.point_mass([[0.0]])
    model = RobotModel(geom, InertialParams(body_mass=1.0, gravity=[9.81],
                                            actuator_mass=0.1))
    gains = pd_gains(4.0, 4.0, back_emf=0.0, no_load_mass=0.1)
    con = ForceConstraints.uniform(1, min_tension=0.0, max_command=1e6)
    dt = 1e-3
    state = SystemControllerState.initial(gains, EuclideanPose([1.0]))
    x_scalar = np.zeros(0)
    rng = np.random.default_rng(2)
    pose_x = 1.01
    err_hist = []
    for k in range(500):
        t = k * dt
        ref_x = 1.0 + 0.2 * np.sin(0.8 * t)
        ref = ReferenceSample(EuclideanPose([ref_x]),
                              [0.16 * np.cos(0.8 * t)],
                              [-0.128 * np.sin(0.8 * t)], time=t)
        lengths = np.array([pose_x])
        cmd, state, diag = control_step(model, gains, con, state, lengths,
                                        ref, dt)
        # feed the scalar law the same measurement the system law saw
        err_hist.append(np.array([ref_x - diag.pose.coords[0]]))
        stack = finite_difference_stack(err_hist[-3:], dt, 2)
        a_scalar, x_scalar = feedforward_step(
            gains, x_scalar, stack[:, 0],
            [ref_x, ref.velocity[0], ref.accel[0]], 1.0, dt)
        assert abs(diag.accel_cmd[0] - a_scalar) <= 1e-12
        pose_x += rng.normal(0.0, 1e-4)  # arbitrary walk; any input works


def test_predicted_modal_response_mass_independent_when_no_back_emf(
        planar3_model, planar3_gains):
    responses = predicted_modal_response(planar3_model, planar3_gains,
                                         planar3_pose())
    assert len(responses) == 2
    for resp in responses:
        np.testing.assert_allclose(sorted(resp.poles.real), [-2.0, -2.0],
                                   atol=1e-9)


def test_predicted_modal_response_back_emf_dampings(planar3_geom):
    model = RobotModel(planar3_geom,
                       InertialParams(body_mass=1.0, gravity=[0, -9.81],
                                      actuator_mass=0.1),
                       ActuatorModel.ideal(0.5))
    gains = pd_gains(4.0, 4.0, back_emf=0.5, no_load_mass=0.1)
    responses = predicted_modal_response(model, gains, planar3_pose())
    dampings = sorted(-np.sum(r.poles.real) for r in responses)
    np.testing.assert_allclose(
        dampings, sorted([4 + 0.5 / 0.725, 4 + 0.5 / 0.8142857]), atol=1e-6)


def test_predicted_modal_response_clamped_mode():
    from paractl.actuator import closed_loop_poles
    gains = pd_gains(4.0, 4.0, back_emf=0.5)
    poles = closed_loop_poles(gains, ActuatorModel.ideal(0.5), np.inf)
    assert -np.sum(poles.real) == pytest.approx(4.0)


def test_predicted_modal_response_unsensed_mode(planar3_gains):
    # one cable on a planar point: the direction across the cable feels no
    # actuator, so its modal mass is infinite (along it: body plus m0), and
    # without rate terms it still gets the shared poles
    model = RobotModel(RobotGeometry.point_mass([[0.0, 0.0]]),
                       InertialParams(body_mass=1.0, gravity=[0.0, 0.0],
                                      actuator_mass=0.1))
    pose = EuclideanPose([1.2, 0.5])
    responses = predicted_modal_response(model, planar3_gains, pose)
    assert [r.modal_mass for r in responses] == pytest.approx([1.1, np.inf],
                                                              rel=1e-12)
    assert np.isinf(modal_decomposition(model, pose).modal_masses[1])
    assert np.array_equal(responses[0].poles, responses[1].poles)
    np.testing.assert_allclose(responses[1].poles, [-2.0, -2.0], atol=1e-7)


def test_predicted_modal_response_singular_mass(planar3_gains):
    model = RobotModel(cube8_geometry(),
                       InertialParams(body_mass=0.0, gravity=[0, 0, -9.81],
                                      inertia=np.diag([0.02, 0.025, 0.03]),
                                      actuator_mass=0.0))
    with pytest.raises(SingularMass):
        predicted_modal_response(model, planar3_gains, cube8_home())


def test_evaluate_at_reference_mode(planar3_model, planar3_constraints,
                                    planar3_gains):
    pose = planar3_pose()
    target = EuclideanPose([2.02, 1.01])
    ref = hold_reference(target)
    lengths = inverse_kinematics(planar3_model.geometry, pose)
    state = SystemControllerState.initial(planar3_gains, pose)
    cmd, state, diag = control_step(planar3_model, planar3_gains,
                                    planar3_constraints, state, lengths,
                                    ref, 1e-3, evaluate_at_reference=True)
    assert not cmd.is_brake
    # error sign flips with the difference taken at the reference
    np.testing.assert_allclose(diag.pose_error, [0.02, 0.01], atol=1e-9)
    jac_ref = jacobian(planar3_model.geometry, target)
    np.testing.assert_allclose(jac_ref.T @ diag.forces, diag.wrench_cmd,
                               atol=1e-8)


def test_command_variants():
    brake = Command.brake("test")
    assert brake.is_brake and brake.reason == "test"
    forces = Command.apply([1.0, 2.0])
    assert not forces.is_brake
    np.testing.assert_array_equal(forces.forces, [1.0, 2.0])
