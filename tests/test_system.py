import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import cube8_geometry, cube8_home, cube8_model, planar3_pose
from paractl import (Command, ControllerGains, EuclideanPose, ParactlError,
                     RankDeficient, ReferenceSample, RobotGeometry,
                     RobotModel, InertialParams, Segment, SimConfig,
                     SingularMass, SystemControllerState, Trajectory,
                     modal_decomposition, bias_force, control_step,
                     finite_difference_stack, inverse_kinematics, jacobian,
                     load_config, mass_matrix, no_load_forces, pd_gains,
                     predicted_modal_response, feedforward_step,
                     ForceConstraints, force_distribution, kinematics,
                     retract, run_closed_loop, simulator, system)
from paractl.actuator import ActuatorModel
from test_kinematics import _frozen_forward_kinematics

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hold_reference(pose):
    d = pose.coords.size
    return ReferenceSample(pose, np.zeros(d), np.zeros(d))


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


def _frozen_estimate_twist(jac, length_history, lengths, dt):
    if not length_history:
        return np.zeros(jac.shape[1])
    rates = (lengths - length_history[-1]) / dt
    gram = jac.T @ jac
    damped = gram + 1e-12 * np.trace(gram) * np.eye(gram.shape[0])
    twist = kinematics._spd_solve(damped, jac.T @ rates)
    if twist is None:
        raise RankDeficient("twist-estimate normal equations do not factor")
    return twist


def _frozen_try_active_set(jac, wrench, lo, hi, active):
    if np.count_nonzero(active == 0) < jac.shape[1] or \
            not np.isfinite(np.where(active == 1, hi, lo)[active != 0]).all():
        return None
    solved = force_distribution._pattern_forces(jac, wrench, lo, hi, active)
    if solved is None:
        return None
    f, w = solved
    scale = 1.0 + np.abs(f).max()
    if np.any(f < lo - 1e-11 * scale) or np.any(f > hi + 1e-11 * scale) \
            or np.abs(jac.T @ f - wrench).max() \
            > force_distribution.RESIDUAL_TOL * scale \
            or np.any(active * (jac @ w - f) < -1e-10 * scale):
        return None
    return np.clip(f, lo, hi)


def _frozen_active_pattern(con, forces, command_offset, no_load, tol=1e-9):
    lo, hi = force_distribution._force_bounds(
        con, np.asarray(command_offset, float), np.asarray(no_load, float))
    forces = np.asarray(forces, float)
    tol = tol * (1.0 + np.abs(forces).max())
    return tuple(np.where(forces <= lo + tol, -1,
                          np.where(forces >= hi - tol, 1, 0)))


def _frozen_control_step(model, gains, con, state, lengths, ref, dt,
                         evaluate_at_reference=False):
    """`control_step` as it was while it applied the gains by
    np.tensordot and built its results by dataclasses.replace, on the
    frozen forward kinematics, warm-start check (patched in by the
    caller), bound pattern and twist estimate: the reference whose tick
    outputs the controller must equal bit for bit."""
    if state.braked:
        return (Command.brake(state.brake_reason or "brake latched"),
                state, system.ControlDiagnostics())
    lengths = np.asarray(lengths, float)
    geom = model.geometry
    diag = system.ControlDiagnostics()
    try:
        pose = _frozen_forward_kinematics(geom, lengths, state.prev_pose)
        if evaluate_at_reference:
            error = -system.pose_difference(ref.pose, pose)
        else:
            error = system.pose_difference(pose, ref.pose)
        err_history = (state.error_history + (error,))[-state.window:]
        err_stack = finite_difference_stack(err_history, dt,
                                            gains.derivative_order)
        accel_cmd = ref.accel.copy()
        if gains.state_dim:
            accel_cmd += np.tensordot(gains.C[0], state.xi, axes=1)
        accel_cmd += np.tensordot(gains.D[0], err_stack, axes=1)
        ad, bd = system.discretize(gains.A, gains.B, dt)
        xi_next = ad @ state.xi + np.outer(bd[:, 0], error) \
            if gains.state_dim else state.xi
        eval_pose = ref.pose if evaluate_at_reference else pose
        if isinstance(eval_pose, EuclideanPose):
            twist = ref.velocity if evaluate_at_reference else \
                _frozen_estimate_twist(jacobian(geom, pose),
                                       state.length_history, lengths, dt)
            jac, mass, bias = system.point_mass_tables(model, eval_pose.coords,
                                                       twist)
            if not twist.any():
                bias = None
            no_load = no_load_forces(model, eval_pose, twist, accel_cmd,
                                     jac=jac)
        else:
            twist = ref.velocity if evaluate_at_reference else (
                lambda rows: _frozen_estimate_twist(
                    rows, state.length_history, lengths, dt))
            jac, mass, gyro, curve = system.rigid_pose_tables(model, eval_pose,
                                                              twist)
            bias = system._rigid_bias(model, jac, gyro, curve)
            no_load = np.zeros(jac.shape[0]) if curve is None else \
                model.inertial.actuator_mass * (jac @ accel_cmd + curve)
        wrench_cmd = mass @ accel_cmd + system._potential_gradient(model,
                                                                   eval_pose)
        if bias is not None:
            wrench_cmd += bias
        command_offset = np.zeros(jac.shape[0])
        if gains.back_emf:
            ref_jac = jac if evaluate_at_reference else jacobian(geom,
                                                                 ref.pose)
            command_offset = gains.back_emf * (ref_jac @ ref.velocity)
        diag = system.ControlDiagnostics(
            pose=pose, pose_error=error, accel_cmd=accel_cmd,
            wrench_cmd=wrench_cmd, no_load=no_load)
        forces = force_distribution.distribute(
            jac, wrench_cmd, command_offset, no_load, con,
            pattern_hint=state.solver_hint)
    except ParactlError as exc:
        braked = dataclasses.replace(
            state, braked=True, brake_reason=f"{type(exc).__name__}: {exc}")
        return Command.brake(braked.brake_reason), braked, diag
    new_state = dataclasses.replace(
        state, xi=xi_next, error_history=tuple(err_history),
        length_history=(state.length_history + (lengths,))[-state.window:],
        prev_pose=pose,
        solver_hint=_frozen_active_pattern(con, forces, command_offset,
                                           no_load))
    diag = dataclasses.replace(diag, forces=forces,
                               command_offset=command_offset,
                               tensions=no_load - forces)
    return Command.apply(forces + command_offset), new_state, diag


def _bits(value):
    """A value's exact content: arrays as dtype, shape and bytes, frozen
    dataclasses and tuples field by field, anything else (the hint's
    ints, strings, flags) by value."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _recorded_ticks(cfg, gains, monkeypatch, move, noise, count,
                    at_reference):
    """The control-tick inputs of the first `count` ticks of a noisy
    closed loop from rest (the first a cold start): a 0.36 s quintic move
    by `move` from the home pose, then a 0.24 s hold."""
    ticks = []

    def recording(*args, **kwargs):
        ticks.append((args, kwargs))
        return control_step(*args, **kwargs)

    home = cfg.home_pose
    traj = Trajectory(home, [Segment("quintic", 0.36, retract(home, move)),
                             Segment("hold", 0.24)])
    sim = SimConfig(dt_control=cfg.sim.dt_control,
                    dt_physics=cfg.sim.dt_physics,
                    duration=count * cfg.sim.dt_control, noise_sigma=noise,
                    seed=9401)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "control_step", recording)
        trace = run_closed_loop(cfg.model, gains, cfg.constraints, traj, sim,
                                evaluate_at_reference=at_reference)
    assert len(ticks) == count and not np.asarray(trace.brake).any()
    return ticks


@pytest.mark.parametrize("name, move, noise", [
    ("planar3", [0.1, 0.05], 1e-4),
    ("cube8", [0.02, -0.01, 0.015, 0.02, -0.01, 0.03], 1e-5)])
def test_control_step_bit_identical_to_frozen_reference(name, move, noise,
                                                        monkeypatch):
    cfg = load_config(CONFIGS / f"{name}.json")
    # the shipped gains at the measured pose, and a state-space law with
    # an integral state at the reference
    kp, kd = cfg.gains.D[0]
    integral = ControllerGains(A=np.zeros((1, 1)), B=np.ones((1, 1)),
                               C=np.array([[0.5 * kp]]), D=cfg.gains.D,
                               no_load_mass=cfg.gains.no_load_mass)
    ticks = (_recorded_ticks(cfg, cfg.gains, monkeypatch, move, noise, 600,
                             False)
             + _recorded_ticks(cfg, integral, monkeypatch, move, noise, 150,
                               True))
    # a reading that brakes the last state, and the latched brake after it
    args, kwargs = ticks[-1]
    reading = np.array(args[4])
    reading[0] = np.nan
    ticks.append(((*args[:4], reading, *args[5:]), kwargs))
    braked = control_step(*ticks[-1][0], **kwargs)[1]
    assert braked.braked
    ticks.append(((*args[:3], braked, *args[4:]), kwargs))
    assert len(ticks) >= 750
    for args, kwargs in ticks:
        with monkeypatch.context() as patch:
            patch.setattr(force_distribution, "_try_active_set",
                          _frozen_try_active_set)
            ref = _frozen_control_step(*args, **kwargs)
        got = control_step(*args, **kwargs)
        assert _bits(got) == _bits(ref)
