from dataclasses import replace

import numpy as np
import pytest

from conftest import cube8_home, cube8_model, planar3_pose
from paractl import (ActuatorModel, EuclideanPose, ForceConstraints,
                     InertialParams, NumericBlowup, PlantState,
                     RobotGeometry, RobotModel, SimConfig, SingularMass,
                     Trajectory, ValidationError, jacobian, mass_matrix,
                     modal_decomposition, modal_regulation, pd_gains,
                     run_closed_loop, settling_time, step_plant,
                     total_energy, tracking_metrics)
from paractl.kinematics import quat_multiply
from paractl.simulator import TraceLog, _derivative


def free_model(gravity=(0.0, 0.0), actuator_mass=0.0):
    geom = RobotGeometry.point_mass([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    return RobotModel(geom, InertialParams(body_mass=1.0, gravity=gravity,
                                           actuator_mass=actuator_mass))


def test_zero_force_uniform_motion():
    model = free_model()
    ps = PlantState(planar3_pose(), np.array([0.3, 0.1]))
    for _ in range(100):
        ps = step_plant(model, ps, np.zeros(3), 1e-3)
    np.testing.assert_allclose(ps.pose.coords,
                               [2.0 + 0.03, 1.0 + 0.01], atol=1e-12)
    np.testing.assert_allclose(ps.twist, [0.3, 0.1], atol=1e-12)


def test_free_fall_parabola():
    model = free_model(gravity=(0.0, -9.81))
    ps = PlantState(EuclideanPose([2.0, 2.5]), np.zeros(2))
    for _ in range(1000):
        ps = step_plant(model, ps, np.zeros(3), 1e-3)
    assert abs(ps.pose.coords[1] - (2.5 - 0.5 * 9.81)) <= 1e-8
    assert abs(ps.pose.coords[0] - 2.0) <= 1e-12


def test_rk4_order_on_coupled_dynamics():
    # strong velocity and heavy reflected inertia near an anchor make the
    # flow nonlinear enough that halving the step shows the 2^4 error drop
    model = free_model(actuator_mass=1.5)
    start = PlantState(EuclideanPose([0.7, 0.5]), np.array([3.0, -2.0]))

    def final_pose(dt, steps):
        ps = start
        for _ in range(steps):
            ps = step_plant(model, ps, np.zeros(3), dt)
        return ps.pose.coords

    ref = final_pose(1e-4, 5000)   # much finer reference
    coarse = np.linalg.norm(final_pose(1e-2, 50) - ref)
    fine = np.linalg.norm(final_pose(5e-3, 100) - ref)
    assert coarse > 1e-11  # above roundoff so the ratio is meaningful
    ratio = coarse / fine
    assert 16 * 0.7 <= ratio <= 16 * 1.3


def test_numeric_blowup_detected():
    model = free_model()
    ps = PlantState(planar3_pose(), np.array([1e9, 1e9]))
    with pytest.raises(NumericBlowup):
        for _ in range(100):
            ps = step_plant(model, ps, np.zeros(3), 1.0)


def test_rigid_plant_keeps_quaternion_normalized():
    from conftest import cube8_home, cube8_model
    model = cube8_model()
    ps = PlantState(cube8_home(), np.array([0.1, -0.05, 0.0, 0.4, 0.3, -0.2]))
    for _ in range(200):
        ps = step_plant(model, ps, np.zeros(8), 1e-3)
    assert abs(np.linalg.norm(ps.pose.quaternion) - 1.0) <= 1e-12


def test_command_filter_first_order_lag():
    # c2 coefficient: the supplied force follows the command with a lag
    geom = RobotGeometry.point_mass([[0.0]])
    model = RobotModel(
        geom, InertialParams(body_mass=1.0, gravity=[0.0]),
        ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(0.05,)))
    ps = PlantState(EuclideanPose([1.0]), np.zeros(1))
    # constant command: effector accel approaches f/m after ~5 tau = 0.25 s
    for _ in range(500):
        ps = step_plant(model, ps, np.array([0.4]), 1e-3)
    assert ps.twist[0] < 0.4 * 0.5  # lag ate some impulse
    v_expected = 0.4 * (0.5 - 0.05 * (1 - np.exp(-0.5 / 0.05)))
    assert ps.twist[0] == pytest.approx(v_expected, rel=1e-4)


def test_command_filter_biproper_feedthrough():
    # c_cmd as long as c: a direct feedthrough D = c_cmd / c supplies
    # D f at once, and the rest of the command arrives with the lag
    geom = RobotGeometry.point_mass([[0.0]])
    model = RobotModel(
        geom, InertialParams(body_mass=1.0, gravity=[0.0]),
        ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(0.05,),
                      command_deriv_coeffs=(0.02,)))
    ps = PlantState(EuclideanPose([1.0]), np.zeros(1))
    for _ in range(500):
        ps = step_plant(model, ps, np.array([0.4]), 1e-3)
    feed, tau = 0.02 / 0.05, 0.05
    v_expected = 0.4 * (0.5 - (1 - feed) * tau * (1 - np.exp(-0.5 / tau)))
    assert ps.twist[0] == pytest.approx(v_expected, rel=1e-4)


def test_plant_quaternion_rate_bit_for_bit():
    # the plant forms q' from floats with quat_multiply's products in its
    # order, and must give its bits: 0.5 (0, w) * q with q normalized
    rng = np.random.default_rng(1107)
    model = cube8_model()
    out = np.empty(13)
    for _ in range(2000):
        y = np.concatenate([[0.0, 0.0, 1.5], rng.normal(size=4),
                            rng.normal(size=6)])
        _derivative(model, y, np.zeros(8), None, None, None, out)
        q = y[3:7] / np.sqrt(y[3:7] @ y[3:7])
        expected = 0.5 * quat_multiply((0.0, *y[10:13]), q)
        assert np.array_equal(out[3:7], expected)


def test_plant_raises_singular_mass():
    model = RobotModel(free_model().geometry,
                       InertialParams(body_mass=0.0, gravity=[0.0, 0.0],
                                      actuator_mass=0.0))
    ps = PlantState(planar3_pose(), np.zeros(2))
    with pytest.raises(SingularMass):
        step_plant(model, ps, np.ones(3), 1e-3)


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return dt * (values.sum() - 0.5 * (values[0] + values[-1]))


def _free_cube8_run(actuator, forces, steps, dt=1e-3):
    """Total energy and actuator rates of cube8 with gravity off at every
    step of a run from a spinning start under constant commands."""
    base = cube8_model()
    model = replace(base, actuator=actuator,
                    inertial=replace(base.inertial, gravity=np.zeros(3)))
    ps = PlantState(cube8_home(), np.array([0.1, -0.05, 0.02, 0.4, 0.3,
                                            -0.2]))
    energy, rates = [], []
    for k in range(steps + 1):
        energy.append(total_energy(model, ps.pose, ps.twist))
        rates.append(jacobian(model.geometry, ps.pose) @ ps.twist)
        if k < steps:
            ps = step_plant(model, ps, forces, dt)
    return np.array(energy), np.array(rates), dt * np.arange(steps + 1)


def test_rigid_plant_back_emf_dissipation():
    # zero command: the supplied force is -k0 J twist, so the energy lost
    # is the integral of k0 |J twist|^2
    energy, rates, t = _free_cube8_run(ActuatorModel.ideal(0.4),
                                       np.zeros(8), steps=1000)
    lost = _trapezoid(0.4 * np.sum(rates**2, axis=1), t[1] - t[0])
    assert energy[0] - energy[-1] == pytest.approx(lost, rel=1e-5)


@pytest.mark.parametrize("c_cmd", [(), (0.02,)], ids=["lag", "biproper"])
def test_rigid_plant_command_filter_power(c_cmd):
    # from zero filter states a constant command f_c is supplied as
    # s(t) = f_c (1 - (1 - D) e^{-t/tau}), D = c_cmd / c, and the energy
    # gained is the work of s on the actuator rates
    tau = 0.05
    feed = c_cmd[0] / tau if c_cmd else 0.0
    f_c = np.linspace(-3.0, 3.0, 8)
    actuator = ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(tau,),
                             command_deriv_coeffs=c_cmd)
    energy, rates, t = _free_cube8_run(actuator, f_c, steps=500)
    supplied = f_c * (1 - (1 - feed) * np.exp(-t / tau))[:, None]
    work = _trapezoid(np.sum(supplied * rates, axis=1), t[1] - t[0])
    assert energy[-1] - energy[0] == pytest.approx(work, rel=1e-4)


def test_plant_rejects_higher_value_rate_coefficients():
    geom = RobotGeometry.point_mass([[0.0]])
    model = RobotModel(geom, InertialParams(body_mass=1.0, gravity=[0.0]),
                       ActuatorModel(rate_coeffs=(0.0, 0.2)))
    ps = PlantState(EuclideanPose([1.0]), np.zeros(1))
    with pytest.raises(ValidationError):
        step_plant(model, ps, np.zeros(1), 1e-3)


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(dt_control=1e-3, dt_physics=3e-4)
    with pytest.raises(ValidationError):
        SimConfig(duration=-1.0)
    assert SimConfig(dt_control=1e-3, dt_physics=2.5e-4).substeps == 4


@pytest.mark.parametrize("settings", [
    {"dt_physics": np.nan}, {"dt_control": np.nan}, {"duration": np.nan},
    {"duration": np.inf}, {"noise_sigma": np.nan}, {"noise_sigma": -1e-4},
    {"noise_sigma": np.inf}])
def test_sim_config_rejects_nan_and_out_of_range(settings):
    # NaN passed every `x <= 0` test: a NaN step leaked a raw ValueError
    # from round(), a NaN duration failed later in run_closed_loop, and a
    # NaN or negative noise level ran as no noise
    with pytest.raises(ValidationError):
        SimConfig(**settings)


@pytest.mark.parametrize("extra", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_step_plant_rejects_wrong_extra_wrench_shape(extra):
    # a one-value wrench used to broadcast onto both axes
    ps = PlantState(planar3_pose(), np.zeros(2))
    with pytest.raises(ValidationError):
        step_plant(free_model(), ps, np.zeros(3), 1e-3, extra_wrench=extra)


@pytest.mark.parametrize("forces", [[1.0], [1.0, 2.0], np.zeros(4),
                                    np.zeros((3, 1))])
def test_step_plant_rejects_wrong_force_count(forces):
    ps = PlantState(planar3_pose(), np.zeros(2))
    with pytest.raises(ValidationError):
        step_plant(free_model(), ps, forces, 1e-3)


@pytest.mark.parametrize("disturbance", [[0.5], [0.5, 0.5, 0.5]])
def test_run_closed_loop_rejects_wrong_disturbance_shape(disturbance):
    model, con, gains = closed_loop_setup()
    sim = SimConfig(duration=0.01, dt_physics=1e-3, disturbance=disturbance)
    with pytest.raises(ValidationError):
        run_closed_loop(model, gains, con, Trajectory.hold(planar3_pose()),
                        sim)


@pytest.mark.parametrize("twist", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_run_closed_loop_rejects_wrong_initial_twist_shape(twist):
    model, con, gains = closed_loop_setup()
    sim = SimConfig(duration=0.01, dt_physics=1e-3)
    with pytest.raises(ValidationError):
        run_closed_loop(model, gains, con, Trajectory.hold(planar3_pose()),
                        sim, initial_twist=twist)


def closed_loop_setup(min_tension=0.5):
    model = RobotModel(
        RobotGeometry.point_mass([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]]),
        InertialParams(body_mass=1.0, gravity=[0.0, -9.81],
                       actuator_mass=0.1))
    con = ForceConstraints.uniform(3, min_tension=min_tension,
                                   max_command=50.0)
    gains = pd_gains(4.0, 4.0, back_emf=0.0, no_load_mass=0.1)
    return model, con, gains


def test_fixed_point_hold():
    model, con, gains = closed_loop_setup()
    traj = Trajectory.hold(planar3_pose())
    sim = SimConfig(duration=1.0, dt_physics=1e-3)
    trace = run_closed_loop(model, gains, con, traj, sim)
    assert np.max(np.abs(trace.pose_errors())) <= 1e-9
    assert tracking_metrics(trace).brake_events == 0


def test_brake_on_unreachable_trajectory():
    model, con, gains = closed_loop_setup()
    traj = Trajectory.hold(EuclideanPose([2.0, 10.0]))
    sim = SimConfig(duration=4.0, dt_physics=1e-3)
    trace = run_closed_loop(model, gains, con, traj, sim,
                            initial_pose=planar3_pose())
    assert trace.brake[-1]
    assert sum(trace.brake) == 1   # run stops at the braking tick
    assert len(trace) < 4000
    # the braking tick has its pose estimate but no forces (columns 9-11)
    # or tensions (12-14)
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(trace.table)),
                                  (len(trace) - 1) * 16 + np.arange(9, 15))
    assert trace.accel_cmd.shape == (len(trace), 2)
    assert np.isfinite(trace.accel_cmd).all()


def test_trace_log_table_views_and_shape_checks():
    empty = TraceLog(manifold_dim=2, actuator_count=3)
    assert len(empty) == 0
    assert empty.table.shape == (0, 16) and empty.accel_cmd.shape == (0, 2)
    table = np.arange(3 * 16, dtype=float).reshape(3, 16)
    trace = TraceLog(manifold_dim=2, actuator_count=3, table=table)
    np.testing.assert_array_equal(trace.t, table[:, 0])
    np.testing.assert_array_equal(trace.pose, table[:, 1:3])
    np.testing.assert_array_equal(trace.modal_errors(), table[:, 7:9])
    np.testing.assert_array_equal(trace.tensions, table[:, 12:15])
    np.testing.assert_array_equal(trace.brake, table[:, 15])
    assert np.isnan(trace.accel_cmd).all()
    assert trace.accel_cmd.shape == (3, 2)
    trace.pose_error[1] = [-1.0, -2.0]        # views write through
    np.testing.assert_array_equal(trace.table[1, 5:7], [-1.0, -2.0])
    for bad in (np.zeros((3, 15)), np.zeros((3, 17)), np.zeros(16)):
        with pytest.raises(ValueError):
            TraceLog(manifold_dim=2, actuator_count=3, table=bad)
    with pytest.raises(ValueError):
        TraceLog(manifold_dim=2, actuator_count=3, table=table,
                 accel_cmd=np.zeros((2, 2)))


def test_disturbance_steady_state_offset():
    # constant wrench offset: at equilibrium the applied correction wrench
    # must cancel it, so theta_d = -M^{-1} w / kp; projected on the modal
    # duals that is -(sigma_i . w) / kp
    model, con, gains = closed_loop_setup()
    w = np.array([0.3, -0.4])
    traj = Trajectory.hold(planar3_pose())
    sim = SimConfig(duration=6.0, dt_physics=1e-3, disturbance=w)
    trace = run_closed_loop(model, gains, con, traj, sim)
    decomp = modal_decomposition(model, planar3_pose())
    predicted = np.linalg.solve(mass_matrix(model, planar3_pose()), w) / 4.0
    np.testing.assert_allclose(trace.pose_errors()[-1], -predicted,
                               rtol=0.05)
    modal_pred = -(decomp.modes.T @ w) / 4.0
    np.testing.assert_allclose(trace.modal_errors()[-1], modal_pred,
                               rtol=0.05)


def test_ideal_sensing_closes_measurement_loop():
    # at every control tick the recovered pose must match the true plant
    # pose, since the measured values come from the true pose exactly
    from paractl import (SystemControllerState, control_step,
                         inverse_kinematics, pose_difference)
    model, con, gains = closed_loop_setup()
    from paractl import Trajectory
    traj = Trajectory.hold(planar3_pose())
    state = SystemControllerState.initial(gains, EuclideanPose([2.01, 1.0]))
    ps = PlantState(EuclideanPose([2.01, 1.0]), np.zeros(2))
    worst = 0.0
    for k in range(200):
        ref = traj.sample(k * 1e-3)
        lengths = inverse_kinematics(model.geometry, ps.pose)
        cmd, state, diag = control_step(model, gains, con, state, lengths,
                                        ref, 1e-3)
        assert not cmd.is_brake
        gap = np.linalg.norm(pose_difference(diag.pose, ps.pose))
        worst = max(worst, gap)
        ps = step_plant(model, ps, cmd.forces, 1e-3)
    assert worst <= 1e-8


def test_back_emf_pairing_enforced():
    model, con, _ = closed_loop_setup()
    mismatched = pd_gains(4.0, 4.0, back_emf=0.7, no_load_mass=0.1)
    traj = Trajectory.hold(planar3_pose())
    with pytest.raises(ValidationError):
        run_closed_loop(model, mismatched, con, traj,
                        SimConfig(duration=0.01, dt_physics=1e-3))


def test_rigid_robot_closed_loop_end_to_end():
    from conftest import cube8_home, cube8_model
    from paractl import retract
    model = cube8_model()
    con = ForceConstraints.uniform(8, min_tension=1.0, max_command=400.0)
    gains = pd_gains(9.0, 6.0, back_emf=0.0, no_load_mass=0.05)
    traj = Trajectory.hold(cube8_home())
    sim = SimConfig(duration=1.0, dt_physics=1e-3)
    start = retract(cube8_home(), [0.02, -0.01, 0.015, 0.02, -0.01, 0.03])
    trace = run_closed_loop(model, gains, con, traj, sim,
                            initial_pose=start)
    assert tracking_metrics(trace).brake_events == 0
    early = np.linalg.norm(trace.pose_errors()[0])
    late = np.linalg.norm(trace.pose_errors()[-1])
    # poles -3, -3: the envelope (1+3t)e^{-3t} is ~0.2 after one second
    assert late <= 0.25 * early


@pytest.mark.parametrize("k0", [0.0, 0.5])
def test_cube8_modal_mismatch_is_first_order_in_the_hold(k0):
    # the forces are held over a tick while the tensioned cables turn with
    # the body, so the held wrench drifts by the cables' geometric
    # stiffness: each mode's mismatch stays small at 1 ms and doubles,
    # to first order, when the control period doubles
    model = cube8_model(back_emf=k0)
    gains = pd_gains(9.0, 6.0, back_emf=k0, no_load_mass=0.05)
    con = ForceConstraints.uniform(8, 1.0, 400.0)
    offset = [0.004, -0.003, 0.005, 0.01, -0.008, 0.012]
    mismatch = {}
    for dt in (1e-3, 2e-3):
        sim = SimConfig(dt_control=dt, dt_physics=1e-3, duration=1.0)
        trace, matches = modal_regulation(model, gains, con, cube8_home(),
                                          offset, sim)
        assert not trace.brake.any()
        mismatch[dt] = np.array([match.mismatch for match in matches])
    assert np.all(mismatch[1e-3] < 0.02)
    ratio = mismatch[2e-3] / mismatch[1e-3]
    assert np.all((ratio >= 1.5) & (ratio <= 2.5)), ratio


def test_measurement_noise_is_seeded_and_stable():
    model, con, gains = closed_loop_setup()
    traj = Trajectory.hold(planar3_pose())
    sim = SimConfig(duration=0.5, dt_physics=1e-3, noise_sigma=1e-5, seed=7)
    a = run_closed_loop(model, gains, con, traj, sim)
    b = run_closed_loop(model, gains, con, traj, sim)
    np.testing.assert_array_equal(np.asarray(a.pose), np.asarray(b.pose))
    assert np.max(np.abs(a.pose_errors())) <= 1e-3


def test_tracking_metrics_zero_trace():
    table = np.zeros((5, 1 + 4 * 2 + 2 * 3 + 1))
    table[:, 0] = np.arange(5) * 1e-3
    trace = TraceLog(manifold_dim=2, actuator_count=3, table=table)
    metrics = tracking_metrics(trace)
    assert metrics.max_error == 0.0
    assert metrics.rms_error == 0.0
    np.testing.assert_array_equal(metrics.settling_times, 0.0)
    assert metrics.brake_events == 0


def test_tracking_metrics_empty_trace_rejected():
    with pytest.raises(ValueError):
        tracking_metrics(TraceLog(manifold_dim=2, actuator_count=3))


def test_settling_time_exponential():
    t = np.arange(0.0, 4.0, 1e-3)
    sig = np.exp(-2.0 * t)
    expected = np.log(50.0) / 2.0
    assert abs(settling_time(t, sig) - expected) <= 1e-3 + 1e-9


def test_settling_time_edge_cases():
    t = np.arange(0.0, 1.0, 1e-2)
    assert settling_time(t, np.zeros(100)) == 0.0
    assert settling_time(t, np.ones(100)) == np.inf


def test_metrics_count_brake_rows():
    table = np.zeros((3, 1 + 4 * 1 + 2 * 1 + 1))
    table[:, 0] = np.arange(3) * 1e-3
    table[:, -1] = [0.0, 0.0, 1.0]
    trace = TraceLog(manifold_dim=1, actuator_count=1, table=table)
    assert tracking_metrics(trace).brake_events == 1


# the actuator models of the test suite: ideal, back-EMF, lag, biproper,
# a lag with back-EMF, and higher value-rate terms (plant only)
REALIZED_MODELS = {
    "ideal": ActuatorModel.ideal(0.0),
    "back_emf": ActuatorModel.ideal(0.4),
    "lag": ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(0.05,)),
    "biproper": ActuatorModel(rate_coeffs=(0.0,), force_deriv_coeffs=(0.05,),
                              command_deriv_coeffs=(0.02,)),
    "back_emf_lag": ActuatorModel(rate_coeffs=(0.3,),
                                  force_deriv_coeffs=(0.05,),
                                  command_deriv_coeffs=(0.01,)),
    "k_higher": ActuatorModel(rate_coeffs=(0.4, 0.02, 0.001)),
}


def _filter_formula(act):
    """The command filter's realization as first written, frozen here."""
    nc = len(act.force_deriv_coeffs)
    den = np.concatenate([[1.0], act.force_deriv_coeffs])
    lead = den[-1]
    den = den / lead
    num = np.zeros(nc + 1)
    num[:len(act.command_deriv_coeffs) + 1] = np.concatenate(
        [[1.0], act.command_deriv_coeffs]) / lead
    feed = num[-1]
    a = np.zeros((nc, nc))
    a[:-1, 1:] = np.eye(nc - 1)
    a[-1, :] = -den[:-1]
    b = np.zeros(nc)
    b[-1] = 1.0
    return a, b, num[:-1] - feed * den[:-1], feed


def _plant_formula(model, mass):
    """The single-actuator plant's realization as first written, frozen
    here."""
    from paractl.actuator import _plant_polynomials
    p_inf, p_rate, q = _plant_polynomials(model)
    p = p_inf + p_rate / mass
    scale = np.max(np.abs(p))
    p = np.trim_zeros(np.where(np.abs(p) > 1e-14 * scale, p, 0.0), trim="b")
    deg = p.size - 1
    lead = p[-1]
    pn = p / lead
    qn = np.zeros(deg)
    qn[:q.size] = q / lead
    a = np.zeros((deg, deg))
    a[:-1, 1:] = np.eye(deg - 1)
    a[-1, :] = -pn[:-1]
    b = np.zeros((deg, 1))
    b[-1, 0] = 1.0
    c = np.zeros((1, deg))
    c[0, :] = qn
    return a, b, c


def _same_bits(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", sorted(REALIZED_MODELS))
def test_one_realization_matches_both_former_formulas(name):
    from paractl.actuator import _plant_state_space
    from paractl.simulator import _command_filter
    act = REALIZED_MODELS[name]
    for mass in (0.05, 0.3, 7.0, np.inf):
        _same_bits(_plant_state_space(act, mass), _plant_formula(act, mass))
    if act.rate_coeffs[1:]:
        return   # the plant simulation rejects higher value-rate terms
    filt = _command_filter(act)
    if not act.force_deriv_coeffs:
        assert filt is None
    else:
        _same_bits(filt, _filter_formula(act))
        # cached per model, so no caller may write into it
        assert not any(array.flags.writeable for array in filt[:3])
