"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (PLANAR3_ANCHORS, cube8_geometry, cube8_model,
                      planar3_pose, random_planar_poses,
                      random_rigid_poses)
from oracles import (bounds_from_constraints, euler_lagrange_bias,
                     kkt_enumeration, routh_hurwitz_2nd_order)
from paractl import (ActuatorModel, ControllerGains, EuclideanPose,
                     ForceConstraints, InertialParams, RobotGeometry,
                     RobotModel, Segment, SimConfig, SystemControllerState,
                     Trajectory, control_step, distribute,
                     forward_kinematics, finite_difference_stack,
                     feedforward_step, inverse_kinematics, jacobian,
                     mass_matrix, modal_decomposition, modal_regulation,
                     pd_gains, pose_difference, retract, run_closed_loop,
                     stability_check, total_energy, tracking_metrics)
from paractl.cli import run_command
from paractl.simulator import PlantState, step_plant
from paractl.trace_io import read_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def planar3_model(m0=0.1, k0=0.0):
    return RobotModel(
        RobotGeometry.point_mass(PLANAR3_ANCHORS),
        InertialParams(body_mass=1.0, gravity=[0.0, -9.81],
                       actuator_mass=m0),
        ActuatorModel.ideal(k0))


def test_criterion_1_kinematics_round_trip():
    with criterion(1, "kinematics round trip"):
        start = time.process_time()
        rng = np.random.default_rng(101)
        geom = RobotGeometry.point_mass(PLANAR3_ANCHORS)
        for pose in random_planar_poses(rng, 1000):
            lengths = inverse_kinematics(geom, pose)
            guess = retract(pose, rng.uniform(-0.05, 0.05, 2))
            sol = forward_kinematics(geom, lengths, guess)
            assert np.linalg.norm(pose_difference(sol, pose)) <= 1e-8
        rigid = cube8_geometry()
        for pose in random_rigid_poses(rng, 1000):
            lengths = inverse_kinematics(rigid, pose)
            guess = retract(pose, rng.uniform(-0.02, 0.02, 6))
            sol = forward_kinematics(rigid, lengths, guess)
            assert np.linalg.norm(pose_difference(sol, pose)) <= 1e-8
        assert time.process_time() - start < 5.0


def test_criterion_2_jacobian_and_virtual_work():
    with criterion(2, "jacobian and virtual work"):
        rng = np.random.default_rng(102)
        geom = RobotGeometry.point_mass(PLANAR3_ANCHORS)
        rigid = cube8_geometry()

        def fd_jacobian(gm, pose, h=1e-6):
            cols = []
            for k in range(gm.manifold_dim):
                e = np.zeros(gm.manifold_dim)
                e[k] = h
                cols.append((inverse_kinematics(gm, retract(pose, e))
                             - inverse_kinematics(gm, retract(pose, -e)))
                            / (2 * h))
            return np.column_stack(cols)

        for pose in random_planar_poses(rng, 50):
            jac = jacobian(geom, pose)
            err = np.max(np.abs(jac - fd_jacobian(geom, pose)))
            assert err <= 1e-6 * max(1.0, np.abs(jac).max())
        for pose in random_rigid_poses(rng, 50):
            jac = jacobian(rigid, pose)
            err = np.max(np.abs(jac - fd_jacobian(rigid, pose)))
            assert err <= 1e-6 * max(1.0, np.abs(jac).max())

        # virtual work: the wrench of actuator forces does the same work
        # as the forces do along the value rates
        worst = 0.0
        for _ in range(1000):
            if rng.uniform() < 0.5:
                gm, d = geom, 2
                pose = random_planar_poses(rng, 1)[0]
            else:
                gm, d = rigid, 6
                pose = random_rigid_poses(rng, 1)[0]
            jac = jacobian(gm, pose)
            twist = rng.uniform(-2, 2, d)
            forces = rng.uniform(-2, 2, gm.actuator_count)
            gap = abs((jac.T @ forces) @ twist - (jac @ twist) @ forces)
            worst = max(worst, gap)
        assert worst <= 1e-12


def test_criterion_3_modal_decoupling_eigenstructure():
    with criterion(3, "decoupling eigenstructure bounds"):
        start = time.process_time()
        rng = np.random.default_rng(103)
        cases = 0
        while cases < 200:
            if cases % 2 == 0:
                n = int(rng.integers(3, 7))
                anchors = rng.uniform(-3, 3, (n, 2))
                geom = RobotGeometry.point_mass(anchors)
                pose = EuclideanPose(rng.uniform(-2, 2, 2))
                lens = np.linalg.norm(anchors - pose.coords, axis=1)
                if lens.min() < 0.3:
                    continue
                m0 = float(rng.uniform(0.02, 1.0))
                model = RobotModel(geom, InertialParams(
                    body_mass=float(rng.uniform(0.5, 3.0)),
                    gravity=[0.0, -9.81], actuator_mass=m0))
            else:
                m0 = float(rng.uniform(0.02, 0.5))
                model = cube8_model(actuator_mass=m0)
                pose = random_rigid_poses(rng, 1)[0]
            d = model.manifold_dim
            mass = mass_matrix(model, pose)
            jac = jacobian(model.geometry, pose)
            gram = jac.T @ jac
            raw = np.linalg.eigvals(np.linalg.solve(mass, gram))
            assert np.max(np.abs(raw.imag)) <= 1e-9
            dec = modal_decomposition(model, pose)
            assert np.all(dec.eigenvalues >= -1e-9)
            assert np.all(dec.eigenvalues <= 1.0 / m0 + 1e-9)
            n_mat = np.linalg.solve(mass, gram)
            for i in range(d):
                resid = n_mat @ dec.modes[:, i] \
                    - dec.eigenvalues[i] * dec.modes[:, i]
                assert np.max(np.abs(resid)) <= 1e-8
            assert np.max(np.abs(dec.duals.T @ dec.modes - np.eye(d))) \
                <= 1e-9
            assert np.min(np.linalg.eigvalsh(mass - m0 * gram)) >= -1e-9
            cases += 1
        dec = modal_decomposition(planar3_model(), planar3_pose())
        np.testing.assert_allclose(dec.modal_masses, [0.725, 0.8142857],
                                   atol=1e-6)
        assert time.process_time() - start < 5.0


def test_criterion_4_dynamics_oracle_and_energy():
    with criterion(4, "equations of motion and energy"):
        start = time.process_time()
        rng = np.random.default_rng(104)
        spring = RobotModel(
            RobotGeometry.point_mass(PLANAR3_ANCHORS),
            InertialParams(body_mass=1.3, gravity=[0.4, -9.81],
                           actuator_mass=0.2, spring_stiffness=2.5,
                           spring_center=[1.5, 1.2]))
        rigid = cube8_model(actuator_mass=0.08)
        from paractl import bias_force
        for k in range(100):
            if k < 60:
                model = spring
                pose = random_planar_poses(rng, 1)[0]
                d = 2
            else:
                model = rigid
                pose = random_rigid_poses(rng, 1)[0]
                d = 6
            twist = rng.uniform(-1.2, 1.2, d)
            accel = rng.uniform(-1.5, 1.5, d)
            mine = bias_force(model, pose, twist)
            ref = euler_lagrange_bias(model, pose, twist, accel)
            assert np.linalg.norm(mine - ref) \
                <= 1e-5 * max(1.0, np.linalg.norm(ref))

        conservative = RobotModel(
            RobotGeometry.point_mass(PLANAR3_ANCHORS),
            InertialParams(body_mass=1.0, gravity=[0.0, 0.0],
                           actuator_mass=0.1))
        ps = PlantState(planar3_pose(), np.array([0.3, -0.2]))
        first = total_energy(conservative, ps.pose, ps.twist)
        for _ in range(10000):
            ps = step_plant(conservative, ps, np.zeros(3), 1e-3)
        drift = abs(total_energy(conservative, ps.pose, ps.twist) - first) \
            / abs(first)
        assert drift <= 1e-6
        assert time.process_time() - start < 30.0


def test_criterion_5_force_distribution_vs_enumeration():
    with criterion(5, "force distribution optimality"):
        start = time.process_time()
        rng = np.random.default_rng(105)
        geom = RobotGeometry.point_mass(PLANAR3_ANCHORS)
        con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
        for k in range(200):
            pose = random_planar_poses(rng, 1)[0]
            jac = jacobian(geom, pose)
            no_load = rng.uniform(-0.5, 2.0, 3)
            offset = rng.uniform(-1.0, 1.0, 3)
            lo, hi = bounds_from_constraints(con, offset, no_load)
            wrench = jac.T @ rng.uniform(lo, hi)
            forces = distribute(jac, wrench, offset, no_load, con)
            assert np.max(np.abs(jac.T @ forces - wrench)) <= 1e-8
            ref = kkt_enumeration(jac, wrench, lo, hi)
            assert ref is not None
            assert np.max(np.abs(forces - ref)) <= 1e-6
        hold = distribute(jacobian(geom, planar3_pose()),
                          np.array([0.0, 9.81]), np.zeros(3), np.zeros(3),
                          con)
        np.testing.assert_allclose(hold, [-0.5, -0.5, -10.2572136],
                                   atol=1e-7)
        assert time.process_time() - start < 10.0


def _planar3_modal_regulation(k0):
    gains = pd_gains(4.0, 4.0, back_emf=k0, no_load_mass=0.1)
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    sim = SimConfig(duration=5.0, dt_physics=1e-3)
    offset = 0.01 * np.array([np.cos(0.6), np.sin(0.6)])
    return modal_regulation(planar3_model(k0=k0), gains, con, planar3_pose(),
                            offset, sim)


def test_criterion_6_no_gain_scheduling():
    with criterion(6, "no gain scheduling needed"):
        start = time.process_time()
        _, matches = _planar3_modal_regulation(k0=0.0)
        scalar_settle = np.log(50.0) / 2.0  # (1+2t)e^{-2t} analytic band
        for match in matches:
            assert match.mismatch <= 0.05
            assert abs(match.settle_system - match.settle_single) \
                <= 0.10 * match.settle_single
            # the scalar loop itself settles near the closed-form time
            assert abs(match.settle_single - 2.92) <= 0.10 * scalar_settle

        # nonzero back-EMF splits the modal dampings; measured decay rates
        # must follow the per-mode pole prediction
        trace, matches = _planar3_modal_regulation(k0=0.5)
        t = trace.times()
        window = (t >= 2.5) & (t <= 5.0)
        for match, error in zip(matches, trace.modal_errors().T):
            slow_pole = max(match.poles.real)
            signal = np.abs(error[window])
            assert np.all(signal > 1e-12)
            slope = np.polyfit(t[window], np.log(signal), 1)[0]
            assert abs(slope - slow_pole) <= 0.05 * abs(slow_pole)
        assert time.process_time() - start < 10.0


def test_criterion_7_degenerates_to_single_actuator():
    with criterion(7, "single-actuator degeneration"):
        geom = RobotGeometry.point_mass([[0.0]])
        model = RobotModel(geom,
                           InertialParams(body_mass=1.0, gravity=[9.81],
                                          actuator_mass=0.1),
                           ActuatorModel.ideal(0.0))
        gains = pd_gains(4.0, 4.0, back_emf=0.0, no_load_mass=0.1)
        con = ForceConstraints.uniform(1, min_tension=0.0, max_command=1e6)
        traj = Trajectory(EuclideanPose([1.0]),
                          [Segment("quintic", 2.0, EuclideanPose([1.3])),
                           Segment("hold", 3.0)])
        sim = SimConfig(duration=5.0, dt_physics=1e-3)
        trace = run_closed_loop(model, gains, con, traj, sim,
                                initial_pose=EuclideanPose([1.02]))
        assert tracking_metrics(trace).brake_events == 0
        x_scalar = np.zeros(0)
        err_hist = []
        worst = 0.0
        for k in range(len(trace)):
            t = trace.t[k]
            ref = traj.sample(t)
            err_hist.append(trace.pose_error[k])
            stack = finite_difference_stack(err_hist[-3:], 1e-3, 2)
            a_scalar, x_scalar = feedforward_step(
                gains, x_scalar, stack[:, 0],
                [ref.pose.coords[0], ref.velocity[0], ref.accel[0]],
                1.0, 1e-3)
            worst = max(worst, abs(trace.accel_cmd[k][0] - a_scalar))
        assert worst <= 1e-12


def test_criterion_8_stability_gate():
    with criterion(8, "stability agrees with Routh-Hurwitz"):
        cases = []
        for kp in (4.0, 1.0, -1.0, 9.0):
            for kd, k0 in ((4.0, 0.0), (2.0, 0.5), (-0.5, 0.0),
                           (4.0, 1.0), (0.5, 0.0)):
                cases.append((kp, kd, k0))
        assert len(cases) == 20
        masses = (0.1, 0.2, 1.0, np.inf)
        for kp, kd, k0 in cases:
            gains = ControllerGains(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                                    C=np.zeros((1, 0)),
                                    D=np.array([[kp, kd]]), back_emf=k0,
                                    no_load_mass=0.1)
            report = stability_check(gains, ActuatorModel.ideal(k0), masses)
            expected = all(routh_hurwitz_2nd_order(kp, kd, k0, m)
                           for m in masses)
            assert report.passed == expected, (kp, kd, k0)


def test_criterion_9_brake_path(tmp_path):
    with criterion(9, "brake on unreachable reference"):
        out = tmp_path / "brake.csv"
        code = run_command(["simulate",
                            "--config", str(CONFIGS / "planar3.json"),
                            "--trajectory",
                            str(CONFIGS / "planar3_brake.json"),
                            "--out", str(out)])
        assert code == 2
        trace = read_trace(str(out))
        assert trace.brake[-1]
        assert not any(trace.brake[:-1])  # braked exactly once, then ended

        # latch: a braked controller state keeps braking
        model = planar3_model()
        gains = pd_gains(4.0, 4.0, no_load_mass=0.1)
        con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
        from paractl import ReferenceSample
        pose = planar3_pose()
        state = SystemControllerState.initial(gains, pose)
        lengths = inverse_kinematics(model.geometry, pose)
        bad_ref = ReferenceSample(EuclideanPose([2.0, 100.0]), np.zeros(2),
                                  np.zeros(2))
        good_ref = ReferenceSample(pose, np.zeros(2), np.zeros(2))
        cmd, state, _ = control_step(model, gains, con, state, lengths,
                                     bad_ref, 1e-3)
        assert cmd.is_brake
        for _ in range(3):
            cmd, state, _ = control_step(model, gains, con, state, lengths,
                                         good_ref, 1e-3)
            assert cmd.is_brake


def test_criterion_10_deterministic_golden_run(tmp_path):
    with criterion(10, "byte-identical reruns"):
        args = ["simulate", "--config", str(CONFIGS / "planar3.json"),
                "--trajectory", str(CONFIGS / "planar3_move.json"),
                "--duration", "0.5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_command(args + ["--out", str(a)]) == 0
        assert run_command(args + ["--out", str(b)]) == 0
        blob_a = a.read_bytes()
        assert blob_a == b.read_bytes()
        golden = (Path(__file__).parent / "data"
                  / "golden_planar3.csv").read_bytes()
        assert blob_a == golden
