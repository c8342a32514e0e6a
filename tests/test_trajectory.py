import numpy as np
import pytest

from paractl import (EuclideanPose, ParseError, RigidPose, Segment,
                     Trajectory, ValidationError, load_trajectory,
                     pose_difference, retract)
from paractl.system import ReferenceSample
from paractl.trajectory import trajectory_from_dict


def test_hold_samples_constant():
    traj = Trajectory.hold(EuclideanPose([2.0, 1.0]))
    for t in (0.0, 0.5, 100.0):
        ref = traj.sample(t)
        np.testing.assert_array_equal(ref.pose.coords, [2.0, 1.0])
        np.testing.assert_array_equal(ref.velocity, 0.0)
        np.testing.assert_array_equal(ref.accel, 0.0)


def test_line_segment_constant_velocity():
    traj = Trajectory(EuclideanPose([0.0, 0.0]),
                      [Segment("line", 2.0, EuclideanPose([1.0, -0.5]))])
    mid = traj.sample(1.0)
    np.testing.assert_allclose(mid.pose.coords, [0.5, -0.25])
    np.testing.assert_allclose(mid.velocity, [0.5, -0.25])
    np.testing.assert_allclose(mid.accel, 0.0)


def test_quintic_segment_smooth_endpoints():
    target = EuclideanPose([1.0, 1.0])
    traj = Trajectory(EuclideanPose([0.0, 0.0]),
                      [Segment("quintic", 2.0, target)])
    start = traj.sample(0.0)
    end = traj.sample(2.0 - 1e-12)
    np.testing.assert_allclose(start.velocity, 0.0, atol=1e-9)
    np.testing.assert_allclose(end.velocity, 0.0, atol=1e-9)
    np.testing.assert_allclose(end.pose.coords, [1.0, 1.0], atol=1e-9)
    # derivatives consistent with the position path
    h = 1e-6
    for t in (0.4, 1.0, 1.7):
        fd_vel = (traj.sample(t + h).pose.coords
                  - traj.sample(t - h).pose.coords) / (2 * h)
        np.testing.assert_allclose(traj.sample(t).velocity, fd_vel,
                                   atol=1e-6)
        fd_acc = (traj.sample(t + h).velocity
                  - traj.sample(t - h).velocity) / (2 * h)
        np.testing.assert_allclose(traj.sample(t).accel, fd_acc, atol=1e-5)


def test_past_end_holds_last_pose():
    target = EuclideanPose([1.0, 0.0])
    traj = Trajectory(EuclideanPose([0.0, 0.0]),
                      [Segment("quintic", 1.0, target)])
    late = traj.sample(5.0)
    np.testing.assert_allclose(late.pose.coords, [1.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(late.velocity, 0.0)


def test_rigid_segment_moves_along_relative_rotation():
    start = RigidPose.identity([0.0, 0.0, 1.0])
    target = retract(start, [0.2, 0.0, 0.1, 0.0, 0.0, 0.6])
    traj = Trajectory(start, [Segment("quintic", 2.0, target)])
    mid = traj.sample(1.0)
    # halfway along the fixed tangent: half the rotation vector
    diff = pose_difference(start, mid.pose)
    np.testing.assert_allclose(diff, [0.1, 0.0, 0.05, 0.0, 0.0, 0.3],
                               atol=1e-9)
    assert abs(np.linalg.norm(mid.pose.quaternion) - 1.0) <= 1e-12
    end = traj.sample(2.0)
    np.testing.assert_allclose(pose_difference(target, end.pose), 0.0,
                               atol=1e-9)


def test_segment_validation():
    with pytest.raises(ValidationError):
        Segment("zigzag", 1.0, EuclideanPose([0.0]))
    with pytest.raises(ValidationError):
        Segment("line", 0.0, EuclideanPose([0.0]))
    with pytest.raises(ValidationError):
        Segment("quintic", 1.0, None)


def test_trajectory_from_dict_and_duration():
    traj = trajectory_from_dict(
        {"start": [2.0, 1.0],
         "segments": [{"type": "quintic", "to": [2.1, 1.0],
                       "duration": 0.5},
                      {"type": "hold", "duration": 0.5}]}, rigid=False)
    assert traj.duration == pytest.approx(1.0)
    end = traj.sample(0.75)
    np.testing.assert_allclose(end.pose.coords, [2.1, 1.0], atol=1e-12)


def test_csv_trajectory_with_derivative_columns(tmp_path):
    ts = np.linspace(0.0, 1.0, 51)
    rows = ["t,pose_1,pose_2,vel_1,vel_2,acc_1,acc_2"]
    for t in ts:
        x = 0.3 * t * t
        rows.append(f"{t},{x},{1.0},{0.6 * t},0,0.6,0")
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(rows) + "\n")
    traj = load_trajectory(str(path), rigid=False, dim=2)
    mid = traj.sample(0.5)
    assert mid.pose.coords[0] == pytest.approx(0.075, abs=1e-4)
    assert mid.velocity[0] == pytest.approx(0.3, abs=1e-6)


def test_csv_trajectory_pose_only_derives_rates(tmp_path):
    ts = np.linspace(0.0, 1.0, 101)
    rows = ["t,pose_1"]
    for t in ts:
        rows.append(f"{t},{0.5 * t}")
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(rows) + "\n")
    traj = load_trajectory(str(path), rigid=False, dim=1)
    mid = traj.sample(0.37)
    assert mid.velocity[0] == pytest.approx(0.5, abs=1e-9)


def test_csv_trajectory_requires_increasing_time(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,pose_1\n0.0,0.0\n0.0,0.1\n")
    with pytest.raises(ValidationError):
        load_trajectory(str(path), rigid=False, dim=1)


def test_sampled_trajectory_requires_increasing_time():
    # the row search assumes sorted times; unsorted rows used to be
    # interpolated between whichever rows a linear scan met first
    rows = [ReferenceSample(EuclideanPose([x]), np.zeros(1), np.zeros(1),
                            time=t) for t, x in ((0.0, 0.0), (2.0, 2.0),
                                                 (1.0, 5.0), (3.0, 3.0))]
    with pytest.raises(ValidationError):
        Trajectory(rows[0].pose, samples=rows)


def test_csv_trajectory_rejects_inconsistent_rates(tmp_path):
    rows = ["t,pose_1,vel_1,acc_1"]
    for t in np.linspace(0.0, 1.0, 11):
        rows.append(f"{t},{0.5 * t},{2.5},0")  # velocity is wrong
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError):
        load_trajectory(str(path), rigid=False, dim=1)


def test_json_trajectory_parse_error(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text('{"start": [1, 2], "segments": [}')
    with pytest.raises(ParseError) as err:
        load_trajectory(str(path), rigid=False, dim=2)
    assert "line" in str(err.value)


def _scan_sample(rows, t):
    """Reference sampler: the bracketing rows found by a linear scan."""
    if t <= rows[0].time:
        return rows[0].pose.coords, rows[0].velocity, rows[0].accel
    if t >= rows[-1].time:
        d = rows[-1].velocity.size
        return rows[-1].pose.coords, np.zeros(d), np.zeros(d)
    hi = next(i for i, r in enumerate(rows) if r.time >= t)
    a, b = rows[hi - 1], rows[hi]
    w = (t - a.time) / (b.time - a.time)
    pose = retract(a.pose, w * pose_difference(a.pose, b.pose))
    return (pose.coords, (1 - w) * a.velocity + w * b.velocity,
            (1 - w) * a.accel + w * b.accel)


def test_csv_trajectory_sampling_matches_linear_scan(tmp_path):
    rng = np.random.default_rng(11)
    ts = np.cumsum(rng.uniform(1e-3, 2e-2, 300))
    rows = ["t,pose_1,pose_2"]
    for t in ts:
        rows.append(f"{t:.17g},{np.sin(3 * t):.17g},{np.cos(2 * t):.17g}")
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(rows) + "\n")
    traj = load_trajectory(str(path), rigid=False, dim=2)
    times = [r.time for r in traj.samples]
    mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
    probes = times + mids + [times[0] - 1.0, times[-1] + 1.0,
                             float(np.nextafter(times[0], np.inf)),
                             float(np.nextafter(times[-1], -np.inf))]
    for t in probes:
        got = traj.sample(t)
        pose, vel, acc = _scan_sample(traj.samples, t)
        np.testing.assert_array_equal(got.pose.coords, pose)
        np.testing.assert_array_equal(got.velocity, vel)
        np.testing.assert_array_equal(got.accel, acc)


def test_csv_single_pose_holds_still(tmp_path):
    # one pose-only row has no neighbour to difference against
    path = tmp_path / "traj.csv"
    path.write_text("t,pose_1,pose_2\n0.0,2.0,1.0\n")
    sample = load_trajectory(str(path), rigid=False, dim=2).sample(0.5)
    assert sample.pose.coords.tolist() == [2.0, 1.0]
    assert not sample.velocity.any() and not sample.accel.any()


def test_json_targets_live_where_the_start_does():
    with pytest.raises(ValidationError):
        trajectory_from_dict(
            {"start": [2.0, 1.0],
             "segments": [{"type": "line", "to": [2.1, 1.0, 0.0],
                           "duration": 0.5}]}, rigid=False)


def test_segment_rejects_nan_duration():
    with pytest.raises(ValidationError):
        Segment("hold", float("nan"))
