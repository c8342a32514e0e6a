import numpy as np
import pytest

from paractl import (ActuatorModel, EuclideanPose, ForceConstraints,
                     InertialParams, RigidPose, RobotGeometry, RobotModel,
                     pd_gains)

PLANAR3_ANCHORS = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])


@pytest.fixture
def planar3_geom():
    return RobotGeometry.point_mass(PLANAR3_ANCHORS)


@pytest.fixture
def planar3_model(planar3_geom):
    return RobotModel(
        geometry=planar3_geom,
        inertial=InertialParams(body_mass=1.0, gravity=[0.0, -9.81],
                                actuator_mass=0.1),
        actuator=ActuatorModel.ideal(0.0))


@pytest.fixture
def planar3_constraints():
    return ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)


@pytest.fixture
def planar3_gains():
    return pd_gains(4.0, 4.0, back_emf=0.0, no_load_mass=0.1)


def cube8_geometry() -> RobotGeometry:
    """Eight-cable rigid-body robot: frame corners to body-box corners.

    Top and bottom attachment rings are rotated opposite ways with unequal
    radii; that gives every pose freedom (including yaw) a cable lever and
    avoids the screw degeneracy of the fully symmetric layout.
    """
    anchors = []
    attachments = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            anchors.append([2.0 * sx, 2.0 * sy, 3.0])
            attachments.append([-0.1 * sy, 0.1 * sx, 0.05])
            anchors.append([2.0 * sx, 2.0 * sy, 0.0])
            attachments.append([0.16 * sy, -0.07 * sx, -0.05])
    return RobotGeometry.rigid(np.array(anchors, float),
                               np.array(attachments, float))


def cube8_model(actuator_mass: float = 0.05,
                back_emf: float = 0.0) -> RobotModel:
    return RobotModel(
        geometry=cube8_geometry(),
        inertial=InertialParams(body_mass=5.0, gravity=[0.0, 0.0, -9.81],
                                inertia=np.diag([0.02, 0.025, 0.03]),
                                actuator_mass=actuator_mass),
        actuator=ActuatorModel.ideal(back_emf))


def cube8_home() -> RigidPose:
    return RigidPose.identity([0.0, 0.0, 1.5])


@pytest.fixture
def cube8():
    return cube8_model()


def planar3_pose(x=2.0, y=1.0) -> EuclideanPose:
    return EuclideanPose([x, y])


def random_planar_poses(rng, count):
    xs = rng.uniform(0.6, 3.4, count)
    ys = rng.uniform(0.3, 2.4, count)
    return [EuclideanPose([x, y]) for x, y in zip(xs, ys)]


def random_rigid_poses(rng, count):
    from paractl import retract
    poses = []
    for _ in range(count):
        step = np.concatenate([rng.uniform(-0.4, 0.4, 2),
                               rng.uniform(-0.4, 0.4, 1),
                               rng.uniform(-0.25, 0.25, 3)])
        poses.append(retract(cube8_home(), step))
    return poses


def count_cable_evaluations(monkeypatch) -> list:
    """A list that grows by one on every cable evaluation: every call of
    `kinematics._checked_lengths`, the check each evaluation ends in."""
    from paractl import kinematics
    calls = []
    check = kinematics._checked_lengths
    monkeypatch.setattr(kinematics, "_checked_lengths",
                        lambda diffs: calls.append(1) or check(diffs))
    return calls


def record_fk_poses(monkeypatch) -> list:
    """A list of every pose forward kinematics takes a residual or a
    jacobian at: its calls through `kinematics`, as the tracer sees them."""
    from paractl import kinematics
    poses = []
    for name in ("inverse_kinematics", "jacobian"):
        monkeypatch.setattr(kinematics, name, lambda g, p, f=getattr(
            kinematics, name): poses.append(p) or f(g, p))
    return poses
