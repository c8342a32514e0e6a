"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the loaded config and a numpy
Generator, so one seed always yields the same trajectories and poses.  The
program under test only ever receives the generated inputs.
"""
from __future__ import annotations

import numpy as np

from paractl import (EuclideanPose, ForceConstraints, ReferenceSample,
                     RigidPose, bias_force, jacobian, manifold_dim,
                     mass_matrix, wrench_feasible)
from paractl.kinematics import quat_from_rotation_vector
from paractl.trajectory import Segment, Trajectory

# A waypoint is kept only when its static hold, and the feed-forward wrench
# of the move into it, stay feasible after the tension floor is raised and
# the command limit lowered by these margins; the margins leave room for
# the feedback part of the command.
TENSION_MARGIN = 0.01     # share of the command limit added to t_min
COMMAND_MARGIN = 0.5      # share of the command limit kept
START_DRAWS = 1000
WAYPOINT_DRAWS = 200
MAX_CHAINS = 100
# fractions of a move where its feed-forward wrench is checked too: the
# quintic's two acceleration peaks and its velocity peak
MOVE_CHECKS = (0.2113, 0.5, 0.7887)


def tightened(con: ForceConstraints) -> ForceConstraints:
    """Constraint copy with the generator's margins applied."""
    return ForceConstraints(
        con.min_tension + TENSION_MARGIN * con.max_command,
        COMMAND_MARGIN * con.max_command)


def reference_feasible(cfg, ref: ReferenceSample,
                       con: ForceConstraints) -> bool:
    """Whether some admissible force set realizes the feed-forward wrench
    of a reference sample; at zero velocity and acceleration this is the
    static-hold check."""
    model = cfg.model
    jac = jacobian(model.geometry, ref.pose)
    wrench = mass_matrix(model, ref.pose) @ ref.accel \
        + bias_force(model, ref.pose, ref.velocity)
    zeros = np.zeros(model.actuator_count)
    return wrench_feasible(jac, wrench, zeros, zeros, con)


def _hold(pose) -> ReferenceSample:
    d = manifold_dim(pose)
    return ReferenceSample(pose, np.zeros(d), np.zeros(d))


def _make_pose(cfg, position: np.ndarray, rotvec: np.ndarray | None):
    if cfg.manifold == "se3":
        return RigidPose(position, quat_from_rotation_vector(rotvec))
    return EuclideanPose(position)


def track_trajectory(cfg, rng: np.random.Generator, *, moves: int,
                     step: float, turn: float, tilt_max: float,
                     move_s: float, hold_s: float) -> Trajectory:
    """A chain of quintic moves, each followed by a hold.

    Each step moves `step` along a uniform random direction; on se3 it
    also turns by `turn` rad about a uniform random axis, keeping every
    rotation-vector component within `tilt_max`.  Waypoints that leave the
    workspace box or fail the tightened feasibility checks are drawn
    again; a start from which no waypoint passes within WAYPOINT_DRAWS
    draws is dropped and the chain starts over.
    """
    lo, hi = cfg.workspace_min, cfg.workspace_max
    con = tightened(cfg.constraints)
    rigid = cfg.manifold == "se3"

    def draw_start():
        for _ in range(START_DRAWS):
            pos = rng.uniform(lo, hi)
            rot = rng.uniform(-tilt_max, tilt_max, 3) if rigid else None
            pose = _make_pose(cfg, pos, rot)
            if reference_feasible(cfg, _hold(pose), con):
                return pos, rot, pose
        raise RuntimeError("no feasible start pose drawn")

    def draw_next(pos, rot, prev):
        for _ in range(WAYPOINT_DRAWS):
            direction = rng.normal(size=pos.size)
            direction /= np.linalg.norm(direction)
            new_pos = pos + step * direction
            new_rot = None
            if rigid:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                new_rot = rot + turn * axis
                if np.any(np.abs(new_rot) > tilt_max):
                    continue
            if np.any(new_pos < lo) or np.any(new_pos > hi):
                continue
            pose = _make_pose(cfg, new_pos, new_rot)
            move = Trajectory(prev, [Segment("quintic", move_s, pose)])
            if all(reference_feasible(cfg, ref, con) for ref in
                   [_hold(pose)] + [move.sample(u * move_s)
                                    for u in MOVE_CHECKS]):
                return new_pos, new_rot, pose
        return None

    for _ in range(MAX_CHAINS):
        pos, rot, start = draw_start()
        pose, segments = start, []
        while len(segments) < 2 * moves:
            drawn = draw_next(pos, rot, pose)
            if drawn is None:
                break
            pos, rot, pose = drawn
            segments.append(Segment("quintic", move_s, pose))
            segments.append(Segment("hold", hold_s))
        else:
            return Trajectory(start, segments)
    raise RuntimeError("no feasible chain drawn")


def sweep_poses(cfg, rng: np.random.Generator, count: int,
                tilt_max: float) -> list:
    """Poses with positions uniform in the workspace box and rotation
    vectors uniform in [-tilt_max, tilt_max] per component."""
    positions = rng.uniform(cfg.workspace_min, cfg.workspace_max,
                            (count, cfg.workspace_min.size))
    rotvecs = rng.uniform(-tilt_max, tilt_max, (count, 3))
    return [_make_pose(cfg, p, r) for p, r in zip(positions, rotvecs)]
