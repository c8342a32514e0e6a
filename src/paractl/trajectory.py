"""Reference trajectories: parametric segments or sampled CSV files."""
from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .kinematics import (Pose, manifold_dim, pose_difference, read_pose,
                         retract)
from .system import ReferenceSample


def _quintic(u: float) -> tuple[float, float, float]:
    """Smooth 0-to-1 ramp with zero end rates: value, rate, accel in u."""
    s = 10 * u**3 - 15 * u**4 + 6 * u**5
    ds = 30 * u**2 - 60 * u**3 + 30 * u**4
    dds = 60 * u - 180 * u**2 + 120 * u**3
    return s, ds, dds


@dataclass(frozen=True)
class Segment:
    kind: str                 # "hold" | "line" | "quintic"
    duration: float
    target: Pose | None = None

    def __post_init__(self):
        if self.kind not in ("hold", "line", "quintic"):
            raise ValidationError(f"unknown segment kind {self.kind!r}")
        if not self.duration > 0.0:
            raise ValidationError("segment duration must be positive")
        if self.kind != "hold" and self.target is None:
            raise ValidationError(f"{self.kind} segment needs a target pose")


class Trajectory:
    """Reference stream sampled at arbitrary times.

    Segment form: a start pose followed by hold/line/quintic pieces; moves
    run along the fixed tangent from the piece's start to its target, so
    positions interpolate linearly and orientations along the relative
    rotation axis.  Past the final segment the trajectory holds its last
    pose.  Sampled form: rows of (t, pose, velocity, acceleration) with
    linear interpolation between rows.
    """

    def __init__(self, start: Pose, segments: list[Segment] | None = None,
                 samples: list[ReferenceSample] | None = None):
        self.start = start
        self.segments = list(segments or [])
        self.samples = list(samples or [])
        self._times = [s.time for s in self.samples]
        if not all(b > a for a, b in zip(self._times, self._times[1:])):
            raise ValidationError("trajectory times must strictly increase")
        if self.segments and self.samples:
            raise ValidationError("trajectory is either segments or samples")

    @property
    def duration(self) -> float:
        if self.samples:
            return self.samples[-1].time
        return sum(seg.duration for seg in self.segments)

    @classmethod
    def hold(cls, pose: Pose, duration: float = np.inf) -> "Trajectory":
        dur = duration if np.isfinite(duration) else 1e9
        return cls(pose, [Segment("hold", dur)])

    def sample(self, t: float) -> ReferenceSample:
        if self.samples:
            return self._sample_rows(t)
        return self._sample_segments(t)

    def _sample_segments(self, t: float) -> ReferenceSample:
        d = manifold_dim(self.start)
        pose = self.start
        remaining = float(t)
        for seg in self.segments:
            if remaining <= seg.duration:
                return self._eval_segment(seg, pose, remaining, d, t)
            if seg.kind != "hold":
                pose = seg.target
            remaining -= seg.duration
        return ReferenceSample(pose, np.zeros(d), np.zeros(d), time=t)

    @staticmethod
    def _eval_segment(seg: Segment, pose: Pose, local_t: float, d: int,
                      t: float) -> ReferenceSample:
        if seg.kind == "hold":
            return ReferenceSample(pose, np.zeros(d), np.zeros(d), time=t)
        span = pose_difference(pose, seg.target)
        if seg.kind == "line":
            s, ds, dds = local_t / seg.duration, 1.0 / seg.duration, 0.0
        else:
            u = local_t / seg.duration
            s, ds, dds = _quintic(u)
            ds /= seg.duration
            dds /= seg.duration**2
        return ReferenceSample(retract(pose, s * span), ds * span,
                               dds * span, time=t)

    def _sample_rows(self, t: float) -> ReferenceSample:
        rows = self.samples
        if t <= rows[0].time:
            first = rows[0]
            return ReferenceSample(first.pose, first.velocity, first.accel,
                                   time=t)
        if t >= rows[-1].time:
            last = rows[-1]
            d = manifold_dim(last.pose)
            return ReferenceSample(last.pose, np.zeros(d), np.zeros(d),
                                   time=t)
        hi = bisect.bisect_left(self._times, t)   # first row at or after t
        a, b = rows[hi - 1], rows[hi]
        w = (t - a.time) / (b.time - a.time)
        span = pose_difference(a.pose, b.pose)
        return ReferenceSample(retract(a.pose, w * span),
                               (1 - w) * a.velocity + w * b.velocity,
                               (1 - w) * a.accel + w * b.accel, time=t)


def trajectory_from_dict(data: dict, rigid: bool) -> Trajectory:
    """Segment trajectory from its JSON structure; a flat one lives in
    the dimension of its start pose."""
    try:
        dim = len(data["start"])
        start = read_pose(data["start"], rigid, dim)
        segments = []
        for raw in data.get("segments", []):
            target = read_pose(raw["to"], rigid, dim) \
                if "to" in raw else None
            segments.append(Segment(kind=raw["type"],
                                    duration=float(raw["duration"]),
                                    target=target))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad trajectory structure: {exc}") from exc
    return Trajectory(start, segments=segments)


def _load_trajectory_csv(fh, rigid: bool, dim: int) -> Trajectory:
    """Sampled trajectory from an open CSV file; errors name the line."""
    reader = csv.reader(fh)
    header = next(reader, [])
    want_min = 1 + (7 if rigid else dim)
    full = want_min + 2 * dim
    if len(header) not in (want_min, full):
        raise ParseError(f"line 1: trajectory needs {want_min} (poses only) "
                         f"or {full} columns")
    samples = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has "
                                 f"{len(header)}")
            row = [float(x) for x in row]
            pose = read_pose(row[1:want_min], rigid, dim)
            if not all(map(math.isfinite, row[want_min:])):
                raise ValueError("velocity and acceleration need finite "
                                 "numbers")
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"line {reader.line_num}: {exc}") from None
        if len(row) == full:
            vel = np.asarray(row[want_min:want_min + dim])
            acc = np.asarray(row[want_min + dim:])
        else:
            vel = np.zeros(dim)
            acc = np.zeros(dim)
        samples.append(ReferenceSample(pose, vel, acc, time=row[0]))
    if not samples:
        raise ParseError("no sample rows")
    traj = Trajectory(samples[0].pose, samples=samples)   # checks the times
    if len(header) == full:
        _check_derivatives(traj.samples)
    elif len(samples) > 1:   # a single pose holds still
        _fill_derivatives(traj.samples)
    return traj


def _fill_derivatives(samples: list[ReferenceSample]) -> None:
    """Central-difference velocity and acceleration for pose-only files."""
    n = len(samples)
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        dt = samples[hi].time - samples[lo].time
        vel = pose_difference(samples[lo].pose, samples[hi].pose) / dt
        samples[i] = ReferenceSample(samples[i].pose, vel, samples[i].accel,
                                     time=samples[i].time)
    for i in range(n):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        dt = samples[hi].time - samples[lo].time
        acc = (samples[hi].velocity - samples[lo].velocity) / dt
        samples[i] = ReferenceSample(samples[i].pose, samples[i].velocity,
                                     acc, time=samples[i].time)


def _check_derivatives(samples: list[ReferenceSample],
                       tol: float = 1e-3) -> None:
    """Velocity columns must match finite differences of the poses."""
    for a, b in zip(samples, samples[1:]):
        dt = b.time - a.time
        fd = pose_difference(a.pose, b.pose) / dt
        mid = 0.5 * (a.velocity + b.velocity)
        scale = max(1.0, float(np.max(np.abs(mid))))
        if np.max(np.abs(fd - mid)) > tol * scale:
            raise ValidationError(
                "velocity columns disagree with pose differences "
                f"near t={a.time}")


def load_trajectory(path: str, rigid: bool, dim: int) -> Trajectory:
    """Read a trajectory from a .json segment file or a .csv sample file.

    Any fault raises ParseError or ValidationError naming the file, and
    the line where it is known; so does a trajectory whose poses do not
    have the robot's `dim` freedoms.
    """
    try:
        with open(path, newline="") as fh:
            if str(path).endswith(".csv"):
                traj = _load_trajectory_csv(fh, rigid, dim)
            else:
                traj = trajectory_from_dict(json.load(fh), rigid)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if manifold_dim(traj.start) != dim:
        raise ValidationError(f"{path}: trajectory poses have "
                              f"{manifold_dim(traj.start)} freedoms, the "
                              f"robot {dim}")
    return traj
