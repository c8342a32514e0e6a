"""The three benchmark workloads: timed runs, output checks and metrics.

Each workload is a closed loop with one caller in one thread: the next
operation (control tick or sweep pose) starts only after the previous one
returned.  Work is measured in whole episodes (track) or passes (sweep)
until their timed phases add up to the requested seconds and enough
operations exist for every reported percentile.  Input generation and
output checks run between the timed phases.
"""
from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from paractl import (config, dynamics, force_distribution,
                     kinematics, simulator, system, trace_io)
from paractl.errors import InfeasibleWrench, NumericBlowup, ParactlError
from paractl.force_distribution import active_pattern, in_constraint_set
from paractl.trajectory import Trajectory

import inputs
import oracle
import tracer as tracing
from stats import min_samples, percentile

MIN_OPS = min_samples(99)   # enough operations for a p99 latency
CHECK_TOL = 1e-8            # N; solver tolerance for constraint checks
ORACLE_CHUNK = 250          # poses per oracle linear program


@dataclass(frozen=True)
class TrackSpec:
    """Closed-loop tracking of seeded chains of quintic moves and holds.

    One episode is one chain run from rest by `run_closed_loop`; every
    episode gets a fresh chain from (seed, episode index).  Tracking
    accuracy is taken over the first `accuracy_episodes`, which every run
    completes, so it is fixed per seed.
    """

    config: str
    moves: int
    step: float
    turn: float
    tilt_max: float
    move_s: float
    hold_s: float
    noise_sigma: float
    accuracy_episodes: int
    max_pose_error: float   # beyond this a tick counts as lost tracking


@dataclass(frozen=True)
class SweepSpec:
    """Cold force distribution and modal analysis at seeded random poses.

    One pass is `pass_poses` fresh poses from (seed, pass index); the
    least-norm force quality is taken over the first pass.
    """

    config: str
    pass_poses: int
    tilt_max: float


# Why each workload exists (README.md has the full map):
#   planar3_track  tiny per-tick numerics, so per-call overhead in the plant,
#                  the control step and forward kinematics dominates; the
#                  sensor noise makes forward kinematics iterate
#   cube8_track    the rigid-body dynamics tables dominate host time; a
#                  dynamics-kernel change shows here and not on planar3_track
#   cube8_sweep    cold force distribution (no hint, mostly infeasible) and
#                  modal pole analysis, with no simulator or control loop
WORKLOADS = {
    "planar3_track": TrackSpec(
        config="configs/planar3.json", moves=3, step=0.1, turn=0.0,
        tilt_max=0.0, move_s=0.3, hold_s=0.1, noise_sigma=1e-4,
        accuracy_episodes=4, max_pose_error=0.05),
    "cube8_track": TrackSpec(
        config="configs/cube8.json", moves=1, step=0.02, turn=0.03,
        tilt_max=0.2, move_s=0.2, hold_s=0.05, noise_sigma=0.0,
        accuracy_episodes=4, max_pose_error=0.01),
    "cube8_sweep": SweepSpec(
        config="configs/cube8.json", pass_poses=500, tilt_max=0.3),
}


# Module-level bindings the traced run wraps, as (owner, attribute, span
# name).  Span names start with the layer (module) that does the work; the
# plant and controller copies of the dynamics tables get their own names.
BINDINGS = [
    (simulator, "run_closed_loop", "simulator.run_closed_loop"),
    (simulator, "tracking_metrics", "simulator.tracking_metrics"),
    (simulator, "step_plant", "simulator.step_plant"),
    (simulator, "control_step", "system.control_step"),
    (simulator, "inverse_kinematics", "kinematics.inverse_kinematics"),
    (simulator, "point_mass_tables", "dynamics.point_tables.plant"),
    (simulator, "rigid_pose_tables", "dynamics.rigid_tables.plant"),
    (simulator, "modal_decomposition", "dynamics.modal_decomposition"),
    (Trajectory, "sample", "trajectory.sample"),
    (system, "forward_kinematics", "kinematics.forward_kinematics"),
    (system, "jacobian", "kinematics.jacobian"),
    (system, "point_mass_tables", "dynamics.point_tables.controller"),
    (system, "rigid_pose_tables", "dynamics.rigid_tables.controller"),
    (system, "no_load_forces", "dynamics.no_load_forces"),
    (system, "distribute", "force_distribution.distribute"),
    (system, "active_pattern", "force_distribution.active_pattern"),
    (system, "discretize", "actuator.discretize"),
    (system, "predicted_modal_response", "system.predicted_modal_response"),
    (system, "modal_decomposition", "dynamics.modal_decomposition"),
    (system, "closed_loop_poles", "actuator.closed_loop_poles"),
    (kinematics, "jacobian", "kinematics.jacobian"),
    (kinematics, "inverse_kinematics", "kinematics.inverse_kinematics"),
    (dynamics, "bias_force", "dynamics.bias_force"),
    (dynamics, "gram_matrix", "kinematics.gram_matrix"),
    (dynamics, "jacobian_directional_derivative",
     "kinematics.jacobian_directional_derivative"),
    (force_distribution, "distribute", "force_distribution.distribute"),
    (trace_io, "write_trace", "trace_io.write_trace"),
    (config, "load_config", "config.load_config"),
]


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, how)
    extras: dict = field(default_factory=dict)    # inputs to layer metrics


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# --------------------------------------------------------------------------
# tracking workloads

def _episode(cfg, spec: TrackSpec, seed: int, index: int):
    rng = _rng(seed, index)
    noise_seed = int(rng.integers(2**31))
    traj = inputs.track_trajectory(
        cfg, rng, moves=spec.moves, step=spec.step, turn=spec.turn,
        tilt_max=spec.tilt_max, move_s=spec.move_s, hold_s=spec.hold_s)
    sim = replace(cfg.sim, duration=traj.duration,
                  noise_sigma=spec.noise_sigma, seed=noise_seed)
    return traj, sim


def prepare_track(spec: TrackSpec, root: str, seed: int):
    """Set-up: config, the first episode's inputs, one warm-up tick."""
    cfg = config.load_config(os.path.join(root, spec.config))
    traj, sim = _episode(cfg, spec, seed, 0)
    ref = traj.sample(0.0)
    state = system.SystemControllerState.initial(cfg.gains, ref.pose)
    lengths = kinematics.inverse_kinematics(cfg.model.geometry, ref.pose)
    system.control_step(cfg.model, cfg.gains, cfg.constraints, state,
                        lengths, ref, sim.dt_control)
    return cfg, (traj, sim)


def _planned_ticks(sim) -> int:
    return int(np.floor(sim.duration / sim.dt_control + 1e-9))


def _simulate(cfg, traj, sim, path: str, tr: tracing.Tracer | None = None):
    """The timed phase of one episode; returns the trace (None after a
    numeric blow-up) and the host seconds it took."""
    t0 = perf_counter()
    try:
        trace = simulator.run_closed_loop(
            cfg.model, cfg.gains, cfg.constraints, traj, sim,
            evaluate_at_reference=cfg.evaluate_at_reference)
    except NumericBlowup:
        return None, perf_counter() - t0
    if tr is not None:
        tr.current_op = tracing.EPISODE
    simulator.tracking_metrics(trace)
    trace_io.write_trace(trace, path)
    return trace, perf_counter() - t0


def _failed_ticks(cfg, spec: TrackSpec, trace, planned: int) -> int:
    """Planned ticks that did not complete correctly: lost to a brake or
    blow-up, outside the tension floor or command limit, or tracking
    further off than `max_pose_error`."""
    if trace is None:
        return planned
    brake = np.asarray(trace.brake, bool)
    done = int(np.argmax(brake)) if brake.any() else len(trace)
    con = cfg.constraints
    tensions = np.asarray(trace.tensions)[:done]
    forces = np.asarray(trace.forces_cmd)[:done]
    errors = np.linalg.norm(trace.pose_errors()[:done], axis=1)
    bad = (np.any(tensions < con.min_tension - CHECK_TOL, axis=1)
           | np.any(np.abs(forces) > con.max_command + CHECK_TOL, axis=1)
           | ~(errors <= spec.max_pose_error))
    return planned - done + int(np.count_nonzero(bad))


def run_track(spec: TrackSpec, root: str, seed: int, seconds: float,
              traced: bool, work_dir: str, prepared) -> Outcome:
    cfg, first = prepared
    res = Outcome()
    first_csv = os.path.join(work_dir, "ep0.csv")
    again_csv = os.path.join(work_dir, "ep0-again.csv")
    later_csv = os.path.join(work_dir, "ep.csv")
    tr = tracing.Tracer()
    hooks = _TickHooks(tr)
    if traced:
        _traced_load_config(tr, root, spec.config)
    latencies: list[float] = []
    walls, base_walls, accuracy_norms, force_norms = [], [], [], []
    while True:
        index = len(walls)
        traj, sim = first if index == 0 else _episode(cfg, spec, seed, index)
        path = first_csv if index == 0 else later_csv
        if traced:
            tr.install(BINDINGS, hooks.hooks())
            try:
                trace, wall = _simulate(cfg, traj, sim, path, tr)
            finally:
                tr.uninstall()
            # the same episode untraced, right after, is the base of the
            # tracing overhead; for episode 0 it is also the second
            # same-seed run of the determinism check
            base_walls.append(_simulate(cfg, traj, sim, again_csv
                                        if index == 0 else later_csv)[1])
        else:
            trace, wall = _timed(latencies, _simulate, cfg, traj, sim, path)
        planned = _planned_ticks(sim)
        res.attempted += planned
        failed = _failed_ticks(cfg, spec, trace, planned)
        res.failed += failed
        if failed:
            res.notes.append(f"failed: episode {index}: {failed} of "
                             f"{planned} ticks")
        walls.append(wall)
        if index < spec.accuracy_episodes and trace is not None:
            accuracy_norms.append(np.linalg.norm(trace.pose_errors(), axis=1))
            force_norms.append(np.linalg.norm(np.asarray(trace.forces_cmd),
                                              axis=1))
        if index == 0 and trace is not None:
            res.extras["trace_bytes_per_op"] = os.path.getsize(path) / planned
        if (sum(walls) >= seconds and res.attempted >= MIN_OPS
                and len(walls) >= spec.accuracy_episodes):
            break
    if not traced:
        _simulate(cfg, *first, again_csv)   # second same-seed run
    if os.path.exists(first_csv) and not _same_bytes(first_csv, again_csv):
        res.failed += _planned_ticks(first[1])
        res.notes.append("failed: episode 0 traces differ between same-seed "
                         "runs")

    norms = np.concatenate(accuracy_norms) if accuracy_norms else np.zeros(1)
    res.extras.update(
        ops=res.attempted, wall_s=sum(walls), tracer=tr,
        overhead_s=sum(walls) - sum(base_walls),
        overhead_base_s=sum(base_walls),
        active_bounds_mean=float(np.mean(hooks.active_bounds))
        if hooks.active_bounds else 0.0,
        err_rms=float(np.sqrt(np.mean(norms**2))),
        err_max=float(np.max(norms)),
        force_norm_mean=float(np.mean(np.concatenate(force_norms)))
        if force_norms else 0.0)
    res.notes.append(f"{len(walls)} episodes, {res.attempted} planned "
                     f"ticks, {spec.moves} moves each")
    res.notes.append(
        f"track_rms_err {res.extras['err_rms']:.6g} and track_max_err "
        f"{res.extras['err_max']:.6g} (pose error norm over the first "
        f"{spec.accuracy_episodes} episodes)")
    if not traced:
        res.metrics["ops_per_s"] = (res.attempted / sum(walls), "1/s",
                                    f"{res.attempted} ticks over "
                                    f"{len(walls)} timed episodes")
        _latency_metrics(res, latencies, "control_step calls")
    return res


def _traced_load_config(tr: tracing.Tracer, root: str, path: str) -> None:
    """One traced config load, recorded as set-up work."""
    tr.install(BINDINGS)
    try:
        tr.current_op = tracing.SETUP
        config.load_config(os.path.join(root, path))
    finally:
        tr.uninstall()


class _TickHooks:
    """Tracer hooks of the track workloads.

    They give every control tick its own op id, a tick starting where
    `run_closed_loop` samples the trajectory (its first sample, taken
    before the loop, belongs to the episode), and count the active force
    bounds of each tick from the `active_pattern` the controller computes.
    """

    def __init__(self, tr: tracing.Tracer):
        self.tr = tr
        self.next_tick = 0
        self.pending_first = False
        self.active_bounds: list[int] = []

    def hooks(self) -> dict:
        return {"simulator.run_closed_loop": (self._episode, None),
                "trajectory.sample": (self._sample, None),
                "force_distribution.active_pattern": (None, self._active)}

    def _episode(self) -> None:
        self.tr.current_op = tracing.EPISODE
        self.pending_first = True

    def _sample(self) -> None:
        if self.tr.parent_name() != "simulator.run_closed_loop":
            return
        if self.pending_first:
            self.pending_first = False
        else:
            self.tr.current_op = self.next_tick
            self.next_tick += 1

    def _active(self, pattern) -> None:
        self.active_bounds.append(int(np.count_nonzero(pattern)))


def _timed(latencies: list, fn, *args):
    """Run `fn` with every control_step call timed into `latencies`."""
    original = simulator.control_step

    def timed_step(*a, **k):
        t0 = perf_counter()
        out = original(*a, **k)
        latencies.append(perf_counter() - t0)
        return out

    simulator.control_step = timed_step
    try:
        return fn(*args)
    finally:
        simulator.control_step = original


def _same_bytes(a: str, b: str) -> bool:
    if not os.path.exists(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _latency_metrics(res: Outcome, latencies: list, what: str) -> None:
    """p50 over every sample; p99 per block of MIN_OPS consecutive samples,
    median over the blocks, so one burst of host noise moves one block."""
    n = len(latencies)
    blocks = [latencies[i:i + MIN_OPS]
              for i in range(0, n - MIN_OPS + 1, MIN_OPS)]
    if not blocks:
        raise ValueError(f"{n} samples; a p99 needs {MIN_OPS}")
    res.metrics["op_p50_ms"] = (percentile(latencies, 50) * 1e3, "ms",
                                f"p50 of {n} {what}")
    res.metrics["op_p99_ms"] = (
        statistics.median(percentile(b, 99) for b in blocks) * 1e3, "ms",
        f"median of the p99 of {len(blocks)} blocks of {MIN_OPS} {what}")


# --------------------------------------------------------------------------
# pose sweep

def prepare_sweep(spec: SweepSpec, root: str, seed: int):
    """Set-up: config, the first pass's poses, one warm-up pose."""
    cfg = config.load_config(os.path.join(root, spec.config))
    poses = inputs.sweep_poses(cfg, _rng(seed, 0), spec.pass_poses,
                               spec.tilt_max)
    _pose_pipeline(cfg, poses[0])
    return cfg, poses


def _pose_pipeline(cfg, pose):
    """jacobian, static bias wrench, cold distribute, modal poles."""
    model = cfg.model
    zeros = np.zeros(model.actuator_count)
    jac = kinematics.jacobian(model.geometry, pose)
    wrench = dynamics.bias_force(model, pose, np.zeros(model.manifold_dim))
    try:
        forces = force_distribution.distribute(jac, wrench, zeros, zeros,
                                               cfg.constraints)
    except InfeasibleWrench:
        forces = None
    modes = system.predicted_modal_response(model, cfg.gains, pose)
    return jac, wrench, forces, modes


def _sweep_pass(cfg, poses, latencies: list, tr=None, first_op=0):
    results = []
    t0 = perf_counter()
    for i, pose in enumerate(poses):
        if tr is not None:
            tr.current_op = first_op + i
        start = perf_counter()
        try:
            results.append(_pose_pipeline(cfg, pose))
        except ParactlError as exc:
            results.append(exc)
        latencies.append(perf_counter() - start)
    return results, perf_counter() - t0


def _sweep_failures(cfg, results) -> tuple[dict, int, list]:
    """Failed poses with the reason (raised; verdict contradicting the LP
    oracle; forces off the wrench or out of the admissible set; a modal
    mass below the no-load mass or an unstable predicted pole), the number
    of boundary ties, and the active bounds of each feasible result."""
    con = cfg.constraints
    zeros = np.zeros(cfg.model.actuator_count)
    m0 = cfg.gains.no_load_mass
    bad = {i: f"raised {r!r}" for i, r in enumerate(results)
           if isinstance(r, Exception)}
    ok = [i for i, r in enumerate(results) if i not in bad]
    lo, hi = oracle.force_bounds(con, zeros, zeros)
    margins = np.concatenate([
        oracle.feasibility_margins([results[i][0] for i in chunk],
                                   [results[i][1] for i in chunk], lo, hi)
        for chunk in (ok[k:k + ORACLE_CHUNK]
                      for k in range(0, len(ok), ORACLE_CHUNK))]) \
        if ok else np.zeros(0)
    verdicts = [results[i][2] is not None for i in ok]
    for k in oracle.verdict_mismatches(margins, verdicts):
        bad[ok[k]] = (f"verdict {'feasible' if verdicts[k] else 'infeasible'}"
                      f" but oracle margin {margins[k]:+.3g} N")
    active = []
    for i in ok:
        jac, wrench, forces, modes = results[i]
        if forces is not None:
            miss = float(np.max(np.abs(jac.T @ forces - wrench)))
            if miss > CHECK_TOL * max(1.0, float(np.max(np.abs(wrench)))):
                bad[i] = f"forces miss the wrench by {miss:.3g}"
            elif not in_constraint_set(con, forces, zeros, zeros):
                bad[i] = "forces outside the admissible set"
            active.append(int(np.count_nonzero(
                active_pattern(con, forces, zeros, zeros))))
        if any(m.modal_mass < m0 * (1 - 1e-9) or np.any(m.poles.real >= 0)
               for m in modes):
            bad[i] = "modal mass below m0 or an unstable predicted pole"
    ties = int(np.count_nonzero(np.abs(margins) <= oracle.TIE_TOL))
    return bad, ties, active


def run_sweep(spec: SweepSpec, root: str, seed: int, seconds: float,
              traced: bool, work_dir: str, prepared) -> Outcome:
    cfg, first = prepared
    res = Outcome()
    tr = tracing.Tracer()
    if traced:
        _traced_load_config(tr, root, spec.config)
    latencies: list[float] = []
    walls, base_walls, active = [], [], []
    infeasible = ties = 0
    while True:
        index = len(walls)
        poses = first if index == 0 else inputs.sweep_poses(
            cfg, _rng(seed, index), spec.pass_poses, spec.tilt_max)
        if traced:
            tr.install(BINDINGS)
        try:
            results, wall = _sweep_pass(cfg, poses, latencies,
                                        tr if traced else None, res.attempted)
        finally:
            tr.uninstall()
        if traced:   # the same pass untraced: base of the tracing overhead
            base_walls.append(_sweep_pass(cfg, poses, [])[1])
        walls.append(wall)
        # checked pass by pass so memory does not grow with run length
        bad, pass_ties, pass_active = _sweep_failures(cfg, results)
        res.attempted += len(results)
        res.failed += len(bad)
        res.notes += [f"failed: pass {index} pose {i}: {why}"
                      for i, why in sorted(bad.items())]
        ties += pass_ties
        active += pass_active
        infeasible += sum(1 for r in results
                          if not isinstance(r, Exception) and r[2] is None)
        if index == 0:
            feasible = [np.linalg.norm(r[2]) for r in results
                        if not isinstance(r, Exception) and r[2] is not None]
            res.extras["force_norm_mean"] = (float(np.mean(feasible))
                                             if feasible else 0.0)
        if sum(walls) >= seconds and res.attempted >= MIN_OPS:
            break
    res.extras.update(
        ops=res.attempted, wall_s=sum(walls), tracer=tr,
        overhead_s=sum(walls) - sum(base_walls),
        overhead_base_s=sum(base_walls),
        active_bounds_mean=float(np.mean(active)) if active else 0.0)
    res.notes.append(f"{len(walls)} passes, {res.attempted} poses, "
                     f"{infeasible} infeasible, {ties} within "
                     f"{oracle.TIE_TOL:g} N of the feasibility boundary")
    if not traced:
        res.metrics["ops_per_s"] = (res.attempted / sum(walls), "1/s",
                                    f"{res.attempted} poses over "
                                    f"{len(walls)} timed passes")
        _latency_metrics(res, latencies, "poses")
    return res


PREPARE = {TrackSpec: prepare_track, SweepSpec: prepare_sweep}
RUN = {TrackSpec: run_track, SweepSpec: run_sweep}
