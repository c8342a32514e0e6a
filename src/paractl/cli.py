"""Command-line harness: validate, simulate, analyze, workspace, tune-check.

Exit codes: 0 success, 1 error, 2 simulation ended braked.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .config import load_config
from .dynamics import bias_force, mass_matrix, modal_decomposition
from .errors import NumericBlowup, ParactlError
from .force_distribution import wrench_feasible
from .kinematics import inverse_kinematics, jacobian
from .simulator import run_closed_loop, tracking_metrics
from .trace_io import write_trace
from .trajectory import load_trajectory
from .actuator import closed_loop_poles, stability_check
from dataclasses import replace


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse insists on exiting with status 2; route through status 1
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="paractl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("simulate", help="closed-loop run, trace to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="print kinematics/dynamics at a pose")
    p.add_argument("--config", required=True)
    p.add_argument("--pose", required=True,
                   help="comma-separated pose numbers")

    p = sub.add_parser("workspace", help="wrench-feasibility map to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="NX,NY")
    p.add_argument("--out", required=True)

    p = sub.add_parser("tune-check", help="stability report over a mass sweep")
    p.add_argument("--config", required=True)
    return parser


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: ok")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    geom = cfg.model.geometry
    traj = load_trajectory(args.trajectory, rigid=geom.is_rigid,
                           dim=geom.manifold_dim)
    sim = cfg.sim
    if args.duration is not None:
        sim = replace(sim, duration=args.duration)
    if args.seed:
        sim = replace(sim, seed=args.seed)
    try:
        trace = run_closed_loop(cfg.model, cfg.gains, cfg.constraints, traj,
                                sim, initial_pose=cfg.home_pose,
                                evaluate_at_reference=cfg.evaluate_at_reference)
    except NumericBlowup as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 1
    write_trace(trace, args.out)
    metrics = tracking_metrics(trace)
    print(f"wrote {len(trace)} rows to {args.out}; "
          f"max error {metrics.max_error:.6g}, rms {metrics.rms_error:.6g}")
    if metrics.brake_events:
        print("run ended braked", file=sys.stderr)
        return 2
    return 0


def _fmt_matrix(mat: np.ndarray) -> str:
    return "\n".join("  [" + ", ".join(f"{v: .9g}" for v in row) + "]"
                     for row in np.atleast_2d(mat))


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    from .config import _parse_pose
    pose = _parse_pose([float(x) for x in args.pose.split(",")], cfg.manifold)
    model = cfg.model
    lengths = inverse_kinematics(model.geometry, pose)
    jac = jacobian(model.geometry, pose)
    mass = mass_matrix(model, pose)
    decomp = modal_decomposition(model, pose)
    print("actuator values:", ", ".join(f"{v:.9g}" for v in lengths))
    print("jacobian:")
    print(_fmt_matrix(jac))
    print("mass matrix:")
    print(_fmt_matrix(mass))
    print("decoupling eigenvalues:",
          ", ".join(f"{v:.9g}" for v in decomp.eigenvalues))
    print("modal masses:",
          ", ".join(f"{v:.9g}" for v in decomp.modal_masses))
    # one set of masses for both lines, so they cannot disagree
    mode_poles = closed_loop_poles(cfg.gains, model.actuator,
                                   decomp.modal_masses)
    for i, (m, pole_set) in enumerate(zip(decomp.modal_masses, mode_poles)):
        poles = ", ".join(f"{p.real:.6g}{p.imag:+.6g}j" for p in pole_set)
        print(f"mode {i + 1} (mass {m:.9g}): poles {poles}")
    return 0


def _cmd_workspace(args) -> int:
    cfg = load_config(args.config)
    try:
        nx, ny = (int(x) for x in args.grid.split(","))
    except ValueError:
        raise _ArgumentError("--grid needs NX,NY") from None
    model = cfg.model
    d = model.manifold_dim
    if d < 2:
        raise _ArgumentError("workspace map needs at least 2 pose freedoms")
    lo, hi = cfg.workspace_min, cfg.workspace_max
    from .kinematics import retract, pose_to_chart
    home_chart = pose_to_chart(cfg.home_pose)
    zero = np.zeros(model.actuator_count)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "feasible"])
        for xv in np.linspace(lo[0], hi[0], nx):
            for yv in np.linspace(lo[1], hi[1], ny):
                step = np.zeros(d)
                step[0] = xv - home_chart[0]
                step[1] = yv - home_chart[1]
                pose = retract(cfg.home_pose, step)
                try:
                    hold = bias_force(model, pose, np.zeros(d))
                    ok = wrench_feasible(jacobian(model.geometry, pose),
                                         hold, zero, zero, cfg.constraints)
                except ParactlError:
                    ok = False
                writer.writerow([f"{xv:.9g}", f"{yv:.9g}", int(ok)])
    print(f"wrote {nx * ny} cells to {args.out}")
    return 0


def _cmd_tune_check(args) -> int:
    cfg = load_config(args.config)
    m0 = cfg.gains.no_load_mass
    base = m0 if m0 > 0.0 else 1.0
    masses = [base, 2 * base, 10 * base, np.inf]
    report = stability_check(cfg.gains, cfg.model.actuator, masses)
    for mass, worst in zip(report.masses, report.max_real_parts):
        label = "inf" if np.isinf(mass) else f"{mass:.6g}"
        verdict = "stable" if worst < -1e-9 else "NOT STABLE"
        print(f"mass {label}: max pole real part {worst:.6g} ({verdict})")
    print("stability check:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def run_command(argv) -> int:
    """Run one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "workspace":
            return _cmd_workspace(args)
        if args.command == "tune-check":
            return _cmd_tune_check(args)
        raise _ArgumentError(f"unknown command {args.command!r}")
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParactlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
