#!/usr/bin/env python3
"""Show that one set of actuator gains controls the whole parallel robot.

Regulates a configured robot back to its home pose after an initial
offset, projects the pose error onto the decoupled modes, and compares
each modal trace against a single actuator carrying that mode's modal
mass with the *same* gains.  The match is the whole point: tuning one
actuator tunes the robot, no gain scheduling over the workspace.
"""
import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from paractl import modal_regulation, parse_config, write_trace

PLANAR3 = Path(__file__).resolve().parent.parent / "configs" / "planar3.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(PLANAR3))
    parser.add_argument("--k0", type=float, default=None,
                        help="back-EMF constant for the model and the gains "
                             "(try 0.5 to split the modal dampings)")
    parser.add_argument("--offset", default=None,
                        help="comma-separated tangent vector from home to "
                             "the start pose")
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--out", default=None,
                        help="optional trace CSV path")
    args = parser.parse_args()

    with open(args.config) as fh:
        data = json.load(fh)
    if args.k0 is not None:
        data["actuator_params"]["k0"] = args.k0
    cfg = parse_config(data)
    model = cfg.model
    offset = 0.01 * np.array([np.cos(0.6), np.sin(0.6)]) \
        if args.offset is None else np.array(args.offset.split(","), float)
    if offset.shape != (model.manifold_dim,):
        parser.error(f"--offset needs {model.manifold_dim} numbers")
    sim = cfg.sim
    if args.duration is not None:
        sim = replace(sim, duration=args.duration)

    trace, matches = modal_regulation(model, cfg.gains, cfg.constraints,
                                      cfg.home_pose, offset, sim)
    if args.out:
        write_trace(trace, args.out)
        print(f"trace written to {args.out}")
    print(f"robot: {model.actuator_count} cables, {model.manifold_dim} pose "
          f"freedoms; controller {cfg.controller_block} "
          f"k0={model.actuator.back_emf:g} shared by every actuator")
    print(f"{'mode':>4} {'modal mass':>11} {'poles':>20} "
          f"{'rms mismatch':>13} {'settle sys':>11} {'settle 1-act':>13}")
    for j, match in enumerate(matches):
        poles = ", ".join(f"{p.real:.3f}" for p in match.poles)
        print(f"{j + 1:>4} {match.modal_mass:>11.6f} {poles:>20} "
              f"{match.mismatch:>12.2%} {match.settle_system:>10.3f}s "
              f"{match.settle_single:>12.3f}s")


if __name__ == "__main__":
    main()
