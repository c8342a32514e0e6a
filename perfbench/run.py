#!/usr/bin/env python3
"""paractl benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload planar3_track --seed 1 \
        --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its `src/` tree.  With `--trace 0` the run prints every end-to-end metric,
with `--trace 1` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in turn.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("planar3_track", "cube8_track", "cube8_sweep")
SETUP_PROBES = 5          # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms",
              "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up the workload, report readiness and exit
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _command(args, workload: str, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


def _setup_seconds(args) -> list[float]:
    """Process start to first tick or pose ready, once per fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(_command(args, args.workload, "--probe"),
                              stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(_command(args, name), cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "paractl" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in THREAD_VARS:           # one BLAS thread, set before numpy
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    prepared = workloads.PREPARE[type(spec)](spec, str(ROOT), args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    traced = args.trace == 1
    setup_times = [] if traced else _setup_seconds(args)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=out_dir)   # trace CSVs of this run
    try:
        outcome = workloads.RUN[type(spec)](spec, str(ROOT), args.seed,
                                            args.seconds, traced, work_dir,
                                            prepared)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if traced:
        tr = outcome.extras["tracer"]
        spans = tr.spans()
        tr.write(str(out_dir / f"spans-{args.workload}-{args.seed}.npz"))
        metrics = {name: (value, unit, "") for name, (value, unit) in
                   tracer.layer_metrics(spans, outcome.extras["ops"],
                                        outcome.extras["wall_s"],
                                        outcome.extras).items()}
    else:
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = (statistics.median(setup_times), "s",
                              f"median of {len(setup_times)} fresh "
                              "processes")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", "peak resident set of this process")
        metrics = {name: metrics[name] for name in END_TO_END}

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit, how) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({how})" if how else ""))
    print(f"fail_frac {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
