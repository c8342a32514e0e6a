"""CSV serialization of closed-loop traces.

One row per control tick, columns in `simulator.trace_columns` order.
Numbers carry 9 significant digits, non-finite ones print as nan, and the
writer is deterministic byte for byte for equal inputs.
"""
from __future__ import annotations

import numpy as np

from .simulator import TraceLog, trace_columns


def trace_header(manifold_dim: int, actuator_count: int) -> list[str]:
    return [prefix if width is None else f"{prefix}_{i + 1}"
            for _, prefix, width in trace_columns(manifold_dim, actuator_count)
            for i in range(1 if width is None else width)]


def write_trace(trace: TraceLog, path: str) -> None:
    table = trace.table
    rows = np.where(np.isfinite(table), table, np.nan).tolist()
    line = ",".join(["%.9g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace_header(trace.manifold_dim,
                                       trace.actuator_count)) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def read_trace(path: str) -> TraceLog:
    """Parse a trace CSV back into memory; accel_cmd comes back NaN."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    dim = sum(1 for name in header if name.startswith("eta_"))
    count = sum(1 for name in header if name.startswith("fc_"))
    table = np.array(rows, float).reshape(len(rows), len(header))
    return TraceLog(manifold_dim=dim, actuator_count=count, table=table)
