"""CSV serialization of closed-loop traces.

One row per control tick, columns in `simulator.trace_columns` order.
Numbers carry 9 significant digits, non-finite ones print as nan, and the
writer is deterministic byte for byte for equal inputs.  The writer
rewrites an existing file in place and cuts it to length at the end,
because truncating a just-written file to zero makes ext4 flush it on
close, and the next truncating open of it waits tens of milliseconds for
that flush.
"""
from __future__ import annotations

import os
import stat

import numpy as np

from .errors import ParseError
from .simulator import TraceLog, trace_columns


def trace_header(manifold_dim: int, actuator_count: int) -> list[str]:
    return [prefix if width is None else f"{prefix}_{i + 1}"
            for _, prefix, width in trace_columns(manifold_dim, actuator_count)
            for i in range(1 if width is None else width)]


def _open_untruncated(path: str, flags: int) -> int:
    """`open`'s own flags and new-file mode, minus O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_trace(trace: TraceLog, path: str) -> None:
    table = trace.table
    rows = np.where(np.isfinite(table), table, np.nan).tolist()
    line = ",".join(["%.9g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="", opener=_open_untruncated) as fh:
        fh.write(",".join(trace_header(trace.manifold_dim,
                                       trace.actuator_count)) + "\n")
        fh.writelines(line % tuple(row) for row in rows)
        # drop a longer old file's tail; a device such as /dev/null has none
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def read_trace(path: str) -> TraceLog:
    """Parse a trace CSV back into memory; accel_cmd comes back NaN.

    A header that is not `trace_header`'s, or a row that is not one number
    per header column, raises ParseError naming the file and the line.
    """
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [(number, line.split(","))
                for number, line in enumerate(fh, 2) if line.strip()]
    dim = sum(1 for name in header if name.startswith("eta_"))
    count = sum(1 for name in header if name.startswith("fc_"))
    if header != trace_header(dim, count):
        raise ParseError(f"{path}: line 1: not a trace header")
    table = np.empty((len(rows), len(header)))
    for i, (number, fields) in enumerate(rows):
        if len(fields) != len(header):
            raise ParseError(f"{path}: line {number}: {len(fields)} fields, "
                             f"the header has {len(header)}")
        try:
            table[i] = fields
        except ValueError as exc:
            raise ParseError(f"{path}: line {number}: {exc}") from exc
    return TraceLog(manifold_dim=dim, actuator_count=count, table=table)
