"""Span tracing from outside the program.

The tracer replaces module-level bindings of public `paractl` functions
(the names the calling module looks up at run time, such as the
`point_mass_tables` that `simulator` and `system` each import) with
wrappers that record one span per call: name, start, end, parent span,
the operation (control tick or sweep pose) it belongs to, and whether it
raised.  Spans stay in memory in flat arrays and are written out once the
workload ends.  Nothing inside the package is edited.
"""
from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

from stats import percentile

SETUP = -1      # op id of set-up work (config loading)
EPISODE = -2    # op id of per-episode work outside any control tick


class Tracer:
    """Records spans of wrapped functions; install() patches, uninstall()
    restores every original binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.current_op = SETUP
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def install(self, bindings, hooks=None) -> None:
        """Wrap every (owner, attribute, span name) binding.

        `hooks` maps a span name to (on_enter, on_result): on_enter() runs
        before the span opens and may change the current op; on_result
        receives the return value after the span closes.
        """
        hooks = hooks or {}
        for owner, attr, name in bindings:
            self._wrap(owner, attr, name, *hooks.get(name, (None, None)))

    def _wrap(self, owner, attr: str, name: str, on_enter, on_result) -> None:
        fn = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, tracer = self._stack, self
        name_col, parent, op = self.name_id, self.parent, self.op
        start, end, raised = self.start, self.end, self.raised

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def spans(self) -> dict:
        """Columns of every recorded span as numpy arrays; `name_id`
        indexes `names`."""
        cols = {"name_id": (self.name_id, np.int32),
                "parent": (self.parent, np.int64),
                "op": (self.op, np.int64),
                "start": (self.start, np.float64),
                "end": (self.end, np.float64),
                "raised": (self.raised, np.int8)}
        out = {key: np.frombuffer(col, dtype=dtype).copy()
               for key, (col, dtype) in cols.items()}
        out["names"] = np.asarray(self.names, dtype=str)
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.spans())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and lie inside it; their durations add up to the covered time.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


LAYERS = ("kinematics", "dynamics", "force_distribution", "actuator",
          "system", "simulator", "trajectory", "trace_io")
# layers that do work in every operation of every workload
PER_OP_LAYERS = ("kinematics", "dynamics", "force_distribution", "actuator",
                 "system")


def layer_metrics(spans: dict, ops: int, wall_s: float,
                  extras: dict) -> dict:
    """Per-layer metrics of a traced run, name -> (value, unit).

    Shares (`pct`) are of the traced wall time of the measured phase, so
    they stay defined, as 0, for layers a workload never calls.  `ops` is
    the number of control ticks or sweep poses measured.
    """
    names = list(spans["names"])
    name_id, parent, op = spans["name_id"], spans["parent"], spans["op"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], parent)
    measured = op != SETUP

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def select(*wanted):
        return measured & np.isin(name_id, ids(*wanted))

    def pct(seconds):
        return 100.0 * float(seconds) / wall_s

    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    out = {}
    for name in LAYERS:
        mask = measured & np.isin(name_id, np.nonzero(layer == name)[0])
        out[f"{name}.self_pct"] = (pct(own[mask].sum()), "%")
    for name in PER_OP_LAYERS:
        mask = (op >= 0) & np.isin(name_id, np.nonzero(layer == name)[0])
        per_op = np.bincount(op[mask], weights=own[mask], minlength=ops)
        out[f"{name}.self_us_p50"] = (percentile(per_op, 50) * 1e6, "us")

    for key, span_names in (
            ("dynamics.rigid_tables.plant", ["dynamics.rigid_tables.plant"]),
            ("dynamics.rigid_tables.controller",
             ["dynamics.rigid_tables.controller"]),
            ("dynamics.point_tables", ["dynamics.point_tables.plant",
                                       "dynamics.point_tables.controller"])):
        mask = select(*span_names)
        out[f"{key}.pct"] = (pct(duration[mask].sum()), "%")
        out[f"{key}.calls_per_op"] = (np.count_nonzero(mask) / ops, "count")
    for key, span_name, times in (
            ("dynamics.modal_decomposition.pct",
             "dynamics.modal_decomposition", duration),
            ("simulator.step_plant.self_pct", "simulator.step_plant", own),
            ("simulator.run_closed_loop.self_pct",
             "simulator.run_closed_loop", own),
            ("system.control_step.self_pct", "system.control_step", own),
            ("kinematics.fk.pct", "kinematics.forward_kinematics", duration),
            ("actuator.closed_loop_poles.pct", "actuator.closed_loop_poles",
             duration),
            ("trajectory.sample.pct", "trajectory.sample", duration),
            ("trace_io.write_trace.pct", "trace_io.write_trace", duration)):
        out[key] = (pct(times[select(span_name)].sum()), "%")
    out.update(_fk_counters(names, name_id, parent, measured))

    mask = select("force_distribution.distribute")
    calls = duration[mask]
    out["force_distribution.distribute.us_p50"] = (
        percentile(calls, 50) * 1e6, "us")
    out["force_distribution.distribute.us_p99"] = (
        percentile(calls, 99) * 1e6, "us")
    out["force_distribution.distribute.calls_per_op"] = (calls.size / ops,
                                                        "count")
    out["force_distribution.infeasible_frac"] = (
        float(np.count_nonzero(spans["raised"][mask])) / calls.size, "1")
    out["force_distribution.active_bounds_mean"] = (
        extras["active_bounds_mean"], "count")
    out["force_distribution.force_norm_mean"] = (extras["force_norm_mean"],
                                                 "N")
    out["trace_io.bytes_per_op"] = (extras.get("trace_bytes_per_op", 0.0),
                                    "B/op")
    out["simulator.tracking.err_rms"] = (extras.get("err_rms", 0.0), "1")
    out["simulator.tracking.err_max"] = (extras.get("err_max", 0.0), "1")
    load = ~measured & np.isin(name_id, ids("config.load_config"))
    out["config.load_config.ms"] = (duration[load].sum() * 1e3, "ms")
    out["tracing.op_ms"] = (wall_s / ops * 1e3, "ms")
    out["tracing.overhead_ms"] = (extras["overhead_s"] * 1e3, "ms")
    out["tracing.overhead_pct"] = (
        100.0 * extras["overhead_s"] / extras["overhead_base_s"], "%")
    return out


def _fk_counters(names, name_id, parent, measured) -> dict:
    """Forward-kinematics work per call from the spans of its residual
    (inverse kinematics) and jacobian evaluations.  Every run of damped
    candidates after a jacobian ends in one accepted step, so accepted
    steps are jacobian evaluations followed by a residual evaluation."""
    def nid(name):
        return names.index(name) if name in names else -1

    fk = np.nonzero(measured & (name_id == nid(
        "kinematics.forward_kinematics")))[0]
    calls = fk.size
    if calls == 0:
        return {"kinematics.fk.jacobian_evals_per_call": (0.0, "count"),
                "kinematics.fk.residual_evals_per_call": (0.0, "count"),
                "kinematics.fk.accept_ratio": (0.0, "1")}
    child = np.nonzero(np.isin(parent, fk))[0]
    kind = name_id[child]
    is_jac = kind == nid("kinematics.jacobian")
    is_res = kind == nid("kinematics.inverse_kinematics")
    same_parent = parent[child][:-1] == parent[child][1:]
    accepted = np.count_nonzero(same_parent & is_jac[:-1] & is_res[1:])
    residuals = np.count_nonzero(is_res)
    return {"kinematics.fk.jacobian_evals_per_call":
            (np.count_nonzero(is_jac) / calls, "count"),
            "kinematics.fk.residual_evals_per_call":
            (residuals / calls, "count"),
            "kinematics.fk.accept_ratio": (accepted / residuals, "1")}
