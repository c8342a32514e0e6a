"""Feasible actuator-force selection for a commanded wrench.

The admissible set couples a minimum-tension floor (cables must not go
slack) with hardware limits on the commanded force magnitude.  Both reduce
to per-actuator box bounds on the wrench-producing force component, so the
selection problem is

    minimize ||f||^2   subject to   J^T f = wrench,  lo <= f <= hi

solved by an active-set method: a bounded-least-squares pass proves or
refutes feasibility, then a least-norm pass walks bound activations to the
optimum.  Infeasibility is reported, never clamped away.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWrench, RankDeficient

RESIDUAL_TOL = 1e-8
MAX_ACTIVE_SET_ITERS = 200


def _small_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve sized for a handful of actuators: normal
    equations when well posed, SVD fallback otherwise."""
    m, n = a.shape
    try:
        if n <= m:
            return np.linalg.solve(a.T @ a, a.T @ b)
        return a.T @ np.linalg.solve(a @ a.T, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


@dataclass(frozen=True)
class ForceConstraints:
    """Per-actuator minimum tension and command-force magnitude limit."""

    min_tension: np.ndarray
    max_command: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_tension",
                           np.atleast_1d(np.asarray(self.min_tension, float)))
        object.__setattr__(self, "max_command",
                           np.atleast_1d(np.asarray(self.max_command, float)))
        if np.any(self.min_tension < 0.0):
            raise ValueError("minimum tensions must be nonnegative")
        if np.any(self.max_command <= 0.0):
            raise ValueError("command limits must be positive")

    @classmethod
    def uniform(cls, count: int, min_tension: float = 0.0,
                max_command: float = np.inf) -> "ForceConstraints":
        return cls(np.full(count, float(min_tension)),
                   np.full(count, float(max_command)))


def in_constraint_set(con: ForceConstraints, forces: np.ndarray,
                      command_offset: np.ndarray, no_load: np.ndarray,
                      tol: float = 1e-9) -> bool:
    """Membership test: tensions at or above the floor, commanded
    magnitudes within limits."""
    forces = np.asarray(forces, float)
    command_offset = np.asarray(command_offset, float)
    no_load = np.asarray(no_load, float)
    if not (forces.shape == command_offset.shape == no_load.shape
            == con.min_tension.shape):
        raise ValueError("force vectors differ in length")
    tension_ok = np.all(no_load - forces >= con.min_tension - tol)
    limit_ok = np.all(np.abs(forces + command_offset)
                      <= con.max_command + tol)
    return bool(tension_ok and limit_ok)


def _force_bounds(con: ForceConstraints, command_offset: np.ndarray,
                  no_load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = -con.max_command - command_offset
    hi = np.minimum(no_load - con.min_tension,
                    con.max_command - command_offset)
    return lo, hi


def _releasable(status: np.ndarray, grad: np.ndarray, tol) -> np.ndarray:
    """Bound variables whose descent gradient points into the box by more
    than `tol`."""
    return np.where(((status == -1) & (grad > tol))
                    | ((status == 1) & (grad < -tol)))[0]


def _bounded_least_squares(mat: np.ndarray, target: np.ndarray,
                           lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min ||mat @ f - target||^2 over the box, Lawson-Hanson style.

    Variables start at their nearest finite bound (or zero when unbounded)
    and are freed one at a time by the strongest first-order violation,
    lowest index breaking ties; the inner loop clips line searches back
    onto the box.  A violation counts when it exceeds 1e-10 of the target
    scale or, while the residual is still above RESIDUAL_TOL, the
    gradient's rounding error.
    """
    n = mat.shape[1]
    status = np.zeros(n, dtype=int)  # -1 at lo, 0 free, +1 at hi
    f = np.zeros(n)
    for k in range(n):
        if np.isfinite(lo[k]) and abs(lo[k]) <= abs(hi[k]):
            status[k], f[k] = -1, lo[k]
        elif np.isfinite(hi[k]):
            status[k], f[k] = 1, hi[k]
    scale = max(1.0, float(np.max(np.abs(target))) if target.size else 1.0)
    for _ in range(MAX_ACTIVE_SET_ITERS):
        resid = target - mat @ f
        grad = mat.T @ resid  # descent direction per variable
        candidates = _releasable(status, grad, 1e-10 * scale)
        if candidates.size == 0 \
                and np.max(np.abs(resid), initial=0.0) > RESIDUAL_TOL:
            # the fit is not good enough to accept, so also free on any
            # gradient above its rounding error: the scale-relative
            # threshold can strand a small but real descent direction
            size = np.abs(mat)
            tol = n * np.finfo(float).eps \
                * (size.T @ (size @ np.abs(f) + np.abs(target)))
            candidates = _releasable(status, grad, tol)
        if candidates.size == 0:
            return f
        best = candidates[np.argmax(np.abs(grad[candidates]))]
        status[best] = 0
        for _ in range(MAX_ACTIVE_SET_ITERS):
            free = np.where(status == 0)[0]
            rhs = target - mat[:, status != 0] @ f[status != 0]
            z = _small_lstsq(mat[:, free], rhs)
            inside = (z >= lo[free] - 1e-12) & (z <= hi[free] + 1e-12)
            if np.all(inside):
                f[free] = np.clip(z, lo[free], hi[free])
                break
            # walk toward z until the first free variable hits a bound
            step = 1.0
            hitters = []
            for idx, k in enumerate(free):
                dz = z[idx] - f[k]
                if dz > 0 and np.isfinite(hi[k]):
                    limit = (hi[k] - f[k]) / dz
                elif dz < 0 and np.isfinite(lo[k]):
                    limit = (lo[k] - f[k]) / dz
                else:
                    continue
                if limit < step - 1e-14:
                    step, hitters = limit, [k]
                elif limit <= step + 1e-14:
                    hitters.append(k)
            f[free] = f[free] + step * (z - f[free])
            for k in hitters:
                if z[free.tolist().index(k)] > f[k]:
                    status[k], f[k] = 1, hi[k]
                else:
                    status[k], f[k] = -1, lo[k]
            if not hitters:
                f[free] = np.clip(f[free], lo[free], hi[free])
                break
    return f


def _min_norm_refine(jac: np.ndarray, wrench: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Walk active bounds from a feasible point to the least-norm optimum.

    Classic primal active-set iteration: project the current point onto
    the equality constraint's affine set restricted to free variables; if
    the projection step is blocked, activate the blocking bound; at a
    stationary point, release the bound with the worst multiplier sign.
    """
    n = jac.shape[0]
    active = np.zeros(n, dtype=int)
    active[f <= lo + 1e-10] = -1
    active[f >= hi - 1e-10] = 1
    for _ in range(MAX_ACTIVE_SET_ITERS):
        free = np.where(active == 0)[0]
        if free.size:
            nu = _small_lstsq(jac[free], f[free])
        else:
            nu = _small_lstsq(jac, f)
        p = np.zeros(n)
        if free.size:
            p[free] = jac[free] @ nu - f[free]
        if np.max(np.abs(p)) <= 1e-12:
            # stationary on this active set; check bound multipliers
            shadow = jac @ nu
            worst, worst_gap = -1, -1e-10
            for k in np.where(active != 0)[0]:
                gap = (shadow[k] - f[k]) if active[k] == 1 \
                    else (f[k] - shadow[k])
                if gap < worst_gap:
                    worst, worst_gap = k, gap
            if worst < 0:
                return f
            active[worst] = 0
            continue
        step, blocker, blocker_side = 1.0, -1, 0
        for k in free:
            if p[k] > 1e-15 and np.isfinite(hi[k]):
                limit, side = (hi[k] - f[k]) / p[k], 1
            elif p[k] < -1e-15 and np.isfinite(lo[k]):
                limit, side = (lo[k] - f[k]) / p[k], -1
            else:
                continue
            if limit < step - 1e-14:
                step, blocker, blocker_side = limit, k, side
        f = f + max(step, 0.0) * p
        if blocker >= 0 and step < 1.0 - 1e-14:
            active[blocker] = blocker_side
            f[blocker] = hi[blocker] if blocker_side == 1 else lo[blocker]
    return f


def _try_active_set(jac: np.ndarray, wrench: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, active: np.ndarray):
    """Solve the least-norm KKT system for one bound pattern; return the
    force vector when primal and dual feasibility both hold, else None.
    KKT is sufficient here, so a verified pattern is the optimum."""
    n = jac.shape[0]
    f = np.zeros(n)
    f[active == -1] = lo[active == -1]
    f[active == 1] = hi[active == 1]
    free = np.where(active == 0)[0]
    if free.size:
        rhs = wrench - jac[active != 0].T @ f[active != 0]
        # least-norm fill of the free variables; an inconsistent pattern
        # shows up in the residual check below
        f[free] = _small_lstsq(jac[free].T, rhs)
        if np.any(f[free] < lo[free] - 1e-11) or \
                np.any(f[free] > hi[free] + 1e-11):
            return None
        nu = _small_lstsq(jac[free], f[free])
    else:
        nu = _small_lstsq(jac, f)
    if np.max(np.abs(jac.T @ f - wrench)) > RESIDUAL_TOL:
        return None
    shadow = jac @ nu
    for k in np.where(active != 0)[0]:
        gap = (shadow[k] - f[k]) if active[k] == 1 else (f[k] - shadow[k])
        if gap < -1e-10:
            return None
    return np.clip(f, lo, hi)


def _resolve_active_set(jac: np.ndarray, wrench: np.ndarray, lo: np.ndarray,
                        hi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Re-solve the equality-constrained least-norm problem exactly on the
    final active set, removing accumulated line-search roundoff."""
    active = np.zeros(jac.shape[0], dtype=int)
    active[f <= lo + 1e-9] = -1
    active[f >= hi - 1e-9] = 1
    out = f.copy()
    out[active == -1] = lo[active == -1]
    out[active == 1] = hi[active == 1]
    free = np.where(active == 0)[0]
    if free.size:
        rhs = wrench - jac[active != 0].T @ out[active != 0]
        gram = jac[free].T @ jac[free]
        try:
            nu = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            nu, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        out[free] = jac[free] @ nu
    if np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9):
        return np.clip(out, lo, hi)
    return f


def active_pattern(con: ForceConstraints, forces: np.ndarray,
                   command_offset: np.ndarray, no_load: np.ndarray,
                   tol: float = 1e-9) -> tuple[int, ...]:
    """Which bound each force sits on (-1 low, 0 free, +1 high); feed back
    into `distribute` as a warm-start hint on the next call."""
    lo, hi = _force_bounds(con, np.asarray(command_offset, float),
                           np.asarray(no_load, float))
    forces = np.asarray(forces, float)
    return tuple(np.where(forces <= lo + tol, -1,
                          np.where(forces >= hi - tol, 1, 0)))


def distribute(jac: np.ndarray, wrench: np.ndarray,
               command_offset: np.ndarray, no_load: np.ndarray,
               con: ForceConstraints, pattern_hint=None) -> np.ndarray:
    """Least-norm actuator forces realizing a wrench inside the admissible
    box, or InfeasibleWrench when no such forces exist.

    `jac` is the (n, d) actuator-value jacobian, whose transpose maps
    actuator forces to wrenches.  `pattern_hint` (from `active_pattern`)
    skips straight to a candidate active set; a verified hint is returned
    immediately, a stale one falls through to the full search.
    """
    jac = np.asarray(jac, float)
    wrench = np.asarray(wrench, float)
    command_offset = np.asarray(command_offset, float)
    no_load = np.asarray(no_load, float)
    gram = jac.T @ jac
    gram_eigs = np.linalg.eigvalsh(gram)
    if gram_eigs[0] <= 1e-20 * max(gram_eigs[-1], 1.0):
        raise RankDeficient("jacobian has deficient column rank")
    lo, hi = _force_bounds(con, command_offset, no_load)
    if np.any(lo > hi + 1e-12):
        raise InfeasibleWrench("force box is empty")
    if pattern_hint is not None and len(pattern_hint) == jac.shape[0]:
        guess = _try_active_set(jac, wrench, lo, hi,
                                np.asarray(pattern_hint, int))
        if guess is not None:
            return guess
    # no bound active: the unconstrained least-norm solution settles it
    free_ln = jac @ np.linalg.solve(gram, wrench)
    if np.all(free_ln >= lo - 1e-12) and np.all(free_ln <= hi + 1e-12):
        return np.clip(free_ln, lo, hi)
    # warm guess: activate the bounds the unconstrained solution violates
    pattern = np.where(free_ln < lo, -1, np.where(free_ln > hi, 1, 0))
    shortcut = _try_active_set(jac, wrench, lo, hi, pattern)
    if shortcut is not None:
        return shortcut
    f = _bounded_least_squares(jac.T, wrench, lo, hi)
    if np.max(np.abs(jac.T @ f - wrench)) > RESIDUAL_TOL:
        raise InfeasibleWrench("wrench outside the achievable set")
    f = _min_norm_refine(jac, wrench, lo, hi, f)
    f = _resolve_active_set(jac, wrench, lo, hi, f)
    if np.max(np.abs(jac.T @ f - wrench)) > RESIDUAL_TOL:
        raise InfeasibleWrench("wrench outside the achievable set")
    return f


def wrench_feasible(jac: np.ndarray, wrench: np.ndarray,
                    command_offset: np.ndarray, no_load: np.ndarray,
                    con: ForceConstraints) -> bool:
    """True when some admissible force vector realizes the wrench."""
    try:
        distribute(jac, wrench, command_offset, no_load, con)
        return True
    except InfeasibleWrench:
        return False
