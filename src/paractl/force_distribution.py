"""Feasible actuator-force selection for a commanded wrench.

The admissible set couples a minimum-tension floor (cables must not go
slack) with hardware limits on the commanded force magnitude.  Both reduce
to per-actuator box bounds on the wrench-producing force component, so the
selection problem is

    minimize ||f||^2   subject to   J^T f = wrench,  lo <= f <= hi

solved by the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983).  It starts from the unconstrained least-norm point
and keeps the wrench rows in its working set throughout.  Every iterate is
the least-norm point for the bounds in its working set, and bounds are
added, most violated first, until none is violated, so the first
admissible iterate is the optimum.  Infeasibility is certified by the
method itself and reported, never clamped away.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd

from .errors import (InfeasibleWrench, NoConvergence, RankDeficient,
                     ValidationError)
from .kinematics import _spd_solve

RESIDUAL_TOL = 1e-8
RANK_TOL = 1e-12   # least eigenvalue ratio of a full-rank J^T J
MAX_ACTIVE_SET_ITERS = 200


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
        if not np.all(self.min_tension >= 0.0):
            raise ValueError("minimum tensions must be nonnegative numbers")
        if not np.all(self.max_command > 0.0):
            raise ValueError("command limits must be positive numbers")

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


def full_rank(gram: np.ndarray) -> bool:
    """The rank test of `distribute` and config validation: a jacobian
    has full column rank when the least eigenvalue of its gram J^T J
    (dsyevd) exceeds RANK_TOL times the largest.  Rounding leaves 1e-16
    on a deficient rank; the shipped robots stay above 1.9e-6."""
    eigs, _, info = dsyevd(gram, compute_v=0)
    if info != 0:
        raise NoConvergence(f"gram eigenvalues failed (dsyevd info {info})")
    return bool(eigs[0] > RANK_TOL * eigs[-1])


def _force_bounds(con: ForceConstraints, command_offset: np.ndarray,
                  no_load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = -con.max_command - command_offset
    hi = np.minimum(no_load - con.min_tension,
                    con.max_command - command_offset)
    return lo, hi


def _pattern_forces(jac: np.ndarray, wrench: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, status: np.ndarray):
    """Forces of one working set (-1 at lo, +1 at hi, 0 free): held ones
    at their bounds, free ones the least-norm fill J_free w of the rest of
    the wrench, w (the wrench rows' multipliers) from one Cholesky solve.
    (f, w), or None when the free rows' gram does not factor."""
    f = np.where(status == 1, hi, lo)
    free = status == 0
    rows = jac[free]
    w = _spd_solve(rows.T @ rows, wrench - jac[~free].T @ f[~free])
    if w is None:
        return None
    f[free] = rows @ w
    return f, w


def _try_active_set(jac: np.ndarray, wrench: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, active: np.ndarray):
    """A bound pattern's forces (`_pattern_forces`) when they pass the KKT
    check, else None; KKT is sufficient here, so they are the optimum.
    The tolerances scale with the largest force, as in the final
    re-solve.  A force held at an infinite limit fails, and so does a
    pattern with fewer free forces than freedoms or an unfactored gram."""
    if np.count_nonzero(active == 0) < jac.shape[1] or \
            not np.isfinite(np.where(active == 1, hi, lo)[active != 0]).all():
        return None
    solved = _pattern_forces(jac, wrench, lo, hi, active)
    if solved is None:
        return None
    f, w = solved
    scale = 1.0 + np.abs(f).max()
    # the bound multipliers active * (J w - f): a negative one is wrong
    if np.any(f < lo - 1e-11 * scale) or np.any(f > hi + 1e-11 * scale) \
            or np.abs(jac.T @ f - wrench).max() > RESIDUAL_TOL * scale \
            or np.any(active * (jac @ w - f) < -1e-10 * scale):
        return None
    return np.clip(f, lo, hi)


def _dual_active_set(jac: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     f: np.ndarray) -> np.ndarray:
    """Goldfarb-Idnani iteration from the unconstrained least-norm point
    `f`; returns the optimal working set (-1 at lo, +1 at hi, 0 free).

    The most violated bound p is approached along z, the part of its
    normal orthogonal to the working set, while the bound multipliers
    move along r, the normal's coordinates in the working set.  The step
    stops when p is reached (p is added) or when a multiplier reaches
    zero first (that bound is dropped, and p is approached again).  A
    working set that already holds n normals admits no primal step, so
    if no multiplier falls either, p cannot be reached: the certificate
    of infeasibility.  A normal dependent on the working set to rounding
    (|z|^2 <= 1e-12, e.g. the last copy of a duplicated cable row) admits
    no primal step either.  Should rounding still add one, the free rows
    lose rank and their gram no longer factors: that add stood in for the
    certificate, so it raises InfeasibleWrench too.

    The arithmetic that writes f, the multipliers, y and r is numpy's, on
    the same operands as ever, so the iterates are pinned bit for bit.
    The bookkeeping is in Python scalars: the free and bound indices as
    sorted lists (fancy-indexing in `nonzero()` order), the search for
    the most violated bound over `f.tolist()` and the ratio test over
    floats (the first extremum wins, as for argmax), and no multiplier
    step while the working set is empty.
    """
    n, d = jac.shape
    status = np.zeros(n, dtype=int)
    mult = np.zeros(n)
    free, bound, changes = list(range(n)), [], 0
    lo_at, hi_at = lo.tolist(), hi.tolist()
    while True:
        at, worst, p = f.tolist(), 1e-12, -1
        for i in free:   # the most violated bound, the first of a tie
            gap = max(lo_at[i] - at[i], at[i] - hi_at[i])
            if gap > worst:
                worst, p = gap, i
        if p < 0:
            return status
        side = 1 if at[p] > hi_at[p] else -1
        target = hi_at[p] if side == 1 else lo_at[p]
        while True:
            rows = jac[free]
            y = _spd_solve(rows.T @ rows, jac[p])
            if y is None:
                raise InfeasibleWrench("wrench outside the achievable set "
                                       "(working set lost rank)")
            t_drop, drop = np.inf, -1
            if bound:
                r = -side * status[bound] * (jac[bound] @ y)
                for i, held, rate in zip(bound, mult[bound].tolist(),
                                         r.tolist()):
                    if rate > 0 and held / rate < t_drop:
                        t_drop, drop = held / rate, i
            reach = 1.0 - jac[p] @ y  # |z|^2 in [0, 1], zero when dependent
            t_add = side * (f[p] - target) / reach \
                if len(free) > d and reach > 1e-12 else np.inf
            if t_add == t_drop == np.inf:
                raise InfeasibleWrench("wrench outside the achievable set")
            if changes == MAX_ACTIVE_SET_ITERS:
                raise NoConvergence(f"force solver made {changes} "
                                    "active-set changes without converging")
            changes += 1
            step = min(t_add, t_drop)
            if t_add < np.inf:
                move = rows @ y
                move[free.index(p)] -= 1.0
                f[free] += step * side * move
            if bound:
                mult[bound] -= step * r
            mult[p] += step
            if t_add <= t_drop:
                status[p], f[p] = side, target
                free.remove(p)
                bisect.insort(bound, p)
                break
            status[drop], mult[drop] = 0, 0.0
            bound.remove(drop)
            bisect.insort(free, drop)


def active_pattern(con: ForceConstraints, forces: np.ndarray,
                   command_offset: np.ndarray, no_load: np.ndarray,
                   tol: float = 1e-9) -> tuple[int, ...]:
    """Which bound each force sits on (-1 low, 0 free, +1 high), within
    tol (1 + max|f|); feed back into `distribute` as a warm-start hint."""
    lo, hi = _force_bounds(con, np.asarray(command_offset, float),
                           np.asarray(no_load, float))
    forces = np.asarray(forces, float)
    tol = tol * (1.0 + np.abs(forces).max())
    return tuple(np.where(forces <= lo + tol, -1,
                          np.where(forces >= hi - tol, 1, 0)))


def distribute(jac: np.ndarray, wrench: np.ndarray,
               command_offset: np.ndarray, no_load: np.ndarray,
               con: ForceConstraints, pattern_hint=None) -> np.ndarray:
    """Least-norm actuator forces realizing a wrench inside the admissible
    box, or InfeasibleWrench when no such forces exist.

    `jac` is the (n, d) actuator-value jacobian, whose transpose maps
    actuator forces to wrenches.  A `pattern_hint` (from `active_pattern`)
    that passes the KKT check is returned as is, and an unconstrained
    least-norm point inside the box needs no search; a stale hint is
    harmless.  Otherwise the dual active-set method runs from that point
    (see the module docstring); `_pattern_forces` fills its final working
    set afresh, free of the loop's rounding, as it fills a hint.  Every
    solve is one Cholesky solve of a small gram, with no SVD fallback.

    A NaN or infinite entry in `jac`, `wrench`, `command_offset` or
    `no_load` raises ValidationError naming the argument; RankDeficient a
    jacobian that fails `full_rank`, or whose gram does not factor.
    InfeasibleWrench means an empty force box, the method's own
    certificate (a violated bound that neither a primal step nor a drop
    can reach), or a working set whose free rows lost rank to rounding
    (parallel cable rows), in the loop or at the final re-solve, which
    stands in for that certificate.  NoConvergence means the adds plus
    drops reached MAX_ACTIVE_SET_ITERS.
    """
    arrays = [np.asarray(value, float)
              for value in (jac, wrench, command_offset, no_load)]
    # one check over all four on the hot path; the culprit is looked up
    # only on failure
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        bad = next(name for name, a in zip(
            ("jac", "wrench", "command_offset", "no_load"), arrays)
            if not np.isfinite(a).all())
        raise ValidationError(f"{bad} has a non-finite entry")
    jac, wrench, command_offset, no_load = arrays
    gram = jac.T @ jac
    if not full_rank(gram):
        raise RankDeficient("jacobian has deficient column rank")
    lo, hi = _force_bounds(con, command_offset, no_load)
    if (lo > hi + 1e-12).any():
        raise InfeasibleWrench("force box is empty")
    if pattern_hint is not None and len(pattern_hint) == jac.shape[0]:
        guess = _try_active_set(jac, wrench, lo, hi,
                                np.asarray(pattern_hint, int))
        if guess is not None:
            return guess
    # no bound active: the unconstrained least-norm solution settles it
    weights = _spd_solve(gram, wrench)
    if weights is None:
        raise RankDeficient("jacobian gram does not factor")
    free_ln = jac @ weights
    if (free_ln >= lo - 1e-12).all() and (free_ln <= hi + 1e-12).all():
        return np.clip(free_ln, lo, hi)
    status = _dual_active_set(jac, lo, hi, free_ln.copy())
    solved = _pattern_forces(jac, wrench, lo, hi, status)
    if solved is not None:
        f = solved[0]
        if np.abs(jac.T @ f - wrench).max() <= \
                RESIDUAL_TOL * (1.0 + np.abs(f).max()):
            return np.clip(f, lo, hi)
    # a working set whose free rows lost rank to a rounding-level add
    # cannot realize the wrench: the certificate it stood in for
    raise InfeasibleWrench("wrench outside the achievable set "
                           "(final working set lost rank)")


def wrench_feasible(jac: np.ndarray, wrench: np.ndarray,
                    command_offset: np.ndarray, no_load: np.ndarray,
                    con: ForceConstraints) -> bool:
    """True when some admissible force vector realizes the wrench."""
    try:
        distribute(jac, wrench, command_offset, no_load, con)
        return True
    except InfeasibleWrench:
        return False
