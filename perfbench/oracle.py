"""Independent feasibility oracle for force-distribution verdicts.

`distribute` decides feasibility with an active-set walk; the oracle asks
a linear program instead: the largest margin `s` such that some force
vector realizes the wrench with every force at least `s` inside its box.
The wrench is feasible exactly when that margin is nonnegative.  Margins
within `TIE_TOL` of zero sit on the boundary of the achievable set, where
either verdict is acceptable at solver tolerance.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

TIE_TOL = 1e-6   # N; boundary band where either verdict is accepted


def force_bounds(con, command_offset: np.ndarray,
                 no_load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box on the wrench-producing force component: tensions at or above
    the floor, commanded magnitudes within the limits.  Restated from the
    constraint definitions, not taken from the solver under test."""
    lo = -con.max_command - command_offset
    hi = np.minimum(no_load - con.min_tension,
                    con.max_command - command_offset)
    return lo, hi


def feasibility_margins(jacs, wrenches, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
    """Per problem, max s such that J^T f = wrench and lo + s <= f <= hi - s.

    All problems go into one block-diagonal linear program whose objective
    is the sum of the margins; the blocks share no variables, so the joint
    optimum is every block at its own optimum.
    """
    count = len(jacs)
    n, d = np.asarray(jacs[0]).shape
    width = n + 1
    block_ub = sparse.csr_matrix(np.block([[-np.eye(n), np.ones((n, 1))],
                                           [np.eye(n), np.ones((n, 1))]]))
    a_ub = sparse.block_diag([block_ub] * count, format="csr")
    b_ub = np.tile(np.concatenate([-lo, hi]), count)
    a_eq = sparse.block_diag(
        [np.hstack([np.asarray(j, float).T, np.zeros((d, 1))]) for j in jacs],
        format="csr")
    b_eq = np.concatenate([np.asarray(w, float) for w in wrenches])
    cost = np.zeros(width * count)
    cost[n::width] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return res.x[n::width].copy()


def verdict_mismatches(margins, verdicts) -> list[int]:
    """Indices where a feasible/infeasible verdict contradicts the oracle
    margin by more than the boundary band."""
    bad = []
    for i, (margin, feasible) in enumerate(zip(margins, verdicts)):
        if feasible and margin < -TIE_TOL:
            bad.append(i)
        elif not feasible and margin > TIE_TOL:
            bad.append(i)
    return bad
