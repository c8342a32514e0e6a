from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planar3_pose
from oracles import (bounds_from_constraints, kkt_enumeration,
                     null_plane_least_norm)
from paractl import (ForceConstraints, InfeasibleWrench, NoConvergence,
                     RankDeficient, ValidationError, distribute,
                     force_distribution, in_constraint_set, jacobian,
                     wrench_feasible)
from paractl.force_distribution import active_pattern

HOLD_WRENCH = np.array([0.0, 9.81])
HOLD_FORCES = np.array([-0.5, -0.5, -10.2572136])


def planar3_jacobian():
    from paractl import RobotGeometry
    geom = RobotGeometry.point_mass([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    return jacobian(geom, planar3_pose())


def test_membership_boundary_inclusive():
    con = ForceConstraints.uniform(1, min_tension=0.0)
    assert in_constraint_set(con, np.zeros(1), np.zeros(1), np.zeros(1))


def test_membership_negative_tension_rejected():
    con = ForceConstraints.uniform(1, min_tension=0.0)
    assert not in_constraint_set(con, np.array([0.1]), np.zeros(1),
                                 np.zeros(1))


def test_membership_hold_solution():
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    assert in_constraint_set(con, HOLD_FORCES, np.zeros(3), np.zeros(3))


def test_membership_length_mismatch():
    con = ForceConstraints.uniform(2)
    with pytest.raises(ValueError):
        in_constraint_set(con, np.zeros(3), np.zeros(3), np.zeros(3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.lists(st.floats(-5, 5), min_size=3, max_size=3),
       st.lists(st.floats(0, 3), min_size=3, max_size=3),
       st.lists(st.floats(0.5, 30), min_size=3, max_size=3))
def test_membership_equals_direct_predicate(f, fb, f0, t_min, f_max):
    con = ForceConstraints(np.array(t_min), np.array(f_max))
    f, fb, f0 = np.array(f), np.array(fb), np.array(f0)
    expected = np.all(f0 - f >= con.min_tension - 1e-9) and \
        np.all(np.abs(f + fb) <= con.max_command + 1e-9)
    assert in_constraint_set(con, f, fb, f0) == expected


def test_constraint_validation():
    with pytest.raises(ValueError):
        ForceConstraints(np.array([-0.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        ForceConstraints(np.array([0.0]), np.array([0.0]))


def test_constraint_rejects_nan():
    # NaN used to pass: distribute then returned a NaN force, or ran into
    # a misleading NoConvergence; +inf stays legal as no command limit
    ForceConstraints(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        ForceConstraints(np.array([np.nan, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ForceConstraints(np.array([0.5, 0.5]), np.array([np.nan, 1.0]))


def test_distribute_square_invertible_unbounded():
    jac = np.array([[1.0, 0.2], [-0.3, 1.1]])
    con = ForceConstraints.uniform(2)
    wrench = np.array([0.7, -1.9])
    slack = np.full(2, 10.0)  # tension headroom keeps every bound inactive
    f = distribute(jac, wrench, np.zeros(2), slack, con)
    np.testing.assert_allclose(f, np.linalg.solve(jac.T, wrench), atol=1e-10)


def test_distribute_gravity_hold_case():
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    f = distribute(planar3_jacobian(), HOLD_WRENCH, np.zeros(3), np.zeros(3),
                   con)
    np.testing.assert_allclose(f, HOLD_FORCES, atol=1e-7)
    tensions = np.zeros(3) - f
    np.testing.assert_allclose(tensions, [0.5, 0.5, 10.2572136], atol=1e-7)


def test_distribute_infeasible_huge_wrench():
    con = ForceConstraints.uniform(3, max_command=50.0)
    with pytest.raises(InfeasibleWrench):
        distribute(planar3_jacobian(), np.array([0.0, 1e6]), np.zeros(3),
                   np.zeros(3), con)


def test_distribute_rank_deficient():
    jac = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
    con = ForceConstraints.uniform(3)
    with pytest.raises(RankDeficient):
        distribute(jac, np.array([1.0, 2.0]), np.zeros(3), np.zeros(3), con)


def test_distribute_rank_deficient_below_rounding():
    # column 5 a combination of columns 0-4: the gram's smallest eigenvalue
    # is +-1e-16 relative, so an absolute 1e-20 threshold caught these only
    # when rounding made it non-positive, and let 252 of them return forces
    # and 171 raise InfeasibleWrench
    rng = np.random.default_rng(5)
    con = ForceConstraints.uniform(8, 1.0, 400.0)
    zeros = np.zeros(8)
    for _ in range(2000):
        jac = rng.normal(size=(8, 6))
        jac[:, 5] = jac[:, :5] @ rng.normal(size=5)
        wrench = jac.T @ rng.uniform(-20.0, -5.0, 8)
        with pytest.raises(RankDeficient):
            distribute(jac, wrench, zeros, zeros, con)


@pytest.mark.parametrize("hint", [(-1, 0, 0), (-1, -1, 0), (-1, -1, -1)])
def test_hint_at_infinite_limit_is_refused(hint):
    # without a command limit the low bound is -inf; holding a force there
    # once returned -inf and NaN forces
    con = ForceConstraints.uniform(3, min_tension=0.5)
    zeros = np.zeros(3)
    cold = distribute(planar3_jacobian(), HOLD_WRENCH, zeros, zeros, con)
    f = distribute(planar3_jacobian(), HOLD_WRENCH, zeros, zeros, con,
                   pattern_hint=hint)
    np.testing.assert_array_equal(f, cold)


@pytest.mark.parametrize("hint", [None, (0, 0, 0)], ids=["cold", "hinted"])
@pytest.mark.parametrize("name, bad", [("jac", np.nan), ("wrench", np.nan),
                                       ("command_offset", np.inf),
                                       ("no_load", -np.inf)])
def test_distribute_rejects_non_finite_input(name, bad, hint):
    # the bounds may be infinite, the arguments may not
    con = ForceConstraints.uniform(3, min_tension=0.5)
    args = {"jac": planar3_jacobian(), "wrench": HOLD_WRENCH.copy(),
            "command_offset": np.zeros(3), "no_load": np.zeros(3)}
    args[name].flat[0] = bad
    with pytest.raises(ValidationError, match=name):
        distribute(con=con, pattern_hint=hint, **args)


def test_wrench_feasible_zero_inside_box():
    con = ForceConstraints.uniform(3)
    assert wrench_feasible(planar3_jacobian(), np.zeros(2), np.zeros(3),
                           np.zeros(3), con)


def test_wrench_feasible_hold():
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    assert wrench_feasible(planar3_jacobian(), HOLD_WRENCH, np.zeros(3),
                           np.zeros(3), con)


def test_wrench_feasible_empty_box():
    con = ForceConstraints.uniform(3, min_tension=20.0, max_command=5.0)
    assert not wrench_feasible(planar3_jacobian(), np.zeros(2), np.zeros(3),
                               np.zeros(3), con)


def test_distribute_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(17)
    jac = planar3_jacobian()
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    checked = 0
    for _ in range(60):
        no_load = rng.uniform(-0.5, 2.0, 3)
        offset = rng.uniform(-1.0, 1.0, 3)
        lo, hi = bounds_from_constraints(con, offset, no_load)
        wrench = jac.T @ rng.uniform(lo, hi)
        ref = kkt_enumeration(jac, wrench, lo, hi)
        assert ref is not None
        f = distribute(jac, wrench, offset, no_load, con)
        np.testing.assert_allclose(f, ref, atol=1e-6)
        assert np.max(np.abs(jac.T @ f - wrench)) <= 1e-8
        assert in_constraint_set(con, f, offset, no_load)
        checked += 1
    assert checked == 60


def test_distribute_random_geometries_vs_enumeration():
    rng = np.random.default_rng(18)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, min(n, 4) + 1))
        jac = rng.normal(size=(n, d))
        if np.linalg.svd(jac, compute_uv=False)[-1] < 1e-3:
            continue
        con = ForceConstraints(rng.uniform(0.0, 1.0, n),
                               rng.uniform(2.0, 15.0, n))
        no_load = rng.uniform(-2.0, 3.0, n)
        offset = rng.uniform(-1.0, 1.0, n)
        lo, hi = bounds_from_constraints(con, offset, no_load)
        if np.any(lo > hi):
            continue
        target = rng.uniform(lo, hi)
        wrench = jac.T @ target
        ref = kkt_enumeration(jac, wrench, lo, hi)
        f = distribute(jac, wrench, offset, no_load, con)
        np.testing.assert_allclose(f, ref, atol=1e-6)


def test_stale_warm_start_hint_is_harmless():
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    jac = planar3_jacobian()
    good = distribute(jac, HOLD_WRENCH, np.zeros(3), np.zeros(3), con)
    for hint in [(0, 0, 0), (1, 1, 1), (-1, -1, -1), (0, 1, -1)]:
        f = distribute(jac, HOLD_WRENCH, np.zeros(3), np.zeros(3), con,
                       pattern_hint=hint)
        np.testing.assert_allclose(f, good, atol=1e-8)
    pattern = active_pattern(con, good, np.zeros(3), np.zeros(3))
    assert pattern == (1, 1, 0)


@settings(max_examples=40, deadline=None)
@given(st.floats(5.0, 40.0), st.floats(1.05, 4.0))
def test_enlarging_command_limit_keeps_feasibility(f_max, factor):
    jac = planar3_jacobian()
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=f_max)
    bigger = ForceConstraints.uniform(3, min_tension=0.5,
                                      max_command=f_max * factor)
    if wrench_feasible(jac, HOLD_WRENCH, np.zeros(3), np.zeros(3), con):
        assert wrench_feasible(jac, HOLD_WRENCH, np.zeros(3), np.zeros(3),
                               bigger)


def _cube8_static_problems(seed):
    """The 500 cold cube8 poses of a seeded uniform draw over the workspace
    box and +-0.3 rad rotation vectors, each as (jacobian, static bias
    wrench), with the config's constraints."""
    from paractl import RigidPose, bias_force, load_config
    from paractl.kinematics import quat_from_rotation_vector
    cfg = load_config(Path(__file__).parent.parent / "configs" / "cube8.json")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(cfg.workspace_min, cfg.workspace_max, (500, 3))
    rotvecs = rng.uniform(-0.3, 0.3, (500, 3))
    problems = []
    for position, rotvec in zip(positions, rotvecs):
        pose = RigidPose(position, quat_from_rotation_vector(rotvec))
        problems.append((jacobian(cfg.model.geometry, pose),
                         bias_force(cfg.model, pose, np.zeros(6))))
    return problems, cfg.constraints


def _assert_matches(ref, jac, wrench, offset, no_load, con, hint=None):
    """distribute agrees with a reference optimum, or raises
    InfeasibleWrench where the reference found no admissible force."""
    if ref is None:
        with pytest.raises(InfeasibleWrench):
            distribute(jac, wrench, offset, no_load, con, pattern_hint=hint)
        return
    f = distribute(jac, wrench, offset, no_load, con, pattern_hint=hint)
    np.testing.assert_allclose(f, ref, atol=1e-6)
    assert np.max(np.abs(jac.T @ f - wrench)) <= 1e-8
    assert in_constraint_set(con, f, offset, no_load)


@pytest.mark.parametrize("seed, index", [([3, 4], 250), ([5, 0], 264)],
                         ids=["pose_3_4_250", "pose_5_0_264"])
def test_distribute_cube8_matches_enumeration(seed, index):
    # 8 cables, 6 DOF: the optimum can hold two bounds, and infeasible
    # wrenches must be certified, which the planar cases barely exercise.
    # [3, 4]/250 is feasible by a margin of only 0.06 N and its optimum is
    # reached after a bound drop; at [5, 0]/264 the free least-norm point
    # violates three bounds but only two are active at the optimum
    # (|f| = 284.0 N), where a primal walk once stopped at 344.6 N.  The
    # enumeration also checks the null-plane oracle used on the batches.
    problems, con = _cube8_static_problems(seed)
    jac, wrench = problems[index]
    zeros = np.zeros(8)
    lo, hi = bounds_from_constraints(con, zeros, zeros)
    ref = kkt_enumeration(jac, wrench, lo, hi)
    plane = null_plane_least_norm(jac, wrench, lo, hi)
    assert ref is not None and plane is not None
    np.testing.assert_allclose(plane, ref, atol=1e-8)
    _assert_matches(ref, jac, wrench, zeros, zeros, con)


def test_null_plane_oracle_matches_enumeration_on_random_instances():
    # n = d + 2 on random 4x2 and 5x3 jacobians, feasible and not
    rng = np.random.default_rng(1103)
    verdicts = set()
    for _ in range(60):
        d = int(rng.integers(2, 4))
        jac = rng.normal(size=(d + 2, d))
        lo = -rng.uniform(1.0, 6.0, d + 2)
        hi = rng.uniform(-0.5, 4.0, d + 2)
        hi[rng.uniform(size=d + 2) < 0.2] = np.inf
        wrench = jac.T @ rng.uniform(lo, np.minimum(hi, 8.0)) \
            + rng.normal(0.0, 2.0, d)
        ref = kkt_enumeration(jac, wrench, lo, hi)
        plane = null_plane_least_norm(jac, wrench, lo, hi)
        verdicts.add(ref is None)
        assert (plane is None) == (ref is None)
        if ref is not None:
            np.testing.assert_allclose(plane, ref, atol=1e-8)
    assert verdicts == {True, False}


@pytest.mark.parametrize("variant", ["cold", "offset", "hinted"])
def test_distribute_cube8_matches_null_plane_oracle(variant):
    # thousands of cube8 poses against the exact n = d + 2 oracle: cold
    # from zero offsets (seed [9, 0] holds the 100 poses the enumeration
    # once checked, in 17 s), with random command offsets and no-load
    # forces, and with warm-start hints: the previous pose's pattern
    # (mostly stale) and the oracle's own (which the KKT check accepts)
    rng = np.random.default_rng(1105)
    seeds = {"cold": ([9, 0], [11, 0], [14, 0], [15, 0]),
             "offset": ([12, 0], [16, 0]),
             "hinted": ([13, 0], [17, 0])}[variant]
    zeros = np.zeros(8)
    checked = feasible = 0
    for seed in seeds:
        problems, con = _cube8_static_problems(seed)
        hint = None
        for jac, wrench in problems:
            offset, no_load = zeros, zeros
            if variant == "offset":
                offset = rng.uniform(-20.0, 20.0, 8)
                no_load = rng.uniform(-5.0, 15.0, 8)
            lo, hi = bounds_from_constraints(con, offset, no_load)
            ref = null_plane_least_norm(jac, wrench, lo, hi)
            _assert_matches(ref, jac, wrench, offset, no_load, con, hint)
            if variant == "hinted" and ref is not None:
                own = active_pattern(con, ref, offset, no_load)
                _assert_matches(ref, jac, wrench, offset, no_load, con, own)
                hint = own
            checked += 1
            feasible += ref is not None
    assert checked >= 1000 and 0 < feasible < checked


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_exact_hint_accepted_at_large_forces(scale):
    # scaling the wrench and the limits scales the optimum and keeps its
    # bound pattern, so the oracle's pattern at unit scale is the exact
    # hint at any scale.  Absolute KKT tolerances once refused 22 of these
    # at 1e4 and 93 at 1e5.  A stale hint (the previous pose's) must still
    # give the optimum.
    problems, con = _cube8_static_problems([9, 0])
    zeros = np.zeros(8)
    lo, hi = bounds_from_constraints(con, zeros, zeros)
    stale = None
    accepted = 0
    for jac, wrench in problems:
        ref = null_plane_least_norm(jac, wrench, lo, hi)
        if ref is None:
            continue
        own = np.array(active_pattern(con, ref, zeros, zeros))
        for hint in (own, stale):
            if hint is None:
                continue
            f = force_distribution._try_active_set(
                jac, scale * wrench, scale * lo, scale * hi, hint)
            if hint is own:
                assert f is not None
                accepted += 1
            if f is not None:
                np.testing.assert_allclose(f, scale * ref, rtol=0.0,
                                           atol=1e-9 * scale * 400.0)
        stale = own
    assert accepted > 100


def test_active_pattern_scale_invariant():
    # the optimum of a problem scaled by 1e5 sits on the bounds of the
    # unit-scale optimum; an absolute 1e-9 tolerance, below the rounding
    # of forces near 4e7 N, once read 5 of these 183 as free
    problems, con = _cube8_static_problems([9, 0])
    zeros = np.zeros(8)
    lo, hi = bounds_from_constraints(con, zeros, zeros)
    big = ForceConstraints(1e5 * con.min_tension, 1e5 * con.max_command)
    checked = 0
    for jac, wrench in problems:
        ref = null_plane_least_norm(jac, wrench, lo, hi)
        if ref is None:
            continue
        assert active_pattern(big, 1e5 * ref, zeros, zeros) == \
            active_pattern(con, ref, zeros, zeros)
        checked += 1
    assert checked == 183


def test_null_plane_oracle_scales_with_problem():
    # with an absolute admissibility tolerance, rounding at 1e5 excluded
    # the optimum of these three poses and the oracle returned forces
    # 7-10% above it
    problems, con = _cube8_static_problems([9, 0])
    zeros = np.zeros(8)
    lo, hi = bounds_from_constraints(con, zeros, zeros)
    for index in (32, 296, 471):
        jac, wrench = problems[index]
        ref = null_plane_least_norm(jac, wrench, lo, hi)
        big = null_plane_least_norm(jac, 1e5 * wrench, 1e5 * lo, 1e5 * hi)
        np.testing.assert_allclose(big, 1e5 * ref, rtol=0.0,
                                   atol=1e-9 * 1e5 * 400.0)


@pytest.fixture(scope="module")
def planar3_track_calls():
    """distribute's positional arguments on each tick of a seeded planar3
    closed-loop run, and how many ticks the hint answered: three 0.1 m
    quintic moves of 0.3 s, each followed by a 0.1 s hold, sensor noise
    1e-4.  The run keeps off the symmetry axis x = 2, where the two lower
    cables trade the bound from tick to tick under the noise."""
    from dataclasses import replace
    from paractl import (EuclideanPose, Segment, Trajectory, load_config,
                         run_closed_loop, system)
    cfg = load_config(Path(__file__).parent.parent / "configs"
                      / "planar3.json")
    pose, segments = np.array([1.5, 1.2]), []
    for angle in (0.4, 2.2, 4.5):
        pose = pose + 0.1 * np.array([np.cos(angle), np.sin(angle)])
        segments += [Segment("quintic", 0.3, EuclideanPose(pose)),
                     Segment("hold", 0.1)]
    traj = Trajectory(EuclideanPose([1.5, 1.2]), segments)
    sim = replace(cfg.sim, duration=traj.duration, noise_sigma=1e-4, seed=7)
    calls, answered = [], []

    def recording(*args, **kwargs):
        calls.append(args)
        return distribute(*args, **kwargs)

    def counting(*args):
        forces = try_active_set(*args)
        answered.append(forces is not None)
        return forces

    try_active_set = force_distribution._try_active_set
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system, "distribute", recording)
        patch.setattr(force_distribution, "_try_active_set", counting)
        trace = run_closed_loop(cfg.model, cfg.gains, cfg.constraints,
                                traj, sim)
    assert len(trace) == len(calls) == 1200 and not any(trace.brake)
    return calls, sum(answered)


def test_hint_answers_most_planar3_ticks(planar3_track_calls):
    # every tick but the first carries the previous tick's pattern; 1187
    # of the 1200 are answered by it
    calls, answered = planar3_track_calls
    assert answered >= 0.9 * len(calls)


def _cold_and_working_set(monkeypatch, args):
    """Cold distribute's forces and the working set it ended in."""
    sets = []

    def recording(*loop_args):
        sets.append(loop(*loop_args))
        return sets[-1]

    loop = force_distribution._dual_active_set
    with monkeypatch.context() as patch:
        patch.setattr(force_distribution, "_dual_active_set", recording)
        forces = distribute(*args)
    return forces, sets[0] if sets else np.zeros(len(forces), int)


@pytest.mark.parametrize("source", ["planar3_ticks", "cube8_sweep"])
def test_hinted_and_cold_forces_bit_identical(source, planar3_track_calls,
                                              monkeypatch):
    # a hint of the working set the cold path ends in is filled by the
    # same routine, so the forces are equal bit for bit, not to rounding
    if source == "planar3_ticks":
        problems = planar3_track_calls[0]
    else:
        cube8, con = _cube8_static_problems([9, 0])
        zeros = np.zeros(8)
        problems = [(jac, wrench, zeros, zeros, con) for jac, wrench in cube8
                    if null_plane_least_norm(
                        jac, wrench, *bounds_from_constraints(
                            con, zeros, zeros)) is not None]
    accepted = 0
    for args in problems:
        cold, working_set = _cold_and_working_set(monkeypatch, args)
        jac, wrench, offset, no_load, con = args
        lo, hi = bounds_from_constraints(con, offset, no_load)
        accepted += force_distribution._try_active_set(
            jac, wrench, lo, hi, working_set) is not None
        hinted = distribute(*args, pattern_hint=working_set)
        assert np.array_equal(hinted, cold)
    assert accepted == len(problems) >= 183


def test_short_or_unfactored_hint_is_refused():
    # a hint with fewer free forces than freedoms cannot be filled by one
    # solve, nor can one whose free rows lose rank; both are refused and
    # the cold path still finds the optimum
    problems, con = _cube8_static_problems([9, 0])
    zeros = np.zeros(8)
    lo, hi = bounds_from_constraints(con, zeros, zeros)
    refused = 0
    for jac, wrench in problems[:100]:
        ref = null_plane_least_norm(jac, wrench, lo, hi)
        if ref is None:
            continue
        hint = np.array(active_pattern(con, ref, zeros, zeros))
        # hold the free forces nearest their bounds until five are free
        free = np.flatnonzero(hint == 0)
        nearer = np.where(ref - lo < hi - ref, -1, 1)
        gaps = np.minimum(ref - lo, hi - ref)[free]
        held = free[np.argsort(gaps)][:free.size - 5]
        hint[held] = nearer[held]
        assert force_distribution._try_active_set(
            jac, wrench, lo, hi, hint) is None
        refused += 1
        _assert_matches(ref, jac, wrench, zeros, zeros, con, hint)
    assert refused > 30
    # rows 0 and 1 both along x: with them the only free rows, the gram
    # is singular
    rng = np.random.default_rng(1107)
    jac = rng.normal(size=(4, 2))
    jac[0], jac[1] = [1.0, 0.0], [-2.0, 0.0]
    con = ForceConstraints.uniform(4, min_tension=0.5, max_command=20.0)
    lo, hi = bounds_from_constraints(con, np.zeros(4), np.zeros(4))
    for _ in range(20):
        wrench = jac.T @ rng.uniform(lo, hi)
        hint = np.array([0, 0, -1, 1])
        assert force_distribution._try_active_set(
            jac, wrench, lo, hi, hint) is None
        _assert_matches(null_plane_least_norm(jac, wrench, lo, hi), jac,
                        wrench, np.zeros(4), np.zeros(4), con, hint)


def _frozen_dual_active_set(jac, lo, hi, f):
    """`_dual_active_set` as it was before the loop took the free rows
    once per iteration: the reference its forces must equal bit for bit."""
    from paractl.force_distribution import (MAX_ACTIVE_SET_ITERS,
                                            _spd_solve)
    n, d = jac.shape
    status = np.zeros(n, dtype=int)
    mult = np.zeros(n)
    changes = 0
    while True:
        gap = np.where(status == 0, np.maximum(lo - f, f - hi), 0.0)
        p = int(np.argmax(gap))
        if gap[p] <= 1e-12:
            return status
        side = 1 if f[p] > hi[p] else -1
        target = hi[p] if side == 1 else lo[p]
        while True:
            free = np.flatnonzero(status == 0)
            bound = np.flatnonzero(status)
            y = _spd_solve(jac[free].T @ jac[free], jac[p])
            if y is None:
                raise InfeasibleWrench("wrench outside the achievable set "
                                       "(working set lost rank)")
            r = -side * status[bound] * (jac[bound] @ y)
            falling = np.flatnonzero(r > 0)
            t_drop, drop = np.inf, -1
            if falling.size:
                ratios = mult[bound[falling]] / r[falling]
                k = int(np.argmin(ratios))
                t_drop, drop = ratios[k], bound[falling[k]]
            reach = 1.0 - jac[p] @ y
            t_add = side * (f[p] - target) / reach \
                if free.size > d and reach > 1e-12 else np.inf
            if t_add == t_drop == np.inf:
                raise InfeasibleWrench("wrench outside the achievable set")
            if changes == MAX_ACTIVE_SET_ITERS:
                raise NoConvergence(f"force solver made {changes} "
                                    "active-set changes without converging")
            changes += 1
            step = min(t_add, t_drop)
            if t_add < np.inf:
                f[free] += step * side * (jac[free] @ y - (free == p))
            mult[bound] -= step * r
            mult[p] += step
            if t_add <= t_drop:
                status[p], f[p] = side, target
                break
            status[drop], mult[drop] = 0, 0.0


def _verdict(jac, wrench, con):
    zeros = np.zeros(jac.shape[0])
    try:
        return distribute(jac, wrench, zeros, zeros, con)
    except InfeasibleWrench:
        return None


def test_dual_loop_bit_identical_to_frozen_reference(monkeypatch):
    # 3000 cold sweep poses: the loop's working set and final iterate, and
    # distribute's forces and verdicts, equal bit for bit those of the loop
    # that indexed the free rows three times per iteration
    zeros = np.zeros(8)
    results = []
    for seed in ([21, 0], [22, 0], [23, 0], [24, 0], [25, 0], [26, 0]):
        problems, con = _cube8_static_problems(seed)
        lo, hi = bounds_from_constraints(con, zeros, zeros)
        for jac, wrench in problems:
            start = jac @ np.linalg.solve(jac.T @ jac, wrench)
            runs = []
            for loop in (force_distribution._dual_active_set,
                         _frozen_dual_active_set):
                f = start.copy()
                try:
                    runs.append((tuple(loop(jac, lo, hi, f)), f))
                except InfeasibleWrench:
                    runs.append((None, f))
            assert runs[0][0] == runs[1][0]
            assert np.array_equal(runs[0][1], runs[1][1])
            results.append((jac, wrench, _verdict(jac, wrench, con)))
    monkeypatch.setattr(force_distribution, "_dual_active_set",
                        _frozen_dual_active_set)
    feasible = 0
    for jac, wrench, f in results:
        ref = _verdict(jac, wrench, con)
        assert (f is None) == (ref is None)
        if f is not None:
            feasible += 1
            assert np.array_equal(f, ref)
    assert len(results) == 3000 and 0 < feasible < 3000


def _duplicated_row_cases(count, seed=0):
    """Seeded 2-D problems on four cable rows that are two unit rows, each
    repeated once, so a working set's free rows can lose rank: (jac,
    wrench, constraints, no_load), zero command offset."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        angles = rng.uniform(-np.pi, np.pi, 2)
        rows = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        wrench = rng.uniform(-20.0, 20.0, 2)
        con = ForceConstraints.uniform(4, rng.uniform(0.0, 5.0),
                                       rng.uniform(5.0, 20.0))
        yield np.vstack([rows, rows]), wrench, con, \
            np.full(4, rng.uniform(0.0, 3.0))


def test_distribute_duplicated_rows_match_enumeration():
    # with LU solves and no rank check the force solver once leaked
    # LinAlgError on ~14% of these and returned forces off the wrench on
    # ~8%; the enumeration finds all of both infeasible.  Cases 2495 and
    # 3272 reached the final re-solve with rank-deficient free rows, 34
    # and 570 the loop's solve
    zeros = np.zeros(4)
    picked = set(range(600)) | {2495, 3272}
    verdicts = set()
    for k, (jac, wrench, con, no_load) in enumerate(
            _duplicated_row_cases(max(picked) + 1)):
        if k not in picked:
            continue
        lo, hi = bounds_from_constraints(con, zeros, no_load)
        ref = kkt_enumeration(jac, wrench, lo, hi)
        verdicts.add(ref is None)
        _assert_matches(ref, jac, wrench, zeros, no_load, con)
    assert verdicts == {True, False}


def test_distribute_reports_iteration_cap(monkeypatch):
    # the planar hold optimum has two active bounds, so a cap of zero
    # active-set changes cannot reach it; an in-box wrench needs none
    con = ForceConstraints.uniform(3, min_tension=0.5, max_command=50.0)
    monkeypatch.setattr(force_distribution, "MAX_ACTIVE_SET_ITERS", 0)
    with pytest.raises(NoConvergence):
        distribute(planar3_jacobian(), HOLD_WRENCH, np.zeros(3),
                   np.zeros(3), con)
    free = ForceConstraints.uniform(3)
    f = distribute(planar3_jacobian(), np.zeros(2), np.zeros(3),
                   np.full(3, 10.0), free)
    np.testing.assert_array_equal(f, np.zeros(3))


def _frozen_cold_distribute(jac, wrench, command_offset, no_load, con):
    """`distribute` with no hint as it was before its empty-box and
    in-box checks became array methods and its loop kept Python-scalar
    bookkeeping, over `_frozen_dual_active_set`: the reference whose
    forces and verdicts must equal the solver's bit for bit."""
    from paractl.force_distribution import (RESIDUAL_TOL, _force_bounds,
                                            _pattern_forces, _spd_solve,
                                            full_rank)
    arrays = [np.asarray(value, float)
              for value in (jac, wrench, command_offset, no_load)]
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise ValidationError("non-finite entry")
    jac, wrench, command_offset, no_load = arrays
    gram = jac.T @ jac
    if not full_rank(gram):
        raise RankDeficient("jacobian has deficient column rank")
    lo, hi = _force_bounds(con, command_offset, no_load)
    if np.any(lo > hi + 1e-12):
        raise InfeasibleWrench("force box is empty")
    weights = _spd_solve(gram, wrench)
    if weights is None:
        raise RankDeficient("jacobian gram does not factor")
    free_ln = jac @ weights
    if np.all(free_ln >= lo - 1e-12) and np.all(free_ln <= hi + 1e-12):
        return np.clip(free_ln, lo, hi)
    status = _frozen_dual_active_set(jac, lo, hi, free_ln.copy())
    solved = _pattern_forces(jac, wrench, lo, hi, status)
    if solved is not None:
        f = solved[0]
        if np.abs(jac.T @ f - wrench).max() <= \
                RESIDUAL_TOL * (1.0 + np.abs(f).max()):
            return np.clip(f, lo, hi)
    raise InfeasibleWrench("wrench outside the achievable set "
                           "(final working set lost rank)")


def test_cold_distribute_bit_identical_to_frozen_body():
    # 3000 cold sweep poses from seeds the loop test does not use, plus an
    # empty box on each of the first 20: forces and verdicts, with the
    # certificate's message, equal those of the frozen body bit for bit,
    # the in-box and searched paths both
    zeros = np.zeros(8)
    cases = []
    for seed in ([31, 0], [32, 0], [33, 0], [34, 0], [35, 0], [36, 0]):
        problems, con = _cube8_static_problems(seed)
        cases += [(jac, wrench, zeros, zeros) for jac, wrench in problems]
    empty = np.zeros(8)   # one force's box is empty
    empty[3] = -2.0 * con.max_command.max()
    cases += [(jac, wrench, zeros, empty) for jac, wrench, _, _ in cases[:20]]
    verdicts = {"infeasible": 0, "in_box": 0, "searched": 0}
    for args in cases:
        outcomes = []
        for solve in (distribute, _frozen_cold_distribute):
            try:
                outcomes.append(solve(*args, con))
            except InfeasibleWrench as exc:
                outcomes.append(str(exc))
        got, ref = outcomes
        if isinstance(ref, str):
            assert got == ref
            verdicts["infeasible"] += 1
            continue
        assert got.tobytes() == ref.tobytes()
        lo, hi = bounds_from_constraints(con, args[2], args[3])
        inside = ((ref > lo + 1e-9) & (ref < hi - 1e-9)).all()
        verdicts["in_box" if inside else "searched"] += 1
    assert len(cases) == 3020 and min(verdicts.values()) > 20, verdicts
