"""Self-tests of the benchmark harness (not of the program).

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from paractl import load_config, pose_to_chart  # noqa: E402
from stats import min_samples, percentile  # noqa: E402


@pytest.fixture(scope="module")
def cube8():
    return load_config(str(ROOT / "configs" / "cube8.json"))


def _chain(cfg, spec, seed, index):
    traj, sim = workloads._episode(cfg, spec, seed, index)
    return ([pose_to_chart(traj.start)]
            + [pose_to_chart(seg.target) for seg in traj.segments
               if seg.target is not None], sim.seed)


@pytest.mark.parametrize("name", ["planar3_track", "cube8_track"])
def test_track_inputs_are_fixed_by_seed(name):
    spec = workloads.WORKLOADS[name]
    cfg = load_config(str(ROOT / spec.config))
    poses_a, noise_a = _chain(cfg, spec, 7, 1)
    poses_b, noise_b = _chain(cfg, spec, 7, 1)
    poses_c, _ = _chain(cfg, spec, 8, 1)
    assert noise_a == noise_b
    assert all(np.array_equal(a, b) for a, b in zip(poses_a, poses_b))
    assert not np.array_equal(poses_a[0], poses_c[0])
    con = inputs.tightened(cfg.constraints)
    assert np.all(con.min_tension > cfg.constraints.min_tension)
    assert np.all(con.max_command < cfg.constraints.max_command)


@pytest.mark.parametrize("name", ["planar3_track", "cube8_track"])
def test_track_generator_finds_chains(name):
    spec = workloads.WORKLOADS[name]
    cfg = load_config(str(ROOT / spec.config))
    for seed in range(100, 140):
        traj, _ = workloads._episode(cfg, spec, seed, 1)
        assert len(traj.segments) == 2 * spec.moves


def test_sweep_inputs_are_fixed_by_seed(cube8):
    a = inputs.sweep_poses(cube8, np.random.default_rng([3, 0]), 50, 0.3)
    b = inputs.sweep_poses(cube8, np.random.default_rng([3, 0]), 50, 0.3)
    c = inputs.sweep_poses(cube8, np.random.default_rng([4, 0]), 50, 0.3)
    chart = [pose_to_chart(p) for p in a]
    assert all(np.array_equal(x, pose_to_chart(y)) for x, y in zip(chart, b))
    assert not np.array_equal(chart[0], pose_to_chart(c[0]))
    positions = np.array([p.position for p in a])
    assert np.all(positions >= cube8.workspace_min)
    assert np.all(positions <= cube8.workspace_max)


def test_oracle_flags_a_flipped_verdict(cube8):
    poses = inputs.sweep_poses(cube8, np.random.default_rng([5, 0]), 40, 0.3)
    results = [workloads._pose_pipeline(cube8, p) for p in poses]
    assert workloads._sweep_failures(cube8, results)[0] == {}
    feasible = next(i for i, r in enumerate(results) if r[2] is not None)
    infeasible = next(i for i, r in enumerate(results) if r[2] is None)

    flipped = list(results)
    jac, wrench, _, modes = flipped[feasible]
    flipped[feasible] = (jac, wrench, None, modes)
    bad = workloads._sweep_failures(cube8, flipped)[0]
    assert list(bad) == [feasible] and "verdict infeasible" in bad[feasible]

    flipped = list(results)
    jac, wrench, _, modes = flipped[infeasible]
    flipped[infeasible] = (jac, wrench, results[feasible][2], modes)
    assert list(workloads._sweep_failures(cube8, flipped)[0]) == [infeasible]

    margins = np.array([0.5, -0.5, 1e-9])
    assert oracle.verdict_mismatches(margins, [True, False, False]) == []
    assert oracle.verdict_mismatches(margins, [False, True, True]) == [0, 1]


def test_self_times_of_nested_spans():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]; E[11,12] is a
    # second root
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    assert np.allclose(tracer.self_times(start, end, parent),
                       [3.0, 2.0, 1.0, 4.0, 1.0])


def test_tracer_records_parents_and_restores_bindings():
    owner = SimpleNamespace()
    owner.leaf = lambda x: x + 1
    owner.outer = lambda x: owner.leaf(x) * 2
    originals = (owner.leaf, owner.outer)
    tr = tracer.Tracer()
    tr.install([(owner, "outer", "system.outer"),
                (owner, "leaf", "kinematics.leaf")])
    tr.current_op = 4
    assert owner.outer(1) == 4
    tr.uninstall()
    assert (owner.leaf, owner.outer) == originals
    spans = tr.spans()
    names = [spans["names"][i] for i in spans["name_id"]]
    assert names == ["system.outer", "kinematics.leaf"]
    assert list(spans["parent"]) == [-1, 0]
    assert list(spans["op"]) == [4, 4]
    own = tracer.self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    assert own[0] == pytest.approx(duration[0] - duration[1])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 99)
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 20), 50)
    assert min_samples(99) == 1000
    assert min_samples(50) == 20


def test_latency_report_states_the_sample_count():
    out = workloads.Outcome()
    workloads._latency_metrics(out, [1e-3] * 1000, "calls")
    for name in ("op_p50_ms", "op_p99_ms"):
        value, unit, how = out.metrics[name]
        assert unit == "ms" and value == pytest.approx(1.0)
    assert "p50 of 1000 calls" in out.metrics["op_p50_ms"][2]
    assert "1 blocks of 1000 calls" in out.metrics["op_p99_ms"][2]
    with pytest.raises(ValueError):
        workloads._latency_metrics(workloads.Outcome(), [1e-3] * 999,
                                   "calls")
