import filecmp
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import count_cable_evaluations
from paractl import (EuclideanPose, ForceConstraints, ParseError,
                     RankDeficient, RobotGeometry, ValidationError,
                     distribute, jacobian, load_config, parse_config,
                     save_config)
from paractl import cli
from paractl.cli import run_command
from paractl.config import config_to_dict
from paractl.trace_io import read_trace, trace_header, write_trace
from paractl.simulator import TraceLog

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PLANAR3 = str(CONFIGS / "planar3.json")
CUBE8 = str(CONFIGS / "cube8.json")
MOVE = str(CONFIGS / "planar3_move.json")
BRAKE = str(CONFIGS / "planar3_brake.json")


def planar3_dict():
    with open(PLANAR3) as fh:
        return json.load(fh)


def test_load_golden_configs():
    cfg = load_config(PLANAR3)
    assert cfg.model.actuator_count == 3
    assert cfg.gains.derivative_order == 2
    cfg8 = load_config(CUBE8)
    assert cfg8.model.manifold_dim == 6


def test_config_round_trip(tmp_path):
    cfg = load_config(PLANAR3)
    out = tmp_path / "copy.json"
    save_config(cfg, str(out))
    again = load_config(str(out))
    assert config_to_dict(cfg) == config_to_dict(again)


def test_too_few_actuators_rank_error():
    data = planar3_dict()
    data["actuators"] = data["actuators"][:1]
    data["constraints"] = {"t_min": [0.5], "f_cmd_max": [50.0]}
    with pytest.raises(ValidationError, match="rank"):
        parse_config(data)


def test_degenerate_geometry_rank_error():
    data = planar3_dict()
    # all anchors on one line through the home pose: x motion undetectable
    data["actuators"] = [{"anchor": [2.0, -1.0]}, {"anchor": [2.0, 3.0]},
                         {"anchor": [2.0, 5.0]}]
    with pytest.raises(ValidationError, match="rank"):
        parse_config(data)


@pytest.mark.parametrize("anchors", [
    None,
    [[0.0, 0.0]],
    [[2.0, -1.0], [2.0, 3.0], [2.0, 5.0]],
    # singular values 1.7 and 4.1e-7: above the 1e-8 that config
    # validation once applied on its own, below the force solver's rank
    # tolerance (an eigenvalue ratio of 5.6e-14 in J^T J)
    [[2.0 + 1e-6, -1.0], [2.0, 3.0], [2.0, 5.0]],
], ids=["planar3", "one_actuator", "on_a_line", "near_a_line"])
def test_config_rank_is_the_force_solvers(anchors):
    # a home geometry is rejected exactly when `distribute` would raise
    # RankDeficient there
    data = planar3_dict()
    if anchors is not None:
        n = len(anchors)
        data["actuators"] = [{"anchor": anchor} for anchor in anchors]
        data["constraints"] = {"t_min": [0.5] * n, "f_cmd_max": [50.0] * n}
    geom = RobotGeometry.point_mass([a["anchor"] for a in data["actuators"]])
    n = geom.actuator_count
    try:
        distribute(jacobian(geom, EuclideanPose(data["home_pose"])),
                   np.array([0.0, 9.81]), np.zeros(n), np.full(n, 100.0),
                   ForceConstraints.uniform(n, 0.5, 50.0))
        deficient = False
    except RankDeficient:
        deficient = True
    assert deficient == (anchors is not None)
    if deficient:
        with pytest.raises(ValidationError, match="rank"):
            parse_config(data)
    else:
        parse_config(data)


@pytest.mark.parametrize("key", ["t_min", "f_cmd_max"])
def test_nan_constraint_rejected(key):
    data = planar3_dict()
    data["constraints"][key][0] = float("nan")
    with pytest.raises(ValidationError):
        parse_config(data)


def test_nonpositive_body_mass_rejected():
    data = planar3_dict()
    data["body"]["mass"] = -1.0
    with pytest.raises(ValidationError):
        parse_config(data)


def test_psd_guard_fires_on_inconsistent_mass(monkeypatch):
    # the assembled mass matrix keeps M - m0 J^T J positive by
    # construction, so the guard is defensive; force an inconsistent gram
    # to prove the check is live
    import paractl.config as config_module
    data = planar3_dict()
    monkeypatch.setattr(config_module, "gram_matrix",
                        lambda geom, pose: 1e6 * np.eye(2))
    with pytest.raises(ValidationError, match="psd"):
        parse_config(data)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "manifold": "euclidean2",\n  "actuators": [}\n')
    with pytest.raises(ParseError, match="line 3"):
        load_config(str(path))


def test_unknown_manifold_rejected():
    data = planar3_dict()
    data["manifold"] = "torus"
    with pytest.raises(ValidationError):
        parse_config(data)


def test_statespace_controller_block():
    data = planar3_dict()
    data["controller"] = {"type": "statespace", "A": [[0.0]], "B": [[1.0]],
                          "C": [[1.5]], "D": [[4.0, 4.0]], "l": 2}
    cfg = parse_config(data)
    assert cfg.gains.state_dim == 1
    data["controller"]["l"] = 3
    with pytest.raises(ValidationError):
        parse_config(data)


def test_evaluate_at_reference_switch():
    data = planar3_dict()
    data["controller"]["evaluate_at"] = "reference"
    cfg = parse_config(data)
    assert cfg.evaluate_at_reference
    assert not parse_config(planar3_dict()).evaluate_at_reference


def test_cli_seed_flag_changes_noise_draws(tmp_path):
    data = planar3_dict()
    data["sim"]["noise_sigma"] = 1e-5
    data["sim"]["duration"] = 0.05
    cfg_path = tmp_path / "noisy.json"
    cfg_path.write_text(json.dumps(data))
    outs = {}
    for seed in ("1", "1", "2"):
        out = tmp_path / f"run{seed}{len(outs)}.csv"
        code = run_command(["simulate", "--config", str(cfg_path),
                            "--trajectory", MOVE, "--out", str(out),
                            "--seed", seed])
        assert code == 0
        outs.setdefault(seed, []).append(out.read_bytes())
    assert outs["1"][0] == outs["1"][1]
    assert outs["1"][0] != outs["2"][0]


def test_cli_validate_ok(capsys):
    assert run_command(["validate", "--config", PLANAR3]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_missing_file(capsys):
    assert run_command(["validate", "--config", "nope.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_unknown_flag(capsys):
    assert run_command(["validate", "--nope", "x"]) == 1


def test_cli_analyze_prints_modal_masses(capsys):
    code = run_command(["analyze", "--config", PLANAR3, "--pose", "2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.725" in out
    assert "0.814285714" in out
    assert "jacobian" in out
    masses = next(line for line in out.splitlines()
                  if line.startswith("modal masses:"))
    per_mode = [line.split("(mass ")[1].split(")")[0]
                for line in out.splitlines() if line.startswith("mode ")]
    assert masses.split(": ")[1].split(", ") == per_mode


def test_cli_analyze_evaluates_its_pose_once(monkeypatch, capsys):
    # values, jacobian, mass matrix and modal split share one evaluation
    evaluations = count_cable_evaluations(monkeypatch)
    for path, pose in ((PLANAR3, "2,1"), (CUBE8, "0,0,1.5,1,0,0,0")):
        cfg = load_config(path)
        monkeypatch.setattr(cli, "load_config", lambda _, cfg=cfg: cfg)
        evaluations.clear()
        assert run_command(["analyze", "--config", path, "--pose", pose]) \
            == 0
        assert "modal masses" in capsys.readouterr().out
        assert len(evaluations) == 1


def test_cli_tune_check(capsys):
    assert run_command(["tune-check", "--config", PLANAR3]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "inf" in out


def test_cli_tune_check_zero_no_load_mass(tmp_path, capsys):
    # m0 = 0 has no passive-load mass to sweep from; the sweep starts at 1
    data = planar3_dict()
    data["actuator_params"]["m0"] = 0.0
    path = tmp_path / "m0_zero.json"
    path.write_text(json.dumps(data))
    code = run_command(["tune-check", "--config", str(path)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "stability check: " in out


def test_cli_simulate_and_trace(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_command(["simulate", "--config", PLANAR3,
                        "--trajectory", MOVE, "--out", str(out),
                        "--duration", "0.2"])
    assert code == 0
    trace = read_trace(str(out))
    assert len(trace) == 200
    assert not any(trace.brake)


def test_cli_simulate_brake_exit_code(tmp_path, capsys):
    out = tmp_path / "brake.csv"
    code = run_command(["simulate", "--config", PLANAR3,
                        "--trajectory", BRAKE, "--out", str(out)])
    assert code == 2
    trace = read_trace(str(out))
    assert trace.brake[-1]


def test_cli_workspace_map(tmp_path):
    out = tmp_path / "map.csv"
    code = run_command(["workspace", "--config", PLANAR3,
                        "--grid", "7,5", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,y,feasible"
    assert len(rows) == 1 + 35
    flags = {row.split(",")[2] for row in rows[1:]}
    assert flags <= {"0", "1"}
    assert "1" in flags


def make_trace(rows=3, dim=2, count=3):
    rng = np.random.default_rng(0)
    table = np.column_stack([
        np.arange(rows) * 1e-3,
        rng.normal(size=(rows, 2 * dim)),
        rng.normal(size=(rows, 2 * dim)) * 1e-3,
        rng.normal(size=(rows, count)),
        rng.uniform(0, 5, (rows, count)),
        np.arange(rows) == rows - 1])
    return TraceLog(manifold_dim=dim, actuator_count=count, table=table,
                    accel_cmd=rng.normal(size=(rows, dim)))


def test_write_trace_empty_header_only(tmp_path):
    trace = TraceLog(manifold_dim=2, actuator_count=3)
    path = tmp_path / "empty.csv"
    write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines == [",".join(trace_header(2, 3))]


def test_trace_round_trip_full_precision(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    again = read_trace(str(path))
    # re-serializing the parsed trace reproduces the bytes exactly
    path2 = tmp_path / "trace2.csv"
    write_trace(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    np.testing.assert_array_equal(again.brake, trace.brake)


def test_write_trace_prints_non_finite_as_nan(tmp_path):
    trace = make_trace(rows=2, dim=1, count=1)
    trace.pose[0] = np.inf
    trace.ref_pose[0] = -np.inf
    trace.forces_cmd[1] = np.nan
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    first, second = data.decode().splitlines()[1:]
    assert first.split(",")[1:3] == ["nan", "nan"]
    assert second.split(",")[5] == "nan"
    assert "inf" not in data.decode()
    again = read_trace(str(path))
    assert again.accel_cmd.shape == (2, 1) and np.isnan(again.accel_cmd).all()


def test_write_trace_deterministic(tmp_path):
    trace = make_trace(rows=5)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace(trace, str(a))
    write_trace(trace, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_write_trace_rewrite_matches_fresh_write(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(rows=50), str(path))
    write_trace(make_trace(rows=5), str(path))
    fresh = tmp_path / "fresh.csv"
    write_trace(make_trace(rows=5), str(fresh))
    # no stale tail of the longer first trace
    assert path.read_bytes() == fresh.read_bytes()


def test_write_trace_follows_symlink(tmp_path):
    target = tmp_path / "target.csv"
    write_trace(make_trace(rows=20), str(target))
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_trace(make_trace(rows=2), str(link))
    assert link.is_symlink()
    fresh = tmp_path / "fresh.csv"
    write_trace(make_trace(rows=2), str(fresh))
    assert target.read_bytes() == fresh.read_bytes()


def test_write_trace_keeps_mode_and_hard_links(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(rows=20), str(path))
    path.chmod(0o600)
    alias = tmp_path / "alias.csv"
    alias.hardlink_to(path)
    write_trace(make_trace(rows=2), str(path))
    assert path.stat().st_mode & 0o777 == 0o600
    assert alias.stat().st_ino == path.stat().st_ino
    assert alias.read_bytes() == path.read_bytes()


def test_write_trace_new_file_mode_is_open_default(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(), str(path))
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    assert path.stat().st_mode == plain.stat().st_mode


def test_write_trace_path_errors_unchanged(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_trace(make_trace(), str(tmp_path))
    with pytest.raises(FileNotFoundError):
        write_trace(make_trace(), str(tmp_path / "missing" / "trace.csv"))
    # a device cannot be cut to length, and need not be
    write_trace(make_trace(), os.devnull)


@pytest.mark.parametrize("edit, line", [
    (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], 3),
    (lambda lines: lines[:2] + [lines[2] + ",0"] + lines[3:], 3),
    (lambda lines: lines[:3] + ["abc," + lines[3].split(",", 1)[1]], 4),
    (lambda lines: [lines[0]] + [row.rsplit(",", 1)[0] for row in lines[1:]],
     2),
    (lambda lines: [lines[0].rsplit(",", 1)[0]] + lines[1:], 1),
    (lambda lines: [], 1),
], ids=["short_row", "extra_field", "non_numeric", "every_row_short",
        "header_short", "empty_file"])
def test_read_trace_malformed_raises_parse_error(tmp_path, edit, line):
    path = tmp_path / "trace.csv"
    write_trace(make_trace(), str(path))
    lines = edit(path.read_text().splitlines())
    path.write_text("".join(row + "\n" for row in lines))
    with pytest.raises(ParseError, match=re.escape(f"{path}: line {line}:")):
        read_trace(str(path))


def test_cli_simulate_rewrites_shorter_trace_in_place(tmp_path, capsys):
    def simulate(out, duration):
        assert run_command(["simulate", "--config", PLANAR3,
                            "--trajectory", MOVE, "--out", str(out),
                            "--duration", duration]) == 0

    out = tmp_path / "run.csv"
    simulate(out, "0.2")
    simulate(out, "0.1")
    fresh = tmp_path / "fresh.csv"
    simulate(fresh, "0.1")
    assert filecmp.cmp(out, fresh, shallow=False)


def _set(path, value):
    """An edit of a config dict: the entry at `path` becomes `value`."""
    def edit(data):
        *parents, key = path
        for part in parents:
            data = data[part]
        data[key] = value
    return edit


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("config, edit, field", [
    (PLANAR3, _set(("body", "mass"), NAN), "body mass"),
    (PLANAR3, _set(("body", "mass"), "heavy"), "body mass"),
    (PLANAR3, _set(("body", "gravity", 1), NAN), "body gravity"),
    (PLANAR3, _set(("actuator_params", "m0"), NAN), "m0"),
    (PLANAR3, _set(("actuator_params", "m0"), INF), "m0"),
    (PLANAR3, _set(("actuator_params", "m0"), "light"), "m0"),
    (PLANAR3, _set(("actuator_params", "k0"), NAN), "k0"),
    (PLANAR3, _set(("actuator_params", "c"), [NAN]), "actuator_params c"),
    (PLANAR3, _set(("controller", "kp"), NAN), "controller kp"),
    (PLANAR3, _set(("actuators", 0, "anchor", 0), NAN), "actuator 0 anchor"),
    (PLANAR3, _set(("actuators", 1, "anchor"), "here"), "actuator 1 anchor"),
    (PLANAR3, _set(("actuators", 2, "anchor"), [2.0]), "actuator 2 anchor"),
    (PLANAR3, _set(("sim", "duration"), "long"), "sim duration"),
    (PLANAR3, _set(("home_pose", 1), NAN), "home_pose"),
    (PLANAR3, _set(("workspace", "min"), [0.6]), "workspace min"),
    (PLANAR3, _set(("workspace", "max"), [3.4, 2.4, 1.0]), "workspace max"),
    (CUBE8, _set(("home_pose",), [0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0]),
     "home_pose"),
    (CUBE8, _set(("home_pose", 4), NAN), "home_pose"),
    (CUBE8, _set(("body", "inertia", 0, 0), NAN), "body inertia"),
    (CUBE8, _set(("actuators", 3, "attachment", 2), INF),
     "actuator 3 attachment"),
    (CUBE8, _set(("workspace", "min"), [-1.2] * 6), "workspace min"),
], ids=["mass_nan", "mass_text", "gravity_nan", "m0_nan", "m0_inf",
        "m0_text", "k0_nan", "c_nan", "kp_nan", "anchor_nan", "anchor_text",
        "anchor_short", "duration_text", "home_nan", "workspace_min_short",
        "workspace_max_long", "cube8_home_zero_quaternion", "cube8_home_nan",
        "cube8_inertia_nan", "cube8_attachment_inf",
        "cube8_workspace_min_long"])
def test_config_rejects_bad_numbers_naming_the_field(config, edit, field):
    with open(config) as fh:
        data = json.load(fh)
    edit(data)
    with pytest.raises(ValidationError, match=re.escape(field)):
        parse_config(data)


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command, message", [
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", _write(
        tmp / "t.json", '{"start": [2.0, 1.0, 0.5], "segments": '
        '[{"type": "hold", "duration": 1.0}]}'), "--out", str(tmp / "o.csv")],
     "t.json: trajectory poses have 3 freedoms, the robot 2"),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory",
                  str(tmp / "missing.json"), "--out", str(tmp / "o.csv")],
     "missing.json: "),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", _write(
        tmp / "t.csv", "t,pose_1,pose_2\n0.0,2.0,1.0\n0.1,2.0\n"),
        "--out", str(tmp / "o.csv")],
     "t.csv: line 3: 2 fields"),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", _write(
        tmp / "t.csv", "t,pose_1,pose_2\n0.0,2.0,1.0\n0.1,2.0,abc\n"),
        "--out", str(tmp / "o.csv")],
     "t.csv: line 3: could not convert"),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", _write(
        tmp / "t.csv", "t,pose_1,pose_2\n0.0,2.0,1.0\n0.1,nan,1.0\n"),
        "--out", str(tmp / "o.csv")],
     "t.csv: line 3: a pose needs 2 finite numbers"),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", _write(
        tmp / "t.json", '{"start": [2.0, 1.0], "segments": '
        '[{"type": "hold", "duration": "abc"}]}'), "--out", str(tmp / "o.csv")],
     "t.json: bad trajectory structure"),
    (lambda tmp: ["simulate", "--config", CUBE8, "--trajectory", _write(
        tmp / "t.json", '{"start": [0, 0, 1.5, 1, 0, 0, 0], "segments": '
        '[{"type": "line", "to": [0, 0, 1.5, 0, 0, 0, 0], "duration": 1}]}'),
        "--out", str(tmp / "o.csv")],
     "t.json: a pose needs 7 finite numbers"),
    (lambda tmp: ["simulate", "--config", PLANAR3, "--trajectory", MOVE,
                  "--out", str(tmp / "missing" / "o.csv")],
     "o.csv"),
    (lambda tmp: ["analyze", "--config", PLANAR3, "--pose", "2,x"],
     "a pose needs 2 finite numbers"),
    (lambda tmp: ["analyze", "--config", PLANAR3, "--pose", "2,1,0"],
     "a pose needs 2 finite numbers"),
    (lambda tmp: ["workspace", "--config", PLANAR3, "--grid=-1,3",
                  "--out", str(tmp / "map.csv")],
     "--grid needs two positive integers"),
], ids=["start_too_long", "missing_file", "csv_short_row", "csv_text_field",
        "csv_nan_pose", "json_text_duration", "json_zero_quaternion",
        "out_dir_missing", "analyze_text_pose", "analyze_long_pose",
        "grid_negative"])
def test_cli_malformed_input_is_an_error_line(tmp_path, capsys, command,
                                              message):
    assert run_command(command(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("field, value, message", [
    ("actuators", [5, 5, 5], "actuator 0 needs an object"),
    ("body", 5, "body needs an object"),
    ("actuator_params", [0.05, 0.1], "actuator_params needs an object"),
    ("controller", 5, "controller needs an object"),
    ("controller", {"type": "statespace", "A": [[0.0]], "B": [[1.0]],
                    "C": [[1.0]], "D": [[1.0, 1.0]], "l": [2]},
     "controller l needs a finite number"),
    ("constraints", "tight", "constraints needs an object"),
    ("sim", 5, "sim needs an object"),
    ("workspace", [0.0, 1.0], "workspace needs an object"),
], ids=["actuator_entry", "body", "actuator_params", "controller",
        "controller_l", "constraints", "sim", "workspace"])
def test_cli_structurally_wrong_config_is_an_error_line(tmp_path, capsys,
                                                        field, value,
                                                        message):
    # a non-object where an object belongs once escaped as a raw TypeError
    # or AttributeError; the error line names the file and the field
    data = planar3_dict()
    data[field] = value
    path = _write(tmp_path / "wrong.json", json.dumps(data))
    assert run_command(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"wrong.json: {message}" in err


@pytest.mark.parametrize("row, line", [
    ("0.0,2.0,1.0,nan,0.0,0.0,0.0\n0.1,2.0,1.0,0.0,0.0,0.0,0.0\n", 2),
    ("0.0,2.0,1.0,0.0,0.0,0.0,0.0\n0.1,2.0,1.0,0.0,0.0,nan,0.0\n", 3),
], ids=["nan_velocity", "nan_acceleration"])
def test_cli_nan_derivative_column_is_an_error_line(tmp_path, capsys, row,
                                                    line):
    # the derivative check compares by '>', false for NaN: such a file
    # once simulated with exit 0 and "max error 0"
    path = _write(tmp_path / "t.csv",
                  "t,pose_1,pose_2,vel_1,vel_2,acc_1,acc_2\n" + row)
    assert run_command(["simulate", "--config", PLANAR3, "--trajectory",
                        path, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"t.csv: line {line}: " in err
