"""JSON robot configuration: parsing, validation and serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .actuator import ActuatorModel, ControllerGains, pd_gains
from .dynamics import InertialParams, RobotModel, mass_matrix, gram_matrix
from .errors import ParseError, ValidationError
from .force_distribution import ForceConstraints, full_rank
from .kinematics import Pose, RigidPose, RobotGeometry, read_pose
from .simulator import SimConfig

_MANIFOLDS = ("euclidean1", "euclidean2", "euclidean3", "se3")


@dataclass(frozen=True)
class RobotConfig:
    """Validated run description: plant, constraints, controller, sim."""

    model: RobotModel
    constraints: ForceConstraints
    gains: ControllerGains
    sim: SimConfig
    home_pose: Pose
    workspace_min: np.ndarray
    workspace_max: np.ndarray
    manifold: str
    controller_block: dict
    evaluate_at_reference: bool = False


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"missing {key!r} in {where}")
    return data[key]


def _object(value, where: str) -> dict:
    """`value` if it is a JSON object, else ValidationError naming `where`."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} needs an object")
    return value


def _number(value, where: str) -> float:
    """`value` as a finite float, else ValidationError naming `where`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"{where} needs a finite number")
    return number


def _numbers(value, where: str, size: int | None = None) -> np.ndarray:
    """`value` as an array of finite floats, `size` of them if given, else
    ValidationError naming `where`."""
    try:
        array = np.asarray(value, float)
        ok = np.isfinite(array).all() and size in (None, array.size)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        count = "" if size is None else f"{size} "
        raise ValidationError(f"{where} needs {count}finite numbers")
    return array


def _parse_gains(block: dict, back_emf: float,
                 no_load_mass: float) -> ControllerGains:
    kind = _require(block, "type", "controller")
    try:
        if kind == "pd":
            kp, kd = (_number(_require(block, key, "controller"),
                              f"controller {key}") for key in ("kp", "kd"))
            return pd_gains(kp, kd, back_emf=back_emf,
                            no_load_mass=no_load_mass)
        if kind == "statespace":
            a, b, c, d = (_numbers(_require(block, key, "controller"),
                                   f"controller {key}") for key in "ABCD")
            gains = ControllerGains(A=a, B=b, C=c, D=d, back_emf=back_emf,
                                    no_load_mass=no_load_mass)
            if "l" in block and _number(block["l"], "controller l") \
                    != gains.derivative_order:
                raise ValidationError("controller l disagrees with D width")
            return gains
    except ValueError as exc:
        raise ValidationError(f"controller: {exc}") from exc
    raise ValidationError(f"unknown controller type {kind!r}")


def parse_config(data: dict) -> RobotConfig:
    manifold = _require(_object(data, "config"), "manifold", "config")
    if manifold not in _MANIFOLDS:
        raise ValidationError(f"manifold must be one of {_MANIFOLDS}")
    rigid = manifold == "se3"
    world_dim = 3 if rigid else int(manifold[-1])

    actuators = _require(data, "actuators", "config")
    if not isinstance(actuators, list):
        raise ValidationError("actuators needs a list of objects")
    anchors, attachments = [], []
    for i, entry in enumerate(actuators):
        entry = _object(entry, f"actuator {i}")
        anchors.append(_numbers(_require(entry, "anchor", f"actuator {i}"),
                                f"actuator {i} anchor", world_dim))
        if rigid:
            attachments.append(_numbers(entry.get("attachment", [0.0] * 3),
                                        f"actuator {i} attachment", 3))
    if rigid:
        geom = RobotGeometry.rigid(np.asarray(anchors),
                                   np.asarray(attachments))
    else:
        geom = RobotGeometry.point_mass(np.asarray(anchors))

    body = _object(_require(data, "body", "config"), "body")
    mass = _number(_require(body, "mass", "body"), "body mass")
    gravity = _numbers(_require(body, "gravity", "body"), "body gravity",
                       world_dim)
    inertia = _numbers(body["inertia"], "body inertia") \
        if "inertia" in body else None
    if mass <= 0.0:
        raise ValidationError("body mass must be positive")
    if rigid:
        if inertia is None or inertia.shape != (3, 3):
            raise ValidationError("se3 body needs a 3x3 inertia")
        if np.max(np.abs(inertia - inertia.T)) > 1e-9 or \
                np.any(np.linalg.eigvalsh(inertia) <= 0.0):
            raise ValidationError(
                "inertia must be symmetric positive definite")

    params = _object(_require(data, "actuator_params", "config"),
                     "actuator_params")
    m0, k0 = (_number(_require(params, key, "actuator_params"),
                      f"actuator_params {key}") for key in ("m0", "k0"))
    if m0 < 0.0:
        raise ValidationError("m0 must be nonnegative")
    k_higher, c, c_cmd = (
        tuple(_numbers(params.get(key, []), f"actuator_params {key}")
              .tolist()) for key in ("k_higher", "c", "c_cmd"))
    actuator = ActuatorModel(rate_coeffs=(k0, *k_higher),
                             force_deriv_coeffs=c, command_deriv_coeffs=c_cmd)
    inertial = InertialParams(body_mass=mass, gravity=gravity,
                              inertia=inertia, actuator_mass=m0)
    model = RobotModel(geometry=geom, inertial=inertial, actuator=actuator)

    cons = _object(_require(data, "constraints", "config"), "constraints")
    try:
        constraints = ForceConstraints(
            min_tension=np.asarray(_require(cons, "t_min", "constraints"),
                                   float),
            max_command=np.asarray(_require(cons, "f_cmd_max", "constraints"),
                                   float))
    except ValueError as exc:
        raise ValidationError(f"constraints: {exc}") from exc
    n = geom.actuator_count
    if constraints.min_tension.size != n or \
            constraints.max_command.size != n:
        raise ValidationError("constraint vectors must have one entry per "
                              "actuator")

    controller_block = dict(_object(_require(data, "controller", "config"),
                                    "controller"))
    gains = _parse_gains(controller_block, back_emf=k0, no_load_mass=m0)
    evaluate_at_reference = controller_block.get("evaluate_at",
                                                "measured") == "reference"

    sim_block = _object(data.get("sim", {}), "sim")
    sim = SimConfig(**{key: _number(sim_block.get(key, default),
                                    f"sim {key}")
                       for key, default in (("dt_control", 1e-3),
                                            ("dt_physics", 2.5e-4),
                                            ("duration", 10.0),
                                            ("noise_sigma", 0.0))})

    home = _require(data, "home_pose", "config")
    try:
        home = read_pose(home, rigid, world_dim)
    except ValidationError as exc:
        raise ValidationError(f"home_pose: {exc}") from None
    # a box of positions
    workspace = _object(data.get("workspace", {}), "workspace")
    ws_min, ws_max = (_numbers(workspace.get(key, [0.0] * world_dim),
                               f"workspace {key}", world_dim)
                      for key in ("min", "max"))
    d = geom.manifold_dim

    # cross-module invariants at the home pose, rank as `distribute` has it
    gram = gram_matrix(geom, home)
    if not full_rank(gram):
        raise ValidationError(f"rank: {n} actuators on {d} pose freedoms "
                              "are rank deficient at the home pose")
    body_part = mass_matrix(model, home) - m0 * gram
    if np.min(np.linalg.eigvalsh(body_part)) < -1e-9:
        raise ValidationError("psd: actuator inertia exceeds body inertia "
                              "at the home pose")
    return RobotConfig(model=model, constraints=constraints, gains=gains,
                       sim=sim, home_pose=home, workspace_min=ws_min,
                       workspace_max=ws_max, manifold=manifold,
                       controller_block=controller_block,
                       evaluate_at_reference=evaluate_at_reference)


def load_config(path: str) -> RobotConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return parse_config(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def config_to_dict(cfg: RobotConfig) -> dict:
    """Serialize back to the JSON structure accepted by `parse_config`."""
    geom = cfg.model.geometry
    inert = cfg.model.inertial
    act = cfg.model.actuator
    rigid = geom.is_rigid
    actuators = []
    for i in range(geom.actuator_count):
        entry = {"anchor": geom.anchors[i].tolist()}
        if rigid:
            entry["attachment"] = geom.attachments[i].tolist()
        actuators.append(entry)
    body = {"mass": inert.body_mass, "gravity": inert.gravity.tolist()}
    if inert.inertia is not None:
        body["inertia"] = inert.inertia.tolist()
    params = {"m0": inert.actuator_mass, "k0": act.back_emf}
    if act.rate_coeffs[1:]:
        params["k_higher"] = list(act.rate_coeffs[1:])
    if act.force_deriv_coeffs:
        params["c"] = list(act.force_deriv_coeffs)
    if act.command_deriv_coeffs:
        params["c_cmd"] = list(act.command_deriv_coeffs)
    if isinstance(cfg.home_pose, RigidPose):
        home = [*cfg.home_pose.position.tolist(),
                *cfg.home_pose.quaternion.tolist()]
    else:
        home = cfg.home_pose.coords.tolist()
    return {
        "manifold": cfg.manifold,
        "actuators": actuators,
        "body": body,
        "actuator_params": params,
        "constraints": {
            "t_min": cfg.constraints.min_tension.tolist(),
            "f_cmd_max": cfg.constraints.max_command.tolist(),
        },
        "controller": cfg.controller_block,
        "sim": {"dt_control": cfg.sim.dt_control,
                "dt_physics": cfg.sim.dt_physics,
                "duration": cfg.sim.duration,
                "noise_sigma": cfg.sim.noise_sigma},
        "home_pose": home,
        "workspace": {"min": cfg.workspace_min.tolist(),
                      "max": cfg.workspace_max.tolist()},
    }


def save_config(cfg: RobotConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
