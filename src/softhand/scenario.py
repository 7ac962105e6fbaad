"""Scenario files: the JSON schema that drives a closed-loop run.

Keys carry their units (radius_m, value_pa, ...) so fixtures are
self-documenting. Validation errors name the offending JSON path; syntax
errors keep the parser's line/column.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

from . import controller, physics, protocol, sensors
from .controller import MAX_TICKS
from .errors import (ScenarioError, SofthandError, check_fields, finite, integer,
                     json_object)

DEFAULT_FINGERS = 3

_ACTUATOR_KEYS = {
    "p_threshold_pa": "p_threshold",
    "kappa_at_threshold_per_m": "kappa_at_threshold",
    "slope_per_m_pa": "slope_m",
    "p_max_pa": "p_max",
    "tau_inflate_s": "tau_inflate",
    "tau_deflate_s": "tau_deflate",
    "k_fill_per_s": "k_fill",
    "k_vent_per_s": "k_vent",
    "force_gain_nm": "force_gain",
}
# An actuator entry's key that is its finger's sensor geometry, not the actuator's.
_CHAIN_KEYS = {"d_neutral_m": "d_neutral"}
_GAUGE_KEYS = {
    "r0_ohm": "r0",
    "r_lead_ohm": "r_lead",
    "r_limit_ohm": "r_limit",
    "v_excitation_v": "v_excitation",
    "amp_gain": "amp_gain",
    "noise_sigma_v": "noise_sigma",
}
_PRESSURE_SENSOR_KEYS = {
    "full_scale_pressure_pa": "full_scale_pressure",
    "full_scale_voltage_v": "full_scale_voltage",
    "amp_gain": "amp_gain",
    "offset_drift_pa": "offset_drift",
    "noise_sigma_v": "noise_sigma",
}
_ADC_KEYS = {"bits": "bits", "v_ref_v": "v_ref"}
_CONTROLLER_KEYS = {"timeout_s": "timeout_s", "reengage_factor": "reengage_factor",
                    "pressure_deadband_pa": "pressure_deadband",
                    "curvature_deadband_per_m": "curvature_deadband"}
_CIRCUIT_KEYS = {"pump_pressure_pa": "pump_pressure", "share_pump_flow": "share_pump_flow"}

_COMMANDS = {
    "set_pressure_target": protocol.SetPressureTarget,
    "set_curvature_target": protocol.SetCurvatureTarget,
    "vent": protocol.Vent, "stop": protocol.Stop, "get_state": protocol.GetState,
    "stream_start": protocol.StreamStart, "stream_stop": protocol.StreamStop,
    "reset_fault": protocol.ResetFault,
}
# The key holding each command's payload, where a refused payload is reported.
_PAYLOAD_KEYS = {"set_pressure_target": "value_pa", "set_curvature_target": "value_per_m",
                 "stream_start": "period_ms"}


@dataclass(frozen=True)
class ScenarioObject:
    radius_m: float
    mass_kg: float
    position_m: float
    fingers: tuple[int, ...]

    def __post_init__(self):
        check_fields(self, positive=("radius_m",), non_negative=("mass_kg",),
                     error=ScenarioError)

    def to_rigid_object(self) -> physics.RigidObject:
        return physics.RigidObject(radius=self.radius_m)


@dataclass(frozen=True)
class ScheduledCommand:
    t_s: float
    actuator_id: int
    command: protocol.Command


@dataclass(frozen=True)
class Disturbance:
    """Exogenous state kick (object shifting during a wiggle)."""

    t_s: float
    finger: int
    pressure_step_pa: float = 0.0
    curvature_step_per_m: float = 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    dt_s: float
    tick_s: float
    seed: int
    actuators: tuple[physics.ActuatorParams, ...]
    chains: tuple[sensors.SensorChain, ...]
    control: controller.ControllerConfig
    circuit: physics.PneumaticCircuit
    atmosphere_offset_pa: float
    objects: tuple[ScenarioObject, ...]
    commands: tuple[ScheduledCommand, ...]
    disturbances: tuple[Disturbance, ...]

    @property
    def n_fingers(self) -> int:
        return len(self.actuators)

    def objects_per_finger(self) -> tuple[physics.RigidObject | None, ...]:
        table: list[physics.RigidObject | None] = [None] * self.n_fingers
        for obj in self.objects:
            rigid = obj.to_rigid_object()
            for finger in obj.fingers:
                table[finger] = rigid
        return tuple(table)


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioError(f"{path}: {message}")


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the SofthandError it raises renamed a ScenarioError at path."""
    try:
        return make(*args, **kwargs)
    except SofthandError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _number(raw: dict, path: str, key: str, default: float | None = None,
            rule: str | None = None) -> float:
    if key not in raw:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required key missing")
        return default
    value = finite(raw[key], f"{path}.{key}", ScenarioError)
    _expect(rule is None or (value > 0 if rule == "> 0" else value >= 0), f"{path}.{key}",
            f"must be {rule}, got {value}")
    return value


def _params(raw, path: str, key_map: dict, cls, **fixed):
    """cls built from fixed and the unit-suffixed file keys of raw, which holds no other key.

    cls owns every default, bound and type rule and refuses a number that is not finite; its
    refusal "<field>: <rule>" is reported at that field's file key, or at path
    when raw does not hold the key.
    """
    kwargs = {key_map[key]: value for key, value in
              json_object(raw, path, optional=key_map, error=ScenarioError).items()}
    try:
        return cls(**kwargs, **fixed)
    except SofthandError as exc:
        field, _, rule = str(exc).partition(": ")
        keys = [key for key in raw if key_map[key] == field]
        if keys:
            raise ScenarioError(f"{path}.{keys[0]}: {rule}") from exc
        raise ScenarioError(f"{path}: {exc}") from exc


def _finger(value, path: str, n_fingers: int) -> int:
    finger = integer(value, path, ScenarioError)
    _expect(0 <= finger < n_fingers, path, f"finger {finger} does not exist (have {n_fingers})")
    return finger


def _build_command(raw, path: str, n_fingers: int,
                   config: controller.ControllerConfig) -> ScheduledCommand:
    """The command, checked as the device receives it: encoded, decoded, then applied."""
    json_object(raw, path, ("command", "t_s"), ("actuator_id", *_PAYLOAD_KEYS.values()),
                ScenarioError)
    name = raw["command"]
    _expect(isinstance(name, str) and name in _COMMANDS, f"{path}.command",
            f"unknown command {name!r} (known: {sorted(_COMMANDS)})")
    t_s = _number(raw, path, "t_s", rule=">= 0")
    actuator_id = integer(raw.get("actuator_id", protocol.BROADCAST_ID), f"{path}.actuator_id",
                          ScenarioError)
    _expect(0 <= actuator_id < n_fingers or actuator_id == protocol.BROADCAST_ID,
            f"{path}.actuator_id",
            f"finger {actuator_id} does not exist (have {n_fingers}, broadcast is 255)")
    kind = _COMMANDS[name]
    key = _PAYLOAD_KEYS.get(name)
    if key is None:
        command: protocol.Command = kind()
    elif name == "stream_start":
        command = kind(integer(raw.get(key, 5), f"{path}.{key}", ScenarioError))
    else:
        command = kind(_number(raw, path, key))
    at = path if key is None else f"{path}.{key}"
    received = protocol.parse_command(_build(at, protocol.frame_for_command, command, actuator_id))
    _build(at, controller.apply_command, controller.FsmState(), received, t_s, config)
    return ScheduledCommand(t_s=t_s, actuator_id=actuator_id, command=command)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    json_object(raw, "$", optional=(
        "name", "duration_s", "dt_s", "tick_s", "seed", "pump_pressure_pa",
        "atmosphere_offset_pa", "share_pump_flow", "actuators", "sensors", "controller",
        "objects", "commands", "disturbances"), error=ScenarioError)

    name = raw.get("name", name)
    _expect(isinstance(name, str) and name != "", "$.name", "must be a non-empty string")
    duration = _number(raw, "$", "duration_s", rule="> 0")
    dt = _number(raw, "$", "dt_s", default=physics.DEFAULT_DT, rule="> 0")
    tick = _number(raw, "$", "tick_s", default=controller.DEFAULT_TICK_PERIOD, rule="> 0")
    _build("$.dt_s", physics.substeps, tick, dt)
    _expect(duration >= tick, "$.duration_s", f"must cover at least one tick ({tick} s)")
    _expect(round(duration / tick) <= MAX_TICKS, "$.duration_s",
            f"must be at most {MAX_TICKS} ticks ({MAX_TICKS * tick:g} s at tick_s {tick}), "
            f"got {duration}")
    seed = integer(raw.get("seed", 0), "$.seed", ScenarioError)

    sensors_raw = json_object(raw.get("sensors", {}), "$.sensors",
                              optional=("gauge", "pressure", "adc"), error=ScenarioError)
    gauge = _params(sensors_raw.get("gauge", {}), "$.sensors.gauge", _GAUGE_KEYS,
                    sensors.StrainGaugeParams)
    pressure_sensor = _params(sensors_raw.get("pressure", {}), "$.sensors.pressure",
                              _PRESSURE_SENSOR_KEYS, sensors.PressureSensorParams)
    adc = _params(sensors_raw.get("adc", {}), "$.sensors.adc", _ADC_KEYS, sensors.AdcParams)

    actuators_raw = raw.get("actuators", [{}] * DEFAULT_FINGERS)
    _expect(isinstance(actuators_raw, list) and 1 <= len(actuators_raw) <= controller.MAX_ACTUATORS,
            "$.actuators", f"expected a list of 1..{controller.MAX_ACTUATORS} finger objects")
    actuators, chains = [], []
    for i, entry in enumerate(actuators_raw):
        path = f"$.actuators[{i}]"
        json_object(entry, path, optional={**_ACTUATOR_KEYS, **_CHAIN_KEYS}, error=ScenarioError)
        actuators.append(_params({k: v for k, v in entry.items() if k in _ACTUATOR_KEYS}, path,
                                 _ACTUATOR_KEYS, physics.ActuatorParams))
        chains.append(_params({k: v for k, v in entry.items() if k in _CHAIN_KEYS}, path,
                              _CHAIN_KEYS, sensors.SensorChain,
                              gauge=gauge, pressure=pressure_sensor, adc=adc))
    n_fingers = len(actuators)

    control = _params(
        raw.get("controller", {}), "$.controller", _CONTROLLER_KEYS, controller.ControllerConfig,
        p_max=max(a.p_max for a in actuators),
        kappa_max=max(physics.steady_state_curvature(a.p_max, a) for a in actuators))
    circuit = _params({k: v for k, v in raw.items() if k in _CIRCUIT_KEYS}, "$", _CIRCUIT_KEYS,
                      physics.PneumaticCircuit)
    ambient = _number(raw, "$", "atmosphere_offset_pa", default=0.0)

    objects_raw = raw.get("objects", [])
    _expect(isinstance(objects_raw, list), "$.objects", "expected a list")
    objects = []
    claimed: set[int] = set()
    for i, entry in enumerate(objects_raw):
        path = f"$.objects[{i}]"
        json_object(entry, path, ("radius_m", "fingers"), ("mass_kg", "position_m"), ScenarioError)
        radius = _params({"radius_m": entry["radius_m"]}, path, {"radius_m": "radius"},
                         physics.RigidObject).radius
        mass = _number(entry, path, "mass_kg", default=0.0, rule=">= 0")
        position = _number(entry, path, "position_m", default=0.0)
        fingers_raw = entry["fingers"]
        _expect(isinstance(fingers_raw, list) and fingers_raw != [], f"{path}.fingers",
                "expected a non-empty list of finger indices")
        fingers = []
        for j, value in enumerate(fingers_raw):
            finger = _finger(value, f"{path}.fingers[{j}]", n_fingers)
            _expect(finger not in claimed, f"{path}.fingers[{j}]",
                    f"finger {finger} already contacts another object")
            claimed.add(finger)
            fingers.append(finger)
        objects.append(ScenarioObject(radius_m=radius, mass_kg=mass, position_m=position,
                                      fingers=tuple(fingers)))

    commands_raw = raw.get("commands", [])
    _expect(isinstance(commands_raw, list), "$.commands", "expected a list")
    commands = [_build_command(entry, f"$.commands[{i}]", n_fingers, control)
                for i, entry in enumerate(commands_raw)]
    commands.sort(key=lambda c: c.t_s)

    disturbances_raw = raw.get("disturbances", [])
    _expect(isinstance(disturbances_raw, list), "$.disturbances", "expected a list")
    disturbances = []
    for i, entry in enumerate(disturbances_raw):
        path = f"$.disturbances[{i}]"
        json_object(entry, path, optional=("t_s", "finger", "pressure_step_pa",
                                           "curvature_step_per_m"), error=ScenarioError)
        disturbances.append(Disturbance(
            t_s=_number(entry, path, "t_s", rule=">= 0"),
            finger=_finger(entry.get("finger", 0), f"{path}.finger", n_fingers),
            pressure_step_pa=_number(entry, path, "pressure_step_pa", default=0.0),
            curvature_step_per_m=_number(entry, path, "curvature_step_per_m", default=0.0)))
    disturbances.sort(key=lambda d: d.t_s)

    return Scenario(
        name=name, duration_s=duration, dt_s=dt, tick_s=tick, seed=seed,
        actuators=tuple(actuators), chains=tuple(chains), control=control, circuit=circuit,
        atmosphere_offset_pa=ambient,
        objects=tuple(objects), commands=tuple(commands), disturbances=tuple(disturbances))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # utf-8-sig drops the byte-order mark some editors put first.
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not a UTF-8 text file ({exc})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's int-digit limit
        raise ScenarioError(f"{path}: {exc}") from exc
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    try:
        return scenario_from_dict(raw, name=default_name)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def shipped_scenario_names() -> list[str]:
    """Names of the scenario fixtures bundled with the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_shipped_scenario(name: str) -> Scenario:
    """Load one of the bundled fixtures by name (see shipped_scenario_names)."""
    path = resources.files(__package__) / "scenarios" / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(f"no shipped scenario named {name!r} "
                            f"(have: {shipped_scenario_names()})")
    return load_scenario(path)
