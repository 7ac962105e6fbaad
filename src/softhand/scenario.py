"""Scenario files: the JSON schema that drives a closed-loop run.

Keys carry their units (radius_m, value_pa, ...) so fixtures are
self-documenting. Validation errors name the offending JSON path; syntax
errors keep the parser's line/column.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from importlib import resources

from . import controller, physics, protocol, sensors
from .errors import DomainError, ScenarioError

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
    "d_neutral_m": "d_neutral",
    "force_gain_nm": "force_gain",
}
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

_COMMAND_NAMES = {
    "set_pressure_target", "set_curvature_target", "vent", "stop",
    "get_state", "stream_start", "stream_stop", "reset_fault",
}


@dataclass(frozen=True)
class ScenarioObject:
    radius_m: float
    mass_kg: float
    position_m: float
    fingers: tuple[int, ...]

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
    pressure_deadband_pa: float
    curvature_deadband_per_m: float
    pump_pressure_pa: float
    atmosphere_offset_pa: float
    share_pump_flow: bool
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


def _number(raw: dict, path: str, key: str, default: float | None = None,
            minimum: float | None = None, strict_min: bool = False) -> float:
    if key not in raw:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required key missing")
        return default
    value = raw[key]
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    _expect(math.isfinite(value), f"{path}.{key}", "must be finite")
    if minimum is not None:
        if strict_min:
            _expect(value > minimum, f"{path}.{key}", f"must be > {minimum}, got {value}")
        else:
            _expect(value >= minimum, f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _mapped(raw: dict, path: str, key_map: dict, cls, defaults) -> dict:
    """Translate unit-suffixed file keys onto dataclass field names."""
    out = {f.name: getattr(defaults, f.name) for f in fields(cls)}
    for key, value in raw.items():
        if key not in key_map:
            raise ScenarioError(f"{path}.{key}: unknown key (known: {sorted(key_map)})")
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                f"{path}.{key}", f"expected a number, got {value!r}")
        _expect(math.isfinite(value), f"{path}.{key}", "must be finite")
        out[key_map[key]] = value
    return out


def _build_command(raw: dict, path: str, n_fingers: int) -> ScheduledCommand:
    _expect(isinstance(raw, dict), path, "each command must be an object")
    name = raw.get("command")
    _expect(name in _COMMAND_NAMES, f"{path}.command",
            f"unknown command {name!r} (known: {sorted(_COMMAND_NAMES)})")
    t_s = _number(raw, path, "t_s", minimum=0.0)
    actuator_id = raw.get("actuator_id", protocol.BROADCAST_ID)
    _expect(isinstance(actuator_id, int) and not isinstance(actuator_id, bool),
            f"{path}.actuator_id", f"expected an integer, got {actuator_id!r}")
    _expect(0 <= actuator_id < n_fingers or actuator_id == protocol.BROADCAST_ID,
            f"{path}.actuator_id",
            f"finger {actuator_id} does not exist (have {n_fingers}, broadcast is 255)")
    allowed = {"command", "t_s", "actuator_id", "value_pa", "value_per_m", "period_ms"}
    for key in raw:
        _expect(key in allowed, f"{path}.{key}", "unknown key")
    if name == "set_pressure_target":
        command: protocol.Command = protocol.SetPressureTarget(
            _number(raw, path, "value_pa", minimum=0.0))
    elif name == "set_curvature_target":
        command = protocol.SetCurvatureTarget(_number(raw, path, "value_per_m", minimum=0.0))
    elif name == "stream_start":
        period = raw.get("period_ms", 5)
        _expect(isinstance(period, int) and 1 <= period <= 255,
                f"{path}.period_ms", f"expected an integer in 1..255, got {period!r}")
        command = protocol.StreamStart(period)
    else:
        command = {"vent": protocol.Vent, "stop": protocol.Stop,
                   "get_state": protocol.GetState, "stream_stop": protocol.StreamStop,
                   "reset_fault": protocol.ResetFault}[name]()
    return ScheduledCommand(t_s=t_s, actuator_id=actuator_id, command=command)


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    _expect(isinstance(raw, dict), "$", "scenario file must hold a JSON object")
    known = {"name", "duration_s", "dt_s", "tick_s", "seed", "pump_pressure_pa",
             "atmosphere_offset_pa", "share_pump_flow", "actuators", "sensors",
             "controller", "objects", "commands", "disturbances"}
    for key in raw:
        _expect(key in known, f"$.{key}", "unknown key")

    name = raw.get("name", name)
    _expect(isinstance(name, str) and name != "", "$.name", "must be a non-empty string")
    duration = _number(raw, "$", "duration_s", minimum=0.0, strict_min=True)
    dt = _number(raw, "$", "dt_s", default=physics.DEFAULT_DT, minimum=0.0, strict_min=True)
    tick = _number(raw, "$", "tick_s", default=controller.DEFAULT_TICK_PERIOD,
                   minimum=0.0, strict_min=True)
    try:
        physics.substeps(tick, dt)
    except DomainError as exc:
        raise ScenarioError(f"$.dt_s: {exc}") from None
    _expect(duration >= tick, "$.duration_s", f"must cover at least one tick ({tick} s)")
    seed = raw.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "$.seed",
            f"expected an integer, got {seed!r}")

    actuators_raw = raw.get("actuators", [{}] * DEFAULT_FINGERS)
    _expect(isinstance(actuators_raw, list) and 1 <= len(actuators_raw) <= controller.MAX_ACTUATORS,
            "$.actuators", f"expected a list of 1..{controller.MAX_ACTUATORS} finger objects")
    actuators = []
    for i, entry in enumerate(actuators_raw):
        _expect(isinstance(entry, dict), f"$.actuators[{i}]", "expected an object")
        kwargs = _mapped(entry, f"$.actuators[{i}]", _ACTUATOR_KEYS,
                         physics.ActuatorParams, physics.ActuatorParams())
        try:
            actuators.append(physics.ActuatorParams(**kwargs))
        except Exception as exc:
            raise ScenarioError(f"$.actuators[{i}]: {exc}") from exc
    n_fingers = len(actuators)

    sensors_raw = raw.get("sensors", {})
    _expect(isinstance(sensors_raw, dict), "$.sensors", "expected an object")
    for key in sensors_raw:
        _expect(key in {"gauge", "pressure", "adc", "d_neutral_m"}, f"$.sensors.{key}",
                "unknown key")
    try:
        gauge = sensors.StrainGaugeParams(**_mapped(
            sensors_raw.get("gauge", {}), "$.sensors.gauge", _GAUGE_KEYS,
            sensors.StrainGaugeParams, sensors.StrainGaugeParams()))
        pressure_sensor = sensors.PressureSensorParams(**_mapped(
            sensors_raw.get("pressure", {}), "$.sensors.pressure", _PRESSURE_SENSOR_KEYS,
            sensors.PressureSensorParams, sensors.PressureSensorParams()))
        adc_kwargs = _mapped(sensors_raw.get("adc", {}), "$.sensors.adc", _ADC_KEYS,
                             sensors.AdcParams, sensors.AdcParams())
        adc_kwargs["bits"] = int(adc_kwargs["bits"])
        adc = sensors.AdcParams(**adc_kwargs)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"$.sensors: {exc}") from exc
    chains = tuple(
        sensors.SensorChain(gauge=gauge, pressure=pressure_sensor, adc=adc,
                            d_neutral=actuators[i].d_neutral)
        for i in range(n_fingers))

    controller_raw = raw.get("controller", {})
    _expect(isinstance(controller_raw, dict), "$.controller", "expected an object")
    for key in controller_raw:
        _expect(key in {"timeout_s", "reengage_factor", "pressure_deadband_pa",
                        "curvature_deadband_per_m"}, f"$.controller.{key}", "unknown key")
    p_max = max(a.p_max for a in actuators)
    kappa_max = max(physics.steady_state_curvature(a.p_max, a) for a in actuators)
    try:
        control = controller.ControllerConfig(
            p_max=p_max, kappa_max=kappa_max, tick_period_s=tick,
            timeout_s=_number(controller_raw, "$.controller", "timeout_s",
                              default=controller.DEFAULT_TIMEOUT, minimum=0.0, strict_min=True),
            reengage_factor=_number(controller_raw, "$.controller", "reengage_factor",
                                    default=2.0, minimum=1.0))
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"$.controller: {exc}") from exc
    pressure_deadband = _number(controller_raw, "$.controller", "pressure_deadband_pa",
                                default=controller.DEFAULT_PRESSURE_DEADBAND,
                                minimum=0.0, strict_min=True)
    curvature_deadband = _number(controller_raw, "$.controller", "curvature_deadband_per_m",
                                 default=controller.DEFAULT_CURVATURE_DEADBAND,
                                 minimum=0.0, strict_min=True)

    pump = _number(raw, "$", "pump_pressure_pa",
                   default=physics.PneumaticCircuit().pump_pressure, minimum=0.0, strict_min=True)
    ambient = _number(raw, "$", "atmosphere_offset_pa", default=0.0)
    share_pump = raw.get("share_pump_flow", False)
    _expect(isinstance(share_pump, bool), "$.share_pump_flow",
            f"expected a boolean, got {share_pump!r}")

    objects_raw = raw.get("objects", [])
    _expect(isinstance(objects_raw, list), "$.objects", "expected a list")
    objects = []
    claimed: set[int] = set()
    for i, entry in enumerate(objects_raw):
        path = f"$.objects[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        for key in entry:
            _expect(key in {"radius_m", "mass_kg", "position_m", "fingers"}, f"{path}.{key}",
                    "unknown key")
        radius = _number(entry, path, "radius_m", minimum=0.0, strict_min=True)
        mass = _number(entry, path, "mass_kg", default=0.0, minimum=0.0)
        position = _number(entry, path, "position_m", default=0.0)
        fingers = entry.get("fingers")
        _expect(isinstance(fingers, list) and fingers != [], f"{path}.fingers",
                "expected a non-empty list of finger indices")
        for finger in fingers:
            _expect(isinstance(finger, int) and 0 <= finger < n_fingers, f"{path}.fingers",
                    f"finger {finger!r} does not exist (have {n_fingers})")
            _expect(finger not in claimed, f"{path}.fingers",
                    f"finger {finger} already contacts another object")
            claimed.add(finger)
        objects.append(ScenarioObject(radius_m=radius, mass_kg=mass, position_m=position,
                                      fingers=tuple(fingers)))

    commands_raw = raw.get("commands", [])
    _expect(isinstance(commands_raw, list), "$.commands", "expected a list")
    commands = [_build_command(entry, f"$.commands[{i}]", n_fingers)
                for i, entry in enumerate(commands_raw)]
    commands.sort(key=lambda c: c.t_s)

    disturbances_raw = raw.get("disturbances", [])
    _expect(isinstance(disturbances_raw, list), "$.disturbances", "expected a list")
    disturbances = []
    for i, entry in enumerate(disturbances_raw):
        path = f"$.disturbances[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        for key in entry:
            _expect(key in {"t_s", "finger", "pressure_step_pa", "curvature_step_per_m"},
                    f"{path}.{key}", "unknown key")
        finger = entry.get("finger", 0)
        _expect(isinstance(finger, int) and 0 <= finger < n_fingers, f"{path}.finger",
                f"finger {finger!r} does not exist (have {n_fingers})")
        disturbances.append(Disturbance(
            t_s=_number(entry, path, "t_s", minimum=0.0),
            finger=finger,
            pressure_step_pa=_number(entry, path, "pressure_step_pa", default=0.0),
            curvature_step_per_m=_number(entry, path, "curvature_step_per_m", default=0.0)))
    disturbances.sort(key=lambda d: d.t_s)

    return Scenario(
        name=name, duration_s=duration, dt_s=dt, tick_s=tick, seed=seed,
        actuators=tuple(actuators), chains=chains, control=control,
        pressure_deadband_pa=pressure_deadband, curvature_deadband_per_m=curvature_deadband,
        pump_pressure_pa=pump, atmosphere_offset_pa=ambient, share_pump_flow=share_pump,
        objects=tuple(objects), commands=tuple(commands), disturbances=tuple(disturbances))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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
    root = resources.files(__package__) / "scenarios"
    path = root / f"{name}.json"
    if not path.is_file():
        raise ScenarioError(f"no shipped scenario named {name!r} "
                            f"(have: {shipped_scenario_names()})")
    raw = json.loads(path.read_text(encoding="utf-8"))
    return scenario_from_dict(raw, name=name)
