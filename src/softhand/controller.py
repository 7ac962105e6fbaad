"""Per-actuator bang-bang valve servo as a pure finite state machine.

Each finger runs its own FSM that switches the inlet or vent until the
measured pressure or curvature sits inside a deadband around the target,
then seals and holds. Re-engagement uses a band twice as wide as the accept
band so measurement noise cannot chatter the valves. A servo that has not
reached its target within the timeout, or any overpressure reading, drops
into an absorbing Fault state that forces the vent open until reset.

fsm_tick is a pure function of (state, sensors.PhysicalReading, time);
ticking six fingers sequentially or in parallel gives identical results. Its
valve output is a physics.ValvePair, the plant's own input type, whose
constructor rejects inlet and vent open together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import physics, protocol, sensors
from .errors import ConfigError, DomainError
from .units import PSI_TO_PA

MAX_ACTUATORS = 6
DEFAULT_PRESSURE_DEADBAND = 0.15 * PSI_TO_PA  # Pa
DEFAULT_CURVATURE_DEADBAND = 0.3  # 1/m
DEFAULT_TICK_PERIOD = 0.005  # s, 200 Hz
DEFAULT_TIMEOUT = 10.0  # s


class Mode(Enum):
    IDLE = "Idle"
    INFLATING = "Inflating"
    VENTING = "Venting"
    HOLDING = "Holding"
    FAULT = "Fault"


# u8 encoding used by the telemetry wire format.
MODE_TO_WIRE = {Mode.IDLE: 0, Mode.INFLATING: 1, Mode.VENTING: 2, Mode.HOLDING: 3, Mode.FAULT: 4}


class TargetKind(Enum):
    PRESSURE = "pressure"
    CURVATURE = "curvature"


@dataclass(frozen=True)
class ControlTarget:
    """What to servo to; the deadband around it comes from ControllerConfig each tick."""

    kind: TargetKind
    value: float

    def __post_init__(self):
        if math.isnan(self.value) or self.value < 0.0:
            raise DomainError(f"target value must be >= 0, got {self.value}")


def pressure_target(value_pa: float) -> ControlTarget:
    return ControlTarget(TargetKind.PRESSURE, value_pa)


def curvature_target(value_per_m: float) -> ControlTarget:
    return ControlTarget(TargetKind.CURVATURE, value_per_m)


@dataclass(frozen=True)
class FsmState:
    mode: Mode = Mode.IDLE
    target: ControlTarget | None = None
    last_transition_t: float = 0.0


@dataclass(frozen=True)
class ControllerConfig:
    p_max: float = 12.0 * PSI_TO_PA
    kappa_max: float = 200.0
    timeout_s: float = DEFAULT_TIMEOUT
    reengage_factor: float = 2.0
    pressure_deadband: float = DEFAULT_PRESSURE_DEADBAND  # Pa, for every pressure target
    curvature_deadband: float = DEFAULT_CURVATURE_DEADBAND  # 1/m, for every curvature target

    def __post_init__(self):
        if not (self.p_max > 0.0 and self.kappa_max > 0.0):
            raise ConfigError("p_max and kappa_max must be > 0")
        if not (self.timeout_s > 0.0):
            raise ConfigError("timeout_s must be > 0")
        if self.reengage_factor < 1.0:
            raise ConfigError("reengage_factor must be >= 1")
        if not (self.pressure_deadband > 0.0 and self.curvature_deadband > 0.0):
            raise ConfigError("pressure_deadband and curvature_deadband must be > 0")


_CLOSED = physics.ValvePair(False, False)
_VENT_OPEN = physics.ValvePair(False, True)
_INLET_OPEN = physics.ValvePair(True, False)


def fsm_tick(fsm: FsmState, measured: sensors.PhysicalReading, t: float,
             config: ControllerConfig = ControllerConfig()) -> tuple[FsmState, physics.ValvePair]:
    """One control tick: returns (next FSM state, valves for the plant).

    Never commands inlet and vent together. Faults are states, not errors:
    overpressure or servo timeout forces Fault (vent open) within this tick.
    """
    if not (math.isfinite(measured.pressure) and math.isfinite(measured.curvature)):
        raise DomainError(f"measurement not finite: {measured}")

    if measured.pressure > config.p_max:
        if fsm.mode is not Mode.FAULT:
            fsm = FsmState(Mode.FAULT, fsm.target, t)
        return fsm, _VENT_OPEN
    if fsm.mode is Mode.FAULT:
        return fsm, _VENT_OPEN

    if fsm.target is None:
        # Targetless VENTING is the unconditional VENT command: hold the vent
        # open (no timeout) until another command arrives.
        if fsm.mode is Mode.VENTING:
            return fsm, _VENT_OPEN
        if fsm.mode is not Mode.IDLE:
            fsm = FsmState(Mode.IDLE, None, t)
        return fsm, _CLOSED

    target = fsm.target
    if target.kind is TargetKind.PRESSURE:
        err, band = measured.pressure - target.value, config.pressure_deadband
    else:
        err, band = measured.curvature - target.value, config.curvature_deadband
    mode = fsm.mode

    if mode is Mode.HOLDING:
        if abs(err) <= config.reengage_factor * band:
            return fsm, _CLOSED
        mode = Mode.INFLATING if err < 0.0 else Mode.VENTING
        fsm = FsmState(mode, target, t)

    if mode is Mode.IDLE:
        if abs(err) <= band:
            return FsmState(Mode.HOLDING, target, t), _CLOSED
        mode = Mode.INFLATING if err < 0.0 else Mode.VENTING
        fsm = FsmState(mode, target, t)

    # Active servo phase: Inflating or Venting.
    if abs(err) <= band:
        return FsmState(Mode.HOLDING, target, t), _CLOSED
    if t - fsm.last_transition_t > config.timeout_s:
        return FsmState(Mode.FAULT, target, t), _VENT_OPEN
    if mode is Mode.INFLATING:
        if err > band:  # overshot the band while filling
            return FsmState(Mode.VENTING, target, t), _VENT_OPEN
        return fsm, _INLET_OPEN
    if err < -band:  # overshot the band while venting
        return FsmState(Mode.INFLATING, target, t), _INLET_OPEN
    return fsm, _VENT_OPEN


def set_target(fsm: FsmState, target: ControlTarget, t: float,
               config: ControllerConfig = ControllerConfig()) -> FsmState:
    """Install an absolute target. Ignored while Faulted (reset first)."""
    limit = config.p_max if target.kind is TargetKind.PRESSURE else config.kappa_max
    if target.value > limit:
        raise DomainError(f"{target.kind.value} target {target.value} exceeds limit {limit}")
    if fsm.mode is Mode.FAULT:
        return fsm
    return FsmState(Mode.IDLE, target, t)


def clear_target(fsm: FsmState, t: float) -> FsmState:
    """STOP semantics: drop the target and seal (valves close next tick)."""
    if fsm.mode is Mode.FAULT:
        return fsm
    return FsmState(Mode.IDLE, None, t)


def force_vent(fsm: FsmState, t: float) -> FsmState:
    """VENT semantics: open the vent and keep it open until another command."""
    if fsm.mode is Mode.FAULT:
        return fsm
    return FsmState(Mode.VENTING, None, t)


def reset_fault(fsm: FsmState, t: float) -> FsmState:
    if fsm.mode is Mode.FAULT:
        return FsmState(Mode.IDLE, None, t)
    return fsm


def apply_command(fsm: FsmState, command: "protocol.Command", t: float,
                  config: ControllerConfig = ControllerConfig()) -> FsmState:
    """Apply a decoded host command to one finger's FSM.

    All commands are absolute and idempotent: replaying any of them leaves
    the installed target unchanged. Read-type commands (GET_STATE, STREAM_*)
    do not touch the FSM and are handled by the device endpoint.
    """
    if isinstance(command, protocol.SetPressureTarget):
        return set_target(fsm, pressure_target(command.pascals), t, config)
    if isinstance(command, protocol.SetCurvatureTarget):
        return set_target(fsm, curvature_target(command.curvature), t, config)
    if isinstance(command, protocol.Vent):
        return force_vent(fsm, t)
    if isinstance(command, protocol.Stop):
        return clear_target(fsm, t)
    if isinstance(command, protocol.ResetFault):
        return reset_fault(fsm, t)
    return fsm


def hand_controller_tick(fsms: tuple[FsmState, ...],
                         readings: tuple[sensors.PhysicalReading, ...], t: float,
                         config: ControllerConfig = ControllerConfig()
                         ) -> tuple[tuple[FsmState, ...], tuple[physics.ValvePair, ...]]:
    """Tick every finger in index order. State is fully per-finger isolated."""
    if len(fsms) > MAX_ACTUATORS:
        raise ConfigError(f"at most {MAX_ACTUATORS} actuators supported, got {len(fsms)}")
    if len(fsms) != len(readings):
        raise ConfigError(f"{len(fsms)} FSMs but {len(readings)} readings")
    next_fsms = []
    valves = []
    for fsm, reading in zip(fsms, readings):
        nf, valve = fsm_tick(fsm, reading, t, config)
        next_fsms.append(nf)
        valves.append(valve)
    return tuple(next_fsms), tuple(valves)
