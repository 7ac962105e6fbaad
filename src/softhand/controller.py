"""Per-actuator bang-bang valve servo as a pure finite state machine.

Each finger runs its own FSM that switches the inlet or vent until the
measured pressure or curvature sits inside a deadband around the target,
then seals and holds. Re-engagement uses a band twice as wide as the accept
band so measurement noise cannot chatter the valves. A servo that has not
reached its target within the timeout, or any overpressure reading, drops
into an absorbing Fault state that forces the vent open until reset.

apply_command is the one way a protocol command reaches an FSM, whose target
is the SetPressureTarget or SetCurvatureTarget command that set it.

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
from .errors import ConfigError, DomainError, check_fields
from .units import PSI_TO_PA

MAX_ACTUATORS = 6
DEFAULT_PRESSURE_DEADBAND = 0.15 * PSI_TO_PA  # Pa
DEFAULT_CURVATURE_DEADBAND = 0.3  # 1/m
DEFAULT_TICK_PERIOD = 0.005  # s, 200 Hz
# Ticks a scenario may run (it keeps a telemetry row per finger per tick) and a
# calibration level may run without settling: 600 s at the default tick.
MAX_TICKS = 120_000
DEFAULT_TIMEOUT = 10.0  # s


class Mode(Enum):
    IDLE = "Idle"
    INFLATING = "Inflating"
    VENTING = "Venting"
    HOLDING = "Holding"
    FAULT = "Fault"


@dataclass(frozen=True)
class FsmState:
    mode: Mode = Mode.IDLE
    target: protocol.SetPressureTarget | protocol.SetCurvatureTarget | None = None
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
        check_fields(self, positive=("p_max", "kappa_max", "timeout_s", "pressure_deadband",
                                     "curvature_deadband"), error=ConfigError)
        if not (self.reengage_factor >= 1.0):
            raise ConfigError(f"reengage_factor: must be >= 1, got {self.reengage_factor}")


# The members as module constants: a load of Mode.X goes through EnumType's
# class-attribute hook on every call, a module global does not.
_IDLE, _INFLATING, _VENTING, _HOLDING, _FAULT = Mode

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
        if fsm.mode is not _FAULT:
            fsm = FsmState(_FAULT, fsm.target, t)
        return fsm, _VENT_OPEN
    if fsm.mode is _FAULT:
        return fsm, _VENT_OPEN

    if fsm.target is None:
        # Targetless VENTING is the unconditional VENT command: hold the vent
        # open (no timeout) until another command arrives.
        if fsm.mode is _VENTING:
            return fsm, _VENT_OPEN
        if fsm.mode is not _IDLE:
            fsm = FsmState(_IDLE, None, t)
        return fsm, _CLOSED

    target = fsm.target
    if type(target) is protocol.SetPressureTarget:
        err, band = measured.pressure - target.pascals, config.pressure_deadband
    else:
        err, band = measured.curvature - target.curvature, config.curvature_deadband
    mode = fsm.mode

    if mode is _HOLDING:
        if abs(err) <= config.reengage_factor * band:
            return fsm, _CLOSED
        mode = _INFLATING if err < 0.0 else _VENTING
        fsm = FsmState(mode, target, t)

    if mode is _IDLE:
        if abs(err) <= band:
            return FsmState(_HOLDING, target, t), _CLOSED
        mode = _INFLATING if err < 0.0 else _VENTING
        fsm = FsmState(mode, target, t)

    # Active servo phase: Inflating or Venting.
    if abs(err) <= band:
        return FsmState(_HOLDING, target, t), _CLOSED
    if t - fsm.last_transition_t > config.timeout_s:
        return FsmState(_FAULT, target, t), _VENT_OPEN
    if mode is _INFLATING:
        if err > band:  # overshot the band while filling
            return FsmState(_VENTING, target, t), _VENT_OPEN
        return fsm, _INLET_OPEN
    if err < -band:  # overshot the band while venting
        return FsmState(_INFLATING, target, t), _INLET_OPEN
    return fsm, _VENT_OPEN


def apply_command(fsm: FsmState, command: "protocol.Command", t: float,
                  config: ControllerConfig = ControllerConfig()) -> FsmState:
    """Apply a decoded host command to one finger's FSM.

    A target outside 0..p_max or 0..kappa_max raises DomainError; a valid one
    restarts the servo, and replaying it restarts it again. A Faulted FSM
    ignores targets and takes only RESET_FAULT (to Idle). VENT holds the vent
    open until another command; STOP drops the target and seals. Read-type
    commands (GET_STATE, STREAM_*) do not touch the FSM and are handled by the
    device endpoint.
    """
    if isinstance(command, protocol.SetPressureTarget):
        kind, value, limit = "pressure", command.pascals, config.p_max
    elif isinstance(command, protocol.SetCurvatureTarget):
        kind, value, limit = "curvature", command.curvature, config.kappa_max
    elif fsm.mode is _FAULT:
        return FsmState(_IDLE, None, t) if isinstance(command, protocol.ResetFault) else fsm
    elif isinstance(command, protocol.Vent):
        return FsmState(_VENTING, None, t)
    elif isinstance(command, protocol.Stop):
        return FsmState(_IDLE, None, t)
    else:
        return fsm
    if math.isnan(value) or value < 0.0:
        raise DomainError(f"target value must be >= 0, got {value}")
    if value > limit:
        raise DomainError(f"{kind} target {value} exceeds limit {limit}")
    return fsm if fsm.mode is _FAULT else FsmState(_IDLE, command, t)


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
