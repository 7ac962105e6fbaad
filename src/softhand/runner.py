"""Closed-loop scenario runner.

Each control tick (default 200 Hz): sample both sensor channels, deliver any
scripted host commands through the encoded wire protocol and a simulated
bus, tick every finger's valve FSM on the recovered physical units, log one
telemetry row per finger, then integrate the pneumatics at the physics dt
until the next tick. Identical scenario + seed gives byte-identical output
files.

Telemetry columns (one row per finger per tick):
  t_s              tick time
  finger           actuator index
  pressure_pa      measured gauge pressure (counts inverted, reference-corrected)
  curvature_per_m  true simulator curvature
  strain           measured strain (counts inverted)
  strain_counts    raw strain ADC counts
  pressure_counts  raw pressure ADC counts
  fsm_mode         controller mode name
  inlet, vent      commanded valve states (0/1)
  contact_force_n  true contact normal force (0 when free)

This module owns the CSV format: ``write_csv`` and ``read_csv`` are its only
writer and reader, for telemetry, figure data and calibration samples alike.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from . import calibration, controller, physics, protocol, sensors
from .errors import DomainError
from .grasp import PhaseOrbit
from .rand import DeterministicRng
from .scenario import Scenario
from .units import STANDARD_GRAVITY

TELEMETRY_COLUMNS = ("t_s", "finger", "pressure_pa", "curvature_per_m", "strain",
                     "strain_counts", "pressure_counts", "fsm_mode", "inlet", "vent",
                     "contact_force_n")
# Every column not named here is float, in telemetry and calibration CSVs alike.
_COLUMN_DTYPES = {"finger": int, "strain_counts": int, "pressure_counts": int,
                  "inlet": int, "vent": int, "fsm_mode": object}

FIGURE_KINDS = {
    "pressure_curvature": ("finger", "pressure_pa", "curvature_per_m"),
    "phase_orbit": ("finger", "t_s", "pressure_pa", "strain"),
    "grasp_timeline": ("finger", "t_s", "pressure_pa", "strain"),
}


class HandDevice:
    """Device side of the serial link: command dispatch, FSMs, telemetry streaming."""

    def __init__(self, n_fingers: int, config: controller.ControllerConfig,
                 pressure_deadband: float, curvature_deadband: float):
        self.config = config
        self.pressure_deadband = pressure_deadband
        self.curvature_deadband = curvature_deadband
        self.fsms = tuple(controller.FsmState() for _ in range(n_fingers))
        self.decoder = protocol.FrameDecoder()
        self.unknown_commands = 0
        self._stream_period_ms: list[int | None] = [None] * n_fingers
        self._last_stream_ms: list[int] = [0] * n_fingers
        self._state_requests: set[int] = set()

    def _finger_ids(self, actuator_id: int) -> range:
        if actuator_id == protocol.BROADCAST_ID:
            return range(len(self.fsms))
        return range(actuator_id, actuator_id + 1)

    def feed(self, data: bytes, t: float) -> None:
        """Decode and apply incoming command bytes. Unknown commands are counted, not raised."""
        for frame in self.decoder.feed(data):
            command = protocol.parse_command(frame)
            unaddressable = (frame.actuator_id >= len(self.fsms)
                             and frame.actuator_id != protocol.BROADCAST_ID)
            if command is None or unaddressable:
                self.unknown_commands += 1
                continue
            fsms = list(self.fsms)
            for idx in self._finger_ids(frame.actuator_id):
                if isinstance(command, protocol.GetState):
                    self._state_requests.add(idx)
                elif isinstance(command, protocol.StreamStart):
                    self._stream_period_ms[idx] = command.period_ms
                    self._last_stream_ms[idx] = -command.period_ms
                elif isinstance(command, protocol.StreamStop):
                    self._stream_period_ms[idx] = None
                else:
                    fsms[idx] = controller.apply_command(
                        fsms[idx], command, t, self.config,
                        self.pressure_deadband, self.curvature_deadband)
            self.fsms = tuple(fsms)

    def tick(self, frames: list[sensors.SensorFrame],
             measurements: list[controller.Measurement], t: float
             ) -> tuple[tuple[physics.ValvePair, ...], bytes,
                        list[tuple[int, controller.Mode, controller.Mode]]]:
        """Run one control tick; returns the valves, outgoing bytes, transitions."""
        old_modes = [f.mode for f in self.fsms]
        self.fsms, valves = controller.hand_controller_tick(
            self.fsms, tuple(measurements), t, self.config)
        transitions = [(i, old, new.mode) for i, (old, new) in
                       enumerate(zip(old_modes, self.fsms)) if old is not new.mode]
        t_ms = round(t * 1000.0)
        out = bytearray()
        for i, frame in enumerate(frames):
            period = self._stream_period_ms[i]
            due = period is not None and t_ms - self._last_stream_ms[i] >= period
            if due:
                self._last_stream_ms[i] = t_ms
            if due or i in self._state_requests:
                out += protocol.encode_telemetry(
                    i, t_ms, frame.pressure_counts, frame.strain_counts,
                    controller.MODE_TO_WIRE[self.fsms[i].mode])
        self._state_requests.clear()
        return valves, bytes(out), transitions


@dataclass
class RunResult:
    scenario: Scenario
    rows: list[tuple]
    events: list[dict]
    faulted: bool
    telemetry_path: str | None = None
    events_path: str | None = None
    wire_telemetry_count: int = 0


def write_csv(fh, header, rows) -> None:
    """The one CSV writer: a header line, then one line per row, floats as ``.10g``."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format(v, ".10g") if isinstance(v, float) else str(v)
                          for v in row) + "\n")


def write_telemetry_csv(rows: list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, TELEMETRY_COLUMNS, rows)


def write_events_jsonl(events: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def run_scenario(sc: Scenario, out_dir=None, seed: int | None = None,
                 dt: float | None = None) -> RunResult:
    """Run one scenario deterministically; optionally write CSV + event log."""
    seed = sc.seed if seed is None else seed
    dt = sc.dt_s if dt is None else dt
    tick = sc.tick_s
    n_sub = physics.substeps(tick, dt)

    n = sc.n_fingers
    root = DeterministicRng(seed)
    sensor_rngs = [root.spawn(100 + i) for i in range(n)]
    cals = [calibration.ideal_record(sc.actuators[i], sc.chains[i]) for i in range(n)]
    states: tuple[physics.ActuatorState, ...] = tuple(physics.ActuatorState() for _ in range(n))
    objects = sc.objects_per_finger()
    circuit = physics.PneumaticCircuit(pump_pressure=sc.pump_pressure_pa,
                                       share_pump_flow=sc.share_pump_flow)
    device = HandDevice(n, sc.control, sc.pressure_deadband_pa, sc.curvature_deadband_per_m)
    bus = protocol.SimulatedBus(seed=seed)
    host_decoder = protocol.FrameDecoder()
    wire_telemetry = 0

    events: list[dict] = []
    rows: list[tuple] = []
    pending_commands = list(sc.commands)
    pending_disturbances = list(sc.disturbances)
    ci = di = 0
    n_ticks = int(round(sc.duration_s / tick))
    # Peak total grip force per scenario object (index into sc.objects).
    peak_force: list[tuple[float, float]] = [(0.0, 0.0)] * len(sc.objects)

    for k in range(n_ticks):
        t = k * tick

        while di < len(pending_disturbances) and pending_disturbances[di].t_s <= t + 1e-12:
            dist = pending_disturbances[di]
            s = states[dist.finger]
            kicked = replace(
                s,
                pressure=min(max(s.pressure + dist.pressure_step_pa, 0.0),
                             sc.actuators[dist.finger].p_max),
                curvature=max(s.curvature + dist.curvature_step_per_m, 0.0))
            states = states[:dist.finger] + (kicked,) + states[dist.finger + 1:]
            events.append({"t_s": t, "kind": "disturbance", "finger": dist.finger,
                           "pressure_step_pa": dist.pressure_step_pa,
                           "curvature_step_per_m": dist.curvature_step_per_m})
            di += 1

        frames = [sensors.measure(states[i].pressure, states[i].curvature, sc.chains[i],
                                  t, sensor_rngs[i], sc.atmosphere_offset_pa)
                  for i in range(n)]
        readings = [sensors.counts_to_physical(frames[i], sc.chains[i], cals[i])
                    for i in range(n)]
        measurements = [controller.Measurement(r.pressure, r.curvature) for r in readings]

        while ci < len(pending_commands) and pending_commands[ci].t_s <= t + 1e-12:
            cmd = pending_commands[ci]
            bus.host_send(protocol.encode_command(cmd.command, cmd.actuator_id), t)
            events.append({"t_s": t, "kind": "command_sent",
                           "actuator_id": cmd.actuator_id,
                           "command": type(cmd.command).__name__})
            ci += 1
        device.feed(bus.device_recv(t), t)

        valves, out_bytes, transitions = device.tick(frames, measurements, t)
        if out_bytes:
            bus.device_send(out_bytes, t)
        for i, old, new in transitions:
            events.append({"t_s": t, "kind": "fsm_transition", "finger": i,
                           "from": old.value, "to": new.value})
            if new is controller.Mode.FAULT:
                events.append({"t_s": t, "kind": "fault", "finger": i})

        for i in range(n):
            rows.append((t, i, readings[i].pressure, states[i].curvature,
                         readings[i].strain, frames[i].strain_counts,
                         frames[i].pressure_counts, device.fsms[i].mode.value,
                         int(valves[i].inlet), int(valves[i].vent),
                         states[i].contact_force))

        for _ in range(n_sub):
            states = physics.hand_step(states, sc.actuators, valves, objects, dt, circuit)

        for telemetry_frame in host_decoder.feed(bus.host_recv(t)):
            if protocol.parse_telemetry(telemetry_frame) is not None:
                wire_telemetry += 1

        for oi, obj in enumerate(sc.objects):
            total = sum(states[f].contact_force for f in obj.fingers)
            if total > peak_force[oi][1]:
                peak_force[oi] = (t, total)

    for oi, obj in enumerate(sc.objects):
        if obj.mass_kg <= 0.0:
            continue
        t_peak, achieved = peak_force[oi]
        required = obj.mass_kg * STANDARD_GRAVITY
        events.append({"t_s": t_peak, "kind": "force_check", "fingers": list(obj.fingers),
                       "mass_kg": obj.mass_kg, "required_n": required,
                       "achieved_n": achieved, "ok": achieved >= required})

    faulted = any(f.mode is controller.Mode.FAULT for f in device.fsms)
    result = RunResult(scenario=sc, rows=rows, events=events, faulted=faulted,
                       wire_telemetry_count=wire_telemetry)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.telemetry_path = os.path.join(out_dir, f"{sc.name}_telemetry.csv")
        result.events_path = os.path.join(out_dir, f"{sc.name}_events.jsonl")
        write_telemetry_csv(rows, result.telemetry_path)
        write_events_jsonl(events, result.events_path)
    return result


# --- telemetry consumption --------------------------------------------------

def rows_to_columns(rows: list[tuple], header=TELEMETRY_COLUMNS) -> dict[str, np.ndarray]:
    """Rows (tuples, or string fields split from a CSV) into one typed array per column."""
    columns: dict[str, np.ndarray] = {}
    for i, name in enumerate(header):
        try:
            columns[name] = np.array([row[i] for row in rows],
                                     dtype=_COLUMN_DTYPES.get(name, float))
        except ValueError as exc:
            raise DomainError(f"column {name!r}: {exc}") from None
    return columns


def read_csv(path, required) -> dict[str, np.ndarray]:
    """CSV file back into typed column arrays; malformed input raises DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file ({exc})") from None
    missing = [c for c in required if c not in header]
    if missing:
        raise DomainError(f"{path}: missing columns {missing} (header: {header})")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    for n, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise DomainError(f"{path}: data row {n} has {len(row)} fields, "
                              f"the header has {len(header)}")
    try:
        return rows_to_columns(rows, header)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def read_telemetry(path) -> dict[str, np.ndarray]:
    """Telemetry CSV back into column arrays (fsm_mode stays as strings)."""
    return read_csv(path, TELEMETRY_COLUMNS)


def orbit_from_telemetry(columns: dict[str, np.ndarray], finger: int) -> PhaseOrbit:
    """Phase orbit of one finger from telemetry columns (measured pressure/strain)."""
    mask = columns["finger"] == finger
    if not np.any(mask):
        raise DomainError(f"telemetry has no rows for finger {finger}")
    return PhaseOrbit.from_arrays(columns["t_s"][mask], columns["pressure_pa"][mask],
                                  columns["strain"][mask])


def emit_figure_data(columns: dict[str, np.ndarray], which: str, out=None) -> list[tuple]:
    """Project telemetry into a tidy long-format table for external plotting."""
    if which not in FIGURE_KINDS:
        raise DomainError(f"unknown figure kind {which!r} (known: {sorted(FIGURE_KINDS)})")
    wanted = FIGURE_KINDS[which]
    missing = [c for c in wanted if c not in columns]
    if missing:
        raise DomainError(f"telemetry is missing columns {missing} needed for {which!r}")
    rows = list(zip(*(columns[c] for c in wanted)))
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, wanted, rows)
    return rows
