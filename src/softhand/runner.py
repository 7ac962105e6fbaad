"""Closed-loop scenario runner.

Each control tick (default 200 Hz): sample both sensor channels, deliver any
scripted host commands through the encoded wire protocol and a simulated
bus, tick every finger's valve FSM on the recovered physical units, log one
telemetry row per finger, then integrate the pneumatics at the physics dt
until the next tick. Identical scenario + seed gives byte-identical output
files.

Per finger, one tick is one ``SensorPath.sample``, one ``fsm_tick``, one
``encode_telemetry`` when the finger streams or was asked for its state,
one telemetry row and one ``FingerPlant.advance``. Per tick the device and
host decoders are each fed once, the FSMs are searched for transitions only
when one of them changed, and the grip force is summed only for objects
with mass, the ones a ``force_check`` event reports. The loop binds the
methods it calls every tick once per run.

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
import math
import os
import sys
import warnings
from dataclasses import dataclass
from itertools import islice

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


def _column_dtype(name: str) -> type:
    """The type of a CSV column, as read_csv reads it and write_csv formats it."""
    return _COLUMN_DTYPES.get(name, float)


# Lines read_csv reads and parses, and rows write_csv formats, at a time: a
# telemetry line costs about 1 kB of Python objects until its chunk is converted.
_CHUNK_LINES = 1024
# A valve flag (a bool) as its 0/1 telemetry cell, by index rather than an int() call.
_FLAG = (0, 1)

FIGURE_KINDS = {
    "pressure_curvature": ("finger", "pressure_pa", "curvature_per_m"),
    "phase_orbit": ("finger", "t_s", "pressure_pa", "strain"),
    "grasp_timeline": ("finger", "t_s", "pressure_pa", "strain"),
}


class HandDevice:
    """Device side of the serial link: command dispatch, FSMs, telemetry streaming."""

    def __init__(self, n_fingers: int, config: controller.ControllerConfig):
        self.config = config
        self.fsms = tuple(controller.FsmState() for _ in range(n_fingers))
        self.decoder = protocol.FrameDecoder()
        self.unknown_commands = 0
        self.rejected_commands = 0
        self._stream_period_ms: list[int | None] = [None] * n_fingers
        self._last_stream_ms: list[int] = [0] * n_fingers
        self._streaming = False  # any finger has a stream period
        self._state_requests: set[int] = set()
        self._fed_transitions: list[tuple[int, controller.Mode, controller.Mode]] = []

    def _finger_ids(self, actuator_id: int) -> range:
        if actuator_id == protocol.BROADCAST_ID:
            return range(len(self.fsms))
        return range(actuator_id, actuator_id + 1)

    def feed(self, data: bytes, t: float) -> None:
        """Decode and apply incoming command bytes; never raises, whatever arrives.

        Unknown commands are counted in unknown_commands. A well-formed command
        the FSM refuses (a target past the config's limits) is counted in
        rejected_commands and changes no finger: a broadcast applies to every
        finger or to none. Every mode change a command makes is reported by
        the next tick, ahead of that tick's own.
        """
        for frame in self.decoder.feed(data):
            command = protocol.parse_command(frame)
            unaddressable = (frame.actuator_id >= len(self.fsms)
                             and frame.actuator_id != protocol.BROADCAST_ID)
            if command is None or unaddressable:
                self.unknown_commands += 1
                continue
            ids = self._finger_ids(frame.actuator_id)
            if isinstance(command, protocol.GetState):
                self._state_requests.update(ids)
            elif isinstance(command, protocol.StreamStart):
                for idx in ids:
                    self._stream_period_ms[idx] = command.period_ms
                    self._last_stream_ms[idx] = -command.period_ms
            elif isinstance(command, protocol.StreamStop):
                for idx in ids:
                    self._stream_period_ms[idx] = None
            else:
                old = self.fsms
                fsms = list(old)
                try:
                    for idx in ids:
                        fsms[idx] = controller.apply_command(old[idx], command, t, self.config)
                except DomainError:
                    self.rejected_commands += 1
                    continue
                self._fed_transitions += [(idx, old[idx].mode, fsms[idx].mode) for idx in ids
                                          if fsms[idx].mode is not old[idx].mode]
                self.fsms = tuple(fsms)
            self._streaming = any(p is not None for p in self._stream_period_ms)

    def tick(self, samples: list[tuple[int, int, sensors.PhysicalReading]], t: float
             ) -> tuple[tuple[physics.ValvePair, ...], bytes,
                        list[tuple[int, controller.Mode, controller.Mode]]]:
        """Run one control tick on each finger's (strain_counts, pressure_counts, reading).

        Returns the valves, outgoing bytes and FSM transitions: those the
        commands fed since the last tick made, then this tick's. fsm_tick
        returns an FSM that keeps its state as the same object, so this
        tick's transitions are looked for only when the FSM tuple changed.
        """
        old_fsms = self.fsms
        fsms, valves = controller.hand_controller_tick(
            old_fsms, tuple([reading for _, _, reading in samples]), t, self.config)
        self.fsms = fsms
        transitions, self._fed_transitions = self._fed_transitions, []
        if fsms != old_fsms:
            transitions += [(i, old.mode, new.mode) for i, (old, new)
                            in enumerate(zip(old_fsms, fsms)) if new.mode is not old.mode]
        if not (self._streaming or self._state_requests):
            return valves, b"", transitions
        t_ms = round(t * 1000.0)
        frames = []
        last, requests = self._last_stream_ms, self._state_requests
        wire_modes = protocol.MODE_CODES  # keyed by mode name: a str hashes in C, an Enum in Python
        for i, period, (strain_counts, pressure_counts, _), fsm in zip(
                range(len(fsms)), self._stream_period_ms, samples, fsms):
            if period is not None and t_ms - last[i] >= period:
                last[i] = t_ms
            elif i not in requests:
                continue
            frames.append(protocol.encode_telemetry(
                i, t_ms, pressure_counts, strain_counts, wire_modes[fsm.mode._value_]))
        if requests:
            requests.clear()
        return valves, b"".join(frames), transitions


@dataclass
class RunResult:
    rows: list[tuple]
    events: list[dict]
    faulted: bool
    telemetry_path: str | None = None
    events_path: str | None = None
    wire_telemetry_count: int = 0


def write_csv(fh, header, rows) -> None:
    """The one CSV writer: a header line, then one line per row.

    A cell is formatted by its column's type, as read_csv reads it: "%.10g" in
    a float column, "%s" in the others. One template built from the header
    formats ``_CHUNK_LINES`` rows per write. A row it refuses (another length,
    or a cell of a float column that is not a number) is a DomainError naming
    its data row, raised before its chunk is written.
    """
    fh.write(",".join(header) + "\n")
    formats = ["%.10g" if _column_dtype(name) is float else "%s" for name in header]
    template, rows, n_rows = ",".join(formats) + "\n", iter(rows), 0
    while chunk := list(map(tuple, islice(rows, _CHUNK_LINES))):
        try:
            fh.write("".join(map(template.__mod__, chunk)))
        except TypeError:  # only here are the chunk's rows formatted one at a time
            for n, row in enumerate(chunk, n_rows + 1):
                if len(row) != len(header):
                    raise DomainError(f"data row {n} has {len(row)} fields, "
                                      f"the header has {len(header)}") from None
                for name, cell_format, cell in zip(header, formats, row):
                    try:
                        cell_format % (cell,)
                    except TypeError as exc:
                        raise DomainError(f"data row {n}: column {name!r}: {exc}") from None
            raise
        n_rows += len(chunk)


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
    paths = [sensors.SensorPath(chain, calibration.ideal_record(params, chain),
                                root.spawn(100 + i), sc.atmosphere_offset_pa)
             for i, (params, chain) in enumerate(zip(sc.actuators, sc.chains))]
    circuit = sc.circuit
    plants = [physics.FingerPlant(params, obj, dt, circuit, n_sub)
              for params, obj in zip(sc.actuators, sc.objects_per_finger())]
    device = HandDevice(n, sc.control)
    bus = protocol.SimulatedBus(seed=seed)
    host_decoder = protocol.FrameDecoder()
    wire_telemetry = 0

    events: list[dict] = []
    rows: list[tuple] = []
    commands, disturbances = sc.commands, sc.disturbances
    ci = di = 0
    # Due times as floats, each list ending in inf so no index runs past it.
    command_times = [c.t_s for c in commands] + [math.inf]
    disturbance_times = [d.t_s for d in disturbances] + [math.inf]
    n_ticks = int(round(sc.duration_s / tick))
    # Peak total grip force of each object a force_check event reports (one
    # with mass), and the plants its force is summed over.
    weighed = [obj for obj in sc.objects if obj.mass_kg > 0.0]
    peak_force: list[tuple[float, float]] = [(0.0, 0.0)] * len(weighed)
    force_groups = [[plants[f] for f in obj.fingers] for obj in weighed]

    # Per-run bindings: a bound method or attribute looked up once, not per tick.
    sensed = [(path.sample, plant) for path, plant in zip(paths, plants)]
    fingers = list(zip(range(n), plants, [plant.advance for plant in plants]))
    device_feed, device_tick = device.feed, device.tick
    device_recv, device_send, host_recv = bus.device_recv, bus.device_send, bus.host_recv
    host_feed, parse_telemetry = host_decoder.feed, protocol.parse_telemetry
    share_pump_flow, fault = circuit.share_pump_flow, controller.Mode.FAULT
    append = rows.append

    for k in range(n_ticks):
        t = k * tick
        due = t + 1e-12

        while disturbance_times[di] <= due:
            dist = disturbances[di]
            try:
                plants[dist.finger].kick(dist.pressure_step_pa, dist.curvature_step_per_m)
            except DomainError as exc:
                raise DomainError(f"finger {dist.finger}: {exc}") from exc
            events.append({"t_s": t, "kind": "disturbance", "finger": dist.finger,
                           "pressure_step_pa": dist.pressure_step_pa,
                           "curvature_step_per_m": dist.curvature_step_per_m})
            di += 1

        samples = [sample(plant.pressure, plant.curvature) for sample, plant in sensed]

        while command_times[ci] <= due:
            cmd = commands[ci]
            bus.host_send(protocol.encode_command(cmd.command, cmd.actuator_id), t)
            events.append({"t_s": t, "kind": "command_sent",
                           "actuator_id": cmd.actuator_id,
                           "command": type(cmd.command).__name__})
            ci += 1
        device_feed(device_recv(t), t)

        valves, out_bytes, transitions = device_tick(samples, t)
        if out_bytes:
            device_send(out_bytes, t)
        for i, old, new in transitions:
            events.append({"t_s": t, "kind": "fsm_transition", "finger": i,
                           "from": old._value_, "to": new._value_})
            if new is fault:
                events.append({"t_s": t, "kind": "fault", "finger": i})

        fill_scale = physics.pump_fill_scale(circuit, valves) if share_pump_flow else 1.0
        for (i, plant, advance), (strain_counts, pressure_counts, r), fsm, v in zip(
                fingers, samples, device.fsms, valves):
            append((t, i, r.pressure, plant.curvature, r.strain, strain_counts, pressure_counts,
                    fsm.mode._value_, _FLAG[v.inlet], _FLAG[v.vent], plant.contact_force))
            advance(v, fill_scale)

        for frame in host_feed(host_recv(t)):
            if parse_telemetry(frame) is not None:
                wire_telemetry += 1

        for oi, group in enumerate(force_groups):
            total = sum([plant.contact_force for plant in group])
            if total > peak_force[oi][1]:
                peak_force[oi] = (t, total)

    for obj, (t_peak, achieved) in zip(weighed, peak_force):
        required = obj.mass_kg * STANDARD_GRAVITY
        events.append({"t_s": t_peak, "kind": "force_check", "fingers": list(obj.fingers),
                       "mass_kg": obj.mass_kg, "required_n": required,
                       "achieved_n": achieved, "ok": achieved >= required})

    faulted = any(f.mode is controller.Mode.FAULT for f in device.fsms)
    result = RunResult(rows=rows, events=events, faulted=faulted,
                       wire_telemetry_count=wire_telemetry)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.telemetry_path = os.path.join(out_dir, f"{sc.name}_telemetry.csv")
        result.events_path = os.path.join(out_dir, f"{sc.name}_events.jsonl")
        write_telemetry_csv(rows, result.telemetry_path)
        write_events_jsonl(events, result.events_path)
    return result


# --- telemetry consumption --------------------------------------------------

def _typed_column(name: str, cells) -> np.ndarray:
    """One column's cells as an array of the column's dtype; object cells are interned.

    Interning makes every ``fsm_mode`` cell with the same name one str. A
    cell the dtype refuses raises DomainError naming the column.
    """
    dtype = _column_dtype(name)
    if dtype is object:
        cells = list(map(sys.intern, cells))
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError) as exc:  # overflow: an int cell past int64
        raise DomainError(f"column {name!r}: {exc}") from None


def rows_to_columns(rows: list[tuple]) -> dict[str, np.ndarray]:
    """Telemetry rows (tuples in TELEMETRY_COLUMNS order) into one typed array per column."""
    return {name: _typed_column(name, [row[i] for row in rows])
            for i, name in enumerate(TELEMETRY_COLUMNS)}


def _parse_chunk(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """A chunk's lines as one structured array by numpy's C text reader, or None
    when the reader refuses or warns (a bad cell, a row of another length, a
    chunk of blank lines, a spelling only Python's int or float reads).

    The reader sees ASCII text only, free of the separators \\x1c-\\x1f: it
    strips those as whitespace where Python's int and float refuse them, and
    it reads some non-ASCII letters as digits.
    """
    text = "".join(lines)
    if not text.isascii() or any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


_intern_cells = np.frompyfunc(sys.intern, 1, 1)


def read_csv(path, required) -> dict[str, np.ndarray]:
    """CSV file back into typed column arrays; malformed or non-finite input raises DomainError.

    The file is read ``_CHUNK_LINES`` lines at a time, so the Python objects
    a read holds beyond the returned arrays are those of one chunk; each
    column is joined once at the end. Each chunk is parsed by numpy's C text
    reader; a chunk it refuses is split and converted column by column,
    which names the defect or reads the few spellings only Python's int and
    float accept (digit underscores, non-ASCII digits, whitespace-only
    lines). ``fsm_mode`` cells are interned, one str per mode name. A file
    with one defect gets the error that names it wherever it lies; a file
    with several gets an error naming the file and one of them.
    """
    try:
        # utf-8-sig drops the byte-order mark some spreadsheet exports put first.
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline().strip().split(",")
            missing = [c for c in required if c not in header]
            if missing:
                raise DomainError(f"{path}: missing columns {missing} (header: {header})")
            for i, name in enumerate(header):
                if name in header[:i]:
                    raise DomainError(f"{path}: column {name!r} appears more than once "
                                      f"in the header")
            dtypes = list(map(_column_dtype, header))
            # The C reader takes a whitespace-only line for a row when a row is one text cell.
            table_dtype = (np.dtype([(f"f{i}", dtype) for i, dtype in enumerate(dtypes)])
                           if len(header) > 1 or dtypes[0] is not object else None)
            parts: list[list[np.ndarray]] = [[] for _ in header]
            n_rows = 0
            while lines := list(islice(fh, _CHUNK_LINES)):
                table = None if table_dtype is None else _parse_chunk(lines, table_dtype)
                if table is not None:
                    n_rows += len(table)
                    # A field is a strided view that would keep its whole chunk alive.
                    for part, field, dtype in zip(parts, table_dtype.names, dtypes):
                        cells = table[field]
                        part.append(_intern_cells(cells) if dtype is object else cells.copy())
                    continue
                rows = [line.rstrip("\n").split(",") for line in lines if line.strip()]
                for n, row in enumerate(rows, n_rows + 1):
                    if len(row) != len(header):
                        raise DomainError(f"{path}: data row {n} has {len(row)} fields, "
                                          f"the header has {len(header)}")
                n_rows += len(rows)
                try:
                    for part, name, cells in zip(parts, header, zip(*rows)):
                        part.append(_typed_column(name, cells))
                except DomainError as exc:
                    raise DomainError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file ({exc})") from None
    if not n_rows:
        raise DomainError(f"{path}: no data rows")
    columns: dict[str, np.ndarray] = {}
    for name, part in zip(header, parts):
        columns[name] = np.concatenate(part)
        part.clear()  # so the joined columns and the chunk arrays overlap by one column
    for name, column in columns.items():
        if column.dtype == float and not np.isfinite(column).all():
            n = int(np.flatnonzero(~np.isfinite(column))[0])
            raise DomainError(f"{path}: column {name!r}: sample {n + 1} of {column.size} "
                              f"is not finite ({column[n]})")
    return columns


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
    rows = list(zip(*(columns[c].tolist() for c in wanted)))
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, wanted, rows)
    return rows
