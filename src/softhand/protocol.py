"""Byte-level framed serial protocol between the host and the hand.

Frame layout:  0xAA | length | command | actuator_id | payload | crc
where length is the payload size (0..32), actuator_id is 0..5 or 0xFF for
broadcast, and crc is CRC-8 (polynomial 0x07, init 0, MSB first) over
length..payload. Command values are scaled integers, never floats:
pressure targets in Pa/10, curvature targets in 0.01/m.

``encode_telemetry`` reads its CRC from per-field tables instead of walking
the payload. CRC-8 with init 0 and no final XOR is linear over GF(2) for
messages of one length: the CRC of a XOR of two 12-byte messages is the XOR
of their CRCs. A telemetry frame's 12 CRC bytes are the XOR of messages that
are zero but for one field (the header with its actuator id, each 16-bit
half of t_ms, the pressure counts, the strain counts, the mode), so its CRC
is the XOR of those fields' CRCs, each tabulated once from ``_CRC_TABLE``
(Sarwate, "Computation of cyclic redundancy checks via table look-up",
CACM 1988). Command frames and the decoder keep the bytewise CRC.

Commands carry no sequence numbers; every command is an absolute setting,
so retrying over a lossy link is always safe. The incremental decoder
consumes arbitrary byte streams: on a bad sync, bad length, bad id or CRC
mismatch it discards a single byte and rescans, so it can never crash or
swallow a later valid frame.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EncodeError
from .rand import DeterministicRng

SYNC = 0xAA
BROADCAST_ID = 0xFF
MAX_PAYLOAD = 32
MAX_ACTUATOR_ID = 5
_HEADER_LEN = 4  # sync, length, command, actuator_id
_MIN_FRAME = _HEADER_LEN + 1

CMD_SET_PRESSURE_TARGET = 0x01
CMD_SET_CURVATURE_TARGET = 0x02
CMD_STOP = 0x03
CMD_VENT = 0x04
CMD_GET_STATE = 0x05
CMD_STREAM_START = 0x06
CMD_STREAM_STOP = 0x07
CMD_RESET_FAULT = 0x08
CMD_TELEMETRY = 0x85

CRC_POLY = 0x07

# Telemetry's u8 fsm_mode: the code of each controller mode, by the mode's name.
MODE_CODES = {"Idle": 0, "Inflating": 1, "Venting": 2, "Holding": 3, "Fault": 4}
_MAX_MODE_CODE = max(MODE_CODES.values())  # the codes run 0.._MAX_MODE_CODE


def _build_crc_table(poly: int) -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table(CRC_POLY)
# The CRC trailer of each CRC value, as the one byte encode appends.
_CRC_BYTE = tuple(bytes((crc,)) for crc in range(256))


class Frame(NamedTuple):
    command: int
    actuator_id: int
    payload: bytes = b""


# Builds a Frame or Telemetry from a tuple without NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__


def encode(frame: Frame) -> bytes:
    """Bit-exact serialization of a frame: one CRC pass over length..payload, then the trailer."""
    command, actuator_id, payload = frame
    length = len(payload)
    if length > MAX_PAYLOAD:
        raise EncodeError(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")
    if not (0 <= command <= 0xFF):
        raise EncodeError(f"command byte out of range: {command}")
    if not (0 <= actuator_id <= MAX_ACTUATOR_ID or actuator_id == BROADCAST_ID):
        raise EncodeError(f"actuator_id must be 0..{MAX_ACTUATOR_ID} or 0xFF, got {actuator_id}")
    table = _CRC_TABLE
    crc = table[table[table[length] ^ command] ^ actuator_id]  # the CRC of the three header bytes
    for b in payload:
        crc = table[crc ^ b]
    return bytes((SYNC, length, command, actuator_id)) + payload + _CRC_BYTE[crc]


class FrameDecoder:
    """Streaming decoder with diagnostics counters. Accepts any byte garbage."""

    def __init__(self):
        self._buf = b""
        self.frames_decoded = 0
        self.crc_errors = 0
        self.bytes_skipped = 0

    def feed(self, data: bytes) -> list[Frame]:
        """Append bytes and return every valid frame now complete.

        A buffer that ends inside a potential frame keeps it for the next feed.
        A frame is accepted when the CRC over length..crc is 0: the table maps
        0 to 0 and no other byte to 0, so that holds exactly when the trailer
        equals the CRC over length..payload.
        """
        if not data:  # the buffer holds at most an undecided partial frame
            return []
        buf = self._buf + data if self._buf else bytes(data)
        table = _CRC_TABLE
        frames: list[Frame] = []
        pos = 0
        n = len(buf)
        while pos < n:
            if buf[pos] != SYNC:
                idx = buf.find(SYNC, pos)
                if idx < 0:
                    self.bytes_skipped += n - pos
                    pos = n
                    break
                self.bytes_skipped += idx - pos
                pos = idx
            if n - pos < _MIN_FRAME:
                break
            length = buf[pos + 1]
            if length > MAX_PAYLOAD:
                self.bytes_skipped += 1
                pos += 1
                continue
            end = pos + _MIN_FRAME + length
            if n < end:
                break
            crc = 0
            for b in buf[pos + 1:end]:
                crc = table[crc ^ b]
            if crc:
                self.crc_errors += 1
                self.bytes_skipped += 1
                pos += 1
                continue
            actuator_id = buf[pos + 3]
            if actuator_id > MAX_ACTUATOR_ID and actuator_id != BROADCAST_ID:
                self.bytes_skipped += 1
                pos += 1
                continue
            frames.append(_new_tuple(Frame, (buf[pos + 2], actuator_id,
                                             buf[pos + _HEADER_LEN:end - 1])))
            pos = end
        self._buf = buf[pos:]
        self.frames_decoded += len(frames)
        return frames


# --- typed command layer -------------------------------------------------

@dataclass(frozen=True)
class SetPressureTarget:
    pascals: float


@dataclass(frozen=True)
class SetCurvatureTarget:
    curvature: float


@dataclass(frozen=True)
class Vent:
    pass


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class GetState:
    pass


@dataclass(frozen=True)
class StreamStart:
    period_ms: int


@dataclass(frozen=True)
class StreamStop:
    pass


@dataclass(frozen=True)
class ResetFault:
    pass


Command = (SetPressureTarget | SetCurvatureTarget | Vent | Stop | GetState
           | StreamStart | StreamStop | ResetFault)


class Telemetry(NamedTuple):
    t_ms: int
    pressure_counts: int
    strain_counts: int
    fsm_mode: int


_TELEMETRY_STRUCT = struct.Struct("<IHHB")
_TELEMETRY_SIZE = _TELEMETRY_STRUCT.size
# A whole telemetry frame: sync, length, command, actuator_id, payload, crc.
_TELEMETRY_FRAME = struct.Struct("<BBBBIHHBB")


def _telemetry_crc_tables() -> tuple[bytes, bytes, bytes, bytes, bytes]:
    """The header's CRC share by actuator id, then the u16 tables of t_ms's
    low and high halves, the pressure counts and the strain counts.

    A byte's share of the CRC over a telemetry frame's 12 CRC bytes is the
    CRC of that byte followed by as many zero bytes as come after it: a
    leading zero byte leaves a CRC of init 0 at 0.
    """
    table = np.array(_CRC_TABLE, dtype=np.uint8)
    at = [table]  # at[k]: each byte value's share with k bytes after it, k = 0..11
    for _ in range(11):
        at.append(table[at[-1]])

    def u16(low: int, high: int) -> bytes:  # a little-endian u16's share by its value
        return (at[high][:, None] ^ at[low][None, :]).tobytes()

    header = at[11][_TELEMETRY_SIZE] ^ at[10][CMD_TELEMETRY] ^ at[9]
    return header.tobytes(), u16(8, 7), u16(6, 5), u16(4, 3), u16(2, 1)


# The mode byte is last, so its share is _CRC_TABLE itself.
(_CRC_BY_ID, _CRC_BY_T_LOW, _CRC_BY_T_HIGH, _CRC_BY_PRESSURE,
 _CRC_BY_STRAIN) = _telemetry_crc_tables()

# Each command type's wire code, and the same table read backwards.
_COMMAND_CODES = {SetPressureTarget: CMD_SET_PRESSURE_TARGET,
                  SetCurvatureTarget: CMD_SET_CURVATURE_TARGET, Stop: CMD_STOP, Vent: CMD_VENT,
                  GetState: CMD_GET_STATE, StreamStart: CMD_STREAM_START,
                  StreamStop: CMD_STREAM_STOP, ResetFault: CMD_RESET_FAULT}
_COMMAND_TYPES = {code: kind for kind, code in _COMMAND_CODES.items()}
# A target's value per LSB of its u16 payload, and the refusal of a value the u16 cannot hold.
_TARGETS = {SetPressureTarget: (10.0, "pressure target {} Pa not encodable as u16 Pa/10"),
            SetCurvatureTarget: (0.01, "curvature target {} not encodable as u16 0.01/m")}


def frame_for_command(command: Command, actuator_id: int) -> Frame:
    """Build the wire frame for a typed command."""
    kind = type(command)
    code = _COMMAND_CODES.get(kind)
    if code is None:
        raise EncodeError(f"unsupported command {command!r}")
    if kind in _TARGETS:
        lsb, refusal = _TARGETS[kind]
        (value,) = vars(command).values()
        # Checked before rounding, so NaN, inf and -lsb/2..0 fail as -1 does.
        raw = round(value / lsb) if 0.0 <= value < math.inf else -1
        if not (0 <= raw <= 0xFFFF):
            raise EncodeError(refusal.format(value))
        return Frame(code, actuator_id, struct.pack("<H", raw))
    if kind is StreamStart:
        if not (1 <= command.period_ms <= 0xFF):
            raise EncodeError(f"stream period must be 1..255 ms, got {command.period_ms}")
        return Frame(code, actuator_id, bytes([command.period_ms]))
    return Frame(code, actuator_id)


def encode_command(command: Command, actuator_id: int) -> bytes:
    return encode(frame_for_command(command, actuator_id))


def parse_command(frame: Frame) -> Command | None:
    """Typed command from a decoded frame; None for unknown or malformed.

    Unknown command codes are rejected, never raised on: a device must keep
    running whatever arrives.
    """
    kind, payload = _COMMAND_TYPES.get(frame.command), frame.payload
    if kind in _TARGETS:
        if len(payload) != 2:
            return None
        return kind(struct.unpack("<H", payload)[0] * _TARGETS[kind][0])
    if kind is StreamStart:
        if len(payload) != 1 or payload[0] == 0:
            return None
        return StreamStart(payload[0])
    if kind is None or payload:
        return None
    return kind()


def encode_telemetry(actuator_id: int, t_ms: int, pressure_counts: int,
                     strain_counts: int, fsm_mode: int) -> bytes:
    """The telemetry frame ``encode`` writes for these fields, each masked to
    its wire width; the CRC is read from the field tables."""
    if not (0 <= actuator_id <= MAX_ACTUATOR_ID or actuator_id == BROADCAST_ID):
        raise EncodeError(f"actuator_id must be 0..{MAX_ACTUATOR_ID} or 0xFF, got {actuator_id}")
    t_ms &= 0xFFFFFFFF
    pressure_counts &= 0xFFFF
    strain_counts &= 0xFFFF
    fsm_mode &= 0xFF
    crc = (_CRC_BY_ID[actuator_id] ^ _CRC_BY_T_LOW[t_ms & 0xFFFF] ^ _CRC_BY_T_HIGH[t_ms >> 16]
           ^ _CRC_BY_PRESSURE[pressure_counts] ^ _CRC_BY_STRAIN[strain_counts]
           ^ _CRC_TABLE[fsm_mode])
    return _TELEMETRY_FRAME.pack(SYNC, _TELEMETRY_SIZE, CMD_TELEMETRY, actuator_id, t_ms,
                                 pressure_counts, strain_counts, fsm_mode, crc)


def parse_telemetry(frame: Frame) -> Telemetry | None:
    """Telemetry from a decoded frame; None for another command, a bad size or
    an fsm_mode outside MODE_CODES (its last payload byte)."""
    command, _, payload = frame
    if (command != CMD_TELEMETRY or len(payload) != _TELEMETRY_SIZE
            or payload[-1] > _MAX_MODE_CODE):
        return None
    return _new_tuple(Telemetry, _TELEMETRY_STRUCT.unpack(payload))


# --- simulated serial bus -------------------------------------------------

class _Channel:
    """One direction of the bus: a queue of (delivery time, chunk), one entry per send."""

    def __init__(self, loss_rate: float, bit_error_rate: float, latency_s: float,
                 rng: DeterministicRng):
        self._loss = loss_rate
        self._ber = bit_error_rate
        self._latency = latency_s
        self._rng = rng
        self._queue: deque[tuple[float, bytes]] = deque()

    def send(self, data: bytes, t: float = 0.0) -> None:
        if self._loss > 0.0 or self._ber > 0.0:  # per byte: a loss draw, then 8 bit draws
            survivors = bytearray()
            for byte in data:
                if self._loss > 0.0 and self._rng.random() < self._loss:
                    continue
                if self._ber > 0.0:
                    for bit in range(8):
                        if self._rng.random() < self._ber:
                            byte ^= 1 << bit
                survivors.append(byte)
            data = survivors
        # An empty chunk at the head would hold back later sends with earlier
        # times; bytes() copies a caller's bytearray, so later edits stay out.
        if data:
            self._queue.append((t + self._latency, bytes(data)))

    def recv(self, t: float | None = None) -> bytes:
        chunks = []
        while self._queue and (t is None or self._queue[0][0] <= t):
            chunks.append(self._queue.popleft()[1])
        return b"".join(chunks)


class SimulatedBus:
    """Bidirectional lossy byte channel, deterministic for a given seed.

    Drops whole bytes with probability loss_rate, flips each bit with
    probability bit_error_rate, and delays delivery by latency_s of
    simulated time (recv with t=None drains everything).
    """

    def __init__(self, loss_rate: float = 0.0, bit_error_rate: float = 0.0,
                 latency_s: float = 0.0, seed: int = 0):
        for name, rate in (("loss_rate", loss_rate), ("bit_error_rate", bit_error_rate)):
            if not (0.0 <= rate < 1.0):
                raise DomainError(f"{name} must be in [0, 1), got {rate}")
        if not (0.0 <= latency_s < math.inf):
            raise DomainError(f"latency_s must be finite and >= 0, got {latency_s}")
        root = DeterministicRng(seed)
        self._down = _Channel(loss_rate, bit_error_rate, latency_s, root.spawn(1))
        self._up = _Channel(loss_rate, bit_error_rate, latency_s, root.spawn(2))

    def host_send(self, data: bytes, t: float = 0.0) -> None:
        self._down.send(data, t)

    def device_recv(self, t: float | None = None) -> bytes:
        return self._down.recv(t)

    def device_send(self, data: bytes, t: float = 0.0) -> None:
        self._up.send(data, t)

    def host_recv(self, t: float | None = None) -> bytes:
        return self._up.recv(t)
