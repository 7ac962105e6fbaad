import inspect
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhand import controller, protocol, sensors
from softhand.errors import DomainError, EncodeError
from softhand.protocol import (BROADCAST_ID, CMD_STOP, CMD_VENT, Frame, FrameDecoder,
                               SimulatedBus, encode)
from softhand.rand import DeterministicRng


def crc8_reference(data, poly=0x07, init=0x00):
    """Independent bitwise CRC-8 (MSB-first, init 0) used as the oracle."""
    crc = init
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def random_frame(rng):
    actuator_id = int(rng.choice([0, 1, 2, 3, 4, 5, 0xFF]))
    payload = bytes(rng.integers(0, 256, int(rng.integers(0, 33))).astype(np.uint8))
    return Frame(command=int(rng.integers(0, 256)), actuator_id=actuator_id, payload=payload)


class TestCrc:
    def test_known_vector(self):
        # CRC8/0x07 over (length=0x00, command=0x03, actuator=0x02), from the
        # bitwise reference implementation, is the trailer encode appends.
        assert crc8_reference(bytes([0x00, 0x03, 0x02])) == 0x31
        assert encode(Frame(command=0x03, actuator_id=0x02))[-1] == 0x31

    def test_table_matches_bitwise_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            wire = encode(random_frame(rng))
            assert wire[-1] == crc8_reference(wire[1:-1])


class TestEncode:
    def test_stop_frame_bytes_exact(self):
        # STOP (0x03) to actuator 2, empty payload: length byte is the
        # payload size (0), CRC over length..payload.
        wire = encode(Frame(command=CMD_STOP, actuator_id=2))
        assert wire == bytes([0xAA, 0x00, 0x03, 0x02, 0x31])

    def test_broadcast_vent_uses_ff(self):
        wire = encode(protocol.frame_for_command(protocol.Vent(), BROADCAST_ID))
        assert wire[3] == 0xFF
        assert wire[2] == CMD_VENT

    def test_oversize_payload_rejected(self):
        with pytest.raises(EncodeError):
            encode(Frame(command=1, actuator_id=0, payload=bytes(33)))

    def test_bad_actuator_id_rejected(self):
        with pytest.raises(EncodeError):
            encode(Frame(command=1, actuator_id=6))

    def test_round_trip_property(self):
        rng = np.random.default_rng(1)
        decoder = FrameDecoder()
        for _ in range(2000):
            frame = random_frame(rng)
            out = decoder.feed(encode(frame))
            assert out == [frame]
        assert decoder.crc_errors == 0


class TestDecode:
    def test_empty_input_needs_more(self):
        assert FrameDecoder().feed(b"") == []

    def test_partial_frame_needs_more(self):
        wire = encode(Frame(command=CMD_STOP, actuator_id=2))
        for cut in range(1, len(wire)):
            decoder = FrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert len(decoder._buf) == cut  # held whole, awaiting the rest
            assert decoder.bytes_skipped == 0 and decoder.crc_errors == 0

    def test_garbage_prefix_skipped(self):
        wire = bytes([0x01, 0x02, 0x03]) + encode(Frame(command=CMD_STOP, actuator_id=2))
        decoder = FrameDecoder()
        frames = decoder.feed(wire)
        assert frames == [Frame(command=CMD_STOP, actuator_id=2)]
        assert decoder.bytes_skipped == 3

    def test_flipped_bit_rejected_then_resync(self):
        good = encode(Frame(command=protocol.CMD_SET_PRESSURE_TARGET, actuator_id=1,
                            payload=struct.pack("<H", 5516)))
        corrupted = bytearray(good)
        corrupted[5] ^= 0x10  # payload bit flip
        decoder = FrameDecoder()
        assert decoder.feed(bytes(corrupted)) == []
        assert decoder.crc_errors == 1
        assert decoder.feed(good) == [Frame(command=protocol.CMD_SET_PRESSURE_TARGET,
                                            actuator_id=1, payload=struct.pack("<H", 5516))]

    def test_implausible_length_resyncs(self):
        decoder = FrameDecoder()
        junk = bytes([0xAA, 0xFF, 0x01, 0x02, 0x03])
        frames = decoder.feed(junk + encode(Frame(command=CMD_STOP, actuator_id=0)))
        assert frames == [Frame(command=CMD_STOP, actuator_id=0)]

    def test_frame_split_across_feeds(self):
        # Every cut point: the partial frame is kept whole, never skipped.
        frame = Frame(command=protocol.CMD_SET_PRESSURE_TARGET, actuator_id=3,
                      payload=struct.pack("<H", 5516))
        wire = encode(frame)
        for cut in range(1, len(wire)):
            decoder = FrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert decoder.feed(wire[cut:]) == [frame]
            assert decoder.bytes_skipped == 0 and decoder.crc_errors == 0

    def test_back_to_back_frames(self):
        frames = [Frame(command=CMD_STOP, actuator_id=i) for i in range(4)]
        wire = b"".join(encode(f) for f in frames)
        assert FrameDecoder().feed(wire) == frames

    def test_fuzz_smoke_no_crash_bounded_buffer(self):
        rng = np.random.default_rng(2)
        decoder = FrameDecoder()
        for _ in range(20):
            chunk = bytes(rng.integers(0, 256, 8192).astype(np.uint8))
            decoder.feed(chunk)
            assert len(decoder._buf) < 64  # at most one partial frame pending


class TestTypedCommands:
    def test_all_commands_round_trip(self):
        cases = [protocol.SetPressureTarget(55160.0), protocol.SetCurvatureTarget(13.51),
                 protocol.Vent(), protocol.Stop(), protocol.GetState(),
                 protocol.StreamStart(5), protocol.StreamStop(), protocol.ResetFault()]
        for command in cases:
            frame = protocol.frame_for_command(command, 3)
            assert protocol.parse_command(frame) == command

    def test_pressure_scaling_is_ten_pascals_per_lsb(self):
        frame = protocol.frame_for_command(protocol.SetPressureTarget(55158.06), 0)
        assert frame.payload == struct.pack("<H", 5516)
        parsed = protocol.parse_command(frame)
        assert parsed.pascals == 55160.0

    def test_curvature_scaling_is_centi_per_meter(self):
        frame = protocol.frame_for_command(protocol.SetCurvatureTarget(13.51), 0)
        assert frame.payload == struct.pack("<H", 1351)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(EncodeError):
            protocol.frame_for_command(protocol.SetPressureTarget(1e6), 0)
        with pytest.raises(EncodeError):
            protocol.frame_for_command(protocol.StreamStart(0), 0)

    @pytest.mark.parametrize("command", [
        protocol.SetPressureTarget(-1.0), protocol.SetPressureTarget(-5.0),
        protocol.SetPressureTarget(float("nan")), protocol.SetPressureTarget(float("inf")),
        protocol.SetCurvatureTarget(-0.004), protocol.SetCurvatureTarget(float("nan")),
        protocol.SetCurvatureTarget(float("-inf")),
    ], ids=["pa_-1", "pa_-5", "pa_nan", "pa_inf", "curv_-0.004", "curv_nan", "curv_-inf"])
    def test_negative_or_non_finite_target_refused(self, command):
        # Checked before rounding: -5..0 Pa would round to a 0 Pa target, NaN and
        # inf would leak round()'s ValueError and OverflowError.
        with pytest.raises(EncodeError, match="not encodable as u16"):
            protocol.encode_command(command, 0)

    def test_unknown_command_code_rejected_not_crash(self):
        assert protocol.parse_command(Frame(command=0x7F, actuator_id=0)) is None

    @pytest.mark.parametrize("code,payload", [
        (protocol.CMD_SET_PRESSURE_TARGET, b"\x01"), (CMD_VENT, b"\x00"),
        (protocol.CMD_SET_CURVATURE_TARGET, b"\x01"),
        (protocol.CMD_SET_CURVATURE_TARGET, b"\x01\x02\x03"),
        (protocol.CMD_STREAM_START, b""), (protocol.CMD_STREAM_START, b"\x00"),
        (protocol.CMD_STREAM_START, b"\x05\x05"),
    ])
    def test_malformed_payload_rejected(self, code, payload):
        from softhand.runner import HandDevice

        frame = Frame(command=code, actuator_id=0, payload=payload)
        assert protocol.parse_command(frame) is None
        device = HandDevice(2, controller.ControllerConfig())
        fsms = device.fsms
        device.feed(encode(frame), 0.0)
        assert device.unknown_commands == 1 and device.rejected_commands == 0
        assert device.fsms == fsms
        # Nor did it start a stream: the next tick sends nothing.
        reading = sensors.PhysicalReading(0.0, 0.0, 0.0)
        assert device.tick([(0, 0, reading)] * 2, 0.005)[1] == b""

    def test_telemetry_wire_layout_frozen(self):
        # u32 t_ms, u16 pressure, u16 strain, u8 mode, little endian.
        wire = protocol.encode_telemetry(1, t_ms=1000, pressure_counts=0x0102,
                                         strain_counts=0x0304, fsm_mode=3)
        assert wire[4:13] == bytes([0xE8, 0x03, 0x00, 0x00, 0x02, 0x01, 0x04, 0x03, 0x03])
        frame = FrameDecoder().feed(wire)[0]
        telemetry = protocol.parse_telemetry(frame)
        assert telemetry == protocol.Telemetry(1000, 0x0102, 0x0304, 3)

    def test_mode_codes_are_the_documented_table(self):
        assert protocol.MODE_CODES == {"Idle": 0, "Inflating": 1, "Venting": 2, "Holding": 3,
                                       "Fault": 4}
        assert {mode.value: protocol.MODE_CODES[mode.value] for mode in controller.Mode} == (
            protocol.MODE_CODES)

    @pytest.mark.parametrize("fsm_mode", [5, 25, 154, 255])
    def test_telemetry_with_unknown_mode_refused(self, fsm_mode):
        # A frame that passes its CRC after a resync inside damaged bytes can
        # carry any mode byte; the host must not take it for telemetry.
        wire = protocol.encode_telemetry(0, t_ms=5, pressure_counts=1, strain_counts=2,
                                         fsm_mode=fsm_mode)
        assert protocol.parse_telemetry(FrameDecoder().feed(wire)[0]) is None


def telemetry_oracle(actuator_id, t_ms, pressure_counts, strain_counts, fsm_mode):
    """The telemetry frame by encode's bytewise CRC, with each field masked to its width."""
    payload = struct.pack("<IHHB", t_ms & 0xFFFFFFFF, pressure_counts & 0xFFFF,
                          strain_counts & 0xFFFF, fsm_mode & 0xFF)
    return encode(Frame(protocol.CMD_TELEMETRY, actuator_id, payload))


def outcome(fn, *args):
    """A call's result, or the type and message of the EncodeError it raised."""
    try:
        return fn(*args)
    except EncodeError as exc:
        return EncodeError, str(exc)


class TestTelemetryEncoder:
    """encode_telemetry's field-table CRC against encode's bytewise one."""

    @settings(max_examples=300, deadline=None)
    @given(actuator_id=st.sampled_from([0, 1, 2, 3, 4, 5, BROADCAST_ID]),
           t_ms=st.integers(-2 ** 40, 2 ** 40), pressure_counts=st.integers(-2 ** 20, 2 ** 20),
           strain_counts=st.integers(-2 ** 20, 2 ** 20), fsm_mode=st.integers(-300, 300))
    def test_same_bytes_as_bytewise_oracle(self, actuator_id, t_ms, pressure_counts,
                                           strain_counts, fsm_mode):
        # Fields past their masks, negatives included, wrap as the oracle's do.
        args = (actuator_id, t_ms, pressure_counts, strain_counts, fsm_mode)
        wire = protocol.encode_telemetry(*args)
        assert wire == telemetry_oracle(*args)
        frames = FrameDecoder().feed(wire)
        assert len(frames) == 1 and frames[0].actuator_id == actuator_id
        masked = protocol.Telemetry(t_ms & 0xFFFFFFFF, pressure_counts & 0xFFFF,
                                    strain_counts & 0xFFFF, fsm_mode & 0xFF)
        expected = masked if masked.fsm_mode <= max(protocol.MODE_CODES.values()) else None
        assert protocol.parse_telemetry(frames[0]) == expected

    @pytest.mark.parametrize("field", [0, 1, 2, 3], ids=["t_ms_low", "t_ms_high", "pressure",
                                                         "strain"])
    def test_every_u16_table_entry(self, field):
        # Each 16-bit value of one field, the others zero: every entry of that
        # field's table against the oracle.
        for value in range(0x10000):
            args = [0, 0, 0, 0, 0]
            if field < 2:
                args[1] = value << (16 * field)
            else:
                args[field] = value
            assert protocol.encode_telemetry(*args) == telemetry_oracle(*args), value

    def test_every_id_and_mode_entry(self):
        for actuator_id in (0, 1, 2, 3, 4, 5, BROADCAST_ID):
            for fsm_mode in range(256):
                args = (actuator_id, 70000, 4095, 17, fsm_mode)
                assert protocol.encode_telemetry(*args) == telemetry_oracle(*args)

    def test_bad_actuator_id_refused_as_encode_does(self):
        for actuator_id in (-1, *range(6, 255), 256, 2 ** 40):
            args = (actuator_id, 5, 1, 2, 0)
            expected = outcome(telemetry_oracle, *args)
            assert expected == (EncodeError,
                                f"actuator_id must be 0..5 or 0xFF, got {actuator_id}")
            assert outcome(protocol.encode_telemetry, *args) == expected


@pytest.mark.parametrize("cls, fields, defaults, values", [
    (Frame, ("command", "actuator_id", "payload"), {"payload": b""}, (0x85, 2, b"\x01")),
    (protocol.Telemetry, ("t_ms", "pressure_counts", "strain_counts", "fsm_mode"), {},
     (1000, 258, 772, 3)),
], ids=["Frame", "Telemetry"])
class TestValueTypeContract:
    """Frames and telemetry, built per frame: frozen tuples with named fields."""

    def test_fields_in_order_with_defaults(self, cls, fields, defaults, values):
        params = inspect.signature(cls).parameters
        assert tuple(params) == fields
        assert {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty} == defaults

    def test_keyword_construction_equality_and_hash(self, cls, fields, defaults, values):
        by_name = cls(**dict(zip(fields, values)))
        assert by_name == cls(*values) and hash(by_name) == hash(cls(*values))
        assert [getattr(by_name, name) for name in fields] == list(values)
        assert by_name == values and len(by_name) == len(fields)
        assert by_name != cls(*values[:-1], None)

    def test_fields_cannot_be_set(self, cls, fields, defaults, values):
        with pytest.raises(AttributeError):
            setattr(cls(*values), fields[0], 0)

    def test_repr_names_every_field(self, cls, fields, defaults, values):
        assert repr(cls(*values)) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(fields, values)) + ")"


class TestSimulatedBus:
    def test_lossless_passthrough(self):
        bus = SimulatedBus(seed=4)
        data = bytes(range(256))
        bus.host_send(data)
        assert bus.device_recv() == data
        bus.device_send(data)
        assert bus.host_recv() == data

    def test_latency_delays_delivery(self):
        bus = SimulatedBus(latency_s=0.1, seed=4)
        bus.host_send(b"abc", t=0.0)
        assert bus.device_recv(t=0.05) == b""
        assert bus.device_recv(t=0.11) == b"abc"

    def test_deterministic_given_seed(self):
        def deliver(seed):
            bus = SimulatedBus(loss_rate=0.2, bit_error_rate=1e-2, seed=seed)
            bus.host_send(bytes(range(200)))
            return bus.device_recv()

        assert deliver(9) == deliver(9)
        assert deliver(9) != deliver(10)

    def test_loss_rate_statistics(self):
        bus = SimulatedBus(loss_rate=0.1, seed=5)
        n = 20_000
        bus.host_send(bytes(n))
        delivered = len(bus.device_recv())
        assert delivered / n == pytest.approx(0.9, abs=0.01)

    def test_invalid_rates_rejected(self):
        with pytest.raises(DomainError):
            SimulatedBus(loss_rate=1.0)
        with pytest.raises(DomainError):
            SimulatedBus(bit_error_rate=-0.1)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), -0.1])
    def test_invalid_latency_rejected(self, latency):
        with pytest.raises(DomainError, match="latency_s must be finite and >= 0"):
            SimulatedBus(latency_s=latency)

    def test_telemetry_integrity_bit_exact_or_dropped(self):
        # Corrupted frames must fail the CRC and be dropped, never accepted
        # with altered content. The payload encodes its own index so any
        # accepted frame can be checked against what was sent.
        bus = SimulatedBus(bit_error_rate=1e-4, seed=8)
        decoder = FrameDecoder()
        n_frames = 7000
        sent = {i: (i & 0xFFFF, (31 * i) & 0xFFFF, i % 5) for i in range(n_frames)}
        wire = b"".join(protocol.encode_telemetry(0, t_ms=i, pressure_counts=pc,
                                                  strain_counts=sc, fsm_mode=mode)
                        for i, (pc, sc, mode) in sent.items())
        bus.host_send(wire)
        received = bus.device_recv()
        assert received != wire  # the channel did corrupt something
        frames = decoder.feed(received)
        assert decoder.crc_errors > 0
        assert 0 < len(frames) < n_frames
        for frame in frames:
            telemetry = protocol.parse_telemetry(frame)
            assert telemetry is not None
            pc, sc, mode = sent[telemetry.t_ms]
            assert (telemetry.pressure_counts, telemetry.strain_counts,
                    telemetry.fsm_mode) == (pc, sc, mode)

    def test_bit_error_frame_loss_matches_analytic(self):
        # 14-byte telemetry frames; byte-aligned decoding survives iff all
        # 112 bits arrive intact: (1 - ber)^112.
        ber = 1e-3
        bus = SimulatedBus(bit_error_rate=ber, seed=6)
        decoder = FrameDecoder()
        n_frames = 7000
        wire = b"".join(protocol.encode_telemetry(0, t_ms=i, pressure_counts=i & 0xFFFF,
                                                  strain_counts=(2 * i) & 0xFFFF, fsm_mode=1)
                        for i in range(n_frames))
        bus.host_send(wire)
        survived = len(decoder.feed(bus.device_recv()))
        expected = n_frames * (1.0 - ber) ** (8 * 14)
        assert survived == pytest.approx(expected, rel=0.2)


class TestLossyCommandRetry:
    def test_retry_until_acknowledged_under_loss(self):
        from softhand.runner import HandDevice

        config = controller.ControllerConfig()
        for trial in range(20):
            bus = SimulatedBus(loss_rate=0.10, seed=1000 + trial)
            device = HandDevice(1, config)
            host = FrameDecoder()
            target = protocol.SetPressureTarget(50e3)
            acked = False
            for attempt in range(50):
                t = float(attempt)
                bus.host_send(protocol.encode_command(target, 0), t)
                bus.host_send(protocol.encode_command(protocol.GetState(), 0), t)
                device.feed(bus.device_recv(), t)
                _, out, _ = device.tick([(0, 0, sensors.PhysicalReading(0.0, 0.0, 0.0))], t)
                bus.device_send(out, t)
                for response in host.feed(bus.host_recv()):
                    telemetry = protocol.parse_telemetry(response)
                    if telemetry and telemetry.fsm_mode == protocol.MODE_CODES[
                            controller.Mode.INFLATING.value]:
                        acked = True
                if acked:
                    break
            assert acked, f"trial {trial} never acknowledged"
            assert device.fsms[0].target == target


class PerByteChannel:
    """The bus channel as it was before chunking: one (t, byte) queue entry per byte."""

    def __init__(self, loss_rate, bit_error_rate, latency_s, rng):
        self._loss = loss_rate
        self._ber = bit_error_rate
        self._latency = latency_s
        self._rng = rng
        self._queue = deque()

    def send(self, data, t=0.0):
        for byte in data:
            if self._loss > 0.0 and self._rng.random() < self._loss:
                continue
            if self._ber > 0.0:
                for bit in range(8):
                    if self._rng.random() < self._ber:
                        byte ^= 1 << bit
            self._queue.append((t + self._latency, byte))

    def recv(self, t=None):
        out = bytearray()
        while self._queue and (t is None or self._queue[0][0] <= t):
            out.append(self._queue.popleft()[1])
        return bytes(out)


def rate(high):
    return st.one_of(st.just(0.0), st.floats(0.0, high, exclude_min=True))


times = st.floats(0.0, 1.0)
channel_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), st.binary(max_size=40), times),
    st.tuples(st.just("recv"), st.one_of(st.none(), times))), max_size=30)


def flip_bit(wire, index, bit):
    corrupted = bytearray(wire)
    corrupted[index % len(corrupted)] ^= 1 << bit
    return bytes(corrupted)


def decoder_segments():
    """Valid frames, corrupted frames and random bytes, concatenated."""
    frame = st.builds(Frame, st.integers(0, 255),
                      st.sampled_from([0, 1, 2, 3, 4, 5, BROADCAST_ID]),
                      st.binary(max_size=protocol.MAX_PAYLOAD))
    flipped = st.tuples(frame, st.integers(0, 10**6), st.integers(0, 7)).map(
        lambda f: flip_bit(encode(f[0]), f[1], f[2]))
    return st.lists(st.one_of(frame.map(encode), flipped, st.binary(max_size=50)),
                    max_size=12).map(b"".join)


def decode_all(pieces):
    decoder = FrameDecoder()
    frames = [frame for piece in pieces for frame in decoder.feed(piece)]
    return frames, (decoder.frames_decoded, decoder.crc_errors, decoder.bytes_skipped)


class TestWireProperties:
    @settings(max_examples=200, deadline=None)
    @given(ops=channel_ops, monotone=st.booleans(), seed=st.integers(0, 2**64 - 1),
           latency=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
           loss=rate(0.5), ber=rate(0.05))
    def test_chunked_channel_delivers_as_per_byte_channel(self, ops, monotone, seed,
                                                           latency, loss, ber):
        if monotone:  # the same ops, their times made non-decreasing
            clock = iter(sorted(op[-1] for op in ops if op[-1] is not None))
            ops = [op if op[-1] is None else (*op[:-1], next(clock)) for op in ops]
        chunked = protocol._Channel(loss, ber, latency, DeterministicRng(seed))
        per_byte = PerByteChannel(loss, ber, latency, DeterministicRng(seed))
        for op, *args in ops:
            if op == "send":
                chunked.send(*args)
                per_byte.send(*args)
            else:
                assert chunked.recv(*args) == per_byte.recv(*args)
            assert chunked._rng._state == per_byte._rng._state
        assert chunked.recv() == per_byte.recv()

    @settings(max_examples=200, deadline=None)
    @given(stream=st.one_of(decoder_segments(), st.binary(max_size=300)),
           cuts=st.lists(st.integers(0, 400), max_size=8))
    def test_decoder_split_anywhere_equals_whole(self, stream, cuts):
        bounds = sorted({min(c, len(stream)) for c in cuts})
        pieces = [stream[a:b] for a, b in zip([0, *bounds], [*bounds, len(stream)])]
        assert decode_all(pieces) == decode_all([stream])

    @settings(max_examples=200, deadline=None)
    @given(stream=st.one_of(decoder_segments(), st.binary(max_size=300)),
           cuts=st.lists(st.integers(0, 400), max_size=8))
    def test_decoder_accounts_for_every_byte(self, stream, cuts):
        # Each byte fed is skipped, part of a decoded frame, or still buffered.
        bounds = sorted({min(c, len(stream)) for c in cuts})
        decoder = FrameDecoder()
        fed = framed = 0
        for a, b in zip([0, *bounds], [*bounds, len(stream)]):
            frames = decoder.feed(stream[a:b])
            fed += b - a
            framed += sum(len(f.payload) + 5 for f in frames)  # sync, 3 header bytes, crc
            assert decoder.bytes_skipped + framed + len(decoder._buf) == fed
