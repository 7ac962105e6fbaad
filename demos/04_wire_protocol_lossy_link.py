"""Drive a finger like a digital servo over the framed serial protocol.

Encodes absolute-target commands, pushes them through a lossy simulated bus
to the device endpoint, and retries until the state readback confirms the
target took effect. Absolute targets make retries safe without sequence
numbers: replaying a command is a no-op.

Run: python demos/04_wire_protocol_lossy_link.py
"""

from softhand import controller, protocol, sensors
from softhand.runner import HandDevice


def hexdump(data: bytes) -> str:
    return " ".join(f"{b:02X}" for b in data)


def main():
    target = protocol.SetPressureTarget(55160.0)
    wire = protocol.encode_command(target, actuator_id=0)
    print(f"SET_PRESSURE_TARGET 55160 Pa -> {hexdump(wire)}")
    print(f"  sync AA | len {wire[1]:02X} | cmd {wire[2]:02X} | id {wire[3]:02X} | "
          f"payload {hexdump(wire[4:-1])} | crc {wire[-1]:02X}\n")

    config = controller.ControllerConfig()
    bus = protocol.SimulatedBus(loss_rate=0.08, bit_error_rate=5e-4, seed=97)
    device = HandDevice(1, config)
    host = protocol.FrameDecoder()

    print("Lossy link: 8% byte loss, 5e-4 bit error rate. Retrying until acked...")
    acked_at = None
    for attempt in range(200):
        t = float(attempt)
        bus.host_send(protocol.encode_command(target, 0), t)
        bus.host_send(protocol.encode_command(protocol.GetState(), 0), t)
        device.feed(bus.device_recv(), t)
        _, out, _ = device.tick([(1470, 0, sensors.PhysicalReading(0.0, 0.0, 0.0))], t)
        bus.device_send(out, t)
        for response in host.feed(bus.host_recv()):
            telemetry = protocol.parse_telemetry(response)
            if telemetry and telemetry.fsm_mode == protocol.MODE_CODES[
                    controller.Mode.INFLATING.value]:
                acked_at = attempt
        if acked_at is not None:
            break
    if acked_at is None:
        raise SystemExit("link never acknowledged; loss rate too hostile")

    print(f"  acknowledged after {acked_at + 1} attempt(s)")
    print(f"  device target: {device.fsms[0].target}")
    print(f"  device-side decoder: {device.decoder.frames_decoded} frames, "
          f"{device.decoder.crc_errors} CRC rejects, "
          f"{device.decoder.bytes_skipped} bytes skipped")
    print(f"  host-side decoder: {host.frames_decoded} frames, "
          f"{host.crc_errors} CRC rejects")


if __name__ == "__main__":
    main()
