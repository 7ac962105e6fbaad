"""What the benchmark in perfbench/ relies on, checked here so a break fails fast.

perfbench wraps every call site in perfbench/layers.json by its dotted path,
the calibration_batch workload takes its simulated time from the number of
controller.fsm_tick calls (one per physics.FingerPlant.advance), and grasp_sweep reports protocol.encode calls as
its frames-encoded count: command frames only, since protocol.encode_telemetry
builds telemetry frames without it. A rename or a rerouted loop would otherwise
fail only the benchmark run, or silently change a reported count.
"""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from softhand import calibration, controller, physics, protocol, runner, scenario, sensors

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def traced_names():
    with open(LAYERS, encoding="utf-8") as fh:
        return [target["name"] for target in json.load(fh)["targets"]]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_public_callable(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"softhand.{module}")
    for attr in attrs:
        assert not attr.startswith("_"), name
        owner = getattr(owner, attr)
    assert callable(owner), name


def count_calls(monkeypatch, calls, owner, attr, key=None):
    """Wrap ``owner.attr`` so that each call adds one to ``calls[key or attr]``."""
    fn = getattr(owner, attr)
    key = key or attr
    calls[key] = 0

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)


def test_calibration_run_ticks_fsm_once_per_physics_step(monkeypatch):
    calls = {}
    count_calls(monkeypatch, calls, controller, "fsm_tick")
    count_calls(monkeypatch, calls, physics.FingerPlant, "advance")
    calibration.simulate_calibration_run(physics.ActuatorParams(), sensors.SensorChain(),
                                         [40e3], seed=1, settle_s=0.1)
    assert calls["fsm_tick"] > 0
    assert calls["fsm_tick"] == calls["advance"]


def test_streamed_run_wire_counts(monkeypatch):
    # grasp_sweep's shape: a broadcast 5 ms stream_start at t=0 ahead of the
    # fixture's own commands, so every finger sends one telemetry frame per
    # 5 ms tick, each built by protocol.encode_telemetry alone.
    base = scenario.load_shipped_scenario("cylinder_r74mm")
    stream = scenario.ScheduledCommand(t_s=0.0, actuator_id=protocol.BROADCAST_ID,
                                       command=protocol.StreamStart(5))
    sc = dataclasses.replace(base, commands=(stream,) + base.commands)
    n_ticks = round(sc.duration_s / sc.tick_s)
    calls = {}
    count_calls(monkeypatch, calls, protocol, "encode")
    count_calls(monkeypatch, calls, runner.HandDevice, "tick")
    count_calls(monkeypatch, calls, physics.FingerPlant, "advance")
    # Traced by perfbench through these attributes: inlining one of them
    # would zero its traced label, so each is counted here.
    count_calls(monkeypatch, calls, protocol, "encode_telemetry")
    count_calls(monkeypatch, calls, protocol.FrameDecoder, "feed")
    count_calls(monkeypatch, calls, protocol, "parse_telemetry")
    count_calls(monkeypatch, calls, controller, "hand_controller_tick")
    count_calls(monkeypatch, calls, controller, "fsm_tick")
    count_calls(monkeypatch, calls, controller, "apply_command")
    result = runner.run_scenario(sc)
    assert sc.n_fingers == 3 and n_ticks > 0
    assert calls["tick"] == n_ticks
    assert calls["advance"] == sc.n_fingers * n_ticks
    assert calls["encode"] == len(sc.commands)
    assert result.wire_telemetry_count == 3 * n_ticks
    assert calls["encode_telemetry"] == 3 * n_ticks
    assert calls["feed"] == 2 * n_ticks  # the device's decoder and the host's
    assert calls["parse_telemetry"] == 3 * n_ticks
    assert calls["hand_controller_tick"] == n_ticks
    assert calls["fsm_tick"] == 3 * n_ticks
    assert calls["apply_command"] == 6  # the fixture's two broadcasts, to 3 fingers each


def test_unstreamed_run_call_counts(monkeypatch):
    # The fixtures workload's shape: no stream, so no telemetry frame is
    # encoded or parsed, and every tick still feeds both decoders and ticks
    # every FSM and plant once.
    sc = scenario.load_shipped_scenario("cylinder_r4cm")
    n_ticks = round(sc.duration_s / sc.tick_s)
    calls = {}
    count_calls(monkeypatch, calls, runner.HandDevice, "tick")
    count_calls(monkeypatch, calls, runner.HandDevice, "feed", key="device_feed")
    count_calls(monkeypatch, calls, controller, "hand_controller_tick")
    count_calls(monkeypatch, calls, protocol.FrameDecoder, "feed")
    count_calls(monkeypatch, calls, protocol, "encode")
    count_calls(monkeypatch, calls, protocol, "encode_telemetry")
    count_calls(monkeypatch, calls, protocol, "parse_telemetry")
    count_calls(monkeypatch, calls, controller, "fsm_tick")
    count_calls(monkeypatch, calls, physics.FingerPlant, "advance")
    result = runner.run_scenario(sc)
    assert sc.n_fingers == 3 and n_ticks > 0 and sc.commands
    assert calls["tick"] == n_ticks
    assert calls["device_feed"] == n_ticks
    assert calls["hand_controller_tick"] == n_ticks
    assert calls["feed"] == 2 * n_ticks  # the device's decoder and the host's
    assert calls["fsm_tick"] == 3 * n_ticks
    assert calls["advance"] == 3 * n_ticks
    assert calls["encode"] == len(sc.commands)
    assert calls["encode_telemetry"] == 0
    assert calls["parse_telemetry"] == 0
    assert result.wire_telemetry_count == 0
