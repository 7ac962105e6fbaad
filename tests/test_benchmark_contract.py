"""What the benchmark in perfbench/ relies on, checked here so a break fails fast.

perfbench wraps every call site in perfbench/layers.json by its dotted path,
and the calibration_batch workload takes its simulated time from the number
of controller.fsm_tick calls. A rename or a rerouted loop would otherwise
fail only the benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

from softhand import calibration, controller, physics, sensors

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


def test_calibration_run_ticks_fsm_once_per_physics_step(monkeypatch):
    calls = {"fsm_tick": 0, "step": 0}

    def counted(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counted(controller, "fsm_tick")
    counted(physics, "step")
    calibration.simulate_calibration_run(physics.ActuatorParams(), sensors.SensorChain(),
                                         [40e3], seed=1, settle_s=0.1, samples_per_level=2)
    assert calls["fsm_tick"] > 0
    assert calls["fsm_tick"] == calls["step"]
