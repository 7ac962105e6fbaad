import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softhand import (calibration, cli, controller, grasp, physics, protocol, runner, scenario,
                      sensors)
from softhand.errors import DomainError, ScenarioError, SofthandError

# sha256 of each fixture's telemetry CSV at the pinned defaults. The three
# heavy_hold fixtures share one digest: mass only changes the force_check
# event, not the telemetry. Regenerate with:
#   softhand run src/softhand/scenarios/<name>.json --out <dir>
GOLDEN = [
    ("cylinder_r2cm", 8400, "f563c821619649405d10c44d680cc95f0765e362cdb2169d6a760df4dab65d42"),
    ("cylinder_r4cm", 8400, "88bd3244cdb3cd963b252dd39c31f63fe9b04db40f569092e139f81d4843eb8a"),
    ("cylinder_r74mm", 8400, "48d1345267db68a313c98d1dab5622af5d99d98538761c3051d5e6df293d309a"),
    ("empty_grasp", 8400, "ba2fa35f6baa49ae163eace6e73737b800617be3a71accea2a64f2be963fd244"),
    ("heavy_hold_244g", 8400, "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97"),
    ("heavy_hold_628g", 8400, "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97"),
    ("heavy_hold_770g", 8400, "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97"),
    ("wiggle", 18000, "3707edb039eff8f7a7905fd7f7737f226b8ec5a4d92f1079e47b48a6ac5d2612"),
]
# sha256 of each fixture's events JSONL at the pinned defaults. The cylinders
# and the empty grasp send the same commands to massless objects, so their
# logs match; each heavy hold adds a force_check event whose t_s and
# achieved_n come from the per-tick peak of the summed grip force.
EVENTS_GOLDEN = {
    "cylinder_r2cm": "1eb0b459e3a4d2a854a83831649e985da419ed4b08b7f73915c8a2295275552f",
    "cylinder_r4cm": "1eb0b459e3a4d2a854a83831649e985da419ed4b08b7f73915c8a2295275552f",
    "cylinder_r74mm": "1eb0b459e3a4d2a854a83831649e985da419ed4b08b7f73915c8a2295275552f",
    "empty_grasp": "1eb0b459e3a4d2a854a83831649e985da419ed4b08b7f73915c8a2295275552f",
    "heavy_hold_244g": "cd8d965efa738112aa520bbb8ad2565ea50d2045d41e3c9d85b361683128b221",
    "heavy_hold_628g": "83e09a7b22b510d58ab86868908e5d7aa316bcf343b5e7ec7e862a7444fb8e00",
    "heavy_hold_770g": "6ba3f8de72e8e5a86dbe27f5e12f027fbe36580ec22ed5832b4d725685a9bb80",
    "wiggle": "080696e24206f72ef6368ea418925b69c4f813666a06b740ea57895d1f7c3516",
}


def minimal_dict(**overrides):
    base = {
        "name": "mini",
        "duration_s": 0.1,
        "dt_s": 0.001,
        "tick_s": 0.005,
        "seed": 1,
        "commands": [{"t_s": 0.0, "command": "set_pressure_target", "value_pa": 30000.0}],
    }
    base.update(overrides)
    return base


# Every section and command kind of the schema, valid as a whole.
FULL_SCENARIO = {
    "name": "full", "duration_s": 0.1, "dt_s": 0.001, "tick_s": 0.005, "seed": 1,
    "pump_pressure_pa": 68947.6, "atmosphere_offset_pa": 0.0, "share_pump_flow": True,
    "actuators": [{"slope_per_m_pa": 0.0025, "d_neutral_m": 0.01}, {}, {}],
    "sensors": {"gauge": {"r0_ohm": 2.0}, "pressure": {"amp_gain": 100.0},
                "adc": {"bits": 12, "v_ref_v": 3.3}},
    "controller": {"timeout_s": 10.0, "reengage_factor": 2.0, "pressure_deadband_pa": 1034.2,
                   "curvature_deadband_per_m": 0.25},
    "objects": [{"radius_m": 0.074, "mass_kg": 0.628, "position_m": 0.0, "fingers": [0, 1]}],
    "commands": [
        {"t_s": 0.0, "actuator_id": 255, "command": "set_pressure_target", "value_pa": 55158.06},
        {"t_s": 0.01, "actuator_id": 2, "command": "set_curvature_target", "value_per_m": 5.0},
        {"t_s": 0.02, "command": "stream_start", "period_ms": 5},
        {"t_s": 0.05, "command": "vent"},
    ],
    "disturbances": [{"t_s": 0.05, "finger": 2, "pressure_step_pa": 100.0,
                      "curvature_step_per_m": -1.0}],
}


def value_slots(node, at=()):
    """The location, a tuple of keys and list indices, of every value in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from value_slots(value, at + (key,))


def at_slot(doc, slot):
    for key in slot:
        doc = doc[key]
    return doc


SLOTS = list(value_slots(FULL_SCENARIO))
# One edit of FULL_SCENARIO each: a value replaced, a key deleted or a key added.
MUTATIONS = (
    [("replace", slot, value) for slot in SLOTS for value in (True, 1.5, "x", [], {}, None)]
    + [("delete", slot, None) for slot in SLOTS if isinstance(slot[-1], str)]
    + [("add", slot + ("extra_key",), 1.0)
       for slot in [(), *SLOTS] if isinstance(at_slot(FULL_SCENARIO, slot), dict)])
# Every number of FULL_SCENARIO but duration_s (a long run is no new case) set to -1, 0 and 1e6.
NUMERIC_EDITS = [(slot, value) for slot in SLOTS if slot != ("duration_s",)
                 and type(at_slot(FULL_SCENARIO, slot)) in (int, float) for value in (-1, 0, 1e6)]
# The types whose fields scenario keys set; _params reads a refusal's field from its message.
PARAM_TYPES = [physics.ActuatorParams, sensors.StrainGaugeParams, sensors.PressureSensorParams,
               sensors.AdcParams, sensors.SensorChain, controller.ControllerConfig,
               physics.PneumaticCircuit, physics.RigidObject]
# Every type whose fields errors.check_fields checks, with the arguments of a valid instance.
FIELD_CHECKED_TYPES = {
    **{cls: {} for cls in PARAM_TYPES}, physics.RigidObject: {"radius": 0.05},
    calibration.ChannelCal: {"gain_pa_per_count": 25.0, "offset_pa": 0.0, "rms_pa": 0.0},
    calibration.CalibrationRecord: {
        "p_threshold_hat_pa": 30e3, "slope_hat_per_m_pa": 2.5e-3, "kappa0_hat_per_m": 1.0,
        "r0_hat_ohm": 2.0, "r_lead_hat_ohm": 0.2, "d_neutral_m": 0.01},
    grasp.EmptyGraspReference: {"pressures": np.array([0.0, 1.0]),
                                "strains": np.array([0.0, 1.0])},
    scenario.ScenarioObject: {"radius_m": 0.05, "mass_kg": 0.3, "position_m": 0.0,
                              "fingers": (0,)},
}


def float_fields(cls) -> list[str]:
    """The fields that hold a float in a valid instance of cls."""
    valid = cls(**FIELD_CHECKED_TYPES[cls])
    return [f.name for f in dataclasses.fields(cls) if isinstance(getattr(valid, f.name), float)]


class TestScenarioSchema:
    def test_minimal_scenario_loads(self):
        sc = scenario.scenario_from_dict(minimal_dict())
        assert sc.n_fingers == 3
        assert sc.commands[0].actuator_id == 255

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match=r"\$\.pump_psi"):
            scenario.scenario_from_dict(minimal_dict(pump_psi=10))

    def test_unknown_actuator_key_names_path(self):
        with pytest.raises(ScenarioError, match=r"\$\.actuators\[1\]\.k_fill"):
            scenario.scenario_from_dict(minimal_dict(actuators=[{}, {"k_fill": 2.0}, {}]))

    def test_object_referencing_missing_finger(self):
        with pytest.raises(ScenarioError, match="finger 3"):
            scenario.scenario_from_dict(minimal_dict(
                objects=[{"radius_m": 0.05, "fingers": [3]}]))

    def test_two_objects_on_one_finger_rejected(self):
        with pytest.raises(ScenarioError, match="already contacts"):
            scenario.scenario_from_dict(minimal_dict(
                objects=[{"radius_m": 0.05, "fingers": [0]},
                         {"radius_m": 0.03, "fingers": [0]}]))

    def test_tick_must_be_multiple_of_dt(self):
        with pytest.raises(ScenarioError, match="integer multiple"):
            scenario.scenario_from_dict(minimal_dict(dt_s=0.0007))

    def test_dt_stability_contract(self):
        with pytest.raises(ScenarioError, match="dt_s"):
            scenario.scenario_from_dict(minimal_dict(dt_s=0.02, tick_s=0.02))

    def test_vanishing_dt_refused_at_its_key(self):
        with pytest.raises(ScenarioError) as exc:
            scenario.scenario_from_dict(minimal_dict(dt_s=1e-300))
        assert str(exc.value) == (
            f"$.dt_s: dt 1e-300 is below the {physics.MIN_DT} s floor of the simulation")

    @pytest.mark.parametrize("overrides", [
        {"duration_s": 1e300},
        {"duration_s": (scenario.MAX_TICKS + 1) * 0.005},
        {"duration_s": (scenario.MAX_TICKS + 1) * 0.002, "tick_s": 0.002},
    ], ids=["1e300", "cap_plus_one_tick", "cap_plus_one_short_tick"])
    def test_run_length_capped(self, overrides):
        with pytest.raises(ScenarioError, match=(
                rf"^\$\.duration_s: must be at most {scenario.MAX_TICKS} ticks ")):
            scenario.scenario_from_dict(minimal_dict(**overrides))

    def test_run_of_max_ticks_loads(self):
        sc = scenario.scenario_from_dict(minimal_dict(duration_s=scenario.MAX_TICKS * 0.005))
        assert round(sc.duration_s / sc.tick_s) == scenario.MAX_TICKS

    @pytest.mark.parametrize("section,entry,path", [
        ("actuators", [{"kappa_at_threshold_per_m": float("nan")}],
         r"\$\.actuators\[0\]\.kappa_at_threshold_per_m: must be finite"),
        ("sensors", {"gauge": {"r_lead_ohm": float("inf")}},
         r"\$\.sensors\.gauge\.r_lead_ohm: must be finite"),
        ("actuators", [{"tau_inflate_s": float("inf")}],
         r"\$\.actuators\[0\]\.tau_inflate_s: must be finite"),
    ], ids=["kappa_nan", "r_lead_inf", "tau_inflate_inf"])
    def test_non_finite_number_names_path(self, section, entry, path):
        # Python's json module reads NaN and Infinity, so a scenario file can hold them.
        with pytest.raises(ScenarioError, match=path):
            scenario.scenario_from_dict(minimal_dict(**{section: entry}))

    @pytest.mark.parametrize("overrides,path", [
        ({"duration_s": 10 ** 401}, r"\$\.duration_s: must be finite"),
        ({"actuators": [{"tau_inflate_s": 10 ** 401}]},
         r"\$\.actuators\[0\]\.tau_inflate_s: must be finite"),
    ], ids=["duration_s", "tau_inflate_s"])
    def test_integer_too_large_for_float_names_path(self, overrides, path):
        with pytest.raises(ScenarioError, match=path):
            scenario.scenario_from_dict(minimal_dict(**overrides))

    def test_integer_past_digit_limit_is_scenario_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"duration_s": 1' + "0" * 5000 + "}")
        with pytest.raises(ScenarioError, match="huge.json"):
            scenario.load_scenario(path)

    def test_negative_object_mass_names_path(self):
        with pytest.raises(ScenarioError, match=r"\$\.objects\[0\]\.mass_kg"):
            scenario.scenario_from_dict(minimal_dict(
                objects=[{"radius_m": 0.05, "mass_kg": -1, "fingers": [0]}]))

    @pytest.mark.parametrize("overrides,path", [
        ({"objects": [{"radius_m": 0.05, "fingers": [True]}]},
         r"\$\.objects\[0\]\.fingers\[0\]: must be an integer, got True"),
        ({"disturbances": [{"t_s": 0.0, "finger": True}]},
         r"\$\.disturbances\[0\]\.finger: must be an integer, got True"),
        ({"commands": [{"t_s": 0.0, "command": "stream_start", "period_ms": True}]},
         r"\$\.commands\[0\]\.period_ms: must be an integer, got True"),
        ({"sensors": {"adc": {"bits": 12.5}}},
         r"\$\.sensors\.adc\.bits: must be an integer, got 12\.5"),
        ({"sensors": {"gauge": [1]}}, r"\$\.sensors\.gauge: expected a JSON object, got list"),
        ({"share_pump_flow": "no"}, r"\$\.share_pump_flow: expected a boolean, got 'no'"),
    ], ids=["finger_true", "disturbance_finger_true", "period_true", "bits_fraction",
            "gauge_list", "share_pump_flow_string"])
    def test_wrong_type_names_path(self, overrides, path):
        with pytest.raises(ScenarioError, match=path):
            scenario.scenario_from_dict(minimal_dict(**overrides))

    @settings(max_examples=100, deadline=None)
    @given(mutation=st.sampled_from(MUTATIONS))
    def test_one_mutation_loads_or_names_a_path_in_the_document(self, mutation):
        action, slot, value = mutation
        doc = copy.deepcopy(FULL_SCENARIO)
        target = at_slot(doc, slot[:-1])
        if action == "delete":
            del target[slot[-1]]
        else:
            target[slot[-1]] = value
        try:
            assert isinstance(scenario.scenario_from_dict(doc), scenario.Scenario)
            return
        except ScenarioError as exc:
            message = str(exc)
        match = re.match(r"\$((?:\.\w+|\[\d+\])*): ", message)
        assert match, message
        named = [int(index) if index else key
                 for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", match.group(1))]
        if not named:  # "$", the document itself
            return
        container = at_slot(doc, named[:-1])
        if message.endswith(": required key missing"):
            # A missing key names where it belongs: its object exists, the key does not.
            assert isinstance(container, dict) and named[-1] not in container, message
        else:
            assert isinstance(container, (dict, list)), message
            container[named[-1]]  # raises unless the named value exists

    @pytest.mark.parametrize("slot,value", NUMERIC_EDITS, ids=[
        "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in slot) + f"={value:g}"
        for slot, value in NUMERIC_EDITS])
    def test_numeric_edit_that_loads_also_runs(self, slot, value):
        doc = copy.deepcopy(FULL_SCENARIO)
        at_slot(doc, slot[:-1])[slot[-1]] = value
        try:
            sc = scenario.scenario_from_dict(doc)
        except ScenarioError:
            return
        runner.run_scenario(sc)

    @pytest.mark.parametrize("cls,field", [(cls, f.name) for cls in PARAM_TYPES
                                           for f in dataclasses.fields(cls)],
                             ids=lambda x: x if isinstance(x, str) else x.__name__)
    def test_refusal_starts_with_its_field(self, cls, field):
        for value in (-1, 0, float("nan"), float("inf"), float("-inf")):
            try:
                cls(**{field: value})
            except SofthandError as exc:
                assert str(exc).startswith(f"{field}: "), str(exc)

    @pytest.mark.parametrize("cls,field", [(cls, name) for cls in FIELD_CHECKED_TYPES
                                           for name in float_fields(cls)],
                             ids=lambda x: x if isinstance(x, str) else x.__name__)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_float_field_refuses_non_finite(self, cls, field, value):
        with pytest.raises(SofthandError, match=rf"^{field}: must be finite, got {value}$"):
            cls(**{**FIELD_CHECKED_TYPES[cls], field: value})

    @pytest.mark.parametrize("cls,field", [(cls, name) for cls in FIELD_CHECKED_TYPES
                                           for name in float_fields(cls)],
                             ids=lambda x: x if isinstance(x, str) else x.__name__)
    def test_float_field_stores_numpy_scalar_as_float(self, cls, field):
        valid = cls(**FIELD_CHECKED_TYPES[cls])
        for scalar in (np.float32, np.float64):
            value = scalar(getattr(valid, field))
            stored = getattr(cls(**{**FIELD_CHECKED_TYPES[cls], field: value}), field)
            assert type(stored) is float and stored == float(value)

    @pytest.mark.parametrize("cls,field", [(cls, name) for cls in FIELD_CHECKED_TYPES
                                           for name in float_fields(cls)],
                             ids=lambda x: x if isinstance(x, str) else x.__name__)
    @pytest.mark.parametrize("value", [True, np.bool_(True)], ids=["bool", "np.bool_"])
    def test_float_field_refuses_booleans(self, cls, field, value):
        with pytest.raises(SofthandError, match=rf"^{field}: expected a number, got"):
            cls(**{**FIELD_CHECKED_TYPES[cls], field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("mass_kg", float("nan"), "mass_kg: must be finite, got nan"),
        ("mass_kg", float("inf"), "mass_kg: must be finite, got inf"),
        ("mass_kg", -0.1, "mass_kg: must be >= 0, got -0.1"),
        ("radius_m", 0.0, "radius_m: must be > 0, got 0.0"),
        ("radius_m", -0.05, "radius_m: must be > 0, got -0.05"),
    ], ids=["mass_nan", "mass_inf", "mass_negative", "radius_zero", "radius_negative"])
    def test_scenario_object_refuses_bad_mass_or_radius(self, field, value, message):
        # Built from the Python API, not a file: the loader's own checks, which
        # name the file key, run before it builds the object.
        with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
            scenario.ScenarioObject(**{**FIELD_CHECKED_TYPES[scenario.ScenarioObject],
                                       field: value})

    def test_numpy_integers_stored_as_python_numbers(self):
        obj = physics.RigidObject(radius=np.int64(1))
        adc = sensors.AdcParams(bits=np.int64(12))
        assert type(obj.radius) is float and obj.radius == 1.0
        assert type(adc.bits) is int and adc.full_scale_counts == 4095

    def test_run_from_numpy_parameters_matches_golden(self, tmp_path):
        def as_numpy(params):
            """params with each float field as np.float64, nested parameter types likewise."""
            changes = {}
            for f in dataclasses.fields(params):
                value = getattr(params, f.name)
                if type(value) is float:
                    changes[f.name] = np.float64(value)
                elif dataclasses.is_dataclass(value):
                    changes[f.name] = as_numpy(value)
            return dataclasses.replace(params, **changes)

        name, _, digest = GOLDEN[2]
        sc = scenario.load_shipped_scenario(name)
        sc = dataclasses.replace(
            sc, actuators=tuple(map(as_numpy, sc.actuators)), chains=tuple(map(as_numpy, sc.chains)),
            control=as_numpy(sc.control), circuit=as_numpy(sc.circuit),
            objects=tuple(dataclasses.replace(o, radius_m=np.float64(o.radius_m))
                          for o in sc.objects))
        assert type(sc.actuators[0].slope_m) is float and type(sc.chains[0].gauge.r0) is float
        res = runner.run_scenario(sc, out_dir=tmp_path)
        assert hashlib.sha256(open(res.telemetry_path, "rb").read()).hexdigest() == digest

    def test_unknown_command_name(self):
        with pytest.raises(ScenarioError, match="unknown command"):
            scenario.scenario_from_dict(minimal_dict(
                commands=[{"t_s": 0.0, "command": "explode"}]))

    def test_command_value_type_checked(self):
        with pytest.raises(ScenarioError, match="value_pa"):
            scenario.scenario_from_dict(minimal_dict(
                commands=[{"t_s": 0.0, "command": "set_pressure_target", "value_pa": "high"}]))

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "duration_s": 1.0,\n  "dt_s": oops\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json:3:"):
            scenario.load_scenario(path)

    def test_whole_float_bits_loads(self):
        sc = scenario.scenario_from_dict(minimal_dict(sensors={"adc": {"bits": 12.0}}))
        assert all(type(chain.adc.bits) is int and chain.adc.bits == 12 for chain in sc.chains)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"duration_s": 1.0}'.encode("utf-16-le"))
        with pytest.raises(ScenarioError, match=r"utf16\.json: not a UTF-8 text file"):
            scenario.load_scenario(path)

    def test_actuator_override_applied(self):
        sc = scenario.scenario_from_dict(minimal_dict(
            actuators=[{"slope_per_m_pa": 1e-3}, {}, {}]))
        assert sc.actuators[0].slope_m == 1e-3
        assert sc.actuators[1].slope_m == physics.ActuatorParams().slope_m

    @pytest.mark.parametrize("value", [0.5, "junk"], ids=["number", "string"])
    def test_sensors_d_neutral_is_unknown_key(self, value):
        # A chain's d_neutral comes from its actuator, $.actuators[i].d_neutral_m.
        with pytest.raises(ScenarioError, match=r"\$\.sensors\.d_neutral_m: unknown key"):
            scenario.scenario_from_dict(minimal_dict(sensors={"d_neutral_m": value}))

    def test_actuator_d_neutral_reaches_its_chain(self):
        sc = scenario.scenario_from_dict(minimal_dict(actuators=[{"d_neutral_m": 0.02}, {}]))
        assert [c.d_neutral for c in sc.chains] == [0.02, sensors.SensorChain().d_neutral]

    def test_controller_deadbands_land_in_config(self):
        sc = scenario.scenario_from_dict(minimal_dict(
            controller={"pressure_deadband_pa": 500.0, "curvature_deadband_per_m": 0.5}))
        assert (sc.control.pressure_deadband, sc.control.curvature_deadband) == (500.0, 0.5)
        default = scenario.scenario_from_dict(minimal_dict()).control
        assert default.pressure_deadband == controller.DEFAULT_PRESSURE_DEADBAND
        assert default.curvature_deadband == controller.DEFAULT_CURVATURE_DEADBAND

    @pytest.mark.parametrize("key", ["pressure_deadband_pa", "curvature_deadband_per_m"])
    def test_non_positive_deadband_names_path(self, key):
        with pytest.raises(ScenarioError, match=rf"\$\.controller\.{key}: must be > 0"):
            scenario.scenario_from_dict(minimal_dict(controller={key: 0.0}))

    def test_shipped_names(self):
        names = scenario.shipped_scenario_names()
        assert "empty_grasp" in names and "wiggle" in names
        with pytest.raises(ScenarioError):
            scenario.load_shipped_scenario("nonexistent")


class TestRunDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        sc = scenario.load_shipped_scenario("cylinder_r74mm")
        a = runner.run_scenario(sc, out_dir=tmp_path / "a")
        b = runner.run_scenario(sc, out_dir=tmp_path / "b")
        for pa, pb in ((a.telemetry_path, b.telemetry_path), (a.events_path, b.events_path)):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_different_seed_differs(self, tmp_path):
        sc = scenario.load_shipped_scenario("empty_grasp")
        a = runner.run_scenario(sc, out_dir=tmp_path / "a", seed=1)
        b = runner.run_scenario(sc, out_dir=tmp_path / "b", seed=2)
        assert open(a.telemetry_path, "rb").read() != open(b.telemetry_path, "rb").read()

    @pytest.mark.parametrize("name,n_rows,digest", GOLDEN)
    def test_golden_fixture_telemetry(self, tmp_path, name, n_rows, digest):
        res = runner.run_scenario(scenario.load_shipped_scenario(name), out_dir=tmp_path)
        assert len(res.rows) == n_rows
        actual = hashlib.sha256(open(res.telemetry_path, "rb").read()).hexdigest()
        assert actual == digest
        events = hashlib.sha256(open(res.events_path, "rb").read()).hexdigest()
        assert events == EVENTS_GOLDEN[name]

    def test_halving_dt_keeps_hold_state_within_1pct(self):
        sc = scenario.load_shipped_scenario("empty_grasp")
        cols = {dt: runner.rows_to_columns(runner.run_scenario(sc, dt=dt).rows)
                for dt in (1e-3, 0.5e-3)}

        def hold_means(c):
            mask = (c["finger"] == 0) & (c["t_s"] > 6.5) & (c["t_s"] < 7.9)
            return np.array([c["pressure_pa"][mask].mean(), c["strain"][mask].mean(),
                             c["curvature_per_m"][mask].mean()])

        a, b = hold_means(cols[1e-3]), hold_means(cols[0.5e-3])
        assert np.all(np.abs(a - b) / np.abs(a) < 0.01)


# The paths no shipped fixture reaches: telemetry streamed over the wire, a
# get_state, a curvature servo that holds, a servo timeout (finger 1 aims past
# the 69 kPa pump) and its reset_fault, then a broadcast vent. Built here, not
# shipped, so the benchmark's fixture set stays as it is.
STREAMED_RUN = {
    "name": "streamed_fault", "duration_s": 4.0, "dt_s": 0.001, "tick_s": 0.005, "seed": 7,
    "controller": {"timeout_s": 1.5},
    "objects": [{"radius_m": 0.05, "fingers": [1]}],
    "commands": [
        {"t_s": 0.0, "actuator_id": 2, "command": "get_state"},
        {"t_s": 0.02, "command": "stream_start", "period_ms": 5},
        {"t_s": 0.1, "actuator_id": 0, "command": "set_curvature_target", "value_per_m": 8.0},
        {"t_s": 0.1, "actuator_id": 1, "command": "set_pressure_target", "value_pa": 75000.0},
        {"t_s": 0.1, "actuator_id": 2, "command": "set_pressure_target", "value_pa": 30000.0},
        {"t_s": 2.5, "actuator_id": 1, "command": "reset_fault"},
        {"t_s": 3.0, "command": "vent"},
    ],
}
# sha256 of the device->host wire bytes, the telemetry CSV and the events JSONL.
STREAMED_DIGESTS = {
    "wire": "e5138363645d5050f6ff4454b9000400f09fce501685faf4083db74d10e7e419",
    "telemetry": "d549cc2ec0f6de019e022927892435bea1c00837a19026dc3e01ea5ac5a6bd2c",
    "events": "dbd6c65ce9ef9f34d0fae180c5bd7d717840512783a0a04b7e880ae569b57943",
}


def recorded_run(doc, out_dir):
    """Run a scenario dict, writing its files to out_dir; returns the result and the
    device->host wire bytes."""
    sent = []
    device_send = protocol.SimulatedBus.device_send

    def recording(bus, data, t=0.0):
        sent.append(bytes(data))
        return device_send(bus, data, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol.SimulatedBus, "device_send", recording)
        res = runner.run_scenario(scenario.scenario_from_dict(doc), out_dir=out_dir)
    return res, b"".join(sent)


def run_digests(res, wire):
    digests = {"wire": hashlib.sha256(wire).hexdigest()}
    for key, path in (("telemetry", res.telemetry_path), ("events", res.events_path)):
        with open(path, "rb") as fh:
            digests[key] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def assert_transitions_replay_rows(res):
    """Each finger's fsm_transition events, chained from Idle, give every row's fsm_mode."""
    t_s, finger, fsm_mode = (runner.TELEMETRY_COLUMNS.index(name)
                             for name in ("t_s", "finger", "fsm_mode"))
    pending = {}
    for e in res.events:
        if e["kind"] == "fsm_transition":
            pending.setdefault(e["finger"], []).append(e)
    mode = {}
    for row in res.rows:
        f = row[finger]
        events = pending.get(f, [])
        while events and events[0]["t_s"] <= row[t_s]:
            e = events.pop(0)
            assert e["from"] == mode.get(f, "Idle"), e
            mode[f] = e["to"]
        assert row[fsm_mode] == mode.get(f, "Idle"), (row[t_s], f)
    assert not any(pending.values())


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    return recorded_run(STREAMED_RUN, tmp_path_factory.mktemp("streamed"))


class TestStreamedRunPinned:
    def test_reaches_every_unpinned_path(self, streamed):
        res, _ = streamed
        transitions = {(e["finger"], e["to"]) for e in res.events if e["kind"] == "fsm_transition"}
        assert {(0, "Holding"), (1, "Fault"), (2, "Holding")} <= transitions
        assert [e["finger"] for e in res.events if e["kind"] == "fault"] == [1]
        sent = [e["command"] for e in res.events if e["kind"] == "command_sent"]
        assert {"GetState", "StreamStart", "SetCurvatureTarget", "ResetFault", "Vent"} <= set(sent)
        assert not res.faulted  # reset_fault cleared it
        # One frame per finger per tick from the stream_start on, plus the get_state reply.
        n_ticks = round(STREAMED_RUN["duration_s"] / STREAMED_RUN["tick_s"])
        assert res.wire_telemetry_count == 3 * (n_ticks - 4) + 1

    def test_fault_tick_row_vents(self, streamed):
        res, _ = streamed
        t_fault = next(e["t_s"] for e in res.events if e["kind"] == "fault")
        finger, mode, vent, inlet, t_s = (runner.TELEMETRY_COLUMNS.index(name) for name in (
            "finger", "fsm_mode", "vent", "inlet", "t_s"))
        row = next(r for r in res.rows if r[t_s] == t_fault and r[finger] == 1)
        assert row[mode] == "Fault"
        assert row[vent] == 1 and row[inlet] == 0

    def test_transitions_replay_rows(self, streamed, scenario_runs):
        assert_transitions_replay_rows(streamed[0])
        assert_transitions_replay_rows(scenario_runs["cylinder_r74mm"])

    def test_bytes_pinned(self, streamed):
        assert run_digests(*streamed) == STREAMED_DIGESTS


# The command paths STREAMED_RUN leaves out, with finger 2 on off-default
# actuator parameters: finger 1 faults on a 1 s servo timeout and takes a vent
# while faulted, then its reset_fault; finger 0 takes a reset_fault while
# not faulted, a new target over a held one, then a vent; finger 2's stream
# stops alone; a broadcast stop and stream_stop end the run. Built here, not
# shipped, so the benchmark's fixture set stays as it is.
COMMAND_RUN = {
    "name": "command_paths", "duration_s": 3.0, "dt_s": 0.001, "tick_s": 0.005, "seed": 11,
    "controller": {"timeout_s": 1.0},
    "actuators": [{}, {}, {"slope_per_m_pa": 0.0035, "tau_inflate_s": 0.25, "k_fill_per_s": 1.5,
                           "d_neutral_m": 0.008}],
    "commands": [
        {"t_s": 0.0, "command": "stream_start", "period_ms": 10},
        {"t_s": 0.05, "actuator_id": 0, "command": "set_pressure_target", "value_pa": 40000.0},
        {"t_s": 0.05, "actuator_id": 1, "command": "set_pressure_target", "value_pa": 75000.0},
        {"t_s": 0.05, "actuator_id": 2, "command": "set_curvature_target", "value_per_m": 30.0},
        {"t_s": 1.3, "actuator_id": 0, "command": "set_pressure_target", "value_pa": 50000.0},
        {"t_s": 1.4, "actuator_id": 1, "command": "vent"},
        {"t_s": 1.4, "actuator_id": 0, "command": "reset_fault"},
        {"t_s": 1.5, "actuator_id": 1, "command": "reset_fault"},
        {"t_s": 1.6, "actuator_id": 2, "command": "vent"},
        {"t_s": 1.8, "actuator_id": 2, "command": "stream_stop"},
        {"t_s": 1.9, "actuator_id": 0, "command": "vent"},
        {"t_s": 2.0, "actuator_id": 1, "command": "set_pressure_target", "value_pa": 20000.0},
        {"t_s": 2.4, "command": "stop"},
        {"t_s": 2.6, "command": "stream_stop"},
    ],
}
# sha256 of the device->host wire bytes, the telemetry CSV and the events JSONL.
COMMAND_DIGESTS = {
    "wire": "9b6e606c9760bad4d9c81b5bde5b7f6ba7b9cbafbb6e170f29e97c6beb3657cf",
    "telemetry": "d354fb58a2a222afbd6aee3d5e07333f5989109fc171394a916574e7206f61b4",
    "events": "798bf5b828f53c29862c238b308912cd4813c5521d780df3701f566d4025044f",
}


@pytest.fixture(scope="module")
def commanded(tmp_path_factory):
    return recorded_run(COMMAND_RUN, tmp_path_factory.mktemp("commanded"))


class TestCommandRunPinned:
    def test_reaches_every_command_path(self, commanded):
        res, _ = commanded
        t_s, finger, fsm_mode = (runner.TELEMETRY_COLUMNS.index(name)
                                 for name in ("t_s", "finger", "fsm_mode"))
        modes = {(round(r[t_s], 3), r[finger]): r[fsm_mode] for r in res.rows}
        assert modes[1.295, 0] == "Holding"  # the target at 1.3 s replaces a held one
        assert modes[1.395, 1] == modes[1.4, 1] == "Fault"  # a vent leaves Fault alone
        assert modes[1.4, 0] == modes[1.395, 0]  # a reset_fault leaves a finger not faulted alone
        assert modes[1.5, 1] == "Idle"
        assert modes[1.9, 0] == "Venting"
        assert {modes[2.4, f] for f in range(3)} == {"Idle"}
        sent = {e["command"] for e in res.events if e["kind"] == "command_sent"}
        assert {"Stop", "StreamStop", "Vent", "ResetFault", "SetCurvatureTarget"} <= sent
        # 10 ms frames for all three fingers until 1.8 s, for two until 2.6 s.
        assert res.wire_telemetry_count == 3 * 180 + 2 * 80
        assert not res.faulted

    def test_transitions_replay_rows(self, commanded):
        assert_transitions_replay_rows(commanded[0])

    def test_bytes_pinned(self, commanded):
        assert run_digests(*commanded) == COMMAND_DIGESTS


# Command frames as a host could send them, targets up to the wire's u16 limits
# (655.35 kPa, 655.35 /m), so most lie past what the FSM accepts.
wire_commands = st.one_of(
    st.integers(0, 0xFFFF).map(lambda raw: protocol.SetPressureTarget(raw * 10.0)),
    st.integers(0, 0xFFFF).map(lambda raw: protocol.SetCurvatureTarget(raw * 0.01)),
    st.sampled_from([protocol.Vent(), protocol.Stop(), protocol.GetState(),
                     protocol.StreamStop(), protocol.ResetFault()]),
    st.integers(1, 255).map(protocol.StreamStart))
fsm_states = st.builds(
    controller.FsmState, st.sampled_from(controller.Mode),
    st.sampled_from([None, protocol.SetPressureTarget(30e3), protocol.SetCurvatureTarget(8.0)]),
    st.floats(0.0, 5.0))
command_frames = st.tuples(wire_commands, st.sampled_from([0, 1, 2, 3, 5, protocol.BROADCAST_ID])
                           ).map(lambda c: protocol.encode_command(*c))


class TestHandDevice:
    def test_refused_target_is_counted_not_raised(self):
        config = controller.ControllerConfig()
        device = runner.HandDevice(3, config)
        device.feed(protocol.encode_command(protocol.SetPressureTarget(30e3), 1), 0.0)
        before = device.fsms
        device.feed(protocol.encode_command(protocol.SetPressureTarget(100e3), 0), 0.1)
        device.feed(protocol.encode_command(protocol.SetCurvatureTarget(600.0),
                                            protocol.BROADCAST_ID), 0.2)
        assert device.rejected_commands == 2 and device.unknown_commands == 0
        assert device.fsms == before  # no finger changed, the broadcast included
        # The library call still refuses, and the device keeps taking commands.
        with pytest.raises(DomainError, match="exceeds limit"):
            controller.apply_command(before[0], protocol.SetPressureTarget(100e3), 0.1, config)
        device.feed(protocol.encode_command(protocol.SetPressureTarget(40e3),
                                            protocol.BROADCAST_ID), 0.3)
        assert [f.target for f in device.fsms] == [protocol.SetPressureTarget(40e3)] * 3
        assert device.rejected_commands == 2

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(st.one_of(command_frames, st.binary(max_size=40)), max_size=12),
           cuts=st.lists(st.integers(0, 600), max_size=6))
    def test_feed_never_raises(self, pieces, cuts):
        stream = b"".join(pieces)
        bounds = sorted({min(c, len(stream)) for c in cuts})
        config = controller.ControllerConfig()
        device = runner.HandDevice(3, config)
        for k, (a, b) in enumerate(zip([0, *bounds], [*bounds, len(stream)])):
            device.feed(stream[a:b], 0.01 * k)
        for fsm in device.fsms:  # a refused target is never installed
            if isinstance(fsm.target, protocol.SetPressureTarget):
                assert fsm.target.pascals <= config.p_max
            elif fsm.target is not None:
                assert fsm.target.curvature <= config.kappa_max
        _, out, _ = device.tick([(0, 0, sensors.PhysicalReading(0.0, 0.0, 0.0))] * 3, 1.0)
        assert len(protocol.FrameDecoder().feed(out)) <= 3

    @settings(max_examples=300, deadline=None)
    @given(start=st.lists(fsm_states, min_size=3, max_size=3), command=wire_commands,
           actuator_id=st.sampled_from([0, 1, 2, 5, protocol.BROADCAST_ID]))
    def test_command_frame_acts_as_apply_command(self, start, command, actuator_id):
        config = controller.ControllerConfig()
        device = runner.HandDevice(3, config)
        device.fsms = start = tuple(start)
        frame = protocol.frame_for_command(command, actuator_id)
        device.feed(protocol.encode(frame), 5.0)
        if actuator_id == 5:  # no such finger
            assert device.unknown_commands == 1 and device.fsms == start
            return
        received = protocol.parse_command(frame)
        try:
            expected = tuple(
                controller.apply_command(fsm, received, 5.0, config)
                if actuator_id in (i, protocol.BROADCAST_ID) else fsm
                for i, fsm in enumerate(start))
        except DomainError:
            assert device.rejected_commands == 1 and device.fsms == start
        else:
            assert device.rejected_commands == 0 and device.fsms == expected
        assert device.unknown_commands == 0


class TestTelemetryAndEvents:
    def test_column_order_documented(self):
        assert runner.TELEMETRY_COLUMNS == (
            "t_s", "finger", "pressure_pa", "curvature_per_m", "strain", "strain_counts",
            "pressure_counts", "fsm_mode", "inlet", "vent", "contact_force_n")

    def test_read_round_trip(self, tmp_path, scenario_runs):
        res = scenario_runs["empty_grasp"]
        path = tmp_path / "telemetry.csv"
        runner.write_telemetry_csv(res.rows, path)
        cols = runner.read_telemetry(path)
        mem = runner.rows_to_columns(res.rows)
        assert list(cols) == list(runner.TELEMETRY_COLUMNS)
        for name in runner.TELEMETRY_COLUMNS:
            assert cols[name].dtype == mem[name].dtype, name
            if mem[name].dtype.kind == "f":
                assert np.allclose(cols[name], mem[name], rtol=1e-9, atol=0.0), name
            else:
                assert list(cols[name]) == list(mem[name]), name

    def test_missing_column_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,finger\n0.0,0\n")
        with pytest.raises(DomainError, match="missing columns"):
            runner.read_telemetry(path)

    def test_events_cover_transitions_commands_faults(self, scenario_runs):
        events = scenario_runs["empty_grasp"].events
        kinds = {e["kind"] for e in events}
        assert {"command_sent", "fsm_transition"} <= kinds
        transitions = [e for e in events if e["kind"] == "fsm_transition"]
        assert any(e["from"] == "Idle" and e["to"] == "Inflating" for e in transitions)
        assert any(e["from"] == "Inflating" and e["to"] == "Holding" for e in transitions)

    def test_force_check_events_on_heavy_holds(self):
        for grams in (244, 628, 770):
            res = runner.run_scenario(scenario.load_shipped_scenario(f"heavy_hold_{grams}g"))
            checks = [e for e in res.events if e["kind"] == "force_check"]
            assert len(checks) == 1
            check = checks[0]
            assert check["mass_kg"] == pytest.approx(grams / 1000.0)
            assert check["required_n"] == pytest.approx(grams / 1000.0 * 9.80665)
            assert check["ok"] and check["achieved_n"] > check["required_n"]

    def test_disturbance_events_logged(self):
        res = runner.run_scenario(scenario.load_shipped_scenario("wiggle"))
        kicks = [e for e in res.events if e["kind"] == "disturbance"]
        assert len(kicks) == 2
        assert all(e["t_s"] == pytest.approx(23.0, abs=0.01) for e in kicks)

    @pytest.mark.parametrize("offset,tick_index", [(1e-13, 7), (2e-12, 8)])
    def test_command_and_disturbance_act_at_the_tick_they_fall_in(self, offset, tick_index):
        # A command or disturbance due up to 1e-12 s after a tick's float
        # acts at that tick; one due 2e-12 s after it acts at the next.
        base = scenario.load_shipped_scenario("empty_grasp")
        t_s = 7 * base.tick_s + offset
        sc = dataclasses.replace(
            base, duration_s=0.1,
            commands=(scenario.ScheduledCommand(t_s, 0, protocol.SetPressureTarget(40e3)),),
            disturbances=(scenario.Disturbance(t_s, 1, pressure_step_pa=1e3),))
        acted = {e["kind"]: e["t_s"] for e in runner.run_scenario(sc).events
                 if e["kind"] in ("command_sent", "disturbance")}
        assert acted == {"command_sent": tick_index * sc.tick_s,
                         "disturbance": tick_index * sc.tick_s}

    def test_overflowing_curvature_disturbances_raise(self):
        # Each kick is finite; their sum overflows to an infinite curvature.
        kicks = tuple(scenario.Disturbance(t_s=0.01, finger=1, curvature_step_per_m=1e308)
                      for _ in range(2))
        sc = dataclasses.replace(scenario.load_shipped_scenario("empty_grasp"),
                                 duration_s=0.1, disturbances=kicks)
        with pytest.raises(SofthandError, match="^finger 1: state curvature inf"):
            runner.run_scenario(sc)

    def test_events_jsonl_parses(self, tmp_path):
        res = runner.run_scenario(scenario.load_shipped_scenario("heavy_hold_628g"),
                                  out_dir=tmp_path)
        lines = open(res.events_path).read().splitlines()
        assert lines
        parsed = [json.loads(line) for line in lines]
        assert all("kind" in e and "t_s" in e for e in parsed)

    def test_streaming_telemetry_over_wire(self):
        sc = scenario.scenario_from_dict(minimal_dict(
            duration_s=2.0,
            commands=[{"t_s": 0.0, "command": "stream_start", "period_ms": 10},
                      {"t_s": 0.0, "command": "set_pressure_target", "value_pa": 30000.0}]))
        res = runner.run_scenario(sc)
        # ~2 s / 10 ms per finger = about 200 frames each.
        assert res.wire_telemetry_count == pytest.approx(600, rel=0.05)

    def test_hold_strain_empty_exceeds_objects(self, telemetry):
        def hold(name):
            c = telemetry[name]
            mask = (c["finger"] == 0) & (c["t_s"] > 6.5) & (c["t_s"] < 7.9)
            return float(c["strain"][mask].mean())

        empty = hold("empty_grasp")
        for name in ("cylinder_r2cm", "cylinder_r4cm", "cylinder_r74mm"):
            assert empty > hold(name)


@st.composite
def closed_loop_scenarios(draw):
    """Valid scenario dicts: 1-3 fingers, up to 0.5 s, drawn commands.

    Every scenario streams telemetry and sets one target; up to 5 more commands
    of any kind are drawn on top.
    """
    n_fingers = draw(st.integers(1, 3))
    n_ticks = draw(st.integers(1, 100))
    values = {"set_pressure_target": {"value_pa": st.floats(0.0, 80e3)},
              "set_curvature_target": {"value_per_m": st.floats(0.0, 60.0)},
              "stream_start": {"period_ms": st.integers(1, 20)}}

    def commands(name):
        return st.fixed_dictionaries({
            "t_s": st.integers(0, n_ticks - 1).map(lambda k: k * 0.005),
            "actuator_id": st.sampled_from([protocol.BROADCAST_ID, *range(n_fingers)]),
            "command": st.just(name), **values.get(name, {})})

    targets = st.sampled_from(["set_pressure_target", "set_curvature_target"]).flatmap(commands)
    drawn = draw(st.lists(st.sampled_from(sorted(scenario._COMMANDS)).flatmap(commands),
                          max_size=5))
    objects = []
    if draw(st.booleans()):
        objects.append({"radius_m": draw(st.floats(0.02, 0.12)),
                        "fingers": draw(st.lists(st.integers(0, n_fingers - 1), min_size=1,
                                                 max_size=n_fingers, unique=True))})
    return minimal_dict(duration_s=n_ticks * 0.005, seed=draw(st.integers(0, 2 ** 32 - 1)),
                        actuators=[{}] * n_fingers, objects=objects,
                        commands=[draw(commands("stream_start")), draw(targets)] + drawn)


class TestClosedLoopProperties:
    @settings(max_examples=50, deadline=None)
    @given(doc=closed_loop_scenarios())
    def test_run_is_repeatable_safe_and_round_trips(self, doc, tmp_path_factory):
        sc = scenario.scenario_from_dict(doc)
        first, second = runner.run_scenario(sc), runner.run_scenario(sc)
        assert first.rows == second.rows
        assert first.wire_telemetry_count == second.wire_telemetry_count
        assert_transitions_replay_rows(first)
        inlet, vent, finger, curvature, force = (runner.TELEMETRY_COLUMNS.index(name) for name in (
            "inlet", "vent", "finger", "curvature_per_m", "contact_force_n"))
        assert not any(row[inlet] and row[vent] for row in first.rows)
        assert all(row[curvature] >= 0.0 for row in first.rows)
        touched = {f for obj in sc.objects for f in obj.fingers}
        assert all(row[force] == 0.0 for row in first.rows if row[finger] not in touched)
        # The CLI runs the same document: exit 1 exactly when the run faulted,
        # and its telemetry file round-trips to the in-memory rows.
        out = tmp_path_factory.getbasetemp() / "closed_loop"
        out.mkdir(exist_ok=True)
        (out / "doc.json").write_text(json.dumps(doc))
        assert cli.main(["run", str(out / "doc.json"), "--out", str(out)]) == int(first.faulted)
        columns = runner.read_telemetry(out / f"{sc.name}_telemetry.csv")
        for i, name in enumerate(runner.TELEMETRY_COLUMNS):
            assert columns[name].tolist() == [
                float(format(row[i], ".10g")) if isinstance(row[i], float) else row[i]
                for row in first.rows], name


@pytest.fixture(scope="module")
def shipped_runs():
    """Every shipped fixture, run once at its pinned defaults."""
    return {name: runner.run_scenario(scenario.load_shipped_scenario(name))
            for name in scenario.shipped_scenario_names()}


def count_calls(monkeypatch, name) -> list:
    """Wrap runner.<name> so each call appends to the list returned."""
    calls, wrapped = [], getattr(runner, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(runner, name, counted)
    return calls


class TestCsvWriter:
    @staticmethod
    def per_column_lines(header, rows):
        """The writer's format, one ``format`` or ``str`` call per cell, by its column."""
        lines = [",".join(header) + "\n"]
        for row in rows:
            lines.append(",".join(
                format(v, ".10g") if runner._column_dtype(name) is float else str(v)
                for name, v in zip(header, row)) + "\n")
        return "".join(lines)

    def test_matches_per_column_formatting(self):
        # Float columns take ints, bools and numpy scalars as numbers; the
        # others are written as str, a "%" in a cell included.
        header = ("a", "finger", "fsm_mode", "b")
        rows = [
            (0.1, 7, "Idle", np.float64(2.0 / 3.0)),
            (-0.0, np.int64(-12), "50%s%%d", float("nan")),
            (1e300, 10 ** 20, np.str_("s"), -float("inf")),
            (1, np.int32(3), "x", 10 ** 20),
            (np.float32(0.1), True, None, np.int64(-12)),
            (True, 0, "Holding", np.float64(-1e-300)),
        ]
        fh = io.StringIO()
        runner.write_csv(fh, header, rows)
        assert fh.getvalue() == self.per_column_lines(header, rows)

    def test_fixture_telemetry_matches_per_value_formatting(self, tmp_path, scenario_runs):
        res = scenario_runs["cylinder_r74mm"]
        path = tmp_path / "t.csv"
        runner.write_telemetry_csv(res.rows, path)
        expected = self.per_column_lines(runner.TELEMETRY_COLUMNS, res.rows)
        assert path.read_text(encoding="utf-8") == expected

    def test_header_only_and_empty_row(self):
        fh = io.StringIO()
        runner.write_csv(fh, ("x",), [])
        runner.write_csv(fh, (), [(), []])
        assert fh.getvalue() == "x\n\n\n\n"

    def test_every_written_csv_parsed_by_the_c_reader(self, monkeypatch, tmp_path, shipped_runs,
                                                     streamed, commanded):
        # Every telemetry file the runner writes and every figure table drawn
        # from it reads back through numpy's reader, chunk by chunk, with no
        # chunk sent to the per-column converter.
        parsed, parse_chunk = [], runner._parse_chunk
        monkeypatch.setattr(runner, "_parse_chunk",
                            lambda lines, dtype: parsed.append(parse_chunk(lines, dtype))
                            or parsed[-1])
        runs = {**shipped_runs, "streamed": streamed[0], "commanded": commanded[0]}
        n_chunks = 0
        for name, res in runs.items():
            path = tmp_path / f"{name}.csv"
            runner.write_telemetry_csv(res.rows, path)
            columns = runner.read_telemetry(path)
            assert columns["t_s"].size == len(res.rows), name
            for kind in runner.FIGURE_KINDS:
                figure = tmp_path / f"{name}_{kind}.csv"
                runner.emit_figure_data(columns, kind, figure)
                assert runner.read_csv(figure, runner.FIGURE_KINDS[kind])["finger"].size \
                    == len(res.rows), (name, kind)
            n_chunks += 4 * -(-len(res.rows) // runner._CHUNK_LINES)
        assert len(parsed) == n_chunks
        assert all(table is not None for table in parsed)

    @pytest.mark.parametrize("bad_row, message", [
        ((0.5,), "data row 1027 has 1 fields, the header has 3"),
        ((0.5, 1, "Idle", 2), "data row 1027 has 4 fields, the header has 3"),
        (("0.5", 1, "Idle"), "data row 1027: column 'a': must be real number, not str"),
    ])
    def test_row_refused_names_its_data_row(self, bad_row, message):
        # The bad row lies inside the second chunk; the first is written, the
        # second is not.
        header = ("a", "finger", "fsm_mode")
        rows = [(0.25 * k, k % 3, "Idle") for k in range(runner._CHUNK_LINES + 40)]
        rows[runner._CHUNK_LINES + 2] = bad_row
        fh = io.StringIO()
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            runner.write_csv(fh, header, rows)
        assert fh.getvalue() == self.per_column_lines(header, rows[:runner._CHUNK_LINES])

    @pytest.mark.parametrize("row, message", [
        ((), "data row 1 has 0 fields, the header has 1"),
        ((None,), "data row 1: column 'y': must be real number, not NoneType"),
        (((1, 2),), "data row 1: column 'y': must be real number, not tuple"),
    ])
    def test_one_column_row_refused(self, row, message):
        # An empty row under one column, and a None or a tuple in a float
        # column: none of them would read back as the row it was.
        fh = io.StringIO()
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            runner.write_csv(fh, ("y",), [row])
        assert fh.getvalue() == "y\n"


def legacy_read_csv(path, required):
    """The whole-file CSV reader that chunked ``runner.read_csv`` replaced, kept as its oracle."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file ({exc})") from None
    missing = [c for c in required if c not in header]
    if missing:
        raise DomainError(f"{path}: missing columns {missing} (header: {header})")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DomainError(f"{path}: column {name!r} appears more than once in the header")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    for n, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise DomainError(f"{path}: data row {n} has {len(row)} fields, "
                              f"the header has {len(header)}")
    columns = {}
    for i, name in enumerate(header):
        try:
            columns[name] = np.array([row[i] for row in rows],
                                     dtype=runner._column_dtype(name))
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{path}: column {name!r}: {exc}") from None
    for name, column in columns.items():
        if column.dtype == float and not np.isfinite(column).all():
            n = int(np.flatnonzero(~np.isfinite(column))[0])
            raise DomainError(f"{path}: column {name!r}: sample {n + 1} of {column.size} "
                              f"is not finite ({column[n]})")
    return columns


# One defect each, placed by the reader test at a data line next to a chunk boundary.
# From "digit_underscores" on, each is a spelling numpy's text reader and Python's
# int and float could read differently, or a file cut so its last chunk holds one line.
CSV_EDITS = ("none", "short_row", "long_row", "non_numeric", "nan", "inf", "int_overflow",
             "blank_lines", "whitespace_lines", "non_utf8", "missing_column", "header_only",
             "duplicate_column", "digit_underscores", "padded_cell", "fraction_in_int",
             "quoted_cell", "arabic_indic_digits", "separator_char", "last_chunk_one_line")
# The text each cell edit puts in the cell; "{}" stands for the cell's own text.
CELL_TEXT = {"non_numeric": "abc", "nan": "nan", "inf": "-inf",
             "int_overflow": "99999999999999999999", "digit_underscores": "1_000",
             "padded_cell": " {} ", "fraction_in_int": "1.0", "quoted_cell": '"{}"',
             "arabic_indic_digits": "\u0661\u0662", "separator_char": "\x1e{}"}


def edited_csv(lines, edit, at, column, count) -> bytes:
    """A CSV (header line, then data lines) with one edit at data line ``at``."""
    header, data = lines[0], list(lines[1:])
    cells = data[at].rstrip("\n").split(",")
    if edit == "short_row":
        data[at] = ",".join(cells[:-count]) + "\n"
    elif edit == "long_row":
        data[at] = ",".join(cells + ["0"] * count) + "\n"
    elif edit in CELL_TEXT:
        cells[column] = CELL_TEXT[edit].format(cells[column])
        data[at] = ",".join(cells) + "\n"
    elif edit in ("blank_lines", "whitespace_lines"):
        data[at:at] = ["\n" if edit == "blank_lines" else " \t\n"] * count
    elif edit == "missing_column":
        header, *data = [",".join(cells[:column] + cells[column + 1:]) + "\n"
                         for cells in (line.rstrip("\n").split(",") for line in [header, *data])]
    elif edit == "header_only":
        data = []
    elif edit == "last_chunk_one_line":
        data = data[:runner._CHUNK_LINES + 1]
    elif edit == "duplicate_column":  # the column repeated at the end of every non-blank line
        header, *data = [f"{line.rstrip()},{line.rstrip().split(',')[column]}\n"
                         if line.strip() else line for line in [header, *data]]
    if edit == "non_utf8":
        head = (header + "".join(data[:at]) + data[at][:column]).encode()
        return head + b"\xff" + (data[at][column:] + "".join(data[at + 1:])).encode()
    return (header + "".join(data)).encode()


def read_outcome(read, path):
    try:
        return read(path, runner.TELEMETRY_COLUMNS)
    except DomainError as exc:
        return str(exc)


# Characters where numpy's text reader and Python's int and float could part:
# whitespace of both kinds, the ASCII separators \x1c-\x1f, non-ASCII digits
# and letters, underscores, quotes and a comment sign.
ODD_CELL_CHARS = "019+-.eEnaif_ \t\x0b\x0c\x1c\x1e\x1f\xa0\x85\u2003\u0661\u01fe#\"x"
ODD_CELLS = st.one_of(st.sampled_from(["1.5", "7", "-0", " 3 ", "Idle", "1e-3"]),
                      st.text(ODD_CELL_CHARS, max_size=4))


class TestCsvReader:
    @pytest.fixture(scope="class")
    def chunk_csv_lines(self, scenario_runs):
        """A fixture's telemetry CSV lines, cut to one chunk boundary plus 40 data lines."""
        fh = io.StringIO()
        runner.write_csv(fh, runner.TELEMETRY_COLUMNS, scenario_runs["cylinder_r74mm"].rows)
        return fh.getvalue().splitlines(keepends=True)[:1 + runner._CHUNK_LINES + 40]

    @settings(max_examples=80, deadline=None)
    @given(edit=st.sampled_from(CSV_EDITS), offset=st.integers(-3, 2),
           column=st.integers(0, len(runner.TELEMETRY_COLUMNS) - 1), count=st.integers(1, 3),
           leading_blanks=st.integers(0, 2))
    # Each spelling edit once where it decides the outcome: in an int, float or text column.
    @example(edit="digit_underscores", offset=0, column=1, count=1, leading_blanks=0)
    @example(edit="padded_cell", offset=-1, column=7, count=1, leading_blanks=1)
    @example(edit="padded_cell", offset=0, column=5, count=1, leading_blanks=0)
    @example(edit="fraction_in_int", offset=1, column=6, count=1, leading_blanks=0)
    @example(edit="quoted_cell", offset=0, column=2, count=1, leading_blanks=0)
    @example(edit="arabic_indic_digits", offset=-2, column=8, count=1, leading_blanks=2)
    @example(edit="separator_char", offset=0, column=3, count=1, leading_blanks=0)
    @example(edit="last_chunk_one_line", offset=0, column=0, count=1, leading_blanks=0)
    @example(edit="last_chunk_one_line", offset=0, column=0, count=1, leading_blanks=2)
    def test_matches_whole_file_reader(self, chunk_csv_lines, tmp_path_factory,
                                       edit, offset, column, count, leading_blanks):
        # Blank lines after the header are no defect, but move every data row
        # number away from its physical line.
        lines = chunk_csv_lines[:1] + ["\n"] * leading_blanks + chunk_csv_lines[1:]
        path = tmp_path_factory.getbasetemp() / "chunk_edit.csv"
        path.write_bytes(edited_csv(lines, edit, runner._CHUNK_LINES + offset, column, count))
        expected, got = read_outcome(legacy_read_csv, path), read_outcome(runner.read_csv, path)
        if isinstance(expected, str):
            assert got == expected
            return
        assert isinstance(got, dict), got
        assert list(got) == list(expected)
        for name, column_values in expected.items():
            assert got[name].dtype == column_values.dtype, name
            if column_values.dtype == object:
                assert got[name].tolist() == column_values.tolist(), name
            else:
                assert got[name].tobytes() == column_values.tobytes(), name

    @settings(max_examples=300, deadline=None)
    @given(header=st.sampled_from([("a", "finger", "fsm_mode"), ("finger",), ("fsm_mode",)]),
           lines=st.lists(st.lists(ODD_CELLS, min_size=1, max_size=3).map(",".join),
                          max_size=4))
    @example(header=("a",), lines=["1.5", "\x1e2"])
    @example(header=("finger",), lines=["\u01fe2"])
    @example(header=("fsm_mode",), lines=["Idle", " \t", "Idle"])
    def test_odd_cells_read_as_by_the_whole_file_reader(self, tmp_path_factory, header, lines):
        path = tmp_path_factory.getbasetemp() / "odd_cells.csv"
        path.write_text(",".join(header) + "\n" + "".join(line + "\n" for line in lines),
                        encoding="utf-8")

        def outcome(read):
            try:
                columns = read(path, ())
            except DomainError as exc:
                return str(exc)
            return {name: (column.dtype, column.tolist() if column.dtype == object
                           else column.tobytes()) for name, column in columns.items()}

        assert outcome(runner.read_csv) == outcome(legacy_read_csv)

    def test_several_defects_name_the_file_and_one_defect(self, chunk_csv_lines, tmp_path):
        # A bad cell in the first chunk and a short row in the second: the
        # whole-file reader checks every row's length before it converts, the
        # chunked one converts the first chunk before it reads the second.
        boundary = runner._CHUNK_LINES
        cell = edited_csv(chunk_csv_lines, "non_numeric", 3, 2, 1).decode().splitlines(True)
        short = edited_csv(chunk_csv_lines, "short_row", boundary + 1, 2, 1).decode().splitlines(True)
        path = tmp_path / "defects.csv"
        errors = []
        for lines in (cell, short, cell[:boundary + 1] + short[boundary + 1:]):
            path.write_text("".join(lines), encoding="utf-8")
            errors.append(read_outcome(runner.read_csv, path))
        assert errors[2] in errors[:2] and errors[2].startswith(f"{path}: ")
        assert read_outcome(legacy_read_csv, path) in errors[:2]

    def test_shipped_csvs_read_without_the_column_converter(self, monkeypatch, tmp_path,
                                                             default_params, default_chain):
        # The converter runs only on a chunk numpy's reader refuses: a
        # calibration samples file must not need it (telemetry and figure
        # files: TestCsvWriter.test_every_written_csv_parsed_by_the_c_reader).
        converted = count_calls(monkeypatch, "_typed_column")
        data = calibration.simulate_calibration_run(default_params, default_chain,
                                                    [35e3, 45e3, 55e3], seed=3)
        samples = tmp_path / "samples.csv"
        with open(samples, "w", encoding="utf-8", newline="") as fh:
            runner.write_csv(fh, ("pressure_pa", "kappa_per_m", "warmup_cycles"),
                             [(p, k, data.warmup_cycles)
                              for p, k in zip(data.pressures, data.curvatures)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["calibrate", "pressure-curvature", str(samples)]) == 0
        assert converted == []

    def test_memory_bounded_by_arrays_and_modes_shared(self, tmp_path, scenario_runs):
        fh = io.StringIO()
        runner.write_csv(fh, runner.TELEMETRY_COLUMNS, scenario_runs["cylinder_r74mm"].rows)
        header, body = fh.getvalue().split("\n", 1)
        path = tmp_path / "long.csv"
        path.write_text(header + "\n" + body * 12, encoding="utf-8")
        tracemalloc.start()
        try:
            columns = runner.read_telemetry(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(column.nbytes for column in columns.values())
        assert columns["t_s"].size >= 100_000
        assert peak <= 2 * nbytes + 8e6, (peak, nbytes)
        first_of_name = {}
        for mode in columns["fsm_mode"]:
            first_of_name.setdefault(mode, mode)
        assert len(first_of_name) > 1
        assert all(first_of_name[mode] is mode for mode in columns["fsm_mode"])


class TestFigureData:
    def test_phase_orbit_projection_and_closure(self, telemetry):
        cols = telemetry["empty_grasp"]
        rows = runner.emit_figure_data(cols, "phase_orbit")
        assert len(rows) == len(cols["t_s"])
        finger0 = [r for r in rows if r[0] == 0]
        first, last = finger0[0], finger0[-1]
        sigma_pa = 20.0 * 1e-4 / 2.5 * 4095 * 31.57  # output noise in counts * Pa/count
        assert abs(last[2] - first[2]) < 5 * sigma_pa
        assert abs(last[3] - first[3]) < 0.01

    def test_pressure_curvature_tracks_calibrated_line(self, default_params, default_chain):
        # Stepped holds settle onto the steady-state line; compare the
        # settled samples against the ideal record's line.
        sc = scenario.scenario_from_dict({
            "name": "ramp", "duration_s": 13.0, "dt_s": 0.001, "tick_s": 0.005, "seed": 3,
            "commands": [
                {"t_s": 0.0, "command": "set_pressure_target", "value_pa": 40000.0},
                {"t_s": 3.0, "command": "set_pressure_target", "value_pa": 45000.0},
                {"t_s": 6.0, "command": "set_pressure_target", "value_pa": 50000.0},
                {"t_s": 9.0, "command": "set_pressure_target", "value_pa": 55000.0},
            ]})
        cols = runner.rows_to_columns(runner.run_scenario(sc).rows)
        rows = runner.emit_figure_data(cols, "pressure_curvature")
        record = calibration.ideal_record(default_params, default_chain)
        settled = [(2.6, 3.0), (5.6, 6.0), (8.6, 9.0), (12.6, 13.0)]
        for lo, hi in settled:
            mask = (cols["finger"] == 0) & (cols["t_s"] >= lo) & (cols["t_s"] < hi)
            p_hat = float(cols["pressure_pa"][mask].mean())
            kappa = float(cols["curvature_per_m"][mask].mean())
            line = record.kappa0_hat_per_m + record.slope_hat_per_m_pa * (
                p_hat - record.p_threshold_hat_pa)
            assert kappa == pytest.approx(line, rel=0.02)
        assert len(rows) == len(cols["t_s"])

    def test_grasp_timeline_columns(self, telemetry, tmp_path):
        out = tmp_path / "timeline.csv"
        runner.emit_figure_data(telemetry["cylinder_r74mm"], "grasp_timeline", out=out)
        header = open(out).readline().strip().split(",")
        assert header == ["finger", "t_s", "pressure_pa", "strain"]

    @pytest.mark.parametrize("kind", sorted(runner.FIGURE_KINDS))
    def test_file_matches_numpy_scalar_rows(self, telemetry, tmp_path, kind):
        cols = telemetry["cylinder_r74mm"]
        out = tmp_path / "figure.csv"
        runner.emit_figure_data(cols, kind, out=out)
        wanted = runner.FIGURE_KINDS[kind]
        scalar_rows = list(zip(*(cols[c] for c in wanted)))
        expected = TestCsvWriter.per_column_lines(wanted, scalar_rows)
        assert out.read_text(encoding="utf-8") == expected

    def test_unknown_kind_rejected(self, telemetry):
        with pytest.raises(DomainError, match="unknown figure kind"):
            runner.emit_figure_data(telemetry["empty_grasp"], "sparkline")

    def test_missing_columns_reported(self):
        with pytest.raises(DomainError, match="missing columns"):
            runner.emit_figure_data({"finger": np.array([0])}, "phase_orbit")
