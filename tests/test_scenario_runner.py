import hashlib
import json

import numpy as np
import pytest

from softhand import calibration, physics, runner, scenario
from softhand.errors import DomainError, ScenarioError

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

    def test_negative_object_mass_names_path(self):
        with pytest.raises(ScenarioError, match=r"\$\.objects\[0\]\.mass_kg"):
            scenario.scenario_from_dict(minimal_dict(
                objects=[{"radius_m": 0.05, "mass_kg": -1, "fingers": [0]}]))

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

    def test_actuator_override_applied(self):
        sc = scenario.scenario_from_dict(minimal_dict(
            actuators=[{"slope_per_m_pa": 1e-3}, {}, {}]))
        assert sc.actuators[0].slope_m == 1e-3
        assert sc.actuators[1].slope_m == physics.ActuatorParams().slope_m

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

    def test_unknown_kind_rejected(self, telemetry):
        with pytest.raises(DomainError, match="unknown figure kind"):
            runner.emit_figure_data(telemetry["empty_grasp"], "sparkline")

    def test_missing_columns_reported(self):
        with pytest.raises(DomainError, match="missing columns"):
            runner.emit_figure_data({"finger": np.array([0])}, "phase_orbit")
