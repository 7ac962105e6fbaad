import contextlib
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhand import calibration, cli, runner

FIXTURE_DIR = "src/softhand/scenarios"


def fixture_path(name):
    import softhand
    from importlib import resources
    return str(resources.files("softhand") / "scenarios" / f"{name}.json")


def run_cli(*argv):
    return cli.main(list(argv))


def with_cell(row, column, text):
    """A telemetry CSV line with the cell of one column replaced by text."""
    cells = row.split(",")
    cells[runner.TELEMETRY_COLUMNS.index(column)] = text
    return ",".join(cells)


class TestRunVerb:
    def test_run_succeeds_and_writes_outputs(self, tmp_path, capsys):
        code = run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "empty_grasp_telemetry.csv").exists()
        assert (tmp_path / "empty_grasp_events.jsonl").exists()
        assert "telemetry rows" in capsys.readouterr().out

    def test_scenario_behind_byte_order_mark_runs(self, tmp_path):
        # The same document behind a UTF-8 byte-order mark, as some editors save it.
        bom = tmp_path / "empty_grasp.json"
        with open(fixture_path("empty_grasp"), "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path / "plain")) == 0
        assert run_cli("run", str(bom), "--out", str(tmp_path / "bom")) == 0
        assert (tmp_path / "bom" / "empty_grasp_telemetry.csv").read_bytes() == \
            (tmp_path / "plain" / "empty_grasp_telemetry.csv").read_bytes()

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"duration_s": 1.0, "dt_s": "fast"}')
        code = run_cli("run", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text('{"duration_s": 1.0, "actuators": [{"tau_inflate_s": Infinity}]}')
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
        assert "$.actuators[0].tau_inflate_s: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body,path", [
        ('{"duration_s": 1%s}', "$.duration_s"),
        ('{"duration_s": 1.0, "actuators": [{"tau_inflate_s": 1%s}]}',
         "$.actuators[0].tau_inflate_s"),
    ], ids=["duration_s", "tau_inflate_s"])
    def test_integer_too_large_for_float_exits_2(self, tmp_path, capsys, body, path):
        bad = tmp_path / "big.json"
        bad.write_text(body % ("0" * 401))
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
        assert f"{path}: must be finite" in capsys.readouterr().err

    def test_overflowing_curvature_disturbances_exit_2(self, tmp_path, capsys):
        kick = {"t_s": 0.01, "finger": 0, "curvature_step_per_m": 1e308}
        bad = tmp_path / "kicks.json"
        bad.write_text(json.dumps({"duration_s": 0.1, "disturbances": [kick, kick]}))
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
        assert "error: finger 0: state curvature inf" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["0", "nan", "-0.001"])
    def test_bad_dt_override_exits_2(self, tmp_path, capsys, dt):
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path),
                       f"--dt={dt}") == 2
        assert "error: dt must be > 0" in capsys.readouterr().err

    def test_vanishing_dt_override_exits_2(self, tmp_path, capsys):
        # 1e-300 would pass a bare > 0 check and ask for 5e297 substeps per tick.
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path),
                       "--dt=1e-300") == 2
        assert "error: dt 1e-300 is below the 1e-05 s floor" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("set_pressure_target", "value_pa", 700000.0),  # past the wire's u16 Pa/10
        ("set_pressure_target", "value_pa", 100000.0),  # past the default p_max, 82,737 Pa
        ("set_pressure_target", "value_pa", 82736.0),  # the wire's 82,740 Pa is past p_max
        ("set_pressure_target", "value_pa", -1.0),
        ("stream_start", "period_ms", 0),
        ("stream_start", "period_ms", 256),
    ], ids=["pa_700000", "pa_100000", "pa_82736", "pa_-1", "period_0", "period_256"])
    def test_command_the_device_refuses_exits_2(self, tmp_path, capsys, command, key, value):
        bad = tmp_path / "command.json"
        bad.write_text(json.dumps({"duration_s": 0.1, "commands": [
            {"t_s": 0.0, "command": command, key: value}]}))
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
        assert f"$.commands[0].{key}: " in capsys.readouterr().err

    def test_sensors_d_neutral_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "d_neutral.json"
        bad.write_text('{"duration_s": 1.0, "sensors": {"d_neutral_m": 0.5}}')
        assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
        assert "$.sensors.d_neutral_m: unknown key" in capsys.readouterr().err

    def test_run_past_tick_cap_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "endless.json"
        bad.write_text(json.dumps({"duration_s": 600.005}))  # the tick cap plus one 5 ms tick
        assert run_cli("run", str(bad), "--out", str(tmp_path / "out")) == 2
        assert "$.duration_s: must be at most 120000 ticks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("run", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"duration_s": 1.0}'.encode("utf-16-le"))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}: not a UTF-8 text file" in err

    def test_fault_at_end_exits_1(self, tmp_path):
        # Curvature target above the object cap: unreachable, times out into
        # Fault, which is still the terminal mode at the end of the run.
        sc = {
            "name": "fault", "duration_s": 12.0, "dt_s": 0.001, "tick_s": 0.005, "seed": 1,
            "objects": [{"radius_m": 0.074, "fingers": [0, 1, 2]}],
            "commands": [{"t_s": 0.0, "command": "set_curvature_target", "value_per_m": 30.0}],
        }
        path = tmp_path / "fault.json"
        path.write_text(json.dumps(sc))
        assert run_cli("run", str(path), "--out", str(tmp_path)) == 1

    def test_seed_and_dt_overrides(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(out_a),
                       "--seed", "5", "--dt", "0.0005") == 0
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(out_b),
                       "--seed", "5", "--dt", "0.0005") == 0
        assert (out_a / "empty_grasp_telemetry.csv").read_bytes() == \
            (out_b / "empty_grasp_telemetry.csv").read_bytes()


class TestCalibrateVerbs:
    def write_pk_csv(self, path, warmup_col=None):
        p = np.linspace(32e3, 60e3, 25)
        kappa = 1.0 + 2.5e-3 * (p - 30e3)
        with open(path, "w") as fh:
            if warmup_col is None:
                fh.write("pressure_pa,kappa_per_m\n")
                for pi, ki in zip(p, kappa):
                    fh.write(f"{pi},{ki}\n")
            else:
                fh.write("pressure_pa,kappa_per_m,warmup_cycles\n")
                for pi, ki in zip(p, kappa):
                    fh.write(f"{pi},{ki},{warmup_col}\n")

    def test_pressure_curvature_fit(self, tmp_path, capsys):
        csv = tmp_path / "pk.csv"
        self.write_pk_csv(csv)
        code = run_cli("calibrate", "pressure-curvature", str(csv), "--warmup-cycles", "12")
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["slope_hat_per_m_pa"] == pytest.approx(2.5e-3, rel=1e-6)
        assert payload["p_threshold_hat_pa"] == pytest.approx(30e3, rel=1e-6)
        # The same bytes behind a UTF-8 byte-order mark, as spreadsheet exports write them.
        bom = tmp_path / "pk_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + csv.read_bytes())
        assert run_cli("calibrate", "pressure-curvature", str(bom), "--warmup-cycles", "12") == 0
        assert capsys.readouterr().out == out

    def test_warmup_column_respected(self, tmp_path, capsys):
        csv = tmp_path / "pk.csv"
        self.write_pk_csv(csv, warmup_col=15)
        assert run_cli("calibrate", "pressure-curvature", str(csv)) == 0

    def test_missing_warmup_provenance_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "pk.csv"
        self.write_pk_csv(csv)
        assert run_cli("calibrate", "pressure-curvature", str(csv)) == 2
        assert "warm-up" in capsys.readouterr().err

    def test_cold_data_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "pk.csv"
        self.write_pk_csv(csv)
        assert run_cli("calibrate", "pressure-curvature", str(csv),
                       "--warmup-cycles", "4") == 2

    @pytest.mark.parametrize("verb", ["pressure-curvature", "strain-resistance"])
    @pytest.mark.parametrize("cells", [["nan"], ["inf"], ["10.9"], ["12", "15"]],
                             ids=["nan", "inf", "fraction", "differing"])
    def test_bad_warmup_column_exits_2(self, tmp_path, capsys, verb, cells):
        csv = tmp_path / "samples.csv"
        csv.write_text("pressure_pa,kappa_per_m,strain,resistance_ohm,warmup_cycles\n" + "".join(
            f"{32e3 + 1e3 * i},{1.0 + 0.1 * i},{0.01 * i},{2.0 + 0.05 * i},{cells[i % len(cells)]}\n"
            for i in range(10)))
        assert run_cli("calibrate", verb, str(csv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "warmup_cycles" in err

    @pytest.mark.parametrize("verb, column", [
        ("pressure-curvature", "pressure_pa"), ("pressure-curvature", "kappa_per_m"),
        ("strain-resistance", "strain"), ("strain-resistance", "resistance_ohm")])
    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, verb, column, cell):
        header = ("pressure_pa", "kappa_per_m", "strain", "resistance_ohm")
        rows = [[str(v) for v in (32e3 + 1e3 * i, 1.0 + 0.1 * i, 0.01 * i, 2.0 + 0.05 * i)]
                for i in range(4)]
        rows[2][header.index(column)] = cell
        csv = tmp_path / "samples.csv"
        csv.write_text(",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows))
        assert run_cli("calibrate", verb, str(csv), "--warmup-cycles", "10") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {csv}: column {column!r}: sample 3 of 4 ")

    def test_strain_resistance_fit(self, tmp_path, capsys):
        csv = tmp_path / "sr.csv"
        eps = np.linspace(0.0, 0.3, 20)
        r = 2.0 * (1.0 + eps) ** 2 + 0.2
        with open(csv, "w") as fh:
            fh.write("strain,resistance_ohm\n")
            for e, ri in zip(eps, r):
                fh.write(f"{e},{ri}\n")
        out = tmp_path / "fit.json"
        code = run_cli("calibrate", "strain-resistance", str(csv),
                       "--warmup-cycles", "10", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["r0_hat_ohm"] == pytest.approx(2.0, abs=1e-9)
        assert payload["r_lead_hat_ohm"] == pytest.approx(0.2, abs=1e-9)

    def test_missing_columns_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "junk.csv"
        csv.write_text("a,b\n1,2\n")
        assert run_cli("calibrate", "strain-resistance", str(csv),
                       "--warmup-cycles", "10") == 2

    @pytest.mark.parametrize("text, names", [
        (b"pressure_pa,kappa_per_m\n32000,1.0\n34000,abc\n", "'kappa_per_m'"),
        (b"pressure_pa,kappa_per_m\n32000,1.0\n34000\n", "data row 2"),
        (b"pressure_pa,kappa_per_m\n", "no data rows"),
        (b"pressure_pa,kappa_per_m\n32000,1.0\n34000,\xff\n", "UTF-8"),
        (b"pressure_pa,kappa_per_m,kappa_per_m\n32000,1.0,9.0\n34000,2.0,9.0\n",
         "column 'kappa_per_m' appears more than once"),
    ], ids=["non_numeric_cell", "short_row", "header_only", "not_utf8", "duplicated_header_name"])
    def test_malformed_csv_exits_2(self, tmp_path, capsys, text, names):
        csv = tmp_path / "pk.csv"
        csv.write_bytes(text)
        assert run_cli("calibrate", "pressure-curvature", str(csv),
                       "--warmup-cycles", "12") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err and names in err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    for name in ("empty_grasp", "cylinder_r74mm"):
        assert run_cli("run", fixture_path(name), "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("argv", [
    ["run", "{path}", "--out", "{out}"],
    ["grasp", "classify", "{path}", "--reference", "{reference}"],
    ["grasp", "classify", "{telemetry}", "--reference", "{path}"],
    ["grasp", "classify", "{telemetry}", "--reference", "{reference}", "--cal", "{path}"],
    ["figure", "{path}", "--kind", "phase_orbit"],
    ["calibrate", "pressure-curvature", "{path}", "--warmup-cycles", "10"],
], ids=["run", "classify_telemetry", "classify_reference", "classify_cal", "figure",
        "calibrate_pressure_curvature"])
def test_directory_input_exits_2(run_dir, tmp_path, capsys, argv):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    paths = {"path": directory, "out": tmp_path / "out",
             "telemetry": run_dir / "cylinder_r74mm_telemetry.csv",
             "reference": run_dir / "empty_grasp_telemetry.csv"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(directory) in captured.err


class TestGraspAndFigureVerbs:
    def test_classify_against_reference(self, run_dir, capsys):
        code = run_cli("grasp", "classify", str(run_dir / "cylinder_r74mm_telemetry.csv"),
                       "--reference", str(run_dir / "empty_grasp_telemetry.csv"))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        verdicts = [json.loads(line) for line in lines]
        assert len(verdicts) == 3
        for v in verdicts:
            assert v["outcome"] == "ObjectGrasped"
            assert v["estimated_radius_m"] == pytest.approx(0.074, rel=0.10)

    def test_classify_empty_against_itself(self, run_dir, capsys):
        code = run_cli("grasp", "classify", str(run_dir / "empty_grasp_telemetry.csv"),
                       "--reference", str(run_dir / "empty_grasp_telemetry.csv"))
        assert code == 0
        verdicts = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert all(v["outcome"] == "Empty" for v in verdicts)

    def test_figure_to_file(self, run_dir, tmp_path):
        out = tmp_path / "orbit.csv"
        code = run_cli("figure", str(run_dir / "empty_grasp_telemetry.csv"),
                       "--kind", "phase_orbit", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "finger,t_s,pressure_pa,strain"

    def test_figure_stdout_matches_file(self, run_dir, tmp_path, capsys):
        telemetry = str(run_dir / "empty_grasp_telemetry.csv")
        out = tmp_path / "orbit.csv"
        assert run_cli("figure", telemetry, "--kind", "phase_orbit", "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("figure", telemetry, "--kind", "phase_orbit") == 0
        assert capsys.readouterr().out == out.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("edit, names", [
        (lambda row: row.replace(",Idle,0,", ",Idle,on,"), "'inlet'"),
        (lambda row: row.rsplit(",", 1)[0], "data row 5"),
        (None, "no data rows"),
        (lambda row: with_cell(row, "strain_counts", "99999999999999999999"), "'strain_counts'"),
        (lambda row: with_cell(row, "pressure_pa", "nan"),
         "column 'pressure_pa': sample 5 of 8400 is not finite (nan)"),
        (lambda row: with_cell(row, "t_s", "inf"),
         "column 't_s': sample 5 of 8400 is not finite (inf)"),
    ], ids=["non_numeric_cell", "short_row", "header_only", "int_overflow", "nan_pressure",
            "inf_time"])
    def test_malformed_telemetry_exits_2(self, run_dir, tmp_path, capsys, edit, names):
        lines = (run_dir / "cylinder_r74mm_telemetry.csv").read_text().splitlines()
        lines = lines[:5] + [edit(lines[5])] + lines[6:] if edit else lines[:1]
        bad = tmp_path / "bad_telemetry.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("grasp", "classify", str(bad),
                       "--reference", str(run_dir / "empty_grasp_telemetry.csv"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(bad) in captured.err
        assert names in captured.err

    @pytest.mark.parametrize("band", ["nan", "-1", "inf", "0"])
    def test_bad_tolerance_band_exits_2(self, run_dir, capsys, band):
        empty = str(run_dir / "empty_grasp_telemetry.csv")
        assert run_cli("grasp", "classify", empty, "--reference", empty,
                       f"--tolerance-band={band}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        rule = "> 0" if float(band) <= 0.0 else "finite"
        assert captured.err == f"error: tolerance_band: must be {rule}, got {float(band)}\n"

    def test_figure_to_stdout(self, run_dir, capsys):
        code = run_cli("figure", str(run_dir / "empty_grasp_telemetry.csv"),
                       "--kind", "grasp_timeline")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "finger,t_s,pressure_pa,strain"
        assert len(lines) > 1000

    def test_unknown_kind_is_usage_error(self, run_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("figure", str(run_dir / "empty_grasp_telemetry.csv"),
                    "--kind", "sparkline")
        assert exc.value.code == 2


IDEAL_RECORD = {
    "d_neutral_m": 0.01, "fit_residuals": {}, "kappa0_hat_per_m": 1.0,
    "p_threshold_hat_pa": 30000.0, "r0_hat_ohm": 2.0, "r_lead_hat_ohm": 0.2,
    "slope_hat_per_m_pa": 0.0025, "warmup_cycles": 10,
    "pressure_channel": {"gain_pa_per_count": 25.0, "offset_pa": 0.0, "rms_pa": 0.0},
}


class TestClassifyCalRecord:
    def classify(self, run_dir, cal):
        return run_cli("grasp", "classify", str(run_dir / "cylinder_r74mm_telemetry.csv"),
                       "--reference", str(run_dir / "empty_grasp_telemetry.csv"),
                       "--cal", str(cal))

    def test_well_formed_record_classifies(self, run_dir, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(IDEAL_RECORD))
        assert self.classify(run_dir, cal) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize("text, names", [
        ("{not json", ":1:2:"),
        ("[1, 2]", "$: expected a JSON object"),
        ("{}", "$.p_threshold_hat_pa: required key missing"),
        (json.dumps(dict(IDEAL_RECORD, n_samples=40)), "$.n_samples: unknown key"),
        (json.dumps(dict(IDEAL_RECORD, r0_hat_ohm="two")), "$.r0_hat_ohm: expected a number"),
        (json.dumps(dict(IDEAL_RECORD, slope_hat_per_m_pa=float("nan"))),
         "$.slope_hat_per_m_pa: must be finite"),
        (json.dumps(dict(IDEAL_RECORD, pressure_channel=[25.0, 0.0, 0.0])),
         "$.pressure_channel: expected a JSON object"),
        (json.dumps(dict(IDEAL_RECORD, pressure_channel={"gain_pa_per_count": 25.0})),
         "$.pressure_channel.offset_pa: required key missing"),
        (json.dumps(dict(IDEAL_RECORD, warmup_cycles=3)), "$.warmup_cycles: 3 warm-up"),
        (json.dumps(dict(IDEAL_RECORD, d_neutral_m=0)), "$.d_neutral_m: must be > 0, got 0.0"),
        (json.dumps(dict(IDEAL_RECORD, d_neutral_m=-0.01)),
         "$.d_neutral_m: must be > 0, got -0.01"),
        (json.dumps(dict(IDEAL_RECORD, r0_hat_ohm=0)), "$.r0_hat_ohm: must be > 0, got 0.0"),
        (json.dumps(dict(IDEAL_RECORD, r0_hat_ohm=-1)), "$.r0_hat_ohm: must be > 0, got -1.0"),
        (json.dumps(dict(IDEAL_RECORD, r_lead_hat_ohm=-0.1)),
         "$.r_lead_hat_ohm: must be >= 0, got -0.1"),
    ], ids=["not_json", "not_object", "missing_key", "unknown_key", "non_numeric",
            "non_finite", "channel_not_object", "channel_missing_key", "cold_warmup",
            "d_neutral_zero", "d_neutral_negative", "r0_zero", "r0_negative",
            "r_lead_negative"])
    def test_malformed_record_exits_2(self, run_dir, tmp_path, capsys, text, names):
        cal = tmp_path / "cal.json"
        cal.write_text(text)
        assert self.classify(run_dir, cal) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(cal) in captured.err
        assert names in captured.err

    def test_calibrate_output_classifies(self, run_dir, tmp_path, capsys):
        rng = np.random.default_rng(3)
        p = rng.uniform(35e3, 80e3, 40)
        samples = tmp_path / "pk.csv"
        samples.write_text("pressure_pa,kappa_per_m\n" + "".join(
            f"{pi},{1.0 + 2.5e-3 * (pi - 30e3)}\n" for pi in p))
        fit = tmp_path / "fit.json"
        assert run_cli("calibrate", "pressure-curvature", str(samples),
                       "--warmup-cycles", "10", "--out", str(fit)) == 0
        assert run_cli("calibrate", "pressure-curvature", str(samples),
                       "--warmup-cycles", "10") == 0
        assert capsys.readouterr().out == fit.read_text()
        record = calibration.load_record(fit)
        assert record.fit_residuals["n_samples"] == 40
        assert self.classify(run_dir, fit) == 0
        verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(verdicts) == 3
        for v in verdicts:  # acceptance criterion 05's tolerance
            assert abs(v["estimated_radius_m"] - 0.074) / 0.074 < 0.10, v


# The headers each CSV verb reads, then column names to draw other headers from.
CSV_HEADERS = (runner.TELEMETRY_COLUMNS, ("pressure_pa", "kappa_per_m"),
               ("strain", "resistance_ohm", "warmup_cycles"))
CSV_COLUMNS = (*runner.TELEMETRY_COLUMNS, "kappa_per_m", "resistance_ohm", "warmup_cycles",
               "other")
ODD_CELLS = ("", "nan", "-inf", "1e400", "abc", "99999999999999999999", "Holding", " 7 ",
             "\ufeff1", "1.5", "-1")
CELL_CHOICES = {"finger": ("0",),
                "fsm_mode": ("Idle", "Inflating", "Holding", "Fault", "?"),
                "warmup_cycles": ("10", "10", "12", "9")}


@st.composite
def csv_files(draw):
    """Any bytes or text at all, or a header over rows of cells of the column's type.

    The cells come from a seeded generator, so an example costs a few draws;
    at most one cell is odd. Rows advance t_s by one 5 ms tick, so a share of
    the files get past the reader into the fits and the grasp analysis.
    """
    if draw(st.booleans()):
        return draw(st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
    header = draw(st.sampled_from(CSV_HEADERS)
                  | st.lists(st.sampled_from(CSV_COLUMNS), min_size=1, max_size=6))
    n_rows = draw(st.integers(0, 40))
    odd = draw(st.none() | st.sampled_from(ODD_CELLS))
    odd_at = draw(st.integers(0, max(n_rows * len(header) - 1, 0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def cell(name, i):
        if name == "t_s":
            return repr(0.005 * i)
        if name in CELL_CHOICES:
            return rng.choice(CELL_CHOICES[name])
        if runner._column_dtype(name) is int:
            return str(rng.randint(-1, 4096))
        return repr(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 6))

    cells = [cell(name, i) for i in range(n_rows) for name in header]
    if odd is not None and cells:
        cells[odd_at] = odd
    lines = [",".join(header)] + [",".join(cells[k:k + len(header)])
                                  for k in range(0, len(cells), len(header))]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.csv"


@pytest.mark.parametrize("argv", [
    ["calibrate", "pressure-curvature", "{csv}", "--warmup-cycles", "10"],
    ["calibrate", "strain-resistance", "{csv}"],
    ["figure", "{csv}", "--kind", "phase_orbit"],
    ["grasp", "classify", "{csv}", "--reference", "{csv}"],
], ids=["calibrate_pressure_curvature", "calibrate_strain_resistance", "figure",
        "grasp_classify"])
@settings(max_examples=50, deadline=None)
@given(data=csv_files())
def test_any_csv_exits_0_or_2(fuzz_csv, argv, data):
    # Whatever the file holds, a CSV verb succeeds or reports a SofthandError:
    # no other exception escapes main.
    fuzz_csv.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(*(arg.format(csv=fuzz_csv) for arg in argv)) in (0, 2)
