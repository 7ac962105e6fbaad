import json

import numpy as np
import pytest

from softhand import cli

FIXTURE_DIR = "src/softhand/scenarios"


def fixture_path(name):
    import softhand
    from importlib import resources
    return str(resources.files("softhand") / "scenarios" / f"{name}.json")


def run_cli(*argv):
    return cli.main(list(argv))


class TestRunVerb:
    def test_run_succeeds_and_writes_outputs(self, tmp_path, capsys):
        code = run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "empty_grasp_telemetry.csv").exists()
        assert (tmp_path / "empty_grasp_events.jsonl").exists()
        assert "telemetry rows" in capsys.readouterr().out

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

    @pytest.mark.parametrize("dt", ["0", "nan", "-0.001"])
    def test_bad_dt_override_exits_2(self, tmp_path, capsys, dt):
        assert run_cli("run", fixture_path("empty_grasp"), "--out", str(tmp_path),
                       f"--dt={dt}") == 2
        assert "error: dt must be > 0" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("run", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2

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
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope_hat_per_m_pa"] == pytest.approx(2.5e-3, rel=1e-6)
        assert payload["p_threshold_hat_pa"] == pytest.approx(30e3, rel=1e-6)

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

    @pytest.mark.parametrize("body, names", [
        (b"32000,1.0\n34000,abc\n", "'kappa_per_m'"),
        (b"32000,1.0\n34000\n", "data row 2"),
        (b"", "no data rows"),
        (b"32000,1.0\n34000,\xff\n", "UTF-8"),
    ], ids=["non_numeric_cell", "short_row", "header_only", "not_utf8"])
    def test_malformed_csv_exits_2(self, tmp_path, capsys, body, names):
        csv = tmp_path / "pk.csv"
        csv.write_bytes(b"pressure_pa,kappa_per_m\n" + body)
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
    ], ids=["non_numeric_cell", "short_row", "header_only"])
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
