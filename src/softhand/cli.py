"""Command-line front end: scenario runs, calibration fits, grasp analysis.

Exit codes: 0 success, 1 simulation ended in a Fault state, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import calibration, grasp, physics, runner, scenario, sensors
from .errors import SofthandError


def _resolve_warmup(columns: dict[str, np.ndarray], flag_value: int | None) -> int:
    if flag_value is not None:
        return calibration.require_warmup(flag_value)
    if "warmup_cycles" in columns:
        column = columns["warmup_cycles"]
        warmup = calibration.require_warmup(float(column[0]))
        if (column != column[0]).any():
            raise SofthandError(f"warmup_cycles: rows disagree ({sorted(set(column.tolist()))})")
        return warmup
    raise SofthandError(
        "warm-up provenance required: pass --warmup-cycles N or include a "
        "warmup_cycles column (fits are only valid after >= "
        f"{calibration.WARMUP_CYCLES_REQUIRED} full inflations)")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    result = runner.run_scenario(sc, out_dir=args.out, seed=args.seed, dt=args.dt)
    print(f"{sc.name}: {len(result.rows)} telemetry rows, {len(result.events)} events"
          + (f" -> {result.telemetry_path}" if result.telemetry_path else ""))
    if result.faulted:
        print("simulation ended with a Fault state", file=sys.stderr)
        return 1
    return 0


def _cmd_calibrate_pressure_curvature(args) -> int:
    columns = runner.read_csv(args.csv, ("pressure_pa", "kappa_per_m"))
    warmup = _resolve_warmup(columns, args.warmup_cycles)
    data = calibration.CalibrationData(pressures=columns["pressure_pa"],
                                       curvatures=columns["kappa_per_m"], warmup_cycles=warmup)
    record = calibration.build_record(data, sensors.SensorChain(), p_min_fit=args.p_min_fit,
                                      kappa_anchor=args.kappa_anchor)
    _emit(calibration.record_json(record), args.out)
    return 0


def _cmd_calibrate_strain_resistance(args) -> int:
    columns = runner.read_csv(args.csv, ("strain", "resistance_ohm"))
    warmup = _resolve_warmup(columns, args.warmup_cycles)
    fit = calibration.fit_strain_resistance(columns["strain"], columns["resistance_ohm"])
    _emit(json.dumps({
        "r0_hat_ohm": fit.r0,
        "r_lead_hat_ohm": fit.r_lead,
        "rms_ohm": fit.rms,
        "n_samples": fit.n_used,
        "warmup_cycles": warmup,
    }, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_grasp_classify(args) -> int:
    telemetry = runner.read_telemetry(args.telemetry)
    reference = runner.read_telemetry(args.reference)
    if args.cal:
        record = calibration.load_record(args.cal)
    else:
        record = calibration.ideal_record(physics.ActuatorParams(), sensors.SensorChain())
    fingers = sorted(set(int(f) for f in telemetry["finger"]))
    for finger in fingers:
        ref = grasp.EmptyGraspReference.from_orbit(
            runner.orbit_from_telemetry(reference, finger), tolerance_band=args.tolerance_band)
        verdict = grasp.classify_grasp(runner.orbit_from_telemetry(telemetry, finger),
                                       ref, record)
        print(json.dumps({
            "finger": finger,
            "outcome": verdict.outcome.value,
            "estimated_radius_m": verdict.estimated_radius,
            "strain_deficit": verdict.strain_deficit,
            "hold_pressure_pa": verdict.hold_pressure,
            "hold_strain": verdict.hold_strain,
        }))
    return 0


def _cmd_figure(args) -> int:
    columns = runner.read_telemetry(args.telemetry)
    rows = runner.emit_figure_data(columns, args.kind, out=args.out)
    if args.out is None:
        runner.write_csv(sys.stdout, runner.FIGURE_KINDS[args.kind], rows)
    else:
        print(f"{args.kind}: {len(rows)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="softhand",
                                     description="Soft pneumatic hand simulator and analysis")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write telemetry + events")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dt", type=float, default=None, help="physics step override (s)")
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="fit sensor/actuator models from CSV samples")
    cal_sub = p_cal.add_subparsers(dest="what", required=True)

    p_pk = cal_sub.add_parser("pressure-curvature",
                              help="fit the threshold-plus-line curvature model")
    p_pk.add_argument("csv", help="columns: pressure_pa,kappa_per_m[,warmup_cycles]")
    p_pk.add_argument("--p-min-fit", type=float, default=30e3)
    p_pk.add_argument("--kappa-anchor", type=float, default=calibration.DEFAULT_KAPPA_ANCHOR)
    p_pk.add_argument("--warmup-cycles", type=int, default=None)
    p_pk.add_argument("--out", default=None)
    p_pk.set_defaults(func=_cmd_calibrate_pressure_curvature)

    p_sr = cal_sub.add_parser("strain-resistance",
                              help="fit the quadratic strain-resistance law")
    p_sr.add_argument("csv", help="columns: strain,resistance_ohm[,warmup_cycles]")
    p_sr.add_argument("--warmup-cycles", type=int, default=None)
    p_sr.add_argument("--out", default=None)
    p_sr.set_defaults(func=_cmd_calibrate_strain_resistance)

    p_grasp = sub.add_parser("grasp", help="grasp telemetry analysis")
    grasp_sub = p_grasp.add_subparsers(dest="what", required=True)
    p_cls = grasp_sub.add_parser("classify", help="classify a grasp against an empty reference")
    p_cls.add_argument("telemetry")
    p_cls.add_argument("--reference", required=True, help="empty-grasp telemetry CSV")
    p_cls.add_argument("--cal", default=None, help="calibration record JSON")
    p_cls.add_argument("--tolerance-band", type=float, default=grasp.DEFAULT_TOLERANCE_BAND)
    p_cls.set_defaults(func=_cmd_grasp_classify)

    p_fig = sub.add_parser("figure", help="emit plot-ready CSV from telemetry")
    p_fig.add_argument("telemetry")
    p_fig.add_argument("--kind", required=True, choices=sorted(runner.FIGURE_KINDS))
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SofthandError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
