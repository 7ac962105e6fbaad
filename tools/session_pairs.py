#!/usr/bin/env python3
"""Calibration sessions of a parent commit and the working tree, timed in one process.

Run from the repository root:

    python3 tools/session_pairs.py --out SESSIONS_26.json --rounds 10 --sessions 10 \\
        --loads 1e-4:2.5 5e-4:2.5 6e-4:2.5 8e-4:0.5

Each load is ``pressure noise_sigma:settle_s`` for sessions shaped like
perfbench's ``calibration_batch`` (the default finger and chain, levels
35-55 kPa, dt 2.5 ms), with only the pressure channel's noise and settle_s
changed. A pressure noise well above the default 1e-4 makes the servo
re-engage mid-hold, which the benchmark's workloads never do.

The parent is ``git archive`` of ``--parent`` (default HEAD), imported as a
second package beside the working tree's ``src/softhand``. Every session runs
once per side per round, the two back to back in alternating order, timed
in process CPU time, so both sides see the same state of the host. Both
sides must return the same bytes (or the same FitError); a difference is
listed and makes the exit code 1. Per load the output lists every session's
times, each round's totals, and the rounds the change won, the median ratio
and the median gap beside the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, checkout_parent, quartiles

LEVELS_PA = tuple(30e3 + 5e3 * k for k in range(1, 6))
DT_S = 2.5e-3


def load_package(name: str, package_dir: Path):
    """The softhand package in package_dir, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def session(package, sigma: float, settle_s: float, seed: int) -> tuple[int, object]:
    """(CPU ns, the session's bytes or its FitError's text)."""
    chain = package.sensors.SensorChain(
        pressure=package.sensors.PressureSensorParams(noise_sigma=sigma))
    params = package.physics.ActuatorParams()
    start = time.process_time_ns()
    try:
        data = package.calibration.simulate_calibration_run(
            params, chain, LEVELS_PA, seed=seed, settle_s=settle_s, dt=DT_S)
        result = data.pressures.tobytes() + data.curvatures.tobytes()
    except package.FitError as exc:
        result = str(exc)
    return time.process_time_ns() - start, result


def run_load(packages: dict, sigma: float, settle_s: float, sessions: int, rounds: int,
             seed: int) -> dict:
    seeds = random.Random(seed).sample(range(2 ** 31), sessions)
    ms = {side: [[] for _ in seeds] for side in packages}
    mismatched = set()
    for r in range(rounds):
        for i, s in enumerate(seeds):
            order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                ns, results[side] = session(packages[side], sigma, settle_s, s)
                ms[side][i].append(ns / 1e6)
            if results["parent"] != results["change"]:
                mismatched.add(s)
    totals = {side: [sum(per[r] for per in ms[side]) for r in range(rounds)] for side in ms}
    parent, change = quartiles(totals["parent"]), quartiles(totals["change"])
    return {
        "sigma": sigma, "settle_s": settle_s, "seeds": seeds,
        "mismatched_seeds": sorted(mismatched),
        "session_ms": {side: [[round(v, 3) for v in per] for per in ms[side]] for side in ms},
        "round_total_ms": {"parent": parent, "change": change},
        "change_wins": sum(c < p for p, c in zip(totals["parent"], totals["change"])),
        "median_ratio": round(change["median"] / parent["median"], 4),
        "median_gap_vs_parent_iqr": [round(change["median"] - parent["median"], 4),
                                     round(parent["q3"] - parent["q1"], 4)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--loads", nargs="+", required=True, metavar="SIGMA:SETTLE_S")
    parser.add_argument("--sessions", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seeds the session seeds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="session_pairs_") as tmp:
        parent_sha = checkout_parent(args.parent, Path(tmp, "parent"))
        packages = {"parent": load_package("softhand_parent", Path(tmp, "parent/src/softhand")),
                    "change": load_package("softhand", ROOT / "src/softhand")}
        for side in packages:
            importlib.import_module(f"{packages[side].__name__}.calibration")
        out = {"parent": parent_sha, "host": platform.platform(), "python": sys.version.split()[0],
               "numpy": np.__version__, "sessions": args.sessions, "rounds": args.rounds,
               "loads": {}}
        for spec in args.loads:
            sigma, settle_s = (float(x) for x in spec.split(":"))
            out["loads"][spec] = load = run_load(packages, sigma, settle_s, args.sessions,
                                                 args.rounds, args.seed)
            print(f"{spec}: parent {load['round_total_ms']['parent']['median']:.1f} ms, change "
                  f"{load['round_total_ms']['change']['median']:.1f} ms, ratio "
                  f"{load['median_ratio']}, wins {load['change_wins']}/{args.rounds}, "
                  f"mismatched {len(load['mismatched_seeds'])}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 1 if any(load["mismatched_seeds"] for load in out["loads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
