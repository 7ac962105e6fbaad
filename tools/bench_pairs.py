#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and the working tree, written to one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --out BENCH_26.json --pairs 10 \\
        --runs calibration_batch:1,13 fixtures:1 grasp_sweep:1 --traced --tier1

The parent is ``git archive`` of ``--parent`` (default HEAD); the change is a
copy of the working tree's tracked and untracked, not ignored, files. Each
side runs from its own temporary directory, so both use their own
``perfbench/run.py`` unmodified. For every workload and seed the script runs
``--pairs`` pairs one after another, alternating which side goes first, and
records every run. The summary gives, per end-to-end metric of
BENCHMARK.json, each side's quartiles (numpy's linear percentiles), the
pairs the change won (strictly better, by the metric's direction), the
median ratio and the median gap beside the parent's interquartile range.
``--traced`` adds one traced pass per side and workload at seed 1 and lists
the ``.calls`` counts that differ; ``--tier1`` times the test suite on each
side.

Every child runs in its own process group, which is killed if the script
stops early, and the temporary directories are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
TRACED_SECONDS = 3


def run_child(argv: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    """argv in its own process group; the whole group is killed on a timeout or an error."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def checkout_parent(commit: str, dest: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", commit], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    archive = dest.parent / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench_run(side_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its exit code, result line and context line."""
    proc = run_child([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                      str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                     side_dir, RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    record = {"rc": proc.returncode}
    try:
        record["result"] = json.loads(lines[-1])
        record["context"] = json.loads(lines[-2])["context"]
    except (IndexError, ValueError, KeyError):
        record["stderr"] = proc.stderr[-2000:]
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 4), "median": round(float(median), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in values]}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {"pairs": min(len(sides["parent"]), len(sides["change"])),
           "failed": sorted({r.get("failed") for r in runs}, key=str),
           "exit_codes": sorted({r["rc"] for r in runs}),
           "correct": sorted({r.get("correct") for r in runs}, key=str)}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r[name] for r in sides[side] if name in r] for side in sides}
        if not values["parent"] or not values["change"]:
            continue
        by_pair = {side: {r["pair"]: r[name] for r in sides[side] if name in r} for side in sides}
        wins = sum((c > p) if higher else (c < p)
                   for k, p in by_pair["parent"].items()
                   if (c := by_pair["change"].get(k)) is not None)
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        out[name] = {"parent": parent, "change": change}
        out[f"{name}_change_wins"] = wins
        out[f"{name}_median_ratio"] = round(change["median"] / parent["median"], 4)
        out[f"{name}_median_gap_vs_parent_iqr"] = [
            round(change["median"] - parent["median"], 4), round(parent["q3"] - parent["q1"], 4)]
    for side, records in sides.items():
        counts = [r["counts_per_pass"] for r in records if "counts_per_pass" in r]
        if counts:
            out[f"counts_per_pass_{side}"] = counts[0]
            if any(c != counts[0] for c in counts):
                out[f"counts_per_pass_{side}_vary"] = True
    return out


def flat_run(record: dict, workload: str, seed: int, pair: int, side: str, first: str) -> dict:
    flat = {"workload": workload, "seed": seed, "pair": pair, "side": side, "first": first,
            "rc": record["rc"]}
    result, context = record.get("result"), record.get("context")
    if result is None:
        flat["stderr"] = record.get("stderr", "")
        return flat
    flat.update(failed=result["failed"], attempted=result["attempted"],
                correct=result["correct"], passes=context["passes"],
                counts_per_pass=context["counts_per_pass"])
    flat.update({name: m["value"] for name, m in result["metrics"].items()})
    return flat


def traced_pass(dirs: dict, workload: str) -> dict:
    per_side = {side: bench_run(path, workload, 1, TRACED_SECONDS, 1) for side, path in dirs.items()}
    values = {side: {name: m["value"] for name, m in rec.get("result", {}).get("metrics", {}).items()}
              for side, rec in per_side.items()}
    differ = {name: [values["parent"][name], values["change"].get(name)]
              for name in values["parent"]
              if name.endswith(".calls") and values["parent"][name] != values["change"].get(name)}
    return {"calls_that_differ": differ, "exit_codes": [r["rc"] for r in per_side.values()],
            **values}


def tier1(side_dir: Path) -> dict:
    # pytest's temporary files go inside the side's copy, removed with it.
    proc = run_child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                      "--durations=5", "--basetemp", str(side_dir / ".pytest_tmp")],
                     side_dir, RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    slowest = [line for line in lines if " call " in line or " setup " in line][:5]
    return {"result": lines[-1] if lines else "", "rc": proc.returncode, "slowest": slowest}


def parse_runs(specs: list[str]) -> list[tuple[str, int]]:
    """'workload:seed,seed' items as (workload, seed) pairs, in order."""
    out = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        out.extend((workload, int(seed)) for seed in (seeds or "1").split(","))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; BENCHMARK.json's run_seconds when omitted")
    parser.add_argument("--runs", nargs="+", required=True, metavar="WORKLOAD:SEEDS")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--notes", help="JSON file of text fields to copy into the output")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    notes = json.loads(Path(args.notes).read_text(encoding="utf-8")) if args.notes else {}

    # The default handler would end the script without unwinding; exiting
    # unwinds, so the current child's group is killed and the copies removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for path in dirs.values():
            path.mkdir()
        parent_sha = checkout_parent(args.parent, dirs["parent"])
        copy_working_tree(dirs["change"])

        runs, summary = [], {}
        for workload, seed in parse_runs(args.runs):
            mine = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    record = bench_run(dirs[side], workload, seed, seconds, 0)
                    mine.append(flat_run(record, workload, seed, pair, side, order[0]))
                    print(json.dumps(mine[-1]), flush=True)
            runs.extend(mine)
            summary[f"{workload}/seed{seed}"] = summarize(mine, benchmark["end_to_end"])
        output = {**notes, "parent_commit": parent_sha,
                  "host": f"nproc {len(os.sched_getaffinity(0))}, Python "
                          f"{platform.python_version()}, numpy {np.__version__}",
                  "commands": {"untraced": f"python3 perfbench/run.py --workload W --seed S "
                                           f"--seconds {seconds:g} --trace 0",
                               "traced": f"python3 perfbench/run.py --workload W --seed 1 "
                                         f"--seconds {TRACED_SECONDS} --trace 1"},
                  "summary": summary}
        if args.traced:
            output["traced_one_pass"] = {workload: traced_pass(dirs, workload)
                                         for workload in dict(parse_runs(args.runs))}
        if args.tier1:
            output["tier1"] = {side: tier1(path) for side, path in dirs.items()}
        output["runs"] = runs
    Path(args.out).write_text(json.dumps(output, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
