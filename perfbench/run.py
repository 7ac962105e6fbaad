#!/usr/bin/env python3
"""softhand benchmark: end-to-end metrics untraced, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One run of one workload, in one process and one thread, as a closed loop of
batch work:

1. ``setup_s``: the median of SETUP_PROBES fresh interpreters that each
   import softhand, load the scenarios and generate the workload's inputs.
2. One untimed warm-up pass with call counters on. It fills caches, gives
   the exact counts (RNG draws, physics substeps, FSM ticks, frames, rows,
   CSV bytes) and the simulated time of each item.
3. Untraced passes over the same inputs until ``--seconds`` have elapsed.
   Every output is checked outside the timed region; every pass must give
   the warm-up's digests. The end-to-end metrics come from these passes.
   The shared host this was built on runs a thread at one of two speeds,
   the slow one about half the fast one, and the share of time at each
   drifts from minute to minute, sometimes to none of the fast one for a
   minute or more. A median or mean of the samples moves with that share,
   and a best repeat fails when the fast speed is missing; the slow speed
   is almost always present. So the gated time metric is a tail that sits
   in the slow speed: ``sim_rtf_p10``, the simulated-seconds-per-host-second
   rate that 90 % of the run's item samples beat. Dividing by each item's
   simulated time makes items of different length comparable. Medians and
   means are still printed, in the context line.
4. With ``--trace 1`` only: the setup and one more pass run again under the
   span recorder (``tracer.py``). Their counts must equal the warm-up's and
   their digests the untraced ones; the per-layer metrics come from here.

The last line of standard output is the result object; the line before it
holds the run's context (machine, versions, exact counts). Exit code 0
means every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("fixtures", "grasp_sweep", "calibration_batch")
SETUP_PROBES = 7
DEFAULT_SECONDS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_rtf_p10": "sim_s/s",
    "peak_rss_mb": "MB",
}
CONTEXT_NOTES = {
    "model": "unvalidated against hardware; its only reference is the pinned telemetry digests",
    "scope": "process-level measurements only; nothing machine-wide is traced",
}


def load_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "softhand" / "__init__.py").is_file():
        sys.exit(f"perfbench: no softhand package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import softhand
    if Path(softhand.__file__).resolve().parent != SRC / "softhand":
        sys.exit(f"perfbench: imported softhand from {softhand.__file__}, not from {SRC}")
    return softhand


@dataclass
class PassRecord:
    item_s: list[float]
    wall_s: float
    inspections: list
    item_calls: list[dict[str, int]] = field(default_factory=list)

    @property
    def digests(self) -> list[str]:
        return [i.digest for i in self.inspections]


def run_pass(workload, recorder=None) -> PassRecord:
    """One pass over every item; only ``work`` and ``finish`` are timed."""
    item_s, inspections, item_calls = [], [], []
    for index in range(len(workload.items)):
        if recorder is not None:
            recorder.item = index
            before = list(recorder.calls)
        t0 = perf_counter()
        output = workload.work(index)
        item_s.append(perf_counter() - t0)
        if recorder is not None:
            item_calls.append({n: a - b for n, a, b in
                               zip(recorder.names, recorder.calls, before)})
        inspections.append(workload.inspect(index, output))
    if recorder is not None:
        recorder.item = len(workload.items)
    t0 = perf_counter()
    output = workload.finish()
    analysis_s = perf_counter() - t0
    for name, found in workload.inspect_finish(output).items():
        target = inspections[workload.items.index(name)]
        target.failures.extend(found.failures)
        target.radius_errors.extend(found.radius_errors)
    return PassRecord(item_s, sum(item_s) + analysis_s, inspections, item_calls)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Setup time of SETUP_PROBES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_probe(workload: str, seed: int) -> None:
    # workloads imports softhand (and numpy), so every import that depends on
    # src/ is made inside functions, after load_program; here it is timed.
    t0 = perf_counter()
    load_program()
    import workloads
    workloads.WORKLOADS[workload](seed, str(TMP_ROOT))
    print(repr(perf_counter() - t0))


def load_layers() -> dict:
    with open(BENCH_DIR / "layers.json", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(part: float, base: float) -> float:
    """part / base; 0.0 when the base is 0 (the base is always reported beside it)."""
    return part / base if base else 0.0


@dataclass
class Measurement:
    """Everything one run of one workload measured, before it becomes metrics."""

    setup_samples: list[float]
    items_per_pass: int
    warm: PassRecord
    warm_calls: dict[str, int]
    sim_s: list[float]
    passes: list[PassRecord]
    peak_rss_mb: float
    failures: list[str]
    recorder: object = None
    traced: PassRecord | None = None
    traced_pass_calls: dict[str, int] = field(default_factory=dict)


def measure(name: str, seed: int, seconds: float, trace: bool, names: list[str]) -> Measurement:
    import tracer
    import workloads

    setup_samples = measure_setup(name, seed)
    out_dir = TMP_ROOT / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, str(out_dir))
        counter = tracer.SpanRecorder(names, spans=False)
        restore = counter.install()
        try:
            warm = run_pass(workload, counter)
        finally:
            restore()

        # Keep going while the next pass is expected to end nearer to --seconds
        # than the loop stands now.
        passes: list[PassRecord] = []
        start = perf_counter()
        elapsed = 0.0
        while not passes or elapsed + 0.5 * elapsed / len(passes) < seconds:
            passes.append(run_pass(workload))
            elapsed = perf_counter() - start
        m = Measurement(
            setup_samples=setup_samples, items_per_pass=len(workload.items), warm=warm,
            warm_calls=dict(zip(names, counter.calls)),
            sim_s=[workload.sim_seconds(i, calls) for i, calls in enumerate(warm.item_calls)],
            passes=passes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            failures=[f"timed pass {k} produced other bytes than the warm-up pass"
                      for k, record in enumerate(passes) if record.digests != warm.digests])

        if trace:
            m.recorder = tracer.SpanRecorder(names, spans=True)
            restore = m.recorder.install()
            try:
                traced_workload = workloads.WORKLOADS[name](seed, str(out_dir))
                setup_calls = list(m.recorder.calls)
                m.traced = run_pass(traced_workload, m.recorder)
            finally:
                restore()
            m.traced_pass_calls = {n: a - b for n, a, b in
                                   zip(names, m.recorder.calls, setup_calls)}
            if m.traced.digests != warm.digests:
                m.failures.append("the traced pass produced other bytes than the untraced passes")
            if m.traced_pass_calls != m.warm_calls:
                diff = {n: (c, m.warm_calls[n]) for n, c in m.traced_pass_calls.items()
                        if c != m.warm_calls[n]}
                m.failures.append(f"traced counts differ from the warm-up counts: {diff}")
        return m
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def end_to_end_metrics(m: Measurement) -> dict[str, float]:
    rates = [sim / s for record in m.passes for sim, s in zip(m.sim_s, record.item_s)]
    return {
        "setup_s": statistics.median(m.setup_samples),
        "sim_rtf_p10": percentile(rates, 10),
        "peak_rss_mb": m.peak_rss_mb,
    }


def ungated_figures(m: Measurement) -> dict[str, float]:
    """The issue's medians and means: printed, but they move with the host's speed share."""
    items = [s for record in m.passes for s in record.item_s]
    walls = [record.wall_s for record in m.passes]
    return {
        "wall_s": statistics.median(walls),
        "wall_s_mean": statistics.mean(walls),
        "sim_rtf": sum(m.sim_s) * len(m.passes) / sum(items),
        "item_s_p50": statistics.median(items),
        "item_s_p90": percentile(items, 90),
    }


def per_layer_metrics(m: Measurement, layers: dict,
                      radius_errors: list[float], cal_verdicts: list[bool]) -> dict:
    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = {"value": value, "unit": unit}

    recorder, traced = m.recorder, m.traced
    self_s = recorder.self_seconds()
    for name, calls, seconds in zip(recorder.names, recorder.calls, self_s):
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", seconds, "s")
    for layer in layers["layers"]:
        put(f"{layer}.self_s", sum(s for n, s in zip(recorder.names, self_s)
                                   if n.startswith(layer + ".")), "s")
    delivered = sum(i.frames_delivered for i in traced.inspections)
    put("protocol.frames_delivered", delivered, "count")
    put("protocol.frames_delivered_ratio",
        ratio(delivered, m.traced_pass_calls["protocol.encode_telemetry"]), "ratio")
    put("runner.telemetry_rows", sum(i.telemetry_rows for i in traced.inspections), "count")
    put("runner.csv_bytes", sum(i.csv_bytes for i in traced.inspections), "bytes")
    put("grasp.radius_estimates", len(radius_errors), "count")
    put("grasp.radius_rel_err_max", max(radius_errors, default=0.0), "ratio")
    put("calibration.cal_ok_ratio", ratio(sum(cal_verdicts), len(cal_verdicts)), "ratio")
    put("trace.overhead_ratio",
        traced.wall_s / statistics.median(record.wall_s for record in m.passes), "ratio")
    put("trace.spans", recorder.span_count(), "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    softhand = load_program()
    import numpy

    layers = load_layers()
    m = measure(name, seed, seconds, trace, [t["name"] for t in layers["targets"]])

    every_pass = [m.warm, *m.passes] + ([m.traced] if m.traced else [])
    inspections = [i for record in every_pass for i in record.inspections]
    failed_items = [i for i in inspections if i.failures]
    for inspection in failed_items[:20]:
        print("FAILED " + "; ".join(inspection.failures), file=sys.stderr)
    for failure in m.failures:
        print("FAILED " + failure, file=sys.stderr)
    attempted = len(inspections)
    failed = len(failed_items) + len(m.failures)

    warm = m.warm.inspections
    radius_errors = [e for i in warm for e in i.radius_errors]
    cal_verdicts = [i.cal_ok for i in warm if i.cal_ok is not None]
    end_to_end = end_to_end_metrics(m)
    ungated = ungated_figures(m)
    item_samples = sum(len(record.item_s) for record in m.passes)
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "softhand": softhand.__version__,
        **CONTEXT_NOTES,
        "loop": "closed loop, 1 process, 1 thread",
        "passes": len(m.passes), "items_per_pass": m.items_per_pass,
        "item_samples": item_samples, "setup_samples": m.setup_samples,
        "sim_s_per_pass": sum(m.sim_s),
        "counts_per_pass": {
            "rng_draws": m.warm_calls["rand.DeterministicRng.normal"],
            "physics_substeps": m.warm_calls["physics.step"],
            "fsm_ticks": m.warm_calls["controller.fsm_tick"],
            "frames_encoded": m.warm_calls["protocol.encode"],
            "frames_delivered": sum(i.frames_delivered for i in warm),
            "telemetry_rows": sum(i.telemetry_rows for i in warm),
            "csv_bytes": sum(i.csv_bytes for i in warm),
        },
        "failed_ratio": ratio(failed, attempted),
        "radius_rel_err_max": max(radius_errors, default=0.0),
        "radius_estimates": len(radius_errors),
        "cal_ok_ratio": ratio(sum(cal_verdicts), len(cal_verdicts)),
        "cal_sessions": len(cal_verdicts),
        "ungated": ungated,
    }

    for metric, value in end_to_end.items():
        print(f"{name:18s} {metric:20s} {value:14.6f} {END_TO_END_UNITS[metric]}")
    print(f"{name:18s} {'item samples':20s} {item_samples:14d} items in {len(m.passes)} passes")
    for figure, value in ungated.items():
        unit = "sim_s/s" if figure == "sim_rtf" else "s"
        print(f"{name:18s} {figure:20s} {value:14.6f} {unit} (not gated)")
    print(f"{name:18s} {'failed_ratio':20s} {context['failed_ratio']:14.6f} "
          f"({failed} of {attempted} items)")
    if radius_errors:
        print(f"{name:18s} {'radius_rel_err_max':20s} {context['radius_rel_err_max']:14.6f} "
              f"ratio ({len(radius_errors)} estimates)")
    if cal_verdicts:
        print(f"{name:18s} {'cal_ok_ratio':20s} {context['cal_ok_ratio']:14.6f} "
              f"ratio ({len(cal_verdicts)} sessions)")

    if trace:
        metrics = per_layer_metrics(m, layers, radius_errors, cal_verdicts)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; non-zero exit if any check failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        if trace and lines:
            for metric, m in json.loads(lines[-1])["metrics"].items():
                value = m["value"]
                shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
                print(f"{name:18s} {metric:44s} {shown} {m['unit']}")
        print(f"{name:18s} {'correct':20s} {proc.returncode == 0}")
    return status


def main(argv=None) -> int:
    # A terminated run unwinds like an exit: temp files go, and a running
    # setup probe is killed and waited for by subprocess.run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them, each in a fresh process, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
