"""The three benchmark workloads: inputs from a seed, timed work and correctness checks.

Each workload is a fixed list of items (scenario runs or calibration
sessions) built once from the workload seed. ``work`` is the timed part of
one item; ``inspect`` checks its output outside the timed region. The
program only ever receives the generated scenarios or parameters; the seed
itself never reaches it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random

from softhand import calibration, controller, grasp, physics, protocol, runner, scenario, sensors
from softhand.errors import FitError

# sha256 of each fixture's telemetry CSV at its pinned seed. A copy of the
# digests pinned in the test suite, kept here so that re-pinning the tests
# cannot make a behaviour change pass the benchmark silently.
FIXTURE_DIGESTS = {
    "cylinder_r2cm": "f563c821619649405d10c44d680cc95f0765e362cdb2169d6a760df4dab65d42",
    "cylinder_r4cm": "88bd3244cdb3cd963b252dd39c31f63fe9b04db40f569092e139f81d4843eb8a",
    "cylinder_r74mm": "48d1345267db68a313c98d1dab5622af5d99d98538761c3051d5e6df293d309a",
    "empty_grasp": "ba2fa35f6baa49ae163eace6e73737b800617be3a71accea2a64f2be963fd244",
    "heavy_hold_244g": "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97",
    "heavy_hold_628g": "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97",
    "heavy_hold_770g": "715b9a2613b020fb8e7b73746f4adf5c77499c3896a402398a0f82ae50e98e97",
    "wiggle": "3707edb039eff8f7a7905fd7f7737f226b8ec5a4d92f1079e47b48a6ac5d2612",
}
CYLINDER_RADII = {"cylinder_r2cm": 0.02, "cylinder_r4cm": 0.04, "cylinder_r74mm": 0.074}
N_FINGERS = 3
RADIUS_TOLERANCE = 0.10
# The wiggle fixture holds from inflation (done by 6 s) until its vent at
# 26.5 s and jolts fingers 0 and 1 at 23 s; the strain noise floor comes from
# the quiet stretch before the jolt.
WIGGLE_T_S = 23.0
WIGGLE_HOLD_S = (6.0, 26.5)
WIGGLE_QUIET_S = (10.0, 20.0)
# The blocked-finger signature of acceptance criterion 03: shown by the
# 7.4 cm cylinder, never by the empty grasp. The smaller cylinders block the
# finger too late in the inflation to show it.
DIVERGENCE_EXPECTED = {"cylinder_r74mm": True, "empty_grasp": False}

SWEEP_RUNS = 6
SWEEP_RADIUS_RANGE_M = (0.021, 0.12)
STREAM_PERIOD_MS = 5

CAL_SESSIONS = 40
CAL_LEVELS_PA = tuple(30e3 + 5e3 * k for k in range(1, 6))
CAL_SETTLE_S = 2.5
CAL_DT_S = 2.5e-3
CAL_TOLERANCE = 0.05


@dataclasses.dataclass
class Inspection:
    """Untimed verdict on one item's output."""

    digest: str
    failures: list[str]
    telemetry_rows: int = 0
    frames_delivered: int = 0
    csv_bytes: int = 0
    radius_errors: list[float] = dataclasses.field(default_factory=list)
    cal_ok: bool | None = None


def _rows_digest(rows: list[tuple]) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _window(orbit: grasp.PhaseOrbit, t_lo: float, t_hi: float) -> grasp.PhaseOrbit:
    mask = (orbit.t >= t_lo) & (orbit.t <= t_hi)
    return grasp.PhaseOrbit.from_arrays(orbit.t[mask], orbit.pressure[mask], orbit.strain[mask])


class Workload:
    """A fixed list of items; ``finish`` is timed analysis that runs after every item of a pass."""

    items: list[str]

    def finish(self):
        return None

    def inspect_finish(self, output) -> dict[str, Inspection]:
        """Failures and accuracy figures of ``finish``, keyed by the item they belong to."""
        return {}


class Fixtures(Workload):
    """All shipped scenarios at their pinned seeds, written to CSV and read back.

    The seed only shuffles the order of the runs; every run's bytes are
    pinned by FIXTURE_DIGESTS.
    """

    name = "fixtures"

    def __init__(self, seed: int, out_dir: str):
        names = scenario.shipped_scenario_names()
        random.Random(seed).shuffle(names)
        self.scenarios = [scenario.load_shipped_scenario(n) for n in names]
        self.items = names
        self.out_dir = out_dir
        sc = self.scenarios[0]
        self.cal = calibration.ideal_record(sc.actuators[0], sc.chains[0])
        self._columns: dict[str, dict] = {}

    def sim_seconds(self, index: int, item_calls: dict[str, int]) -> float:
        return self.scenarios[index].duration_s

    def work(self, index: int):
        res = runner.run_scenario(self.scenarios[index], out_dir=self.out_dir)
        self._columns[self.items[index]] = runner.read_telemetry(res.telemetry_path)
        return res

    def inspect(self, index: int, res) -> Inspection:
        name = self.items[index]
        digest = _file_digest(res.telemetry_path)
        failures = []
        if digest != FIXTURE_DIGESTS.get(name):
            failures.append(f"{name}: telemetry digest {digest[:16]} differs from the pinned one")
        if res.faulted:
            failures.append(f"{name}: run ended in Fault")
        for event in res.events:
            if event["kind"] == "force_check" and not event["ok"]:
                failures.append(f"{name}: grip force check failed")
        return Inspection(digest=digest, failures=failures, telemetry_rows=len(res.rows),
                          frames_delivered=res.wire_telemetry_count,
                          csv_bytes=os.path.getsize(res.telemetry_path))

    def finish(self):
        """The analysis the CLI's classify path does: cylinders against empty_grasp, wiggle events."""
        cols = self._columns
        refs = [grasp.EmptyGraspReference.from_orbit(
            runner.orbit_from_telemetry(cols["empty_grasp"], f)) for f in range(N_FINGERS)]
        verdicts, divergence = {}, {}
        for name in (*CYLINDER_RADII, "empty_grasp"):
            orbits = [runner.orbit_from_telemetry(cols[name], f) for f in range(N_FINGERS)]
            if name in DIVERGENCE_EXPECTED:
                divergence[name] = [grasp.strain_pressure_divergence(o) for o in orbits]
            if name in CYLINDER_RADII:
                verdicts[name] = [grasp.classify_grasp(o, refs[f], self.cal)
                                  for f, o in enumerate(orbits)]
        wiggle = []
        for f in range(N_FINGERS):
            orbit = runner.orbit_from_telemetry(cols["wiggle"], f)
            hold = _window(orbit, *WIGGLE_HOLD_S)
            events = grasp.detect_conformation_changes(hold)
            quiet = hold.strain[(hold.t > WIGGLE_QUIET_S[0]) & (hold.t < WIGGLE_QUIET_S[1])]
            settle = grasp.detect_settled(_window(orbit, WIGGLE_T_S, WIGGLE_HOLD_S[1]),
                                          window_s=1.0, sigma_max=4.0 * float(quiet.std()))
            wiggle.append((events, settle))
        return verdicts, divergence, wiggle

    def inspect_finish(self, output) -> dict[str, Inspection]:
        verdicts, divergence, wiggle = output
        found = {name: Inspection(digest="", failures=[])
                 for name in (*CYLINDER_RADII, "empty_grasp", "wiggle")}
        for name, radius in CYLINDER_RADII.items():
            for f, verdict in enumerate(verdicts[name]):
                if verdict.outcome is not grasp.GraspOutcome.OBJECT_GRASPED:
                    found[name].failures.append(f"{name} finger {f}: {verdict.outcome.value}")
                    continue
                err = abs(verdict.estimated_radius - radius) / radius
                found[name].radius_errors.append(err)
                if err >= RADIUS_TOLERANCE:
                    found[name].failures.append(f"{name} finger {f}: radius error {err:.3f}")
        for name, expected in DIVERGENCE_EXPECTED.items():
            if divergence[name] != [expected] * N_FINGERS:
                found[name].failures.append(f"{name}: strain/pressure divergence {divergence[name]}")
        for f in (0, 1):
            events, settle = wiggle[f]
            near = [e.t for e in events if abs(e.t - WIGGLE_T_S) <= 1.0]
            if not near:
                found["wiggle"].failures.append(f"wiggle finger {f}: no event within 1 s of 23 s")
            elif settle is None or settle < min(near):
                found["wiggle"].failures.append(f"wiggle finger {f}: no settle after the event")
        return found


class GraspSweep(Workload):
    """In-memory streamed runs of cylinder_r74mm at drawn radii, classified against a drawn empty run.

    Item 0 is a drawn-seed empty_grasp run that builds the per-finger
    references; items 1..SWEEP_RUNS are cylinder runs with a drawn radius
    and run seed; the last item is a re-seeded empty_grasp run that must
    classify Empty. Every scenario starts with a broadcast stream_start.
    """

    name = "grasp_sweep"

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        stream = scenario.ScheduledCommand(t_s=0.0, actuator_id=protocol.BROADCAST_ID,
                                           command=protocol.StreamStart(STREAM_PERIOD_MS))
        base = scenario.load_shipped_scenario("cylinder_r74mm")
        empty = scenario.load_shipped_scenario("empty_grasp")
        empty = dataclasses.replace(empty, commands=(stream,) + empty.commands)
        self.cal = calibration.ideal_record(base.actuators[0], base.chains[0])
        self.runs = [("reference", empty, rng.randrange(2 ** 31), None)]
        for k in range(SWEEP_RUNS):
            radius = rng.uniform(*SWEEP_RADIUS_RANGE_M)
            obj = scenario.ScenarioObject(radius_m=radius, mass_kg=0.0, position_m=0.0,
                                          fingers=tuple(range(N_FINGERS)))
            sc = dataclasses.replace(base, objects=(obj,), commands=(stream,) + base.commands)
            self.runs.append((f"cylinder_{k}", sc, rng.randrange(2 ** 31), radius))
        self.runs.append(("empty_check", empty, rng.randrange(2 ** 31), None))
        self.items = [run[0] for run in self.runs]
        self._refs = None

    def sim_seconds(self, index: int, item_calls: dict[str, int]) -> float:
        return self.runs[index][1].duration_s

    def work(self, index: int):
        label, sc, run_seed, _ = self.runs[index]
        res = runner.run_scenario(sc, seed=run_seed)
        columns = runner.rows_to_columns(res.rows)
        orbits = [runner.orbit_from_telemetry(columns, f) for f in range(N_FINGERS)]
        if label == "reference":
            self._refs = [grasp.EmptyGraspReference.from_orbit(o) for o in orbits]
            return res, []
        return res, [grasp.classify_grasp(o, self._refs[f], self.cal) for f, o in enumerate(orbits)]

    def inspect(self, index: int, output) -> Inspection:
        res, verdicts = output
        label, sc, _, radius = self.runs[index]
        failures = []
        n_ticks = round(sc.duration_s / sc.tick_s)
        if len(res.rows) != N_FINGERS * n_ticks:
            failures.append(f"{label}: {len(res.rows)} telemetry rows for {n_ticks} ticks")
        if res.wire_telemetry_count != N_FINGERS * n_ticks:
            failures.append(f"{label}: {res.wire_telemetry_count} frames on the wire, "
                            f"expected {N_FINGERS} per tick")
        if res.faulted:
            failures.append(f"{label}: run ended in Fault")
        want = grasp.GraspOutcome.EMPTY if radius is None else grasp.GraspOutcome.OBJECT_GRASPED
        errors = []
        for f, verdict in enumerate(verdicts):
            if verdict.outcome is not want:
                failures.append(f"{label} finger {f}: {verdict.outcome.value}, expected {want.value}")
            elif radius is not None:
                errors.append(abs(verdict.estimated_radius - radius) / radius)
        return Inspection(digest=_rows_digest(res.rows), failures=failures,
                          telemetry_rows=len(res.rows), frames_delivered=res.wire_telemetry_count,
                          radius_errors=errors)


class CalibrationBatch(Workload):
    """Stepped-hold calibration sessions of one default finger, shaped like acceptance criterion 02."""

    name = "calibration_batch"

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        self.params = physics.ActuatorParams()
        self.chain = sensors.SensorChain()
        self.seeds = rng.sample(range(2 ** 31), CAL_SESSIONS)
        self.items = [f"session_{s}" for s in self.seeds]

    def sim_seconds(self, index: int, item_calls: dict[str, int]) -> float:
        # A session's output does not carry its simulated time; the FSM runs
        # once per control tick, so the counted FSM ticks give it.
        return item_calls["controller.fsm_tick"] * controller.DEFAULT_TICK_PERIOD

    def work(self, index: int):
        try:
            data = calibration.simulate_calibration_run(
                self.params, self.chain, CAL_LEVELS_PA, seed=self.seeds[index],
                settle_s=CAL_SETTLE_S, dt=CAL_DT_S)
            return data, calibration.build_record(data, self.chain)
        except FitError as exc:
            return None, exc

    def inspect(self, index: int, output) -> Inspection:
        data, record = output
        if data is None:
            return Inspection(digest="", failures=[f"{self.items[index]}: {record}"])
        slope_err = abs(record.slope_hat_per_m_pa - self.params.slope_m) / self.params.slope_m
        threshold_err = (abs(record.p_threshold_hat_pa - self.params.p_threshold)
                         / self.params.p_threshold)
        digest = hashlib.sha256(data.pressures.tobytes() + data.curvatures.tobytes()
                                + repr((record.slope_hat_per_m_pa,
                                        record.p_threshold_hat_pa)).encode()).hexdigest()
        return Inspection(digest=digest, failures=[],
                          cal_ok=slope_err < CAL_TOLERANCE and threshold_err < CAL_TOLERANCE)


WORKLOADS = {w.name: w for w in (Fixtures, GraspSweep, CalibrationBatch)}
