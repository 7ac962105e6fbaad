"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not tuned elsewhere.
"""

import hashlib

import numpy as np

from softhand import calibration, controller, grasp, physics, protocol, runner, scenario, sensors
from softhand.units import psi

HOLD_WINDOW = (6.5, 7.9)  # settled hold segment of the shipped grasp fixtures


def report(number, text):
    print(f"PASS  criterion {number:>2}: {text}")


def hold_mask(cols, finger):
    return ((cols["finger"] == finger)
            & (cols["t_s"] > HOLD_WINDOW[0]) & (cols["t_s"] < HOLD_WINDOW[1]))


def test_criterion_01_threshold_anchor(default_params):
    assert physics.steady_state_curvature(30e3, default_params) == 1.0
    for p in (0.0, 1.0, 15e3, 29_999.0, 29_999.999):
        assert physics.steady_state_curvature(p, default_params) == 0.0
    report(1, "steady_state_curvature(30 kPa) = 1.0 1/m exactly; kappa = 0 below threshold")


def test_criterion_02_calibration_identifiability(default_params, default_chain):
    levels = tuple(30e3 + 5e3 * k for k in range(1, 6))
    passes = 0
    for seed in range(100):
        data = calibration.simulate_calibration_run(
            default_params, default_chain, levels, seed=seed, settle_s=2.5, dt=2.5e-3)
        record = calibration.build_record(data, default_chain)
        slope_ok = abs(record.slope_hat_per_m_pa - default_params.slope_m) \
            / default_params.slope_m < 0.05
        threshold_ok = abs(record.p_threshold_hat_pa - default_params.p_threshold) \
            / default_params.p_threshold < 0.05
        passes += slope_ok and threshold_ok
    assert passes >= 95
    report(2, f"calibration recovers slope and threshold within 5% ({passes}/100 seeds)")


def test_criterion_03_grasp_signature(telemetry):
    for finger in range(3):
        blocked = runner.orbit_from_telemetry(telemetry["cylinder_r74mm"], finger)
        empty = runner.orbit_from_telemetry(telemetry["empty_grasp"], finger)
        assert grasp.strain_pressure_divergence(blocked)
        assert not grasp.strain_pressure_divergence(empty)
    report(3, "object grasp shows flat strain while pressure rises >= 0.5 PSI; empty does not")


def test_criterion_04_monotone_attenuation(telemetry):
    for finger in range(3):
        strains = [float(telemetry[name]["strain"][hold_mask(telemetry[name], finger)].mean())
                   for name in ("cylinder_r2cm", "cylinder_r4cm", "cylinder_r74mm")]
        assert strains[0] > strains[1] > strains[2]
    report(4, "hold strain strictly decreases across cylinder radii 2 -> 4 -> 7.4 cm")


def test_criterion_05_radius_estimation(telemetry, ideal_cal):
    worst = 0.0
    for name, radius in (("cylinder_r2cm", 0.02), ("cylinder_r4cm", 0.04),
                         ("cylinder_r74mm", 0.074)):
        for finger in range(3):
            ref = grasp.EmptyGraspReference.from_orbit(
                runner.orbit_from_telemetry(telemetry["empty_grasp"], finger))
            verdict = grasp.classify_grasp(
                runner.orbit_from_telemetry(telemetry[name], finger), ref, ideal_cal)
            assert verdict.outcome is grasp.GraspOutcome.OBJECT_GRASPED, (name, finger)
            err = abs(verdict.estimated_radius - radius) / radius
            assert err < 0.10, (name, finger, err)
            worst = max(worst, err)
    report(5, f"all three cylinders classified ObjectGrasped, radius within 10% "
              f"(worst {worst:.2%})")


def test_criterion_06_orbit_orientation():
    rng = np.random.default_rng(606)
    for draw in range(20):
        params = physics.ActuatorParams(
            kappa_at_threshold=rng.uniform(0.5, 2.0),
            slope_m=rng.uniform(5e-4, 4e-3),
            tau_inflate=rng.uniform(0.1, 0.8),
            tau_deflate=rng.uniform(0.1, 1.0),
            k_fill=rng.uniform(0.3, 2.0),
            k_vent=rng.uniform(0.3, 2.0))
        state = physics.ActuatorState()
        inlet = physics.ValvePair(inlet=True)
        vent = physics.ValvePair(vent=True)
        t, p, s = [], [], []
        k = 0
        for valves, seconds in ((inlet, 8.0), (vent, 14.0)):
            for _ in range(round(seconds / 1e-3)):
                state = physics.step(state, params, valves)
                if k % 5 == 0:
                    t.append(k * 1e-3)
                    p.append(state.pressure)
                    s.append(sensors.SensorChain().d_neutral * state.curvature)
                k += 1
        orbit = grasp.PhaseOrbit.from_arrays(t, p, s)
        assert grasp.orbit_signed_area(orbit) > 0.0, draw
    report(6, "20 random parameter draws all trace counterclockwise phase orbits")


def test_criterion_07_controller_safety():
    config = controller.ControllerConfig()
    rng = np.random.default_rng(707)
    n = 1_000_000
    pressures = rng.uniform(0.0, config.p_max * 1.3, n)
    curvatures = rng.uniform(0.0, 180.0, n)
    actions = rng.integers(0, 50, n)
    fsm = controller.FsmState()
    co_open = missed_faults = 0
    for k in range(n):
        t = k * 0.005
        a = actions[k]
        if a == 0:
            fsm = controller.apply_command(
                fsm, protocol.SetPressureTarget(float(pressures[k] % config.p_max)), t, config)
        elif a == 1:
            fsm = controller.apply_command(fsm, protocol.ResetFault(), t, config)
        elif a == 2:
            fsm = controller.apply_command(fsm, protocol.Vent(), t, config)
        m = sensors.PhysicalReading(float(pressures[k]), float(curvatures[k]),
                                    0.01 * float(curvatures[k]))
        fsm, valve = controller.fsm_tick(fsm, m, t, config)
        if valve.inlet and valve.vent:
            co_open += 1
        if m.pressure > config.p_max and not (fsm.mode is controller.Mode.FAULT and valve.vent):
            missed_faults += 1
    assert co_open == 0
    assert missed_faults == 0

    # Closed-loop servo to 8 PSI on the default plant.
    params = physics.ActuatorParams()
    state = physics.ActuatorState()
    target = protocol.SetPressureTarget(psi(8))
    fsm = controller.apply_command(controller.FsmState(), target, 0.0, config)
    reached_at = None
    for k in range(round(10.0 / controller.DEFAULT_TICK_PERIOD)):
        t = k * controller.DEFAULT_TICK_PERIOD
        fsm, valve = controller.fsm_tick(
            fsm, sensors.PhysicalReading(state.pressure, state.curvature,
                                         sensors.SensorChain().d_neutral * state.curvature), t, config)
        if fsm.mode is controller.Mode.HOLDING and reached_at is None:
            reached_at = t
            assert abs(state.pressure - target.pascals) <= config.pressure_deadband
        for _ in range(5):
            state = physics.step(state, params, valve)
    assert reached_at is not None and reached_at <= 10.0
    report(7, f"10^6 random ticks: 0 co-open, 0 missed overpressure faults; "
              f"8 PSI servo holds at t = {reached_at:.2f} s")


def test_criterion_08_sensor_round_trip():
    chain = sensors.SensorChain(
        gauge=sensors.StrainGaugeParams(noise_sigma=0.0),
        pressure=sensors.PressureSensorParams(noise_sigma=0.0))
    lsb_pa = (chain.adc.v_ref / chain.adc.full_scale_counts / chain.pressure.amp_gain
              * chain.pressure.full_scale_pressure / chain.pressure.full_scale_voltage)
    rng = np.random.default_rng(808)
    for p in rng.uniform(200.0, psi(12), 1000):
        frame = sensors.measure(p, 0.0, chain)
        assert abs(sensors.counts_to_physical(frame, chain).pressure - p) <= lsb_pa

    def strain_at(counts):
        r = sensors.strain_counts_to_resistance(counts, chain.gauge, chain.adc)
        return sensors.resistance_to_strain(r, chain.gauge)

    for kappa in rng.uniform(0.1, 70.0, 1000):
        eps = sensors.curvature_to_strain(kappa, chain.d_neutral)
        frame = sensors.measure(0.0, kappa, chain)
        c = frame.strain_counts
        assert 0 < c < chain.adc.full_scale_counts
        lsb = max(strain_at(c + 1) - strain_at(c), strain_at(c) - strain_at(c - 1))
        assert abs(sensors.counts_to_physical(frame, chain).strain - eps) <= lsb
    report(8, "1000 random points per channel invert within 1 LSB (noise off)")


def test_criterion_09_protocol_robustness():
    # Fuzz: 10^7 random bytes, no crash, bounded buffer.
    rng = np.random.default_rng(909)
    decoder = protocol.FrameDecoder()
    for _ in range(100):
        decoder.feed(bytes(rng.integers(0, 256, 100_000).astype(np.uint8)))
        assert len(decoder._buf) <= 64

    # Round-trip property on 10^5 random frames.
    decoder = protocol.FrameDecoder()
    for k in range(100_000):
        payload = bytes(rng.integers(0, 256, int(rng.integers(0, 33))).astype(np.uint8))
        frame = protocol.Frame(command=int(rng.integers(0, 256)),
                               actuator_id=int(rng.choice([0, 1, 2, 3, 4, 5, 0xFF])),
                               payload=payload)
        assert decoder.feed(protocol.encode(frame)) == [frame], k
    assert decoder.crc_errors == 0

    # Idempotent retry converges under 10% frame loss in all 100 trials.
    config = controller.ControllerConfig()
    for trial in range(100):
        bus = protocol.SimulatedBus(loss_rate=0.10, seed=5000 + trial)
        device = runner.HandDevice(1, config)
        host = protocol.FrameDecoder()
        acked = False
        for attempt in range(100):
            t = float(attempt)
            bus.host_send(protocol.encode_command(protocol.SetPressureTarget(50e3), 0), t)
            bus.host_send(protocol.encode_command(protocol.GetState(), 0), t)
            device.feed(bus.device_recv(), t)
            _, out, _ = device.tick([(0, 0, sensors.PhysicalReading(0.0, 0.0, 0.0))], t)
            bus.device_send(out, t)
            for response in host.feed(bus.host_recv()):
                telemetry_frame = protocol.parse_telemetry(response)
                if telemetry_frame and telemetry_frame.fsm_mode == 1:  # Inflating
                    acked = True
            if acked:
                break
        assert acked, trial
        assert device.fsms[0].target == protocol.SetPressureTarget(50e3)
    report(9, "10^7-byte fuzz crash-free; 10^5 frame round-trips exact; "
              "100/100 lossy retries converge")


def test_criterion_10_conformation_and_settle():
    # Constructed wiggle stream: loud oscillation ending at its zero
    # crossing at t* = 23 s, a 10x-noise conformation step there, then
    # quiet. Exactly one strain event at 23 s, settle within one window.
    noise = 1e-3
    window = 1.0
    rng = np.random.default_rng(1)
    t = np.arange(0.0, 30.0, 0.005)
    s = np.full(t.size, 0.2) + rng.normal(0.0, noise, t.size)
    s[t < 23.0] += 0.01 * np.sin(2 * np.pi * 1.0 * t[t < 23.0])
    s[t >= 23.0] += 10 * noise
    p = np.full(t.size, 50e3) + rng.normal(0.0, noise * 50e3 / 0.2, t.size)
    stream = grasp.PhaseOrbit.from_arrays(t, p, s)

    events = grasp.detect_conformation_changes(stream)
    strain_events = [e for e in events if e.kind is grasp.EventKind.CURVATURE_JUMP]
    assert len(strain_events) == 1
    assert abs(strain_events[0].t - 23.0) <= window

    settle = grasp.detect_settled(stream, window_s=window, sigma_max=4 * noise)
    assert settle is not None
    assert 23.0 <= settle <= 23.0 + window + 0.05
    report(10, f"one conformation event at t = {strain_events[0].t:.3f} s; "
               f"settle at {settle:.3f} s (within one window of t* = 23 s)")


def test_criterion_11_determinism(tmp_path):
    sc = scenario.load_shipped_scenario("cylinder_r74mm")
    digests = []
    for label in ("a", "b"):
        res = runner.run_scenario(sc, out_dir=tmp_path / label)
        with open(res.telemetry_path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests[0] == digests[1]
    report(11, "same scenario + seed reruns byte-identical")
