import numpy as np
import pytest

from softhand import controller, physics, protocol
from softhand.controller import (ControllerConfig, FsmState, Measurement, Mode,
                                 curvature_target, fsm_tick, hand_controller_tick,
                                 pressure_target, set_target)
from softhand.errors import ConfigError, DomainError
from softhand.units import psi

CONFIG = ControllerConfig()
CLOSED = physics.ValvePair(False, False)


def closed_loop(target, seconds=12.0, obj=None, params=None, config=CONFIG):
    """Drive the physics plant with the FSM on truth measurements."""
    params = params or physics.ActuatorParams()
    state = physics.ActuatorState()
    fsm = set_target(FsmState(), target, 0.0, config)
    tick = config.tick_period_s
    n_sub = round(tick / physics.DEFAULT_DT)
    history = []
    for k in range(round(seconds / tick)):
        t = k * tick
        fsm, valve = fsm_tick(fsm, Measurement(state.pressure, state.curvature), t, config)
        for _ in range(n_sub):
            state = physics.step(state, params, valve, obj)
        history.append((t, state, fsm, valve))
    return history


class TestFsmTick:
    def test_within_deadband_goes_holding_closed(self):
        fsm = set_target(FsmState(), pressure_target(50e3), 0.0)
        fsm, valve = fsm_tick(fsm, Measurement(50e3 + 100.0, 0.0), 0.005)
        assert fsm.mode is Mode.HOLDING
        assert valve == CLOSED

    def test_below_band_inflates_above_band_vents(self):
        fsm0 = set_target(FsmState(), pressure_target(50e3), 0.0)
        fsm, valve = fsm_tick(fsm0, Measurement(10e3, 0.0), 0.005)
        assert fsm.mode is Mode.INFLATING and valve.inlet and not valve.vent
        fsm, valve = fsm_tick(fsm0, Measurement(70e3, 0.0), 0.005)
        assert fsm.mode is Mode.VENTING and valve.vent and not valve.inlet

    def test_holding_reengages_only_beyond_double_band(self):
        target = pressure_target(50e3)
        fsm = FsmState(Mode.HOLDING, target, 0.0)
        inside = 50e3 + 1.9 * target.deadband
        outside = 50e3 + 2.1 * target.deadband
        held, valve = fsm_tick(fsm, Measurement(inside, 0.0), 1.0)
        assert held.mode is Mode.HOLDING and valve == CLOSED
        reengaged, valve = fsm_tick(fsm, Measurement(outside, 0.0), 1.0)
        assert reengaged.mode is Mode.VENTING and valve.vent

    def test_servo_timeout_faults_and_vents(self):
        fsm = set_target(FsmState(), pressure_target(50e3), 0.0)
        fsm, _ = fsm_tick(fsm, Measurement(0.0, 0.0), 0.005)
        assert fsm.mode is Mode.INFLATING
        fsm, valve = fsm_tick(fsm, Measurement(0.0, 0.0), CONFIG.timeout_s + 0.01)
        assert fsm.mode is Mode.FAULT
        assert valve.vent and not valve.inlet

    def test_overpressure_faults_within_one_tick_from_any_mode(self):
        for mode in Mode:
            fsm = FsmState(mode, pressure_target(50e3), 0.0)
            out, valve = fsm_tick(fsm, Measurement(CONFIG.p_max + 1.0, 0.0), 0.5)
            assert out.mode is Mode.FAULT
            assert valve.vent and not valve.inlet

    def test_fault_is_absorbing_until_reset(self):
        fsm = FsmState(Mode.FAULT, None, 0.0)
        out, valve = fsm_tick(fsm, Measurement(0.0, 0.0), 5.0)
        assert out.mode is Mode.FAULT and valve.vent
        assert set_target(out, pressure_target(10e3), 6.0).mode is Mode.FAULT
        reset = controller.reset_fault(out, 7.0)
        assert reset.mode is Mode.IDLE and reset.target is None

    def test_unconditional_vent_has_no_timeout(self):
        fsm = controller.force_vent(FsmState(), 0.0)
        out, valve = fsm_tick(fsm, Measurement(1e3, 0.0), 100.0)
        assert out.mode is Mode.VENTING and valve.vent

    def test_non_finite_measurement_rejected(self):
        fsm = set_target(FsmState(), pressure_target(50e3), 0.0)
        with pytest.raises(DomainError):
            fsm_tick(fsm, Measurement(float("nan"), 0.0), 0.005)

    def test_target_range_validated(self):
        with pytest.raises(DomainError):
            set_target(FsmState(), pressure_target(CONFIG.p_max * 2), 0.0)
        with pytest.raises(DomainError):
            set_target(FsmState(), curvature_target(CONFIG.kappa_max * 2), 0.0)
        with pytest.raises(DomainError):
            pressure_target(50e3, deadband=0.0)

    def test_pure_function_of_inputs(self):
        fsm = set_target(FsmState(), pressure_target(50e3), 0.0)
        m = Measurement(20e3, 3.0)
        assert fsm_tick(fsm, m, 1.0) == fsm_tick(fsm, m, 1.0)


class TestClosedLoop:
    def test_pressure_servo_reaches_holding_within_timeout(self):
        target = pressure_target(psi(8))
        history = closed_loop(target, seconds=10.0)
        holding = [(t, s) for t, s, f, v in history if f.mode is Mode.HOLDING]
        assert holding, "servo never reached Holding"
        t_first, state = holding[0]
        assert t_first <= CONFIG.timeout_s
        assert abs(state.pressure - target.value) <= 2 * target.deadband
        assert all(not (v.inlet and v.vent) for _, _, _, v in history)

    def test_holding_with_sealed_plant_keeps_valves_closed(self):
        history = closed_loop(pressure_target(psi(8)), seconds=12.0)
        tail = [v for t, s, f, v in history if t > 6.0]
        assert all(v == CLOSED for v in tail)

    def test_pressure_servo_converges_over_target_grid(self):
        for target_psi in (1.0, 3.0, 5.0, 7.0, 9.0):
            history = closed_loop(pressure_target(psi(target_psi)), seconds=10.0)
            assert any(f.mode is Mode.HOLDING for _, _, f, _ in history), target_psi

    def test_curvature_servo_converges(self):
        target = curvature_target(40.0)
        history = closed_loop(target, seconds=10.0)
        assert any(f.mode is Mode.HOLDING for _, _, f, _ in history)
        final = history[-1][1]
        assert abs(final.curvature - target.value) <= CONFIG.reengage_factor * target.deadband

    def test_blocked_curvature_target_faults_after_timeout(self):
        # The 7.4 cm cylinder caps curvature at 13.5; a 20 target is
        # unreachable, so the FSM must give up and vent.
        history = closed_loop(curvature_target(20.0), seconds=12.0,
                              obj=physics.RigidObject(radius=0.074))
        fault_times = [t for t, s, f, v in history if f.mode is Mode.FAULT]
        assert fault_times
        assert fault_times[0] == pytest.approx(CONFIG.timeout_s, abs=0.1)
        assert all(v.vent for t, s, f, v in history if t > fault_times[0])

    def test_no_chatter_in_holding_under_noise(self):
        target = pressure_target(psi(8))
        fsm = FsmState(Mode.HOLDING, target, 0.0)
        rng = np.random.default_rng(17)
        switches = 0
        prev = CLOSED
        for k in range(2000):  # 10 s at 200 Hz
            noisy = target.value + rng.normal(0.0, target.deadband / 4.0)
            fsm, valve = fsm_tick(fsm, Measurement(noisy, 0.0), k * 0.005)
            if valve != prev:
                switches += 1
            prev = valve
        assert switches == 0
        assert fsm.mode is Mode.HOLDING


class TestHandController:
    def test_all_idle_all_closed(self):
        fsms = tuple(FsmState() for _ in range(3))
        ms = tuple(Measurement(0.0, 0.0) for _ in range(3))
        out, valves = hand_controller_tick(fsms, ms, 0.0)
        assert all(v == CLOSED for v in valves)
        assert all(f.mode is Mode.IDLE for f in out)

    def test_more_than_six_rejected(self):
        fsms = tuple(FsmState() for _ in range(7))
        ms = tuple(Measurement(0.0, 0.0) for _ in range(7))
        with pytest.raises(ConfigError):
            hand_controller_tick(fsms, ms, 0.0)

    def test_three_fingers_converge_with_shared_pump(self):
        params = physics.ActuatorParams()
        states = tuple(physics.ActuatorState() for _ in range(3))
        fsms = tuple(set_target(FsmState(), pressure_target(psi(8)), 0.0) for _ in range(3))
        tick = CONFIG.tick_period_s
        n_sub = round(tick / physics.DEFAULT_DT)
        circuit = physics.PneumaticCircuit(share_pump_flow=True)
        solo_pressure_at_1s = None
        for k in range(round(10.0 / tick)):
            t = k * tick
            ms = tuple(Measurement(s.pressure, s.curvature) for s in states)
            fsms, valves = hand_controller_tick(fsms, ms, t)
            for _ in range(n_sub):
                states = physics.hand_step(states, (params,) * 3, valves, (None,) * 3,
                                           circuit=circuit)
            if abs(t - 1.0) < 1e-9:
                solo = closed_loop(pressure_target(psi(8)), seconds=1.0)
                solo_pressure_at_1s = solo[-1][1].pressure
                assert states[0].pressure < solo_pressure_at_1s  # shared source is slower
        assert all(f.mode is Mode.HOLDING for f in fsms)

    def test_fault_isolation_between_fingers(self):
        def run(fault_on_1):
            fsms = tuple(set_target(FsmState(), pressure_target(40e3), 0.0) for _ in range(3))
            log = []
            for k in range(200):
                t = k * 0.005
                ms = []
                for i in range(3):
                    p = 20e3
                    if fault_on_1 and i == 1 and k >= 50:
                        p = CONFIG.p_max + 10.0
                    ms.append(Measurement(p, 0.0))
                fsms, valves = hand_controller_tick(fsms, tuple(ms), t)
                log.append((tuple(f.mode for f in fsms), valves))
            return log

        with_fault = run(True)
        without = run(False)
        assert any(modes[1] is Mode.FAULT for modes, _ in with_fault)
        for (modes_a, valves_a), (modes_b, valves_b) in zip(with_fault, without):
            assert modes_a[0] is modes_b[0] and modes_a[2] is modes_b[2]
            assert valves_a[0] == valves_b[0] and valves_a[2] == valves_b[2]


class TestRandomizedSafety:
    def test_no_co_open_and_no_missed_overpressure(self):
        rng = np.random.default_rng(23)
        fsm = FsmState()
        n = 50_000
        pressures = rng.uniform(-10e3, CONFIG.p_max * 1.3, n)
        curvatures = rng.uniform(0.0, 150.0, n)
        actions = rng.integers(0, 40, n)
        for k in range(n):
            t = k * 0.005
            if actions[k] == 0:
                try:
                    fsm = set_target(fsm, pressure_target(float(abs(pressures[k]))), t)
                except DomainError:
                    pass
            elif actions[k] == 1:
                fsm = controller.reset_fault(fsm, t)
            elif actions[k] == 2:
                fsm = controller.force_vent(fsm, t)
            m = Measurement(float(max(pressures[k], 0.0)), float(curvatures[k]))
            fsm, valve = fsm_tick(fsm, m, t)
            assert not (valve.inlet and valve.vent)
            if m.pressure > CONFIG.p_max:
                assert fsm.mode is Mode.FAULT and valve.vent


class TestCommandApplication:
    def test_commands_are_idempotent(self):
        t = 1.0
        for command in (protocol.SetPressureTarget(50e3), protocol.SetCurvatureTarget(10.0),
                        protocol.Vent(), protocol.Stop(), protocol.ResetFault()):
            once = controller.apply_command(FsmState(), command, t)
            twice = controller.apply_command(once, command, t)
            assert once.target == twice.target
            assert once.mode is twice.mode

    def test_read_commands_leave_fsm_alone(self):
        fsm = set_target(FsmState(), pressure_target(30e3), 0.0)
        for command in (protocol.GetState(), protocol.StreamStart(5), protocol.StreamStop()):
            assert controller.apply_command(fsm, command, 1.0) == fsm

    def test_stop_clears_target_and_seals(self):
        fsm = set_target(FsmState(), pressure_target(30e3), 0.0)
        stopped = controller.apply_command(fsm, protocol.Stop(), 1.0)
        assert stopped.target is None
        _, valve = fsm_tick(stopped, Measurement(20e3, 0.0), 1.005)
        assert valve == CLOSED
