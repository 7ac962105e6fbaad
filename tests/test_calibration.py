import dataclasses
import hashlib
import math
import pathlib
import tempfile
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softhand import calibration, controller, physics, protocol, sensors
from softhand.calibration import (CalibrationData, CalibrationRecord, ChannelCal,
                                  fit_pressure_curvature, fit_strain_resistance,
                                  simulate_calibration_run, threshold_from_fit)
from softhand.errors import DomainError, FitError, WarmupError
from softhand.rand import DeterministicRng
from softhand.sensors import PressureSensorParams, SensorChain

TRUE_SLOPE = 0.754e-3  # 1/(m*Pa), the hand-checked synthetic line
CAL_LEVELS = tuple(30e3 + 5e3 * k for k in range(1, 6))  # 35..55 kPa holds
FITTED = dict(p_threshold_hat_pa=30e3, slope_hat_per_m_pa=2.5e-3, kappa0_hat_per_m=1.0,
              r0_hat_ohm=2.0, r_lead_hat_ohm=0.2, d_neutral_m=0.01)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
RECORDS = st.builds(
    CalibrationRecord, p_threshold_hat_pa=FINITE, slope_hat_per_m_pa=FINITE,
    kappa0_hat_per_m=FINITE, r0_hat_ohm=POSITIVE,
    r_lead_hat_ohm=st.floats(min_value=0.0, allow_infinity=False), d_neutral_m=POSITIVE,
    pressure_channel=st.none() | st.builds(ChannelCal, FINITE, FINITE, FINITE),
    fit_residuals=st.dictionaries(st.text(), FINITE, max_size=4),
    warmup_cycles=st.integers(calibration.WARMUP_CYCLES_REQUIRED, 10 ** 6))


def synthetic_line(pressures, slope=TRUE_SLOPE, p_threshold=30e3, kappa0=1.0):
    p = np.asarray(pressures, dtype=float)
    return kappa0 + slope * (p - p_threshold)


class TestPressureCurvatureFit:
    def test_exact_line_recovered(self):
        p = np.linspace(30e3, 66e3, 10)
        fit = fit_pressure_curvature(p, synthetic_line(p), p_min_fit=30e3)
        assert fit.slope == pytest.approx(TRUE_SLOPE, rel=1e-9)
        assert fit.rms < 1e-10
        assert threshold_from_fit(fit) == pytest.approx(30e3, abs=1e-3)

    def test_noisy_monte_carlo_recovers_slope_within_5pct(self):
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = rng.uniform(30e3, 66e3, 50)
            kappa = synthetic_line(p) + rng.normal(0.0, 0.2, p.size)
            fit = fit_pressure_curvature(p, kappa, p_min_fit=30e3)
            if abs(fit.slope - TRUE_SLOPE) / TRUE_SLOPE < 0.05:
                passes += 1
        assert passes >= 95

    def test_subthreshold_points_are_filtered(self):
        p_hi = np.linspace(30e3, 66e3, 12)
        p_all = np.concatenate([np.linspace(1e3, 29e3, 8), p_hi])
        kappa_all = np.concatenate([np.zeros(8), synthetic_line(p_hi)])
        fit_all = fit_pressure_curvature(p_all, kappa_all, p_min_fit=30e3)
        fit_hi = fit_pressure_curvature(p_hi, synthetic_line(p_hi), p_min_fit=30e3)
        assert fit_all == fit_hi

    def test_degenerate_data_rejected(self):
        with pytest.raises(FitError):
            fit_pressure_curvature([40e3, 40e3, 40e3], [8.0, 8.1, 7.9], p_min_fit=30e3)
        with pytest.raises(FitError):
            fit_pressure_curvature([40e3, 50e3], [8.0, 16.0], p_min_fit=30e3)
        with pytest.raises(FitError):
            fit_pressure_curvature([10e3, 20e3, 40e3, 50e3], [0, 0, 8.0, 16.0], p_min_fit=45e3)

    @pytest.mark.parametrize("name", ["pressures", "curvatures"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, name, value):
        # Sample 2 lies below the cutoff: a broken sample is refused, not filtered out.
        samples = {"pressures": [40e3, 10e3, 50e3, 60e3], "curvatures": [8.0, 0.0, 16.0, 24.0]}
        samples[name][1] = value
        with pytest.raises(FitError, match=f"^{name}: sample 2 of 4 is not finite"):
            fit_pressure_curvature(samples["pressures"], samples["curvatures"], p_min_fit=30e3)

    def test_shuffle_invariance_within_1e9(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(30e3, 66e3, 40)
        kappa = synthetic_line(p) + rng.normal(0.0, 0.1, p.size)
        fit = fit_pressure_curvature(p, kappa, p_min_fit=30e3)
        order = rng.permutation(p.size)
        shuffled = fit_pressure_curvature(p[order], kappa[order], p_min_fit=30e3)
        assert shuffled.slope == pytest.approx(fit.slope, rel=1e-9)
        assert shuffled.intercept == pytest.approx(fit.intercept, rel=1e-9)


class TestStrainResistanceFit:
    def test_exact_recovery(self):
        eps = np.linspace(0.0, 0.3, 12)
        r = 2.0 * (1.0 + eps) ** 2 + 0.2
        fit = fit_strain_resistance(eps, r)
        assert fit.r0 == pytest.approx(2.0, abs=1e-9)
        assert fit.r_lead == pytest.approx(0.2, abs=1e-9)
        assert fit.rms < 1e-10

    def test_noisy_monte_carlo_r0_within_2pct(self):
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            eps = rng.uniform(0.0, 0.2, 30)
            r = 2.0 * (1.0 + eps) ** 2 + 0.2 + rng.normal(0.0, 0.01, 30)
            fit = fit_strain_resistance(eps, r)
            if abs(fit.r0 - 2.0) / 2.0 < 0.02:
                passes += 1
        assert passes >= 95

    @pytest.mark.parametrize("name", ["strains", "resistances"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, name, value):
        samples = {"strains": [0.0, 0.1, 0.2, 0.3], "resistances": [2.2, 2.62, 3.08, 3.58]}
        samples[name][3] = value
        with pytest.raises(FitError, match=f"^{name}: sample 4 of 4 is not finite"):
            fit_strain_resistance(samples["strains"], samples["resistances"])

    def test_unstrained_only_data_is_unidentifiable(self):
        with pytest.raises(FitError):
            fit_strain_resistance([0.0, 0.0, 0.0], [2.2, 2.21, 2.19])


class TestWarmupGate:
    def test_record_rejects_insufficient_warmup(self):
        with pytest.raises(WarmupError):
            CalibrationRecord(p_threshold_hat_pa=30e3, slope_hat_per_m_pa=2.5e-3,
                              kappa0_hat_per_m=1.0, r0_hat_ohm=2.0, r_lead_hat_ohm=0.2,
                              d_neutral_m=0.01, warmup_cycles=9)

    def test_build_record_rejects_cold_data(self, default_chain):
        data = CalibrationData(pressures=np.linspace(35e3, 55e3, 10),
                               curvatures=np.linspace(13.5, 63.5, 10), warmup_cycles=3)
        with pytest.raises(WarmupError):
            calibration.build_record(data, default_chain)


class TestRecordInvariants:
    @pytest.mark.parametrize("key,value", [
        ("r0_hat_ohm", 0.0), ("r0_hat_ohm", -1.0), ("r0_hat_ohm", float("nan")),
        ("r_lead_hat_ohm", -0.1), ("r_lead_hat_ohm", float("nan")),
        ("d_neutral_m", 0.0), ("d_neutral_m", -0.01), ("d_neutral_m", float("nan")),
    ], ids=["r0_zero", "r0_negative", "r0_nan", "r_lead_negative", "r_lead_nan",
            "d_neutral_zero", "d_neutral_negative", "d_neutral_nan"])
    def test_fitted_gauge_out_of_range_rejected(self, key, value):
        rule = "finite" if math.isnan(value) else ">=? 0"
        with pytest.raises(DomainError, match=rf"^{key}: must be {rule}, got {value}$"):
            CalibrationRecord(**dict(FITTED, **{key: value}))

    @pytest.mark.parametrize("key", ["p_threshold_hat_pa", "slope_hat_per_m_pa",
                                     "kappa0_hat_per_m", "r0_hat_ohm", "r_lead_hat_ohm",
                                     "d_neutral_m"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    def test_non_finite_number_rejected(self, key, value):
        with pytest.raises(DomainError, match=rf"^{key}: must be"):
            CalibrationRecord(**dict(FITTED, **{key: value}))

    @pytest.mark.parametrize("index,key", enumerate(["gain_pa_per_count", "offset_pa", "rms_pa"]))
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_channel_rejected(self, index, key, value):
        numbers = [25.0, 0.0, 0.0]
        numbers[index] = value
        with pytest.raises(DomainError, match=rf"^{key}: must be finite, got {value}$"):
            ChannelCal(*numbers)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_fit_residual_rejected(self, value):
        with pytest.raises(DomainError, match=rf"^fit_residuals\.x: must be finite, got {value}$"):
            CalibrationRecord(**FITTED, fit_residuals={"x": value})

    def test_zero_lead_resistance_accepted(self):
        assert CalibrationRecord(**dict(FITTED, r_lead_hat_ohm=0.0)).r_lead_hat_ohm == 0.0


class TestIdentifiabilityLoop:
    def test_simulated_run_recovers_parameters(self, default_params, default_chain):
        data = simulate_calibration_run(default_params, default_chain, CAL_LEVELS,
                                        seed=42, settle_s=2.5, dt=2.5e-3)
        record = calibration.build_record(data, default_chain)
        assert record.slope_hat_per_m_pa == pytest.approx(default_params.slope_m, rel=0.05)
        assert record.p_threshold_hat_pa == pytest.approx(default_params.p_threshold, rel=0.05)

    def test_session_bytes_pinned(self, default_params, default_chain):
        data = simulate_calibration_run(default_params, default_chain, CAL_LEVELS,
                                        seed=42, settle_s=2.5, dt=2.5e-3)
        assert data.pressures.size == 50
        digest = hashlib.sha256(data.pressures.tobytes() + data.curvatures.tobytes()).hexdigest()
        assert digest == "74ce48bfe1c734f73dbde96b4aa4fad18e973438a1eafaf302c9ecfbdffda364"

    def test_run_is_deterministic(self, default_params, default_chain):
        a = simulate_calibration_run(default_params, default_chain, CAL_LEVELS[:2],
                                     seed=7, settle_s=1.0, dt=2.5e-3)
        b = simulate_calibration_run(default_params, default_chain, CAL_LEVELS[:2],
                                     seed=7, settle_s=1.0, dt=2.5e-3)
        assert np.array_equal(a.pressures, b.pressures)
        assert np.array_equal(a.curvatures, b.curvatures)


def tick_loop_calibration_run(params, chain, levels_pa, seed, settle_s=2.5,
                              dt=physics.DEFAULT_DT):
    """simulate_calibration_run one tick at a time (sample, fsm_tick, step), with no plant
    that runs ahead: each tick is one physics.step from the state the last one left.

    A level that has run controller.MAX_TICKS ticks fails at its next tick
    that does not hold.
    """
    config = controller.ControllerConfig(p_max=params.p_max)
    path = sensors.SensorPath(chain, calibration.ideal_record(params, chain),
                              DeterministicRng(seed))
    fsm = controller.FsmState()
    tick = controller.DEFAULT_TICK_PERIOD
    n_steps = physics.substeps(tick, dt)
    state = physics.ActuatorState()
    p_out, k_out = [], []
    t = 0.0
    fault, holding = controller.Mode.FAULT, controller.Mode.HOLDING
    for level in levels_pa:
        fsm = controller.apply_command(fsm, protocol.SetPressureTarget(level), t, config)
        held_since = None
        ticks = 0
        while True:
            _, _, reading = path.sample(state.pressure, state.curvature)
            fsm, valves = controller.fsm_tick(fsm, reading, t, config)
            state = physics.step(state, params, valves, dt=dt, n_steps=n_steps)
            t += tick
            ticks += 1
            if fsm.mode is fault:
                raise FitError(f"calibration servo faulted at level {level} Pa")
            if fsm.mode is holding:
                if held_since is None:
                    held_since = t
                if t - held_since >= settle_s:
                    break
            elif ticks >= controller.MAX_TICKS:
                raise FitError(f"calibration servo did not settle at level {level} Pa "
                               f"in {controller.MAX_TICKS} ticks")
            else:
                held_since = None
        for _ in range(calibration.SAMPLES_PER_LEVEL):
            _, _, reading = path.sample(state.pressure, state.curvature)
            p_out.append(reading.pressure)
            k_out.append(reading.curvature)
    return CalibrationData(pressures=np.array(p_out), curvatures=np.array(k_out),
                           warmup_cycles=calibration.WARMUP_CYCLES_REQUIRED)


class RecordedPath(sensors.SensorPath):
    """A SensorPath that keeps every instance built, per class."""

    __slots__ = ()
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


class RecordedPlant(physics.FingerPlant):
    """A FingerPlant that logs each advance with a valve open that drops sealed ticks it had
    run ahead: (the fsm_tick calls so far, the ticks dropped), per class. fsm_ticks is kept
    by session_outcome."""

    __slots__ = ()
    fsm_ticks = 0
    dropped: list = []

    def advance(self, valves, fill_scale=1.0):
        if (valves.inlet or valves.vent) and self._ahead:
            self.dropped.append((RecordedPlant.fsm_ticks, len(self._ahead)))
        super().advance(valves, fill_scale)


class Outcome(NamedTuple):
    result: object  # the data's bytes or the FitError's text
    next_draws: list  # the session path's next 8 Gaussians
    fsm_ticks: int
    dropped: list  # RecordedPlant.dropped

    def last_tick_dropped(self) -> bool:
        """Whether the session's last tick opened a valve while the plant had run ahead."""
        return bool(self.dropped) and self.dropped[-1][0] == self.fsm_ticks


def session_outcome(run, *args, **kwargs) -> Outcome:
    """A session run with RecordedPath, RecordedPlant and a counted controller.fsm_tick."""
    RecordedPath.made, RecordedPlant.dropped, RecordedPlant.fsm_ticks = [], [], 0
    fsm_tick = controller.fsm_tick

    def counted(*tick_args):
        RecordedPlant.fsm_ticks += 1
        return fsm_tick(*tick_args)

    with mock.patch.object(sensors, "SensorPath", RecordedPath), \
            mock.patch.object(physics, "FingerPlant", RecordedPlant), \
            mock.patch.object(controller, "fsm_tick", counted):
        try:
            data = run(*args, **kwargs)
            result = (data.pressures.tobytes(), data.curvatures.tobytes())
        except FitError as exc:
            result = str(exc)
    (path,) = RecordedPath.made
    return Outcome(result, [path._noise() for _ in range(8)], RecordedPlant.fsm_ticks,
                   RecordedPlant.dropped)


class TestHeldSpans:
    """Sessions whose holds break match the tick-by-tick loop: data or FitError, the
    stream and the number of fsm_tick calls."""

    def same_as_tick_loop(self, params, chain, levels, seed, settle_s, dt):
        got = session_outcome(simulate_calibration_run, params, chain, levels, seed, settle_s, dt)
        expected = session_outcome(tick_loop_calibration_run, params, chain, levels, seed,
                                   settle_s, dt)
        assert got[:3] == expected[:3]
        assert expected.dropped == []  # a plant built per step never runs ahead
        return got

    def test_reengaged_hold_matches_the_tick_loop(self, default_params):
        # Pressure noise of about 500 Pa re-engages the 1,034 Pa servo mid-hold,
        # while the plant has sealed ticks run ahead.
        chain = SensorChain(pressure=PressureSensorParams(noise_sigma=5e-4))
        got = self.same_as_tick_loop(default_params, chain, (40e3, 50e3), 0, 2.5, 2.5e-3)
        assert not isinstance(got.result, str)
        assert got.dropped

    def test_overpressure_fault_from_a_hold_matches_the_tick_loop(self):
        # A 58.7 kPa hold under a 60 kPa p_max: the noise trips the overpressure Fault.
        params = physics.ActuatorParams(p_max=60e3)
        chain = SensorChain(pressure=PressureSensorParams(noise_sigma=5e-4))
        got = self.same_as_tick_loop(params, chain, (58.7e3,), 0, 2.5, 2.5e-3)
        assert got.result == "calibration servo faulted at level 58700.0 Pa"
        assert got.last_tick_dropped()

    @settings(max_examples=25, deadline=None)
    @given(sigma=st.floats(0.0, 1e-3), levels=st.lists(st.floats(32e3, 59e3), min_size=1,
                                                          max_size=3),
           p_max=st.sampled_from((60e3, physics.ActuatorParams().p_max)),
           seed=st.integers(0, 2 ** 64 - 1), settle_s=st.floats(0.0, 1.5),
           dt=st.sampled_from((1e-3, 2.5e-3, 5e-3)))
    def test_any_session_matches_the_tick_loop(self, sigma, levels, p_max, seed, settle_s, dt):
        # At this noise some levels never settle: 20,000 ticks bound an
        # example's time, and the deadline is reached inside held spans too.
        chain = SensorChain(pressure=PressureSensorParams(noise_sigma=sigma))
        with mock.patch.object(controller, "MAX_TICKS", 20_000):
            self.same_as_tick_loop(physics.ActuatorParams(p_max=p_max), chain, levels, seed,
                                   settle_s, dt)

    def test_level_that_never_settles_ends_in_a_fit_error(self, monkeypatch, default_params):
        # Pressure noise of about 1.5 kPa breaks every hold before 0.5 s: the
        # level would run without end. 2,000 ticks stand in for the bound.
        monkeypatch.setattr(controller, "MAX_TICKS", 2_000)
        chain = SensorChain(pressure=PressureSensorParams(noise_sigma=1.5e-3))
        got = self.same_as_tick_loop(default_params, chain, (40e3,), 0, 0.5, physics.DEFAULT_DT)
        assert got.result == "calibration servo did not settle at level 40000.0 Pa in 2000 ticks"

    @pytest.mark.parametrize("sigma,settle_s,max_ticks", [(8e-4, 1.5, 1_411),
                                                          (1e-3, 1.0, 5_089)])
    def test_deadline_passed_in_a_span_fails_the_level(self, monkeypatch, default_params, sigma,
                                                       settle_s, max_ticks):
        # The level's deadline passes while the plant has sealed ticks run
        # ahead, and the hold breaks: the level fails at that tick, as at any
        # tick that does not hold.
        monkeypatch.setattr(controller, "MAX_TICKS", max_ticks)
        chain = SensorChain(pressure=PressureSensorParams(noise_sigma=sigma))
        got = self.same_as_tick_loop(default_params, chain, (40e3,), 0, settle_s, 2.5e-3)
        assert got.result == (f"calibration servo did not settle at level 40000.0 Pa "
                              f"in {max_ticks} ticks")
        assert got.last_tick_dropped()

    @pytest.mark.parametrize("settle_s", [0.0, 0.005, 0.01, 0.0525, 0.1, 0.5, 2.5])
    def test_unbroken_hold_matches_the_tick_loop(self, default_params, default_chain, settle_s):
        # The default chain's noise never breaks the hold, and the session
        # ends with its one level: no sealed tick run ahead is dropped.
        got = self.same_as_tick_loop(default_params, default_chain, (40e3,), 0, settle_s,
                                     physics.DEFAULT_DT)
        assert not isinstance(got.result, str) and got.dropped == []

    @pytest.mark.parametrize("settle_s", [math.nan, math.inf, -math.inf, -0.1])
    def test_settle_s_refused_before_a_tick(self, monkeypatch, default_params, default_chain,
                                            settle_s):
        # A NaN or infinite settle_s never ended: Holding has no timeout.
        ticks = []
        monkeypatch.setattr(controller, "fsm_tick", lambda *args: ticks.append(args))
        with pytest.raises(DomainError, match=rf"^settle_s: must be finite and >= 0, got "
                                              rf"{settle_s}$"):
            simulate_calibration_run(default_params, default_chain, CAL_LEVELS, seed=1,
                                     settle_s=settle_s)
        assert ticks == []


class TestRecordFiles:
    def test_save_load_round_trip(self, tmp_path, ideal_cal):
        path = tmp_path / "record.json"
        path.write_text(calibration.record_json(ideal_cal), encoding="utf-8")
        loaded = calibration.load_record(path)
        assert loaded == ideal_cal

    def test_save_load_without_channel(self, tmp_path, default_chain):
        record = CalibrationRecord(p_threshold_hat_pa=30e3, slope_hat_per_m_pa=2.5e-3,
                                   kappa0_hat_per_m=1.0, r0_hat_ohm=2.0, r_lead_hat_ohm=0.2,
                                   d_neutral_m=0.01, pressure_channel=None,
                                   fit_residuals={"pressure_curvature_rms_per_m": 0.1})
        path = tmp_path / "record.json"
        path.write_text(calibration.record_json(record), encoding="utf-8")
        assert calibration.load_record(path) == record

    @settings(max_examples=200, deadline=None)
    @given(record=RECORDS, key_value=st.tuples(
        st.sampled_from((*calibration._RECORD_NUMBERS, *calibration._CHANNEL_NUMBERS,
                         "fit_residuals.x")),
        st.sampled_from((math.inf, -math.inf, math.nan)) | st.floats()) | st.sampled_from(
        (("warmup_cycles", 10.5), ("warmup_cycles", True), ("fit_residuals.1", 0.5))))
    @example(record=CalibrationRecord(**FITTED), key_value=("warmup_cycles", 10.5))
    @example(record=CalibrationRecord(**FITTED), key_value=("warmup_cycles", True))
    @example(record=CalibrationRecord(**FITTED), key_value=("fit_residuals.1", 0.5))
    def test_any_constructed_record_round_trips(self, record, key_value):
        # One number of a valid record set to any float at all, or a warm-up count or a
        # residual name of the wrong type: the constructors refuse it naming its key, or
        # record_json writes what load_record reads back.
        key, value = key_value
        residual_names = {"fit_residuals.x": "x", "fit_residuals.1": 1}
        try:
            if key in calibration._CHANNEL_NUMBERS:
                channel = record.pressure_channel or ChannelCal(25.0, 0.0, 0.0)
                record = dataclasses.replace(
                    record, pressure_channel=dataclasses.replace(channel, **{key: value}))
            elif key in residual_names:
                record = dataclasses.replace(record, fit_residuals={
                    **record.fit_residuals, residual_names[key]: value})
            else:
                record = dataclasses.replace(record, **{key: value})
        except DomainError as exc:
            assert str(exc).startswith(f"{key}: must be"), exc
            return
        assert math.isfinite(value)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "record.json")
            path.write_text(calibration.record_json(record), encoding="utf-8")
            assert calibration.load_record(path) == record

    @settings(max_examples=50, deadline=None)
    @given(record=RECORDS)
    def test_any_valid_record_round_trips(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "record.json")
            path.write_text(calibration.record_json(record), encoding="utf-8")
            assert calibration.load_record(path) == record
