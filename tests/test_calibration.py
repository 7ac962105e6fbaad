import hashlib

import numpy as np
import pytest

from softhand import calibration, sensors
from softhand.calibration import (CalibrationData, CalibrationRecord,
                                  calibrate_channel_against_reference, fit_pressure_curvature,
                                  fit_strain_resistance, simulate_calibration_run,
                                  threshold_from_fit)
from softhand.errors import FitError, WarmupError
from softhand.sensors import SensorFrame
from softhand.units import psi

TRUE_SLOPE = 0.754e-3  # 1/(m*Pa), the hand-checked synthetic line
CAL_LEVELS = tuple(30e3 + 5e3 * k for k in range(1, 6))  # 35..55 kPa holds


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

    def test_unstrained_only_data_is_unidentifiable(self):
        with pytest.raises(FitError):
            fit_strain_resistance([0.0, 0.0, 0.0], [2.2, 2.21, 2.19])


class TestChannelCalibration:
    def test_exact_recovery_from_known_map(self):
        gain, offset = 25.0, -1000.0
        counts = np.arange(400, 3600, 100)
        frames = [SensorFrame(t=0.0, strain_counts=0, pressure_counts=int(c),
                              reference_pressure=gain * c + offset) for c in counts]
        cal = calibrate_channel_against_reference(frames)
        assert cal.gain_pa_per_count == pytest.approx(gain, rel=1e-9)
        assert cal.offset_pa == pytest.approx(offset, abs=1e-6)
        assert cal.rms_pa < 1e-9

    def test_common_mode_drift_leaves_map_unchanged(self):
        gain, offset, drift = 25.0, -1000.0, 500.0
        counts = np.arange(400, 3600, 100)

        def frames(d):
            # Drift shifts the channel input and the reference together:
            # both move along the same line.
            return [SensorFrame(t=0.0, strain_counts=0,
                                pressure_counts=int(c + d / gain),
                                reference_pressure=gain * c + offset + d)
                    for c in counts]

        plain = calibrate_channel_against_reference(frames(0.0))
        drifted = calibrate_channel_against_reference(frames(drift))
        assert drifted.gain_pa_per_count == pytest.approx(plain.gain_pa_per_count, rel=1e-9)
        assert drifted.offset_pa == pytest.approx(plain.offset_pa, abs=1e-6)

    def test_noisy_frames_recover_gain_within_1pct(self, default_chain):
        from softhand.rand import DeterministicRng
        rng = DeterministicRng(21)
        pressures = np.linspace(0.0, psi(10), 60)
        frames = [SensorFrame(t=0.0, strain_counts=0,
                              pressure_counts=sensors.pressure_to_counts(
                                  p, default_chain.pressure, default_chain.adc, rng),
                              reference_pressure=p)
                  for p in pressures]
        cal = calibrate_channel_against_reference(frames)
        adc = default_chain.adc
        s = default_chain.pressure
        analytic_gain = (adc.v_ref / adc.full_scale_counts / s.amp_gain
                         * s.full_scale_pressure / s.full_scale_voltage)
        assert cal.gain_pa_per_count == pytest.approx(analytic_gain, rel=0.01)

    def test_insufficient_span_rejected(self):
        frames = [SensorFrame(t=0.0, strain_counts=0, pressure_counts=1000 + i,
                              reference_pressure=100.0 * i) for i in range(10)]
        with pytest.raises(FitError):
            calibrate_channel_against_reference(frames)


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


class TestRecordFiles:
    def test_save_load_round_trip(self, tmp_path, ideal_cal):
        path = tmp_path / "record.json"
        calibration.save_record(ideal_cal, path)
        loaded = calibration.load_record(path)
        assert loaded == ideal_cal

    def test_save_load_without_channel(self, tmp_path, default_chain):
        record = CalibrationRecord(p_threshold_hat_pa=30e3, slope_hat_per_m_pa=2.5e-3,
                                   kappa0_hat_per_m=1.0, r0_hat_ohm=2.0, r_lead_hat_ohm=0.2,
                                   d_neutral_m=0.01, pressure_channel=None,
                                   fit_residuals={"pressure_curvature_rms_per_m": 0.1})
        path = tmp_path / "record.json"
        calibration.save_record(record, path)
        assert calibration.load_record(path) == record
