import inspect
import math
import random
from dataclasses import replace
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from softhand import calibration, controller, protocol, sensors
from softhand.calibration import CalibrationRecord, ChannelCal
from softhand.errors import DomainError
from softhand.physics import ActuatorParams
from softhand.rand import DeterministicRng
from softhand.sensors import (AdcParams, PhysicalReading, PressureSensorParams, SensorChain,
                              SensorFrame, StrainGaugeParams, counts_to_physical,
                              curvature_to_strain, measure, pressure_to_counts,
                              resistance_to_counts, strain_to_resistance)
from softhand.units import psi

NOISELESS = SensorChain(
    gauge=StrainGaugeParams(noise_sigma=0.0),
    pressure=PressureSensorParams(noise_sigma=0.0))

# One ADC count, expressed in gauge pascals at the default pressure chain.
PRESSURE_LSB = (NOISELESS.adc.v_ref / NOISELESS.adc.full_scale_counts
                / NOISELESS.pressure.amp_gain
                * NOISELESS.pressure.full_scale_pressure / NOISELESS.pressure.full_scale_voltage)


def strain_from_counts(counts, chain=NOISELESS):
    r = sensors.strain_counts_to_resistance(counts, chain.gauge, chain.adc)
    return sensors.resistance_to_strain(r, chain.gauge)


class TestForwardPipelines:
    def test_zero_curvature_zero_strain(self):
        assert curvature_to_strain(0.0, 0.010) == 0.0

    def test_strain_examples_by_hand(self):
        assert curvature_to_strain(13.51, 0.010) == pytest.approx(0.1351, abs=1e-12)
        assert curvature_to_strain(1.0, 0.010) == pytest.approx(0.010, abs=1e-12)

    def test_negative_curvature_rejected(self):
        with pytest.raises(DomainError):
            curvature_to_strain(-0.1, 0.010)

    def test_resistance_at_rest_is_r0_plus_lead(self):
        g = StrainGaugeParams(r0=2.0, r_lead=0.2)
        assert strain_to_resistance(0.0, g) == pytest.approx(2.2, abs=1e-15)

    def test_resistance_example_by_hand(self):
        # 2.0 * 1.1351^2 + 0.2 = 2.7769040200
        g = StrainGaugeParams(r0=2.0, r_lead=0.2)
        assert strain_to_resistance(0.1351, g) == pytest.approx(2.77690402, abs=1e-9)

    def test_zero_lead_matches_pure_law(self):
        g = StrainGaugeParams(r0=2.0, r_lead=0.0)
        for eps in (0.0, 0.05, 0.3):
            assert strain_to_resistance(eps, g) == pytest.approx(2.0 * (1 + eps) ** 2, rel=1e-12)

    def test_overcompressed_strain_rejected(self):
        with pytest.raises(DomainError):
            strain_to_resistance(-1.0, StrainGaugeParams())

    def test_divider_gain_quantize_example_by_hand(self):
        # R=2.2 in a divider with 2x100 ohm at 3.3 V: V = 35.905 mV;
        # x50 = 1.79525 V; /2.5 * 4095 rounds to 2941.
        g = StrainGaugeParams(r0=2.0, r_lead=0.2, r_limit=100.0, v_excitation=3.3,
                              amp_gain=50.0, noise_sigma=0.0)
        assert resistance_to_counts(2.2, g, AdcParams()) == 2941

    def test_zero_resistance_limit_gives_zero_counts(self):
        g = StrainGaugeParams(noise_sigma=0.0)
        assert resistance_to_counts(1e-12, g, AdcParams()) == 0

    def test_counts_monotone_in_resistance(self):
        g = StrainGaugeParams(noise_sigma=0.0, amp_gain=50.0)
        adc = AdcParams()
        assert resistance_to_counts(2.8, g, adc) > resistance_to_counts(2.2, g, adc)
        grid = np.linspace(0.5, 6.0, 200)
        counts = [resistance_to_counts(r, g, adc) for r in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_pressure_full_scale_example_by_hand(self):
        # 15 PSI -> 100 mV -> x20 = 2.0 V -> 2.0/2.5 * 4095 = 3276.
        s = PressureSensorParams(noise_sigma=0.0)
        assert pressure_to_counts(psi(15), s, AdcParams()) == 3276

    def test_pressure_zero_and_half_scale(self):
        s = PressureSensorParams(noise_sigma=0.0)
        assert pressure_to_counts(0.0, s, AdcParams()) == 0
        assert abs(pressure_to_counts(psi(7.5), s, AdcParams()) - 1638) <= 1

    def test_pressure_monotone(self):
        s = PressureSensorParams(noise_sigma=0.0)
        adc = AdcParams()
        grid = np.linspace(0.0, psi(15), 300)
        counts = [pressure_to_counts(p, s, adc) for p in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_negative_pressure_rejected(self):
        with pytest.raises(DomainError):
            pressure_to_counts(-1.0, PressureSensorParams(noise_sigma=0.0), AdcParams())

    def test_noise_requires_rng(self):
        with pytest.raises(DomainError):
            pressure_to_counts(1e4, PressureSensorParams(noise_sigma=1e-4), AdcParams())


class TestInversion:
    def test_pressure_round_trip_within_one_lsb(self):
        rng = np.random.default_rng(11)
        for p in rng.uniform(500.0, psi(12), 1000):
            frame = measure(p, 0.0, NOISELESS)
            reading = counts_to_physical(frame, NOISELESS)
            assert abs(reading.pressure - p) <= PRESSURE_LSB

    def test_strain_round_trip_within_one_lsb(self):
        rng = np.random.default_rng(12)
        fsc = NOISELESS.adc.full_scale_counts
        for kappa in rng.uniform(0.1, 70.0, 1000):
            eps = curvature_to_strain(kappa, NOISELESS.d_neutral)
            frame = measure(0.0, kappa, NOISELESS)
            c = frame.strain_counts
            assert 0 < c < fsc, "operating range must not saturate"
            lsb = max(strain_from_counts(c + 1) - strain_from_counts(c),
                      strain_from_counts(c) - strain_from_counts(c - 1))
            reading = counts_to_physical(frame, NOISELESS)
            assert abs(reading.strain - eps) <= lsb

    def test_zero_state_inverts_to_zero(self):
        frame = measure(0.0, 0.0, NOISELESS)
        reading = counts_to_physical(frame, NOISELESS)
        assert reading.pressure == 0.0
        lsb_strain = strain_from_counts(frame.strain_counts + 1) \
            - strain_from_counts(frame.strain_counts)
        assert abs(reading.strain) <= lsb_strain
        # Zero pressure sits on the ADC's bottom rail, so it is flagged; the
        # strain channel rests mid-range and is not.
        assert reading.pressure_saturated
        assert not reading.strain_saturated

    def test_common_mode_drift_cancelled(self):
        chain = SensorChain(
            gauge=StrainGaugeParams(noise_sigma=0.0),
            pressure=PressureSensorParams(noise_sigma=0.0, offset_drift=500.0))
        p = psi(5)
        drifted = counts_to_physical(measure(p, 0.0, chain), chain)
        plain = counts_to_physical(measure(p, 0.0, NOISELESS), NOISELESS)
        assert abs(drifted.pressure - plain.pressure) <= PRESSURE_LSB
        assert abs(drifted.pressure - p) <= PRESSURE_LSB

    def test_ambient_offset_cancelled_for_any_drift(self):
        p = psi(4)
        for ambient in (-800.0, 0.0, 1500.0, 4000.0):
            frame = measure(p, 0.0, NOISELESS, ambient_offset=ambient)
            assert frame.reference_pressure == ambient
            reading = counts_to_physical(frame, NOISELESS)
            assert abs(reading.pressure - p) <= PRESSURE_LSB

    def test_saturation_flagged_not_fatal(self):
        fsc = NOISELESS.adc.full_scale_counts
        high = SensorFrame(strain_counts=fsc, pressure_counts=fsc)
        low = SensorFrame(strain_counts=0, pressure_counts=0)
        for frame in (high, low):
            reading = counts_to_physical(frame, NOISELESS)
            assert reading.strain_saturated and reading.pressure_saturated
            assert np.isfinite(reading.pressure)

    def test_calibration_record_overrides_nominal(self, ideal_cal, default_chain):
        frame = measure(psi(5), 20.0, NOISELESS)
        with_cal = counts_to_physical(frame, NOISELESS, ideal_cal)
        without = counts_to_physical(frame, NOISELESS)
        assert with_cal.pressure == pytest.approx(without.pressure, abs=1e-9)
        assert with_cal.strain == pytest.approx(without.strain, rel=1e-12)
        # The ideal record's channel gain is the chain's own counts -> Pa inverse.
        channel = ideal_cal.pressure_channel
        assert channel.offset_pa == 0.0
        for c in range(1, default_chain.adc.full_scale_counts + 1):
            chain_pa = sensors.pressure_counts_to_pa(c, default_chain.pressure, default_chain.adc)
            assert abs(channel.gain_pa_per_count * c - chain_pa) <= 1e-12 * chain_pa, c

    def test_fitted_record_gauge_replaces_nominal(self):
        # Without a pressure channel in the record, only the gauge and
        # d_neutral come from the fit.
        frame = measure(psi(5), 20.0, NOISELESS)
        fitted_chain = replace(NOISELESS, gauge=replace(NOISELESS.gauge, r0=2.1, r_lead=0.1),
                               d_neutral=0.012)
        assert counts_to_physical(frame, NOISELESS, fitted_record(2.1, 0.1, 0.012)) == \
            counts_to_physical(frame, fitted_chain)


class TestPhysicalReadingContract:
    """The per-tick reading fsm_tick consumes: a frozen 5-tuple with named fields."""

    def test_fields_in_order_with_defaults(self):
        empty = inspect.Parameter.empty
        assert [(p.name, p.default) for p in inspect.signature(PhysicalReading).parameters
                .values()] == [("pressure", empty), ("curvature", empty), ("strain", empty),
                               ("strain_saturated", False), ("pressure_saturated", False)]

    def test_keyword_construction_equality_and_hash(self):
        reading = PhysicalReading(pressure=1.0, curvature=2.0, strain=0.02,
                                  pressure_saturated=True)
        same = PhysicalReading(1.0, 2.0, 0.02, False, True)
        assert reading == same and hash(reading) == hash(same)
        assert reading != PhysicalReading(1.0, 2.0, 0.02)
        assert reading == (1.0, 2.0, 0.02, False, True) and len(reading) == 5

    @pytest.mark.parametrize("name", ["pressure", "strain_saturated"])
    def test_fields_cannot_be_set(self, name):
        with pytest.raises(AttributeError):
            setattr(PhysicalReading(1.0, 2.0, 0.02), name, 0.0)

    def test_repr_in_the_fsm_error_message(self):
        reading = PhysicalReading(math.nan, 2.0, 0.02)
        assert repr(reading) == ("PhysicalReading(pressure=nan, curvature=2.0, strain=0.02, "
                                 "strain_saturated=False, pressure_saturated=False)")
        fsm = controller.apply_command(controller.FsmState(), protocol.SetPressureTarget(50e3), 0.0)
        with pytest.raises(DomainError) as exc:
            controller.fsm_tick(fsm, reading, 0.005)
        assert str(exc.value) == f"measurement not finite: {reading!r}"


class TestNoise:
    def test_count_noise_matches_amplified_sigma(self):
        # Output-referred noise is amp_gain * noise_sigma; in counts that is
        # amp_gain * sigma / v_ref * (2^bits - 1). Quantization adds ~1/12
        # LSB^2, well inside the 10% tolerance.
        sigma = 1e-4
        s = PressureSensorParams(noise_sigma=sigma)
        adc = AdcParams()
        rng = DeterministicRng(99)
        counts = [pressure_to_counts(psi(6), s, adc, rng) for _ in range(10_000)]
        expected = s.amp_gain * sigma / adc.v_ref * adc.full_scale_counts
        assert np.std(counts) == pytest.approx(expected, rel=0.10)

    def test_strain_count_noise_matches_amplified_sigma(self):
        sigma = 1e-4
        g = StrainGaugeParams(noise_sigma=sigma)
        adc = AdcParams()
        rng = DeterministicRng(100)
        counts = [resistance_to_counts(3.0, g, adc, rng) for _ in range(10_000)]
        expected = g.amp_gain * sigma / adc.v_ref * adc.full_scale_counts
        assert np.std(counts) == pytest.approx(expected, rel=0.10)

    def test_measure_draws_once_per_noisy_channel(self):
        for chain, draws in ((NOISELESS, 0), (replace(NOISELESS, gauge=StrainGaugeParams()), 1),
                             (SensorChain(), 2)):
            rng, uniform = DeterministicRng(4), DeterministicRng(4)
            measure(psi(5), 20.0, chain, rng)
            for _ in range(draws):
                uniform.random()
            assert rng._state == uniform._state

    def test_seeded_noise_is_reproducible(self):
        s = PressureSensorParams(noise_sigma=1e-4)
        adc = AdcParams()
        a = [pressure_to_counts(psi(6), s, adc, DeterministicRng(5)) for _ in range(3)]
        b = [pressure_to_counts(psi(6), s, adc, DeterministicRng(5)) for _ in range(3)]
        assert a == b


class TestValidation:
    def test_gauge_invariants(self):
        with pytest.raises(DomainError):
            StrainGaugeParams(r0=0.0)
        with pytest.raises(DomainError):
            StrainGaugeParams(r_lead=-0.1)
        with pytest.raises(DomainError):
            StrainGaugeParams(amp_gain=0.0)

    def test_adc_invariants(self):
        with pytest.raises(DomainError):
            AdcParams(bits=7)
        with pytest.raises(DomainError):
            AdcParams(bits=17)
        with pytest.raises(DomainError):
            AdcParams(v_ref=0.0)

    @pytest.mark.parametrize("bits", [12.5, True, "12", float("nan"), np.bool_(True)])
    def test_adc_bits_must_be_an_integer(self, bits):
        with pytest.raises(DomainError, match=rf"^bits: must be an integer, got {bits!r}$"):
            AdcParams(bits=bits)

    def test_adc_bits_whole_float_reads_as_int(self):
        adc = AdcParams(bits=12.0)
        assert type(adc.bits) is int and adc.full_scale_counts == 4095

    def test_pressure_sensor_invariants(self):
        with pytest.raises(DomainError):
            PressureSensorParams(full_scale_pressure=0.0)
        with pytest.raises(DomainError):
            PressureSensorParams(full_scale_voltage=-1.0)

    @pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf])
    def test_pressure_sensor_rejects_non_finite_offset_drift(self, drift):
        with pytest.raises(DomainError) as exc:
            PressureSensorParams(offset_drift=drift)
        assert str(exc.value) == f"offset_drift: must be finite, got {drift}"

    def test_chain_rejects_non_positive_d_neutral(self):
        for d_neutral in (0.0, -0.01, float("nan")):
            with pytest.raises(DomainError, match="d_neutral"):
                SensorChain(d_neutral=d_neutral)

    @pytest.mark.parametrize("field,value", [
        ("gauge", -1), ("gauge", AdcParams()), ("pressure", None),
        ("pressure", StrainGaugeParams()), ("adc", 12), ("adc", PressureSensorParams())])
    def test_chain_rejects_a_stage_of_the_wrong_type(self, field, value):
        with pytest.raises(DomainError) as exc:
            SensorChain(**{field: value})
        assert str(exc.value).startswith(f"{field}: must be a ")


def outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def fitted_record(r0, r_lead, d_neutral, channel=None):
    return CalibrationRecord(p_threshold_hat_pa=30e3, slope_hat_per_m_pa=2.5e-3,
                             kappa0_hat_per_m=1.0, r0_hat_ohm=r0, r_lead_hat_ohm=r_lead,
                             d_neutral_m=d_neutral, pressure_channel=channel)


def record_of_kind(kind, chain, r0, r_lead, d_neutral, gain, offset):
    """No record, the chain's ideal one, or a fitted one without or with a pressure channel."""
    if kind == "none":
        return None
    if kind == "ideal":
        return calibration.ideal_record(ActuatorParams(), chain)
    channel = ChannelCal(gain, offset, 0.0) if kind == "fitted_channel" else None
    return fitted_record(r0, r_lead, d_neutral, channel)


@st.composite
def sensor_chains(draw):
    return SensorChain(
        gauge=StrainGaugeParams(noise_sigma=draw(st.sampled_from((0.0, 1e-4, 1e-3)))),
        pressure=PressureSensorParams(
            offset_drift=draw(st.floats(-3e3, 6e3)),
            noise_sigma=draw(st.sampled_from((0.0, 1e-4, 1e-3)))),
        d_neutral=draw(st.floats(0.002, 0.03)))


INVALID_FITTED_GAUGES = pytest.mark.parametrize(
    "r0,r_lead", [(0.0, 0.2), (-1.0, 0.2), (float("nan"), 0.2), (2.0, -0.1), (2.0, float("nan"))],
    ids=["r0_zero", "r0_negative", "r0_nan", "r_lead_negative", "r_lead_nan"])


# --- measure and counts_to_physical against their stage functions ----------

class TestFusedPathParity:
    @pytest.mark.parametrize("pressure,curvature", [
        (1e4, float("nan")), (1e4, -0.1), (float("nan"), 5.0), (1e4, float("inf")),
    ], ids=["curvature_nan", "curvature_negative", "pressure_nan", "curvature_inf"])
    def test_invalid_measure_inputs_raise_as_primitives_do(self, pressure, curvature):
        for chain in (NOISELESS, SensorChain()):
            rng, uniform = DeterministicRng(3), DeterministicRng(3)
            if math.isfinite(curvature) and curvature >= 0.0:
                # The strain channel is sampled, and draws its noise, first.
                if chain.gauge.noise_sigma > 0.0:
                    uniform.random()
                expected = outcome(pressure_to_counts, pressure, chain.pressure, chain.adc,
                                   uniform)
            else:
                expected = outcome(curvature_to_strain, curvature, chain.d_neutral)
            assert expected[0] is DomainError
            assert outcome(measure, pressure, curvature, chain, rng) == expected
            assert rng._state == uniform._state

    def test_noise_without_rng_raises_as_primitives_do(self):
        noisy_gauge, noisy_pressure = StrainGaugeParams(), PressureSensorParams()
        expected = outcome(resistance_to_counts, noisy_gauge.r0, noisy_gauge, NOISELESS.adc)
        assert expected == (DomainError, "noise_sigma > 0 requires a seeded rng")
        assert outcome(pressure_to_counts, 1e4, noisy_pressure, NOISELESS.adc) == expected
        for chain in (SensorChain(), replace(NOISELESS, gauge=noisy_gauge),
                      replace(NOISELESS, pressure=noisy_pressure)):
            assert outcome(measure, 1e4, 5.0, chain) == expected

    @INVALID_FITTED_GAUGES
    def test_invalid_fitted_gauge_raises_as_constructor_does(self, r0, r_lead):
        # counts_to_physical builds the fitted gauge from the record; the
        # record refuses, when it is built, what the gauge's constructor refuses.
        frame = measure(psi(5), 20.0, NOISELESS)
        assert outcome(lambda: replace(NOISELESS.gauge, r0=r0, r_lead=r_lead))[0] is DomainError
        assert outcome(lambda: counts_to_physical(frame, NOISELESS,
                                                  fitted_record(r0, r_lead, 0.01)))[0] \
            is DomainError


# --- SensorPath against measure then counts_to_physical --------------------

def reference_samples(inputs, chain, cal, rng, ambient):
    """What SensorPath.sample returns for each input, by measure then counts_to_physical."""
    def one(pressure, curvature):
        frame = measure(pressure, curvature, chain, rng, ambient)
        return (frame.strain_counts, frame.pressure_counts,
                counts_to_physical(frame, chain, cal))
    return [outcome(one, p, c) for p, c in inputs]


def path_samples(inputs, chain, cal, rng, ambient):
    path = sensors.SensorPath(chain, cal, rng, ambient)
    return [outcome(path.sample, p, c) for p, c in inputs]


class TestSensorPathParity:
    # Without the explain phase: on 13 arguments it runs thousands of
    # examples after the shrink and delays a failure's report by minutes.
    @settings(max_examples=40, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(chain=sensor_chains(), ambient=st.floats(-5e3, 5e3), seed=st.integers(0, 2 ** 64 - 1),
           cal_kind=st.sampled_from(("none", "ideal", "fitted", "fitted_channel")),
           r0=st.floats(0.5, 4.0), r_lead=st.floats(0.0, 1.0), d_neutral=st.floats(0.002, 0.03),
           gain=st.floats(1.0, 40.0), offset=st.floats(-2e3, 2e3),
           inputs=st.lists(st.tuples(st.floats(0.0, 120e3), st.floats(0.0, 150.0)),
                           min_size=9, max_size=40))
    def test_samples_match_measure_then_counts_to_physical(self, chain, ambient, seed, cal_kind,
                                                           r0, r_lead, d_neutral, gain, offset,
                                                           inputs):
        # Blocks of 8 draws: more than 8 samples read past at least one block
        # boundary at every noise setting (0, 1 or 2 draws per sample), and a
        # failing example shrinks in seconds.
        cal = record_of_kind(cal_kind, chain, r0, r_lead, d_neutral, gain, offset)
        with mock.patch.object(sensors, "_NOISE_BLOCK", 8):
            assert path_samples(inputs, chain, cal, DeterministicRng(seed), ambient) == \
                reference_samples(inputs, chain, cal, DeterministicRng(seed), ambient)

    def test_samples_match_across_a_full_noise_block(self):
        # Noise on both channels: 600 samples draw 1200 Gaussians, past the
        # first block of 1024.
        chain = SensorChain(pressure=PressureSensorParams(offset_drift=800.0))
        cal = fitted_record(2.1, 0.15, 0.011, ChannelCal(25.2, -40.0, 0.0))
        inputs_rng = random.Random(20)
        inputs = [(inputs_rng.uniform(0.0, 120e3), inputs_rng.uniform(0.0, 150.0))
                  for _ in range(600)]
        assert 2 * len(inputs) > sensors._NOISE_BLOCK
        assert path_samples(inputs, chain, cal, DeterministicRng(31), 1500.0) == \
            reference_samples(inputs, chain, cal, DeterministicRng(31), 1500.0)

    @pytest.mark.parametrize("pressure,curvature,message", [
        (1e4, float("nan"), "curvature must be finite and >= 0, got nan"),
        (1e4, -0.1, "curvature must be finite and >= 0, got -0.1"),
        (float("nan"), 5.0, "pressure must be >= 0, got nan"),
        (1e4, float("inf"), "curvature must be finite and >= 0, got inf"),
    ], ids=["curvature_nan", "curvature_negative", "pressure_nan", "curvature_inf"])
    def test_invalid_sample_raises_as_reference_does(self, pressure, curvature, message):
        # A valid sample on each side: after the error the path still reads
        # the stream where the reference does.
        inputs = [(2e4, 3.0), (pressure, curvature), (3e4, 8.0)]
        for chain in (NOISELESS, SensorChain()):
            expected = reference_samples(inputs, chain, None, DeterministicRng(3), 0.0)
            assert expected[1] == (DomainError, message)
            assert path_samples(inputs, chain, None, DeterministicRng(3), 0.0) == expected

    def test_divider_at_excitation_raises_as_reference_does(self):
        # A low gain and a large strain noise put about half the strain
        # readings above excitation once inverted.
        chain = replace(NOISELESS, gauge=StrainGaugeParams(r_limit=1e-3, amp_gain=0.5,
                                                           noise_sigma=0.5))
        inputs = [(1e4, 100.0)] * 20
        expected = reference_samples(inputs, chain, None, DeterministicRng(8), 0.0)
        assert (DomainError, "divider voltage at or above excitation; check gains") in expected
        assert path_samples(inputs, chain, None, DeterministicRng(8), 0.0) == expected

    def test_noise_without_rng_raises_as_reference_does(self):
        for chain in (SensorChain(), replace(NOISELESS, gauge=StrainGaugeParams()),
                      replace(NOISELESS, pressure=PressureSensorParams())):
            expected = outcome(measure, 1e4, 5.0, chain)
            assert expected == (DomainError, "noise_sigma > 0 requires a seeded rng")
            assert outcome(sensors.SensorPath, chain) == expected

    @pytest.mark.parametrize("field,chain", [
        ("amp_gain", lambda: SensorChain(gauge=StrainGaugeParams(amp_gain=math.inf))),
        ("r0", lambda: SensorChain(gauge=StrainGaugeParams(r0=math.inf))),
        ("d_neutral", lambda: SensorChain(d_neutral=math.inf)),
    ], ids=["amp_gain", "r0", "d_neutral"])
    def test_infinite_chain_constant_refused_before_a_sample(self, field, chain):
        # Such a chain once built, and its first sample raised round()'s raw
        # "ValueError: cannot convert float NaN to integer".
        with pytest.raises(DomainError, match=rf"^{field}: must be finite, got inf$"):
            sensors.SensorPath(chain(), rng=DeterministicRng(0)).sample(1e4, 5.0)

    @INVALID_FITTED_GAUGES
    def test_invalid_fitted_gauge_raises_as_reference_does(self, r0, r_lead):
        # The record refuses the gauge when built, so the path and the
        # reference stop at the same point with the same error.
        frame = measure(psi(5), 20.0, NOISELESS)
        expected = outcome(lambda: counts_to_physical(frame, NOISELESS,
                                                      fitted_record(r0, r_lead, 0.01)))
        assert expected[0] is DomainError
        assert outcome(lambda: sensors.SensorPath(NOISELESS, fitted_record(r0, r_lead, 0.01))) \
            == expected


def float_bits(values) -> np.ndarray:
    """Doubles as their IEEE 754 bit patterns: equal only when bit for bit equal."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestInverseTables:
    """SensorPath's inverse tables against counts_to_physical, count by count."""

    # At 16 bits a fitted record's oracle takes about 0.6 s, so that width
    # runs each record kind once, on the gauge whose strain table ends early.
    @pytest.mark.parametrize("bits,cal_kind,strain_gain", [
        *[(bits, kind, gain) for bits in (8, 12)
          for kind in ("none", "ideal", "fitted", "fitted_channel") for gain in (25.0, 0.7)],
        *[(16, kind, 0.7) for kind in ("none", "ideal", "fitted")]])
    def test_every_count_matches_counts_to_physical(self, bits, cal_kind, strain_gain):
        # At gain 0.7 the divider voltage reaches excitation near the top of
        # the count range, so the strain tables end at that count.
        chain = SensorChain(gauge=StrainGaugeParams(amp_gain=strain_gain, noise_sigma=0.0),
                            pressure=PressureSensorParams(offset_drift=750.0, noise_sigma=0.0),
                            adc=AdcParams(bits=bits), d_neutral=0.011)
        cal = record_of_kind(cal_kind, chain, 2.1, 0.15, 0.012, 25.2, -40.0)
        ambient = -1200.0
        path = sensors.SensorPath(chain, cal, ambient_offset=ambient)
        offset = chain.pressure.offset_drift + ambient
        pressures, strains, curvatures = [], [], []
        limit = None
        for counts in range(chain.adc.full_scale_counts + 1):
            reading = outcome(counts_to_physical, SensorFrame(counts, counts, offset), chain, cal)
            if limit is None and isinstance(reading, PhysicalReading):
                strains.append(reading.strain)
                curvatures.append(reading.curvature)
            else:
                # The divider voltage only rises with the count: every count
                # from the first that raises on raises too.
                assert reading == (DomainError,
                                   "divider voltage at or above excitation; check gains")
                limit = counts if limit is None else limit
                reading = counts_to_physical(SensorFrame(0, counts, offset), chain, cal)
            pressures.append(reading.pressure)
        assert (limit is None) == (strain_gain == 25.0)
        assert path._strain_limit == len(strains)
        assert np.array_equal(float_bits(path._pressure_by_count), float_bits(pressures))
        assert np.array_equal(float_bits(path._strain_by_count), float_bits(strains))
        assert np.array_equal(float_bits(path._curvature_by_count), float_bits(curvatures))

    @pytest.mark.parametrize("bits", [8, 16])
    def test_divider_at_excitation_raises_at_the_reference_sample(self, bits):
        # TestSensorPathParity's case at the two other ADC widths: about half
        # the noisy strain readings reach excitation once inverted. The
        # samples after each raise match too, so the path reads the noise
        # stream where the reference does.
        chain = replace(NOISELESS, gauge=StrainGaugeParams(r_limit=1e-3, amp_gain=0.5,
                                                           noise_sigma=0.5),
                        adc=AdcParams(bits=bits))
        inputs = [(1e4, 100.0)] * 20
        expected = reference_samples(inputs, chain, None, DeterministicRng(8), 0.0)
        raised = (DomainError, "divider voltage at or above excitation; check gains")
        assert 0 < expected.count(raised) < len(inputs)
        assert path_samples(inputs, chain, None, DeterministicRng(8), 0.0) == expected


class TestGaussianDraw:
    def test_draw_consumes_one_uniform(self):
        a, b = DeterministicRng(17), DeterministicRng(17)
        for _ in range(100):
            a.normal(2.0)
            b.random()
            assert a._state == b._state

    def test_inverse_cdf_accuracy_in_center_and_tails(self):
        # Acklam's approximation: relative error below 1.15e-9 everywhere.
        # About 4.9 % of draws land in the tails (p < 0.02425 or p > 0.97575).
        a, b = DeterministicRng(5), DeterministicRng(5)
        tails = 0
        for _ in range(20_000):
            z, p = a.normal(), b.random()
            exact = NormalDist().inv_cdf(p)
            assert math.isclose(z, exact, rel_tol=1.2e-9, abs_tol=1e-12)
            tails += not (0.02425 <= p <= 0.97575)
        assert 600 < tails < 1400

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 3000))
    def test_block_draw_matches_scalar_draws(self, seed, n):
        block, scalar = DeterministicRng(seed), DeterministicRng(seed)
        drawn = block.normals(n)
        assert drawn.dtype == np.float64 and drawn.shape == (n,)
        assert [z.hex() for z in drawn.tolist()] == [scalar.normal(1.0).hex() for _ in range(n)]
        assert block._state == scalar._state

    def test_block_draw_rejects_negative_count(self):
        rng = DeterministicRng(11)
        with pytest.raises(DomainError, match="n must be >= 0"):
            rng.normals(-1)
        assert rng._state == DeterministicRng(11)._state

    def test_block_draw_matches_scalar_draws_in_both_tails(self):
        # About 500 draws land in each tail. On an x86-64 host with AVX-512,
        # one of them is a draw where numpy's vectorised log differs from
        # math.log in the last bit, so tails finished with np.log fail here.
        n = 20_000
        block, scalar, uniform = DeterministicRng(29), DeterministicRng(29), DeterministicRng(29)
        drawn = block.normals(n).tolist()
        assert [z.hex() for z in drawn] == [scalar.normal(1.0).hex() for _ in range(n)]
        p = [uniform.random() for _ in range(n)]
        assert sum(x < 0.02425 for x in p) > 400 and sum(x > 0.97575 for x in p) > 400
        assert block._state == scalar._state == uniform._state
