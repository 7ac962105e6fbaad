"""Analog measurement pipelines: physical truth -> ADC counts and back.

The strain channel is a Galinstan channel in a divider with two
current-limiting resistors, amplified and quantized. The pressure channel is
a 0-15 PSI sensor producing 0-100 mV, amplified and quantized. Inversion
reproduces what the microcontroller does with the counts, including removal
of the common-mode atmospheric offset via the main board's differential
reference sensor.

Noise is additive white Gaussian, input-referred at the amplifier (the
amplified noise, amp_gain * noise_sigma, is what appears at the ADC), and is
drawn from an explicit seeded stream - no global RNG state.

``measure`` and ``counts_to_physical`` are compositions of the per-stage
functions. ``SensorPath`` is the closed loop's sampler and the one fused
sensor path: ``measure`` then ``counts_to_physical`` with every constant
read once per run and the noise drawn in blocks, tested against those two.
Its inverse path depends on the two ADC counts only, so each path tabulates
it once for every count from 0 to full scale, in numpy, by the same
operations in the same order (+, -, *, / and sqrt are correctly rounded in
numpy as in ``math``), and ``sample`` reads the tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, check_fields, integer
from .rand import DeterministicRng
from .units import PSI_TO_PA

if TYPE_CHECKING:  # pragma: no cover
    from .calibration import CalibrationRecord

# Gaussians a SensorPath draws per DeterministicRng.normals call.
_NOISE_BLOCK = 1024


@dataclass(frozen=True)
class StrainGaugeParams:
    """Galinstan strain channel and its divider/amplifier.

    r0           ohm, unstrained channel resistance
    r_lead       ohm, total copper lead resistance in series
    r_limit      ohm, each of the two current-limiting resistors
    v_excitation V, divider supply
    amp_gain     instrument amplifier gain
    noise_sigma  V, input-referred Gaussian noise
    """

    r0: float = 2.0
    r_lead: float = 0.2
    r_limit: float = 100.0
    v_excitation: float = 3.3
    amp_gain: float = 25.0
    noise_sigma: float = 1e-4

    def __post_init__(self):
        check_fields(self, positive=("r0", "r_limit", "v_excitation", "amp_gain"),
                     non_negative=("r_lead", "noise_sigma"))


@dataclass(frozen=True)
class PressureSensorParams:
    """Analog chamber-pressure sensor: full scale maps to full_scale_voltage."""

    full_scale_pressure: float = 15.0 * PSI_TO_PA
    full_scale_voltage: float = 0.100
    amp_gain: float = 20.0
    offset_drift: float = 0.0  # Pa, slow atmospheric drift removed by the reference
    noise_sigma: float = 1e-4

    def __post_init__(self):
        check_fields(self, positive=("full_scale_pressure", "full_scale_voltage", "amp_gain"),
                     non_negative=("noise_sigma",))


@dataclass(frozen=True)
class AdcParams:
    bits: int = 12
    v_ref: float = 2.5

    def __post_init__(self):
        check_fields(self, positive=("v_ref",))
        object.__setattr__(self, "bits", integer(self.bits, "bits"))  # 12.0 reads as 12
        if not (8 <= self.bits <= 16):
            raise DomainError(f"bits: must be in [8, 16], got {self.bits}")

    @property
    def full_scale_counts(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class SensorFrame:
    """Digitized readings of one finger at one control tick.

    reference_pressure is the main board's differential-sensor reading
    co-recorded with the frame: the measured common-mode atmospheric offset
    (0 with no drift).
    """

    strain_counts: int
    pressure_counts: int
    reference_pressure: float = 0.0


@dataclass(frozen=True)
class SensorChain:
    """Everything one finger's signals pass through, plus sensor geometry."""

    gauge: StrainGaugeParams = StrainGaugeParams()
    pressure: PressureSensorParams = PressureSensorParams()
    adc: AdcParams = AdcParams()
    d_neutral: float = 0.010  # m, from the bending neutral axis to the strain-sensor plane

    def __post_init__(self):
        for name, kind in (("gauge", StrainGaugeParams), ("pressure", PressureSensorParams),
                           ("adc", AdcParams)):
            if not isinstance(getattr(self, name), kind):
                raise DomainError(f"{name}: must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        check_fields(self, positive=("d_neutral",))


class PhysicalReading(NamedTuple):
    """Counts inverted back to physical units. Saturated values are flagged, not errors."""

    pressure: float
    curvature: float
    strain: float
    strain_saturated: bool = False
    pressure_saturated: bool = False


# Builds a PhysicalReading from a tuple without NamedTuple's Python-level __new__.
_new_tuple = tuple.__new__


def curvature_to_strain(kappa: float, d_neutral: float) -> float:
    """Dorsal-surface elongation of a thin beam: eps = d_neutral * kappa."""
    if not (0.0 <= kappa < math.inf):
        raise DomainError(f"curvature must be finite and >= 0, got {kappa}")
    return d_neutral * kappa


def strain_to_resistance(eps: float, gauge: StrainGaugeParams) -> float:
    """Constant-volume liquid conductor: R = r0*(1+eps)^2 + r_lead."""
    if math.isnan(eps) or eps <= -1.0:
        raise DomainError(f"strain must be > -1, got {eps}")
    return gauge.r0 * (1.0 + eps) ** 2 + gauge.r_lead


def resistance_to_strain(r: float, gauge: StrainGaugeParams) -> float:
    """Invert the quadratic law; readings below the lead resistance clamp to -1."""
    ratio = (r - gauge.r_lead) / gauge.r0
    return math.sqrt(ratio) - 1.0 if ratio > 0.0 else -1.0


def _quantize(v_sensor: float, amp_gain: float, noise_sigma: float,
              adc: AdcParams, rng: DeterministicRng | None) -> int:
    v_adc = amp_gain * v_sensor
    if noise_sigma > 0.0:
        if rng is None:
            raise DomainError("noise_sigma > 0 requires a seeded rng")
        v_adc += amp_gain * rng.normal(noise_sigma)
    v_adc = min(max(v_adc, 0.0), adc.v_ref)
    return int(round(v_adc / adc.v_ref * adc.full_scale_counts))


def resistance_to_counts(r: float, gauge: StrainGaugeParams, adc: AdcParams,
                         rng: DeterministicRng | None = None) -> int:
    """Divider voltage v_exc*R/(R + 2*r_limit), amplified, clamped, quantized."""
    if math.isnan(r) or r <= 0.0:
        raise DomainError(f"resistance must be > 0, got {r}")
    v_sensor = gauge.v_excitation * r / (r + 2.0 * gauge.r_limit)
    return _quantize(v_sensor, gauge.amp_gain, gauge.noise_sigma, adc, rng)


def pressure_to_counts(p: float, sensor: PressureSensorParams, adc: AdcParams,
                       rng: DeterministicRng | None = None) -> int:
    """Linear 0..full_scale mapping to 0..full_scale_voltage, then amplify/quantize."""
    if math.isnan(p) or p < 0.0:
        raise DomainError(f"pressure must be >= 0, got {p}")
    v_sensor = min(p, sensor.full_scale_pressure) * (
        sensor.full_scale_voltage / sensor.full_scale_pressure)
    return _quantize(v_sensor, sensor.amp_gain, sensor.noise_sigma, adc, rng)


def counts_to_adc_voltage(counts: int, adc: AdcParams) -> float:
    return counts / adc.full_scale_counts * adc.v_ref


def strain_counts_to_resistance(counts: int, gauge: StrainGaugeParams, adc: AdcParams) -> float:
    """Invert amplifier and divider back to channel resistance (ohm)."""
    v_sensor = counts_to_adc_voltage(counts, adc) / gauge.amp_gain
    if v_sensor >= gauge.v_excitation:
        raise DomainError("divider voltage at or above excitation; check gains")
    return 2.0 * gauge.r_limit * v_sensor / (gauge.v_excitation - v_sensor)


def pressure_counts_to_pa(counts: int, sensor: PressureSensorParams, adc: AdcParams) -> float:
    """Invert amplifier and sensor scaling back to the raw (drift-bearing) pressure."""
    v_sensor = counts_to_adc_voltage(counts, adc) / sensor.amp_gain
    return v_sensor * (sensor.full_scale_pressure / sensor.full_scale_voltage)


def measure(pressure: float, curvature: float, chain: SensorChain,
            rng: DeterministicRng | None = None, ambient_offset: float = 0.0) -> SensorFrame:
    """Sample both channels of one finger.

    The analog pressure channel sees the chamber pressure plus the total
    common-mode offset (sensor drift + ambient disturbance), clamped at 0;
    the differential reference measures that same offset, so inversion can
    remove it. The strain channel draws its noise before the pressure channel.
    """
    eps = curvature_to_strain(curvature, chain.d_neutral)
    r = strain_to_resistance(eps, chain.gauge)
    strain_counts = resistance_to_counts(r, chain.gauge, chain.adc, rng)
    offset = chain.pressure.offset_drift + ambient_offset
    pressure_counts = pressure_to_counts(max(pressure + offset, 0.0), chain.pressure,
                                         chain.adc, rng)
    return SensorFrame(strain_counts=strain_counts, pressure_counts=pressure_counts,
                       reference_pressure=offset)


def counts_to_physical(frame: SensorFrame, chain: SensorChain,
                       cal: "CalibrationRecord | None" = None) -> PhysicalReading:
    """Invert both pipelines as the microcontroller does.

    Uses the fitted channel constants from ``cal`` when given (gauge
    resistances, pressure-channel gain/offset, d_neutral), falling back to
    the chain's nominal values. The atmospheric offset is removed by
    subtracting reference_pressure from the inverted pressure. Counts pinned
    at 0 or full scale are flagged saturated but still inverted.
    """
    adc, gauge, d_neutral = chain.adc, chain.gauge, chain.d_neutral
    if cal is not None:
        gauge = replace(gauge, r0=cal.r0_hat_ohm, r_lead=cal.r_lead_hat_ohm)
        d_neutral = cal.d_neutral_m
    if cal is not None and cal.pressure_channel is not None:
        p_raw = (cal.pressure_channel.gain_pa_per_count * frame.pressure_counts
                 + cal.pressure_channel.offset_pa)
    else:
        p_raw = pressure_counts_to_pa(frame.pressure_counts, chain.pressure, adc)
    r = strain_counts_to_resistance(frame.strain_counts, gauge, adc)
    strain = resistance_to_strain(r, gauge)
    fsc = adc.full_scale_counts
    return PhysicalReading(
        pressure=p_raw - frame.reference_pressure, curvature=max(strain, 0.0) / d_neutral,
        strain=strain,
        strain_saturated=frame.strain_counts <= 0 or frame.strain_counts >= fsc,
        pressure_saturated=frame.pressure_counts <= 0 or frame.pressure_counts >= fsc)


def _noise_blocks(rng: DeterministicRng):
    """rng's standard Gaussians in stream order, as lists of _NOISE_BLOCK drawn one at a time."""
    while True:
        yield rng.normals(_NOISE_BLOCK).tolist()


class SensorPath:
    """One finger's ``measure`` then ``counts_to_physical``, set up once per run.

    Every constant of both functions is read here, and the one check that
    does not depend on the sample, noise without an rng, runs here once with
    the same message. The fitted gauge needs no check: ``CalibrationRecord``
    rejects r0 <= 0, r_lead < 0 and d_neutral <= 0 when built. ``sample``
    computes the same floats in the same order and keeps the per-sample checks
    (curvature NaN, infinite or < 0, a NaN channel pressure, the divider
    voltage at or above excitation). The noise is read ahead in blocks from
    ``rng``, so the path owns that stream: nothing else may draw from it.
    Channels with noise_sigma 0 draw nothing, as in ``measure``.

    The inverse path is read from tables of every count 0..full scale, built
    here: the pressure, the strain and the curvature by count, and the first
    strain count whose divider voltage reaches excitation. That voltage only
    rises with the count, so every count from that one on raises. At 16 bits
    the three tables hold 65,537 doubles each, about 1.5 MB.
    """

    __slots__ = ("_d_neutral", "_r0", "_r_lead", "_strain_gain", "_v_excitation",
                 "_two_r_limit", "_strain_sigma", "_offset", "_fsp", "_fsv_per_fsp",
                 "_pressure_gain", "_pressure_sigma", "_v_ref", "_fsc", "_noise",
                 "_pressure_by_count", "_strain_by_count", "_curvature_by_count",
                 "_strain_limit")

    def __init__(self, chain: SensorChain, cal: "CalibrationRecord | None" = None,
                 rng: DeterministicRng | None = None, ambient_offset: float = 0.0):
        gauge, sensor, adc = chain.gauge, chain.pressure, chain.adc
        if (gauge.noise_sigma > 0.0 or sensor.noise_sigma > 0.0) and rng is None:
            raise DomainError("noise_sigma > 0 requires a seeded rng")
        self._d_neutral = chain.d_neutral
        self._r0, self._r_lead = gauge.r0, gauge.r_lead
        self._strain_gain = gauge.amp_gain
        self._v_excitation = gauge.v_excitation
        self._two_r_limit = 2.0 * gauge.r_limit
        self._strain_sigma = gauge.noise_sigma
        self._offset = sensor.offset_drift + ambient_offset
        self._fsp = sensor.full_scale_pressure
        self._fsv_per_fsp = sensor.full_scale_voltage / sensor.full_scale_pressure
        self._pressure_gain = sensor.amp_gain
        self._pressure_sigma = sensor.noise_sigma
        self._v_ref, self._fsc = adc.v_ref, adc.full_scale_counts
        # A C iterator over the blocks: each Gaussian is one __next__ call, and
        # the next block is drawn only when the last one is used up.
        self._noise = (itertools.chain.from_iterable(_noise_blocks(rng)).__next__
                       if rng is not None else None)
        self._tabulate_inverse(chain, cal)

    def _tabulate_inverse(self, chain: SensorChain, cal: "CalibrationRecord | None") -> None:
        """counts_to_physical's floats for every count, by its operations in its order.

        Each table is a memoryview of a float64 array: 8 bytes per count, and
        indexing it gives a Python float.
        """
        v_ref, fsc = self._v_ref, self._fsc
        counts = np.arange(fsc + 1, dtype=np.float64)
        channel = cal.pressure_channel if cal is not None else None
        if channel is not None:
            p_raw = channel.gain_pa_per_count * counts + channel.offset_pa
        else:
            sensor = chain.pressure
            p_raw = (counts / fsc * v_ref / sensor.amp_gain
                     * (sensor.full_scale_pressure / sensor.full_scale_voltage))
        self._pressure_by_count = memoryview(p_raw - self._offset)

        # The inverse path's gauge: the record's fit when given, else the chain's.
        if cal is not None:
            r0, r_lead, d_neutral = cal.r0_hat_ohm, cal.r_lead_hat_ohm, cal.d_neutral_m
        else:
            r0, r_lead, d_neutral = self._r0, self._r_lead, self._d_neutral
        v_sensor = counts / fsc * v_ref / self._strain_gain
        v_excitation = self._v_excitation
        at_excitation = np.flatnonzero(v_sensor >= v_excitation)
        self._strain_limit = int(at_excitation[0]) if at_excitation.size else fsc + 1
        v_sensor = v_sensor[:self._strain_limit]
        r = self._two_r_limit * v_sensor / (v_excitation - v_sensor)
        ratio = (r - r_lead) / r0
        positive = ratio > 0.0
        strain = np.where(positive, np.sqrt(np.where(positive, ratio, 0.0)) - 1.0, -1.0)
        self._strain_by_count = memoryview(strain)
        self._curvature_by_count = memoryview(np.where(strain < 0.0, 0.0, strain) / d_neutral)

    def sample(self, pressure: float, curvature: float
               ) -> tuple[int, int, PhysicalReading]:
        """(strain_counts, pressure_counts, reading): measure then counts_to_physical."""
        if not (0.0 <= curvature < math.inf):
            raise DomainError(f"curvature must be finite and >= 0, got {curvature}")
        v_ref, fsc = self._v_ref, self._fsc
        # round() of a float is already an int: measure's int() is left out.

        eps = self._d_neutral * curvature
        r = self._r0 * (1.0 + eps) ** 2 + self._r_lead
        amp_gain = self._strain_gain
        v_adc = amp_gain * (self._v_excitation * r / (r + self._two_r_limit))
        if self._strain_sigma > 0.0:
            v_adc += amp_gain * (self._noise() * self._strain_sigma)
        if v_adc < 0.0:
            v_adc = 0.0
        elif v_adc > v_ref:
            v_adc = v_ref
        strain_counts = round(v_adc / v_ref * fsc)

        p_channel = pressure + self._offset
        if p_channel < 0.0:
            p_channel = 0.0
        elif math.isnan(p_channel):
            raise DomainError(f"pressure must be >= 0, got {p_channel}")
        fsp = self._fsp
        amp_gain = self._pressure_gain
        # min(p_channel, fsp) as measure takes it, without the builtin call.
        v_adc = amp_gain * ((fsp if fsp < p_channel else p_channel) * self._fsv_per_fsp)
        if self._pressure_sigma > 0.0:
            v_adc += amp_gain * (self._noise() * self._pressure_sigma)
        if v_adc < 0.0:
            v_adc = 0.0
        elif v_adc > v_ref:
            v_adc = v_ref
        pressure_counts = round(v_adc / v_ref * fsc)

        if strain_counts >= self._strain_limit:
            raise DomainError("divider voltage at or above excitation; check gains")
        return strain_counts, pressure_counts, _new_tuple(PhysicalReading, (
            self._pressure_by_count[pressure_counts], self._curvature_by_count[strain_counts],
            self._strain_by_count[strain_counts], strain_counts <= 0 or strain_counts >= fsc,
            pressure_counts <= 0 or pressure_counts >= fsc))
