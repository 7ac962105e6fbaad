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

``SensorPath.sample_block`` runs ``sample`` over many (pressure, curvature)
pairs at once, elementwise in numpy, with one exception: it squares
1 + eps with Python's pow, one element at a time. libm's pow(x, 2) is not
always x*x, which is what numpy's ** 2 and np.power compute: on 2,000,000
uniform draws in [1, 1.8) the two differ in the last bit on 1,577 (glibc,
x86-64). Any vectorised forward path has to square the same way.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _noise_blocks(rng: DeterministicRng, active: list):
    """active[0], then rng's standard Gaussians in lists of _NOISE_BLOCK drawn one at a time.

    Each block's iterator is put in active[0] before it is yielded, so
    active[0] is always the iterator the stream reads from, and its unread
    rest is the head of the stream.
    """
    yield active[0]
    while True:
        active[0] = iter(rng.normals(_NOISE_BLOCK).tolist())
        yield active[0]


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

    ``sample_block`` is ``sample`` over many (pressure, curvature) pairs at
    once, in numpy, and ``unread`` puts the noise of its last samples back
    at the head of the stream. ``sample`` reads the stream as before, so
    neither makes it slower.
    """

    __slots__ = ("_d_neutral", "_r0", "_r_lead", "_strain_gain", "_v_excitation",
                 "_two_r_limit", "_strain_sigma", "_offset", "_fsp", "_fsv_per_fsp",
                 "_pressure_gain", "_pressure_sigma", "_v_ref", "_fsc", "_noise",
                 "_pressure_by_count", "_strain_by_count", "_curvature_by_count",
                 "_clipped_by_count", "_strain_limit", "_rng", "_stream", "_active",
                 "_draws_per_sample", "_block_samples", "_block_noise", "_block_head")

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
        self._rng = rng
        self._noise = None
        self._draws_per_sample = (self._strain_sigma > 0.0) + (self._pressure_sigma > 0.0)
        self._block_samples, self._block_noise, self._block_head = 0, [], None
        if rng is not None:
            self._read_next([])
        self._tabulate_inverse(chain, cal)

    def _read_next(self, draws: list) -> None:
        """Make the noise stream read draws, then the rng's next Gaussians.

        A C iterator over the blocks: each Gaussian is one __next__ call, and
        the next block is drawn only when the last one is used up.
        """
        self._active = [iter(draws)]
        self._stream = itertools.chain.from_iterable(_noise_blocks(self._rng, self._active))
        self._noise = self._stream.__next__

    def _tabulate_inverse(self, chain: SensorChain, cal: "CalibrationRecord | None") -> None:
        """counts_to_physical's floats for every count, by its operations in its order.

        Each table is a memoryview of a float64 array: 8 bytes per count, and
        indexing it gives a Python float. sample_block indexes their arrays,
        and _clipped_by_count, whether a count is 0 or full scale.
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
        self._clipped_by_count = (counts <= 0.0) | (counts >= fsc)

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

    def sample_block(self, pressures, curvatures) -> list[PhysicalReading]:
        """``sample`` of each (pressure, curvature) pair in order, up to the first it refuses.

        Entry i of the list is the reading ``sample`` returns for pair i.

        The same operations in the same order, elementwise over float64
        arrays, with the same noise read in stream order: strain, then
        pressure, for each sample. (1 + eps) is squared with Python's pow, one
        element at a time: libm's pow(x, 2) is not always x*x, which is what
        numpy's ** 2 and np.power compute. The block stops before the first
        sample that ``sample`` refuses, and before a 1 + eps of 2**511 or
        more, whose square may overflow; that sample's noise stays unread, so
        ``sample`` on it raises what it raises after the same draws.
        """
        curvatures = np.asarray(curvatures, dtype=np.float64)
        one_plus_eps = 1.0 + self._d_neutral * curvatures
        # Refused before a draw (curvature NaN, infinite or < 0), or left to sample.
        sampled = (0.0 <= curvatures) & (one_plus_eps < 2.0 ** 511)
        n = curvatures.size if sampled.all() else int(sampled.argmin())
        v_ref, fsc = self._v_ref, self._fsc

        # The draws come off the stream sample reads, a 1024-draw block at a time.
        per = self._draws_per_sample
        draws = list(itertools.islice(self._stream, n * per)) if per else []
        noise = np.array(draws, dtype=np.float64).reshape(n, per)

        r = self._r0 * np.array([x ** 2 for x in one_plus_eps[:n].tolist()]) + self._r_lead
        amp_gain = self._strain_gain
        v_adc = amp_gain * (self._v_excitation * r / (r + self._two_r_limit))
        if self._strain_sigma > 0.0:
            v_adc = v_adc + amp_gain * (noise[:, 0] * self._strain_sigma)
        # Each clamp keeps a NaN, as sample's comparisons do; a -0.0 left by
        # either still rounds to count 0.
        v_adc = np.minimum(np.maximum(v_adc, 0.0), v_ref)
        strain_counts = np.rint(v_adc / v_ref * fsc)
        # Refused after its draws: a NaN channel pressure, or the divider at excitation.
        refused = np.isnan(v_adc) | (strain_counts >= self._strain_limit)

        p_channel = np.asarray(pressures, dtype=np.float64)[:n] + self._offset
        amp_gain = self._pressure_gain
        v_adc = amp_gain * (np.minimum(np.maximum(p_channel, 0.0), self._fsp) * self._fsv_per_fsp)
        if self._pressure_sigma > 0.0:
            v_adc = v_adc + amp_gain * (noise[:, -1] * self._pressure_sigma)
        v_adc = np.minimum(np.maximum(v_adc, 0.0), v_ref)
        pressure_counts = np.rint(v_adc / v_ref * fsc)
        refused |= np.isnan(v_adc)

        if refused.any():
            n = int(refused.argmax())
            if per:
                self._read_next(draws[n * per:] + list(self._active[0]))
        self._block_samples, self._block_noise = n, draws[:n * per]
        self._block_head = self._stream_head()
        strain_counts = strain_counts[:n].astype(np.intp)
        pressure_counts = pressure_counts[:n].astype(np.intp)
        clipped = self._clipped_by_count
        return list(map(_new_tuple, itertools.repeat(PhysicalReading), zip(
            self._pressure_by_count.obj[pressure_counts].tolist(),
            self._curvature_by_count.obj[strain_counts].tolist(),
            self._strain_by_count.obj[strain_counts].tolist(),
            clipped[strain_counts].tolist(), clipped[pressure_counts].tolist())))

    def _stream_head(self) -> tuple | None:
        """The iterator at the head of the noise stream and how many draws it has left."""
        if not self._draws_per_sample:
            return None
        return self._active[0], operator.length_hint(self._active[0])

    def unread(self, n_samples: int) -> None:
        """Put the noise of the last n_samples that sample_block returned back at the head.

        The next draws are then those samples' draws again, in stream order.
        Refused once the path has drawn since (a ``sample`` in between): the
        draws put back would no longer be the head's. A path that draws
        nothing has nothing to put back.
        """
        kept = self._block_samples - n_samples
        if not (0 <= n_samples and 0 <= kept):
            raise DomainError(f"n_samples: must be in [0, the last block's samples], "
                              f"got {n_samples}")
        if self._stream_head() != self._block_head:
            raise DomainError("unread: the path has drawn since its last sample_block")
        per = self._draws_per_sample
        if n_samples and per:
            self._read_next(self._block_noise[kept * per:] + list(self._active[0]))
        self._block_samples, self._block_noise = kept, self._block_noise[:kept * per]
        self._block_head = self._stream_head()
