"""Fit the actuator and sensor models from logged data.

Two fits: ordinary least squares of curvature against pressure above a
cutoff (threshold-plus-line actuator model), and least squares of resistance
against (1+eps)^2 with a free offset reported as lead resistance. Fits are
per-actuator by default; to pool several identically built fingers into one
line, concatenate their samples before fitting. Elastomers soften over their
first load cycles, so a fit is only accepted when the data was recorded after
at least WARMUP_CYCLES_REQUIRED full inflations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import controller, physics, protocol, sensors
from .errors import (DomainError, FitError, RecordError, SofthandError, WarmupError,
                     check_fields, finite, integer, json_object)
from .rand import DeterministicRng

WARMUP_CYCLES_REQUIRED = 10
DEFAULT_KAPPA_ANCHOR = 1.0  # 1/m, curvature assigned to the fitted threshold
SAMPLES_PER_LEVEL = 10  # readings a calibration session takes at each settled hold


def require_warmup(cycles) -> int:
    """cycles as an int; a fraction, a boolean or fewer than WARMUP_CYCLES_REQUIRED fail."""
    cycles = integer(cycles, "warmup_cycles")
    if cycles < WARMUP_CYCLES_REQUIRED:
        raise WarmupError(f"warmup_cycles: {cycles} warm-up inflations recorded; "
                          f"fits are only valid after >= {WARMUP_CYCLES_REQUIRED}")
    return cycles


@dataclass(frozen=True)
class PressureCurvatureFit:
    slope: float        # 1/(m*Pa)
    intercept: float    # 1/m at p = 0 extrapolated
    rms: float          # 1/m
    n_used: int


@dataclass(frozen=True)
class StrainResistanceFit:
    r0: float       # ohm
    r_lead: float   # ohm
    rms: float      # ohm
    n_used: int


@dataclass(frozen=True)
class ChannelCal:
    """Linear map from ADC counts to gauge Pa: p = gain*counts + offset."""

    gain_pa_per_count: float
    offset_pa: float
    rms_pa: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class CalibrationRecord:
    """Fitted constants for one finger, with fit residuals and warm-up provenance."""

    p_threshold_hat_pa: float
    slope_hat_per_m_pa: float
    kappa0_hat_per_m: float
    r0_hat_ohm: float
    r_lead_hat_ohm: float
    d_neutral_m: float
    pressure_channel: ChannelCal | None = None
    fit_residuals: dict = field(default_factory=dict)
    warmup_cycles: int = WARMUP_CYCLES_REQUIRED

    def __post_init__(self):
        require_warmup(self.warmup_cycles)
        # Every number must survive record_json -> load_record (JSON has no NaN/inf).
        # The sensor inverse and the radius estimate divide by r0 and d_neutral
        # and subtract r_lead, so they are checked here, once, not per use.
        check_fields(self, positive=("r0_hat_ohm", "d_neutral_m"),
                     non_negative=("r_lead_hat_ohm",))
        for key, value in self.fit_residuals.items():
            if not isinstance(key, str):  # a JSON object's keys are strings
                raise DomainError(f"fit_residuals.{key}: must be named by a string, got {key!r}")
            finite(value, f"fit_residuals.{key}")


def ideal_record(params: physics.ActuatorParams, chain: sensors.SensorChain) -> CalibrationRecord:
    """Record a perfectly calibrated finger would produce (used as simulator ground truth)."""
    adc_gain = (chain.adc.v_ref / chain.adc.full_scale_counts / chain.pressure.amp_gain
                * chain.pressure.full_scale_pressure / chain.pressure.full_scale_voltage)
    return CalibrationRecord(
        p_threshold_hat_pa=params.p_threshold,
        slope_hat_per_m_pa=params.slope_m,
        kappa0_hat_per_m=params.kappa_at_threshold,
        r0_hat_ohm=chain.gauge.r0,
        r_lead_hat_ohm=chain.gauge.r_lead,
        d_neutral_m=chain.d_neutral,
        pressure_channel=ChannelCal(adc_gain, 0.0, 0.0),
        fit_residuals={},
        warmup_cycles=WARMUP_CYCLES_REQUIRED)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y = a*x + b; returns (a, b, rms residual)."""
    design = np.column_stack([x, np.ones_like(x)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        raise FitError("rank-deficient design matrix (inputs do not vary)")
    resid = y - design @ coeffs
    return float(coeffs[0]), float(coeffs[1]), float(np.sqrt(np.mean(resid ** 2)))


def finite_samples(values, name: str) -> np.ndarray:
    """values as a float array; the first NaN or infinite sample is a FitError naming it.

    Samples are counted from 1, as the CSV reader counts data rows.
    """
    samples = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise FitError(f"{name}: sample {bad[0] + 1} of {samples.size} is not finite "
                       f"({samples[bad[0]]})")
    return samples


def fit_pressure_curvature(pressures, curvatures, p_min_fit: float) -> PressureCurvatureFit:
    """OLS of curvature on pressure over the samples with p >= p_min_fit."""
    p = finite_samples(pressures, "pressures")
    k = finite_samples(curvatures, "curvatures")
    if p.shape != k.shape:
        raise FitError(f"{p.size} pressures but {k.size} curvatures")
    keep = p >= p_min_fit
    p, k = p[keep], k[keep]
    if p.size < 3:
        raise FitError(f"need >= 3 samples with p >= {p_min_fit}, got {p.size}")
    if np.ptp(p) == 0.0:
        raise FitError("all sample pressures equal; slope is unidentifiable")
    slope, intercept, rms = _ols(p, k)
    return PressureCurvatureFit(slope=slope, intercept=intercept, rms=rms, n_used=int(p.size))


def threshold_from_fit(fit: PressureCurvatureFit,
                       kappa_anchor: float = DEFAULT_KAPPA_ANCHOR) -> float:
    """Threshold pressure where the fitted line crosses the anchor curvature.

    The supra-threshold line alone cannot separate (p_threshold,
    kappa_at_threshold); by convention the threshold is anchored at the
    curvature value kappa_anchor (default 1/m, i.e. 1 m bend radius).
    """
    if fit.slope <= 0.0:
        raise FitError(f"fitted slope {fit.slope} is not positive; threshold undefined")
    return (kappa_anchor - fit.intercept) / fit.slope


def fit_strain_resistance(strains, resistances) -> StrainResistanceFit:
    """Least squares of R against (1+eps)^2 with free offset (lead resistance)."""
    eps = finite_samples(strains, "strains")
    r = finite_samples(resistances, "resistances")
    if eps.shape != r.shape:
        raise FitError(f"{eps.size} strains but {r.size} resistances")
    if eps.size < 3:
        raise FitError(f"need >= 3 samples, got {eps.size}")
    if np.any(eps <= -1.0):
        raise FitError("strain <= -1 present in samples")
    if np.unique(eps).size < 2:
        raise FitError("all samples at the same strain; r0 and r_lead are not separable")
    x = (1.0 + eps) ** 2
    r0, r_lead, rms = _ols(x, r)
    return StrainResistanceFit(r0=r0, r_lead=r_lead, rms=rms, n_used=int(eps.size))


# --- simulated calibration sessions ---------------------------------------

@dataclass(frozen=True)
class CalibrationData:
    """Measured (pressure, curvature) samples from a stepped-hold session."""

    pressures: np.ndarray
    curvatures: np.ndarray
    warmup_cycles: int


_FAULT, _HOLDING = controller.Mode.FAULT, controller.Mode.HOLDING


def simulate_calibration_run(params: physics.ActuatorParams, chain: sensors.SensorChain,
                             levels_pa, seed: int, settle_s: float = 2.5,
                             dt: float = physics.DEFAULT_DT) -> CalibrationData:
    """Servo one finger through stepped pressure holds and sample both channels.

    Each level is held for settle_s after the controller reaches Holding so
    the viscoelastic lag dies out, then sampled SAMPLES_PER_LEVEL times;
    quasi-static sampling mirrors how the pressure/curvature data is gathered
    on the bench. Returned values are the noisy, quantized measurements, not
    the simulator truth.

    Every tick samples, ticks the FSM and advances the plant, in that order,
    held or not. Once the FSM holds, the valves stay shut, and the plant
    runs those sealed ticks ahead by itself (physics.FingerPlant), so the
    floats, the noise read and the fsm_tick calls are those of one tick at
    a time.

    settle_s must be finite and >= 0: Holding has no timeout, so a session
    with a NaN or infinite settle_s would never end. So could noise that
    keeps breaking holds: a level that has run controller.MAX_TICKS ticks
    fails at its next tick that does not hold.
    """
    if not (0.0 <= settle_s < math.inf):
        raise DomainError(f"settle_s: must be finite and >= 0, got {settle_s}")
    config = controller.ControllerConfig(p_max=params.p_max)
    path = sensors.SensorPath(chain, ideal_record(params, chain), DeterministicRng(seed))
    # Looked up per session, not at import, so that a wrapper put on the
    # module attribute (the benchmark's tracer) sees every tick.
    fsm_tick = controller.fsm_tick
    fsm = controller.FsmState()
    tick = controller.DEFAULT_TICK_PERIOD
    plant = physics.FingerPlant(params, dt=dt, n_steps=physics.substeps(tick, dt))
    sample, advance = path.sample, plant.advance
    p_out, k_out = [], []
    t = 0.0
    holding = _HOLDING
    for level in levels_pa:
        fsm = controller.apply_command(fsm, protocol.SetPressureTarget(level), t, config)
        held_since = None
        give_up = t + (controller.MAX_TICKS - 0.5) * tick  # MAX_TICKS ticks from now
        while True:
            _, _, reading = sample(plant.pressure, plant.curvature)
            fsm, valves = fsm_tick(fsm, reading, t, config)
            advance(valves)
            t += tick
            if fsm.mode is holding:
                if held_since is None:
                    held_since = t
                if t - held_since >= settle_s:
                    break
                continue
            if fsm.mode is _FAULT:
                raise FitError(f"calibration servo faulted at level {level} Pa")
            if t >= give_up:
                raise FitError(f"calibration servo did not settle at level {level} Pa "
                               f"in {controller.MAX_TICKS} ticks")
            held_since = None
        for _ in range(SAMPLES_PER_LEVEL):
            _, _, reading = sample(plant.pressure, plant.curvature)
            p_out.append(reading.pressure)
            k_out.append(reading.curvature)
    return CalibrationData(pressures=np.array(p_out), curvatures=np.array(k_out),
                           warmup_cycles=WARMUP_CYCLES_REQUIRED)


def build_record(data: CalibrationData, chain: sensors.SensorChain, p_min_fit: float = 30e3,
                 kappa_anchor: float = DEFAULT_KAPPA_ANCHOR) -> CalibrationRecord:
    """Fit a pressure/curvature session into a record (the record enforces the warm-up gate)."""
    fit = fit_pressure_curvature(data.pressures, data.curvatures, p_min_fit)
    return CalibrationRecord(
        p_threshold_hat_pa=threshold_from_fit(fit, kappa_anchor),
        slope_hat_per_m_pa=fit.slope,
        kappa0_hat_per_m=kappa_anchor,
        r0_hat_ohm=chain.gauge.r0,
        r_lead_hat_ohm=chain.gauge.r_lead,
        d_neutral_m=chain.d_neutral,
        pressure_channel=None,
        fit_residuals={"pressure_curvature_rms_per_m": fit.rms, "n_samples": fit.n_used},
        warmup_cycles=data.warmup_cycles)


# --- record files ----------------------------------------------------------

def record_json(record: CalibrationRecord) -> str:
    """A record as JSON text with units spelled out in the key names; load_record reads it."""
    return json.dumps(asdict(record), indent=2, sort_keys=True) + "\n"


_CHANNEL_NUMBERS = tuple(f.name for f in fields(ChannelCal))
_RECORD_NUMBERS = tuple(f.name for f in fields(CalibrationRecord) if f.type == "float")


def load_record(path) -> CalibrationRecord:
    """Read a record from a file holding record_json's text.

    Malformed input raises RecordError naming the file and the JSON key:
    text that is not JSON, a document that is not an object, missing or
    unknown keys, non-numeric or non-finite numbers, a malformed
    pressure_channel or fit_residuals, and any value CalibrationRecord
    refuses (its message names the key).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, or an integer literal past Python's digit limit
        raise RecordError(f"{path}: {exc}") from None
    root = f"{path}: $"
    json_object(payload, root, _RECORD_NUMBERS, ("pressure_channel", "fit_residuals",
                                                 "warmup_cycles"), RecordError)
    numbers = {key: finite(payload[key], f"{root}.{key}", RecordError)
               for key in _RECORD_NUMBERS}
    channel = payload.get("pressure_channel")
    if channel is not None:
        where = f"{root}.pressure_channel"
        json_object(channel, where, _CHANNEL_NUMBERS, (), RecordError)
        channel = ChannelCal(**{key: finite(channel[key], f"{where}.{key}", RecordError)
                                for key in _CHANNEL_NUMBERS})
    residuals = json_object(payload.get("fit_residuals", {}), f"{root}.fit_residuals",
                            error=RecordError)
    try:
        return CalibrationRecord(pressure_channel=channel, fit_residuals=residuals,
                                 warmup_cycles=payload.get("warmup_cycles", WARMUP_CYCLES_REQUIRED),
                                 **numbers)
    except SofthandError as exc:  # its message starts with the offending key
        raise RecordError(f"{root}.{exc}") from None
