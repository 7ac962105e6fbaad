"""Fit the actuator and sensor models from logged data.

Three fits: ordinary least squares of curvature against pressure above a
cutoff (threshold-plus-line actuator model), least squares of resistance
against (1+eps)^2 with a free offset reported as lead resistance, and a
linear map from pressure-channel counts to the main board's differential
reference. Fits are per-actuator by default; to pool several identically
built fingers into one line, concatenate their samples before fitting.
Elastomers soften over their first load cycles, so a fit is only accepted
when the data was recorded after at least WARMUP_CYCLES_REQUIRED full
inflations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import controller, physics, sensors
from .errors import FitError, WarmupError
from .rand import DeterministicRng
from .units import PSI_TO_PA

WARMUP_CYCLES_REQUIRED = 10
DEFAULT_KAPPA_ANCHOR = 1.0  # 1/m, curvature assigned to the fitted threshold


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
        if self.warmup_cycles < WARMUP_CYCLES_REQUIRED:
            raise WarmupError(
                f"calibration recorded after {self.warmup_cycles} warm-up inflations; "
                f"{WARMUP_CYCLES_REQUIRED} are required before the elastomer response settles")
        for name, value in (("slope", self.slope_hat_per_m_pa), ("threshold", self.p_threshold_hat_pa)):
            if not np.isfinite(value):
                raise FitError(f"non-finite fitted {name}: {value}")


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


def fit_pressure_curvature(pressures, curvatures, p_min_fit: float) -> PressureCurvatureFit:
    """OLS of curvature on pressure over the samples with p >= p_min_fit."""
    p = np.asarray(pressures, dtype=float)
    k = np.asarray(curvatures, dtype=float)
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
    eps = np.asarray(strains, dtype=float)
    r = np.asarray(resistances, dtype=float)
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


def calibrate_channel_against_reference(frames, full_scale_pa: float = 15.0 * PSI_TO_PA,
                                        min_span_fraction: float = 0.5) -> ChannelCal:
    """Linear map from pressure-channel counts to the differential reference.

    The frames must come from a reference session where the differential
    sensor shares the manifold, so reference_pressure holds the drift-free
    chamber gauge pressure. A common-mode offset added to both the channel
    and the reference slides the points along the same line and leaves the
    recovered map unchanged.
    """
    counts = np.array([f.pressure_counts for f in frames], dtype=float)
    ref = np.array([f.reference_pressure for f in frames], dtype=float)
    if counts.size < 3:
        raise FitError(f"need >= 3 frames, got {counts.size}")
    span = float(np.ptp(ref))
    if span < min_span_fraction * full_scale_pa:
        raise FitError(
            f"reference span {span:.0f} Pa covers less than "
            f"{min_span_fraction:.0%} of the {full_scale_pa:.0f} Pa range")
    gain, offset, rms = _ols(counts, ref)
    return ChannelCal(gain_pa_per_count=gain, offset_pa=offset, rms_pa=rms)


# --- simulated calibration sessions ---------------------------------------

@dataclass(frozen=True)
class CalibrationData:
    """Measured (pressure, curvature) samples from a stepped-hold session."""

    pressures: np.ndarray
    curvatures: np.ndarray
    warmup_cycles: int


def simulate_calibration_run(params: physics.ActuatorParams, chain: sensors.SensorChain,
                             levels_pa, seed: int, settle_s: float = 2.5,
                             samples_per_level: int = 10, dt: float = physics.DEFAULT_DT,
                             warmup_cycles: int = WARMUP_CYCLES_REQUIRED) -> CalibrationData:
    """Servo one finger through stepped pressure holds and sample both channels.

    Each level is held for settle_s after the controller reaches Holding so
    the viscoelastic lag dies out; quasi-static sampling mirrors how the
    pressure/curvature data is gathered on the bench. Returned values are
    the noisy, quantized measurements, not the simulator truth.
    """
    rng = DeterministicRng(seed)
    config = controller.ControllerConfig(p_max=params.p_max)
    cal = ideal_record(params, chain)
    state = physics.ActuatorState()
    fsm = controller.FsmState()
    tick = config.tick_period_s
    n_sub = physics.substeps(tick, dt)
    circuit = physics.PneumaticCircuit()
    p_out, k_out = [], []
    t = 0.0
    for level in levels_pa:
        fsm = controller.set_target(fsm, controller.pressure_target(level), t, config)
        held_since = None
        while True:
            frame = sensors.measure(state.pressure, state.curvature, chain, t, rng)
            reading = sensors.counts_to_physical(frame, chain, cal)
            measured = controller.Measurement(reading.pressure, reading.curvature)
            fsm, valves = controller.fsm_tick(fsm, measured, t, config)
            for _ in range(n_sub):
                state = physics.step(state, params, valves, dt=dt, circuit=circuit)
            t += tick
            if fsm.mode is controller.Mode.FAULT:
                raise FitError(f"calibration servo faulted at level {level} Pa")
            if fsm.mode is controller.Mode.HOLDING:
                if held_since is None:
                    held_since = t
                if t - held_since >= settle_s:
                    break
            else:
                held_since = None
        for _ in range(samples_per_level):
            frame = sensors.measure(state.pressure, state.curvature, chain, t, rng)
            reading = sensors.counts_to_physical(frame, chain, cal)
            p_out.append(reading.pressure)
            k_out.append(reading.curvature)
    return CalibrationData(pressures=np.array(p_out), curvatures=np.array(k_out),
                           warmup_cycles=warmup_cycles)


def build_record(data: CalibrationData, chain: sensors.SensorChain, p_min_fit: float = 30e3,
                 kappa_anchor: float = DEFAULT_KAPPA_ANCHOR) -> CalibrationRecord:
    """Fit a pressure/curvature session into a record (warm-up gate enforced)."""
    if data.warmup_cycles < WARMUP_CYCLES_REQUIRED:
        raise WarmupError(
            f"data recorded after {data.warmup_cycles} warm-up inflations; "
            f"{WARMUP_CYCLES_REQUIRED} required")
    fit = fit_pressure_curvature(data.pressures, data.curvatures, p_min_fit)
    return CalibrationRecord(
        p_threshold_hat_pa=threshold_from_fit(fit, kappa_anchor),
        slope_hat_per_m_pa=fit.slope,
        kappa0_hat_per_m=kappa_anchor,
        r0_hat_ohm=chain.gauge.r0,
        r_lead_hat_ohm=chain.gauge.r_lead,
        d_neutral_m=chain.d_neutral,
        pressure_channel=None,
        fit_residuals={"pressure_curvature_rms_per_m": fit.rms},
        warmup_cycles=data.warmup_cycles)


# --- record files ----------------------------------------------------------

def save_record(record: CalibrationRecord, path) -> None:
    """Write a record as JSON with units spelled out in the key names."""
    payload = asdict(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_record(path) -> CalibrationRecord:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    channel = payload.pop("pressure_channel", None)
    record = CalibrationRecord(pressure_channel=ChannelCal(**channel) if channel else None,
                               **payload)
    return record
