"""Grasp-outcome classification and conformation-change detection.

A grasp cycle traces an orbit in the (pressure, strain) plane. An empty
grasp follows a repeatable reference orbit; an object in the hand blocks
the finger early, so strain plateaus below the reference while pressure
keeps rising toward the hold level. The classifier measures that strain
deficit at hold and looks for the plateau-while-rising signature; the
blocked curvature then gives the object radius directly.

Conformation changes (the object shifting while the hand is wiggled) show
up as abrupt jumps in pressure and strain; a median-absolute-deviation
normalized first difference flags them robustly against the slow trends of
inflation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import CalibrationRecord
from .controller import DEFAULT_PRESSURE_DEADBAND
from .errors import DomainError, InsufficientDataError, check_fields
from .physics import ActuatorParams
from .units import PSI_TO_PA

MIN_SAMPLES = 10
DEFAULT_TOLERANCE_BAND = 0.01      # strain
K_JUMP = 6.0
MERGE_WINDOW = 0.050               # s
HOLD_WINDOW = 1.0                  # s
FLAT_SLOPE_FRACTION = 0.01         # of peak strain, per second
MIN_PRESSURE_RISE = 0.5 * PSI_TO_PA
HOLD_BAND = 2.0 * DEFAULT_PRESSURE_DEADBAND  # Pa, the band the FSM holds to before re-engaging
DIVERGENCE_START_PRESSURE = ActuatorParams.p_threshold + HOLD_BAND  # Pa, from the default threshold


@dataclass(frozen=True)
class PhaseOrbit:
    """Time-ordered (pressure, strain) trajectory of one grasp cycle."""

    t: np.ndarray
    pressure: np.ndarray
    strain: np.ndarray

    @classmethod
    def from_arrays(cls, t, pressure, strain) -> "PhaseOrbit":
        t = np.asarray(t, dtype=float)
        pressure = np.asarray(pressure, dtype=float)
        strain = np.asarray(strain, dtype=float)
        if not (t.size == pressure.size == strain.size):
            raise DomainError("t, pressure and strain must have equal length")
        if t.size >= 2 and np.any(np.diff(t) <= 0.0):
            raise DomainError("sample times must be strictly increasing")
        return cls(t=t, pressure=pressure, strain=strain)

    @property
    def n(self) -> int:
        return int(self.t.size)


def orbit_signed_area(orbit: PhaseOrbit) -> float:
    """Shoelace area of the closed (pressure, strain) polygon.

    Positive means the orbit is traversed counterclockwise in time
    (inflation runs under the deflation branch).
    """
    x, y = orbit.pressure, orbit.strain
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _hold_segment(p: np.ndarray, band: float) -> tuple[int, int]:
    """Index range [lo, hi] of the contiguous hold around the first pressure peak.

    The hold is every sample next to the peak with p >= peak - band; a NaN
    sample fails the comparison and so ends the segment.
    """
    peak = int(np.argmax(p))
    outside = ~(p >= p[peak] - band)
    before = np.flatnonzero(outside[:peak])
    after = np.flatnonzero(outside[peak + 1:])
    lo = int(before[-1]) + 1 if before.size else 0
    hi = peak + int(after[0]) if after.size else p.size - 1
    return lo, hi


class GraspOutcome(Enum):
    EMPTY = "Empty"
    OBJECT_GRASPED = "ObjectGrasped"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class GraspVerdict:
    outcome: GraspOutcome
    estimated_radius: float | None
    strain_deficit: float
    hold_pressure: float
    hold_strain: float


@dataclass(frozen=True)
class EmptyGraspReference:
    """Piecewise-linear pressure -> expected empty-grasp strain lookup."""

    pressures: np.ndarray
    strains: np.ndarray
    tolerance_band: float = DEFAULT_TOLERANCE_BAND

    def __post_init__(self):
        check_fields(self, positive=("tolerance_band",))

    @classmethod
    def from_orbit(cls, orbit: PhaseOrbit,
                   tolerance_band: float = DEFAULT_TOLERANCE_BAND) -> "EmptyGraspReference":
        """Build the lookup from a recorded empty grasp.

        Uses the inflate branch plus the settled hold (every sample until the
        pressure first drops HOLD_BAND below its peak), sorted by pressure
        with the strain forced nondecreasing, and extends flat down to 0 Pa
        so the domain covers the whole hold range. Including the hold lets
        the reference reflect the settled strain rather than the
        viscoelastically lagging strain seen while still inflating.
        """
        if orbit.n < MIN_SAMPLES:
            raise InsufficientDataError(f"reference orbit has {orbit.n} < {MIN_SAMPLES} samples")
        _, last = _hold_segment(orbit.pressure, HOLD_BAND)
        p = orbit.pressure[:last + 1]
        s = orbit.strain[:last + 1]
        order = np.argsort(p, kind="stable")
        p, s = p[order], np.maximum.accumulate(s[order])
        if p[0] > 0.0:
            p = np.concatenate([[0.0], p])
            s = np.concatenate([[s[0]], s])
        return cls(pressures=p, strains=s, tolerance_band=tolerance_band)

    def expected_strain(self, pressure: float) -> float:
        return float(np.interp(pressure, self.pressures, self.strains))


def _window_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y(t); 0 for degenerate windows."""
    if t.size < 2:
        return 0.0
    tc = t - t.mean()
    denom = float(np.dot(tc, tc))
    if denom == 0.0:
        return 0.0
    return float(np.dot(tc, y - y.mean()) / denom)


def _rising_pressure_flat_strain(t: np.ndarray, p: np.ndarray, s: np.ndarray,
                                 flat_thresh: float) -> bool:
    """Does any window show pressure rising >= MIN_PRESSURE_RISE while strain stays flat?

    Windows start above DIVERGENCE_START_PRESSURE so the sub-threshold region
    (strain identically zero while the chamber cross-section rounds out)
    does not count as the grasp signature.
    """
    j = 0
    for i in range(t.size):
        if p[i] < DIVERGENCE_START_PRESSURE:
            continue
        if j <= i:
            j = i + 1
        while j < t.size and p[j] - p[i] < MIN_PRESSURE_RISE:
            j += 1
        if j >= t.size:
            return False
        if abs(_window_slope(t[i:j + 1], s[i:j + 1])) < flat_thresh:
            return True
    return False


def strain_pressure_divergence(orbit: PhaseOrbit) -> bool:
    """Strict form of the blocked-finger signature, evaluated simultaneously.

    True when some window of the orbit shows the pressure rising by at least
    MIN_PRESSURE_RISE while the strain slope stays below FLAT_SLOPE_FRACTION
    of the peak strain per second: the chamber keeps charging although the
    finger has stopped moving. An empty grasp never shows this above the
    bending threshold (strain tracks pressure until both settle together).
    """
    if orbit.n < MIN_SAMPLES:
        raise InsufficientDataError(f"orbit has {orbit.n} < {MIN_SAMPLES} samples")
    _, hi = _hold_segment(orbit.pressure, HOLD_BAND)
    flat_thresh = FLAT_SLOPE_FRACTION * float(orbit.strain.max())
    return _rising_pressure_flat_strain(
        orbit.t[:hi + 1], orbit.pressure[:hi + 1], orbit.strain[:hi + 1], flat_thresh)


def classify_grasp(orbit: PhaseOrbit, ref: EmptyGraspReference,
                   cal: CalibrationRecord) -> GraspVerdict:
    """Classify one grasp cycle against an empty-grasp reference.

    Empty when the hold strain sits within the tolerance band of the
    reference. ObjectGrasped when the strain deficit exceeds the band AND
    the orbit shows the blocked-finger signature: strain slope ~ 0 over the
    trailing HOLD_WINDOW while the pressure rose by at least
    MIN_PRESSURE_RISE on the way there; the object radius is then
    d_neutral / hold strain. Anything else is Indeterminate (deficit without
    the signature, or a finger that never settled).
    """
    if orbit.n < MIN_SAMPLES:
        raise InsufficientDataError(f"orbit has {orbit.n} < {MIN_SAMPLES} samples")
    t, p, s = orbit.t, orbit.pressure, orbit.strain
    p_hold = float(p.max())
    min_hold = cal.p_threshold_hat_pa + HOLD_BAND
    if p_hold < min_hold:
        raise InsufficientDataError(
            f"orbit peaks at {p_hold:.0f} Pa, below the {min_hold:.0f} Pa hold threshold")

    lo, hi = _hold_segment(p, HOLD_BAND)
    window = (t >= t[hi] - HOLD_WINDOW) & (np.arange(p.size) >= lo) & (np.arange(p.size) <= hi)
    if not np.any(window):
        window = np.arange(p.size) == hi

    hold_strain = float(s[window].mean())
    hold_pressure = float(p[window].mean())
    deficit = ref.expected_strain(hold_pressure) - hold_strain

    if deficit <= ref.tolerance_band:
        return GraspVerdict(GraspOutcome.EMPTY, None, deficit, hold_pressure, hold_strain)

    flat_thresh = FLAT_SLOPE_FRACTION * float(s.max())
    hold_flat = abs(_window_slope(t[window], s[window])) < flat_thresh
    rose_earlier = float(p[:hi + 1].max() - p[:hi + 1].min()) >= MIN_PRESSURE_RISE
    if hold_flat and rose_earlier and hold_strain > 0.0:
        radius = cal.d_neutral_m / hold_strain
        return GraspVerdict(GraspOutcome.OBJECT_GRASPED, radius, deficit,
                            hold_pressure, hold_strain)
    return GraspVerdict(GraspOutcome.INDETERMINATE, None, deficit, hold_pressure, hold_strain)


class EventKind(Enum):
    PRESSURE_JUMP = "PressureJump"
    CURVATURE_JUMP = "CurvatureJump"


@dataclass(frozen=True)
class ConformationEvent:
    t: float
    kind: EventKind
    magnitude: float  # MAD-normalized jump statistic


def _resample_uniform(orbit: PhaseOrbit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (t, pressure, strain) on a uniform grid, interpolating if needed."""
    t = orbit.t
    dt = np.diff(t)
    step = float(np.median(dt))
    if np.max(np.abs(dt - step)) <= 1e-9 + 1e-6 * step:
        return t, orbit.pressure, orbit.strain
    grid = np.arange(t[0], t[-1] + 0.5 * step, step)
    return grid, np.interp(grid, t, orbit.pressure), np.interp(grid, t, orbit.strain)


def _jump_events(t: np.ndarray, x: np.ndarray, kind: EventKind) -> list[ConformationEvent]:
    d = np.diff(x)
    med = float(np.median(d))
    scale = 1.4826 * float(np.median(np.abs(d - med)))
    if scale <= 0.0:
        # Noise-free channel: any nonzero deviation from the typical step is a jump.
        scale = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    stat = np.abs(d - med) / scale
    idx = np.flatnonzero(stat > K_JUMP)
    events: list[ConformationEvent] = []
    cluster: list[int] = []
    for i in idx:
        if cluster and t[i + 1] - t[cluster[-1] + 1] > MERGE_WINDOW:
            best = max(cluster, key=lambda j: stat[j])
            events.append(ConformationEvent(float(t[best + 1]), kind, float(stat[best])))
            cluster = []
        cluster.append(int(i))
    if cluster:
        best = max(cluster, key=lambda j: stat[j])
        events.append(ConformationEvent(float(t[best + 1]), kind, float(stat[best])))
    return events


def detect_conformation_changes(orbit: PhaseOrbit) -> list[ConformationEvent]:
    """Abrupt pressure/strain jumps, as MAD-normalized first differences > K_JUMP.

    Events of the same kind closer than MERGE_WINDOW collapse into the
    strongest one. The stream is resampled to a uniform grid if needed.
    """
    if orbit.n < MIN_SAMPLES:
        raise InsufficientDataError(f"stream has {orbit.n} < {MIN_SAMPLES} samples")
    t, p, s = _resample_uniform(orbit)
    events = (_jump_events(t, p, EventKind.PRESSURE_JUMP)
              + _jump_events(t, s, EventKind.CURVATURE_JUMP))
    events.sort(key=lambda e: (e.t, e.kind.value))
    return events


def detect_settled(orbit: PhaseOrbit, window_s: float, sigma_max: float) -> float | None:
    """Earliest time the strain has been quiet for a full window.

    Quiet means the rolling standard deviation of strain over [t - window, t]
    is <= sigma_max and no event of detect_conformation_changes falls inside
    that window. Returns None if the stream never settles.
    """
    if not (window_s > 0.0):
        raise DomainError(f"window must be > 0, got {window_s}")
    if orbit.n < MIN_SAMPLES:
        raise InsufficientDataError(f"stream has {orbit.n} < {MIN_SAMPLES} samples")
    t, _, s = _resample_uniform(orbit)
    event_times = np.array([e.t for e in detect_conformation_changes(orbit)])

    csum = np.concatenate([[0.0], np.cumsum(s)])
    csum2 = np.concatenate([[0.0], np.cumsum(s * s)])
    j = 0
    for i in range(t.size):
        if t[i] - t[0] < window_s:
            continue
        while t[i] - t[j] > window_s:
            j += 1
        n = i - j + 1
        var = (csum2[i + 1] - csum2[j]) / n - ((csum[i + 1] - csum[j]) / n) ** 2
        if var < 0.0:
            var = 0.0
        if np.sqrt(var) <= sigma_max and not np.any(
                (event_times >= t[i] - window_s) & (event_times <= t[i])):
            return float(t[i])
    return None
