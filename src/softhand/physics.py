"""Fixed-step model of a fiber-reinforced bending actuator and its pneumatics.

One finger is a single air chamber whose gauge pressure relaxes toward the
pump (inlet open) or atmosphere (vent open), and whose uniform bending
curvature lags a piecewise-linear steady-state curve with a first-order
viscoelastic time constant. A rigid cylindrical object caps the curvature at
1/radius and converts the blocked bending into contact force.

Units: gauge Pa, 1/m, N, s. Integration is explicit Euler; the time
constants are >= 0.1 s so any dt <= 10 ms has a wide stability margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CircuitError, DomainError
from .units import PSI_TO_PA

DEFAULT_DT = 1e-3
MAX_DT = 10e-3
CONTACT_EPS = 1e-9


@dataclass(frozen=True)
class ActuatorParams:
    """Calibrated physical constants of one finger.

    p_threshold      gauge Pa, onset of bending (cross-section rounding completes)
    kappa_at_threshold  1/m, curvature right at the threshold
    slope_m          1/(m*Pa), linear curvature-per-pressure slope above threshold
    p_max            gauge Pa, maximum admissible chamber pressure
    tau_inflate/deflate  s, first-order curvature lag
    k_fill/k_vent    1/s, pressure relaxation rates toward pump / atmosphere
    d_neutral        m, distance from bending neutral axis to the strain-sensor plane
    force_gain       N*m, contact force per unit of blocked curvature
    """

    p_threshold: float = 30e3
    kappa_at_threshold: float = 1.0
    slope_m: float = 2.5e-3
    p_max: float = 12.0 * PSI_TO_PA
    tau_inflate: float = 0.4
    tau_deflate: float = 0.6
    k_fill: float = 1.0
    k_vent: float = 1.0
    d_neutral: float = 0.010
    force_gain: float = 0.1

    def __post_init__(self):
        if not (self.p_threshold > 0.0):
            raise DomainError(f"p_threshold must be > 0, got {self.p_threshold}")
        if not (self.p_max > self.p_threshold):
            raise DomainError(f"p_max ({self.p_max}) must exceed p_threshold ({self.p_threshold})")
        if not (self.slope_m > 0.0):
            raise DomainError(f"slope_m must be > 0, got {self.slope_m}")
        if self.kappa_at_threshold < 0.0:
            raise DomainError(f"kappa_at_threshold must be >= 0, got {self.kappa_at_threshold}")
        for name in ("tau_inflate", "tau_deflate", "k_fill", "k_vent"):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (self.d_neutral > 0.0):
            raise DomainError(f"d_neutral must be > 0, got {self.d_neutral}")
        if self.force_gain < 0.0:
            raise DomainError(f"force_gain must be >= 0, got {self.force_gain}")


@dataclass(frozen=True)
class Contact:
    """Active contact with a rigid object: curvature cap (1/m) and normal force (N)."""

    object_curvature_limit: float
    normal_force: float


@dataclass(frozen=True)
class ActuatorState:
    """Instantaneous physical truth of one finger."""

    pressure: float = 0.0
    curvature: float = 0.0
    contact: Contact | None = None


@dataclass(frozen=True)
class ValvePair:
    """Inlet/vent solenoid states for one actuator. Both open is a wiring fault."""

    inlet: bool = False
    vent: bool = False

    def __post_init__(self):
        if self.inlet and self.vent:
            raise CircuitError("inlet and vent of one actuator must never both be open")


@dataclass(frozen=True)
class PneumaticCircuit:
    """Shared pump plus one valve pair per actuator.

    atmosphere_offset is the slow ambient-pressure drift (Pa) seen by the
    analog sensors; it does not act on the chamber dynamics, which are in
    gauge terms already. With share_pump_flow set, the pump's flow divides
    evenly among simultaneously filling fingers (slower fills, same
    endpoints); by default the fingers fill independently.
    """

    pump_pressure: float = 10.0 * PSI_TO_PA
    valves: tuple[ValvePair, ...] = (ValvePair(),)
    atmosphere_offset: float = 0.0
    share_pump_flow: bool = False

    def __post_init__(self):
        if not (self.pump_pressure > 0.0):
            raise DomainError(f"pump_pressure must be > 0, got {self.pump_pressure}")


@dataclass(frozen=True)
class RigidObject:
    """Rigid cylinder in the finger workspace."""

    radius: float
    mass: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise DomainError(f"radius must be > 0, got {self.radius}")
        if self.mass < 0.0:
            raise DomainError(f"mass must be >= 0, got {self.mass}")


def steady_state_curvature(p: float, params: ActuatorParams) -> float:
    """Equilibrium curvature (1/m) at gauge pressure p (Pa).

    Zero below the threshold pressure (the chamber cross-section rounds out
    without bending), then kappa_at_threshold + slope_m * (p - p_threshold).
    Monotone nondecreasing over [0, p_max].
    """
    if math.isnan(p) or p < 0.0 or p > params.p_max:
        raise DomainError(f"pressure {p} outside [0, {params.p_max}]")
    if p < params.p_threshold:
        return 0.0
    return params.kappa_at_threshold + params.slope_m * (p - params.p_threshold)


def _check_dt(dt: float) -> None:
    if math.isnan(dt) or dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if dt > MAX_DT:
        raise DomainError(f"dt {dt} exceeds the {MAX_DT} s explicit-integration contract")


def step(state: ActuatorState, params: ActuatorParams, circuit: PneumaticCircuit,
         obj: RigidObject | None = None, dt: float = DEFAULT_DT,
         valve_index: int = 0, fill_scale: float = 1.0) -> ActuatorState:
    """Advance one finger by dt seconds.

    Pressure: dP/dt = k_fill*(pump - P) with the inlet open, -k_vent*P with
    the vent open, 0 sealed; clamped to [0, p_max]. fill_scale < 1 models the
    pump's flow splitting across several simultaneously filling fingers.

    Curvature: first-order relaxation toward min(steady-state curvature,
    object cap). While the steady-state curvature exceeds the cap the finger
    squeezes instead of bending: normal force = force_gain * (kappa_ss - cap).
    """
    _check_dt(dt)
    valves = circuit.valves[valve_index]
    if math.isnan(state.pressure) or not (0.0 <= state.pressure <= params.p_max):
        raise DomainError(f"state pressure {state.pressure} outside [0, {params.p_max}]")
    if math.isnan(state.curvature) or state.curvature < 0.0:
        raise DomainError(f"state curvature {state.curvature} must be >= 0")

    p = state.pressure
    if valves.inlet:
        dpdt = fill_scale * params.k_fill * (circuit.pump_pressure - p)
    elif valves.vent:
        dpdt = -params.k_vent * p
    else:
        dpdt = 0.0
    p_new = min(max(p + dt * dpdt, 0.0), params.p_max)

    kappa_free = steady_state_curvature(p_new, params)
    kappa_target = kappa_free
    contact = None
    if obj is not None:
        cap = 1.0 / obj.radius
        if kappa_free >= cap:
            kappa_target = cap
            contact = Contact(cap, params.force_gain * (kappa_free - cap))

    tau = params.tau_inflate if kappa_target > state.curvature else params.tau_deflate
    kappa_new = state.curvature + dt * (kappa_target - state.curvature) / tau
    if contact is not None and kappa_new > contact.object_curvature_limit:
        kappa_new = contact.object_curvature_limit
    if kappa_new < 0.0:
        kappa_new = 0.0
    return ActuatorState(p_new, kappa_new, contact)


def hand_step(states: tuple[ActuatorState, ...], params: tuple[ActuatorParams, ...],
              circuit: PneumaticCircuit, objects: tuple[RigidObject | None, ...],
              dt: float = DEFAULT_DT) -> tuple[ActuatorState, ...]:
    """Advance every finger of the claw by dt.

    Fingers are dynamically independent (a shared object constrains each
    contacting finger separately); with circuit.share_pump_flow the fill
    rate divides among the fingers whose inlets are open. Per-finger errors
    are re-raised with the finger index attached.
    """
    n = len(states)
    if not (len(params) == n and len(objects) == n and len(circuit.valves) == n):
        raise DomainError(
            f"mismatched finger counts: {n} states, {len(params)} params, "
            f"{len(objects)} objects, {len(circuit.valves)} valve pairs")
    fill_scale = 1.0
    if circuit.share_pump_flow:
        open_inlets = sum(1 for v in circuit.valves if v.inlet)
        if open_inlets > 1:
            fill_scale = 1.0 / open_inlets
    out = []
    for i in range(n):
        try:
            out.append(step(states[i], params[i], circuit, objects[i], dt,
                            valve_index=i, fill_scale=fill_scale))
        except DomainError as exc:
            raise type(exc)(f"finger {i}: {exc}") from exc
    return tuple(out)
