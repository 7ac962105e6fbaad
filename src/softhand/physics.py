"""Fixed-step model of a fiber-reinforced bending actuator and its pneumatics.

One finger is a single air chamber whose gauge pressure relaxes toward the
pump (inlet open) or atmosphere (vent open), and whose uniform bending
curvature lags a piecewise-linear steady-state curve with a first-order
viscoelastic time constant. A rigid cylindrical object caps the curvature at
1/radius and converts the blocked bending into contact force.

The plant's input is one ValvePair per finger, the type the valve FSM
returns. PneumaticCircuit holds what is fixed for a run: the pump pressure
and whether the fingers share its flow. A closed loop holds one FingerPlant
per finger per run, which reads the parameters and checks dt and the start
state once and owns the state as floats; each advance runs a control tick's
n_steps substeps. step and hand_step build a plant and advance it once.

Units: gauge Pa, 1/m, N, s. Integration is explicit Euler; the time
constants are >= 0.1 s so any dt <= 10 ms has a wide stability margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CircuitError, DomainError, check_fields
from .units import PSI_TO_PA

DEFAULT_DT = 1e-3
MAX_DT = 10e-3
# A smaller step resolves nothing the >= 0.1 s time constants need, and a
# step that rounds to zero would ask for a practically endless run.
MIN_DT = 1e-5


@dataclass(frozen=True)
class ActuatorParams:
    """Calibrated physical constants of one finger.

    p_threshold      gauge Pa, onset of bending (cross-section rounding completes)
    kappa_at_threshold  1/m, curvature right at the threshold
    slope_m          1/(m*Pa), linear curvature-per-pressure slope above threshold
    p_max            gauge Pa, maximum admissible chamber pressure
    tau_inflate/deflate  s, first-order curvature lag
    k_fill/k_vent    1/s, pressure relaxation rates toward pump / atmosphere
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
    force_gain: float = 0.1

    def __post_init__(self):
        # Finite constants keep every substep of step() inside [0, p_max] x [0, inf)
        # (an infinite rate times a zero pressure would give NaN).
        check_fields(self, positive=("p_threshold", "slope_m", "tau_inflate", "tau_deflate",
                                     "k_fill", "k_vent"),
                     non_negative=("kappa_at_threshold", "force_gain"))
        if not (self.p_max > self.p_threshold):
            raise DomainError(f"p_max: must be > p_threshold ({self.p_threshold}), "
                              f"got {self.p_max}")


@dataclass(frozen=True)
class ActuatorState:
    """Instantaneous physical truth of one finger.

    contact_force is the normal force (N) the finger presses on a rigid
    object; it is 0 while the finger bends freely.
    """

    pressure: float = 0.0
    curvature: float = 0.0
    contact_force: float = 0.0


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
    """The shared pump: constant for a whole run, built once per run.

    With share_pump_flow set, the pump's flow divides evenly among
    simultaneously filling fingers (slower fills, same endpoints); by default
    the fingers fill independently. The valves are not part of the circuit:
    step and hand_step take them per tick.
    """

    pump_pressure: float = 10.0 * PSI_TO_PA
    share_pump_flow: bool = False

    def __post_init__(self):
        check_fields(self, positive=("pump_pressure",))
        if not isinstance(self.share_pump_flow, bool):
            raise DomainError(f"share_pump_flow: expected a boolean, got {self.share_pump_flow!r}")


@dataclass(frozen=True)
class RigidObject:
    """Rigid cylinder in the finger workspace."""

    radius: float

    def __post_init__(self):
        check_fields(self, positive=("radius",))


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
    if dt < MIN_DT:
        raise DomainError(f"dt {dt} is below the {MIN_DT} s floor of the simulation")


def substeps(tick: float, dt: float) -> int:
    """Physics steps per control tick; tick must be an integer multiple of dt."""
    _check_dt(dt)
    n_sub = round(tick / dt)
    if n_sub < 1 or abs(tick - n_sub * dt) > 1e-12:
        raise DomainError(f"tick ({tick} s) must be an integer multiple of dt ({dt} s)")
    return n_sub


def _check_state(p: float, kappa: float, p_max: float) -> None:
    if math.isnan(p) or not (0.0 <= p <= p_max):
        raise DomainError(f"state pressure {p} outside [0, {p_max}]")
    if not (0.0 <= kappa < math.inf):
        raise DomainError(f"state curvature {kappa} must be finite and >= 0")


class FingerPlant:
    """One finger for a whole run: constants read, and dt, n_steps and state checked, once."""

    __slots__ = ("pressure", "curvature", "contact_force", "_p_max", "_k_fill", "_consts")

    def __init__(self, params: ActuatorParams, obj: RigidObject | None = None,
                 dt: float = DEFAULT_DT, circuit: PneumaticCircuit = PneumaticCircuit(),
                 n_steps: int = 1, state: ActuatorState = ActuatorState()):
        _check_dt(dt)
        if n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {n_steps}")
        _check_state(state.pressure, state.curvature, params.p_max)
        self.pressure, self.curvature = state.pressure, state.curvature
        self.contact_force = state.contact_force
        self._p_max, self._k_fill = params.p_max, params.k_fill
        self._consts = (dt, n_steps, params.p_max, circuit.pump_pressure, -params.k_vent,
                        params.p_threshold, params.kappa_at_threshold, params.slope_m,
                        params.force_gain, params.tau_inflate, params.tau_deflate,
                        None if obj is None else 1.0 / obj.radius)

    @property
    def state(self) -> ActuatorState:
        return ActuatorState(self.pressure, self.curvature, self.contact_force)

    def kick(self, d_pressure: float, d_curvature: float) -> None:
        """Add a disturbance, clamped into [0, p_max] x [0, inf); a non-finite result fails."""
        p = min(max(self.pressure + d_pressure, 0.0), self._p_max)
        kappa = max(self.curvature + d_curvature, 0.0)
        _check_state(p, kappa, self._p_max)
        self.pressure, self.curvature = p, kappa

    def advance(self, valves: ValvePair, fill_scale: float = 1.0) -> None:
        """Run n_steps substeps of dt with the given valves (see step for the equations)."""
        (dt, n_steps, p_max, pump, neg_k_vent, p_threshold, kappa_at_threshold, slope_m,
         force_gain, tau_inflate, tau_deflate, obj_cap) = self._consts
        p, kappa = self.pressure, self.curvature
        inlet, vent = valves.inlet, valves.vent
        fill_rate = fill_scale * self._k_fill
        inf = math.inf
        for _ in range(n_steps):
            if inlet:
                dpdt = fill_rate * (pump - p)
            elif vent:
                dpdt = neg_k_vent * p
            else:
                dpdt = 0.0
            # min(max(p + dt * dpdt, 0.0), p_max) without the two builtin calls.
            p = p + dt * dpdt
            if p < 0.0:
                p = 0.0
            elif p > p_max:
                p = p_max

            # steady_state_curvature(p), whose range check p satisfies here.
            if p < p_threshold:
                kappa_target = 0.0
            else:
                kappa_target = kappa_at_threshold + slope_m * (p - p_threshold)
            cap = inf
            force = 0.0
            if obj_cap is not None and kappa_target >= obj_cap:
                cap = obj_cap
                force = force_gain * (kappa_target - cap)
                kappa_target = cap

            tau = tau_inflate if kappa_target > kappa else tau_deflate
            kappa = kappa + dt * (kappa_target - kappa) / tau
            if kappa > cap:
                kappa = cap
            if kappa < 0.0:
                kappa = 0.0
        self.pressure, self.curvature, self.contact_force = p, kappa, force


def step(state: ActuatorState, params: ActuatorParams, valves: ValvePair,
         obj: RigidObject | None = None, dt: float = DEFAULT_DT,
         circuit: PneumaticCircuit = PneumaticCircuit(),
         fill_scale: float = 1.0, n_steps: int = 1) -> ActuatorState:
    """Advance one finger by n_steps substeps of dt seconds with the given valves.

    Pressure: dP/dt = k_fill*(pump - P) with the inlet open, -k_vent*P with
    the vent open, 0 sealed; clamped to [0, p_max]. fill_scale < 1 models the
    pump's flow splitting across several simultaneously filling fingers.

    Curvature: first-order relaxation toward min(steady-state curvature,
    object cap). While the steady-state curvature reaches the cap the finger
    squeezes instead of bending: contact force = force_gain * (kappa_ss - cap).

    This is FingerPlant built from state and advanced once, so n_steps
    substeps give exactly the floats of n_steps chained single-step calls.
    """
    plant = FingerPlant(params, obj, dt, circuit, n_steps, state)
    plant.advance(valves, fill_scale)
    return plant.state


def pump_fill_scale(circuit: PneumaticCircuit, valves) -> float:
    """Share of the fill rate each open inlet gets: 1/open inlets with a shared pump, else 1."""
    if circuit.share_pump_flow:
        open_inlets = [v.inlet for v in valves].count(True)
        if open_inlets > 1:
            return 1.0 / open_inlets
    return 1.0


def hand_step(states: tuple[ActuatorState, ...], params: tuple[ActuatorParams, ...],
              valves: tuple[ValvePair, ...], objects: tuple[RigidObject | None, ...],
              dt: float = DEFAULT_DT,
              circuit: PneumaticCircuit = PneumaticCircuit(),
              n_steps: int = 1) -> tuple[ActuatorState, ...]:
    """Advance every finger of the claw by n_steps substeps of dt, finger i with valves[i].

    Fingers are dynamically independent (a shared object constrains each
    contacting finger separately), so each finger takes its n_steps substeps
    in one step call; with circuit.share_pump_flow the fill rate divides
    among the fingers whose inlets are open (pump_fill_scale). Per-finger
    errors are re-raised with the finger index attached.
    """
    n = len(states)
    if not (len(params) == n and len(objects) == n and len(valves) == n):
        raise DomainError(
            f"mismatched finger counts: {n} states, {len(params)} params, "
            f"{len(objects)} objects, {len(valves)} valve pairs")
    fill_scale = pump_fill_scale(circuit, valves)
    out = []
    for i in range(n):
        try:
            out.append(step(states[i], params[i], valves[i], objects[i], dt, circuit,
                            fill_scale, n_steps))
        except DomainError as exc:
            raise type(exc)(f"finger {i}: {exc}") from exc
    return tuple(out)
