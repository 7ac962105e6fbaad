import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softhand.errors import CircuitError, DomainError
from softhand.physics import (MAX_DT, MIN_DT, SPAN_CAP, ActuatorParams, ActuatorState,
                              FingerPlant, PneumaticCircuit, RigidObject, ValvePair, hand_step,
                              steady_state_curvature, step)
from softhand.units import psi

INLET = ValvePair(inlet=True)
VENT = ValvePair(vent=True)
SEALED = ValvePair()
PUMP_8PSI = PneumaticCircuit(pump_pressure=psi(8))


def run_single(state, params, valves, obj=None, dt=1e-3, seconds=1.0,
               circuit=PneumaticCircuit()):
    for _ in range(round(seconds / dt)):
        state = step(state, params, valves, obj, dt, circuit)
    return state


class TestSteadyStateCurvature:
    def test_threshold_anchor_exact(self, default_params):
        assert steady_state_curvature(30e3, default_params) == 1.0

    def test_zero_pressure_is_straight(self, default_params):
        assert steady_state_curvature(0.0, default_params) == 0.0

    def test_subthreshold_is_zero(self, default_params):
        for p in (1.0, 10e3, 29_999.999):
            assert steady_state_curvature(p, default_params) == 0.0

    def test_linear_law_at_alternate_slope(self):
        # 1.0 + 7.54e-4 * (55200 - 30000) = 20.0008, by hand.
        params = ActuatorParams(slope_m=0.754e-3)
        assert steady_state_curvature(55.2e3, params) == pytest.approx(20.0008, abs=1e-9)

    def test_out_of_range_pressure_rejected(self, default_params):
        with pytest.raises(DomainError):
            steady_state_curvature(-1.0, default_params)
        with pytest.raises(DomainError):
            steady_state_curvature(default_params.p_max + 1.0, default_params)
        with pytest.raises(DomainError):
            steady_state_curvature(float("nan"), default_params)

    def test_monotone_nondecreasing_for_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p_threshold = rng.uniform(5e3, 60e3)
            params = ActuatorParams(
                p_threshold=p_threshold,
                kappa_at_threshold=rng.uniform(0.0, 3.0),
                slope_m=rng.uniform(1e-4, 5e-3),
                p_max=p_threshold + rng.uniform(10e3, 80e3))
            grid = np.linspace(0.0, params.p_max, 200)
            kappas = [steady_state_curvature(p, params) for p in grid]
            assert all(b >= a for a, b in zip(kappas, kappas[1:]))


class TestStep:
    def test_equilibrium_is_fixed_point(self, default_params):
        p = 50e3
        state = ActuatorState(pressure=p, curvature=steady_state_curvature(p, default_params))
        assert step(state, default_params, SEALED) == state

    def test_contact_convergence_matches_tiny_dt_oracle(self, default_params):
        # Inflate against the 7.4 cm cylinder at an 8 PSI source: curvature
        # must converge to 1/0.074 = 13.51 1/m with positive force.
        obj = RigidObject(radius=0.074)
        final = run_single(ActuatorState(), default_params, INLET, obj, dt=1e-3, seconds=20.0,
                           circuit=PUMP_8PSI)
        assert final.curvature == pytest.approx(1.0 / 0.074, rel=1e-6)
        assert final.contact_force > 0.0

        # Independent oracle: re-integrate the stated equations at dt = 1e-5.
        par = default_params
        p_o, k_o = 0.0, 0.0
        dt_o = 1e-5
        for _ in range(round(20.0 / dt_o)):
            p_o = min(max(p_o + dt_o * par.k_fill * (psi(8) - p_o), 0.0), par.p_max)
            if p_o < par.p_threshold:
                k_ss = 0.0
            else:
                k_ss = par.kappa_at_threshold + par.slope_m * (p_o - par.p_threshold)
            k_target = min(k_ss, 1.0 / 0.074)
            tau = par.tau_inflate if k_target > k_o else par.tau_deflate
            k_o = k_o + dt_o * (k_target - k_o) / tau
        assert final.curvature == pytest.approx(k_o, rel=1e-4)
        assert final.pressure == pytest.approx(p_o, rel=1e-3)

    def test_contact_force_value(self, default_params):
        obj = RigidObject(radius=0.074)
        final = run_single(ActuatorState(), default_params, INLET, obj, seconds=20.0,
                           circuit=PUMP_8PSI)
        kappa_free = steady_state_curvature(final.pressure, default_params)
        expected = default_params.force_gain * (kappa_free - 1.0 / 0.074)
        assert final.contact_force == pytest.approx(expected, rel=1e-9)

    def test_full_vent_returns_to_rest(self, default_params):
        start = ActuatorState(pressure=psi(8), curvature=40.0)
        final = run_single(start, default_params, VENT, seconds=30.0)
        assert final.pressure < 1.0
        assert final.curvature < 1e-6

    def test_pressure_clamped_to_admissible_range(self, default_params):
        params = replace(default_params, p_max=psi(9))
        final = run_single(ActuatorState(), params, INLET, seconds=30.0)
        assert final.pressure == params.p_max

    def test_contact_cap_never_exceeded(self, default_params):
        rng = np.random.default_rng(3)
        obj = RigidObject(radius=0.05)
        cap = 1.0 / obj.radius
        state = ActuatorState()
        choices = [INLET, VENT, SEALED]
        for _ in range(5000):
            valves = choices[rng.integers(0, 3)]
            state = step(state, default_params, valves, obj, dt=1e-3)
            assert state.curvature <= cap + 1e-9

    def test_force_monotone_in_pressure_at_fixed_contact(self, default_params):
        obj = RigidObject(radius=0.074)
        forces = []
        for p in np.linspace(40e3, default_params.p_max, 30):
            state = ActuatorState(pressure=p, curvature=1.0 / obj.radius)
            out = step(state, default_params, SEALED, obj)
            forces.append(out.contact_force)
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_bad_dt_rejected(self, default_params):
        for dt in (0.0, -1e-3, float("nan"), 0.011):
            with pytest.raises(DomainError):
                step(ActuatorState(), default_params, SEALED, dt=dt)

    def test_both_valves_open_rejected(self):
        with pytest.raises(CircuitError):
            ValvePair(inlet=True, vent=True)

    def test_hysteresis_loop_is_counterclockwise(self, default_params):
        # Slow fill then full vent; the (pressure, curvature) loop must
        # enclose positive area (counterclockwise traversal in time).
        state = ActuatorState()
        points = []
        for valves, seconds in ((INLET, 6.0), (VENT, 10.0)):
            for _ in range(round(seconds / 1e-3)):
                state = step(state, default_params, valves, dt=1e-3)
                points.append((state.pressure, state.curvature))
        xy = np.array(points)
        x, y = xy[:, 0], xy[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert area > 0.0

    def test_determinism(self, default_params):
        def trajectory():
            state = ActuatorState()
            out = []
            for k in range(2000):
                valves = INLET if k < 1200 else VENT
                state = step(state, default_params, valves, RigidObject(radius=0.06))
                out.append((state.pressure, state.curvature))
            return out

        assert trajectory() == trajectory()

    def test_halving_dt_changes_samples_by_under_one_percent(self, default_params):
        def run(dt):
            state = ActuatorState()
            samples = []
            n = round(3.0 / dt)
            every = round(0.1 / dt)
            for k in range(n):
                state = step(state, default_params, INLET, dt=dt)
                if (k + 1) % every == 0:
                    samples.append((state.pressure, state.curvature))
            return np.array(samples)

        a, b = run(1e-3), run(0.5e-3)
        # Relative to each channel's full scale; per-sample ratios blow up
        # for the near-zero samples right after the bending threshold.
        scale = np.abs(a).max(axis=0)
        assert np.all(np.abs(a - b) / scale < 0.01)


@st.composite
def actuator_params(draw):
    p_threshold = draw(st.floats(5e3, 60e3))
    return ActuatorParams(
        p_threshold=p_threshold,
        kappa_at_threshold=draw(st.floats(0.0, 3.0)),
        slope_m=draw(st.floats(1e-4, 5e-3)),
        p_max=p_threshold + draw(st.floats(1e3, 80e3)),
        tau_inflate=draw(st.floats(0.1, 1.0)),
        tau_deflate=draw(st.floats(0.1, 1.0)),
        k_fill=draw(st.floats(0.1, 5.0)),
        k_vent=draw(st.floats(0.1, 5.0)),
        force_gain=draw(st.floats(0.0, 1.0)))


class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(params=actuator_params(),
           radius=st.none() | st.floats(0.01, 0.2),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 120.0)),
           pump=st.floats(1e3, 150e3),
           schedule=st.lists(st.tuples(st.sampled_from((SEALED, INLET, VENT)),
                                       st.integers(1, 400)), min_size=1, max_size=8),
           dt=st.sampled_from((5e-4, 1e-3, 2.5e-3, 5e-3)))
    def test_state_stays_admissible(self, params, radius, start, pump, schedule, dt):
        obj = None if radius is None else RigidObject(radius=radius)
        circuit = PneumaticCircuit(pump_pressure=pump)
        state = ActuatorState(pressure=start[0] * params.p_max, curvature=start[1])
        for valves, n in schedule:
            for _ in range(n):
                state = step(state, params, valves, obj, dt, circuit)
                assert 0.0 <= state.pressure <= params.p_max
                assert state.curvature >= 0.0
                assert state.contact_force >= 0.0
                if obj is None:
                    assert state.contact_force == 0.0
                elif state.contact_force > 0.0:
                    assert state.curvature <= 1.0 / obj.radius


def reference_step(state, params, valves, obj, dt, circuit, fill_scale):
    """One substep as the model's equations read, term by term, in step's float order."""
    p = state.pressure
    if valves.inlet:
        dpdt = fill_scale * params.k_fill * (circuit.pump_pressure - p)
    elif valves.vent:
        dpdt = -params.k_vent * p
    else:
        dpdt = 0.0
    p_new = min(max(p + dt * dpdt, 0.0), params.p_max)
    kappa_target = steady_state_curvature(p_new, params)
    cap, force = float("inf"), 0.0
    if obj is not None and kappa_target >= 1.0 / obj.radius:
        cap = 1.0 / obj.radius
        force = params.force_gain * (kappa_target - cap)
        kappa_target = cap
    tau = params.tau_inflate if kappa_target > state.curvature else params.tau_deflate
    kappa_new = state.curvature + dt * (kappa_target - state.curvature) / tau
    if kappa_new > cap:
        kappa_new = cap
    if kappa_new < 0.0:
        kappa_new = 0.0
    return ActuatorState(p_new, kappa_new, force)


class TestFusedSubsteps:
    """n_steps substeps in one call give exactly the floats of n_steps chained calls."""

    @settings(max_examples=80, deadline=None)
    @given(params=actuator_params(),
           radius=st.none() | st.floats(0.01, 0.2),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 120.0)),
           pump=st.floats(1e3, 150e3),
           valves=st.sampled_from((SEALED, INLET, VENT)),
           fill_scale=st.sampled_from((1.0, 0.5, 1.0 / 3.0)) | st.floats(0.05, 1.0),
           n_steps=st.integers(1, 12),
           dt=st.sampled_from((5e-4, 1e-3, 2.5e-3, 5e-3)))
    def test_step_equals_chained_single_steps(self, params, radius, start, pump, valves,
                                              fill_scale, n_steps, dt):
        obj = None if radius is None else RigidObject(radius=radius)
        circuit = PneumaticCircuit(pump_pressure=pump)
        state = ActuatorState(pressure=start[0] * params.p_max, curvature=start[1])
        chained = reference = state
        for _ in range(n_steps):
            chained = step(chained, params, valves, obj, dt, circuit, fill_scale)
            reference = reference_step(reference, params, valves, obj, dt, circuit, fill_scale)
        fused = step(state, params, valves, obj, dt, circuit, fill_scale, n_steps=n_steps)
        assert fused == chained
        assert fused == reference

    @settings(max_examples=40, deadline=None)
    @given(params=actuator_params(),
           valves=st.tuples(*[st.sampled_from((SEALED, INLET, VENT))] * 3),
           radii=st.tuples(*[st.none() | st.floats(0.01, 0.2)] * 3),
           shared=st.booleans(),
           ticks=st.integers(1, 6))
    def test_hand_step_equals_chained_single_steps(self, params, valves, radii, shared, ticks):
        objects = tuple(None if r is None else RigidObject(radius=r) for r in radii)
        circuit = PneumaticCircuit(share_pump_flow=shared)
        fused = chained = tuple(ActuatorState() for _ in range(3))
        for _ in range(ticks):
            fused = hand_step(fused, (params,) * 3, valves, objects, circuit=circuit, n_steps=5)
            for _ in range(5):
                chained = hand_step(chained, (params,) * 3, valves, objects, circuit=circuit)
        assert fused == chained

    def test_n_steps_below_one_rejected(self, default_params):
        for n_steps in (0, -1):
            with pytest.raises(DomainError, match="n_steps"):
                step(ActuatorState(), default_params, SEALED, n_steps=n_steps)

    def test_bad_state_rejected_once_per_call(self, default_params):
        with pytest.raises(DomainError, match="state curvature"):
            step(ActuatorState(curvature=float("nan")), default_params, INLET, n_steps=5)
        with pytest.raises(DomainError, match="state pressure"):
            step(ActuatorState(pressure=-1.0), default_params, INLET, n_steps=5)

    def test_infinite_state_curvature_rejected(self, default_params):
        # An infinite curvature would turn into NaN on the first substep.
        with pytest.raises(DomainError, match="state curvature"):
            step(ActuatorState(curvature=float("inf")), default_params, VENT, n_steps=5)


def float_bits(state):
    return tuple(float.hex(x) for x in (state.pressure, state.curvature, state.contact_force))


def reference_kick(state, params, d_pressure, d_curvature):
    """The disturbance as the runner applied it inline before FingerPlant.kick."""
    return replace(state,
                   pressure=min(max(state.pressure + d_pressure, 0.0), params.p_max),
                   curvature=max(state.curvature + d_curvature, 0.0))


PLANT_OPS = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from((SEALED, INLET, VENT)),
              st.sampled_from((1.0, 0.5, 1.0 / 3.0)) | st.floats(0.05, 1.0)),
    st.tuples(st.just("kick"), st.floats(-150e3, 150e3), st.floats(-200.0, 200.0)))


class TestFingerPlant:
    """One plant for a whole run equals step() re-entered through ActuatorState each tick."""

    @settings(max_examples=80, deadline=None)
    @given(params=actuator_params(),
           radius=st.none() | st.floats(0.01, 0.2),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 120.0)),
           pump=st.floats(1e3, 150e3),
           n_steps=st.integers(1, 6),
           dt=st.sampled_from((5e-4, 1e-3, 2.5e-3, 5e-3)),
           ops=st.lists(PLANT_OPS, min_size=1, max_size=30))
    def test_plant_equals_chained_steps(self, params, radius, start, pump, n_steps, dt, ops):
        obj = None if radius is None else RigidObject(radius=radius)
        circuit = PneumaticCircuit(pump_pressure=pump)
        state = ActuatorState(pressure=start[0] * params.p_max, curvature=start[1])
        plant = FingerPlant(params, obj, dt, circuit, n_steps, state)
        chained = reference = state
        for op, a, b in ops:
            if op == "advance":
                plant.advance(a, b)
                chained = step(chained, params, a, obj, dt, circuit, b, n_steps)
                for _ in range(n_steps):
                    reference = reference_step(reference, params, a, obj, dt, circuit, b)
            else:
                plant.kick(a, b)
                chained = reference_kick(chained, params, a, b)
                reference = reference_kick(reference, params, a, b)
            assert float_bits(plant.state) == float_bits(chained) == float_bits(reference)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(dt=0.0), "dt must be > 0, got 0.0"),
        (dict(dt=-1e-3), "dt must be > 0, got -0.001"),
        (dict(dt=math.nan), "dt must be > 0, got nan"),
        (dict(dt=2 * MAX_DT), f"dt {2 * MAX_DT} exceeds the {MAX_DT} s explicit-integration contract"),
        (dict(dt=1e-300), f"dt 1e-300 is below the {MIN_DT} s floor of the simulation"),
        (dict(n_steps=0), "n_steps must be >= 1, got 0"),
        (dict(n_steps=-3), "n_steps must be >= 1, got -3"),
        (dict(state=ActuatorState(pressure=math.nan)), "state pressure nan outside [0, {p_max}]"),
        (dict(state=ActuatorState(pressure=-1.0)), "state pressure -1.0 outside [0, {p_max}]"),
        (dict(state=ActuatorState(pressure=1e6)), "state pressure 1000000.0 outside [0, {p_max}]"),
        (dict(state=ActuatorState(curvature=math.nan)),
         "state curvature nan must be finite and >= 0"),
        (dict(state=ActuatorState(curvature=math.inf)),
         "state curvature inf must be finite and >= 0"),
        (dict(state=ActuatorState(curvature=-0.5)),
         "state curvature -0.5 must be finite and >= 0"),
    ], ids=["dt_zero", "dt_negative", "dt_nan", "dt_too_large", "dt_below_floor", "n_steps_zero",
            "n_steps_negative", "pressure_nan", "pressure_negative", "pressure_over_p_max",
            "curvature_nan", "curvature_inf", "curvature_negative"])
    def test_constructor_rejects_as_step_does(self, default_params, kwargs, message):
        message = message.format(p_max=default_params.p_max)
        args = {"dt": 1e-3, "n_steps": 1, "state": ActuatorState(), **kwargs}
        with pytest.raises(DomainError) as plant_exc:
            FingerPlant(default_params, None, args["dt"], PneumaticCircuit(), args["n_steps"],
                        args["state"])
        with pytest.raises(DomainError) as step_exc:
            step(args["state"], default_params, SEALED, None, args["dt"],
                 n_steps=args["n_steps"])
        assert str(plant_exc.value) == str(step_exc.value) == message
        assert type(plant_exc.value) is type(step_exc.value) is DomainError

    @settings(max_examples=200, deadline=None)
    @given(params=actuator_params(),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e308)),
           d_pressure=st.floats(allow_nan=False),
           d_curvature=st.floats(allow_nan=False, allow_infinity=False))
    @example(params=ActuatorParams(), start=(0.5, 1e308), d_pressure=0.0, d_curvature=1e308)
    def test_kick_clamps_into_admissible_range(self, params, start, d_pressure, d_curvature):
        state = ActuatorState(pressure=start[0] * params.p_max, curvature=start[1],
                              contact_force=0.25)
        plant = FingerPlant(params, state=state)
        expected = reference_kick(state, params, d_pressure, d_curvature)
        if expected.curvature == math.inf:  # the sum overflowed
            with pytest.raises(DomainError, match="^state curvature inf must be finite"):
                plant.kick(d_pressure, d_curvature)
            assert plant.state == state
            return
        plant.kick(d_pressure, d_curvature)
        assert 0.0 <= plant.pressure <= params.p_max
        assert 0.0 <= plant.curvature < math.inf
        assert float_bits(plant.state) == float_bits(expected)

    def test_nan_kick_rejected(self, default_params):
        plant = FingerPlant(default_params)
        with pytest.raises(DomainError, match="^state pressure nan outside"):
            plant.kick(math.nan, 0.0)
        with pytest.raises(DomainError, match="^state curvature nan must be finite"):
            plant.kick(0.0, math.nan)
        assert plant.state == ActuatorState()


@st.composite
def sealed_start(draw, params, radius):
    """A start state: the pressure at -0.0, 0, below, at or above the threshold, or p_max;
    the curvature anywhere, or at or above the object's cap."""
    pressure = draw(st.sampled_from((-0.0, 0.0, params.p_threshold, params.p_max))
                    | st.floats(0.0, params.p_threshold, exclude_max=True)
                    | st.floats(params.p_threshold, params.p_max, exclude_min=True))
    curvature = draw(st.floats(0.0, 120.0))
    if radius is not None:
        cap = 1.0 / radius
        curvature = draw(st.sampled_from((curvature, cap)) | st.floats(cap, 4.0 * cap))
    return ActuatorState(pressure, curvature, draw(st.sampled_from((0.0, 0.7))))


@st.composite
def sealed_case(draw):
    """(params, obj, n_steps, dt, start) for a plant, its start drawn by sealed_start."""
    params = draw(actuator_params())
    radius = draw(st.none() | st.floats(0.01, 0.2))
    start = draw(sealed_start(params, radius))
    return (params, None if radius is None else RigidObject(radius=radius),
            draw(st.integers(1, 4)), draw(st.sampled_from((5e-4, 1e-3, 2.5e-3, 5e-3))), start)


FILL_SCALES = st.sampled_from((1.0, 0.5, 1.0 / 3.0)) | st.floats(0.05, 1.0)
PLANT_SCHEDULE_OPS = st.one_of(
    st.tuples(st.just("sealed"), st.integers(1, 3 * SPAN_CAP), FILL_SCALES),
    st.tuples(st.just("open"), st.sampled_from((INLET, VENT)), FILL_SCALES),
    st.tuples(st.just("kick"), st.floats(-150e3, 150e3), st.floats(-200.0, 200.0)))


class TestSealedAdvance:
    """With both valves shut, advance computes the pressure, target, cap and force once
    per span of ticks run ahead, and gives the floats of every substep run whole."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), params=actuator_params(), radius=st.none() | st.floats(0.01, 0.2),
           n_steps=st.integers(1, 10), dt=st.sampled_from((5e-4, 1e-3, 2.5e-3, 5e-3)),
           fill_scale=st.floats(0.0, 1.0, exclude_min=True), ticks=st.integers(1, 4))
    def test_sealed_advance_equals_the_whole_substep_loop(self, data, params, radius, n_steps,
                                                           dt, fill_scale, ticks):
        # reference_step is one substep of the whole loop, term by term.
        obj = None if radius is None else RigidObject(radius=radius)
        start = data.draw(sealed_start(params, radius))
        plant = FingerPlant(params, obj, dt, PneumaticCircuit(), n_steps, start)
        expected = start
        for _ in range(ticks):
            plant.advance(SEALED, fill_scale)
            for _ in range(n_steps):
                expected = reference_step(expected, params, SEALED, obj, dt, PneumaticCircuit(),
                                          fill_scale)
            assert float_bits(plant.state) == float_bits(expected)

    def test_negative_zero_pressure_comes_out_positive(self, default_params):
        plant = FingerPlant(default_params, state=ActuatorState(pressure=-0.0))
        plant.advance(SEALED)
        assert float_bits(plant.state)[0] == float.hex(0.0)

    @settings(max_examples=150, deadline=None)
    @given(case=sealed_case(), schedule=st.lists(PLANT_SCHEDULE_OPS, min_size=1, max_size=8))
    @example(case=(ActuatorParams(), None, 2, 1e-3, ActuatorState(45e3, 2.0)),
             schedule=[("sealed", 100, 1.0), ("kick", 5e3, -2.0), ("sealed", 70, 0.5),
                       ("open", INLET, 0.5), ("sealed", 3, 1.0), ("open", VENT, 1.0),
                       ("sealed", 2 * SPAN_CAP + 5, 1.0)])
    def test_schedule_equals_the_whole_substep_loop(self, case, schedule):
        # Sealed runs past the span cap, open ticks and kicks, most of them
        # while the plant has sealed ticks run ahead: every tick reads as
        # the whole substep loop run one tick at a time.
        params, obj, n_steps, dt, start = case
        plant = FingerPlant(params, obj, dt, PneumaticCircuit(), n_steps, start)
        expected = start
        for op, a, b in schedule:
            if op == "kick":
                plant.kick(a, b)
                expected = reference_kick(expected, params, a, b)
                assert float_bits(plant.state) == float_bits(expected)
                continue
            valves, n_ticks = (SEALED, a) if op == "sealed" else (a, 1)
            for _ in range(n_ticks):
                plant.advance(valves, b)
                for _ in range(n_steps):
                    expected = reference_step(expected, params, valves, obj, dt,
                                              PneumaticCircuit(), b)
                assert float_bits(plant.state) == float_bits(expected)

    def test_spans_as_long_as_the_sealed_ticks_so_far(self, monkeypatch, default_params):
        # Each span runs as many ticks as have run sealed since the last open
        # valve or kick, at least 1 and at most SPAN_CAP; the count starts
        # over after either.
        spans = []
        sealed_span = FingerPlant._sealed_span

        def logged(self):
            ends = sealed_span(self)
            spans.append(len(ends))
            return ends

        monkeypatch.setattr(FingerPlant, "_sealed_span", logged)
        plant = FingerPlant(default_params, state=ActuatorState(45e3, 2.0))
        for _ in range(5 * SPAN_CAP):
            plant.advance(SEALED)
        assert spans == [1, 1, 2, 4, 8, 16, 32, 64, 64, 64, 64] and SPAN_CAP == 64
        for restart in (lambda: plant.advance(VENT), lambda: plant.kick(0.0, 0.0)):
            del spans[:]
            restart()
            for _ in range(6):
                plant.advance(SEALED)
            assert spans == [1, 1, 2, 4]


class TestHandStep:
    def three(self, default_params):
        params = (default_params,) * 3
        states = tuple(ActuatorState() for _ in range(3))
        return states, params

    def test_identity_at_equilibrium(self, default_params):
        states = tuple(ActuatorState(pressure=40e3,
                                     curvature=steady_state_curvature(40e3, default_params))
                       for _ in range(3))
        out = hand_step(states, (default_params,) * 3, (SEALED,) * 3, (None,) * 3)
        assert out == states

    def test_no_objects_matches_single_finger_runs(self, default_params):
        states, params = self.three(default_params)
        for _ in range(3000):
            states = hand_step(states, params, (INLET,) * 3, (None,) * 3)

        single = run_single(ActuatorState(), default_params, INLET, seconds=3.0)
        assert all(s == single for s in states)

    def test_blocked_finger_curves_less(self, default_params):
        states, params = self.three(default_params)
        objects = (RigidObject(radius=0.074), None, None)
        for _ in range(6000):
            states = hand_step(states, params, (INLET,) * 3, objects)
        assert states[0].curvature < states[1].curvature
        assert states[1] == states[2]

    def test_shared_pump_slows_fill(self, default_params):
        states, params = self.three(default_params)
        shared = PneumaticCircuit(share_pump_flow=True)
        for _ in range(1000):
            states = hand_step(states, params, (INLET,) * 3, (None,) * 3, circuit=shared)
        solo = run_single(ActuatorState(), default_params, INLET, seconds=1.0)
        assert states[0].pressure < solo.pressure
        assert states[0] == states[1] == states[2]

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_share_pump_flow_must_be_a_boolean(self, value):
        with pytest.raises(DomainError,
                           match=rf"^share_pump_flow: expected a boolean, got {value!r}$"):
            PneumaticCircuit(share_pump_flow=value)

    def test_errors_carry_finger_index(self, default_params):
        states, params = self.three(default_params)
        bad = (states[0], ActuatorState(pressure=default_params.p_max * 2), states[2])
        with pytest.raises(DomainError, match="finger 1"):
            hand_step(bad, params, (SEALED,) * 3, (None,) * 3)

    def test_mismatched_lengths_rejected(self, default_params):
        states, params = self.three(default_params)
        with pytest.raises(DomainError):
            hand_step(states, params, (SEALED,) * 2, (None,) * 3)


class TestValidation:
    def test_params_invariants(self):
        with pytest.raises(DomainError):
            ActuatorParams(p_threshold=0.0)
        with pytest.raises(DomainError):
            ActuatorParams(p_max=10e3)  # below threshold
        with pytest.raises(DomainError):
            ActuatorParams(slope_m=-1e-3)
        with pytest.raises(DomainError):
            ActuatorParams(kappa_at_threshold=-0.1)
        with pytest.raises(DomainError):
            ActuatorParams(tau_inflate=0.0)

    def test_params_must_be_finite(self):
        for name in ("p_max", "k_fill", "k_vent", "tau_inflate", "force_gain"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(DomainError, match=name):
                    ActuatorParams(**{name: value})

    def test_object_invariants(self):
        with pytest.raises(DomainError):
            RigidObject(radius=0.0)
