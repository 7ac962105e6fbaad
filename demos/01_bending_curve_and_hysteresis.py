"""Steady-state bending curve and the viscoelastic pressure-curvature loop.

Sweeps chamber pressure through a slow fill/vent cycle and writes the
(pressure, curvature) trajectory next to the steady-state line, showing the
counterclockwise hysteresis loop the lag produces.

Run: python demos/01_bending_curve_and_hysteresis.py
"""

import os

from softhand import physics
from softhand.units import pa_to_psi

OUT_DIR = "demo_output"


def main():
    params = physics.ActuatorParams()
    print("Actuator model: kappa = 0 below threshold, then linear in pressure")
    print(f"  threshold {params.p_threshold / 1e3:.1f} kPa "
          f"({pa_to_psi(params.p_threshold):.2f} PSI), "
          f"slope {params.slope_m * 1e3:.2f} (1/m)/kPa")
    for p_kpa in (0, 15, 30, 40, 55.2, 68.9):
        kappa = physics.steady_state_curvature(p_kpa * 1e3, params)
        radius = f"{1.0 / kappa:7.3f} m" if kappa > 0 else "   straight"
        print(f"  {p_kpa:6.1f} kPa -> kappa {kappa:6.2f} 1/m   bend radius {radius}")

    # Slow fill then vent; curvature lags the line, tracing a loop.
    inlet = physics.ValvePair(inlet=True)
    vent = physics.ValvePair(vent=True)
    state = physics.ActuatorState()
    rows = []
    for valves, seconds in ((inlet, 6.0), (vent, 10.0)):
        for k in range(round(seconds / 1e-3)):
            state = physics.step(state, params, valves)
            if k % 50 == 0:
                rows.append((state.pressure, state.curvature,
                             physics.steady_state_curvature(state.pressure, params)))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "hysteresis_loop.csv")
    with open(path, "w") as fh:
        fh.write("pressure_pa,curvature_per_m,steady_state_per_m\n")
        for p, k, ss in rows:
            fh.write(f"{p:.6g},{k:.6g},{ss:.6g}\n")

    area = 0.0
    for (p0, k0, _), (p1, k1, _) in zip(rows, rows[1:] + rows[:1]):
        area += 0.5 * (p0 * k1 - p1 * k0)
    print(f"\nFull fill/vent cycle: {len(rows)} samples -> {path}")
    print(f"Signed loop area {area:.1f} Pa/m (> 0 means counterclockwise in time)")


if __name__ == "__main__":
    main()
