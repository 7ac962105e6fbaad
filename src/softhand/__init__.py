"""Deterministic simulator and control stack for a sensorized soft pneumatic gripper.

Submodules:
  physics     actuator bending + pneumatic circuit model
  sensors     strain/pressure analog pipelines and ADC inversion
  controller  per-finger bang-bang valve FSM
  grasp       phase-orbit grasp classification and event detection
  calibration model fitting and calibration records
  protocol    framed serial wire format and simulated lossy bus
  scenario    JSON scenario schema
  runner      closed-loop scenario execution and telemetry
  cli         command-line front end
"""

from . import calibration, controller, grasp, physics, protocol, runner, scenario, sensors
from .errors import (CircuitError, ConfigError, DomainError, EncodeError, FitError,
                     InsufficientDataError, RecordError, ScenarioError, SofthandError,
                     WarmupError)
from .units import PSI_TO_PA, pa_to_psi, psi

__version__ = "0.1.0"

__all__ = [
    "calibration", "controller", "grasp", "physics", "protocol", "runner",
    "scenario", "sensors",
    "CircuitError", "ConfigError", "DomainError", "EncodeError", "FitError",
    "InsufficientDataError", "RecordError", "ScenarioError", "SofthandError", "WarmupError",
    "PSI_TO_PA", "pa_to_psi", "psi", "__version__",
]
