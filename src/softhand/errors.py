"""Exception types shared across the package."""


class SofthandError(Exception):
    """Base class for all package errors."""


class DomainError(SofthandError, ValueError):
    """An argument is outside the physical or numeric domain of an operation."""


class CircuitError(SofthandError, ValueError):
    """Pneumatic circuit violates its wiring contract (e.g. inlet and vent both open)."""


class ConfigError(SofthandError, ValueError):
    """A configuration value is inconsistent or unsupported."""


class FitError(SofthandError, ValueError):
    """Calibration fit cannot be performed (insufficient or degenerate data)."""


class WarmupError(FitError):
    """Calibration data was recorded without the required warm-up inflation cycles."""


class InsufficientDataError(SofthandError, ValueError):
    """A telemetry stream is too short or never reaches the state an analysis needs."""


class EncodeError(SofthandError, ValueError):
    """A frame cannot be serialized (oversize payload, bad field value)."""


class ScenarioError(SofthandError, ValueError):
    """A scenario file fails schema validation."""


class RecordError(SofthandError, ValueError):
    """A calibration record file fails schema validation."""
