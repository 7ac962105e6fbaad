"""Exception types shared across the package, and the number checks that raise them.

``finite``, ``integer`` and ``json_object`` check one value read from a JSON
file (a scenario or a calibration record) and name it by its path.
``check_fields`` is the one number rule of every parameter type: each float
field is finite and is stored as a Python float, and each field it names is
> 0 or >= 0. Each refusal reads "<field>: <rule>", the form the scenario
loader maps back to a file key. A number is any ``numbers.Real`` (numpy's
scalars included) but a boolean.
"""

import math
import numbers
from dataclasses import fields


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


def finite(value, path: str, error: type[SofthandError] = DomainError) -> float:
    """A number as a finite float; NaN, +-Infinity and integers too large for a float fail."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise error(f"{path}: must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise error(f"{path}: must be finite, got {number}")
    return number


def integer(value, path: str, error: type[SofthandError] = DomainError) -> int:
    """An integer, or a float with no fractional part, as an int; booleans, fractions,
    NaN and +-inf fail."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{path}: must be an integer, got {value!r}")
    return int(value)


def json_object(raw, path: str, required=(), optional=None,
                error: type[SofthandError] = DomainError) -> dict:
    """raw as a JSON object holding every required key; given optional, no other key."""
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object, got {type(raw).__name__}")
    for key in raw:
        if optional is not None and key not in required and key not in optional:
            raise error(f"{path}.{key}: unknown key (known: {sorted({*required, *optional})})")
    for key in required:
        if key not in raw:
            raise error(f"{path}.{key}: required key missing")
    return raw


def check_fields(obj, positive=(), non_negative=(), error: type[SofthandError] = DomainError
                 ) -> None:
    """Refuse a dataclass whose float fields are not all finite numbers, then any field
    named in positive that is not > 0 or in non_negative that is not >= 0. Each float
    field is stored as a float, so no int or numpy scalar reaches the arithmetic."""
    for f in fields(obj):
        if f.type in ("float", float):
            object.__setattr__(obj, f.name, finite(getattr(obj, f.name), f.name, error))
    for name in positive:
        if not getattr(obj, name) > 0:
            raise error(f"{name}: must be > 0, got {getattr(obj, name)}")
    for name in non_negative:
        if not getattr(obj, name) >= 0:
            raise error(f"{name}: must be >= 0, got {getattr(obj, name)}")
