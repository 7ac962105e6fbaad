"""Parameter types state their number rules once, through errors.check_fields.

A ``__post_init__`` in the package that compares against the literal 0 or
0.0, or calls ``isfinite`` (math's or numpy's), writes a bound or finite
check by hand. It names the field in check_fields instead, so every type
refuses non-finite numbers and words each refusal the same way.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "softhand"
# The parameter types check_fields covers: each must still be found by the walk.
FIELD_CHECKED = {"ActuatorParams", "PneumaticCircuit", "RigidObject", "StrainGaugeParams",
                 "PressureSensorParams", "AdcParams", "SensorChain", "ControllerConfig",
                 "ChannelCal", "CalibrationRecord", "EmptyGraspReference"}


def is_zero(node: ast.expr) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 0)


def is_isfinite_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "isfinite"
            or isinstance(func, ast.Name) and func.id == "isfinite")


def walk_post_inits() -> tuple[set[str], list[str]]:
    """(classes with a __post_init__, "file:line" of each hand-written bound inside one)."""
    classes, offences = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                    continue
                classes.add(cls.name)
                for node in ast.walk(method):
                    if (isinstance(node, ast.Compare)
                            and any(map(is_zero, (node.left, *node.comparators)))
                            or is_isfinite_call(node)):
                        offences.append(f"{path.name}:{node.lineno} ({cls.name})")
    return classes, offences


def test_no_post_init_writes_a_bound_by_hand():
    classes, offences = walk_post_inits()
    assert FIELD_CHECKED <= classes, f"no __post_init__ found for {FIELD_CHECKED - classes}"
    assert not offences, (f"hand-written bound or finite check in __post_init__ at {offences}; "
                          "name the field in errors.check_fields instead")
