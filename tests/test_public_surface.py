"""Every public callable of the package has a caller the system needs.

A public function, class or method (no leading underscore, at module level
or in a public class) that nothing under src/, demos/ or perfbench/ refers
to is surface only the tests keep alive: it gets a caller the system needs,
or it goes. ORACLES names the exceptions and why each one stays.

A reference is any name or attribute with the definition's name, so a method
counts the callers of every other definition that shares its name. The check
can miss dead surface that way; it never flags a name that is used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "softhand"
CALLER_TREES = ("src", "demos", "perfbench")

ORACLES = {
    "sensors.counts_to_physical": "the stage-by-stage inverse that SensorPath.sample fuses; "
                                  "the parity tests and criteria 06-08 check the fused path "
                                  "against it, and perfbench traces it by name",
    "physics.hand_step": "perfbench traces it by name until the benchmark stops tracing it",
    "units.psi": "the PSI -> Pa helper the package exports; the tests and acceptance "
                 "criteria state pressures in PSI with it, as the paper does",
}


def public_callables() -> dict[str, str]:
    """'module.name' or 'module.Class.method' of each public definition, mapped to its name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return found


def referenced_names() -> set[str]:
    names = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_only_oracles_lack_a_system_caller():
    referenced = referenced_names()
    uncalled = {key for key, name in public_callables().items() if name not in referenced}
    assert not uncalled - set(ORACLES), (
        f"public with no caller in {', '.join(CALLER_TREES)}: {sorted(uncalled - set(ORACLES))}; "
        "give each a caller the system needs, delete it, or list it in ORACLES with a reason")
    assert not set(ORACLES) - uncalled, (
        f"ORACLES entries that are gone or now have a caller: {sorted(set(ORACLES) - uncalled)}")
