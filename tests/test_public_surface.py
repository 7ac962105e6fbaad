"""Every public callable of the package has a caller the system needs.

A public function, class or method (no leading underscore, at module level
or in a public class) that nothing under src/, demos/ or perfbench/ refers
to is surface only the tests keep alive: it gets a caller the system needs,
or it goes. ORACLES names the exceptions and why each one stays.

A module-level definition is referred to only by a reference that resolves
to it: ``module.name`` through a name bound to the module (``from softhand
import module``, ``from . import module``, ``import softhand.module as m``)
or written out (``softhand.module.name``), ``from module import name``, or
its bare name inside the module that defines it. A method is referred to by
any name or attribute with its name, so a method counts the callers of
every other definition that shares its name: the check can miss dead
methods that way; it never flags a name that is used. The package's
``__init__`` re-exports the surface and calls none of it, so its imports
are not callers.
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
    "sensors.measure": "the stage-by-stage forward path that SensorPath.sample fuses; the "
                       "parity tests and criteria 06-08 check the fused path against it, and "
                       "perfbench traces it by name",
    "physics.hand_step": "perfbench traces it by name until the benchmark stops tracing it",
    "units.psi": "the PSI -> Pa helper the package exports; the tests and acceptance "
                 "criteria state pressures in PSI with it, as the paper does",
}


def public_callables() -> dict[str, tuple[str, str]]:
    """'module.name' or 'module.Class.method' of each public definition, mapped to the
    reference that counts for it: ('module', name) for a module-level one, ('', name) for a
    method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{path.stem}.{node.name}"] = (path.stem, node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found[f"{path.stem}.{node.name}.{member.name}"] = ("", member.name)
    return found


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module a from-import reads names from, or '' for the package itself."""
    if node.level:
        return node.module or ""
    if node.module == "softhand":
        return ""
    if node.module and node.module.startswith("softhand."):
        return node.module.removeprefix("softhand.")
    return None


def references_in(tree: ast.AST, own_module: str | None) -> set[tuple[str, str]]:
    """('module', name) for each module-level reference in tree, ('', name) for every name
    and attribute; own_module is the package module tree is, if it is one."""
    bound = {}  # a local name -> the package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_module(node) == "":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("softhand."):
                    bound[a.asname] = a.name.removeprefix("softhand.")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_module(node):
            found.update((package_module(node), a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(("", node.attr))
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in bound:
                found.add((bound[owner.id], node.attr))
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id == "softhand"):
                found.add((owner.attr, node.attr))
        elif isinstance(node, ast.Name):
            found.add(("", node.id))
            if own_module:
                found.add((own_module, node.id))
    return found


def referenced() -> set[tuple[str, str]]:
    found = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            own_module = path.stem if path.parent == PACKAGE else None
            found |= references_in(ast.parse(path.read_text(encoding="utf-8")), own_module)
    return found


def test_only_oracles_lack_a_system_caller():
    found = referenced()
    uncalled = {key for key, reference in public_callables().items() if reference not in found}
    assert not uncalled - set(ORACLES), (
        f"public with no caller in {', '.join(CALLER_TREES)}: {sorted(uncalled - set(ORACLES))}; "
        "give each a caller the system needs, delete it, or list it in ORACLES with a reason")
    assert not set(ORACLES) - uncalled, (
        f"ORACLES entries that are gone or now have a caller: {sorted(set(ORACLES) - uncalled)}")


def test_a_bare_name_elsewhere_is_no_reference():
    # A function named like a package definition, in a module that does not
    # import it, refers to nothing: perfbench/run.py has its own measure.
    tree = ast.parse("def measure():\n    return measure\n")
    assert ("sensors", "measure") not in references_in(tree, None)
    assert ("sensors", "measure") in references_in(tree, "sensors")
    for source in ("from softhand import sensors\nsensors.measure\n",
                   "from . import sensors as s\ns.measure\n",
                   "import softhand.sensors as s\ns.measure\n",
                   "import softhand.sensors\nsofthand.sensors.measure\n",
                   "from softhand.sensors import measure\n",
                   "from .sensors import measure as m\n"):
        assert ("sensors", "measure") in references_in(ast.parse(source), None), source
