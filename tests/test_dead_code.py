"""Every top-level function and class in ``src/semlink`` is used by the system.

A definition counts as used when its name appears as code (a name, an
attribute, an import or an exact string) in ``src/`` or ``perfbench/``
outside its own body and outside the bodies of definitions that are
themselves unused.  Tests do not count: code reached only by its own tests
is not part of the system.  Click commands, dunders and the names in
``semlink.__all__`` are entry points and always count as used.
"""

import ast
from pathlib import Path

import semlink

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semlink"


def _names(nodes) -> set[str]:
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.update(sub.name.split("."))
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
                found.add(sub.value)
    return found


def _is_command(node) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unused_definitions() -> list[str]:
    """``module.name`` of each top-level definition nothing live names."""
    defs = {}  # (module, name) -> names used in its body
    roots = set(semlink.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if dunder or _is_command(node):
                    roots |= _names([node])
                else:
                    defs[(path.stem, node.name)] = _names([node]) - {node.name}
            else:
                roots |= _names([node])
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        roots |= _names([ast.parse(path.read_text("utf-8"))])

    live: set = set()
    while True:  # a definition is live once a root or a live definition names it
        used = roots.union(*(defs[key] for key in live))
        grown = {key for key in defs if key[1] in used}
        if grown == live:
            break
        live = grown
    return sorted(f"{module}.{name}" for module, name in set(defs) - live)


def test_every_top_level_definition_is_used():
    assert unused_definitions() == []
