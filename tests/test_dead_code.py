"""Every top-level function, class, constant and import in ``src/semlink`` is
used by the system.

A function, class or constant counts as used when its name appears as code
(a name, an attribute, an import or an exact string) in ``src/`` or
``perfbench/`` outside its own body and outside the bodies of definitions
that are themselves unused.  An import counts as used when the name it binds
appears in its own module's used code, when ``perfbench/`` takes it from a
module (as an attribute or by importing it), or when another module imports
it with ``from .module import name``.  Tests do not count: code
reached only by its own tests is not part of the system.  Click commands,
dunders and the names in ``semlink.__all__`` are entry points and always
count as used.

A method, classmethod or property of a top-level class counts as used when
its name appears as an attribute or an exact string in ``src/`` or
``perfbench/`` outside its own body.  A bare name does not count: a local
variable may share the method's name.
"""

import ast
from collections import Counter
from pathlib import Path

import semlink

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semlink"


def _member_uses(nodes) -> Counter:
    """How often each name appears as an attribute or an exact string."""
    found = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                found[sub.attr] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
                found[sub.value] += 1
    return found


def _names(nodes) -> set[str]:
    """Every name used as code: a name, an attribute, an import or an exact string."""
    found = set(_member_uses(nodes))
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.alias):
                found.update(sub.name.split("."))
    return found


def _is_command(node) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constants(node) -> list[str]:
    """The names a top-level ``NAME = value`` statement binds, dunders aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    if not all(isinstance(t, ast.Name) for t in targets):
        return []
    return [t.id for t in targets if not _is_dunder(t.id)]


def unused_definitions() -> list[str]:
    """``module.name`` of each top-level definition nothing live names."""
    defs = {}  # (module, name) -> names used in its body
    imports = {}  # (module, bound name) -> the name it imports
    module_roots = {}  # module -> names its other top-level statements use
    imported_from = set()  # (module, name) of every ``from .module import name``
    roots = set(semlink.__all__)
    for path in sorted(PACKAGE.glob("*.py")):
        here = module_roots.setdefault(path.stem, set())
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_dunder(node.name) or _is_command(node):
                    roots |= _names([node])
                    here |= _names([node])
                else:
                    defs[(path.stem, node.name)] = _names([node]) - {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # what an import names stays a use, so that its target counts
                roots |= _names([node])
                if isinstance(node, ast.ImportFrom):
                    if node.module == "__future__":
                        continue
                    if node.level == 1 and node.module:
                        imported_from |= {(node.module, a.name) for a in node.names}
                for alias in node.names:
                    imports[(path.stem, alias.asname or alias.name.split(".")[0])] = alias.name
            elif _constants(node):
                for name in _constants(node):
                    defs[(path.stem, name)] = _names([node.value])
            else:
                roots |= _names([node])
                here |= _names([node])
    bench = [ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    roots |= _names(bench)
    reached = set()  # what perfbench takes from a module: attributes and imported names
    for node in (sub for tree in bench for sub in ast.walk(tree)):
        if isinstance(node, ast.Attribute):
            reached.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semlink"):
            reached |= {alias.name for alias in node.names}

    live: set = set()
    while True:  # a definition is live once a root or a live definition names it
        used = roots.union(*(defs[key] for key in live))
        grown = {key for key in defs if key[1] in used}
        if grown == live:
            break
        live = grown
    for module, name in live:
        module_roots[module] |= defs[(module, name)]
    dead_imports = {
        (module, bound)
        for (module, bound), source in imports.items()
        if bound not in module_roots[module] | reached and (module, source) not in imported_from
    }
    return sorted(f"{module}.{name}" for module, name in (set(defs) - live) | dead_imports)


def test_every_top_level_definition_is_used():
    assert unused_definitions() == []


def unused_methods() -> list[str]:
    """``module.Class.name`` of each method of a top-level class that nothing
    outside its own body names as an attribute or a string."""
    trees = {path: ast.parse(path.read_text("utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))}
    uses = _member_uses(trees.values())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_dunder(node.name):
                    continue
                if uses[node.name] <= _member_uses([node])[node.name]:
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    return unused


def test_every_method_is_used():
    assert unused_methods() == []
