"""Every function, method and class defined in src/valdetect has a use.

A use is a name, an attribute or an identifier inside a string constant
(such as "UnitGroupApprox.is_unit", split at its dots) anywhere in src,
tests, scripts or bench, outside the definition's own body.  Dunders are
called by Python itself and are skipped.

Every name a module of src/valdetect imports is used in that module, as a
name or inside a string constant (an annotation or an __all__ entry), and
every function the bench tracer wraps by name still exists.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts", "bench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            yield from node.value.split(".")


def unused_definitions():
    uses, own, where = Counter(), Counter(), {}
    package = ROOT / "src" / "valdetect"
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            uses.update(_references(tree))
            if package not in path.parents:
                continue
            for node in ast.walk(tree):
                if isinstance(node, DEFS) and not node.name.startswith("__"):
                    where.setdefault(node.name, f"{path.name}:{node.lineno}")
                    own[node.name] += sum(r == node.name
                                          for r in _references(node))
    return sorted(f"{where[name]} {name}" for name in where
                  if uses[name] == own[name])


def test_every_definition_is_used():
    assert unused_definitions() == []


def unused_imports():
    out = []
    for path in sorted((ROOT / "src" / "valdetect").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _DOTTED.match(node.value)):
                used.update(node.value.split("."))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_import_is_used():
    assert unused_imports() == []


def _traced_names():
    """(module, attr) of every SPANS and COUNTERS entry of bench/tracer.py,
    read from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS")
                for t in node.targets):
            out.extend(entry[:2] for entry in ast.literal_eval(node.value))
    return out


def test_traced_names_resolve():
    names = _traced_names()
    assert len(names) > 30
    missing = []
    for module, attr in names:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
