"""Every function, method and class defined in src/valdetect has a use.

A use is a name, an attribute or an identifier inside a string constant
(such as "UnitGroupApprox.is_unit", split at its dots) anywhere in src,
tests, scripts or bench, outside the definition's own body.  Dunders are
called by Python itself and are skipped.
"""

import ast
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
