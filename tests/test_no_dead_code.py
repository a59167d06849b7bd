"""Every function, method and class defined in src/valdetect has a use.

A use of a function or class is a name, an attribute or an identifier
inside a string constant anywhere in src, tests, scripts or bench, outside
the definition's own body.  A method is used only through a call `.name(`
(any attribute `.name` for a property) or a dotted string constant (such as
"UnitGroupApprox.is_unit", split at its dots), so neither a local of the
same name nor an unrelated attribute such as numpy's `.size` hides it.  A
method that overrides an attribute of a base class is used by that base.
Dunders are called by Python itself and are skipped.

Every name a module of src/valdetect imports is used in that module, as a
name or inside a string constant (an annotation or an __all__ entry), every
local name a function there assigns is read in that function, and every
function the bench tracer wraps by name still exists.

Outside fields.py, no module of src/valdetect builds or reads element data
by its layout: no `.elt(` call takes a tuple literal and no `.data` is
subscripted.  Laurent monomials are built by `fields.monomial` and read by
`fields.leading_term` or `Elt.laurent_lead`.
"""

import ast
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts", "bench")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")

# which reference kinds count as a use of each kind of definition
_USED_BY = {"function": {"name", "attribute", "call", "string", "dotted"},
            "property": {"attribute", "call", "dotted"},
            "method": {"call", "dotted"}}


def _references(tree):
    """(kind, name) of every name, attribute, called attribute and
    identifier inside a (dotted or plain) string constant."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id
        elif isinstance(node, ast.Attribute):
            yield ("call" if id(node) in called else "attribute"), node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            kind = "dotted" if "." in node.value else "string"
            yield from ((kind, part) for part in node.value.split("."))


def _definitions(tree):
    """(node, kind, owning class or None) of every definition."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((id(item), node) for item in node.body
                         if isinstance(item, FUNCS))
    for node in ast.walk(tree):
        if not isinstance(node, DEFS) or node.name.startswith("__"):
            continue
        cls = owner.get(id(node))
        if cls is None:
            kind = "function"
        elif any("property" in ast.unparse(d) for d in node.decorator_list):
            kind = "property"
        else:
            kind = "method"
        yield node, kind, cls


def _overrides(module, cls_node, name):
    cls = getattr(importlib.import_module(f"valdetect.{module}"),
                  cls_node.name, None)
    return isinstance(cls, type) and any(
        hasattr(base, name) for base in cls.__mro__[1:])


def _count(refs, name, kind):
    return sum(refs[use, name] for use in _USED_BY[kind])


def unused_definitions():
    refs, own, where = Counter(), Counter(), {}
    package = ROOT / "src" / "valdetect"
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs.update(_references(tree))
            if package not in path.parents:
                continue
            for node, kind, cls in _definitions(tree):
                if cls is not None and _overrides(path.stem, cls, node.name):
                    continue
                key = (node.name, kind)
                where.setdefault(key, f"{path.name}:{node.lineno}")
                own[key] += _count(Counter(_references(node)), *key)
    return sorted(f"{where[key]} {key[0]}" for key in where
                  if _count(refs, *key) == own[key])


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


def unread_locals():
    """file:line function.name of every name a function of src/valdetect
    assigns (an augmented assignment included) and never reads in its body,
    nested functions included.  Names declared global or nonlocal are
    exempt, and so are `_`-prefixed ones, which mark a value left unread."""
    out = []
    for path in sorted((ROOT / "src" / "valdetect").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCS):
                continue
            stored, read = {}, set()
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    elif isinstance(node.ctx, ast.Load):
                        read.add(node.id)
            out += [f"{path.name}:{line} {fn.name}.{name}"
                    for name, line in stored.items()
                    if name not in read and not name.startswith("_")]
    return sorted(out)


def test_every_local_is_read():
    assert unread_locals() == []


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


def element_layout_sites():
    """file:line of every `.elt(` call with a tuple literal argument and
    every subscript of a `.data` attribute in src/valdetect outside
    fields.py."""
    out = []
    for path in sorted((ROOT / "src" / "valdetect").glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            builds = (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "elt"
                      and any(isinstance(a, ast.Tuple) for a in node.args))
            reads = (isinstance(node, ast.Subscript)
                     and isinstance(node.value, ast.Attribute)
                     and node.value.attr == "data")
            if builds or reads:
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_fields_knows_the_element_layout():
    assert element_layout_sites() == []
