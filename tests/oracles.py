"""Reference algorithms that the library no longer runs, kept as referees
for the fast paths that replaced them."""

from valdetect.characters import (
    Certificate,
    Character,
    CharacterGroup,
    _finite_kernel_is_everything,
)
from valdetect.coeffmod import (
    howell_form,
    quotient_span,
    span_contains,
)
from valdetect.errors import LevelMismatch, UnsupportedValuation, ZeroElement
from valdetect.fields import (
    CONST,
    PLACE,
    UNIF,
    FFModel,
    Window,
    _place_residue,
    residue_field_of_place,
)
from valdetect.scans import _decomp_place_classes


def submodule_contains(module, gens, x) -> bool:
    """Exact membership of x in the span of gens inside the presented module:
    q(x) against the Howell form of the q-images of gens, so the relations
    enter only through the module's cached Smith data."""
    if len(x) != module.rank:
        raise LevelMismatch("vector width does not match module rank")
    return span_contains(quotient_span(module, gens), module.quotient(x),
                         module.level.ell, module.level.n)


def cyclic_contains_by_howell(v, x, ell, n) -> bool:
    """x in <v> in (Z/l^n)^k through the Howell form of the one row v."""
    return span_contains(howell_form([v], ell, n, len(v)), x, ell, n)


# ---------------------------------------------------------------------------
# valuation-chain walkers: each walks the handle's steps against the tower
# itself instead of reading the record the handle's constructor keeps
# ---------------------------------------------------------------------------

def spec_by_walk(handle) -> str:
    out = []
    cur = handle.model
    for kind, payload in handle.steps:
        if kind == "unif":
            out.append(payload)
            cur = cur.base
        else:
            out.append(cur.ff.poly_fmt(payload, cur.var))
            cur = FFModel(residue_field_of_place(cur, payload))
    return ",".join(out)


def residue_model_by_walk(handle):
    cur = handle.model
    for kind, payload in handle.steps:
        if kind == "unif":
            if cur.kind != "laurent" or cur.var != payload:
                raise UnsupportedValuation("chain does not match tower")
            cur = cur.base
        else:
            if cur.kind != "ratfunc":
                raise UnsupportedValuation("chain does not match tower")
            cur = FFModel(residue_field_of_place(cur, payload))
    return cur


def value_of_by_walk(handle, x):
    if x.model != handle.model:
        raise UnsupportedValuation("element not in the handle's field")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    out = []
    cur = x
    for kind, payload in handle.steps:
        if kind == "unif":
            v, cur = cur.laurent_lead()
            out.append(v)
        else:
            m = cur.model
            num, den = cur.data
            v = m.ff.place_multiplicity(num, payload) - \
                m.ff.place_multiplicity(den, payload)
            out.append(v)
            cur = _place_residue(m, payload, num, den, v)
    return tuple(out)


def residue_of_by_walk(handle, x):
    if any(c != 0 for c in value_of_by_walk(handle, x)):
        raise UnsupportedValuation("residue of a non-unit")
    cur = x
    for kind, payload in handle.steps:
        if kind == "unif":
            _, cur = cur.laurent_lead()
        else:
            m = cur.model
            num, den = cur.data
            cur = _place_residue(m, payload, num, den, 0)
    return cur


def inertia_chars_by_walk(handle, window):
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    chain = set()
    for kind, payload in handle.steps:
        chain.add((UNIF, payload) if kind == "unif" else (PLACE, payload))
    return CharacterGroup(window, [Character.dual(window, i)
                                   for i, g in enumerate(window.gens)
                                   if g in chain])


def decomp_chars_by_walk(handle, window, height):
    """(group, certificate) with no memo; recurses on the bare step tuple."""
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    return _decomp_by_walk(handle.steps, window, height)


def _decomp_by_walk(steps, window, height):
    if not steps:
        return CharacterGroup.full(window), Certificate(exact=True)
    kind, payload = steps[0]
    model = window.model
    if kind == "unif":
        if model.kind != "laurent" or model.var != payload:
            raise UnsupportedValuation("chain does not match tower")
        sub, cert = _decomp_by_walk(steps[1:], window.base_window(), height)
        gens = [Character(window, window.from_base(g.values, 0))
                for g in sub.gens]
        for i, g in enumerate(window.gens):
            if g == (UNIF, payload):
                gens.append(Character.dual(window, i))
        return CharacterGroup(window, gens), cert
    if model.kind != "ratfunc":
        raise UnsupportedValuation("place step off a rational function field")
    if len(steps) > 1:
        raise UnsupportedValuation("no places below a finite residue field")
    classes = set()
    history = []
    for h in range(height + 1):
        classes |= _decomp_place_classes(window, payload, h)
        group = CharacterGroup.killing_classes(window, sorted(classes))
        history.append(group)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return group, Certificate(exact=False, height=h, stabilized=True)
    return group, Certificate(exact=False, height=height, stabilized=False)


def residue_window_by_walk(handle, window):
    cur = window
    for idx, (kind, payload) in enumerate(handle.steps):
        model = cur.model
        if kind == "unif":
            if model.kind != "laurent" or model.var != payload:
                raise UnsupportedValuation("chain does not match tower")
            cur = cur.base_window()
        else:
            if idx + 1 != len(handle.steps):
                raise UnsupportedValuation("places end at finite residues")
            kres = residue_field_of_place(model, payload)
            const_listed = any(g[0] == CONST for g in cur.gens)
            if _finite_kernel_is_everything(model, payload, cur,
                                            const_listed=const_listed):
                return Window(FFModel(kres), cur.level, ())
            if not const_listed and model.ff.poly_deg(payload) == 1:
                return Window(FFModel(kres), cur.level, ())
            raise UnsupportedValuation(
                "residue kernel after the place step is not a window kernel")
    return cur
