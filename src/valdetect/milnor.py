"""K2 mod a window kernel, presented by wedge generators and scanned
Steinberg relations, with the tame symbol as an independent oracle.

The presented order of a symbol only ever shrinks as the scan height grows,
so scanned orders are upper bounds; reports carry the height.  On Laurent
windows listing the top uniformizer, the tame symbol at that place descends
to the residue window exactly and yields an unconditional lower bound; when
the two bounds meet the order is certified.

The Steinberg relations come straight from the scan table: each ScanEntry
carries its wedge cls x ^ cls 1-x, computed once when the table is built, and
the witnesses of a presentation are the entries whose wedge is nonzero.
`wedge_of` is re-exported here for callers that replay a witness.
"""

import math
from dataclasses import dataclass

from .coeffmod import howell_form, span_contains, val_mod, wedge_pairs
from .errors import (
    LevelMismatch,
    RankNotTwo,
    UnsupportedValuation,
    ZeroElement,
)
from .fields import (
    UNIF,
    ValuationHandle,
    Window,
    format_element,
    residue_model,
    residue_of,
    value_of,
)
from .scans import exhaustive_classes, scan_index, wedge_of

__all__ = [
    "SymbolPresentation", "TameClass", "k2_cyclic_order",
    "k2_tame_lower_bound", "power_class_invariant", "steinberg_scan",
    "tame_symbol", "wedge_of",
]


@dataclass(frozen=True)
class SymbolPresentation:
    """wedge^2(K^x/T) modulo the relations z ^ (1-z) collected by scanning;
    the witnesses are the scan entries with a nonzero wedge."""

    window: Window
    height: int
    witnesses: tuple
    exhaustive: bool


def steinberg_scan(window: Window, height: int,
                   stop_at_floor: bool = False) -> SymbolPresentation:
    """Collect z ^ (1-z) over the stream; deterministic, monotone in height.

    With stop_at_floor the scan returns as soon as the relations span the
    whole wedge (the presented quotient cannot shrink further); the witness
    list is then a prefix of the full scan's.
    """
    # e_ij has order min(o_i, o_j); scaling by l^n / min(o_i, o_j) embeds
    # the wedge coordinates into (Z/l^n)^pairs for span computations
    o = window.orders
    mod = window.level.modulus
    scales = [mod // min(o[i], o[j]) for i, j in wedge_pairs(window.rank)]
    wedge_full = [tuple(s if k == c else 0 for k in range(len(scales)))
                  for c, s in enumerate(scales)]
    witnesses = []
    span_rows = []
    ell, n = window.level.ell, window.level.n
    for ent in scan_index(window, height).entries(height):
        if ent.wedge is None or not any(ent.wedge):
            continue
        witnesses.append(ent)
        span_rows.append(tuple(v * s for v, s in zip(ent.wedge, scales)))
        if stop_at_floor:
            form = howell_form(span_rows, ell, n, len(scales))
            if all(span_contains(form, row, ell, n) for row in wedge_full):
                break
    return SymbolPresentation(
        window, height, tuple(witnesses),
        exhaustive=exhaustive_classes(window, height))


def k2_cyclic_order(sp: SymbolPresentation):
    """(order, c) of the class {x, y}_T on a rank-2 window: order = l^(n-c).

    The scanned order is an upper bound; it is certified exact when the scan
    was exhaustive or a tame lower bound meets it.
    """
    w = sp.window
    if w.rank != 2:
        raise RankNotTwo(f"window has rank {w.rank}")
    ell, n = w.level.ell, w.level.n
    wedge_exp = val_mod(min(w.orders), ell, n)
    best = wedge_exp
    for wit in sp.witnesses:
        v = val_mod(wit.wedge[0], ell, wedge_exp)
        best = min(best, v)
    order = ell ** best
    return order, n - best


def k2_tame_lower_bound(window: Window) -> int:
    """Order lower bound for {x, y}_T on a rank-2 Laurent window listing the
    top uniformizer, via the tame symbol at that place.

    The kernel T meets the units in exactly the residue window kernel, so the
    tame symbol descends to residue-window classes and the order of the image
    of the wedge generator bounds the order in K2/T from below.
    """
    model = window.model
    if window.rank != 2 or model.kind != "laurent":
        raise UnsupportedValuation("tame lower bound needs a rank-2 Laurent "
                                   "window")
    top = (UNIF, model.var)
    if top not in window.gens:
        raise UnsupportedValuation("top uniformizer not listed")
    other = next(g for g in window.gens if g != top)
    other_index = window.gens.index(other)
    # tame(t, g) = class of g in the residue window (up to inversion)
    return window.orders[other_index]


# ---------------------------------------------------------------------------
# tame symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TameClass:
    """A residue-field value taken modulo l^n-th powers."""

    model: object
    level: object
    value: object   # Elt of the residue model

    def invariant(self):
        return power_class_invariant(self.value, self.level)

    def is_trivial(self):
        return _invariant_trivial(self.invariant())

    def combine(self, other):
        if other.model != self.model or other.level != self.level:
            raise LevelMismatch("tame classes in different groups")
        return TameClass(self.model, self.level, self.value * other.value)

    def __eq__(self, other):
        return (isinstance(other, TameClass) and other.model == self.model
                and other.level == self.level
                and other.invariant() == self.invariant())

    def __hash__(self):
        return hash((self.model, self.level, self.invariant()))

    def payload(self):
        return {"residue_field": self.model.spec(),
                "value": format_element(self.value),
                "trivial": self.is_trivial()}


def power_class_invariant(x, level):
    """Canonical data of x modulo l^n-th powers of its field."""
    if x.is_zero():
        raise ZeroElement("power class of zero")
    m = x.model
    mod = level.modulus
    if m.kind == "finite":
        q = m.ff.q
        d = math.gcd(mod, q - 1)
        return ("dlog", m.ff.dlog(x.data) % d)
    if m.kind == "ratfunc":
        num, den = x.data
        ff = m.ff
        fac = {}
        for p, e in ff.factor(num).items():
            fac[p] = (fac.get(p, 0) + e) % mod
        for p, e in ff.factor(den).items():
            fac[p] = (fac.get(p, 0) - e) % mod
        fac = tuple(sorted((p, e) for p, e in fac.items() if e))
        c = ff.mul(num[-1], ff.inv(den[-1]))
        d = math.gcd(mod, ff.q - 1)
        return ("ratfunc", fac, ff.dlog(c) % d)
    v, lead = x.laurent_lead()
    return ("laurent", v % mod, power_class_invariant(lead, level))


def _invariant_trivial(inv):
    if inv[0] == "dlog":
        return inv[1] == 0
    if inv[0] == "ratfunc":
        return not inv[1] and inv[2] == 0
    return inv[1] == 0 and _invariant_trivial(inv[2])


def tame_symbol(f, g, place: ValuationHandle, level) -> TameClass:
    """Class of (-1)^(v(f)v(g)) f^v(g) g^(-v(f)) in k(P)^x mod l^n-th powers."""
    if place.rank != 1:
        raise UnsupportedValuation("tame symbols live at single places")
    if f.is_zero() or g.is_zero():
        raise ZeroElement("tame symbol of zero")
    vf = value_of(place, f)[0]
    vg = value_of(place, g)[0]
    val = (f ** vg) * (g ** (-vf))
    if (vf * vg) % 2:
        val = -val
    res = residue_of(place, val)
    return TameClass(residue_model(place), level, res)
