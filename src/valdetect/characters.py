"""Characters of K^x/T on a window, and the character-side of valuations.

A Character is an R_n-linear functional on a Window, i.e. a vector of values
on the window generators subject to the divisibility forced by each
generator's order.  Character groups are finite modules handled by the exact
linear algebra in coeffmod.

The two valuation-attached subgroups are computed here: inertia_chars(v, w)
is the group of characters killing every v-unit class (structural and exact
for native chains), and decomp_chars(v, w) is the group killing the classes
of 1 + m_v.  The latter is exact on Laurent steps (1 + m is contained in the
l^n-th powers when the residue characteristic is prime to l) and at
rational-function places, where the approximation theorem gives it in closed
form.
"""

import math
from dataclasses import dataclass

from .coeffmod import (
    Level,
    howell_form,
    kernel_mod,
    span_contains,
    span_elements,
    span_intersect,
    span_quasi_basis,
)
from .errors import (
    LevelMismatch,
    NotInDecomposition,
    ParseError,
    PreconditionViolated,
    UnsupportedValuation,
)
from .fields import (
    CONST,
    PLACE,
    UNIF,
    ValuationHandle,
    Window,
    _place_residue,
    residue_field_of_place,
)


@dataclass(frozen=True)
class Character:
    """A homomorphism K^x/T -> Z/l^n given by its values on the window gens."""

    window: Window
    values: tuple

    def __post_init__(self):
        n = self.level.modulus
        vals = tuple(v % n for v in self.values)
        if len(vals) != self.window.rank:
            raise LevelMismatch("value vector does not match the window rank")
        for v, order in zip(vals, self.window.orders):
            if v % (n // order):
                raise PreconditionViolated(
                    "character value incompatible with generator order")
        object.__setattr__(self, "values", vals)

    @property
    def level(self) -> Level:
        return self.window.level

    @staticmethod
    def zero(window):
        return Character(window, (0,) * window.rank)

    @staticmethod
    def dual(window, index):
        """Generator of the dual of window generator `index`."""
        n = window.level.modulus
        vals = [0] * window.rank
        vals[index] = n // window.orders[index]
        return Character(window, tuple(vals))

    @staticmethod
    def dual_by_label(window, label):
        for i in range(window.rank):
            if window.gen_label(i) == label:
                return Character.dual(window, i)
        # place generators may be written with any coefficient representatives
        bottom = window.model.bottom()
        if bottom.kind == "ratfunc":
            from .fields import PLACE, _parse_poly
            try:
                poly = bottom.ff.poly_monic(_parse_poly(bottom, label))
            except ParseError:  # not a polynomial, so no place label
                poly = None
            if poly is not None:
                for i, g in enumerate(window.gens):
                    if g == (PLACE, poly):
                        return Character.dual(window, i)
        raise PreconditionViolated(f"no window generator labeled {label!r}")

    def evaluate_class(self, cls):
        n = self.level.modulus
        return sum(a * c for a, c in zip(self.values, cls)) % n

    def evaluate(self, x):
        """Value on an element of K^x; additive in products."""
        return self.evaluate_class(self.window.classify(x))

    def reduce_level(self, n: int) -> "Character":
        if n > self.level.n:
            raise LevelMismatch(
                f"cannot raise a level-{self.level.n} character to {n}")
        w = self.window.at_level(n)
        m = w.level.modulus
        return Character(w, tuple(v % m for v in self.values))

    def __add__(self, other):
        if other.window != self.window:
            raise LevelMismatch("characters on different windows")
        return Character(self.window,
                         tuple(a + b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return Character(self.window, tuple(-a for a in self.values))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "Character":
        return Character(self.window, tuple(c * a for a in self.values))

    def is_zero(self):
        return not any(self.values)

    def order_exponent(self) -> int:
        """k with additive order l^k."""
        ell = self.level.ell
        k = 0
        cur = self.values
        while any(cur):
            cur = tuple(v * ell % self.level.modulus for v in cur)
            k += 1
        return k

    def label(self):
        """Readable combination of generator duals, for reports."""
        terms = []
        n = self.level.modulus
        for i, v in enumerate(self.values):
            if v == 0:
                continue
            unit = n // self.window.orders[i]
            if v % unit == 0 and v // unit < self.window.orders[i]:
                c = v // unit
                head = self.window.gen_label(i)
                terms.append(head if c == 1 else f"{c}*{head}")
            else:
                terms.append(f"{v}@{self.window.gen_label(i)}")
        return "+".join(terms) if terms else "0"


class CharacterGroup:
    """A subgroup of the window character group, given by generators."""

    def __init__(self, window, gens):
        self.window = window
        self.gens = tuple(gens)
        for g in self.gens:
            if g.window != window:
                raise LevelMismatch("generator on a different window")
        ell, n = window.level.ell, window.level.n
        self._form = howell_form([g.values for g in self.gens], ell, n,
                                 window.rank)

    @staticmethod
    def zero(window):
        return CharacterGroup(window, ())

    @staticmethod
    def full(window):
        return CharacterGroup(
            window, tuple(Character.dual(window, i) for i in range(window.rank)))

    @staticmethod
    def killing_classes(window, classes):
        """The subgroup of all window characters vanishing on given classes."""
        ell, n = window.level.ell, window.level.n
        # class equations plus the order constraints l^{d_i} a_i = 0
        rows = [tuple(cls) for cls in classes]
        for i in range(window.rank):
            r = [0] * window.rank
            r[i] = window.orders[i]
            rows.append(tuple(r))
        gens = kernel_mod(rows, ell, n, window.rank)
        return CharacterGroup(window,
                              tuple(Character(window, g) for g in gens))

    @property
    def level(self):
        return self.window.level

    def howell(self):
        return self._form

    def contains(self, char: Character) -> bool:
        if char.window != self.window:
            raise LevelMismatch("character on a different window")
        ell, n = self.level.ell, self.level.n
        return span_contains(self._form, char.values, ell, n)

    def __eq__(self, other):
        return (isinstance(other, CharacterGroup)
                and other.window == self.window
                and other._form == self._form)

    def __hash__(self):
        return hash((self.window, tuple(self._form)))

    def __le__(self, other):
        return all(other.contains(Character(self.window, r))
                   for r in self._form)

    def elements(self):
        """All members, deterministically ordered; sizes stay window-small."""
        ell, n = self.level.ell, self.level.n
        return [Character(self.window, v) for v in
                span_elements(self._form, ell, n, self.window.rank)]

    def member_quasi_basis(self):
        """[(Character, order)] forming a quasi-basis of the subgroup."""
        ell, n = self.level.ell, self.level.n
        return [(Character(self.window, v), order)
                for v, order in span_quasi_basis(self._form, ell, n)]

    @property
    def rank(self):
        return len(self.member_quasi_basis())

    def is_cyclic(self):
        return self.rank <= 1

    def quotient_orders(self, sub: "CharacterGroup"):
        """Cyclic orders of self/sub; sub must be contained in self."""
        if not sub <= self:
            raise PreconditionViolated("quotient by a non-subgroup")
        ell, n = self.level.ell, self.level.n
        return [order for _, order in
                span_quasi_basis(self._form, ell, n, sub._form)]

    def quotient_is_cyclic(self, sub):
        return len(self.quotient_orders(sub)) <= 1

    def intersect(self, other: "CharacterGroup") -> "CharacterGroup":
        if other.window != self.window:
            raise LevelMismatch("windows differ")
        ell, n = self.level.ell, self.level.n
        return CharacterGroup(self.window, tuple(
            Character(self.window, v)
            for v in span_intersect(self._form, other._form, ell, n)))

    def reduce_level(self, n: int) -> "CharacterGroup":
        return CharacterGroup(self.window.at_level(n),
                              tuple(g.reduce_level(n) for g in self.gens))

    def labels(self):
        return [Character(self.window, row).label() for row in self._form]

    def __repr__(self):
        return f"<subgroup {{{', '.join(self.labels())}}} of {self.window.spec()}>"


# ---------------------------------------------------------------------------
# inertia and decomposition
# ---------------------------------------------------------------------------

def inertia_chars(handle: ValuationHandle, window: Window) -> CharacterGroup:
    """Hom(K^x / O_v^x, R_n) cut down to the window; exact for native chains.

    A window generator class is a v-unit class exactly when the generator is
    not consumed by the chain, and the unit classes span exactly those
    coordinates; so the group is spanned by the duals of the chain
    generators that the window lists.
    """
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    chain = set(handle.steps)
    gens = [Character.dual(window, i)
            for i, g in enumerate(window.gens) if g in chain]
    return CharacterGroup(window, gens)


@dataclass(frozen=True)
class Certificate:
    """How a scanned subgroup was certified."""

    exact: bool

    def describe(self):
        return "exact" if self.exact else "bounded"


def decomp_chars(handle: ValuationHandle, window: Window, height: int = 4):
    """(CharacterGroup, Certificate) for Hom(K^x / +-(1+m_v), R_n) on the window.

    Laurent chain steps contribute nothing (1+m is made of l^n-th powers), so
    the computation recurses into the residue window until a
    rational-function place is hit, where the group has a closed form
    (`_decomp_at_place`).  Every step is exact and cheap, so nothing is
    memoised; `height` is ignored, and stays only because the benchmark's
    workloads pass it positionally.
    """
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    if handle.is_trivial():
        return CharacterGroup.full(window), Certificate(exact=True)
    kind, payload = handle.steps[0]
    if kind == UNIF:
        rest = ValuationHandle(handle.models[1], handle.steps[1:])
        sub, cert = decomp_chars(rest, window.base_window())
        gens = [Character(window, window.from_base(g.values, 0))
                for g in sub.gens]
        for i, g in enumerate(window.gens):
            if g == (UNIF, payload):
                gens.append(Character.dual(window, i))
        return CharacterGroup(window, gens), cert
    return _decomp_at_place(window, payload)


def _decomp_at_place(window, place):
    """The characters killing the classes of 1 + P*O_P: <chi_P>, the dual
    of P, or the trivial group when P is not listed; exact.

    By the approximation theorem those classes are exactly the ones with
    P coordinate 0: by CRT, an x = 1 mod P takes any valuation at the other
    listed places and, with the degree of x free, any leading coefficient.
    """
    return CharacterGroup(window, tuple(
        Character.dual(window, i) for i, g in enumerate(window.gens)
        if g == (PLACE, place))), Certificate(exact=True)


def residue_window(handle: ValuationHandle, window: Window) -> Window:
    """The induced window on the residue field of the chain.

    Along Laurent (uniformizer) steps the kernel carries over verbatim and the
    generators are those not consumed.  After a final place step the residue
    field is finite; the induced kernel is expressible in window form only
    when it is everything (rank-0 window), which is verified by computing the
    span of the residues of the unlisted places and constants.
    """
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    cur = window
    for kind, payload in handle.steps:
        model = cur.model
        if kind == UNIF:
            cur = cur.base_window()
        else:
            const_listed = any(g[0] == CONST for g in cur.gens)
            if _finite_kernel_is_everything(model, payload, cur,
                                            const_listed=const_listed):
                # every leftover generator class dies in the full kernel
                return Window(handle.models[-1], cur.level, ())
            if not const_listed and model.ff.poly_deg(payload) == 1:
                # constants alone surject onto the degree-one residue field
                return Window(handle.models[-1], cur.level, ())
            raise UnsupportedValuation(
                "residue kernel after the place step is not a window kernel")
    return cur


# places tried by _finite_kernel_is_everything go up to this degree, or to
# the degree of the place itself when that is higher
RESIDUE_PLACE_DEGREE = 2


def _finite_kernel_is_everything(model, place, window, const_listed):
    """Whether residues of unlisted places (plus constants when unlisted and
    the l^n-th powers) already span all of k(P)^x mod the level."""
    ff = model.ff
    kres = residue_field_of_place(model, place)
    order = kres.q - 1
    span = math.gcd(window.level.modulus, order)   # l^n-th powers
    if order % 2 == 0:
        span = math.gcd(span, order // 2)          # -1
    listed = {g[1] for g in window.gens if g[0] == PLACE}
    for d in range(1, max(RESIDUE_PLACE_DEGREE, ff.poly_deg(place)) + 1):
        for q in ff.monic_polys(d):
            if q == place or q in listed or not ff.poly_is_irreducible(q):
                continue
            res = _place_residue(model, place, q, (ff.one,), 0)
            span = math.gcd(span, kres.dlog(res.data))
            if span == 1:
                return True
    if not const_listed:
        c = ff.generator()
        emb = c if kres is ff else \
            kres.from_digits((c,) + (0,) * (kres.degree - 1))
        span = math.gcd(span, kres.dlog(emb))
    return span == 1


def residue_rank(handle: ValuationHandle, window: Window) -> int:
    """Rank of the residue window's full character group; raises
    UnsupportedValuation when the induced kernel is not expressible in window
    form."""
    return residue_window(handle, window).rank


def residue_char(f: Character, handle: ValuationHandle, window: Window,
                 decomp=None) -> Character:
    """Image of f in the residue window; defined for f in decomp_chars.

    Along uniformizer chains it is the projection that drops the consumed
    coordinates, with kernel exactly inertia_chars; a place step can only end
    in a rank-0 residue window, where the image is the zero character.
    """
    if f.window != window:
        raise LevelMismatch("character on a different window")
    if decomp is None:
        decomp, _ = decomp_chars(handle, window)
    if not decomp.contains(f):
        raise NotInDecomposition("character does not kill 1+m_v classes")
    res = residue_window(handle, window)
    vals = []
    for g in res.gens:
        i = window.gens.index(g)
        vals.append(f.values[i])
    return Character(res, tuple(vals))
