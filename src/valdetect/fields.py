"""Explicit field backends with exact arithmetic, valuations and windows.

Three tower shapes are supported, written in the CLI DSL as:

    gf:q                        finite field
    ratfunc(gf:q, u)            rational functions over a finite field
    laurent(BASE, t, prec=24)   formal Laurent series over another backend

Elements are exact: finite-field codes, reduced fractions of polynomials, or
truncated Laurent series carrying an explicit precision bound.  Laurent
operations track worst-case precision and raise PrecisionExhausted instead of
guessing; a series with bound None is exactly known.

A nonzero element is read through its leading term (`leading_term`): the
exponent vector down the Laurent tower, top level first (() on a finite or
rational-function model), and the bottom element; a coefficient stored at
its level's bound leads nothing.

A ValuationHandle is a chain of native places (uniformizers of successive
Laurent levels, optionally ending in a monic-irreducible place of a rational
function bottom); its value group is Z^k ordered lexicographically, which
never has non-trivial l-divisible convex subgroups.  The handle's
constructor is the single check of a chain against its tower: it rejects
every other chain and records the field each step acts on, so value_of,
residue_of, residue_model and the character groups only read that record.

A Window fixes a level (l, n) and a finite list of generators (uniformizer
classes, place classes, and optionally the constant-field generator class);
the kernel T contains -1, all l^n-th powers, and every unlisted place class,
so K^x/T is a finite Z/l^n-module with the listed generators as quasi-basis.
The class of x is that of its leading term: the exponent of each listed
uniformizer's level, and the place and const coordinates of the bottom.
"""

import itertools
import math
import re
from dataclasses import dataclass

from .coeffmod import Level
from .errors import (
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
    UnsupportedValuation,
    ZeroElement,
)
from .ffpoly import FiniteField, _tuple_trim


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class FieldModel:
    kind = None

    def elt(self, data):
        return Elt(self, data)

    @property
    def characteristic(self):
        return self.constant_field().p

    def constant_field(self) -> FiniteField:
        raise NotImplementedError

    def laurent_vars(self):
        """Uniformizer variables of the Laurent levels, top first."""
        return ()

    def bottom(self):
        """The non-Laurent bottom of the tower (this model if not Laurent)."""
        return self

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, c):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError

    def __repr__(self):
        return self.spec()


class FFModel(FieldModel):
    kind = "finite"

    def __init__(self, ff: FiniteField):
        self.ff = ff

    def constant_field(self):
        return self.ff

    def zero(self):
        return self.elt(0)

    def from_int(self, c):
        return self.elt(self.ff.from_int(c))

    def spec(self):
        return f"gf:{self.ff.q}"

    def __eq__(self, other):
        return isinstance(other, FFModel) and other.ff.q == self.ff.q

    def __hash__(self):
        return hash(("finite", self.ff.q))


class RatFuncModel(FieldModel):
    kind = "ratfunc"

    def __init__(self, ff: FiniteField, var: str):
        self.ff = ff
        self.var = var

    def constant_field(self):
        return self.ff

    def zero(self):
        return self.elt(((), (self.ff.one,)))

    def from_int(self, c):
        cc = self.ff.from_int(c)
        num = (cc,) if cc else ()
        return self.elt((num, (self.ff.one,)))

    def from_poly(self, num, den=None):
        return self.elt(self._reduce(num, den or (self.ff.one,)))

    def _reduce(self, num, den):
        if not den:
            raise ZeroElement("zero denominator")
        if not num:
            return ((), (self.ff.one,))
        g = self.ff.poly_gcd(num, den)
        if self.ff.poly_deg(g) > 0:
            num = self.ff.poly_divmod(num, g)[0]
            den = self.ff.poly_divmod(den, g)[0]
        lc = self.ff.inv(den[-1])
        return (self.ff.poly_scale(num, lc), self.ff.poly_scale(den, lc))

    def spec(self):
        return f"ratfunc(gf:{self.ff.q},{self.var})"

    def __eq__(self, other):
        return (isinstance(other, RatFuncModel) and other.ff.q == self.ff.q
                and other.var == self.var)

    def __hash__(self):
        return hash(("ratfunc", self.ff.q, self.var))


class LaurentModel(FieldModel):
    kind = "laurent"
    DEFAULT_PREC = 24

    def __init__(self, base: FieldModel, var: str, prec: int = DEFAULT_PREC):
        if var in base.laurent_vars() or (
            isinstance(base.bottom(), RatFuncModel) and base.bottom().var == var
        ):
            raise PreconditionViolated(f"variable {var} already used in tower")
        if not 1 <= prec <= MAX_PRECISION:
            raise PreconditionViolated(
                f"Laurent precision {prec} is outside 1..{MAX_PRECISION}")
        self.base = base
        self.var = var
        self.prec = prec

    def constant_field(self):
        return self.base.constant_field()

    def laurent_vars(self):
        return (self.var,) + self.base.laurent_vars()

    def bottom(self):
        return self.base.bottom()

    def zero(self):
        return self.elt(((), None))

    def from_int(self, c):
        return self.monomial(0, self.base.from_int(c))

    def monomial(self, e, c):
        """The exact series c*t^e, for a base element c."""
        return monomial(self, (e,), c)

    def from_terms(self, terms, bound=None):
        """Series from {exponent: base element}; bound None means exact."""
        coeffs = []
        for e, c in sorted(terms.items()):
            if bound is not None and e >= bound:
                continue
            if not c.is_zero():
                coeffs.append((e, c.data))
        return self.elt((tuple(coeffs), bound))

    def spec(self):
        return f"laurent({self.base.spec()},{self.var},prec={self.prec})"

    def __eq__(self, other):
        return (isinstance(other, LaurentModel) and other.base == self.base
                and other.var == self.var and other.prec == self.prec)

    def __hash__(self):
        return hash(("laurent", hash(self.base), self.var, self.prec))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _bmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _known_nonzero(m, data):
    """Whether the element of m with this data has a stored coefficient, at
    some depth, known to be nonzero: a nonzero finite-field code or
    numerator; a kept O(..) coefficient, or one stored at its own bound,
    is not known to be."""
    if m.kind == "finite":
        return data != 0
    if m.kind == "ratfunc":
        return bool(data[0])
    coeffs, bound = data
    return any(_known_nonzero(m.base, c) for e, c in coeffs
               if bound is None or e < bound)


class Elt:
    """An exact element of one of the backends; immutable value object.
    Laurent arithmetic keeps a coefficient known only as O(..) and drops
    one only when it is exactly zero, its data the base zero's."""

    __slots__ = ("model", "data")

    def __init__(self, model, data):
        self.model = model
        self.data = data

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        """Whether the element is zero; a Laurent series none of whose
        stored coefficients, at any depth, is known to be nonzero raises
        PrecisionExhausted unless it is exactly zero."""
        m = self.model
        if m.kind == "finite":
            return self.data == 0
        if m.kind == "ratfunc":
            return not self.data[0]
        if _known_nonzero(m, self.data):
            return False
        if self.data == ((), None):
            return True
        coeffs, bound = self.data
        if not coeffs:
            raise PrecisionExhausted(
                f"element known only as O({m.var}^{bound}); cannot decide "
                "zero")
        raise PrecisionExhausted(
            f"every coefficient of {format_element(self)} is known only to "
            "a bound; cannot decide zero")

    def __eq__(self, other):
        return (isinstance(other, Elt) and other.model == self.model
                and other.data == self.data)

    def __hash__(self):
        return hash((self.model, self.data))

    # -- ring ops -------------------------------------------------------------
    def _lift(self, other):
        if isinstance(other, int):
            return self.model.from_int(other)
        if not isinstance(other, Elt) or other.model != self.model:
            raise PreconditionViolated("mixed-field arithmetic")
        return other

    def __add__(self, other):
        other = self._lift(other)
        m = self.model
        if m.kind == "finite":
            return m.elt(m.ff.add(self.data, other.data))
        if m.kind == "ratfunc":
            a, b = self.data, other.data
            num = m.ff.poly_add(m.ff.poly_mul(a[0], b[1]),
                                m.ff.poly_mul(b[0], a[1]))
            return m.elt(m._reduce(num, m.ff.poly_mul(a[1], b[1])))
        (ca, ba), (cb, bb) = self.data, other.data
        bound = _bmin(ba, bb)
        acc = dict(ca)
        zero = m.base.zero().data
        for e, c in cb:
            cur = m.base.elt(acc.get(e, zero))
            acc[e] = (cur + m.base.elt(c)).data
        coeffs = tuple((e, c) for e, c in sorted(acc.items())
                       if (bound is None or e < bound) and c != zero)
        return m.elt((coeffs, bound))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        m = self.model
        if m.kind == "finite":
            return m.elt(m.ff.neg(self.data))
        if m.kind == "ratfunc":
            return m.elt((m.ff.poly_neg(self.data[0]), self.data[1]))
        coeffs, bound = self.data
        return m.elt((tuple((e, (-m.base.elt(c)).data) for e, c in coeffs),
                      bound))

    def __sub__(self, other):
        return self.__add__(-self._lift(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        m = self.model
        if m.kind == "finite":
            return m.elt(m.ff.mul(self.data, other.data))
        if m.kind == "ratfunc":
            a, b = self.data, other.data
            return m.elt(m._reduce(m.ff.poly_mul(a[0], b[0]),
                                   m.ff.poly_mul(a[1], b[1])))
        (ca, ba), (cb, bb) = self.data, other.data
        # worst-case precision: error of one factor times valuation of the other
        bound = None
        if ba is not None:
            bound = _bmin(bound, ba + (cb[0][0] if cb else 0))
        if bb is not None:
            bound = _bmin(bound, bb + (ca[0][0] if ca else 0))
        acc = {}
        for ea, a in ca:
            for eb, b in cb:
                e = ea + eb
                if bound is not None and e >= bound:
                    continue
                prod = m.base.elt(a) * m.base.elt(b)
                if e in acc:
                    prod = m.base.elt(acc[e]) + prod
                acc[e] = prod.data
        zero = m.base.zero().data
        coeffs = tuple((e, c) for e, c in sorted(acc.items()) if c != zero)
        return m.elt((coeffs, bound))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        m = self.model
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        if m.kind == "finite":
            return m.elt(m.ff.inv(self.data))
        if m.kind == "ratfunc":
            num, den = self.data
            lc = m.ff.inv(num[-1])
            return m.elt((m.ff.poly_scale(den, lc), m.ff.poly_scale(num, lc)))
        coeffs, bound = self.data
        if not coeffs:
            raise PrecisionExhausted("inverse of an O(..) element")
        v = coeffs[0][0]
        lead = m.base.elt(coeffs[0][1])
        li = lead.inverse()
        if len(coeffs) == 1 and bound is None:
            # exact monomial: exact inverse
            return m.monomial(-v, li)
        # x = lead * t^v * (1 + r); 1/(1+r) = sum (-r)^k, truncated
        digits = m.prec if bound is None else bound - v
        neg_r = {}
        for e, c in coeffs[1:]:
            neg_r[e - v] = (-(m.base.elt(c) * li)).data
        zero = m.base.zero().data
        out = {0: m.base.one().data}
        term = {0: m.base.one().data}
        for _ in range(1, digits):
            nxt = {}
            for e1, c1 in term.items():
                for e2, c2 in neg_r.items():
                    e = e1 + e2
                    if e >= digits:
                        continue
                    prod = m.base.elt(c1) * m.base.elt(c2)
                    if e in nxt:
                        prod = m.base.elt(nxt[e]) + prod
                    nxt[e] = prod.data
            term = {e: c for e, c in nxt.items() if c != zero}
            if not term:
                break
            for e, c in term.items():
                add = m.base.elt(c)
                if e in out:
                    add = m.base.elt(out[e]) + add
                out[e] = add.data
        coeffs_out = tuple(
            ((e - v), (m.base.elt(c) * li).data)
            for e, c in sorted(out.items()) if c != zero
        )
        return m.elt((coeffs_out, -v + digits))

    def __truediv__(self, other):
        return self.__mul__(self._lift(other).inverse())

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.model.one()
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    # -- structure ------------------------------------------------------------
    def laurent_lead(self):
        """(valuation, leading coefficient as a base element) of a Laurent
        element; raises as `leading_term` does."""
        vec, _ = leading_term(self)
        return vec[0], self.model.base.elt(self.data[0][0][1])

    def __repr__(self):
        return f"<{format_element(self)} in {self.model.spec()}>"


# ---------------------------------------------------------------------------
# leading terms
# ---------------------------------------------------------------------------

def leading_term(x: Elt):
    """(exponent vector, bottom element) of the leading term of a nonzero x
    down its Laurent tower, top level first: x is that term times (1 +
    higher order terms at each level), and only it is visible to windows.
    monomial(x.model, *leading_term(x)) is the term.

    Raises ZeroElement for x = 0, and PrecisionExhausted when the leading
    coefficient of some level is not known below that level's bound; a
    coefficient stored at its own bound is not known."""
    model, data, vec = x.model, x.data, []
    while model.kind == "laurent":
        coeffs, bound = data
        if not coeffs or (bound is not None and coeffs[0][0] >= bound):
            if vec:
                raise PrecisionExhausted(
                    f"coefficient of {var}^{vec[-1]} not known to be nonzero")
            if bound is None:
                raise ZeroElement("leading term of zero")
            raise PrecisionExhausted(
                f"no known coefficient below O({model.var}^{bound})")
        e, data = coeffs[0]
        vec.append(e)
        var, model = model.var, model.base
    bottom = model.elt(data)
    if bottom.is_zero():
        raise ZeroElement("leading term of zero")
    return tuple(vec), bottom


def _sum_lead(m, a, b):
    """leading_term() of the element with data a + b, read from the
    leading terms alone; None when the sum is exactly zero.  A
    rational-function bottom comes back as the unreduced fraction
    (n_a d_b + n_b d_a) / (d_a d_b)."""
    if m.kind == "finite":
        s = m.ff.add(a, b)
        return ((), m.elt(s)) if s else None
    if m.kind == "ratfunc":
        ff = m.ff
        num = ff.poly_add(ff.poly_mul(a[0], b[1]), ff.poly_mul(b[0], a[1]))
        return ((), m.elt((num, ff.poly_mul(a[1], b[1])))) if num else None
    (ca, ba), (cb, bb) = a, b
    bound = _bmin(ba, bb)
    i = j = 0
    while i < len(ca) or j < len(cb):
        ea = ca[i][0] if i < len(ca) else math.inf
        eb = cb[j][0] if j < len(cb) else math.inf
        e = min(ea, eb)
        if bound is not None and e >= bound:
            break
        if ea == eb:
            lead = _sum_lead(m.base, ca[i][1], cb[j][1])
            if lead is None:  # the coefficients cancel
                i += 1
                j += 1
                continue
        else:
            lead = leading_term(m.base.elt(ca[i][1] if ea < eb else cb[j][1]))
        return (e, *lead[0]), lead[1]
    if bound is None:
        return None
    raise PrecisionExhausted(
        f"no known coefficient of the sum below O({m.var}^{bound})")


# ---------------------------------------------------------------------------
# valuation handles
# ---------------------------------------------------------------------------

UNIF, PLACE, CONST = "unif", "place", "const"


@dataclass(frozen=True)
class ValuationHandle:
    """A composition chain of native places; () is the trivial valuation.

    A step is (UNIF, var), which consumes the top Laurent level, or
    (PLACE, poly) with poly monic irreducible over a rational-function
    level, which ends the chain at a finite residue field.  The constructor
    is the one check of a chain against the tower: any other chain raises
    UnsupportedValuation there.  It records in `models` the field each step
    acts on, followed by the residue field k(v), and every walker reads
    those instead of walking the tower again."""

    model: FieldModel
    steps: tuple

    def __post_init__(self):
        models = [self.model]
        for kind, payload in self.steps:
            cur = models[-1]
            if cur.kind == "finite":
                raise UnsupportedValuation("finite fields have no native places")
            want = UNIF if cur.kind == "laurent" else PLACE
            if kind != want:
                raise UnsupportedValuation(
                    f"a {kind} step on {cur.spec()}, which takes a {want} step")
            if kind == UNIF:
                if payload != cur.var:
                    raise UnsupportedValuation(
                        f"expected uniformizer {cur.var!r}, got {payload!r}")
                models.append(cur.base)
            else:
                if not cur.ff.poly_is_irreducible(payload):
                    raise UnsupportedValuation("place polynomial is reducible")
                if payload[-1] != cur.ff.one:
                    raise UnsupportedValuation("place polynomial is not monic")
                models.append(FFModel(residue_field_of_place(cur, payload)))
        object.__setattr__(self, "models", tuple(models))

    @staticmethod
    def trivial(model):
        return ValuationHandle(model, ())

    @staticmethod
    def from_steps(model, steps):
        """steps: uniformizer names, then optionally a place over a
        rational-function level, as a polynomial string or coefficient
        tuple (made monic here)."""
        handle = ValuationHandle(model, ())
        for s in steps:
            cur = handle.models[-1]
            if cur.kind == "ratfunc":
                poly = _parse_poly(cur, s) if isinstance(s, str) else s
                step = (PLACE, cur.ff.poly_monic(poly))
            else:
                step = (UNIF, s)
            handle = ValuationHandle(model, handle.steps + (step,))
        return handle

    @property
    def rank(self):
        return len(self.steps)

    def is_trivial(self):
        return not self.steps

    def spec(self):
        return ",".join(
            payload if kind == UNIF else m.ff.poly_fmt(payload, m.var)
            for (kind, payload), m in zip(self.steps, self.models))


def residue_field_of_place(model: RatFuncModel, place):
    """Residue field at a monic irreducible place: F_q for degree 1, else
    the extension F_q[var]/(place)."""
    if model.ff.poly_deg(place) == 1:
        return model.ff
    return _ext_field(model.ff, place, model.var + "bar")


_EXT_FIELDS = {}


def _ext_field(ff, place, symbol):
    key = (ff.q, place, symbol)
    if key not in _EXT_FIELDS:
        _EXT_FIELDS[key] = FiniteField(base=ff, modulus=place, symbol=symbol)
    return _EXT_FIELDS[key]


def residue_model(handle: ValuationHandle) -> FieldModel:
    """Backend of the residue field k(v) after the whole chain."""
    return handle.models[-1]


def compose_valuations(v: ValuationHandle, w: ValuationHandle) -> ValuationHandle:
    """The composite valuation v followed by w on the residue field of v."""
    if residue_model(v) != w.model:
        raise UnsupportedValuation(
            "second valuation does not live on the residue field of the first")
    return ValuationHandle(v.model, v.steps + w.steps)


def _walk(handle: ValuationHandle, x: Elt):
    """(image of x in Z^rank, residue in k(v) of x's unit part): each step
    takes off the leading exponent or the place multiplicity and passes the
    unit part down."""
    if x.model != handle.model:
        raise UnsupportedValuation("element not in the handle's field")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    out = []
    cur = x
    for kind, payload in handle.steps:
        if kind == UNIF:
            v, cur = cur.laurent_lead()
        else:
            m = cur.model
            num, den = cur.data
            v = m.ff.place_multiplicity(num, payload) - \
                m.ff.place_multiplicity(den, payload)
            cur = _place_residue(m, payload, num, den, v)
        out.append(v)
    return tuple(out), cur


def value_of(handle: ValuationHandle, x: Elt):
    """Image of x in the value group Z^rank, lexicographically ordered."""
    return _walk(handle, x)[0]


def _place_residue(m: RatFuncModel, place, num, den, v):
    """Unit-part residue of num/den at the place (v = place valuation)."""
    kres = residue_field_of_place(m, place)
    for _ in range(max(0, v)):
        num = m.ff.poly_divmod(num, place)[0]
    for _ in range(max(0, -v)):
        den = m.ff.poly_divmod(den, place)[0]
    rn = m.ff.poly_mod(num, place)
    rd = m.ff.poly_mod(den, place)
    if m.ff.poly_deg(place) == 1:
        a = m.ff.neg(place[0])
        cn, cd = m.ff.poly_eval(num, a), m.ff.poly_eval(den, a)
        return FFModel(kres).elt(m.ff.mul(cn, m.ff.inv(cd)))
    pad = lambda t: t + (0,) * (kres.degree - len(t))
    en = kres.from_digits(pad(rn))
    ed = kres.from_digits(pad(rd))
    return FFModel(kres).elt(kres.mul(en, kres.inv(ed)))


def residue_of(handle: ValuationHandle, x: Elt) -> Elt:
    """Residue of a v-unit x in k(v)."""
    values, res = _walk(handle, x)
    if any(c != 0 for c in values):
        raise UnsupportedValuation("residue of a non-unit")
    return res


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def _const_class_order(ff: FiniteField, level: Level) -> int:
    """Order of the constant generator class in F_q^x / (+-1, l^n-th powers)."""
    q = ff.q
    d = math.gcd(level.modulus, q - 1)
    if q % 2 == 1:
        d = math.gcd(d, (q - 1) // 2)
    return d


@dataclass(frozen=True)
class Window:
    """A finite quotient K^x/T presented by labeled generator classes.

    fraction_class is the one rule for the class of a bottom fraction, and
    base_window and from_base the one rule for how a window sits over the
    window on its Laurent base."""

    model: FieldModel
    level: Level
    gens: tuple  # of (UNIF, var) | (PLACE, poly tuple) | (CONST,)

    def __post_init__(self):
        ell = self.level.ell
        if self.model.characteristic == ell:
            raise PreconditionViolated("residue characteristic equals ell")
        seen = set()
        lvars = set(self.model.laurent_vars())
        bottom = self.model.bottom()
        for g in self.gens:
            if g in seen:
                raise PreconditionViolated(f"duplicate window generator {g}")
            seen.add(g)
            if g[0] == UNIF:
                if g[1] not in lvars:
                    raise PreconditionViolated(f"unknown uniformizer {g[1]}")
            elif g[0] == PLACE:
                if bottom.kind != "ratfunc":
                    raise PreconditionViolated("place generator without a "
                                               "rational function bottom")
                poly = g[1]
                if not bottom.ff.poly_is_irreducible(poly) or \
                        poly[-1] != bottom.ff.one:
                    raise PreconditionViolated(
                        "place generators must be monic irreducible")
            elif g[0] == CONST:
                if _const_class_order(self.model.constant_field(),
                                      self.level) == 1:
                    raise PreconditionViolated(
                        "constant class is trivial at this level")
            else:
                raise PreconditionViolated(f"bad generator {g}")
        orders = []
        for g in self.gens:
            if g[0] == CONST:
                orders.append(_const_class_order(
                    self.model.constant_field(), self.level))
            else:
                orders.append(self.level.modulus)
        object.__setattr__(self, "_orders", tuple(orders))
        # read by fraction_class on every class, so resolved once
        object.__setattr__(self, "_ff", bottom.ff)
        object.__setattr__(self, "_one", (bottom.ff.one,))
        object.__setattr__(self, "_poly_memo", {})  # poly -> _poly_class
        # read by fraction_class on every class: the Laurent level, top
        # first, of each uniformizer generator, None for the others; and by
        # from_base on every Laurent table entry: the slot of level 0
        levels = tuple(self.model.laurent_vars().index(g[1]) if g[0] == UNIF
                       else None for g in self.gens)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_top_slot",
                           levels.index(0) if 0 in levels else None)
        object.__setattr__(self, "_base", None)  # base_window(), once made
        # the dataclass hash, taken once: windows key the scan-index cache
        object.__setattr__(self, "_hash",
                           hash((self.model, self.level, self.gens)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def build(model, level, gen_specs):
        """Generators given as uniformizer names, place polynomial strings
        (over the bottom), or 'const'."""
        gens = []
        lvars = set(model.laurent_vars())
        for s in gen_specs:
            if isinstance(s, tuple):
                gens.append(s)
            elif s == "const":
                gens.append((CONST,))
            elif s in lvars:
                gens.append((UNIF, s))
            else:
                bottom = model.bottom()
                if bottom.kind != "ratfunc":
                    raise ParseError(f"unknown generator {s!r}")
                gens.append((PLACE, bottom.ff.poly_monic(_parse_poly(bottom, s))))
        return Window(model, level, tuple(gens))

    @property
    def rank(self):
        return len(self.gens)

    @property
    def orders(self):
        """Additive order l^{d_i} of each generator class."""
        return self._orders

    def mu_2ln_ok(self) -> bool:
        """Whether the constant field contains the 2 l^n-th roots of unity."""
        q = self.model.constant_field().q
        need = 2 * self.level.modulus if q % 2 == 1 else self.level.modulus
        return (q - 1) % need == 0

    def gen_label(self, i):
        g = self.gens[i]
        if g[0] == UNIF:
            return g[1]
        if g[0] == CONST:
            return "const"
        bottom = self.model.bottom()
        return bottom.ff.poly_fmt(g[1], bottom.var)

    def gen_element(self, i) -> Elt:
        """A canonical K-element representing generator i."""
        g = self.gens[i]
        if g[0] == CONST:
            gen = self.model.constant_field().generator()
            return lift_constant(self.model, gen)
        if g[0] == UNIF:
            return _lift_from(self.model, g[1])
        bottom = self.model.bottom()
        return _lift_bottom(self.model, bottom.elt((g[1], (bottom.ff.one,))))

    def classify(self, x: Elt):
        """Class vector of x in K^x/T on the window quasi-basis: the class
        of its leading term (raises as `leading_term` does)."""
        if x.model is not self.model and x.model != self.model:
            raise PreconditionViolated("element not in the window's field")
        return self.classify_term(*leading_term(x))

    def classify_sum(self, a: Elt, b: Elt):
        """classify(a + b) without building the sum; None when a + b is
        exactly zero.

        Only the leading term of the sum is formed: the coefficient lists
        of each Laurent level are merged up to the first exponent whose
        summed coefficient is nonzero, and a rational-function bottom is
        left unreduced, since classes are homomorphic.  Raises
        PrecisionExhausted when the leading term of the sum is not known.
        """
        m = self.model
        if (a.model is not m and a.model != m) or \
                (b.model is not m and b.model != m):
            raise PreconditionViolated("element not in the window's field")
        lead = _sum_lead(m, a.data, b.data)
        if lead is None:
            return None
        return self.classify_term(*lead)

    def classify_term(self, vec, bot):
        """Class of the term bot * prod t_i^vec[i], for an exponent vector
        vec of the Laurent levels, top first, and a nonzero bottom element
        bot."""
        if bot.model.kind == "finite":
            return self.fraction_class((bot.data,), self._one, vec)
        return self.fraction_class(*bot.data, vec)

    def fraction_class(self, num, den, vec=()):
        """Class of (num / den) * prod t_i^vec[i] for nonzero polynomials
        num, den over the bottom, which need not be coprime or monic, and
        an exponent vector vec of the Laurent levels, top first (() on a
        window that lists no uniformizer).

        A place coordinate is the multiplicity of the place in num minus
        that in den, the const coordinate is dlog lc(num) - dlog lc(den),
        and a uniformizer coordinate is the exponent of its level in vec.
        The per-polynomial data is memoised on the window."""
        memo = self._poly_memo
        dn, dd = memo.get(num), memo.get(den)
        if dn is None:
            dn = self._poly_class(num)
        if dd is None:
            dd = self._poly_class(den)
        out = []
        i = 0
        for level, order in zip(self._levels, self._orders):
            if level is None:
                out.append((dn[i] - dd[i]) % order)
                i += 1
            else:
                out.append(vec[level] % order)
        return tuple(out)

    def _poly_class(self, poly):
        """Per listed place or const, in window order: the multiplicity of
        the place in poly, or the dlog of its leading coefficient; stored
        in the memo that fraction_class reads first."""
        ff = self._ff
        got = self._poly_memo[poly] = tuple(
            ff.place_multiplicity(poly, g[1]) if g[0] == PLACE
            else ff.dlog(poly[-1])
            for g in self.gens if g[0] != UNIF)
        return got

    def zero_class(self):
        return (0,) * self.rank

    def class_sub(self, a, b):
        return tuple((x - y) % o for x, y, o in zip(a, b, self.orders))

    def class_add(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def spec(self):
        gens = ",".join(self.gen_label(i) for i in range(self.rank))
        return (f"window{{ell={self.level.ell},n={self.level.n},"
                f"gens=[{gens}]}}")

    def at_level(self, n: int) -> "Window":
        return Window(self.model, Level(self.level.ell, n), self.gens)

    def base_window(self) -> "Window":
        """The window on the base of a Laurent model: the same level and
        generators, less the top uniformizer; made once per window, since
        every exactness check of a scan reads it."""
        if self.model.kind != "laurent":
            raise PreconditionViolated("no Laurent level to drop")
        if self._base is None:
            top = (UNIF, self.model.var)
            object.__setattr__(self, "_base", Window(
                self.model.base, self.level,
                tuple(g for g in self.gens if g != top)))
        return self._base

    def from_base(self, vec, top_value):
        """A base_window() vector (a class or character values, as a tuple)
        as a vector on this window, with top_value in the top uniformizer's
        slot when the window lists it."""
        i = self._top_slot
        if i is None:
            return vec
        return vec[:i] + (top_value,) + vec[i:]


def monomial(model, vec, bottom):
    """The exact element bottom * prod t_i^vec[i] of the tower `model`, for
    exponents vec of its top len(vec) Laurent levels, top first, and an
    element `bottom` of the field below them."""
    if not vec:
        return bottom
    if bottom.is_zero():
        return model.zero()
    data = bottom.data
    for e in reversed(vec):
        data = (((e, data),), None)
    return model.elt(data)


def lift_constant(model, ffcode):
    """The constant-field element with code ffcode, as an element of the
    tower."""
    bottom = model.bottom()
    if bottom.kind == "ratfunc":
        ffcode = ((ffcode,) if ffcode else (), (bottom.ff.one,))
    return _lift_bottom(model, bottom.elt(ffcode))


def _lift_from(model, var):
    """The uniformizer `var` as an element of the full tower."""
    lvars = model.laurent_vars()
    if var not in lvars:
        raise PreconditionViolated(f"no variable {var} here")
    return monomial(model, tuple(int(v == var) for v in lvars),
                    model.bottom().one())


def _lift_bottom(model, x):
    """The element x of the bottom as an element of the full tower."""
    return monomial(model, (0,) * len(model.laurent_vars()), x)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_blocks(model, height, ratfunc_cap=None):
    """Yield per-height lists: block s holds the elements new at height s.

    The concatenation of blocks 0..h is the deterministic, duplicate-free
    enumeration stream at height h; streams at different heights are prefixes
    of one another.  With `ratfunc_cap`, rational-function blocks above the
    cap are empty, at every level of a tower.  The Laurent order repeats the
    one `ScanIndex.stream` derives on purpose: this is the independent
    reference `tests/oracles.capped_stream` checks that stream against.
    """
    if model.kind != "laurent":
        for s in range(height + 1):
            yield bottom_block(model, s, ratfunc_cap)
        return
    # laurent: x = c * t^e with c from the residue stream, max(|e|, block(c)) = s
    res_blocks = []
    for s, blk in enumerate(enumerate_blocks(model.base, height, ratfunc_cap)):
        res_blocks.append(blk)
        out = [model.zero()] if s == 0 else []
        for sc, cblk in enumerate(res_blocks):
            es = laurent_exponents(s, sc)
            for c in cblk:
                if not c.is_zero():
                    out.extend(model.monomial(e, c) for e in es)
        yield out


def bottom_block(model, s, ratfunc_cap=None):
    """Block s of the stream of a finite or rational-function model, as a
    list; every finite element sits in block 0."""
    if model.kind == "finite":
        return [model.elt(c) for c in model.ff.elements()] if s == 0 else []
    if ratfunc_cap is not None and s > ratfunc_cap:
        return []
    return list(_ratfunc_block(model, s))


def laurent_exponents(s, sc):
    """The exponents e, ascending, of the elements c * t^e in Laurent block s
    for a residue element c first seen in block sc <= s."""
    if sc < s:
        return (-s, s)
    return range(-s, s + 1)


def ratfunc_denominators(ff, s):
    """Denominators of rational-function block s in stream order: the monic
    polynomials of degree <= s, by degree."""
    for d in range(s + 1):
        yield from ff.monic_polys(d)


def ratfunc_numerators(ff, s, full):
    """Nonzero numerators of rational-function block s in stream order, for a
    denominator of degree s (`full`: every degree <= s) or of lower degree
    (degree exactly s)."""
    for d in (range(s + 1) if full else (s,)):
        yield from ff.polys_of_degree(d)


def _ratfunc_block(model, s):
    ff = model.ff
    for den in ratfunc_denominators(ff, s):
        nums = ratfunc_numerators(ff, s, ff.poly_deg(den) == s)
        if s == 0:
            nums = itertools.chain(((),), nums)
        for num in nums:
            if num and ff.poly_deg(ff.poly_gcd(num, den)) > 0:
                continue
            yield model.elt((num, den))


def enumerate_elements(model, height):
    """Deterministic duplicate-free stream of elements up to the height."""
    for blk in enumerate_blocks(model, height):
        yield from blk


def random_element(model, rng, size=2):
    """A random nonzero element, for property tests."""
    while True:
        if model.kind == "finite":
            x = model.elt(rng.randrange(model.ff.q))
        elif model.kind == "ratfunc":
            ff = model.ff
            num = tuple(rng.randrange(ff.q) for _ in range(size + 1))
            den = tuple(rng.randrange(ff.q) for _ in range(size)) + (ff.one,)
            x = model.from_poly(_tuple_trim(num), den)
        else:
            e = rng.randrange(-size, size + 1)
            c1 = random_element(model.base, rng, size)
            c2 = random_element(model.base, rng, size)
            x = model.from_terms({e: c1, e + rng.randrange(1, size + 2): c2})
        if not x.is_zero():
            return x


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

_FIELD_RE = re.compile(r"\s*(gf:\d+|ratfunc|laurent|[(),]|prec=\d+|[A-Za-z_]\w*)")


def parse_field(spec: str) -> FieldModel:
    toks = _tokenize_field(spec)
    model, pos = _parse_field_expr(toks, 0, spec)
    if pos != len(toks):
        raise ParseError(f"trailing input in field spec {spec!r}", pos)
    return model


def _tokenize_field(spec):
    out, i = [], 0
    while i < len(spec):
        mm = _FIELD_RE.match(spec, i)
        if not mm:
            raise ParseError(f"bad field spec near {spec[i:]!r}", i)
        out.append(mm.group(1))
        i = mm.end()
    return out


def _parse_field_expr(toks, pos, spec):
    if pos >= len(toks):
        raise ParseError("truncated field spec", pos)
    t = toks[pos]
    if t.startswith("gf:"):
        return FFModel(FiniteField.of_order(_integer(t[3:], pos))), pos + 1
    if t == "ratfunc":
        _expect(toks, pos + 1, "(", spec)
        inner, p = _parse_field_expr(toks, pos + 2, spec)
        if not isinstance(inner, FFModel):
            raise ParseError("ratfunc base must be a finite field", pos)
        _expect(toks, p, ",", spec)
        var = _variable(toks, p + 1, spec)
        _expect(toks, p + 2, ")", spec)
        return RatFuncModel(inner.ff, var), p + 3
    if t == "laurent":
        _expect(toks, pos + 1, "(", spec)
        inner, p = _parse_field_expr(toks, pos + 2, spec)
        _expect(toks, p, ",", spec)
        var = _variable(toks, p + 1, spec)
        p += 2
        prec = LaurentModel.DEFAULT_PREC
        if p < len(toks) and toks[p] == ",":
            if p + 1 >= len(toks) or not toks[p + 1].startswith("prec="):
                raise ParseError("expected prec=<int>", p + 1)
            prec = _integer(toks[p + 1][5:], p + 1)
            p += 2
        _expect(toks, p, ")", spec)
        return LaurentModel(inner, var, prec), p + 1
    raise ParseError(f"unexpected token {t!r} in field spec", pos)


def _expect(toks, pos, want, spec):
    if pos >= len(toks) or toks[pos] != want:
        raise ParseError(f"expected {want!r} in {spec!r}", pos)


def _variable(toks, pos, spec):
    if pos >= len(toks) or not toks[pos].isidentifier():
        raise ParseError(f"expected a variable name in {spec!r}", pos)
    return toks[pos]


_WINDOW_RE = re.compile(
    r"^\s*(?:window)?\s*\{\s*(.*?)\s*\}\s*$", re.S)


def parse_window(model: FieldModel, spec: str) -> Window:
    mm = _WINDOW_RE.match(spec)
    if not mm:
        raise ParseError(f"bad window spec {spec!r}")
    body = mm.group(1)
    gm = re.search(r"gens\s*=\s*\[([^\]]*)\]", body)
    if not gm:
        raise ParseError("window spec needs gens=[...]")
    gens = [g.strip() for g in gm.group(1).split(",") if g.strip()]
    rest = body[:gm.start()] + body[gm.end():]
    kv = dict(
        (k.strip(), v.strip())
        for k, v in (item.split("=", 1) for item in rest.split(",")
                     if "=" in item)
    )
    if "ell" not in kv or not ({"n", "level"} & kv.keys()):
        raise ParseError("window spec needs ell=, n= (or level=), gens=[..]")
    try:
        ell, n = int(kv["ell"]), int(kv.get("n", kv.get("level")))
    except ValueError:
        raise ParseError(f"ell and n must be integers in {spec!r}") from None
    return Window.build(model, Level(ell, n), gens)


_ELT_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[-+*/^()])")

# the largest exponent an element expression may use, counting a power of a
# parenthesized power as the product of the two exponents.  A power is built
# in full, and its cost grows with e^2 per level of the tower: (1+u*t)^256
# on laurent(ratfunc(gf:7,u),t) takes 0.5 s, (1+u*t)^1024 over 90 s
MAX_EXPONENT = 256

# the largest Laurent precision.  A series inverse takes up to prec steps,
# each a product with a base series of up to prec terms: 1/(1-s-t) over
# laurent(laurent(gf:7,s,prec=P),t,prec=P) takes 1.3 s at P = 128 and
# 8.6 s at P = 256
MAX_PRECISION = 128


def _integer(digits, pos):
    """int(digits), or a ParseError for more digits than the interpreter
    converts (sys.get_int_max_str_digits, 4,300 by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         pos) from None


def parse_element(model: FieldModel, s: str) -> Elt:
    toks = []
    i = 0
    while i < len(s):
        mm = _ELT_TOKEN.match(s, i)
        if not mm:
            raise ParseError(f"bad element near {s[i:]!r}", i)
        toks.append(mm.group(1))
        i = mm.end()
    val, pos, _ = _parse_sum(model, toks, 0)
    if pos != len(toks):
        raise ParseError(f"trailing input in element {s!r}", pos)
    return val


def _parse_sum(model, toks, pos):
    """(value, next position, weight) of a sum; the weight of an expression
    is the largest product of nested exponents in it, 1 without powers."""
    sign = 1
    while pos < len(toks) and toks[pos] in "+-":
        if toks[pos] == "-":
            sign = -sign
        pos += 1
    acc, pos, weight = _parse_product(model, toks, pos)
    if sign < 0:
        acc = -acc
    while pos < len(toks) and toks[pos] in "+-":
        op = toks[pos]
        term, pos, w = _parse_product(model, toks, pos + 1)
        acc = acc + term if op == "+" else acc - term
        weight = max(weight, w)
    return acc, pos, weight


def _parse_product(model, toks, pos):
    acc, pos, weight = _parse_power(model, toks, pos)
    while pos < len(toks) and toks[pos] in ("*", "/"):
        op = toks[pos]
        rhs, pos, w = _parse_power(model, toks, pos + 1)
        acc = acc * rhs if op == "*" else acc / rhs
        weight = max(weight, w)
    return acc, pos, weight


def _parse_power(model, toks, pos):
    base, pos, weight = _parse_atom(model, toks, pos)
    if pos < len(toks) and toks[pos] in ("^", "**"):
        neg = False
        pos += 1
        if pos < len(toks) and toks[pos] == "-":
            neg = True
            pos += 1
        if pos >= len(toks) or not toks[pos].isdigit():
            raise ParseError("exponent must be an integer", pos)
        e = _integer(toks[pos], pos)
        weight *= e
        if weight > MAX_EXPONENT:
            raise PreconditionViolated(
                f"exponent {weight} is above the limit {MAX_EXPONENT}")
        return base ** (-e if neg else e), pos + 1, weight
    return base, pos, weight


def _parse_atom(model, toks, pos):
    if pos >= len(toks):
        raise ParseError("truncated element expression", pos)
    t = toks[pos]
    if t == "(":
        val, p, weight = _parse_sum(model, toks, pos + 1)
        if p >= len(toks) or toks[p] != ")":
            raise ParseError("unbalanced parenthesis", p)
        return val, p + 1, weight
    if t == "-":
        val, p, weight = _parse_atom(model, toks, pos + 1)
        return -val, p, weight
    if t.isdigit():
        return model.from_int(_integer(t, pos)), pos + 1, 1
    # a name: laurent var, ratfunc var, or extension-field symbol
    return _named_element(model, t), pos + 1, 1


def _named_element(model, name):
    if name in model.laurent_vars():
        return _lift_from(model, name)
    bottom = model.bottom()
    if bottom.kind == "ratfunc" and name == bottom.var:
        return _lift_bottom(model, bottom.elt(((0, bottom.ff.one), (bottom.ff.one,))))
    cf = model.constant_field()
    if cf.base is not None and name == cf.symbol:
        return lift_constant(model, cf.from_digits((0, cf.base.one) +
                                                   (0,) * (cf.degree - 2)))
    raise ParseError(f"unknown name {name!r} in this field")


def _parse_poly(model: RatFuncModel, s: str):
    x = parse_element(model, s)
    num, den = x.data
    if model.ff.poly_deg(den) != 0:
        raise ParseError(f"{s!r} is not a polynomial")
    return model.ff.poly_scale(num, model.ff.inv(den[0]))


def format_element(x: Elt) -> str:
    m = x.model
    if m.kind == "finite":
        return m.ff.fmt(x.data)
    if m.kind == "ratfunc":
        num, den = x.data
        ns = m.ff.poly_fmt(num, m.var)
        if m.ff.poly_deg(den) == 0:
            return ns
        ds = m.ff.poly_fmt(den, m.var)
        npar = f"({ns})" if ("+" in ns or len(num) > 1) else ns
        return f"{npar}/({ds})"
    coeffs, bound = x.data
    terms = []
    for e, c in coeffs:
        cs = format_element(m.base.elt(c))
        if e == 0:
            terms.append(cs)
            continue
        if any(ch in cs for ch in "+-*/^") and not cs.lstrip("-").isdigit():
            cs = f"({cs})"
        head = m.var if cs == "1" else f"{cs}*{m.var}"
        terms.append(head if e == 1 else f"{head}^{e}")
    if bound is not None:
        terms.append(f"O({m.var}^{bound})")
    return "+".join(terms) if terms else "0"
