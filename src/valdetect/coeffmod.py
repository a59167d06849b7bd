"""Residue arithmetic mod l^n and exact linear algebra over Z/l^e.

Provides the level bookkeeping (Level, Coeff), the index bounds used to pick
lifting levels, the cancellation rule for products over Z/l^R, and module
calculus for finitely generated Z/l^n-modules: Howell canonical forms, Smith
forms with transforms, kernels, span membership and quasi-bases.

This module is the one home of span algebra: every other module hands it
the Howell rows of a span and gets back members, quasi-bases (of the span or
of a quotient of spans), coordinates over the rows and intersections.  A
presented module FinMod takes one Smith form of its relations R; it gives a
linear map q onto (Z/l^n)^k with kernel exactly R, so membership modulo R
is a question about the q-images alone (quotient_span).  Membership in a
cyclic span <v> needs no Howell form at all: cyclic_contains checks the one
candidate multiple that a coordinate of least valuation allows.  Cyclicity
of a pair of vectors uses the chain criterion: the subgroups of a cyclic
l-group form a chain, so <v1, v2> is cyclic iff v1 lies in <v2> or v2 lies
in <v1>.

It also fixes the layout of the exterior square: `wedge_pairs(rank)` lists
the basis e_ij, i < j, row by row, and `wedge(a, b)` gives the coordinates
of a ^ b on it.  Steinberg wedges, the C-pair pairing f ^ g, commutators in
a central frame and the Bockstein columns all use this one layout.

All computations are exact; moduli may be astronomically large (the level
bounds grow like l^(3n), so Coeff values are plain Python integers).
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import LevelMismatch, PreconditionViolated

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# a Level has n * (bit length of l) <= MAX_LEVEL_BITS, so l^n < 2^4096
MAX_LEVEL_BITS = 4096


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything we will ever see."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True)
class Level:
    """The pair (l, n) fixing the coefficient ring Z/l^n."""

    ell: int
    n: int

    def __post_init__(self):
        if self.n * self.ell.bit_length() > MAX_LEVEL_BITS:
            raise PreconditionViolated(f"level {self}: l^n is over the limit")
        if not is_prime(self.ell):
            raise PreconditionViolated(f"ell={self.ell} is not prime")
        if self.n < 1:
            raise PreconditionViolated(f"level n={self.n} must be >= 1")
        object.__setattr__(self, "_modulus", self.ell ** self.n)

    @property
    def modulus(self) -> int:
        return self._modulus

    def reduced(self, n: int) -> "Level":
        if n > self.n:
            raise LevelMismatch(f"cannot raise level {self.n} to {n}")
        return Level(self.ell, n)

    def __str__(self):
        return f"Z/{self.ell}^{self.n}"


@dataclass(frozen=True)
class Coeff:
    """An element of Z/l^n, stored by its least non-negative representative."""

    value: int
    level: Level

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.level.modulus)

    def _match(self, other):
        if self.level != other.level:
            raise LevelMismatch(f"{self.level} vs {other.level}")

    def __add__(self, other):
        self._match(other)
        return Coeff(self.value + other.value, self.level)

    def __sub__(self, other):
        self._match(other)
        return Coeff(self.value - other.value, self.level)

    def __mul__(self, other):
        self._match(other)
        return Coeff(self.value * other.value, self.level)

    def __neg__(self):
        return Coeff(-self.value, self.level)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        return self.value % self.level.ell != 0

    def valuation(self) -> int:
        """l-adic valuation of the representative; the zero class gets n."""
        return val_mod(self.value, self.level.ell, self.level.n)

    def reduce(self, n: int) -> "Coeff":
        return Coeff(self.value, self.level.reduced(n))

    def __str__(self):
        return str(self.value)


def index_m(r: int, n: int) -> int:
    """Lifting bound (r+1)*n - r for cancelling r nonzero factors."""
    if r < 1 or n < 1:
        raise PreconditionViolated("index_m needs r >= 1 and n >= 1")
    return (r + 1) * n - r


def index_n(ell: int, n: int):
    """The pair of stacked lifting bounds (N', N) at the given prime."""
    if n < 1:
        raise PreconditionViolated("index_n needs n >= 1")
    nprime = (6 * ell ** (3 * n - 2) - 7) * (n - 1) + 3 * n - 2
    return nprime, index_m(1, nprime)


def level_bound(ell: int, n: int) -> int:
    """Full detection-pipeline lifting level N(M2(M1(n))); not expected sharp."""
    return index_n(ell, index_m(2, index_m(1, n)))[1]


def cancellation_conclusion(a: Coeff, b: Coeff, n: int) -> bool:
    """Whether a = b mod l^n; the conclusion of the cancellation rule."""
    m = a.level.ell ** n
    return (a.value - b.value) % m == 0


def cancellation_holds(a: Coeff, b: Coeff, cs, n: int) -> bool:
    """Check the cancellation rule instance a*prod(cs) = b*prod(cs) over Z/l^R.

    Preconditions (raised as PreconditionViolated when broken): all inputs at
    one level R with R >= index_m(len(cs), n), every c nonzero mod l^n, and
    the two products actually equal at level R.  Under them the conclusion
    a = b mod l^n is guaranteed; the function exists to falsify misuse.
    """
    level = a.level
    if b.level != level or any(c.level != level for c in cs):
        raise LevelMismatch("cancellation inputs at mixed levels")
    r = len(cs)
    if r < 1:
        raise PreconditionViolated("need at least one cancelling factor")
    if level.n < index_m(r, n):
        raise PreconditionViolated(
            f"working level {level.n} below index_m({r},{n})={index_m(r, n)}"
        )
    elln = level.ell ** n
    for c in cs:
        if c.value % elln == 0:
            raise PreconditionViolated("cancelling factor vanishes mod l^n")
    prod = Coeff(1, level)
    for c in cs:
        prod = prod * c
    if (a * prod).value != (b * prod).value:
        raise PreconditionViolated("products disagree at the working level")
    return cancellation_conclusion(a, b, n)


# ---------------------------------------------------------------------------
# linear algebra over Z/l^e
# ---------------------------------------------------------------------------

def val_mod(x: int, ell: int, e: int) -> int:
    """l-adic valuation of x mod l^e, capped at e (the zero class)."""
    x %= ell ** e
    if x == 0:
        return e
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def unit_part(x: int, ell: int, e: int) -> int:
    x %= ell ** e
    while x % ell == 0:
        x //= ell
    return x


def inv_mod(x: int, m: int) -> int:
    return pow(x, -1, m)


def howell_form(rows, ell: int, e: int, ncols: int):
    """Canonical Howell basis of the row span of `rows` over Z/l^e.

    Rows come back sorted by pivot column; pivots are pure powers of l and
    every other entry in a pivot column is reduced below the pivot.  Two
    generating sets span the same submodule iff their forms are identical.
    Pivot ties break toward earlier rows so the output is deterministic.
    """
    m = ell ** e
    work = []
    for r in rows:
        rr = [x % m for x in r]
        if len(rr) != ncols:
            raise LevelMismatch("row width mismatch")
        if any(rr):
            work.append(rr)
    result = []
    for col in range(ncols):
        best = None
        best_val = e
        for idx, r in enumerate(work):
            if r[col]:
                v = val_mod(r[col], ell, e)
                if v < best_val:
                    best_val = v
                    best = idx
        if best is None:
            continue
        piv = work.pop(best)
        u = unit_part(piv[col], ell, e)
        ui = inv_mod(u, m)
        piv = [x * ui % m for x in piv]
        pv = ell ** best_val
        for r in work:
            if r[col]:
                q = r[col] // pv
                for j in range(col, ncols):
                    r[j] = (r[j] - q * piv[j]) % m
        ann = ell ** (e - best_val)
        extra = [x * ann % m for x in piv]
        if any(extra):
            work.append(extra)
        work = [r for r in work if any(r)]
        result.append((col, best_val, piv))
    # reduce entries above each pivot below that pivot's power of l
    for col, v, piv in result:
        pv = ell ** v
        for _, _, other in result:
            if other is piv:
                continue
            if other[col]:
                q = other[col] // pv
                if q:
                    for j in range(col, ncols):
                        other[j] = (other[j] - q * piv[j]) % m
    return [tuple(piv) for _, _, piv in result]


def _span_divide(form, vec, ell: int, e: int):
    """(quotients, remainder) of vec by the Howell rows, pivot by pivot."""
    m = ell ** e
    v = [x % m for x in vec]
    quotients = []
    for row in form:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // ell ** val_mod(row[col], ell, e)
        quotients.append(q)
        if q:
            for j in range(col, len(v)):
                v[j] = (v[j] - q * row[j]) % m
    return quotients, tuple(v)


def span_reduce(form, vec, ell: int, e: int):
    """Canonical coset representative of vec modulo the row span of a Howell
    form; the residue is zero iff vec lies in the span."""
    return _span_divide(form, vec, ell, e)[1]


def span_contains(form, vec, ell: int, e: int) -> bool:
    return not any(span_reduce(form, vec, ell, e))


def span_coords(form, vec, ell: int, e: int):
    """Coefficients c with vec = sum c_i form[i]; vec must lie in the span."""
    quotients, rest = _span_divide(form, vec, ell, e)
    if any(rest):
        raise PreconditionViolated("vector outside the span")
    return tuple(quotients)


def span_combine(form, coeffs, ell: int, e: int, ncols: int):
    """The vector sum c_i form[i] for coefficients c over the Howell rows."""
    m = ell ** e
    vec = [0] * ncols
    for c, row in zip(coeffs, form):
        for j, x in enumerate(row):
            vec[j] = (vec[j] + c * x) % m
    return tuple(vec)


def smith_form(rows, ell: int, e: int, ncols: int):
    """Smith form over Z/l^e with transforms.

    Returns (diag_vals, V, Vinv) where diag_vals are the l-valuations of the
    diagonal (length ncols, e meaning zero), and the column transform V
    satisfies: new generator j, expressed in the old generators, is row j of
    Vinv; old coordinates x map to new coordinates V^T x.
    """
    m = ell ** e
    a = [[x % m for x in r] for r in rows]
    nrows = len(a)
    vmat = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in vmat:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(dst, src, c):
        # col_dst += c * col_src ; inverse on vinv rows: row_src -= c * row_dst
        for r in a:
            r[dst] = (r[dst] + c * r[src]) % m
        for r in vmat:
            r[dst] = (r[dst] + c * r[src]) % m
        for j in range(ncols):
            vinv[src][j] = (vinv[src][j] - c * vinv[dst][j]) % m

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_add(dst, src, c):
        for j in range(ncols):
            a[dst][j] = (a[dst][j] + c * a[src][j]) % m

    def row_scale(i, u):
        for j in range(ncols):
            a[i][j] = a[i][j] * u % m

    diag = []
    k = 0
    while k < min(nrows, ncols):
        best = None
        best_val = e
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j]:
                    v = val_mod(a[i][j], ell, e)
                    if v < best_val:
                        best_val = v
                        best = (i, j)
        if best is None:
            break
        i0, j0 = best
        row_swap(k, i0)
        col_swap(k, j0)
        row_scale(k, inv_mod(unit_part(a[k][k], ell, e), m))
        pv = ell ** best_val
        for i in range(nrows):
            if i != k and a[i][k]:
                row_add(i, k, -(a[i][k] // pv))
        for j in range(ncols):
            if j != k and a[k][j]:
                col_add(j, k, -(a[k][j] // pv))
        diag.append(best_val)
        k += 1
    while len(diag) < ncols:
        diag.append(e)
    return diag, vmat, vinv


def kernel_mod(rows, ell: int, e: int, ncols: int):
    """Generators for {x : M x = 0 over Z/l^e} with M given by rows."""
    m = ell ** e
    diag, vmat, _ = smith_form(rows, ell, e, ncols)
    gens = []
    for j in range(ncols):
        scale = ell ** (e - diag[j])
        if scale == m:
            continue
        vec = tuple(vmat[i][j] * scale % m for i in range(ncols))
        if any(vec):
            gens.append(vec)
    return howell_form(gens, ell, e, ncols)


@dataclass(frozen=True)
class FinMod:
    """A finitely generated Z/l^n-module presented by generators and relations.

    `gens` are labels; `relations` are coefficient rows declaring combinations
    equal to zero.
    """

    gens: tuple
    relations: tuple
    level: Level

    def __post_init__(self):
        m = self.level.modulus
        rel = tuple(tuple(x % m for x in r) for r in self.relations)
        for r in rel:
            if len(r) != len(self.gens):
                raise LevelMismatch("relation width mismatch")
        object.__setattr__(self, "relations", rel)

    @property
    def rank(self):
        return len(self.gens)

    @cached_property
    def relation_form(self):
        """Howell form of the relations, formed once per module."""
        return howell_form(
            self.relations, self.level.ell, self.level.n, self.rank
        )

    def reduce(self, vec):
        """Canonical coset representative of vec modulo the relations."""
        return span_reduce(self.relation_form, vec, self.level.ell,
                           self.level.n)

    @cached_property
    def smith(self):
        """smith_form of the relations, taken once per module."""
        return smith_form(self.relations, self.level.ell, self.level.n,
                          self.rank)

    @cached_property
    def quotient_matrix(self):
        """The matrix of q: M -> (Z/l^n)^k, one row per generator.

        The Smith form splits Q = M/R into summands Z/l^d_j with d_j > 0;
        q takes x to its new coordinates (xV)_j embedded by c -> c l^(n-d_j),
        so q is linear with kernel exactly R.  k is the number of summands,
        possibly zero."""
        ell, e = self.level.ell, self.level.n
        diag, vmat, _ = self.smith
        kept = [(j, ell ** (e - d)) for j, d in enumerate(diag) if d > 0]
        return tuple(tuple(row[j] * scale % ell ** e for j, scale in kept)
                     for row in vmat)

    @cached_property
    def quotient_width(self):
        """k, the number of cyclic summands of M/R."""
        return sum(1 for d in self.smith[0] if d > 0)

    def quotient(self, vec):
        """q(vec) in (Z/l^n)^k; q(x) = q(y) iff x - y lies in R."""
        m = self.level.modulus
        out = [0] * self.quotient_width
        for x, row in zip(vec, self.quotient_matrix):
            if x:
                for j, c in enumerate(row):
                    out[j] += x * c
        return tuple(c % m for c in out)

    def quasi_basis(self):
        """[(expression over the generators, additive order)] sorted by order.

        The family generates, any vanishing combination vanishes termwise, and
        its length equals dim over Z/l of M/l.
        """
        ell = self.level.ell
        diag, _, vinv = self.smith
        out = []
        for j in range(self.rank):
            # diagonal l^v means the j-th transformed generator has order l^v
            order = ell ** diag[j]
            if order > 1:
                out.append((tuple(vinv[j]), order))
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def span_members(self, gens_vectors):
        """All distinct coset representatives of the span of gens_vectors.

        Exhaustive; intended for small oracles only.
        """
        m = self.level.modulus
        seen = {self.reduce((0,) * self.rank)}
        frontier = [next(iter(seen))]
        while frontier:
            cur = frontier.pop()
            for g in gens_vectors:
                nxt = self.reduce(tuple((a + b) % m for a, b in zip(cur, g)))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def quotient_span(module: FinMod, gens):
    """Howell form, in the quotient M/R through q, of the span of gens + R."""
    if any(len(g) != module.rank for g in gens):
        raise LevelMismatch("vector width does not match module rank")
    return howell_form([module.quotient(g) for g in gens], module.level.ell,
                       module.level.n, module.quotient_width)


# ---------------------------------------------------------------------------
# the exterior square
# ---------------------------------------------------------------------------

def wedge_pairs(rank: int):
    """The basis e_ij of the exterior square, i < j, row by row."""
    return tuple(itertools.combinations(range(rank), 2))


def wedge(a, b):
    """Coordinates a_i b_j - a_j b_i of a ^ b on wedge_pairs(len(a)),
    unreduced."""
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in wedge_pairs(len(a)))


# ---------------------------------------------------------------------------
# the row span of a Howell form
# ---------------------------------------------------------------------------

def span_elements(form, ell: int, e: int, ncols: int):
    """Every member of the row span, each once: zero first, then for each
    Howell row its multiples 1 .. order-1 added to all members so far."""
    m = ell ** e
    out = [(0,) * ncols]
    for row in form:
        piv = next(x for x in row if x)
        order = m // ell ** val_mod(piv, ell, e)
        out += [tuple((a + k * b) % m for a, b in zip(old, row))
                for k in range(1, order) for old in out]
    return list(dict.fromkeys(out))


def span_quasi_basis(form, ell: int, e: int, sub=()):
    """[(vector, order)], a quasi-basis of span(form)/span(sub), sorted by
    order as FinMod.quasi_basis; the vectors of sub must lie in span(form).

    The span is the free module on the Howell rows modulo the kernel of the
    transposed form, and sub adds its coordinates over the rows."""
    if not form:
        return []
    k, ncols = len(form), len(form[0])
    rel = list(kernel_mod([[row[c] for row in form] for c in range(ncols)],
                          ell, e, k))
    rel += [span_coords(form, vec, ell, e) for vec in sub]
    module = FinMod(tuple(range(k)), tuple(rel), Level(ell, e))
    return [(span_combine(form, expr, ell, e, ncols), order)
            for expr, order in module.quasi_basis()]


def span_intersect(form1, form2, ell: int, e: int):
    """Generators of span(form1) n span(form2): the first-form halves of the
    solutions of sum a_i form1[i] = sum b_j form2[j]."""
    if not form1 or not form2:
        return []
    m, ncols = ell ** e, len(form1[0])
    rows = [tuple([row[c] for row in form1] + [-row[c] % m for row in form2])
            for c in range(ncols)]
    sol = kernel_mod(rows, ell, e, len(form1) + len(form2))
    return [span_combine(form1, s[:len(form1)], ell, e, ncols) for s in sol]


def cyclic_contains(v, x, ell: int, n: int) -> bool:
    """Whether x lies in the cyclic span <v> in (Z/l^n)^k, for any width k.

    Let l^b be the gcd of l^n and every v_j, and i a coordinate where
    v_i = l^b u with u a unit.  If x = c v, then x_i = c u l^b, so l^b
    divides x_i and c is (x_i / l^b) u^-1 modulo l^(n-b); since l^b divides
    every v_j, every such c gives the same c v.  So x lies in <v> iff that
    one candidate c satisfies x = c v on every coordinate."""
    m = ell ** n
    low = math.gcd(m, *v)
    if low == m:
        return not any(a % m for a in x)
    i = next(j for j, a in enumerate(v) if a % (low * ell))
    if x[i] % low:
        return False
    c = x[i] // low * pow(v[i] // low, -1, m)
    return not any((c * a - b) % m for a, b in zip(v, x))


def vectors_cyclic(v1, v2, ell: int, n: int) -> bool:
    """Whether <v1, v2> in (Z/l^n)^k is cyclic, for any width k.

    The subgroups of a cyclic l-group form a chain, so <v1, v2> is cyclic
    iff it equals <v1> or <v2>, that is iff one vector lies in the span of
    the other; each membership is one candidate scalar (cyclic_contains)."""
    return cyclic_contains(v1, v2, ell, n) or cyclic_contains(v2, v1, ell, n)
