"""Finite fields and univariate polynomial arithmetic over them.

Fields are either prime fields F_p or extensions base[x]/(modulus); elements
are encoded as integers 0..q-1 (base-q digit encoding of the coefficient
vector), so they hash, sort and serialize trivially.  Polynomials over a field
are little-endian tuples of element codes with no trailing zeros; () is the
zero polynomial.

Factorization is deterministic: squarefree split, distinct-degree, then
equal-degree splitting driven by a fixed-seed PRNG, with factors reported in
canonical (degree, coefficient-lex) order.
"""

import random
from functools import lru_cache

from .errors import PreconditionViolated, ZeroElement
from .coeffmod import is_prime

_EDF_SEED = 0x5EEDED

# the largest q that `of_order` builds (a field tabulates its discrete logs)
MAX_FIELD_ORDER = 1 << 14

# extension fields with at most this many elements tabulate add, neg and mul
# (q^2 entries for add and mul: 2,401 at the limit, built in about 16 ms)
EXT_TABLE_LIMIT = 49


class FiniteField:
    """F_p or base[x]/(modulus); elements are ints 0 <= e < q."""

    def __init__(self, p=None, base=None, modulus=None, symbol="z"):
        if base is None:
            if not is_prime(p):
                raise PreconditionViolated(f"{p} is not prime")
            self.p = p
            self.q = p
            self.base = None
            self.modulus = None
            self.degree = 1
            self.symbol = None
        else:
            self.base = base
            self.p = base.p
            self.modulus = tuple(modulus)
            self.degree = len(modulus) - 1
            if self.degree < 2:
                raise PreconditionViolated("extension degree must be >= 2")
            if not base.poly_is_irreducible(self.modulus):
                raise PreconditionViolated("extension modulus is reducible")
            self.q = base.q ** self.degree
            self.symbol = symbol
        self._gen = None
        self._dlog = None
        # add, neg and mul of a small extension field read these tables,
        # built once from the polynomial arithmetic (`_poly_add`, ...)
        self._add_tab = self._neg_tab = self._mul_tab = None
        if self.base is not None and self.q <= EXT_TABLE_LIMIT:
            pairs = [(a, b) for a in range(self.q) for b in range(self.q)]
            self._add_tab = [self._poly_add(a, b) for a, b in pairs]
            self._mul_tab = [self._poly_mul(a, b) for a, b in pairs]
            self._neg_tab = [self._poly_neg(a) for a in range(self.q)]

    @staticmethod
    @lru_cache(maxsize=None)
    def of_order(q, symbol="z"):
        """The field with q elements, built over its prime field."""
        primes = _prime_factors(q) if q <= MAX_FIELD_ORDER else ()
        if len(primes) != 1:
            raise PreconditionViolated(
                f"{q} is not a prime power of at most {MAX_FIELD_ORDER}")
        p, k = primes[0], 1
        while p ** k < q:
            k += 1
        base = FiniteField(p)
        if k == 1:
            return base
        return FiniteField(base=base, modulus=base.find_irreducible(k),
                           symbol=symbol)

    # -- element codecs ----------------------------------------------------
    def digits(self, a):
        if self.base is None:
            return (a,)
        bq = self.base.q
        out = []
        for _ in range(self.degree):
            out.append(a % bq)
            a //= bq
        return tuple(out)

    def from_digits(self, ds):
        if self.base is None:
            return ds[0] % self.p
        bq = self.base.q
        a = 0
        for d in reversed(ds):
            a = a * bq + d % bq
        return a

    def from_int(self, c: int):
        """Image of the integer c under Z -> F_q (prime subfield)."""
        if self.base is None:
            return c % self.p
        return self.from_digits((self.base.from_int(c),) + (0,) * (self.degree - 1))

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        if self._add_tab is not None:
            return self._add_tab[a * self.q + b]
        return self._poly_add(a, b)

    def neg(self, a):
        if self.base is None:
            return (-a) % self.p
        if self._neg_tab is not None:
            return self._neg_tab[a]
        return self._poly_neg(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.base is None:
            return (a * b) % self.p
        if self._mul_tab is not None:
            return self._mul_tab[a * self.q + b]
        return self._poly_mul(a, b)

    # extension-field arithmetic on coefficient vectors over the base: the
    # reference for the tables above, and the path of larger fields
    def _poly_add(self, a, b):
        da, db = self.digits(a), self.digits(b)
        return self.from_digits(tuple(self.base.add(x, y) for x, y in zip(da, db)))

    def _poly_neg(self, a):
        return self.from_digits(tuple(self.base.neg(x) for x in self.digits(a)))

    def _poly_mul(self, a, b):
        pa = _tuple_trim(self.digits(a))
        pb = _tuple_trim(self.digits(b))
        prod = self.base.poly_mod(self.base.poly_mul(pa, pb), self.modulus)
        return self.from_digits(prod + (0,) * (self.degree - len(prod)))

    def inv(self, a):
        if a == 0:
            raise ZeroElement("inverse of zero")
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, b = self.one, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return self.from_int(1)

    def elements(self):
        return range(self.q)

    def generator(self):
        """Smallest-coded multiplicative generator of F_q^x."""
        if self._gen is None:
            order_factors = _prime_factors(self.q - 1)
            for a in range(1, self.q):
                c = self.from_int(a) if self.base is None else a
                if c == 0:
                    continue
                if all(self.pow(c, (self.q - 1) // f) != self.one
                       for f in order_factors):
                    self._gen = c
                    break
        return self._gen

    def dlog(self, a):
        """Discrete log base generator(); table-backed, fields here are small."""
        if a == 0:
            raise ZeroElement("dlog of zero")
        if self._dlog is None:
            g = self.generator()
            tab = {}
            x = self.one
            for i in range(self.q - 1):
                tab[x] = i
                x = self.mul(x, g)
            self._dlog = tab
        return self._dlog[a]

    def fmt(self, a):
        if self.base is None:
            return str(a)
        ds = self.digits(a)
        terms = []
        for i in range(self.degree - 1, -1, -1):
            if ds[i] == 0:
                continue
            c = self.base.fmt(ds[i])
            if i == 0:
                terms.append(c)
            else:
                head = self.symbol if c == "1" else f"{c}*{self.symbol}"
                terms.append(head if i == 1 else f"{head}^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"GF({self.q})"

    # -- polynomials over this field ----------------------------------------
    # little-endian tuples of element codes, no trailing zeros

    def poly_deg(self, f):
        return len(f) - 1

    def poly_add(self, f, g):
        n = max(len(f), len(g))
        f = f + (0,) * (n - len(f))
        g = g + (0,) * (n - len(g))
        return _tuple_trim(tuple(self.add(a, b) for a, b in zip(f, g)))

    def poly_neg(self, f):
        return tuple(self.neg(a) for a in f)

    def poly_sub(self, f, g):
        return self.poly_add(f, self.poly_neg(g))

    def poly_scale(self, f, c):
        if c == 0:
            return ()
        return tuple(self.mul(a, c) for a in f)

    def poly_mul(self, f, g):
        if not f or not g:
            return ()
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a == 0:
                continue
            for j, b in enumerate(g):
                if b:
                    out[i + j] = self.add(out[i + j], self.mul(a, b))
        return _tuple_trim(tuple(out))

    def poly_divmod(self, f, g):
        if not g:
            raise ZeroElement("polynomial division by zero")
        r = list(f)
        q = [0] * max(0, len(f) - len(g) + 1)
        gl = self.inv(g[-1])
        for i in range(len(f) - len(g), -1, -1):
            c = self.mul(r[i + len(g) - 1], gl)
            if c:
                q[i] = c
                for j, b in enumerate(g):
                    r[i + j] = self.sub(r[i + j], self.mul(c, b))
        return _tuple_trim(tuple(q)), _tuple_trim(tuple(r))

    def poly_mod(self, f, g):
        return self.poly_divmod(f, g)[1]

    def poly_gcd(self, f, g):
        while g:
            f, g = g, self.poly_mod(f, g)
        if f:
            f = self.poly_scale(f, self.inv(f[-1]))
        return f

    def poly_xgcd(self, f, g):
        """(d, s, t) with s*f + t*g = d, the monic gcd of f and g (d = ()
        when both are zero)."""
        r0, r1 = f, g
        s0, s1 = (self.one,), ()
        t0, t1 = (), (self.one,)
        while r1:
            q, r = self.poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.poly_sub(s0, self.poly_mul(q, s1))
            t0, t1 = t1, self.poly_sub(t0, self.poly_mul(q, t1))
        if not r0:
            return r0, s0, t0
        c = self.inv(r0[-1])
        return (self.poly_scale(r0, c), self.poly_scale(s0, c),
                self.poly_scale(t0, c))

    def poly_pow_mod(self, f, e, m):
        r = (self.one,)
        b = self.poly_mod(f, m)
        while e:
            if e & 1:
                r = self.poly_mod(self.poly_mul(r, b), m)
            b = self.poly_mod(self.poly_mul(b, b), m)
            e >>= 1
        return r

    def poly_deriv(self, f):
        out = []
        for i in range(1, len(f)):
            out.append(self.mul(f[i], self.from_int(i)))
        return _tuple_trim(tuple(out))

    def poly_eval(self, f, a):
        acc = 0
        for c in reversed(f):
            acc = self.add(self.mul(acc, a), c)
        return acc

    def poly_monic(self, f):
        if not f:
            return f
        return self.poly_scale(f, self.inv(f[-1]))

    def poly_is_irreducible(self, f) -> bool:
        d = self.poly_deg(f)
        if d < 1:
            return False
        if d == 1:
            return True
        x = (0, self.one)
        xq = self.poly_pow_mod(x, self.q ** d, f)
        if self.poly_mod(self.poly_sub(xq, x), f):
            return False
        for r in _prime_factors(d):
            xr = self.poly_pow_mod(x, self.q ** (d // r), f)
            if self.poly_deg(self.poly_gcd(self.poly_sub(xr, x), f)) != 0:
                return False
        return True

    def find_irreducible(self, deg):
        """First monic irreducible of the given degree in canonical order."""
        for f in self.monic_polys(deg):
            if self.poly_is_irreducible(f):
                return f
        raise PreconditionViolated("no irreducible found")  # unreachable

    def polys_of_degree(self, deg, monic=False):
        """All polynomials of exact degree deg >= 0 in (c0,..,cd)-lex order."""
        leads = (self.one,) if monic else tuple(c for c in self.elements() if c)
        for low in _tuples(self.q, deg):
            for lead in leads:
                yield low + (lead,)

    def monic_polys(self, deg):
        return self.polys_of_degree(deg, monic=True)

    def root_multiplicity(self, f, a):
        """Multiplicity of the root a in f (0 when f(a) != 0); f must be nonzero."""
        if not f:
            raise ZeroElement("multiplicity in the zero polynomial")
        mult = 0
        while self.poly_eval(f, a) == 0:
            f = self._synth_div(f, a)
            mult += 1
        return mult, f

    def _synth_div(self, f, a):
        # divide exactly by (x - a)
        out = [0] * (len(f) - 1)
        acc = 0
        for i in range(len(f) - 1, 0, -1):
            acc = self.add(self.mul(acc, a), f[i])
            out[i - 1] = acc
        return tuple(out)

    def place_multiplicity(self, f, place):
        """Multiplicity of the monic irreducible `place` in nonzero f."""
        if not f:
            raise ZeroElement("multiplicity in the zero polynomial")
        if len(place) == 2:
            return self.root_multiplicity(f, self.neg(place[0]))[0]
        mult = 0
        while True:
            q, r = self.poly_divmod(f, place)
            if r:
                return mult
            f = q
            mult += 1

    # -- factorization -------------------------------------------------------
    def factor(self, f):
        """dict {monic irreducible: multiplicity}; f nonzero, constant -> {}."""
        if not f:
            raise ZeroElement("factor of zero polynomial")
        f = self.poly_monic(f)
        out = {}
        for g, mult in self._squarefree_parts(f):
            for h in self._factor_squarefree(g):
                out[h] = out.get(h, 0) + mult
        return out

    def _squarefree_parts(self, f):
        # yields (squarefree monic factor, multiplicity)
        if self.poly_deg(f) <= 0:
            return
        d = self.poly_deriv(f)
        if not d:
            # f = g(x^p); take p-th roots of coefficients
            root = tuple(self.pow(f[i], self.q // self.p)
                         for i in range(0, len(f), self.p))
            for g, m in self._squarefree_parts(_tuple_trim(root)):
                yield g, m * self.p
            return
        c = self.poly_gcd(f, d)
        w = self.poly_divmod(f, c)[0]
        mult = 1
        while self.poly_deg(w) > 0:
            y = self.poly_gcd(w, c)
            part = self.poly_divmod(w, y)[0]
            if self.poly_deg(part) > 0:
                yield part, mult
            w = y
            c = self.poly_divmod(c, y)[0]
            mult += 1
        # what is left of c collects the factors with multiplicity divisible by p
        if self.poly_deg(c) > 0:
            root = tuple(self.pow(c[i], self.q // self.p)
                         for i in range(0, len(c), self.p))
            for g, m in self._squarefree_parts(_tuple_trim(root)):
                yield g, m * self.p

    def _factor_squarefree(self, f):
        out = []
        x = (0, self.one)
        h = x
        v = f
        d = 0
        while self.poly_deg(v) >= 2 * (d + 1):
            d += 1
            h = self.poly_pow_mod(h, self.q, v)
            g = self.poly_gcd(self.poly_sub(h, x), v)
            if self.poly_deg(g) > 0:
                out.extend(self._edf(g, d))
                v = self.poly_divmod(v, g)[0]
                h = self.poly_mod(h, v)
        if self.poly_deg(v) > 0:
            out.append(v)
        return sorted(out, key=lambda p: (len(p), p))

    def _edf(self, f, d):
        # Cantor-Zassenhaus with a fixed seed for reproducibility
        n = self.poly_deg(f)
        if n == d:
            return [f]
        seed = _EDF_SEED
        for c in f:
            seed = seed * self.q + c + 1
        rng = random.Random(seed)
        while True:
            r = _tuple_trim(tuple(rng.randrange(self.q) for _ in range(n)))
            if self.poly_deg(r) < 1:
                continue
            if self.p == 2:
                t = r
                acc = r
                for _ in range(d * _log2int(self.q) - 1):
                    t = self.poly_mod(self.poly_mul(t, t), f)
                    acc = self.poly_add(acc, t)
                g = self.poly_gcd(acc, f)
            else:
                e = (self.q ** d - 1) // 2
                g = self.poly_gcd(
                    self.poly_sub(self.poly_pow_mod(r, e, f), (self.one,)), f
                )
            if 0 < self.poly_deg(g) < n:
                return self._edf(g, d) + self._edf(self.poly_divmod(f, g)[0], d)

    def poly_fmt(self, f, var):
        if not f:
            return "0"
        terms = []
        for i in range(len(f) - 1, -1, -1):
            c = f[i]
            if c == 0:
                continue
            cs = self.fmt(c)
            if self.base is not None and ("+" in cs or "*" in cs or "^" in cs):
                cs = f"({cs})"
            if i == 0:
                terms.append(cs)
            else:
                head = var if cs == "1" else f"{cs}*{var}"
                terms.append(head if i == 1 else f"{head}^{i}")
        return "+".join(terms)


def _tuple_trim(t):
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


def _tuples(q, length):
    """All tuples in {0..q-1}^length, lex ascending with index 0 most significant."""
    if length == 0:
        yield ()
        return
    for head in range(q):
        for tail in _tuples(q, length - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _log2int(q):
    k = 0
    while (1 << k) < q:
        k += 1
    return k
