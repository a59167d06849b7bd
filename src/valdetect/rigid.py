"""Valuative subgroups, canonical valuations, and the rigid complement.

A multiplicative subgroup H <= K^x enters as the kernel of a character
group: x lies in H when every Howell row of the group kills the class of x.
The rigid complement <T, x : Psi(1+x) not in {Psi(1), Psi(x)}> is such a
kernel too, since {x : Psi(x) in S} is the kernel of {lambda.Psi : lambda
orthogonal to S}.  All "for all x" conditions are semi-decided by scanning
the enumeration stream.  The valuative and comparability scans return a
`scans.Verdict` with its height, which fails exactly when it carries a
witness x, or a witness pair (x, y) for the l = 2 two-variable condition.

The tests are class-level: membership in H depends only on the class in the
window, and each H memoises its verdict per class.  Every element walk (the
unit table of `UnitGroupApprox`, the l = 2 pair clause, and the one walk
that takes both verification samples of `detect`) reads
`ScanIndex.stream`, the window's class list with a source (exponent
vector, bottom element) per position, and builds an element only where it
keeps or tests one.  The unit table reads a row's exponent vector off its
source, and the unit test the leading term of h (`fields.leading_term`).
The pair clause's cls(1 + x_i(1 + x_j)) comes from
source exponents (`ScanIndex.pair_class`), kept per position pair.  Other
sums, such as h + x, are classified by `Window.classify_sum`, which reads
the leading term of the sum without building it.  The unit test decides an
h in H by one interval of exponent vectors down the tower, compared
lexicographically (`UnitGroupApprox`): a row x below the vector of h makes
h + x lead with x, a row above makes it lead with h, since 1 + x/h then
leads with 1 on every level and has class 0, and only rows with the vector
of h are classified.  On a finite or rational-function window every
vector is (), so every row is classified.

Each scan decides once per value its verdict depends on.  The one-variable
valuative condition is one matrix product of kernel rows with the class
matrices of the table (`ScanIndex.class_arrays`), shared by a single
subgroup (`valuative_test`) and by the cyclic groups <f> of many members f
at once (`valuative_members_mask`), once per group <f>, since u*f has the
kernel of f for every unit u.  Comparability reads Psi(x) and Psi(1-x) of
every entry from one product and tests each distinct pair once; the rigid
complement reads Psi(x) and Psi(1+x) from one product.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .coeffmod import (
    howell_form,
    kernel_mod,
    span_quasi_basis,
    vectors_cyclic,
)
from .errors import (LevelMismatch, MainClaimViolated, NotValuative,
                     ZeroElement)
from .characters import Character, CharacterGroup
from .fields import Window, leading_term, monomial
from .scans import Verdict, exhaustive_classes, index_of, scan_index


@dataclass(frozen=True)
class MultSubgroup:
    """The kernel of a character group: the x in K^x that it kills."""

    group: CharacterGroup
    # membership verdict per class; at most one entry per window class
    _members: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)

    @property
    def window(self) -> Window:
        return self.group.window

    def contains_class(self, cls) -> bool:
        got = self._members.get(cls)
        if got is None:
            mod = self.window.level.modulus
            got = self._members[cls] = not any(
                sum(a * c for a, c in zip(row, cls)) % mod
                for row in self.group.howell())
        return got

    def contains(self, x) -> bool:
        return self.contains_class(self.window.classify(x))

    def describe(self):
        # a kernel adds no span; the empty key keeps the payload layout
        return {"window": self.window.spec(),
                "characters": self.group.labels(),
                "extra_span": []}


NO_VIOLATION = "NoViolationUpTo"
VIOLATION = "Violation"


# height cap of the l = 2 two-variable scan, which walks element pairs
PAIR_HEIGHT_CAP = 2


# kernels per product in _first_failures: bounds the temporaries at
# MEMBER_CHUNK x rank x (table entries) values
MEMBER_CHUNK = 32


def _first_failures(w: Window, kernels, height: int) -> list:
    """For each kernel, given by character value rows on w, the first scan
    entry x through `height`, in stream order, with x, 1+x and (1+x)/x all
    outside the kernel, or None: some row is nonzero on cls x, some on
    cls 1+x, and some row tells the two apart.  One product per chunk of
    kernels, each padded with zero rows, which change none of the tests,
    with the class matrices of `ScanIndex.class_arrays`."""
    mod = w.level.modulus
    ents, cls_x, _, cls_1px = scan_index(w, height).class_arrays(height)
    out = []
    for i in range(0, len(kernels), MEMBER_CHUNK):
        chunk = kernels[i:i + MEMBER_CHUNK]
        depth = max(1, *map(len, chunk))
        rows = np.array([[*k] + [(0,) * w.rank] * (depth - len(k))
                         for k in chunk], dtype=cls_x.dtype)
        fx = rows @ cls_x % mod
        fpx = rows @ cls_1px % mod
        bad = ((fx != 0).any(axis=1) & (fpx != 0).any(axis=1)
               & (fx != fpx).any(axis=1))
        out.extend(ents[k] if b else None
                   for b, k in zip(bad.any(axis=1).tolist(),
                                   bad.argmax(axis=1).tolist()))
    return out


def _cyclic_key(values, ell, mod):
    """The generator of <f>, for character values f mod l^n, whose first
    coordinate of least l-adic valuation b is l^b: u*f for every unit u,
    which is every generator of <f>, gives the same one, since u*f depends
    only on u mod l^(n-b)."""
    best = None     # (b, i) of the first coordinate of least valuation
    for i, v in enumerate(values):
        b = 0
        while v and v % ell == 0:
            v //= ell
            b += 1
        if v and (best is None or b < best[0]):
            best = b, i
    if best is None:
        return values
    b, i = best
    u = pow(values[i] // ell ** b, -1, mod)
    return tuple(u * v % mod for v in values)


def _pair_failure(H: MultSubgroup, height: int):
    """The first (x, y) over the capped stream, x and y outside H with 1+x
    and 1+y in H, that has 1+x(1+y) outside H, or None (l = 2 only).

    The class of 1+x_i(1+x_j) does not depend on H, so the window's
    ScanIndex keeps it per position pair (i, j) for every subgroup of the
    window (`ScanIndex.pair_class`); only the pair returned is built."""
    w = H.window
    index = index_of(w)
    qualifying = [(i, src, cls_x, cls_opx)
                  for i, ((cls_x, cls_opx), src) in enumerate(
                      index.stream(min(height, PAIR_HEIGHT_CAP)))
                  if cls_x is not None and not H.contains_class(cls_x)
                  and cls_opx is not None and H.contains_class(cls_opx)]
    for i, src_x, cls_x, _ in qualifying:
        for j, src_y, _, cls_opy in qualifying:
            cls_probe = index.pair_class(i, j, src_x, cls_x, src_y, cls_opy)
            if cls_probe is not None and not H.contains_class(cls_probe):
                return index.element(src_x), index.element(src_y)
    return None


def valuative_test(H: MultSubgroup, height: int) -> Verdict:
    """Scan the conditions for H to admit a valuation with O_v^x <= H.

    Always checks 1+x in H u xH for scanned x outside H.  For ell = 2 the
    additional two-variable condition (1+x, 1+y in H forces 1+x(1+y) in H)
    is scanned over element pairs; for odd ell it is implied because the
    l^n-th powers lie in H.
    """
    w = H.window
    conditions = ("one_plus_x",)
    ent, = _first_failures(w, [H.group.howell()], height)
    if ent is not None:
        return Verdict(VIOLATION, height, witness=ent.element(),
                       conditions=conditions)
    if w.level.ell == 2:
        conditions += ("one_plus_x_one_plus_y",)
        pair = _pair_failure(H, height)
        if pair is not None:
            return Verdict(VIOLATION, height, witness_pair=pair,
                           conditions=conditions)
    return Verdict(NO_VIOLATION, height, conditions=conditions)


def valuative_members_mask(chars, height: int) -> list:
    """valuative_test(MultSubgroup(<f>), height).holds() for each character
    f of `chars`, all on one window.

    The kernel of <f> is ker f, and u*f has the same kernel for every unit
    u mod l^n, so the verdict is one per cyclic subgroup <f>: one
    `_first_failures` call with the rows (f,) of the first member of each,
    and for l = 2 the two-variable condition alone for each that passes.
    """
    if not chars:
        return []
    w = chars[0].window
    if any(f.window != w for f in chars):
        raise LevelMismatch("characters on different windows")
    ell, mod = w.level.ell, w.level.modulus
    keys = [_cyclic_key(f.values, ell, mod) for f in chars]
    first = {}      # <f> -> its first member
    for key, f in zip(keys, chars):
        first.setdefault(key, f)
    fails = _first_failures(w, [(f.values,) for f in first.values()], height)
    ok = {key: ent is None and (ell != 2 or _pair_failure(
              MultSubgroup(CharacterGroup(w, (f,))), height) is None)
          for (key, f), ent in zip(first.items(), fails)}
    return [ok[key] for key in keys]


class UnitGroupApprox:
    """Membership test for the units of the coarsest valuation below H.

    h is accepted iff h lies in H and, for every scanned x outside H,
    (1+x)/(h+x) lies in H; this is the unit-group characterization of the
    canonical valuation, evaluated against the stream at the given height.

    The test is class-level.  The first MAX_NONMEMBERS nonmembers x of the
    window's stream are tabled once, in stream order, as rows (src of x,
    cls 1+x).  Each row is an exact monomial, with an exponent vector v(x)
    down the Laurent tower, and an h in H with leading term c*t^e, e its
    exponent vector, passes every row with v(x) != e iff hi <= e <= lo in
    lexicographic order, where lo is the least v(x) with (1+x)/x outside H
    and hi the greatest v(x) with 1+x outside H:
    - for v(x) < e, h + x leads with x, so the row asks (1+x)/x in H;
    - for v(x) > e, h + x = h(1 + x/h) leads with h, whose class lies in H,
      since 1 + x/h leads with 1 on every level and has class 0; so the row
      asks 1+x in H.
    A tie v(x) = e gives h + x the leading term of h0 + x, for the monomial
    h0 = c*t^e, so the verdict is one per leading term, and only the ties
    are classified, against h0.  No tie cancels the lead of an h in H:
    windows kill -1, so such an x has the class of -h, which is that of h,
    and lies in H.  This is exact, because a class reads only leading
    terms.  A finite or rational-function window is the case of the empty
    vector: every row ties, the interval is vacuous, and every row is
    classified against h, as the definition reads.  A row's element is
    built only when a sum reads it.
    """

    MAX_NONMEMBERS = 400

    def __init__(self, H: MultSubgroup, height: int):
        self.H = H
        self.height = height
        self._tab = None
        self._capped = False
        self._memo = {}     # verdict per leading term (vector, bottom)

    def _table(self):
        """(rows, hi, lo, ties): the scanned nonmembers x of H in stream
        order, up to MAX_NONMEMBERS of them, as rows (src of x, cls 1+x),
        the bounds hi and lo, as exponent vectors, and the rows per
        exponent vector v(x).  hi starts at (), the least vector, and lo
        at (inf,), above every vector.  The zero class lies in H, so
        x = -1 is never a row."""
        if self._tab is None:
            H, w = self.H, self.H.window
            rows, ties = [], {}
            hi, lo = (), (math.inf,)
            for (cls_x, cls_opx), src in index_of(w).stream(self.height):
                if cls_x is None or H.contains_class(cls_x):
                    continue
                if len(rows) == self.MAX_NONMEMBERS:
                    self._capped = True  # this nonmember is left out
                    break
                rows.append((src, cls_opx))
                v = src[0]
                ties.setdefault(v, []).append(rows[-1])
                if v < lo and not H.contains_class(
                        w.class_sub(cls_opx, cls_x)):
                    lo = v
                if v > hi and not H.contains_class(cls_opx):
                    hi = v
            self._tab = rows, hi, lo, ties
        return self._tab

    def is_unit(self, h, cls_h=None) -> bool:
        """Whether h passes the unit test; `cls_h`, the window class of a
        nonzero h when the caller has read it, spares classifying h.
        Raises as `leading_term` does when the leading term of h is not
        known."""
        try:
            lead = leading_term(h)
        except ZeroElement:
            return False
        got = self._memo.get(lead)
        if got is None:
            got = self._memo[lead] = self._verdict(lead, cls_h)
        return got

    def _verdict(self, lead, cls_h) -> bool:
        """Whether the h with leading term (e, c), e the exponent vector, is
        a unit.  The monomial h0 = c*t^e stands in for h, as it has the
        class of h and the leading term of each sum with a row: it must lie
        in H, e in [hi, lo], and the rows v(x) = e must pass."""
        H, w = self.H, self.H.window
        h = monomial(w.model, *lead)
        if not (H.contains(h) if cls_h is None else H.contains_class(cls_h)):
            return False
        _, hi, lo, ties = self._table()
        e = lead[0]
        if not hi <= e <= lo:
            return False
        element = index_of(w).element
        # 1+x = h+x mod H, tested on classes (quotients never materialize)
        return all(H.contains_class(
                       w.class_sub(cls_opx, w.classify_sum(h, element(src))))
                   for src, cls_opx in ties.get(e, ()))

    def payload(self):
        """`nonmembers_capped`: the stream at this height holds more than
        MAX_NONMEMBERS nonmembers, and the test used only the first ones."""
        return {"height": self.height, "subgroup": self.H.describe(),
                "scanned_nonmembers": len(self._table()[0]),
                "max_nonmembers": self.MAX_NONMEMBERS,
                "nonmembers_capped": self._capped}


def canonical_valuation(H: MultSubgroup, height: int) -> UnitGroupApprox:
    """Unit-group predicate of the coarsest valuation v with O_v^x <= H."""
    verdict = valuative_test(H, height)
    if not verdict.holds():
        raise NotValuative("subgroup failed the valuative conditions")
    return UnitGroupApprox(H, height)


@dataclass(frozen=True)
class RigidComplement:
    """H = <T, x with Psi(1+x) differing from Psi(1) and Psi(x)>, with the
    Howell rows of the Psi-images of H, which span a cyclic group."""

    span: tuple                 # howell rows of the Psi-images of H
    subgroup: MultSubgroup      # H, the kernel of the characters of <f, g>

    def is_trivial(self):
        return not self.span


def rigid_complement(f: Character, g: Character, height: int) -> RigidComplement:
    """Scan for the subgroup H generated by T = ker(f) n ker(g) and all x with
    Psi(1+x) distinct from Psi(1) and Psi(x); asserts H/T cyclic.

    H = {x : Psi(x) in S}, for the span S of the qualifying Psi-images, is
    the kernel of I = {a*f + b*g : (a, b) orthogonal to S}.  Psi(x) and
    Psi(1+x) come from one product with `ScanIndex.class_arrays`.

    A non-cyclic H/T falsifies the preconditions (the pair did not come from
    a C-pair at the required lifted level) and raises MainClaimViolated.
    """
    if f.window != g.window:
        raise LevelMismatch("characters on different windows")
    w = f.window
    ell, n = w.level.ell, w.level.n
    _, cls_x, _, cls_1px = scan_index(w, height).class_arrays(height)
    psi = np.array([f.values, g.values], dtype=cls_x.dtype)
    values = np.concatenate([psi @ cls_x, psi @ cls_1px]) % w.level.modulus
    vectors = {}    # distinct qualifying images, in table order
    for a, b, c, d in zip(*values.tolist()):
        if (a or b) and (c or d) and (c, d) != (a, b):
            vectors[a, b] = None
    span = howell_form(list(vectors), ell, n, 2)
    if len(span_quasi_basis(span, ell, n)) > 1:
        raise MainClaimViolated(
            "H/T is not cyclic; inputs cannot reduce from a C-pair at the "
            "required level")
    I = CharacterGroup(w, tuple(f.scale(a) + g.scale(b)
                                for a, b in kernel_mod(span, ell, n, 2)))
    return RigidComplement(tuple(span), MultSubgroup(I))


def comparable(f: Character, g: Character, height: int) -> Verdict:
    """Whether the canonical valuations of two valuative characters are
    comparable: scans the cyclicity of <Psi(1-x), Psi(x)>.

    Psi(x) and Psi(1-x) of every entry come from one product with the
    class matrices of `ScanIndex.class_arrays`, and `vectors_cyclic` runs
    once per distinct value pair; the witness is the first entry, in
    stream order, of the first pair that fails."""
    w = f.window
    if g.window != w:
        raise LevelMismatch("characters on different windows")
    if not all(valuative_members_mask([f, g], height)):
        raise NotValuative("input character is not valuative at this "
                           "height")
    ell, n = w.level.ell, w.level.n
    ents, cls_x, cls_1mx, _ = scan_index(w, height).class_arrays(height)
    psi = np.array([f.values, g.values], dtype=cls_x.dtype)
    values = np.concatenate([psi @ cls_1mx, psi @ cls_x]) % w.level.modulus
    first = {}      # (Psi(1-x), Psi(x)) -> the first entry index with it
    for i, v in enumerate(zip(*values.tolist())):
        first.setdefault(v, i)
    for (a, b, c, d), i in first.items():     # in stream order
        if not vectors_cyclic((a, b), (c, d), ell, n):
            return Verdict("NotComparable", height, witness=ents[i].element())
    if exhaustive_classes(w, height):
        return Verdict("Comparable", height)
    return Verdict("ComparableUpToBound", height)
