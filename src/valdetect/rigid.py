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
unit table of `UnitGroupApprox`, the l = 2 pair clause, and both
verification samples of `detect`) reads `ScanIndex.stream`, the window's
class list with a source per position, and builds an element only where
it keeps or tests one.  The pair clause's cls(1 + x_i(1 + x_j)) comes from
exponents (`ScanIndex.pair_class`) and is kept per position pair.  Other
sums, such as h + x, are classified by `Window.classify_sum`, which reads
the leading term of the sum without building it.  On a Laurent window the
unit test decides an h in H by one exponent interval (`UnitGroupApprox`).

The one-variable valuative condition is one matrix product of kernel rows
with the scan table, shared by a single subgroup (`valuative_test`) and by
the cyclic groups <f> of many members f at once (`valuative_members_mask`).
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
from .errors import LevelMismatch, MainClaimViolated, NotValuative
from .characters import Character, CharacterGroup
from .fields import Window
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
    kernels, each padded with zero rows, which change none of the tests.
    x = -1 has the zero class, so it is left out."""
    mod = w.level.modulus
    ents = [e for e in scan_index(w, height).entries(height)
            if e.cls_1px is not None]
    cls_x = np.array([e.cls_x for e in ents], dtype=np.int64).T
    cls_1px = np.array([e.cls_1px for e in ents], dtype=np.int64).T
    out = []
    for i in range(0, len(kernels), MEMBER_CHUNK):
        chunk = kernels[i:i + MEMBER_CHUNK]
        depth = max(1, *map(len, chunk))
        rows = np.array([[*k] + [(0,) * w.rank] * (depth - len(k))
                         for k in chunk], dtype=np.int64)
        fx = rows @ cls_x % mod
        fpx = rows @ cls_1px % mod
        bad = ((fx != 0).any(axis=1) & (fpx != 0).any(axis=1)
               & (fx != fpx).any(axis=1))
        out.extend(ents[k] if b else None
                   for b, k in zip(bad.any(axis=1).tolist(),
                                   bad.argmax(axis=1).tolist()))
    return out


def _pair_failure(H: MultSubgroup, height: int):
    """The first (x, y) over the capped stream, x and y outside H with 1+x
    and 1+y in H, that has 1+x(1+y) outside H, or None (l = 2 only).

    The class of 1+x_i(1+x_j) does not depend on H, so the window's
    ScanIndex keeps it per position pair (i, j) for every subgroup of the
    window (`ScanIndex.pair_class`)."""
    w = H.window
    index = index_of(w)
    qualifying = [(i, index.element(src), cls_x, cls_opx)
                  for i, ((cls_x, cls_opx), src) in enumerate(
                      index.stream(min(height, PAIR_HEIGHT_CAP)))
                  if cls_x is not None and not H.contains_class(cls_x)
                  and cls_opx is not None and H.contains_class(cls_opx)]
    for i, x, cls_x, _ in qualifying:
        for j, y, _, cls_opy in qualifying:
            cls_probe = index.pair_class(i, j, x, cls_x, y, cls_opy)
            if cls_probe is not None and not H.contains_class(cls_probe):
                return x, y
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

    The kernel of <f> is ker f, so the one-variable condition of every f is
    one `_first_failures` call with the rows (f,).  For l = 2 the members
    that pass it run the two-variable condition alone.
    """
    if not chars:
        return []
    w = chars[0].window
    if any(f.window != w for f in chars):
        raise LevelMismatch("characters on different windows")
    out = [ent is None for ent in
           _first_failures(w, [(f.values,) for f in chars], height)]
    if w.level.ell == 2:
        out = [ok and _pair_failure(MultSubgroup(CharacterGroup(w, (f,))),
                                    height) is None
               for f, ok in zip(chars, out)]
    return out


class UnitGroupApprox:
    """Membership test for the units of the coarsest valuation below H.

    h is accepted iff h lies in H and, for every scanned x outside H,
    (1+x)/(h+x) lies in H; this is the unit-group characterization of the
    canonical valuation, evaluated against the stream at the given height.

    The test is class-level.  The first MAX_NONMEMBERS nonmembers x of the
    window's stream are tabled once, in stream order, as rows (x, cls 1+x).
    On a Laurent window each row is an exact monomial of exponent v(x), and
    an h in H with leading term c*t^e, e below its precision bound, passes
    every row with v(x) != e iff hi <= e <= lo, where lo is the least v(x)
    with (1+x)/x outside H and hi the greatest v(x) with 1+x outside H:
    - for v(x) < e, h + x leads with x, so the row asks (1+x)/x in H;
    - for v(x) > e, h + x leads with h, whose class lies in H, so the row
      asks 1+x in H.
    A tie v(x) = e gives h + x the leading term of c*t^e + x, so the
    verdict is one per leading term, and the ties are classified against
    that monomial.  No tie cancels the lead of an h in H: windows kill -1,
    so such an x has the class of -h, which is that of h, and lies in H.
    This is exact, because a class reads only leading terms.  Every other
    h, off a Laurent window or with no known leading term, classifies h + x
    for every row in stream order, so its verdict and the exception it may
    raise are those of the definition.
    """

    MAX_NONMEMBERS = 400

    def __init__(self, H: MultSubgroup, height: int):
        self.H = H
        self.height = height
        self._tab = None
        self._capped = False
        # verdict per leading term (e, c) of an h the interval decides, and
        # per h.data of any other h; an exponent e is never a tuple, so the
        # two kinds of key never meet
        self._memo = {}

    def _table(self):
        """(rows, hi, lo, ties): the scanned nonmembers x of H in stream
        order, up to MAX_NONMEMBERS of them, as rows (x, cls 1+x), and on a
        Laurent window the bounds hi and lo and the rows per exponent v(x);
        off it, hi and lo stay infinite and ties empty.  The zero class lies
        in H, so x = -1 is never a row."""
        if self._tab is None:
            H, w = self.H, self.H.window
            laurent = w.model.kind == "laurent"
            index = index_of(w)
            rows, ties = [], {}
            hi, lo = -math.inf, math.inf
            for (cls_x, cls_opx), src in index.stream(self.height):
                if cls_x is None or H.contains_class(cls_x):
                    continue
                if len(rows) == self.MAX_NONMEMBERS:
                    self._capped = True  # this nonmember is left out
                    break
                rows.append((index.element(src), cls_opx))
                if laurent:
                    v = src[0]  # x = c*t^v
                    ties.setdefault(v, []).append(rows[-1])
                    if not H.contains_class(w.class_sub(cls_opx, cls_x)):
                        lo = min(lo, v)
                    if not H.contains_class(cls_opx):
                        hi = max(hi, v)
            self._tab = rows, hi, lo, ties
        return self._tab

    def is_unit(self, h, cls_h=None) -> bool:
        """Whether h passes the unit test; `cls_h`, the window class of a
        nonzero h when the caller has read it, spares classifying h."""
        lead = None
        if self.H.window.model.kind == "laurent":
            coeffs, bound = h.data
            if coeffs and (bound is None or coeffs[0][0] < bound):
                lead = coeffs[0]
        key = h.data if lead is None else lead
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._verdict(h, lead, cls_h)
        return got

    def _verdict(self, h, lead, cls_h) -> bool:
        """Whether h is a unit.  With a leading term (e, c), the monomial
        c*t^e stands in for h, as it has the class of h and the leading
        term of each sum with a row: it must lie in H, e in [hi, lo], and
        the rows v(x) = e must pass.  Without one, h must be nonzero, lie
        in H and pass every row."""
        w = self.H.window
        if lead is not None:
            h = w.model.elt(((lead,), None))
        if h.is_zero() or not (self.H.contains(h) if cls_h is None
                               else self.H.contains_class(cls_h)):
            return False
        rows, hi, lo, ties = self._table()
        if lead is not None:
            if not hi <= lead[0] <= lo:
                return False
            rows = ties.get(lead[0], ())
        # 1+x = h+x mod H, tested on classes (quotients never materialize)
        return all(self.H.contains_class(
                       w.class_sub(cls_opx, w.classify_sum(h, x)))
                   for x, cls_opx in rows)

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
    the kernel of I = {a*f + b*g : (a, b) orthogonal to S}.  Only the
    classes of the table entries are read, never their elements.

    A non-cyclic H/T falsifies the preconditions (the pair did not come from
    a C-pair at the required lifted level) and raises MainClaimViolated.
    """
    if f.window != g.window:
        raise LevelMismatch("characters on different windows")
    w = f.window
    ell, n = w.level.ell, w.level.n
    vectors = {}    # distinct qualifying images, in table order
    for ent in scan_index(w, height).entries(height):
        img = (f.evaluate_class(ent.cls_x), g.evaluate_class(ent.cls_x))
        if not any(img):
            continue
        q = (f.evaluate_class(ent.cls_1px), g.evaluate_class(ent.cls_1px))
        if any(q) and q != img:
            vectors[img] = None
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
    comparable: scans the cyclicity of <Psi(1-x), Psi(x)>."""
    w = f.window
    if g.window != w:
        raise LevelMismatch("characters on different windows")
    if not all(valuative_members_mask([f, g], height)):
        raise NotValuative("input character is not valuative at this "
                           "height")
    ell, n = w.level.ell, w.level.n
    for ent in scan_index(w, height).entries(height):
        if ent.cls_1mx is None:
            continue
        psi_x = (f.evaluate_class(ent.cls_x), g.evaluate_class(ent.cls_x))
        psi_m = (f.evaluate_class(ent.cls_1mx), g.evaluate_class(ent.cls_1mx))
        if not vectors_cyclic(psi_m, psi_x, ell, n):
            return Verdict("NotComparable", height, witness=ent.element())
    if exhaustive_classes(w, height):
        return Verdict("Comparable", height)
    return Verdict("ComparableUpToBound", height)
