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
verification samples of `detect`) reads one classified stream,
`classified_stream`: the capped element stream zipped with the class list
that the window's ScanIndex keeps, cls x and cls 1+x per position.  A
position is classified once per window, for every height and every
subgroup, and the pair clause's cls(1 + x_i(1 + x_j)) is kept there per
position pair.  Other sums, such as h + x, are classified by
`Window.classify_sum`, which reads the leading term of the sum without
building it.

The unit test of `UnitGroupApprox` decides h from its leading term c*t^e
on a Laurent window, where e lies below the precision bound of h: for an
exact monomial x, h + x leads with x, with h, or with (c + c_x)*t^e, so
its class reads c*t^e and never the rest of h.  No x outside H cancels the
lead of an h in H, since windows kill -1: -c*t^e has the class of h.  A
verdict is therefore computed once per leading term, and is exact,
because a class reads only leading terms.  The one-variable valuative
condition is one matrix product of kernel rows with the scan table, shared
by a single subgroup (`valuative_test`) and by the cyclic groups <f> of
many members f at once (`valuative_members_mask`).
"""

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
from .fields import Window, enumerate_blocks
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


# element-level scans (unit predicates, pair conditions) walk real elements,
# not class tables, so rational-function levels get a lower degree cap
ELEMENT_RATFUNC_CAP = 1

# height cap of the l = 2 two-variable scan, which walks element pairs
PAIR_HEIGHT_CAP = 2


def capped_stream(model, height):
    return (x for blk in enumerate_blocks(model, height, ELEMENT_RATFUNC_CAP)
            for x in blk)


def classified_stream(w: Window, height: int):
    """(x, cls x, cls 1+x) for the elements x of
    capped_stream(w.model, height); cls x is None for x = 0, cls 1+x for
    x = -1.  The classes come from the list on the window's ScanIndex,
    which classifies each position once for walks at every height."""
    index = index_of(w)
    for i, x in enumerate(capped_stream(w.model, height)):
        yield (x, *index.stream_row(i, x))


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
    ScanIndex keeps it per position pair (i, j), and the product is built
    once per pair for every subgroup of the window."""
    w = H.window
    qualifying = [(i, x) for i, (x, cls_x, cls_opx) in enumerate(
                      classified_stream(w, min(height, PAIR_HEIGHT_CAP)))
                  if cls_x is not None and not H.contains_class(cls_x)
                  and cls_opx is not None and H.contains_class(cls_opx)]
    index = index_of(w)
    for i, x in qualifying:
        for j, y in qualifying:
            cls_probe = index.pair_class(i, j, x, y)
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

    The test is class-level.  The first `max_nonmembers` nonmembers x of the
    classified stream are tabled once, in stream order, with cls x, cls 1+x,
    the verdict cls(1+x) - cls(x) in H, and on a Laurent window the
    exponent v(x) of x, an exact monomial c_x*t^v(x) like every stream
    element.
    There an h with leading term c*t^e, e below its precision bound, takes
    the verdict of its leading term (e, c), computed once with the monomial
    h0 = c*t^e:
    - a row with v(x) < e leads h + x, so its stored verdict decides; a row
      with v(x) > e leaves h in the lead, so cls(h + x) = cls h, and
      cls(1+x) - cls h lies in H iff cls 1+x does, as h lies in H.  The
      first of these rows that fails thus depends on e alone; it is
      memoised per e, with the rows v(x) = e before it.
    - a tie x = c_x*t^e gives h + x the leading term (c + c_x)*t^e, the
      same as h0 + x.  No row cancels the lead of an h in H: windows kill
      -1, so an x whose lead cancels that of h has the class of -h, which
      is the class of h, and x lies in H with h.
    This is exact, because a class reads only leading terms.  Every other h,
    on a window that is not Laurent or with its leading exponent not below
    its bound, goes through `Window.classify_sum` with every row.  Rows are
    walked in stream order, so the verdicts and the exceptions raised are
    those of classifying every h + x.
    """

    MAX_NONMEMBERS = 400

    def __init__(self, H: MultSubgroup, height: int,
                 max_nonmembers: int = MAX_NONMEMBERS):
        self.H = H
        self.height = height
        self.max_nonmembers = max_nonmembers
        self._rows = None
        self._capped = False
        # verdict per leading term (e, c) of an h the lead rule decides, and
        # per h.data of any other h; an exponent e is never a tuple, so the
        # two kinds of key never meet
        self._memo = {}
        self._stops = {}    # e -> (first failing row v(x) != e, tie rows)

    def _table(self):
        """The scanned nonmembers x of H in stream order, up to
        `max_nonmembers` of them, as rows (x, v(x), cls x, cls 1+x,
        cls(1+x) - cls(x) in H); v(x) is None off a Laurent window.  The
        zero class lies in H, so x = -1 is never a row."""
        if self._rows is None:
            w = self.H.window
            laurent = w.model.kind == "laurent"
            rows = []
            for x, cls_x, cls_opx in classified_stream(w, self.height):
                if cls_x is None or self.H.contains_class(cls_x):
                    continue
                if len(rows) == self.max_nonmembers:
                    self._capped = True  # this nonmember is left out
                    break
                ok = self.H.contains_class(w.class_sub(cls_opx, cls_x))
                rows.append((x, x.data[0][0][0] if laurent else None,
                             cls_x, cls_opx, ok))
            self._rows = rows
        return self._rows

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
            got = self._memo[key] = (self._by_walk(h, cls_h) if lead is None
                                     else self._by_lead(*lead, cls_h))
        return got

    def _by_walk(self, h, cls_h) -> bool:
        """The verdict of h from classifying h + x for every row x."""
        if h.is_zero() or not (self.H.contains(h) if cls_h is None
                               else self.H.contains_class(cls_h)):
            return False
        return self._first_failure(h, range(len(self._table()))) is None

    def _by_lead(self, e, c, cls_h) -> bool:
        """The verdict shared by every h with leading term c*t^e below its
        bound: that of the monomial h0 = c*t^e, whose class is that of h."""
        h0 = self.H.window.model.elt((((e, c),), None))
        if not (self.H.contains(h0) if cls_h is None
                else self.H.contains_class(cls_h)):
            return False
        got = self._stops.get(e)
        if got is None:
            got = self._stops[e] = self._nontie_stop(e)
        stop, ties = got
        return (stop == len(self._table())
                and self._first_failure(h0, ties) is None)

    def _nontie_stop(self, e):
        """(index of the first row with v(x) != e that fails for an h in H
        of leading exponent e, or the number of rows; the rows before it
        with v(x) = e)."""
        ties = []
        for i, (_, exp, _, cls_opx, ok) in enumerate(self._table()):
            if exp < e:             # h + x leads with x
                if not ok:
                    return i, ties
            elif exp == e:
                ties.append(i)
            elif not self.H.contains_class(cls_opx):   # h + x leads with h
                return i, ties
        return len(self._rows), ties

    def _first_failure(self, h, indices):
        """The first of the row indices (ascending) whose x has
        cls(1+x) - cls(h+x) outside H, or None."""
        w = self.H.window
        for i in indices:
            x, _, _, cls_opx, _ = self._rows[i]
            # 1+x = h+x mod H, tested on classes (quotients never materialize)
            cls_hx = w.classify_sum(h, x)
            if not self.H.contains_class(w.class_sub(cls_opx, cls_hx)):
                return i
        return None

    def payload(self):
        """`nonmembers_capped`: the stream at this height holds more than
        `max_nonmembers` nonmembers, and the test used only the first ones."""
        return {"height": self.height, "subgroup": self.H.describe(),
                "scanned_nonmembers": len(self._table()),
                "max_nonmembers": self.max_nonmembers,
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
