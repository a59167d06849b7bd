"""Valuative subgroups, canonical valuations, and the rigid complement.

A multiplicative subgroup H <= K^x enters as {x : Psi(x) in S} for a finite
character family Psi and a span S of value vectors; this covers both kernels
of character groups (S = 0) and the subgroup generated by the kernel and
finitely many classes.  All "for all x" conditions are semi-decided by
scanning the enumeration stream, and every verdict carries its height.

The tests are class-level: membership in H depends only on the class in the
window, each H memoises its verdict per class, and the class of a sum such
as h + x or 1 + x comes from `Window.classify_sum`, which reads the leading
term of the sum without building it.

The unit test of `UnitGroupApprox` decides h from its leading term c*t^e
on a Laurent window, where e lies below the precision bound of h: for an
exact monomial x, h + x leads with x, with h, or with (c + c_x)*t^e, so
its class reads c*t^e and never the rest of h.  No x outside H cancels the
lead of an h in H, since windows kill -1: -c*t^e has the class of h.  A
verdict is therefore computed once per leading term, and is exact,
because a class reads only leading terms.  Valuative tests of the
cyclic groups <f> for many members f at once are one matrix product over
the scan table (`valuative_members_mask`).
"""

from dataclasses import dataclass, field

import numpy as np

from .coeffmod import (
    howell_form,
    span_contains,
    span_quasi_basis,
    vectors_cyclic,
)
from .errors import (
    LevelMismatch,
    MainClaimViolated,
    NotValuative,
    PreconditionViolated,
)
from .characters import Character, CharacterGroup
from .fields import Window, enumerate_blocks
from .scans import scan_index


@dataclass(frozen=True)
class MultSubgroup:
    """{x in K^x : Psi(x) lies in the span}; span () means the plain kernel."""

    window: Window
    psi: tuple              # of Characters on the window
    span: tuple = ()        # howell rows over (Z/l^n)^len(psi)
    # membership verdict per class; at most one entry per window class
    _members: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)

    def __post_init__(self):
        for f in self.psi:
            if f.window != self.window:
                raise LevelMismatch("character on a different window")
        ell, n = self.window.level.ell, self.window.level.n
        object.__setattr__(
            self, "span",
            tuple(howell_form(self.span, ell, n, len(self.psi))))

    @staticmethod
    def kernel_of(group: CharacterGroup):
        return MultSubgroup(group.window,
                            tuple(Character(group.window, r)
                                  for r in group.howell()))

    def psi_image(self, cls):
        return tuple(f.evaluate_class(cls) for f in self.psi)

    def contains_class(self, cls) -> bool:
        got = self._members.get(cls)
        if got is None:
            img = self.psi_image(cls)
            ell, n = self.window.level.ell, self.window.level.n
            got = not any(img) or span_contains(self.span, img, ell, n)
            self._members[cls] = got
        return got

    def contains(self, x) -> bool:
        return self.contains_class(self.window.classify(x))

    def describe(self):
        return {"window": self.window.spec(),
                "characters": [f.label() for f in self.psi],
                "extra_span": [list(r) for r in self.span]}


NO_VIOLATION = "NoViolationUpTo"
VIOLATION = "Violation"


@dataclass(frozen=True)
class ValuativeVerdict:
    kind: str
    height: int
    witness: object = None          # single element x
    witness_pair: tuple = None      # (x, y) for the two-variable condition
    conditions: tuple = ()

    def holds(self):
        return self.kind == NO_VIOLATION

    def payload(self):
        from .fields import format_element
        out = {"result": self.kind, "height": self.height,
               "conditions": list(self.conditions)}
        if self.witness is not None:
            out["witness"] = format_element(self.witness)
        if self.witness_pair is not None:
            out["witness_pair"] = [format_element(e)
                                   for e in self.witness_pair]
        return out


# element-level scans (unit predicates, pair conditions) walk real elements,
# not class tables, so rational-function levels get a lower degree cap
ELEMENT_RATFUNC_CAP = 1

# height cap of the l = 2 two-variable scan, which walks element pairs
PAIR_HEIGHT_CAP = 2


def capped_stream(model, height):
    return (x for blk in enumerate_blocks(model, height, ELEMENT_RATFUNC_CAP)
            for x in blk)


def valuative_test(H: MultSubgroup, height: int) -> ValuativeVerdict:
    """Scan the conditions for H to admit a valuation with O_v^x <= H.

    Always checks 1+x in H u xH for scanned x outside H.  For ell = 2 the
    additional two-variable condition (1+x, 1+y in H forces 1+x(1+y) in H)
    is scanned over element pairs; for odd ell it is implied because the
    l^n-th powers lie in H.
    """
    w = H.window
    conditions = ["one_plus_x"]
    if not H.contains_class(w.zero_class()):
        raise PreconditionViolated("-1 (trivial class) must lie in H")
    for ent in scan_index(w, height).entries(height):
        if H.contains_class(ent.cls_x):
            continue
        if H.contains_class(ent.cls_1px):
            continue
        if H.contains_class(w.class_sub(ent.cls_1px, ent.cls_x)):
            continue
        return ValuativeVerdict(VIOLATION, height, witness=ent.element(),
                                conditions=tuple(conditions))
    if w.level.ell == 2:
        conditions.append("one_plus_x_one_plus_y")
        qualifying = []
        one = w.model.one()
        for x in capped_stream(w.model, min(height, PAIR_HEIGHT_CAP)):
            if x.is_zero():
                continue
            if H.contains_class(w.classify(x)):
                continue
            cls_opx = w.classify_sum(one, x)
            if cls_opx is None or not H.contains_class(cls_opx):
                continue
            qualifying.append((x, one + x))
        for x, _ in qualifying:
            for y, opy in qualifying:
                cls_probe = w.classify_sum(one, x * opy)
                if cls_probe is None:
                    continue
                if not H.contains_class(cls_probe):
                    return ValuativeVerdict(
                        VIOLATION, height, witness_pair=(x, y),
                        conditions=tuple(conditions))
    return ValuativeVerdict(NO_VIOLATION, height,
                            conditions=tuple(conditions))


# members per product in valuative_members_mask: bounds the temporaries at
# MEMBER_CHUNK x (table entries) values, so peak memory does not grow with
# the group
MEMBER_CHUNK = 32


def valuative_members_mask(chars, height: int) -> list:
    """valuative_test(MultSubgroup.kernel_of(<f>), height).holds() for each
    character f of `chars`, all on one window.

    The kernel of <f> is ker f, so the one-variable condition fails for f at
    a table entry iff f(x) != 0, f(1+x) != 0 and f(1+x) != f(x): this is one
    product of the member matrix with the entries' cls x and cls 1+x
    matrices, taken over fixed member chunks.  For l = 2 that product is a
    filter, and the members that pass it run valuative_test for the
    two-variable condition.
    """
    if not chars:
        return []
    w = chars[0].window
    mod = w.level.modulus
    ents = [e for e in scan_index(w, height).entries(height)
            if e.cls_1px is not None]
    cls_x = np.array([e.cls_x for e in ents], dtype=np.int64).reshape(
        len(ents), w.rank).T
    cls_1px = np.array([e.cls_1px for e in ents], dtype=np.int64).reshape(
        len(ents), w.rank).T
    out = []
    for i in range(0, len(chars), MEMBER_CHUNK):
        vals = np.array([f.values for f in chars[i:i + MEMBER_CHUNK]],
                        dtype=np.int64)
        fx = vals @ cls_x % mod
        fpx = vals @ cls_1px % mod
        bad = ((fx != 0) & (fpx != 0) & (fx != fpx)).any(axis=1)
        out.extend(not b for b in bad.tolist())
    if w.level.ell == 2:
        out = [ok and valuative_test(MultSubgroup.kernel_of(
            CharacterGroup(w, (f,))), height).holds()
            for f, ok in zip(chars, out)]
    return out


class UnitGroupApprox:
    """Membership test for the units of the coarsest valuation below H.

    h is accepted iff h lies in H and, for every scanned x outside H,
    (1+x)/(h+x) lies in H; this is the unit-group characterization of the
    canonical valuation, evaluated against the stream at the given height.

    The test is class-level.  The first `max_nonmembers` nonmembers x of the
    stream are tabled once, in stream order, with cls x, cls 1+x, the
    verdict cls(1+x) - cls(x) in H, and on a Laurent window the exponent
    v(x) of x, an exact monomial c_x*t^v(x) like every stream element.
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
            one = w.model.one()
            laurent = w.model.kind == "laurent"
            rows = []
            for x in capped_stream(w.model, self.height):
                if x.is_zero():
                    continue
                cls_x = w.classify(x)
                if self.H.contains_class(cls_x):
                    continue
                if len(rows) == self.max_nonmembers:
                    self._capped = True  # this nonmember is left out
                    break
                cls_opx = w.classify_sum(one, x)
                ok = self.H.contains_class(w.class_sub(cls_opx, cls_x))
                rows.append((x, x.data[0][0][0] if laurent else None,
                             cls_x, cls_opx, ok))
            self._rows = rows
        return self._rows

    def is_unit(self, h) -> bool:
        lead = None
        if self.H.window.model.kind == "laurent":
            coeffs, bound = h.data
            if coeffs and (bound is None or coeffs[0][0] < bound):
                lead = coeffs[0]
        key = h.data if lead is None else lead
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = (self._by_walk(h) if lead is None
                                     else self._by_lead(*lead))
        return got

    def _by_walk(self, h) -> bool:
        """The verdict of h from classifying h + x for every row x."""
        if h.is_zero() or not self.H.contains(h):
            return False
        return self._first_failure(h, range(len(self._table()))) is None

    def _by_lead(self, e, c) -> bool:
        """The verdict shared by every h with leading term c*t^e below its
        bound: that of the monomial h0 = c*t^e."""
        w = self.H.window
        h0 = w.model.elt((((e, c),), None))
        if not self.H.contains(h0):
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
    """H = <T, x with Psi(1+x) differing from Psi(1) and Psi(x)>, plus the
    cyclicity certificate for H/T."""

    psi: tuple
    height: int
    span: tuple
    generator: tuple            # psi-image generating H/T, or None
    subgroup: MultSubgroup
    qualifying: tuple           # representative elements found

    def is_trivial(self):
        return not self.span

    def payload(self):
        from .fields import format_element
        return {"height": self.height,
                "quotient_generator": list(self.generator)
                if self.generator else None,
                "qualifying": [format_element(x) for x in self.qualifying]}


def rigid_complement(f: Character, g: Character, height: int) -> RigidComplement:
    """Scan for the subgroup H generated by T = ker(f) n ker(g) and all x with
    Psi(1+x) distinct from Psi(1) and Psi(x); asserts H/T cyclic.

    A non-cyclic H/T falsifies the preconditions (the pair did not come from
    a C-pair at the required lifted level) and raises MainClaimViolated.
    """
    if f.window != g.window:
        raise LevelMismatch("characters on different windows")
    w = f.window
    ell, n = w.level.ell, w.level.n
    vectors = []
    reps = []
    for ent in scan_index(w, height).entries(height):
        img = (f.evaluate_class(ent.cls_x), g.evaluate_class(ent.cls_x))
        if not any(img):
            continue
        q = (f.evaluate_class(ent.cls_1px), g.evaluate_class(ent.cls_1px))
        if not any(q):
            continue
        if q == img:
            continue
        if not any(vec == img for vec in vectors):
            vectors.append(img)
            reps.append(ent.element())
    span = howell_form(vectors, ell, n, 2)
    basis = [v for v, _ in span_quasi_basis(span, ell, n)]
    if len(basis) > 1:
        raise MainClaimViolated(
            "H/T is not cyclic; inputs cannot reduce from a C-pair at the "
            "required level")
    gen = basis[0] if basis else None
    sub = MultSubgroup(w, (f, g), span)
    return RigidComplement((f, g), height, tuple(span), gen, sub, tuple(reps))


@dataclass(frozen=True)
class ComparabilityVerdict:
    kind: str         # Comparable | NotComparable | ComparableUpToBound
    height: int
    witness: object = None

    def holds(self):
        return self.kind != "NotComparable"

    def payload(self):
        from .fields import format_element
        out = {"result": self.kind, "height": self.height}
        if self.witness is not None:
            out["witness"] = format_element(self.witness)
        return out


def comparable(f: Character, g: Character, height: int) -> ComparabilityVerdict:
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
            return ComparabilityVerdict("NotComparable", height,
                                        witness=ent.element())
    from .scans import exhaustive_classes
    if exhaustive_classes(w.model, height, w.level):
        return ComparabilityVerdict("Comparable", height)
    return ComparabilityVerdict("ComparableUpToBound", height)
