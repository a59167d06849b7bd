"""Class-pair bookkeeping over the canonical enumeration streams.

Scanning predicates such as the C-pair identity or the rigid-element
conditions only see the window classes of x, 1-x and 1+x.  A ScanIndex
tabulates, block by block of the enumeration stream, the distinct class
triples together with the first element realizing each; predicate scans then
run over the (small) triple table instead of the raw stream, with witnesses
recovered from the stored representatives in stream order.

For rational function fields the table is built by sweeping all
numerator/denominator pairs per block.  In odd characteristic the triple of
an x other than 0 and +-1 lies in a product of local sets, one per
generator (`local_triple_sets`): at a place, v(x) > 0 makes 1 +- x units,
v(x) < 0 gives v(1 +- x) = v(x), and for v(x) = 0 at most one of 1 +- x is
a non-unit, since their sum 2 is a unit; the const slot follows the leading
coefficients.  Every triple of the product occurs in K: `local_witness`
builds an x for one by CRT (the approximation theorem).  When the product
has at most CLOSING_LIMIT triples, the table closes at height 1: block 1 is
the degree-1 sweep followed by one closing block, an entry for every
product triple the sweep missed, in sorted component order, keyed after
the sweep's last key.  Every later block is empty, and every height >= 1
reads this one full table (`exhaustive_classes`).  Height 1 and not 2,
because the sweep's cost grows with the degree (F7(u) with [u, u-a]: 3 ms
through degree 1, 0.15 s for degree 2, 7.7 s for degree 3), while a closing
entry takes its classes from its components; its witness is built only
when read, once, and replayed through `Window.fraction_class` first.
Windows in characteristic 2 and windows with a larger product keep the
sweep, capped at RATFUNC_DEGREE_CAP, and bounded verdicts.

A Laurent table is its base table at t^0, block for block.  For
x = c*t^e*(1+m), 1 + m is an l^n-th power and windows kill -1, so e > 0
gives the triple (X, 0, 0) and e < 0 gives (X, X, X); every predicate that
reads a table passes at both, so no entry with e != 0 is kept.

Predicates that see x only through the Steinberg wedge cls x ^ cls 1-x,
such as the bilinear C-pair identity and the K2 relation span, need even
less.  The index computes each tabled entry's wedge once, when the entry
enters the table, and stores it on the entry (None when x = 1); the K2
presentation's Steinberg witnesses are these entries.  A window has few
distinct wedges (26 against 1,136 triples on F7(u) with [u, u-1, const],
and none on F19((t)) with l^n = 9 and [t, const] at height 9), so those
scans run over the first entry of each distinct nonzero wedge, in stream
order, which the index takes from the table once per height: the pair
kernel of the C-pair scan and the C-center, with the exhaustiveness flag
and, per f ^ g, the first of those wedges that pairs nonzero with it.
The index reduces each wedge coordinate e_ij modulo min(o_i, o_j) from
triples (i, j, min) made once per window.

A window's ScanIndex owns its memos, each built once: the triple table,
the pair kernels, the class arrays per height (the entries' cls x, cls 1-x
and cls 1+x as matrices, read by the valuative and comparability scans),
and cls x and cls 1+x per position of the element stream that the rigid
and detect walks read (`ScanIndex.stream`).  A bottom window keeps each
block's elements next to its class rows; a Laurent window keeps the
nonzero rows of each base block and derives its own from them, segment by
segment, by the rule of `_lift_rows`, with no element built.  Each
position comes with a source (exponent vector, bottom element), top level
first, and a walk builds the element only where it keeps one
(`ScanIndex.element`, one `fields.monomial` call); the l = 2 probe
cls(1 + x(1 + y)) reads the exponents of two sources.  This module neither
builds nor reads element data itself: `fields` alone knows the layout of a
Laurent series.  Every class comes from the index's Window, which
memoises per-polynomial class data: a rational-function pair (num, den)
through `Window.fraction_class`, with no exponent vector, and an element
through the class of its leading term.  Every entry holds its element as
a zero-argument factory, which `ScanEntry.element` calls.  The indexes
live for the process in one dict keyed by window, so later commands reuse
the tables and that memo.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coeffmod import wedge_pairs
from .errors import PreconditionViolated, WitnessMismatch
from .fields import (
    CONST,
    Window,
    bottom_block,
    format_element,
    laurent_exponents,
    monomial,
    ratfunc_denominators,
    ratfunc_numerators,
)


@dataclass(frozen=True, slots=True)  # tables hold thousands of entries
class ScanEntry:
    key: tuple        # increases along the canonical stream
    cls_x: tuple
    cls_1mx: tuple    # None when x = 1
    cls_1px: tuple    # None when x = -1
    rep: object       # zero-argument factory of the element x
    wedge: tuple = None  # cls x ^ cls 1-x, set by ScanIndex; None when x = 1

    def element(self):
        return self.rep()


class ScanIndex:
    """Per-window table of distinct (cls x, cls 1-x, cls 1+x) triples, each
    entry carrying its Steinberg wedge cls x ^ cls 1-x, and the class list
    of the element stream.

    On a rational-function window of odd characteristic, `bound` is the
    number of triples that an x other than 0 and +-1 can have at all (the
    size of the product of `local_triple_sets`).  When it is at most
    CLOSING_LIMIT the window `closes`: block 1 ends with the closing block,
    which completes the table, and every later block is empty."""

    def __init__(self, window: Window):
        self.window = window
        self.blocks = []          # blocks[s] = new entries at height s
        self._seen = set()
        self.local_sets = local_triple_sets(window)
        self.bound = (None if self.local_sets is None
                      else math.prod(map(len, self.local_sets)))
        self.closes = self.bound is not None and self.bound <= CLOSING_LIMIT
        # the element stream of the rigid and detect walks: stream_blocks[s]
        # holds (cls x, cls 1+x) per position of block s (block_sources[s]
        # its sources on a bottom window, base_rows[s] (cls c, cls 1+c, src)
        # per c != 0 of base block s on a Laurent one), and pair_classes
        # cls(1 + x_i(1 + x_j)) per position pair (i, j) of the l = 2
        # clause; each class is one interned tuple
        self.stream_blocks = []
        self.block_sources = []
        self.base_rows = []
        self.pair_classes = {}
        self._interned = {}
        self._base = None         # base_window()'s index, once read
        # (i, j, min(o_i, o_j)) per wedge coordinate e_ij, read by `wedge`
        o = window.orders
        self.wedge_moduli = tuple((i, j, min(o[i], o[j]))
                                  for i, j in wedge_pairs(window.rank))
        self._kernels = {}        # height -> pair_kernel(height)
        self._arrays = {}         # height -> class_arrays(height)

    def _intern(self, cls):
        return None if cls is None else self._interned.setdefault(cls, cls)

    def _base_index(self):
        if self._base is None:
            self._base = index_of(self.window.base_window())
        return self._base

    def stream(self, height):
        """((cls x, cls 1+x), src) for each element x of the capped element
        stream through `height`, in stream order; cls x is None for x = 0,
        cls 1+x for x = -1.  The source src of x is (exponent vector, bottom
        element): x is the monomial of `fields.monomial`, which
        element(src) builds.  The stream at a height is a prefix of the
        stream at every larger one, so the class list serves walks at every
        height."""
        for segments in self._stream_blocks(height):
            for rows, srcs in segments:
                yield from zip(rows, srcs)

    def element(self, src):
        """The stream element that `stream` yields with source src."""
        return monomial(self.window.model, *src)

    def one_plus(self, src):
        """1 + x for the stream element x = element(src) other than -1, as
        the monomial of its leading term, which has the class and the
        UnitGroupApprox.is_unit verdict of 1 + x: by the first nonzero
        exponent of src, top level first, 1 if it is positive and x if it
        is negative, and (1 + b)*t^0 for the bottom element b if none is."""
        vec, bottom = src
        for e in vec:
            if e:
                return self.window.model.one() if e > 0 else self.element(src)
        return monomial(self.window.model, vec, bottom.model.one() + bottom)

    def _stream_blocks(self, height):
        """Per stream block s through `height`, its segments (class rows,
        sources), each listed, classified or derived once, when a walk
        first reaches it; a Laurent block reads base_rows[:s + 1]."""
        w = self.window
        blocks = self.stream_blocks
        blocks.extend([] for _ in range(len(blocks), height + 1))
        if w.model.kind != "laurent":
            sources = self.block_sources
            for s, rows in enumerate(blocks[:height + 1]):
                if s == len(sources):
                    sources.append([((), x) for x in bottom_block(
                        w.model, s, ELEMENT_RATFUNC_CAP)])
                    rows.extend([self._bottom_row(x) for _, x in sources[s]])
                yield ((rows, sources[s]),)
            return
        res, base = self.base_rows, self._base_index()
        for s, segments in enumerate(base._stream_blocks(height)):
            if s == len(res):
                res.append([(*row, src) for rows, srcs in segments
                            for row, src in zip(rows, srcs)
                            if row[0] is not None])
            yield self._laurent_segments(s, res)

    def _bottom_row(self, x):
        w = self.window
        if x.is_zero():
            return None, self._intern(w.zero_class())
        return (self._intern(w.classify(x)),
                self._intern(w.classify_sum(w.model.one(), x)))

    def _laurent_segments(self, s, res):
        """Laurent block s: x = 0 when s = 0, then per base block sc <= s
        one segment, c*t^e for the c != 0 of res[sc] and e in
        laurent_exponents(s, sc), whose classes `_lift_rows` derives from
        the base rows when a walk first reaches it."""
        w = self.window
        rows = self.stream_blocks[s]
        k = 0
        if s == 0:
            if not rows:
                rows.append((None, self._intern(w.zero_class())))
            model = w.model
            yield rows[:1], (((0,) * len(model.laurent_vars()),
                              model.bottom().zero()),)
            k = 1
        for sc, base_rows in enumerate(res[:s + 1]):
            es = laurent_exponents(s, sc)
            if k == len(rows):
                rows.extend(self._lift_rows(base_rows, es))
            n = len(base_rows) * len(es)
            yield rows[k:k + n], (((e, *vec), bottom)
                                  for _, _, (vec, bottom) in base_rows
                                  for e in es)
            k += n

    def _lift_rows(self, base_rows, es):
        """(cls x, cls 1+x) of x = c*t^e for the base rows (cls c, cls 1+c,
        src of c) and e in es: cls x is cls c with e mod l^n in the top
        slot, and 1 + x leads with 1 for e > 0, with x for e < 0 and with
        (1 + c)*t^0 for e = 0."""
        w, intern = self.window, self._intern
        mod = w.level.modulus
        zero = intern(w.zero_class())
        for cls_c, cls_1pc, _ in base_rows:
            for e in es:
                cls_x = intern(w.from_base(cls_c, e % mod))
                if e:
                    yield cls_x, zero if e > 0 else cls_x
                else:
                    yield cls_x, (None if cls_1pc is None else
                                  intern(w.from_base(cls_1pc, 0)))

    def pair_class(self, i, j, src_x, cls_x, src_y, cls_1py):
        """cls(1 + x(1 + y)) of the stream elements x and y with sources
        src_x and src_y at positions i and j, given cls x and cls 1+y !=
        None, or None when the sum is zero; kept per position pair."""
        probes = self.pair_classes
        if (i, j) not in probes:
            probes[i, j] = self._intern(
                self._pair_probe(src_x, cls_x, src_y, cls_1py))
        return probes[i, j]

    def _pair_probe(self, src_x, cls_x, src_y, cls_1py):
        """On a Laurent window x = c*t^e and y = d*t^f, e and f read off the
        sources, so 1 + y leads with b*t^min(f, 0), b = 1, d or 1 + d as
        f > 0, f < 0 or f = 0, and x(1 + y) with cb*t^g, g = e + min(f, 0).
        1 + x(1 + y) then leads with 1 for g > 0, with cb*t^g for g < 0, of
        class cls x + cls 1+y, and with (1 + cb)*t^0 for g = 0 (c and d
        built) unless 1 + cb = 0.  Only then, and off a Laurent window, are
        x, y and the product built."""
        w = self.window
        model = w.model
        if model.kind == "laurent":
            e, f = src_x[0][0], src_y[0][0]
            g = e + min(f, 0)
            if g != 0:
                return w.zero_class() if g > 0 else w.class_add(cls_x, cls_1py)
            base = model.base
            c, d = (monomial(base, vec[1:], bot) for vec, bot in (src_x, src_y))
            one = base.one()
            b = one if f > 0 else d if f < 0 else one + d
            cls = w.base_window().classify_sum(one, c * b)
            if cls is not None:
                return w.from_base(cls, 0)
        x, y, one = self.element(src_x), self.element(src_y), model.one()
        return w.classify_sum(one, x * (one + y))

    def ensure(self, height):
        while len(self.blocks) <= height:
            s = len(self.blocks)
            new = []
            for ent in _block_entries(self, s):
                trip = (ent.cls_x, ent.cls_1mx, ent.cls_1px)
                if trip in self._seen:
                    continue
                self._seen.add(trip)
                new.append(ent)
                if ent.cls_1mx is not None:
                    object.__setattr__(
                        ent, "wedge", self.wedge(ent.cls_x, ent.cls_1mx))
            self.blocks.append(new)
        return self

    def entries(self, height):
        """Table entries through `height`, in stream order."""
        height = effective_height(self.window.model, height)
        self.ensure(height)
        return itertools.chain.from_iterable(self.blocks[:height + 1])

    def pair_kernel(self, height):
        """(wedges, exhaustive, violations): (wedge, entry) for the first
        entry of each distinct nonzero wedge through `height`, in stream
        order, exhaustive_classes(window, height), and the memo of
        first_violation, made once per height; all that the C-pair scan and
        the C-center read of the table."""
        kernel = self._kernels.get(height)
        if kernel is None:
            first = {}
            for ent in self.entries(height):
                if ent.wedge is not None and any(ent.wedge):
                    first.setdefault(ent.wedge, ent)
            kernel = self._kernels[height] = (
                tuple(first.items()), exhaustive_classes(self.window, height),
                {})
        return kernel

    def first_violation(self, height, fg):
        """(entry, exhaustive): the first entry of pair_kernel(height) whose
        wedge pairs nonzero with fg, a wedge vector mod l^n, or None, and
        the exhaustive flag; kept in the kernel per fg."""
        wedges, exhaustive, violations = self.pair_kernel(height)
        if fg not in violations:
            mod = self.window.level.modulus
            violations[fg] = (next((ent for x, ent in wedges
                                    if sum(map(operator.mul, fg, x)) % mod),
                                   None), exhaustive)
        return violations[fg]

    def class_arrays(self, height):
        """(entries, cls x, cls 1-x, cls 1+x): the tuple of entries(height)
        and their classes as rank x entries integer matrices, made once per
        height; all that the valuative and comparability scans read of the
        table.  x = 1 and x = -1 have the zero class, so no scanned
        condition fails at either, and their missing cls 1-x or cls 1+x
        reads as the zero class.  The matrices hold Python ints (dtype
        object) where a product of a character with a class could overflow
        int64, so products with them are exact at every level."""
        height = effective_height(self.window.model, height)
        got = self._arrays.get(height)
        if got is None:
            w = self.window
            ents = tuple(self.entries(height))
            zero = w.zero_class()
            dtype = (np.int64 if w.rank * (w.level.modulus - 1) ** 2 < 2 ** 63
                     else object)
            got = self._arrays[height] = (ents, *(
                np.array([zero if c is None else c for c in cls],
                         dtype=dtype).reshape(-1, w.rank).T
                for cls in ([e.cls_x for e in ents], [e.cls_1mx for e in ents],
                            [e.cls_1px for e in ents])))
        return got

    def wedge(self, cls_a, cls_b):
        """Coordinates of (class a) ^ (class b) on the e_ij basis (i < j),
        each modulo min(o_i, o_j)."""
        return tuple((cls_a[i] * cls_b[j] - cls_a[j] * cls_b[i]) % o
                     for i, j, o in self.wedge_moduli)


def wedge_of(window, cls_a, cls_b):
    """Coordinates of (class a) ^ (class b) on the e_ij basis (i < j), each
    modulo min(o_i, o_j) (ScanIndex.wedge)."""
    return index_of(window).wedge(cls_a, cls_b)


_INDEX_CACHE = {}

# rational-function tables close at height 1 when the product of the local
# sets has at most this many triples (1,134 on F7(u) with [u, u-a, const]
# at l = 3, n = 1; 15,246 at n = 2)
CLOSING_LIMIT = 20_000

# element walks (unit predicates, pair conditions) build real elements, not
# class tables, so rational-function levels get a lower degree cap
ELEMENT_RATFUNC_CAP = 1

# Degree cap of the rational-function tables that do not close: Laurent
# precision and polynomial degree play different roles, and the pinned
# acceptance heights are (degree 4, precision 8).
RATFUNC_DEGREE_CAP = 4


def effective_height(model, height):
    """The last table block read at `height`; a Laurent table has its
    bottom level's blocks."""
    if model.kind == "laurent":
        return effective_height(model.base, height)
    if model.kind == "ratfunc":
        return min(height, RATFUNC_DEGREE_CAP)
    return 0


def scan_index(window: Window, height: int) -> ScanIndex:
    return index_of(window).ensure(effective_height(window.model, height))


def index_of(window) -> ScanIndex:
    """The window's ScanIndex, made on first use and kept for the
    process."""
    idx = _INDEX_CACHE.get(window)
    if idx is None:
        idx = _INDEX_CACHE[window] = ScanIndex(window)
    return idx


def exhaustive_classes(window, height) -> bool:
    """Whether the table at this height settles the scanned predicates for
    every x in K, not just the enumerated ones.

    Finite fields enumerate everything, and a rational-function table that
    closes is full from height 1 on.  A Laurent table is its residue
    table at t^0; every scanned predicate holds at the untabled triples,
    those with e != 0 and those of zero class (the +-(1+m) cosets), so it
    settles them wherever the residue level does.  The condition
    height >= l^n is therefore conservative; it keeps verdicts below l^n
    bounded.
    """
    kind = window.model.kind
    if kind == "finite":
        return True
    if kind == "laurent":
        return (height >= window.level.modulus
                and exhaustive_classes(window.base_window(), height))
    return height >= 1 and index_of(window).closes


@dataclass(frozen=True)
class Verdict:
    """The outcome of a "for every x" scan at a height: the C-pair and
    C-group identities, the valuative conditions, comparability.

    One x refutes such a condition, or a pair (x, y) for the l = 2
    two-variable valuative clause, so a verdict fails exactly when it
    carries a witness or a witness pair, each replayable.  `exact` (C-pair
    and C-group scans only) says a verdict that holds covers all of K;
    `pair` is the offending generator pair of a C-group, `conditions` the
    valuative conditions scanned."""

    kind: str
    height: int
    witness: object = None
    exact: bool = None
    method: str = None
    pair: tuple = None
    witness_pair: tuple = None
    conditions: tuple = None

    def holds(self):
        return self.witness is None and self.witness_pair is None

    def payload(self):
        out = {"result": self.kind, "height": self.height}
        if self.witness is not None:
            out["witness"] = format_element(self.witness)
        if self.witness_pair is not None:
            out["witness_pair"] = [format_element(e)
                                   for e in self.witness_pair]
        if self.pair is not None:
            out["pair"] = [c.label() for c in self.pair]
        if self.conditions is not None:
            out["conditions"] = list(self.conditions)
        if self.method is not None:
            out["method"] = self.method
        if self.exact is not None:
            out["exact"] = self.exact
        return out


def local_triple_sets(window):
    """Per generator of a rational-function window of odd characteristic,
    the set of (cls x, cls 1-x, cls 1+x) components in its slot that any x
    other than 0 and +-1 can have; every triple of K lies in their product.
    None on other fields and in characteristic 2, where 1 + x = 1 - x.

    At a place P with m classes: v(x) > 0 makes 1 +- x units, (a, 0, 0);
    v(x) < 0 gives v(1 +- x) = v(x), (a, a, a); and for v(x) = 0 at most one
    of 1 +- x has positive valuation, since their sum 2 is a unit, so
    (0, b, 0) or (0, 0, b).  That is 4m - 3 components."""
    model = window.model
    if model.kind != "ratfunc" or model.ff.p == 2:
        return None
    return [_const_triples(model.ff, m) if g[0] == CONST else
            {t for a in range(m)
             for t in ((a, 0, 0), (a, a, a), (0, a, 0), (0, 0, a))}
            for g, m in zip(window.gens, window.orders)]


def _const_triples(ff, m):
    """The const components: dlogs mod m of the leading coefficients of
    x, 1 - x and 1 + x.  Windows kill -1, so a sign does not move a dlog.
    With deg num > deg den all three leads are +-lc(x), (c, c, c); with
    deg num < deg den, (c, 0, 0).  With equal degrees and lead ratio c, the
    dlogs of (c, 1 - c, 1 + c) for c other than +-1, and (0, any, dl 2)
    for c = 1 or (0, dl 2, any) for c = -1."""
    def dl(c):
        return ff.dlog(c) % m
    two = dl(ff.add(ff.one, ff.one))
    out = {t for a in range(m)
           for t in ((a, a, a), (a, 0, 0), (0, a, two), (0, two, a))}
    for c in ff.elements():
        om, op = ff.sub(ff.one, c), ff.add(ff.one, c)
        if c and om and op:
            out.add((dl(c), dl(om), dl(op)))
    return out


def _block_entries(index, s):
    kind = index.window.model.kind
    if kind == "finite":
        return _finite_block(index.window, s)
    if kind == "ratfunc":
        if not index.closes or s == 0:
            return _ratfunc_block_entries(index, s)
        # a closing window: block 1 ends with the closing block, then nothing
        return (itertools.chain(_ratfunc_block_entries(index, 1),
                                _closing_entries(index)) if s == 1 else ())
    return _laurent_block_entries(index.window, s)


# ---------------------------------------------------------------------------
# finite fields: everything sits in block 0
# ---------------------------------------------------------------------------

def _finite_block(window, s):
    if s > 0:
        return
    model = window.model
    ff = model.ff
    for i, code in enumerate(ff.elements()):
        if code == 0:
            continue
        x = model.elt(code)
        cls_x = window.classify(x)
        om = ff.sub(ff.one, code)
        op = ff.add(ff.one, code)
        cls_1mx = window.classify(model.elt(om)) if om else None
        cls_1px = window.classify(model.elt(op)) if op else None
        yield ScanEntry((0, i), cls_x, cls_1mx, cls_1px,
                        partial(model.elt, code))


# ---------------------------------------------------------------------------
# rational function fields
# ---------------------------------------------------------------------------

def _ratfunc_block_entries(index, s):
    """Block s of the ratfunc table by the sweep: every (num, den) pair in
    stream order, yielded one at a time."""
    window = index.window
    model = window.model
    ff = model.ff
    for di, den in enumerate(ratfunc_denominators(ff, s)):
        nums = ratfunc_numerators(ff, s, ff.poly_deg(den) == s)
        for ni, num in enumerate(nums):
            yield ScanEntry((s, di, ni), *fraction_triple(window, num, den),
                            partial(model.from_poly, num, den))


def fraction_triple(window, num, den):
    """(cls x, cls 1-x, cls 1+x) of x = num/den, None for a zero 1 -+ x."""
    ff = window.model.ff
    diff, sm = ff.poly_sub(den, num), ff.poly_add(den, num)
    return (window.fraction_class(num, den),
            window.fraction_class(diff, den) if diff else None,
            window.fraction_class(sm, den) if sm else None)


def _closing_entries(index):
    """The product triples that the degree-1 sweep missed, in sorted
    component order, keyed after the q + 1 denominators of block 1."""
    window = index.window
    seen = index._seen
    head = (1, window.model.ff.q + 1)
    k = 0
    for comps in itertools.product(*map(sorted, index.local_sets)):
        trip = tuple(zip(*comps))
        if trip in seen:
            continue
        yield ScanEntry(head + (k,), *trip, _witness_rep(window, comps, trip))
        k += 1


def _witness_rep(window, comps, trip):
    """Factory of local_witness(window, comps) as an element, built once
    and only after it replays to `trip` through Window.fraction_class."""
    built = []

    def make():
        if not built:
            num, den = local_witness(window, comps)
            if fraction_triple(window, num, den) != trip:
                raise WitnessMismatch(
                    f"CRT witness for {comps} on {window.spec()} does not "
                    "replay")
            built.append(window.model.from_poly(num, den))
        return built[0]
    return make


def local_witness(window, comps):
    """(num, den) of an x whose (cls x, cls 1-x, cls 1+x) has the component
    comps[i] in slot i, for comps in the product of local_triple_sets; the
    same pair on every call.

    The denominator is the product of the poles, padded with the first
    unlisted place while the const slot needs degree room.  num is fixed by
    CRT modulo a power of each listed place P:
    - (a, 0, 0): v(x) = a, or for a = 0, x = c mod P for a constant c other
      than 0 and +-1 (v(x) = m on F3, which has none);
    - (a, a, a), a != 0: a pole of order m - a, and num = 1 mod P;
    - (0, b, 0) or (0, 0, b): x = 1 - P^b or -(1 - P^b) mod P^(b+1).
    A multiple of the CRT modulus added to num then gives it the degree and
    leading coefficients that the const component asks for."""
    ff = window.model.ff
    one = (ff.one,)
    plain = next(((c,) for c in ff.elements()
                  if c and ff.sub(ff.one, c) and ff.add(ff.one, c)), None)
    residues = []   # (P^e, x mod P^e, or None for num = 1 mod P)
    den, lead = one, None
    for i, (g, m, comp) in enumerate(zip(window.gens, window.orders, comps)):
        a, b, c = comp
        if g[0] == CONST:
            lead = _lead_shape(ff, m, comp)
        elif a == b == c != 0:
            den = ff.poly_mul(den, _power(ff, g[1], m - a))
            residues.append((g[1], None))
        elif b == c == 0 and (a or plain is None):
            residues.append((_power(ff, g[1], (a or m) + 1),
                             _power(ff, g[1], a or m)))
        elif b == c == 0:
            residues.append((g[1], plain))
        elif a == 0 and 0 in (b, c):
            pe = _power(ff, g[1], b or c)
            residues.append((ff.poly_mul(pe, g[1]), ff.poly_scale(
                ff.poly_sub(one, pe), ff.one if b else ff.neg(ff.one))))
        else:
            raise PreconditionViolated(
                f"{comp} is not a local component at {window.gen_label(i)}")
    modulus = one
    for pe, _ in residues:
        modulus = ff.poly_mul(modulus, pe)
    dm = ff.poly_deg(modulus)
    if lead is not None:
        pad = _padding_place(ff, window)
        while ff.poly_deg(den) < dm + lead[0]:
            den = ff.poly_mul(den, pad)
    num = _crt(ff, [(pe, one if r is None else
                     ff.poly_mod(ff.poly_mul(r, den), pe))
                    for pe, r in residues], modulus)
    if lead is not None:
        _, rel, top = lead
        deg = dm if rel is None else ff.poly_deg(den) + rel
        num = _raise_top(ff, num, modulus, deg, top(den))
    return num or (ff.zero, ff.one), den


def _lead_shape(ff, m, comp):
    """How num and den realize the const component comp = (dlog lc x,
    dlog lc(1-x), dlog lc(1+x)) mod m, the shape that needs the least
    degree first: (extra, rel, top) with deg den >= deg M + extra for the
    CRT modulus M, deg num = deg den + rel (deg M when rel is None), and
    top(den) the leading coefficients of num, highest first.  den is
    monic, and windows kill -1, so lc x = -lc(1 -+ x) moves no dlog."""
    def dl(c):
        return ff.dlog(c) % m

    def first(want):
        return next(c for c in ff.elements() if c and dl(c) == want)

    one, two = ff.one, dl(ff.add(ff.one, ff.one))
    x, om, op = comp
    if x == om == op:       # deg num > deg den
        return -1, 1, lambda den: (first(x),)
    for c in ff.elements():  # equal degrees, lead ratio c other than +-1
        if c and ff.sub(one, c) and ff.add(one, c) and \
                (dl(c), dl(ff.sub(one, c)), dl(ff.add(one, c))) == comp:
            return 0, 0, lambda den: (c,)
    if om == op == 0:       # deg num < deg den
        return 1, None, lambda den: (first(x),)
    # lead ratio 1 (or -1): the next coefficient of den - num (den + num)
    # is the lead of 1 - x (1 + x)
    if x == 0 and op == two:
        return 1, 0, lambda den: (one, ff.sub(den[-2], first(om)))
    if x == 0 and om == two:
        return 1, 0, lambda den: (ff.neg(one), ff.sub(first(op), den[-2]))
    raise PreconditionViolated(f"{comp} is not a const component")


def _power(ff, f, k):
    out = (ff.one,)
    for _ in range(k):
        out = ff.poly_mul(out, f)
    return out


def _padding_place(ff, window):
    """The first monic irreducible, by degree, that the window does not
    list."""
    listed = {g[1] for g in window.gens if g[0] != CONST}
    for d in itertools.count(1):
        for f in ff.monic_polys(d):
            if f not in listed and ff.poly_is_irreducible(f):
                return f


def _crt(ff, residues, modulus):
    """The f with deg f < deg modulus and f = r mod m for every (m, r);
    the moduli are coprime, with product `modulus`."""
    out = ()
    for m, r in residues:
        rest = ff.poly_divmod(modulus, m)[0]
        _, inv, _ = ff.poly_xgcd(ff.poly_mod(rest, m), m)
        out = ff.poly_add(out, ff.poly_mul(
            ff.poly_mod(ff.poly_mul(r, inv), m), rest))
    return ff.poly_mod(out, modulus)


def _raise_top(ff, num, modulus, deg, top):
    """num plus a multiple of the monic modulus, of degree `deg` with
    leading coefficients `top`; deg - len(top) + 1 >= deg modulus."""
    dm = ff.poly_deg(modulus)
    for k, want in zip(range(deg, -1, -1), top):
        have = num[k] if k < len(num) else ff.zero
        if have != want:
            step = (ff.zero,) * (k - dm) + ff.poly_scale(
                modulus, ff.sub(want, have))
            num = ff.poly_add(num, step)
    return num


# ---------------------------------------------------------------------------
# Laurent levels: the base table at t^0
# ---------------------------------------------------------------------------

def _laurent_block_entries(window, s):
    """Block s of a Laurent table: x*t^0 for each entry x of base block s,
    with its key and its classes given 0 in the top slot."""
    for ent in scan_index(window.base_window(), s).blocks[s]:
        yield ScanEntry(ent.key, *(
            None if cls is None else window.from_base(cls, 0)
            for cls in (ent.cls_x, ent.cls_1mx, ent.cls_1px)),
            lambda e=ent: window.model.monomial(0, e.element()))
