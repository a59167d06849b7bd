"""Class-pair bookkeeping over the canonical enumeration streams.

Scanning predicates such as the C-pair identity or the rigid-element
conditions only see the window classes of x, 1-x and 1+x.  A ScanIndex
tabulates, block by block of the enumeration stream, the distinct class
triples together with the first element realizing each; predicate scans then
run over the (small) triple table instead of the raw stream, with witnesses
recovered from the stored representatives in stream order.

For rational function fields the table is built by sweeping all
numerator/denominator pairs per block.  When the constant field is prime and
the listed places have degree one, a numpy kernel does the sweep by table
lookups: every polynomial of bounded degree gets a packed class key once
(its place multiplicities and leading-coefficient dlog, in mixed radix), the
ids of den - num and den + num come from small digit-group tables, and a
pair's triple is three key gathers.  Per denominator only the triples not
seen before in the block are emitted: the block's emitted triples sit in
one frame per denominator class, a boolean table over the (size + 1)^3
unreduced triple keys while that is at most 2^16 (so a block holds at most
40 frames of 64 KB), else a sorted key array searched by bisection.  Each
numerator's place in the canonical stream is computed from its digits
(by degree, then the low coefficients in lex order with c0 most
significant, then the leading coefficient), not by walking the stream.
The pure-Python sweep stays as the reference and gives the same entries,
keys and representatives.  For Laurent levels the stream is c * t^e with c
from the residue stream, and the triple of such an element is determined
exactly by e and the residue data of c, so the table derives from the
residue table.

Both rational-function sweeps yield their entries one at a time, and the
sweep stops once the table holds every triple the window allows.  In odd
characteristic the triple of an x other than 0 and +-1 lies in a product of
local sets, one per generator (`local_triple_sets`): at a place, v(x) > 0
makes 1 +- x units, v(x) < 0 gives v(1 +- x) = v(x), and for v(x) = 0 at
most one of 1 +- x is a non-unit, since their sum 2 is a unit; the const
slot follows the leading coefficients.  When the table holds as many such
triples as the product has, with those of x = +-1, nothing later in the
stream is new, so the rest of the block and every later block are skipped
and the entries are the ones the full sweep tables.  F7(u) with [u, u-a]
at l = 3 reaches its 81 triples within the first 433 of the 2,801
denominators of block 4.  The `exhaustive` and `exact` flags do not read
the stop.

Predicates that see x only through the Steinberg wedge cls x ^ cls 1-x,
such as the bilinear C-pair identity and the K2 relation span, need even
less.  The index computes each tabled entry's wedge once, when the entry
enters the table, and stores it on the entry (None when x = 1); the K2
presentation's Steinberg witnesses are these entries.  The index also
keeps, in stream order, the first entry of each distinct nonzero wedge.
A window has few distinct wedges (24 against 796 triples on F7(u) with
[u, u-1, const] at degree 2, and none on F19((t)) with l^n = 9 and
[t, const] at height 9), so those scans run over the wedge list.

A window's ScanIndex owns its memos: the triple table, the wedge list,
the numpy path's class table, which the decomposition sweeps below share,
and the classes of the element stream that the rigid and detect walks
read (`rigid.classified_stream`).
The pure paths take every class from the index's Window
(`Window.fraction_class`), which memoises per-polynomial class data.  The
indexes live for the process in one dict keyed by window, so later
commands reuse the tables and that memo.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffmod import wedge, wedge_pairs
from .fields import (
    CONST,
    PLACE,
    Window,
    format_element,
    laurent_exponents,
    ratfunc_denominators,
    ratfunc_numerators,
)


@dataclass(frozen=True, slots=True)  # tables hold thousands of entries
class ScanEntry:
    key: tuple        # increases along the canonical stream
    cls_x: tuple
    cls_1mx: tuple    # None when x = 1
    cls_1px: tuple    # None when x = -1
    rep: object       # element factory closure or Elt
    wedge: tuple = None  # cls x ^ cls 1-x, set by ScanIndex; None when x = 1

    def element(self):
        return self.rep() if callable(self.rep) else self.rep


class ScanIndex:
    """Per-window table of distinct (cls x, cls 1-x, cls 1+x) triples, each
    entry carrying its Steinberg wedge cls x ^ cls 1-x, and the first entry
    of each distinct nonzero wedge.

    On a rational-function window of odd characteristic, `bound` is the
    number of triples that an x other than 0 and +-1 can have at all (the
    size of the product of `local_triple_sets`).  Once the table holds that
    many, with the triples of x = 1 and x = -1 from block 0, no element of
    K has a triple outside it: `ensure` stops the sweep at that entry, even
    inside a block, and every later block is empty without a sweep.  Every
    entry, key, representative and wedge is the one the full sweep gives.
    The `exhaustive` and `exact` flags do not change: a saturated table is
    exhaustive for all of K, but `exhaustive_classes` does not use that."""

    def __init__(self, window: Window):
        self.window = window
        self.blocks = []          # blocks[s] = new entries at height s
        self.wedge_blocks = []    # wedge_blocks[s] = (wedge, entry), new at s
        self._seen = set()
        self._wedges = set()
        self.class_table = None   # numpy path: _ClassTable
        sets = local_triple_sets(window)
        self.bound = None if sets is None else math.prod(map(len, sets))
        # the element stream of rigid.capped_stream, classes only: one
        # (cls x, cls 1+x) per position, and cls(1 + x_i(1 + x_j)) per
        # position pair (i, j) of the l = 2 clause; each class is one
        # interned tuple, and only stream_row and pair_class write them
        self.stream_classes = []
        self.pair_classes = {}
        self._interned = {}

    def _intern(self, cls):
        return None if cls is None else self._interned.setdefault(cls, cls)

    def stream_row(self, i, x):
        """(cls x, cls 1+x) of the element x at position i of the capped
        stream, classified when i is the first unclassified position; cls x
        is None for x = 0, cls 1+x for x = -1.  The capped stream at a
        height is a prefix of the stream at every larger one, so the list
        serves walks at every height."""
        rows = self.stream_classes
        if i == len(rows):
            w = self.window
            if x.is_zero():
                row = None, w.zero_class()
            else:
                cls_x = w.classify(x)
                row = cls_x, w.classify_one_plus(x, cls_x)
            rows.append(tuple(map(self._intern, row)))
        return rows[i]

    def pair_class(self, i, j, x, y):
        """cls(1 + x(1 + y)) of the stream elements x and y at positions
        i and j, or None when the sum is zero; the product is built once
        per position pair."""
        probes = self.pair_classes
        if (i, j) not in probes:
            one = self.window.model.one()
            probes[i, j] = self._intern(
                self.window.classify_sum(one, x * (one + y)))
        return probes[i, j]

    def saturated(self):
        """Whether the table holds every triple that K realizes."""
        return self.bound is not None and len(self._seen) == self.bound + 2

    def ensure(self, height):
        while len(self.blocks) <= height:
            s = len(self.blocks)
            new, new_wedges = [], []
            for ent in () if self.saturated() else _block_entries(self, s):
                trip = (ent.cls_x, ent.cls_1mx, ent.cls_1px)
                if trip in self._seen:
                    continue
                self._seen.add(trip)
                new.append(ent)
                if ent.cls_1mx is not None:
                    wedge = wedge_of(self.window, ent.cls_x, ent.cls_1mx)
                    object.__setattr__(ent, "wedge", wedge)
                    if any(wedge) and wedge not in self._wedges:
                        self._wedges.add(wedge)
                        new_wedges.append((wedge, ent))
                if self.saturated():
                    break
            self.blocks.append(new)
            self.wedge_blocks.append(new_wedges)
        return self

    def entries(self, height):
        """Table entries through `height`, in stream order."""
        return self._through(self.blocks, height)

    def wedge_entries(self, height):
        """(wedge, entry) for the first entry of each distinct nonzero wedge
        through `height`, in stream order: a subsequence of entries()."""
        return self._through(self.wedge_blocks, height)

    def _through(self, blocks, height):
        height = effective_height(self.window.model, height)
        self.ensure(height)
        return itertools.chain.from_iterable(blocks[:height + 1])


def wedge_of(window, cls_a, cls_b):
    """Coordinates of (class a) ^ (class b) on the e_ij basis (i < j), each
    modulo min(o_i, o_j)."""
    o = window.orders
    return tuple(v % min(o[i], o[j]) for v, (i, j) in
                 zip(wedge(cls_a, cls_b), wedge_pairs(window.rank)))


_INDEX_CACHE = {}

# Degree cap for rational-function levels inside deeper scans: Laurent
# precision and polynomial degree play different roles, and the class
# tables below a Laurent level are complete long before the exponent
# range is; the pinned acceptance heights are (degree 4, precision 8).
RATFUNC_DEGREE_CAP = 4


def effective_height(model, height):
    if model.kind == "ratfunc":
        return min(height, RATFUNC_DEGREE_CAP)
    return height


def scan_index(window: Window, height: int) -> ScanIndex:
    return index_of(window).ensure(effective_height(window.model, height))


def index_of(window) -> ScanIndex:
    """The window's ScanIndex, made on first use and kept for the
    process."""
    idx = _INDEX_CACHE.get(window)
    if idx is None:
        idx = _INDEX_CACHE[window] = ScanIndex(window)
    return idx


def exhaustive_classes(model, height, level) -> bool:
    """Whether the table at this height settles the scanned predicates for
    every x in K, not just the enumerated ones.

    Finite fields enumerate everything.  On a Laurent level, elements split
    as c * t^e * (1 + m); the table realizes every triple of such a product
    once e sweeps all residues (height >= l^n) and the residue level is
    itself exhaustive.  The only elements whose exact triple is not tabled
    are those with zero window class (the +-(1+m) cosets), and on those every
    scanned identity holds trivially, so verdict exactness is unaffected.
    """
    if model.kind == "finite":
        return True
    if model.kind == "laurent":
        return (height >= level.modulus
                and exhaustive_classes(model.base, height, level))
    return False


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
        if _numpy_eligible(index.window):
            return _ratfunc_block_numpy(index, s)
        return _ratfunc_block_entries(index, s)
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
        yield ScanEntry((0, i), cls_x, cls_1mx, cls_1px, x)


# ---------------------------------------------------------------------------
# rational function fields
# ---------------------------------------------------------------------------

def _ratfunc_block_entries(index, s):
    """Block s of the ratfunc table by the pure sweep: every (num, den)
    pair in stream order, yielded one at a time."""
    window = index.window
    model = window.model
    ff = model.ff
    for di, den in enumerate(ratfunc_denominators(ff, s)):
        nums = ratfunc_numerators(ff, s, ff.poly_deg(den) == s)
        for ni, num in enumerate(nums):
            diff = ff.poly_sub(den, num)
            sm = ff.poly_add(den, num)
            cls_x = window.fraction_class(num, den, {})
            cls_1mx = window.fraction_class(diff, den, {}) if diff else None
            cls_1px = window.fraction_class(sm, den, {}) if sm else None
            yield ScanEntry((s, di, ni), cls_x, cls_1mx, cls_1px,
                            _ratfunc_rep(model, num, den))


def _ratfunc_rep(model, num, den):
    return lambda: model.from_poly(num, den)


# ---------------------------------------------------------------------------
# Laurent levels: derive from the residue table
# ---------------------------------------------------------------------------

def _laurent_block_entries(window, s):
    model = window.model
    mod = window.level.modulus
    res_height = effective_height(model.base, s)
    res_index = scan_index(window.base_window(), res_height)

    def lift(rep_res, e):
        def make():
            c = rep_res() if callable(rep_res) else rep_res
            return model.elt((((e, c.data),), None))
        return make

    # residue classes and triples grouped by first-occurrence block
    for sc in range(min(s, res_height) + 1):
        es = laurent_exponents(s, sc)
        for ent in res_index.blocks[sc]:
            for e in es:
                cls_x = window.from_base(ent.cls_x, e % mod)
                if e > 0:
                    cls_1mx = cls_1px = window.zero_class()
                elif e < 0:
                    cls_1mx = cls_1px = cls_x
                else:
                    cls_1mx = None if ent.cls_1mx is None else \
                        window.from_base(ent.cls_1mx, 0)
                    cls_1px = None if ent.cls_1px is None else \
                        window.from_base(ent.cls_1px, 0)
                yield ScanEntry((s, sc) + ent.key + (e,), cls_x,
                                cls_1mx, cls_1px, lift(ent.rep, e))


# ---------------------------------------------------------------------------
# class sweeps for decomposition groups at a place
# ---------------------------------------------------------------------------

def _decomp_place_classes(window, place, h):
    """Window classes of 1 + P*(a/b) over the block max(deg a, deg b) = h
    with P not dividing b; vectorized when the window is numpy-eligible."""
    index = index_of(window)
    if _numpy_eligible(window):
        return _decomp_place_classes_numpy(index, place, h)
    window = index.window  # owns the polynomial class memo
    ff = window.model.ff
    out = set()
    pa_memo = {}
    for bdeg in range(h + 1):
        for b in ff.monic_polys(bdeg):
            if ff.place_multiplicity(b, place) > 0:
                continue
            adegs = range(h + 1) if bdeg == h else (h,)
            for adeg in adegs:
                for a in ff.polys_of_degree(adeg):
                    pa = pa_memo.get(a)
                    if pa is None:
                        pa = pa_memo[a] = ff.poly_mul(place, a)
                    num = ff.poly_add(b, pa)
                    if not num:
                        continue
                    out.add(window.fraction_class(num, b, {}))
    return out


# ---------------------------------------------------------------------------
# numpy kernel: packed class keys and table lookups
# ---------------------------------------------------------------------------

def _numpy_eligible(window):
    model = window.model
    if model.kind != "ratfunc" or model.ff.base is not None:
        return False
    if (math.prod(window.orders) + 1) ** 3 >= 2 ** 63:
        return False  # packed triple keys would overflow int64
    return all(model.ff.poly_deg(g[1]) == 1
               for g in window.gens if g[0] == PLACE)


_GROUP_SPAN = 64  # digit groups take at most this many values


class _ClassTable:
    """Packed window class of every polynomial of degree <= h over F_p.

    The polynomial sum c_i u^i has id sum c_i p^i.  key[id] packs, in
    mixed radix over window.orders, its multiplicity at each listed place
    mod l^n and the dlog of its leading coefficient mod the const order;
    the zero polynomial gets the sentinel `size`.  The class of num/den is
    key[num] minus key[den], component by component (`shift`), and
    _unpack_class_key reads a packed key back as a class vector.

    Sums and differences are formed on ids through groups of g digits with
    p^g <= _GROUP_SPAN: add[b, a] and sub[b, a] are the digitwise b + a and
    b - a of two group values.
    """

    def __init__(self, window, h):
        ff = self.ff = window.model.ff
        p = self.p = ff.p
        self.h = h
        self.orders = window.orders
        self.size = math.prod(self.orders)
        digits = _digits(np.arange(p ** (h + 1)), p, h + 1)
        key = np.zeros(len(digits), dtype=np.int64)
        weight = 1
        for g, order in zip(window.gens, self.orders):
            if g[0] == PLACE:
                part = _root_multiplicity(digits, (-g[1][0]) % p, p)
            else:  # dlog of the leading coefficient (0 for zero)
                deg = h - np.argmax(digits[:, ::-1] != 0, axis=1)
                dlog = np.array([0] + [ff.dlog(c) for c in range(1, p)])
                part = dlog[digits[np.arange(len(digits)), deg]]
            key += part % order * weight
            weight *= order
        key[0] = self.size
        self.key = key
        self.key1 = key * (self.size + 1)
        g = 1
        while p ** (g + 1) <= _GROUP_SPAN:
            g += 1
        self.g = g
        gd = _digits(np.arange(p ** g), p, g)
        place = p ** np.arange(g)
        self.add = (gd[:, None, :] + gd[None, :, :]) % p @ place
        self.sub = (gd[:, None, :] - gd[None, :, :]) % p @ place
        self._grids = {}

    def groups(self, width):
        """(first digit, digit count) of each group of a width-digit id."""
        return [(lo, min(self.g, width - lo))
                for lo in range(0, width, self.g)]

    def group_values(self, poly, width):
        return [_poly_id(poly[lo:lo + w], self.p)
                for lo, w in self.groups(width)]

    def shift(self, keys, kd, sign):
        """keys + sign * kd component by component; the sentinel is fixed."""
        out = np.zeros_like(keys)
        weight = 1
        for order in self.orders:
            out += (keys // weight + sign * (kd // weight)) % order * weight
            weight *= order
        return np.where(keys == self.size, keys, out)

    def grid(self, s, full):
        got = self._grids.get((s, full))
        if got is None:
            got = self._grids[(s, full)] = _NumeratorGrid(self, s, full)
        return got


class _NumeratorGrid:
    """The numerators of block s, either all polynomials of degree <= s
    (`full`, with the zero polynomial at position 0) or those of degree
    exactly s, laid out on the digit groups with the top group slowest:
    position i holds id base + i.

    sub[j] and add[j] hold, for each value of a denominator's group j, the
    place-valued group j of den - num and den + num at every group value
    of the grid; tx is the numerator's key in the top slot of a triple key
    and ni its index in the canonical numerator order."""

    def __init__(self, tab, s, full):
        p = tab.p
        self.base = 0 if full else p ** s
        ids = np.arange(self.base, p ** (s + 1))
        self.sub, self.add = [], []
        for lo, w in tab.groups(s + 1):
            vals = np.arange(p ** w)
            if not full and lo + w == s + 1:
                vals = vals[vals >= p ** (w - 1)]
            self.sub.append(tab.sub[:, vals] * p ** lo)
            self.add.append(tab.add[:, vals] * p ** lo)
        s1 = tab.size + 1
        self.tx = tab.key[ids] * s1 * s1
        if full:
            self.tx[0] = -s1 ** 3  # the zero numerator matches no triple
        self.ni = np.zeros(len(ids), dtype=np.int64)
        for d in range(s + 1) if full else (s,):
            # after the p^d - 1 nonzero polynomials of lower degree
            lower = p ** d - 1 if full else 0
            self.ni[p ** d - self.base:p ** (d + 1) - self.base] = \
                _degree_positions(p, d) + lower


def _degree_positions(p, d):
    """Index of each polynomial of degree d over F_p, in id order, within
    `FiniteField.polys_of_degree(d)`: by the low coefficients in lex order
    with c0 most significant, then by the leading coefficient.  Id order
    has the leading coefficient slowest, so the indexes form a
    (p - 1) x p^d grid over (lead, low id); the low rank is the low id with
    its d digits reversed, built one digit at a time."""
    low = np.arange(p ** d)
    rank = np.zeros_like(low)
    for _ in range(d):
        low, c = np.divmod(low, p)
        rank = rank * p + c
    return (rank * (p - 1) + np.arange(p - 1)[:, None]).ravel()


def _digits(ids, p, width):
    return ids[:, None] // p ** np.arange(width) % p


def _root_multiplicity(digits, a, p):
    """Multiplicity of the root a in each nonzero digit row: the index of
    the first nonzero coefficient of f(u + a)."""
    w = digits.shape[1]
    taylor = np.zeros((w, w), dtype=np.int64)
    for j in range(w):
        for i in range(j + 1):
            taylor[j, i] = math.comb(j, i) * pow(a, j - i, p) % p
    return np.argmax(digits @ taylor % p != 0, axis=1)


def _outer_sum(rows):
    """All sums r_0[i_0] + ... + r_k[i_k], flattened with i_k slowest."""
    acc = rows[-1]
    for r in reversed(rows[:-1]):
        acc = np.add.outer(acc, r).ravel()
    return acc


def _class_table(index, h):
    if index.class_table is None or index.class_table.h < h:
        index.class_table = _ClassTable(index.window, h)
    return index.class_table


# A frame's dense membership table has (size + 1)^3 booleans; past this
# many, a sorted key array and a binary search take its place.  The bound
# caps a block's frames, at most one per denominator class, at 40 x 64 KB.
_DENSE_FRAME_LIMIT = 2 ** 16


class _Frame:
    """The emitted triples of a block, moved into one denominator class's
    frame as unreduced keys in [0, end): a boolean table over every key when
    end <= _DENSE_FRAME_LIMIT, else a sorted array ending in the sentinel
    end.  `merged` counts the emitted arrays marked so far."""

    def __init__(self, end):
        self.dense = end <= _DENSE_FRAME_LIMIT
        self.known = (np.zeros(end, dtype=bool) if self.dense
                      else np.array([end]))
        self.merged = 0

    def mark(self, keys):
        if self.dense:
            self.known[keys] = True
        else:
            self.known = np.sort(np.concatenate([self.known, keys]))

    def misses(self, keys):
        """Positions of the keys not marked; every key must lie in [0, end),
        since numpy reads a negative index from the back."""
        if self.dense:
            return np.flatnonzero(~self.known[keys])
        known = self.known
        return np.flatnonzero(known[np.searchsorted(known, keys)] != keys)


def _ratfunc_block_numpy(index, s):
    """Block s of the ratfunc table: for each denominator in stream order,
    the triples not yet emitted in this block, at their first numerator,
    yielded as each denominator is done.

    Per denominator the ids of den -+ num come from digit-group gathers and
    the unreduced triple key (key[num], key[den - num], key[den + num]) from
    two key gathers.  Instead of reducing every pair by the denominator's
    class, the (few) emitted triples are moved into each denominator class's
    frame once and marked there.  A frame is a boolean table indexed by the
    unreduced key when the window has (size + 1)^3 <= _DENSE_FRAME_LIMIT
    keys, so membership is one gather; on larger windows it is a sorted key
    array, and membership is one searchsorted.  Only the misses are sorted,
    by their numerator's stream index."""
    window = index.window
    model = window.model
    ff = model.ff
    tab = _class_table(index, s)
    s1 = tab.size + 1
    end = s1 ** 3
    emitted = []  # reduced triples, one array per emitting denominator
    frames = {}   # den class -> _Frame
    for di, den in enumerate(ratfunc_denominators(ff, s)):
        grid = tab.grid(s, ff.poly_deg(den) == s)
        kd = int(tab.key[_poly_id(den, tab.p)])
        b = tab.group_values(den, s + 1)
        minus = _outer_sum([col[bj] for col, bj in zip(grid.sub, b)])
        plus = _outer_sum([col[bj] for col, bj in zip(grid.add, b)])
        t = grid.tx + tab.key1[minus] + tab.key[plus]
        frame = frames.get(kd)
        if frame is None:
            frame = frames[kd] = _Frame(end)
        if frame.merged < len(emitted):
            moved = tab.shift(np.concatenate(emitted[frame.merged:]), kd, 1)
            frame.mark((moved[:, 0] * s1 + moved[:, 1]) * s1 + moved[:, 2])
            frame.merged = len(emitted)
        lo = int(grid.base == 0)  # position 0 is the zero numerator
        fresh = frame.misses(t[lo:]) + lo
        if not fresh.size:
            continue
        fresh = fresh[np.argsort(grid.ni[fresh], kind="stable")]
        _, first = np.unique(t[fresh], return_index=True)
        fresh = fresh[np.sort(first)]  # first occurrences, in stream order
        tk = t[fresh]
        trip = tab.shift(np.stack([tk // (s1 * s1), tk // s1 % s1, tk % s1],
                                  axis=1), kd, -1)
        emitted.append(trip)
        for (kx, km, kp), n, pos in zip(trip.tolist(), grid.ni[fresh].tolist(),
                                        fresh.tolist()):
            num = _poly_of_id(grid.base + pos, tab.p)
            yield ScanEntry(
                (s, di, n), _unpack_class_key(window, kx),
                None if km == tab.size else _unpack_class_key(window, km),
                None if kp == tab.size else _unpack_class_key(window, kp),
                _ratfunc_rep(model, num, den))


def _poly_id(poly, p):
    return sum(c * p ** i for i, c in enumerate(poly))


def _poly_of_id(pid, p):
    out = []
    while pid:
        pid, c = divmod(pid, p)
        out.append(c)
    return tuple(out)


def _decomp_place_classes_numpy(index, place, h):
    """The ids of b + P*a come from digit-group gathers against the fixed
    groups of P*a; their keys, reduced by the class of b, are the classes."""
    window = index.window
    ff = window.model.ff
    width = h + len(place)  # digits of P*a
    tab = _class_table(index, width - 1)
    p = tab.p
    a_ids = np.arange(1, p ** (h + 1))
    a_digits = _digits(a_ids, p, h + 1)
    pa = np.zeros((len(a_ids), width), dtype=np.int64)
    for j, c in enumerate(place):
        pa[:, j:j + h + 1] += c * a_digits
    pa %= p
    groups = tab.groups(width)
    pa_groups = [pa[:, lo:lo + w] @ p ** np.arange(w) for lo, w in groups]
    top = a_ids >= p ** h
    keys = set()
    for bdeg in range(h + 1):
        cols = pa_groups if bdeg == h else [g[top] for g in pa_groups]
        for b in ff.monic_polys(bdeg):
            if ff.place_multiplicity(b, place) > 0:
                continue
            kd = int(tab.key[_poly_id(b, p)])
            ids = sum(tab.add[bj][col] * p ** lo for bj, col, (lo, _)
                      in zip(tab.group_values(b, width), cols, groups))
            got = np.unique(tab.key[ids])
            keys.update(tab.shift(got[got < tab.size], kd, -1).tolist())
    return {_unpack_class_key(window, k) for k in keys}


def _unpack_class_key(window, key):
    """The class vector of a packed class key (inverse of the packing)."""
    out = []
    for order in window.orders:
        key, c = divmod(key, order)
        out.append(c)
    return tuple(out)
