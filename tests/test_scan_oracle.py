"""Brute-force oracles for the class-triple tables.

The scan layer never walks raw streams on towers.  A Laurent table is its
base table at t^0: x*t^0 for each base entry x.  A stream element
c*t^e with e > 0 has the triple (cls x, cls 1-x, cls 1+x) = (X, 0, 0),
and one with e < 0 has (X, X, X), since principal units are l^n-th powers
and windows kill -1; every scanned predicate passes at both shapes.  These
tests recompute the triples the slow way, with plain element arithmetic
over the very streams the tables claim to summarize, and check the table
against them; the Laurent verdicts are checked against tables that hold
every exponent (`oracles._laurent_block_entries`)."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import oracles
import valdetect.scans as scans
from valdetect.characters import CharacterGroup
from valdetect.cpairs import c_center, c_pair_direct
from valdetect.errors import ValdetectError, WitnessMismatch
from valdetect.fields import (
    PLACE,
    enumerate_elements,
    format_element,
    parse_field,
    parse_window,
    random_element,
)
from valdetect.milnor import steinberg_scan
from valdetect.rigid import comparable, rigid_complement, \
    valuative_members_mask
from valdetect.scans import effective_height, scan_index


def brute_triple(window, x):
    one = window.model.one()
    om = one - x
    op = one + x
    return (window.classify(x),
            None if om.is_zero() else window.classify(om),
            None if op.is_zero() else window.classify(op))


def brute_triples(window, stream):
    return {brute_triple(window, x) for x in stream if not x.is_zero()}


def index_triples(window, height):
    return {(e.cls_x, e.cls_1mx, e.cls_1px)
            for e in scan_index(window, height).entries(height)}


def test_oracle_finite():
    w = parse_window(parse_field("gf:7"), "{ell=3,n=1,gens=[const]}")
    assert index_triples(w, 0) == brute_triples(
        w, enumerate_elements(w.model, 0))


def test_oracle_ratfunc_heights():
    # block 0 is the sweep; from height 1 on the table closes, so it holds
    # every triple of the stream and, with the closing block, all of K's
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3]}")
    assert index_triples(w, 0) == brute_triples(
        w, enumerate_elements(w.model, 0))
    for h in (1, 2):
        brute = brute_triples(w, enumerate_elements(w.model, h))
        assert brute < index_triples(w, h) == product_triples(w), h


# Laurent windows of the table contract, with the heights of the brute
# force: over a finite field, a tower, a rational-function base, windows
# that omit the top uniformizer or list it away from the front, F19((t))
# at n = 2, and a tower at l = 2, n = 2
LAURENT_WINDOWS = [
    ("laurent(gf:7,t)", "t,const", 3, 1, (0, 1, 3, 5)),
    ("laurent(laurent(gf:7,s),t)", "t,s,const", 3, 1, (0, 2, 4)),
    ("laurent(ratfunc(gf:7,u),t)", "t,u,u-3", 3, 1, (0, 1, 2)),
    ("laurent(laurent(gf:7,s),t)", "s,const", 3, 1, (0, 2, 4)),
    ("laurent(laurent(gf:7,s),t)", "const,s,t", 3, 1, (0, 2, 4)),
    ("laurent(laurent(gf:7,s),t)", "s,t", 3, 1, (0, 2, 4)),
    ("laurent(ratfunc(gf:7,u),t)", "u,t,u-3", 3, 1, (0, 1)),
    ("laurent(ratfunc(gf:7,u),t)", "u-3,u", 3, 1, (0, 1)),
    ("laurent(gf:19,t)", "t,const", 3, 2, (4,)),
    ("laurent(laurent(gf:5,s),t)", "t,s,const", 2, 2, (0, 2)),
]
LAURENT_IDS = [f"{f}-[{g}]-l{ell}n{n}" for f, g, ell, n, _ in LAURENT_WINDOWS]


def _laurent_window(fspec, gens, ell, n):
    return parse_window(parse_field(fspec),
                        f"{{ell={ell},n={n},gens=[{gens}]}}")


def _level_exponents(x):
    """The exponent of a stream monomial at each Laurent level, top first."""
    out = []
    while x.model.kind == "laurent":
        e, x = x.laurent_lead()
        out.append(e)
    return out


def _at_t0(window, trip):
    return tuple(None if cls is None else window.from_base(cls, 0)
                 for cls in trip)


@pytest.mark.parametrize("fspec,gens,ell,n,heights", LAURENT_WINDOWS,
                         ids=LAURENT_IDS)
def test_laurent_table_is_the_base_table_at_t0(fspec, gens, ell, n, heights):
    # the table is x*t^0 for the base table's entries x, key for key; a
    # stream element with e != 0 at some level whose triple is not tabled
    # has (X, 0, 0) or (X, X, X), and every triple with e = 0 at every
    # level is tabled
    w = _laurent_window(fspec, gens, ell, n)
    base = w.base_window()
    zero = w.zero_class()
    for h in heights:
        bh = effective_height(base.model, h)
        assert [(e.key, *_at_t0(w, (e.cls_x, e.cls_1mx, e.cls_1px)),
                 ((0, e.element().data),))
                for e in scan_index(base, bh).entries(bh)] == \
            [(e.key, e.cls_x, e.cls_1mx, e.cls_1px, e.element().data[0])
             for e in scan_index(w, h).entries(h)], h
        table = index_triples(w, h)
        for x in enumerate_elements(w.model, h):
            if x.is_zero():
                continue
            trip = brute_triple(w, x)
            if not any(_level_exponents(x)):
                assert trip in table, (h, x)
            elif trip not in table:
                cls_x, cls_1mx, cls_1px = trip
                assert cls_1mx == cls_1px in (zero, cls_x), (h, x)


def test_laurent_tables_keep_one_block():
    # a Laurent table reads its bottom level's blocks, so no height adds
    # work on a finite field or a tower over one
    for fspec, gens in (("gf:7", "const"), ("laurent(gf:7,t)", "t,const"),
                        ("laurent(laurent(gf:7,s),t)", "t,s,const")):
        w = parse_window(parse_field(fspec), f"{{ell=3,n=1,gens=[{gens}]}}")
        assert len(scan_index(w, 10**9).blocks) == 1, fspec


def _quasi_basis_pairs(full, height):
    """Ordered pairs of a quasi-basis of the full character group and of
    its valuative members."""
    mask = valuative_members_mask(full.elements(), height)
    valuative = CharacterGroup(full.window, tuple(
        f for f, ok in zip(full.elements(), mask) if ok))
    return [pair for group in (full, valuative)
            for pair in itertools.product(
                [f for f, _ in group.member_quasi_basis()], repeat=2)]


def _outcome(fn):
    try:
        return fn()
    except ValdetectError as exc:
        return type(exc).__name__, str(exc)


def _table_payloads(w, height):
    """What the table predicates return on w at `height`, as plain data."""
    full = CharacterGroup.full(w)
    chars = full.elements()
    pairs = _quasi_basis_pairs(full, height)

    def complement(f, g):
        rc = rigid_complement(f, g, height)
        return rc.span, [h.values for h in rc.subgroup.group.elements()]

    def scan(floor):
        sp = steinberg_scan(w, height, stop_at_floor=floor)
        return [(format_element(e.element()), e.wedge)
                for e in sp.witnesses], sp.exhaustive

    return {
        "c_pair_direct": [c_pair_direct(f, g, height).payload()
                          for f in chars for g in chars],
        "valuative_members_mask": valuative_members_mask(chars, height),
        "comparable": [_outcome(lambda: comparable(f, g, height).payload())
                       for f, g in pairs],
        "rigid_complement": [_outcome(lambda: complement(f, g))
                             for f, g in pairs],
        "c_center": sorted(f.values for f in c_center(full, height)
                           .elements()),
        "steinberg_scan": scan(False),
        "steinberg_scan_floor": scan(True),
    }


@pytest.mark.parametrize("fspec,gens,ell,n,heights", LAURENT_WINDOWS,
                         ids=LAURENT_IDS)
def test_t0_tables_give_the_full_lift_verdicts(monkeypatch, fspec, gens,
                                               ell, n, heights):
    # the tables with every base entry at every exponent |e| <= s, built
    # on a fresh index cache, give the same verdicts and witnesses at
    # every height through l^n
    w = _laurent_window(fspec, gens, ell, n)
    heights = range(w.level.modulus + 1)
    monkeypatch.setattr(scans, "_INDEX_CACHE", {})
    monkeypatch.setattr(scans, "_laurent_block_entries",
                        oracles._laurent_block_entries)
    monkeypatch.setattr(scans, "effective_height", oracles.effective_height)
    full_lift = [_table_payloads(w, h) for h in heights]
    assert len(scans.index_of(w).blocks) == w.level.modulus + 1
    monkeypatch.undo()
    assert [_table_payloads(w, h) for h in heights] == full_lift


def test_representatives_realize_their_triples():
    # every stored representative actually has the classes it stands for
    w = parse_window(parse_field("laurent(ratfunc(gf:7,u),t)"),
                     "{ell=3,n=1,gens=[t,u,u-3]}")
    one = w.model.one()
    for ent in scan_index(w, 3).entries(3):
        x = ent.element()
        assert w.classify(x) == ent.cls_x
        om, op = one - x, one + x
        assert (None if om.is_zero() else w.classify(om)) == ent.cls_1mx
        assert (None if op.is_zero() else w.classify(op)) == ent.cls_1px


def test_field_axioms_random():
    rng = random.Random(0xF1E1D)
    for spec in ("gf:9", "ratfunc(gf:7,u)", "laurent(gf:7,t)",
                 "laurent(ratfunc(gf:7,u),t)"):
        model = parse_field(spec)
        exact_division = not spec.startswith("laurent")
        for _ in range(60):
            a = random_element(model, rng)
            b = random_element(model, rng)
            c = random_element(model, rng)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + (b + c) == (a + b) + c
            if exact_division:
                # Laurent division tracks precision, so only the exact
                # backends promise on-the-nose round trips
                assert (a * b) / b == a
                assert a - a == model.zero()


def test_window_generators_are_dual_basis():
    for fspec, wspec in (
        ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}"),
        ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}"),
        ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}"),
        ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}"),
    ):
        model = parse_field(fspec)
        w = parse_window(model, wspec)
        for i in range(w.rank):
            cls = w.classify(w.gen_element(i))
            assert cls == tuple(1 if j == i else 0 for j in range(w.rank))


def _table_rows(window, heights):
    """(key, classes, representative data) of every entry of the sweep, per
    height, with the closing block switched off."""
    import valdetect.scans as scans
    from valdetect.scans import ScanIndex
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scans, "CLOSING_LIMIT", 0)
        idx = ScanIndex(window).ensure(max(heights))
        return [[(e.key, e.cls_x, e.cls_1mx, e.cls_1px, e.element().data)
                 for e in idx.entries(h)] for h in heights]


def _free_count(rows):
    """Triples of x other than +-1 among the rows of one height."""
    return sum(1 for _, _, om, op, _ in rows
               if om is not None and op is not None)


def test_window_over_the_limit_keeps_the_sweep():
    # 9^7 classes: a product of 4,782,969 local triples, far over the
    # closing limit, so the table stays the sweep's
    import valdetect.scans as scans
    model = parse_field("ratfunc(gf:7,u)")
    big = parse_window(model,
                       "{ell=3,n=2,gens=[u,u-1,u-2,u-3,u-4,u-5,u-6]}")
    idx = scans.index_of(big)
    assert idx.bound > scans.CLOSING_LIMIT and not idx.closes
    assert not scans.exhaustive_classes(big, 3)
    assert index_triples(big, 0) == brute_triples(
        big, enumerate_elements(model, 0))


# windows whose sweeps reach their bound at or below `top` with the
# closing block off
SATURATING_WINDOWS = [
    ("ratfunc(gf:3,u)", "{ell=2,n=1,gens=[u,u-1]}", 4),
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1]}", 2),
    ("ratfunc(gf:7,u)", "{ell=2,n=1,gens=[u,u-1]}", 2),
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1,const]}", 3),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[const]}", 2),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1]}", 2),
]


@pytest.mark.parametrize("fspec,wspec,top", SATURATING_WINDOWS)
def test_full_sweep_reaches_the_bound(fspec, wspec, top):
    # the sweep, independent of the local sets, realizes every triple of
    # their product: the product is exactly the set of triples of K
    import valdetect.scans as scans
    w = parse_window(parse_field(fspec), wspec)
    rows = _table_rows(w, [top])
    assert _free_count(rows[0]) == scans.ScanIndex(w).bound


# a degree-two place, a const slot of order 4 (l = 2, n = 2 on gf:9), and
# a non-prime constant field with place and const slots together
BOUND_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u^2+1,u]}", 2),
    ("ratfunc(gf:9,u)", "{ell=2,n=2,gens=[u-1,const]}", 1),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1,const]}", 1),
]


@pytest.mark.parametrize("fspec,wspec,height", BOUND_WINDOWS)
def test_every_triple_lies_in_the_local_sets(fspec, wspec, height):
    import valdetect.scans as scans
    w = parse_window(parse_field(fspec), wspec)
    sets = scans.local_triple_sets(w)
    for g, m, local in zip(w.gens, w.orders, sets):
        if g[0] == PLACE:
            assert len(local) == 4 * m - 3
    bound = math.prod(map(len, sets))
    assert scans.ScanIndex(w).bound == bound
    brute = brute_triples(w, enumerate_elements(w.model, height))
    free = [t for t in brute if None not in t]
    assert len(brute) == len(free) + 2  # x = 1 and x = -1
    for cls_x, cls_1mx, cls_1px in free:
        assert all(comp in local for comp, local in
                   zip(zip(cls_x, cls_1mx, cls_1px), sets))
    rows = _table_rows(w, range(height + 1))
    assert all(_free_count(r) <= bound for r in rows)


def test_even_characteristic_has_no_bound():
    import valdetect.scans as scans
    w = parse_window(parse_field("ratfunc(gf:4,u)"),
                     "{ell=3,n=1,gens=[u,u+1]}")
    assert scans.local_triple_sets(w) is None
    assert scans.ScanIndex(w).bound is None


def _count_denominators(monkeypatch):
    """Denominators drawn from the stream, per block, counted from the
    outside."""
    import valdetect.scans as scans
    real = scans.ratfunc_denominators
    drawn = Counter()

    def counted(ff, s):
        for den in real(ff, s):
            drawn[s] += 1
            yield den

    monkeypatch.setattr(scans, "ratfunc_denominators", counted)
    return drawn


def test_closing_block_ends_block_one(monkeypatch):
    # the sweep ends with block 1, whose closing entries follow the
    # q + 1 = 8 swept denominators; later blocks are empty without a sweep
    import valdetect.scans as scans
    drawn = _count_denominators(monkeypatch)
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3]}")
    idx = scans.ScanIndex(w).ensure(4)
    assert idx.closes
    assert dict(drawn) == {0: 1, 1: 8}
    keys = [e.key for e in idx.blocks[1]]
    assert keys == sorted(keys)
    closing = [e for e in idx.blocks[1] if e.key[:2] == (1, 8)]
    assert closing and [e.key[2] for e in closing] == \
        list(range(len(closing)))
    comps = [tuple(zip(e.cls_x, e.cls_1mx, e.cls_1px)) for e in closing]
    assert comps == sorted(comps)
    assert idx.blocks[2:] == [[], [], []]
    assert len(index_triples(w, 4)) == idx.bound + 2 == 83


def product_triples(window):
    """The triples of K, from the components: the product of the local
    sets, with those of x = 1 and x = -1."""
    import valdetect.scans as scans
    one = window.model.one()
    two = window.classify(one + one)
    out = {(window.zero_class(), None, two), (window.zero_class(), two, None)}
    for comps in itertools.product(*scans.local_triple_sets(window)):
        out.add(tuple(zip(*comps)))
    return out


# the windows of the CRT probe: place and const slots, n = 2, a degree-two
# place, and an extension constant field
PROBE_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=2,gens=[u,u-3,const]}"),
    ("ratfunc(gf:13,u)", "{ell=3,n=1,gens=[u,u-1,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1,const]}"),
]


@pytest.mark.parametrize("fspec,wspec", PROBE_WINDOWS)
def test_every_product_witness_replays(fspec, wspec):
    # one CRT witness per product triple, each replayed through
    # fraction_class; the table from height 1 on is the product
    import valdetect.scans as scans
    w = parse_window(parse_field(fspec), wspec)
    ff = w.model.ff
    for comps in itertools.product(*scans.local_triple_sets(w)):
        num, den = scans.local_witness(w, comps)
        assert scans.fraction_triple(w, num, den) == tuple(zip(*comps)), \
            comps
        assert ff.poly_deg(num) <= 24 and ff.poly_deg(den) <= 24
    assert index_triples(w, 1) == index_triples(w, 3) == product_triples(w)
    assert scans.exhaustive_classes(w, 1)
    assert not scans.exhaustive_classes(w, 0)


def test_witnesses_where_every_degree_one_place_is_listed():
    # F3 has no residue other than 0 and +-1, and on F5 with every
    # degree-1 place listed the denominator is padded with a place of
    # degree 2; a sample of the product, each witness replayed
    import valdetect.scans as scans
    for fspec, wspec in (
            ("ratfunc(gf:3,u)", "{ell=2,n=2,gens=[u,u-1,u-2]}"),
            ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1,u-2,u-3,u-4,const]}")):
        w = parse_window(parse_field(fspec), wspec)
        product = list(itertools.product(*scans.local_triple_sets(w)))
        for comps in random.Random(wspec).sample(product, 300):
            num, den = scans.local_witness(w, comps)
            assert scans.fraction_triple(w, num, den) == \
                tuple(zip(*comps)), comps


def test_closing_representatives_are_built_once_and_replay():
    import valdetect.scans as scans
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3,const]}")
    one = w.model.one()
    closing = [e for e in scan_index(w, 1).entries(1) if e.key[:2] == (1, 8)]
    assert len(closing) > 300
    for ent in closing:
        x = ent.element()
        assert ent.element() is x
        assert (w.classify(x), w.classify(one - x), w.classify(one + x)) \
            == (ent.cls_x, ent.cls_1mx, ent.cls_1px)
    # a representative that does not replay raises instead of returning
    bad = scans._witness_rep(w, ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                             ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(WitnessMismatch):
        bad()


def _direct_tables(w, chars, trips):
    """Over the triples: whether each pair of characters satisfies
    f(1-x)g(x) = f(x)g(1-x) for every x, and whether each character has
    no x with f(x), f(1+x) and f(1+x) - f(x) all nonzero."""
    mod = w.level.modulus
    ends = sorted({(cx, cm) for cx, cm, _ in trips if cm is not None})
    plus = sorted({(cx, cp) for cx, _, cp in trips if cp is not None})

    def values(pairs, side):
        return np.array([[f.evaluate_class(p[side]) for p in pairs]
                         for f in chars], dtype=np.int64)

    fx, fm = values(ends, 0), values(ends, 1)
    pairs = {}
    for i, f in enumerate(chars):
        bad = (fm[i] * fx - fx[i] * fm) % mod
        for j, g in enumerate(chars):
            pairs[f, g] = not bad[j].any()
    px, pp = values(plus, 0), values(plus, 1)
    one_variable = [not ((a != 0) & (b != 0) & (a != b)).any()
                    for a, b in zip(px, pp)]
    return pairs, one_variable


# windows whose verdicts are compared with the product's, with heights
VERDICT_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1,const]}"),
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,const]}"),
]


@pytest.mark.parametrize("fspec,wspec", VERDICT_WINDOWS)
def test_verdicts_equal_those_over_the_product(fspec, wspec):
    # valuative (one-variable), C-pair and C-group verdicts on the closed
    # table against the same conditions over the product's components
    from valdetect.characters import CharacterGroup
    from valdetect.cpairs import c_group, c_pair_direct
    from valdetect.rigid import _first_failures, valuative_members_mask
    w = parse_window(parse_field(fspec), wspec)
    chars = CharacterGroup.full(w).elements()
    pairs, one_variable = _direct_tables(w, chars, product_triples(w))
    for h in (1, 2):
        for (f, g), ok in pairs.items():
            v = c_pair_direct(f, g, h)
            assert v.exact and v.holds() == ok
        fails = _first_failures(w, [(f.values,) for f in chars], h)
        assert [ent is None for ent in fails] == one_variable
        if w.level.ell != 2:
            assert valuative_members_mask(chars, h) == one_variable
        for a, b in itertools.combinations(chars, 2):
            group = CharacterGroup(w, (a, b))
            members = group.elements()
            v = c_group(group, h)
            assert v.exact and v.holds() == all(
                pairs[f, g] for f in members for g in members)
