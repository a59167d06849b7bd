"""Brute-force oracles for the class-triple tables.

The scan layer never walks raw streams on towers; it derives the distinct
(cls x, cls 1-x, cls 1+x) triples per block from residue data.  These tests
recompute the triples the slow way, with plain element arithmetic over the
very streams the tables claim to summarize, and compare sets."""

import math
import random
from collections import Counter

import pytest

from valdetect.fields import (
    PLACE,
    enumerate_elements,
    parse_element,
    parse_field,
    parse_window,
    random_element,
)
from valdetect.scans import scan_index


def brute_triples(window, stream):
    one = window.model.one()
    out = set()
    for x in stream:
        if x.is_zero():
            continue
        cls_x = window.classify(x)
        om = one - x
        op = one + x
        out.add((cls_x,
                 None if om.is_zero() else window.classify(om),
                 None if op.is_zero() else window.classify(op)))
    return out


def index_triples(window, height):
    return {(e.cls_x, e.cls_1mx, e.cls_1px)
            for e in scan_index(window, height).entries(height)}


def test_oracle_finite():
    w = parse_window(parse_field("gf:7"), "{ell=3,n=1,gens=[const]}")
    assert index_triples(w, 0) == brute_triples(
        w, enumerate_elements(w.model, 0))


def test_oracle_ratfunc_heights():
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3]}")
    for h in (0, 1, 2):
        assert index_triples(w, h) == brute_triples(
            w, enumerate_elements(w.model, h)), h


def test_oracle_laurent_over_finite():
    w = parse_window(parse_field("laurent(gf:7,t)"),
                     "{ell=3,n=1,gens=[t,const]}")
    for h in (0, 1, 3, 5):
        assert index_triples(w, h) == brute_triples(
            w, enumerate_elements(w.model, h)), h


def test_oracle_laurent_tower():
    w = parse_window(parse_field("laurent(laurent(gf:7,s),t)"),
                     "{ell=3,n=1,gens=[t,s,const]}")
    for h in (0, 2, 4):
        assert index_triples(w, h) == brute_triples(
            w, enumerate_elements(w.model, h)), h


def test_oracle_laurent_over_ratfunc_capped():
    # the table caps rational-function levels at degree 4; at heights <= 4
    # the capped stream and the raw stream coincide, so brute-force over the
    # raw stream is the honest comparison
    w = parse_window(parse_field("laurent(ratfunc(gf:7,u),t)"),
                     "{ell=3,n=1,gens=[t,u,u-3]}")
    for h in (0, 1, 2):
        assert index_triples(w, h) == brute_triples(
            w, enumerate_elements(w.model, h)), h


# windows that omit the top uniformizer or list it away from the front: the
# Laurent table puts residue classes back around the top slot
TOP_LAYOUT_WINDOWS = [
    ("laurent(laurent(gf:7,s),t)", "s,const", (0, 2, 4)),
    ("laurent(laurent(gf:7,s),t)", "const,s,t", (0, 2, 4)),
    ("laurent(laurent(gf:7,s),t)", "s,t", (0, 2, 4)),
    ("laurent(ratfunc(gf:7,u),t)", "u,t,u-3", (0, 1)),
    ("laurent(ratfunc(gf:7,u),t)", "u-3,u", (0, 1)),
]


@pytest.mark.parametrize("fspec,gens,heights", TOP_LAYOUT_WINDOWS)
def test_oracle_top_uniformizer_omitted_or_reordered(fspec, gens, heights):
    w = parse_window(parse_field(fspec), f"{{ell=3,n=1,gens=[{gens}]}}")
    for h in heights:
        assert index_triples(w, h) == brute_triples(
            w, enumerate_elements(w.model, h)), h


def test_oracle_level_two_laurent():
    w = parse_window(parse_field("laurent(gf:19,t)"),
                     "{ell=3,n=2,gens=[t,const]}")
    assert index_triples(w, 4) == brute_triples(
        w, enumerate_elements(w.model, 4))


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


def _table_rows(window, heights, pure, stop=True):
    """(key, classes, representative data) of every entry, per height;
    with stop=False the sweep runs to the end of every block."""
    import valdetect.scans as scans
    from valdetect.scans import ScanIndex
    with pytest.MonkeyPatch.context() as mp:
        if pure:
            mp.setattr(scans, "_numpy_eligible", lambda window: False)
        if not stop:
            mp.setattr(scans, "local_triple_sets", lambda window: None)
        idx = ScanIndex(window).ensure(max(heights))
        return [[(e.key, e.cls_x, e.cls_1mx, e.cls_1px, e.element().data)
                 for e in idx.entries(h)] for h in heights]


def _free_count(rows):
    """Triples of x other than +-1 among the rows of one height."""
    return sum(1 for _, _, om, op, _ in rows
               if om is not None and op is not None)


def test_pure_and_vectorized_ratfunc_paths_agree():
    # the pure-Python sweep is the reference for the numpy kernel: same
    # entries, keys, classes and first-in-stream representatives
    model = parse_field("ratfunc(gf:7,u)")
    w = parse_window(model, "{ell=3,n=1,gens=[u,u-3,const]}")
    assert _table_rows(w, (0, 1, 2), True) == _table_rows(w, (0, 1, 2), False)
    # and the decomposition class sweeps agree too
    _assert_decomp_paths_agree(w, model.ff.poly_from_ints([0, 1]), 2)


@pytest.mark.parametrize("fspec,wspec,top,places", [
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1,const]}", 3, ()),
    # decomposition places u - 1 and u^2 + 2, neither listed
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-2]}", 3, ([4, 1], [2, 0, 1])),
    ("ratfunc(gf:3,u)", "{ell=2,n=1,gens=[u,u-1]}", 4, ()),
    # 64 classes: frames past the dense-table bound take the sorted lookup;
    # decomposition place u - 3
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,u-2]}", 2, ([2, 1],)),
])
def test_pure_and_vectorized_paths_agree_to_top_degree(fspec, wspec, top,
                                                       places):
    # every height up to the top table degree, where the kernel's digit
    # groups and numerator grids are widest
    model = parse_field(fspec)
    w = parse_window(model, wspec)
    heights = range(top + 1)
    assert _table_rows(w, heights, True) == _table_rows(w, heights, False)
    for place in places:
        _assert_decomp_paths_agree(w, model.ff.poly_from_ints(place), 2)


def test_frame_lookup_sides_of_the_dense_bound():
    # the windows above cover both frame lookups of the numpy kernel
    import valdetect.scans as scans
    model = parse_field("ratfunc(gf:5,u)")
    for wspec, dense in (("{ell=2,n=2,gens=[u,u-2]}", True),
                         ("{ell=2,n=2,gens=[u,u-1,u-2]}", False)):
        size = math.prod(parse_window(model, wspec).orders)
        assert scans._Frame((size + 1) ** 3).dense == dense


@pytest.mark.parametrize("p", [3, 5, 7])
def test_numerator_positions_follow_the_stream(p):
    # the grid computes each numerator's stream index from its digits; the
    # stream itself is the oracle, at every degree the tables reach
    import valdetect.scans as scans
    from valdetect.fields import ratfunc_numerators
    window = parse_window(parse_field(f"ratfunc(gf:{p},u)"),
                          "{ell=2,n=1,gens=[u]}")
    top = scans.RATFUNC_DEGREE_CAP
    tab = scans._ClassTable(window, top)
    for s in range(top + 1):
        for full in (True, False):
            grid = scans._NumeratorGrid(tab, s, full)
            stream = list(ratfunc_numerators(tab.ff, s, full))
            got = [int(grid.ni[scans._poly_id(f, p) - grid.base])
                   for f in stream]
            assert got == list(range(len(stream))), (s, full)


def _assert_decomp_paths_agree(window, place, top):
    import valdetect.scans as scans
    for h in range(top + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scans, "_numpy_eligible", lambda window: False)
            pure = scans._decomp_place_classes(window, place, h)
        assert pure == scans._decomp_place_classes(window, place, h), h


def test_packed_keys_fit_int64_or_pure_path():
    import valdetect.scans as scans
    model = parse_field("ratfunc(gf:7,u)")
    small = parse_window(model, "{ell=3,n=2,gens=[u,u-1,u-2,u-3,u-4,u-5]}")
    big = parse_window(model,
                       "{ell=3,n=2,gens=[u,u-1,u-2,u-3,u-4,u-5,u-6]}")
    assert scans._numpy_eligible(small)
    # 9^7 classes: triple keys past 2^63, so the pure path builds the table
    assert not scans._numpy_eligible(big)
    assert index_triples(big, 0) == brute_triples(
        big, enumerate_elements(model, 0))


# windows whose tables reach their bound at or below `top`, each compared at
# every height up to it; the unstopped degree-4 sweep of gf:13 would walk
# about 10^10 pairs, so that window stops at degree 3
SATURATING_WINDOWS = [
    *[("ratfunc(gf:7,u)", f"{{ell=3,n=1,gens=[u,u-{a}]}}", 4, False)
      for a in range(1, 7)],
    ("ratfunc(gf:3,u)", "{ell=2,n=1,gens=[u,u-1]}", 4, False),
    ("ratfunc(gf:13,u)", "{ell=2,n=1,gens=[u,u-1]}", 3, False),
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1,const]}", 4, False),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[const]}", 4, False),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1]}", 2, True),
]


@pytest.mark.parametrize("fspec,wspec,top,pure", SATURATING_WINDOWS)
def test_stopped_sweep_matches_the_full_sweep(fspec, wspec, top, pure):
    # the full sweep is the reference for the stop: same rows at every
    # height, and its table never holds more triples than the bound
    import valdetect.scans as scans
    w = parse_window(parse_field(fspec), wspec)
    assert scans._numpy_eligible(w) != pure
    heights = range(top + 1)
    stopped = _table_rows(w, heights, pure)
    full = _table_rows(w, heights, pure, stop=False)
    assert stopped == full
    idx = scans.ScanIndex(w).ensure(top)
    assert idx.saturated() and _free_count(full[-1]) == idx.bound


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
    rows = _table_rows(w, range(height + 1), False, stop=False)
    assert all(_free_count(r) <= bound for r in rows)


def test_even_characteristic_has_no_bound():
    import valdetect.scans as scans
    w = parse_window(parse_field("ratfunc(gf:4,u)"),
                     "{ell=3,n=1,gens=[u,u+1]}")
    assert scans.local_triple_sets(w) is None
    assert scans.ScanIndex(w).bound is None


def test_saturated_block_reads_few_denominators(monkeypatch):
    # work counted from the outside: the denominators block 4 draws from
    # the stream before its table is full
    import valdetect.scans as scans
    real = scans.ratfunc_denominators
    drawn = Counter()

    def counted(ff, s):
        for den in real(ff, s):
            drawn[s] += 1
            yield den

    monkeypatch.setattr(scans, "ratfunc_denominators", counted)
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3]}")
    idx = scans.ScanIndex(w).ensure(4)
    assert idx.saturated()
    assert sum(1 for _ in real(w.model.ff, 4)) == 2801
    assert 0 < drawn[4] < 500
    idx.ensure(5)
    assert idx.blocks[5] == [] and 5 not in drawn
