"""Linear verdicts from the span prefix.

C-pair, C-group, C-center, K2-order and CL-frame verdicts read the Steinberg
wedges cls x ^ cls 1-x only through their span.  Where that span is known
in closed form (`scans.wedge_span`: odd-characteristic rational-function
windows and Laurent towers over them), they read the shortest stream prefix
whose wedges span it (`ScanIndex.span_prefix`) instead of the class table.
These tests hold that prefix and its verdicts against every wedge of the
table (`oracles.table_kernel` and the verdicts built on it), and check that
the prefix leaves the rest of the table unbuilt."""

import itertools

import pytest

import oracles
import valdetect.scans as scans
from valdetect.central import frame_from_k2
from valdetect.characters import Character, CharacterGroup
from valdetect.cli import main
from valdetect.cpairs import c_center, c_group, c_pair_direct
from valdetect.fields import format_element, parse_field, parse_window
from valdetect.milnor import k2_cyclic_order, steinberg_scan
from valdetect.scans import index_of, wedge_span

# every closing window of test_scan_oracle.py: place and const slots, n = 2,
# a degree-two place on either side, extension constant fields, l = 2
# with const orders below l^n, and F3(u), which has no residue other than
# 0 and +-1
CLOSING_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=2,gens=[u,u-3,const]}"),
    ("ratfunc(gf:13,u)", "{ell=3,n=1,gens=[u,u-1,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u^2+1,u]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1,const]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=2,gens=[u-1,const]}"),
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,const]}"),
    ("ratfunc(gf:3,u)", "{ell=2,n=1,gens=[u,u-1]}"),
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1]}"),
    ("ratfunc(gf:7,u)", "{ell=2,n=1,gens=[u,u-1]}"),
    ("ratfunc(gf:5,u)", "{ell=2,n=1,gens=[u,u-1,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[const]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=1,gens=[u,u-1]}"),
]
CLOSING_IDS = [f"{f[8:-3]}-{w[1:-1]}" for f, w in CLOSING_WINDOWS]
F19_RANK4 = ("ratfunc(gf:19,u)", "{ell=3,n=2,gens=[u,u-1,u-2,const]}")


def _window(fspec, wspec):
    return parse_window(parse_field(fspec), wspec)


def _tower(fspec, wspec):
    """The Laurent level over a window: its field with t on top, and t in
    front of its generators."""
    return _window(f"laurent({fspec},t)", wspec.replace("gens=[", "gens=[t,"))


def _prefix_span(w):
    return oracles.wedge_span_form(w, [e.wedge
                                       for e in index_of(w).span_prefix()])


@pytest.mark.parametrize("fspec,wspec", CLOSING_WINDOWS, ids=CLOSING_IDS)
def test_prefix_spans_what_the_table_spans(fspec, wspec):
    # the prefix's wedges span what every wedge of the closed table spans,
    # the whole module, and so do those of the tower over the window
    w = _window(fspec, wspec)
    assert index_of(w).closes and wedge_span(w)
    full = oracles.wedge_span_form(w, [
        tuple(int(c == d) for d in range(len(index_of(w).wedge_moduli)))
        for c in range(len(index_of(w).wedge_moduli))])
    assert _prefix_span(w) == oracles.table_wedge_span(w, 1) == full
    t = _tower(fspec, wspec)
    assert wedge_span(t)
    assert _prefix_span(t) == oracles.table_wedge_span(t, 1)
    # the tower's prefix is the window's at t^0: the same keys, and no
    # wedge coordinate of t
    assert [e.key for e in index_of(t).span_prefix()] == \
        [e.key for e in index_of(w).span_prefix()]


def test_prefix_spans_the_unclosed_rank_four_table():
    # F19(u) rank 4 at n = 2 does not close; its prefix spans what its
    # table through height 1 spans, and that is the whole module
    w = _window(*F19_RANK4)
    assert not index_of(w).closes
    assert _prefix_span(w) == oracles.table_wedge_span(w, 1)
    assert len(_prefix_span(w)) == len(index_of(w).wedge_moduli)


def _subgroups(w):
    """The full group, each <d_i> and each <d_i, d_j> of generator duals."""
    d = [Character.dual(w, i) for i in range(w.rank)]
    yield CharacterGroup.full(w)
    for x in d:
        yield CharacterGroup(w, (x,))
    for x, y in itertools.combinations(d, 2):
        yield CharacterGroup(w, (x, y))


def _replays(w, f, g, x):
    cx, cm = w.classify(x), w.classify(w.model.one() - x)
    return (f.evaluate_class(cm) * g.evaluate_class(cx)
            - f.evaluate_class(cx) * g.evaluate_class(cm)) % w.level.modulus


def _assert_linear_verdicts_match(w, heights):
    """c_pair_direct over the full group, c_group and c_center on
    _subgroups, the K2 order and the frame relations, against the table's
    verdicts; the witnesses are the table's where the prefix is a stream
    prefix of it, and replay where fallback entries complete it."""
    index = index_of(w)
    chars = CharacterGroup.full(w).elements()
    for h in heights:
        # sweep keys have a denominator index <= q; fallback keys do not
        in_table = all(e.key[1] <= w.model.bottom().ff.q
                       for e in index.span_prefix())
        for f, g in itertools.combinations_with_replacement(chars, 2):
            got, ref = c_pair_direct(f, g, h), oracles.c_pair_by_table(f, g, h)
            assert (got.kind, got.exact) == (ref.kind, ref.exact)
            if in_table:
                assert got.payload() == ref.payload()
            elif not got.holds():
                assert _replays(w, f, g, got.witness)
        for group in _subgroups(w):
            got, ref = c_group(group, h), oracles.c_group_by_table(group, h)
            assert (got.kind, got.exact, got.pair) == \
                (ref.kind, ref.exact, ref.pair)
            assert c_center(group, h) == oracles.c_center_by_table(group, h)
        sp, ref = steinberg_scan(w, h), oracles.steinberg_by_table(w, h)
        assert sp.exhaustive and ref.exhaustive
        if w.rank == 2:
            assert k2_cyclic_order(sp) == k2_cyclic_order(ref)
        if w.mu_2ln_ok() and all(o == w.level.modulus for o in w.orders):
            assert frame_from_k2(w, sp).relations == \
                frame_from_k2(w, ref).relations


@pytest.mark.parametrize("fspec,wspec", CLOSING_WINDOWS, ids=CLOSING_IDS)
def test_linear_verdicts_equal_the_table_verdicts(fspec, wspec):
    _assert_linear_verdicts_match(_window(fspec, wspec), range(1, 5))


@pytest.mark.parametrize("fspec,wspec", CLOSING_WINDOWS[:2] + [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}"),
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,const]}")])
def test_tower_verdicts_equal_the_table_verdicts(fspec, wspec):
    _assert_linear_verdicts_match(_tower(fspec, wspec), range(1, 5))


def test_quadratic_place_prefix_takes_fallback_entries():
    # the degree-1 sweep misses e_12 on [u, u^2+1]: the prefix is read to
    # the closing block's head and completed by x = P, whose entry lies
    # past the sweep; the closing block still follows the sweep in the
    # table once the rigid scans ask for it
    w = _window("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}")
    prefix = index_of(w).span_prefix()
    assert [format_element(e.element()) for e in prefix] == ["u^2+1"]
    assert prefix[0].key == (1, 9, 0)
    closing = [e for e in index_of(w).entries(1) if e.key[:2] == (1, 8)]
    assert closing and all(e not in prefix for e in closing)


@pytest.mark.parametrize("fspec,wspec", [
    ("ratfunc(gf:4,u)", "{ell=3,n=1,gens=[u,u+1]}"),
    ("ratfunc(gf:4,u)", "{ell=3,n=1,gens=[u,u+1,const]}"),
    ("ratfunc(gf:4,u)", "{ell=3,n=2,gens=[u,u+1]}")])
def test_characteristic_two_keeps_the_table(fspec, wspec):
    # no closed-form span in characteristic 2: every verdict is the
    # table's, payload for payload, bounded where the table is
    w = _window(fspec, wspec)
    assert not wedge_span(w)
    chars = CharacterGroup.full(w).elements()
    for h in (0, 1, 2):
        for f, g in itertools.combinations_with_replacement(chars, 2):
            assert c_pair_direct(f, g, h).payload() == \
                oracles.c_pair_by_table(f, g, h).payload()
        for group in _subgroups(w):
            assert c_group(group, h).payload() == \
                oracles.c_group_by_table(group, h).payload()
            assert c_center(group, h) == oracles.c_center_by_table(group, h)
        sp, ref = steinberg_scan(w, h), oracles.steinberg_by_table(w, h)
        assert sp.witnesses == ref.witnesses
        assert sp.exhaustive == ref.exhaustive is False


def test_rank_four_verdicts_build_no_block_past_the_prefix(monkeypatch,
                                                          capsys):
    # cpair, cgroup and ccenter on F19(u) rank 4 at n = 2 are exact at
    # heights 2-4 and table nothing past the prefix's last witness: block
    # 1 stays open there, and no later block exists
    monkeypatch.setattr(scans, "_INDEX_CACHE", {})
    fspec, wspec = F19_RANK4
    common = ["--field", fspec, "--window", wspec]
    for h in ("2", "3", "4"):
        for argv in (["cpair", *common, "--f", "u", "--g", "u-1"],
                     ["cgroup", *common, "--gens", "u;u-1;u-2;const"],
                     ["ccenter", *common]):
            assert main([*argv, "--height", h]) == 0
            out = capsys.readouterr().out
            assert '"exact":false' not in out
            if argv[0] != "ccenter":
                assert '"exact":true' in out
    index = index_of(_window(fspec, wspec))
    prefix = index.span_prefix()
    assert len(index.blocks) == 2 and index._rest is not None
    assert index.blocks[1][-1] is prefix[-1]
    assert len(index.blocks[0]) + len(index.blocks[1]) == 55
    # a later table read goes on from the prefix: block 1 ends as the full
    # sweep's, and the prefix's entries are the table's own
    full = scans.ScanIndex(index.window).ensure(1).blocks
    assert [e.key for e in index.ensure(1).blocks[1]] == \
        [e.key for e in full[1]]
    assert all(any(e is t for t in index.blocks[1]) for e in prefix)
