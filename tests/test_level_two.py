"""Level n = 2 exercises: nontrivial order drops, reductions from level 2,
and classification stability across levels.  Backends use GF(19) so that
2 * 3^2 divides q - 1 and every generator class has full order 9."""

import itertools

import pytest

from valdetect.characters import (
    Character,
    CharacterGroup,
    decomp_chars,
    inertia_chars,
)
from valdetect.cpairs import (
    c_pair_direct,
    c_pair_ktheory,
    order_drop,
    quasi_independent,
)
from valdetect.detect import class_membership, detect_from_cgroup
from valdetect.fields import (
    ValuationHandle,
    parse_element,
    parse_field,
    parse_window,
)
from valdetect.milnor import k2_cyclic_order, k2_tame_lower_bound, \
    steinberg_scan
from oracles import rigid_qualifying


@pytest.fixture(scope="module")
def F19t():
    return parse_field("laurent(gf:19,t)")


@pytest.fixture(scope="module")
def w19t(F19t):
    return parse_window(F19t, "{ell=3,n=2,gens=[t,const]}")


@pytest.fixture(scope="module")
def F19u():
    return parse_field("ratfunc(gf:19,u)")


@pytest.fixture(scope="module")
def w19u(F19u):
    return parse_window(F19u, "{ell=3,n=2,gens=[u,u-1]}")


def test_k2_level_two_laurent(w19t):
    sp = steinberg_scan(w19t, 9)
    assert sp.exhaustive
    order, c = k2_cyclic_order(sp)
    assert (order, c) == (9, 0)
    assert k2_tame_lower_bound(w19t) == 9


def test_direct_vs_ktheory_level_two_laurent(w19t):
    # exhaustive agreement including characters of order 3 (nonzero drops)
    sp = steinberg_scan(w19t, 9)
    ft = Character.dual_by_label(w19t, "t")
    fc = Character.dual_by_label(w19t, "const")
    probes = [
        (ft, fc), (ft.scale(3), fc), (ft, fc.scale(3)),
        (ft.scale(3), fc.scale(3)), (ft + fc, fc.scale(3)),
        (ft.scale(2), fc.scale(6)),
    ]
    for f, g in probes:
        if not quasi_independent(f, g):
            continue
        d = c_pair_direct(f, g, 9)
        k = c_pair_ktheory(f, g, sp)
        assert d.exact and d.holds() == k.holds()


def test_order_drop_bookkeeping(w19t):
    ft = Character.dual_by_label(w19t, "t")
    assert order_drop(ft) == 0
    assert order_drop(ft.scale(3)) == 1
    assert order_drop(Character.zero(w19t)) == 2


def test_pinned_not_cpair_with_drops(w19u):
    # duals of u and u-1: the symbol dies at z = u, so c = 2; scaling f by 3
    # raises a to 1 and the verdict stays negative since c > a + b
    f = Character.dual_by_label(w19u, "u")
    g = Character.dual_by_label(w19u, "u-1")
    sp = steinberg_scan(w19u, 2, stop_at_floor=True)
    assert k2_cyclic_order(sp) == (1, 2)
    for pair in ((f, g), (f.scale(3), g), (f, g.scale(3))):
        d = c_pair_direct(*pair, 2)
        k = c_pair_ktheory(pair[0], pair[1], sp)
        assert d.kind == "NotCPair" and k.kind == "NotCPair"
    # scaling both to order 3 pushes a + b to 2 = c: the identity holds mod 9
    d33 = c_pair_direct(f.scale(3), g.scale(3), 2)
    k33 = c_pair_ktheory(f.scale(3), g.scale(3), sp)
    assert d33.holds() and k33.holds()


def test_direct_vs_ktheory_sampled_level_two_ratfunc(w19u):
    sp = steinberg_scan(w19u, 2)
    els = CharacterGroup.full(w19u).elements()
    sampled = els[1::7]
    checked = 0
    for f, g in itertools.combinations(sampled, 2):
        if f.is_zero() or g.is_zero() or not quasi_independent(f, g):
            continue
        d = c_pair_direct(f, g, 2)
        k = c_pair_ktheory(f, g, sp)
        if d.kind == "NotCPair" or k.kind == "NotCPair":
            # negative verdicts are certain on both routes and must agree
            assert d.kind == k.kind == "NotCPair"
        checked += 1
    assert checked >= 20


def test_detect_cgroup_level_two_to_one(F19t, w19t):
    # a C-group at level 2 detected down to level 1 recovers the t-adic data
    v = ValuationHandle.from_steps(F19t, ["t"])
    D2, cert = decomp_chars(v, w19t)
    assert cert.exact
    rep = detect_from_cgroup(D2, 1, 9, aggressive=True)
    assert rep.detected_group == inertia_chars(v, w19t.at_level(1))
    assert rep.quotient_cyclic


def test_classification_stable_across_levels():
    m = parse_field("laurent(laurent(gf:19,s),t)")
    w = parse_window(m, "{ell=3,n=2,gens=[t,s,const]}")
    vt = ValuationHandle.from_steps(m, ["t"])
    comp = ValuationHandle.from_steps(m, ["t", "s"])
    for n in (1, 2):
        cm_t = class_membership(vt, w, n, 6)
        cm_c = class_membership(comp, w, n, 6)
        assert not cm_t.in_w
        assert cm_c.in_w and not cm_c.in_v


def test_inertia_decomposition_pairs_level_two(F19t, w19t):
    v = ValuationHandle.from_steps(F19t, ["t"])
    I = inertia_chars(v, w19t)
    D, _ = decomp_chars(v, w19t)
    for i in I.elements()[:12]:
        for d in D.elements()[:12]:
            assert c_pair_direct(i, d, 9).holds()


def test_aggressive_clamps_intermediate_level(F19t, w19t):
    # with the lift forced to N = n = 2 the staircase level M1(2) = 3 is out
    # of reach; the pipeline clamps it and says so
    v = ValuationHandle.from_steps(F19t, ["t"])
    D2, _ = decomp_chars(v, w19t)
    rep = detect_from_cgroup(D2, 2, 9, aggressive=True)
    assert any("clamped" in note for note in rep.notes)
    assert rep.detected_group == inertia_chars(v, w19t)


def test_reduce_level_refuses_to_raise(w19t):
    from valdetect.errors import LevelMismatch
    f = Character.dual_by_label(w19t, "t")
    with pytest.raises(LevelMismatch):
        f.reduce_level(3)


def test_rigid_complement_level_two(F19t, w19t):
    from valdetect.errors import MainClaimViolated
    from valdetect.rigid import comparable, rigid_complement
    ft = Character.dual_by_label(w19t, "t")
    fc = Character.dual_by_label(w19t, "const")
    rc = rigid_complement(ft, fc, 9)
    # the constants qualify and generate a full order-9 cyclic complement
    assert rigid_qualifying(ft, fc, 9)[1] is not None
    assert not rc.is_trivial()
    # a non-C-pair at level 2 blows the cyclicity certificate
    F19u = parse_field("ratfunc(gf:19,u)")
    wu = parse_window(F19u, "{ell=3,n=2,gens=[u,u-1]}")
    fu = Character.dual_by_label(wu, "u")
    fu1 = Character.dual_by_label(wu, "u-1")
    with pytest.raises(MainClaimViolated):
        rigid_complement(fu, fu1, 2)


def test_detect_from_cpair_level_two(F19t, w19t):
    from valdetect.detect import detect_from_cpair
    ft = Character.dual_by_label(w19t, "t")
    fc = Character.dual_by_label(w19t, "const")
    rep = detect_from_cpair(ft, fc, 2, 9, aggressive=True)
    assert rep.inertia_labels == ["t"]
    assert rep.quotient_orders == [9]
    assert all(rep.containments.values())


def test_comparable_level_two():
    from valdetect.rigid import comparable
    m = parse_field("laurent(laurent(gf:19,s),t)")
    w = parse_window(m, "{ell=3,n=2,gens=[t,s,const]}")
    ft = Character.dual_by_label(w, "t")
    fs = Character.dual_by_label(w, "s")
    assert comparable(ft, fs, 9).holds()
