"""The l = 2 regime at level 2 over GF(9) (mu_8 is available: q - 1 = 8).

This is where the square-root bookkeeping lives: the power map is genuinely
quadratic, beta = 2*pi is still linear, the valuative test needs the
two-variable clause, and the Bockstein columns involve halved exponents."""

import itertools

import pytest

from valdetect.characters import Character, CharacterGroup, decomp_chars, \
    inertia_chars
from valdetect.cpairs import c_pair_direct, c_pair_ktheory, quasi_independent
from valdetect.central import (
    AbelianElement,
    canonical_omega,
    cl_center,
    cl_pair,
    frame_from_k2,
)
from valdetect.cpairs import c_center
from valdetect.errors import NoRootsOfUnity
from valdetect.fields import (
    ValuationHandle,
    format_element,
    parse_element,
    parse_field,
    parse_window,
)
from valdetect.milnor import k2_cyclic_order, k2_tame_lower_bound, \
    steinberg_scan
from valdetect.rigid import MultSubgroup, valuative_test


@pytest.fixture(scope="module")
def F9t():
    return parse_field("laurent(gf:9,t)")


@pytest.fixture(scope="module")
def w92(F9t):
    return parse_window(F9t, "{ell=2,n=2,gens=[t,const]}")


def test_window_orders_mu(w92):
    assert w92.orders == (4, 4)
    assert w92.mu_2ln_ok()


def test_k2_at_two(w92):
    sp = steinberg_scan(w92, 6)
    assert sp.exhaustive
    order, c = k2_cyclic_order(sp)
    assert order == k2_tame_lower_bound(w92) == 4
    assert c == 0


def test_valuative_with_pair_clause_level_two(w92):
    ft = Character.dual_by_label(w92, "t")
    H = MultSubgroup(CharacterGroup(w92, (ft,)))
    verdict = valuative_test(H, 4)
    assert verdict.holds()
    assert "one_plus_x_one_plus_y" in verdict.conditions


def test_direct_vs_ktheory_at_two(w92):
    sp = steinberg_scan(w92, 6)
    chars = CharacterGroup.full(w92).elements()
    checked = 0
    for f, g in itertools.combinations(chars, 2):
        if f.is_zero() or g.is_zero() or not quasi_independent(f, g):
            continue
        d = c_pair_direct(f, g, 6)
        k = c_pair_ktheory(f, g, sp)
        assert d.exact and d.holds() == k.holds()
        checked += 1
    assert checked > 10


def test_cl_matches_c_at_two_level_two(w92):
    sp = steinberg_scan(w92, 6)
    omega = canonical_omega(w92)
    frame = frame_from_k2(w92, sp, omega)
    chars = CharacterGroup.full(w92).elements()
    for f, g in itertools.combinations_with_replacement(chars, 2):
        cv = c_pair_direct(f, g, 6).holds()
        clv = cl_pair(AbelianElement.from_character(frame, f),
                      AbelianElement.from_character(frame, g))
        assert cv == clv, (f.label(), g.label())


def test_cl_center_matches_c_center_at_two(w92):
    sp = steinberg_scan(w92, 6)
    frame = frame_from_k2(w92, sp)
    full = CharacterGroup.full(w92)
    cc = {c.values for c in c_center(full, 6).elements()}
    clc = {a.coeffs for a in cl_center(
        [AbelianElement.from_character(frame, c) for c in full.gens], frame)}
    assert cc == clc


def test_inertia_decomposition_pairs_at_two(F9t, w92):
    v = ValuationHandle.from_steps(F9t, ["t"])
    I = inertia_chars(v, w92)
    D, cert = decomp_chars(v, w92)
    assert cert.exact
    for i in I.elements():
        for d in D.elements():
            assert c_pair_direct(i, d, 6).holds()


def test_no_roots_of_unity_guard():
    # GF(7) has no mu_4, so l = 2 frames are refused
    F7u = parse_field("ratfunc(gf:7,u)")
    w = parse_window(F7u, "{ell=2,n=1,gens=[u,u-3]}")
    sp = steinberg_scan(w, 1)
    with pytest.raises(NoRootsOfUnity):
        frame_from_k2(w, sp)
