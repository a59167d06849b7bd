"""Windows listing a degree-two place: exercises the non-vectorized class
sweeps, extension-field residues, and tame symbols with composite residue
fields."""

import pytest

from valdetect.characters import Character, decomp_chars, inertia_chars
from valdetect.cpairs import c_pair_direct, c_pair_ktheory
from valdetect.errors import ZeroElement
from valdetect.fields import (
    ValuationHandle,
    format_element,
    parse_element,
    parse_field,
    parse_window,
    residue_model,
    value_of,
)
from valdetect.milnor import k2_cyclic_order, steinberg_scan, tame_symbol


@pytest.fixture(scope="module")
def F7u():
    return parse_field("ratfunc(gf:7,u)")


@pytest.fixture(scope="module")
def w_quad(F7u):
    # u^2+1 is irreducible over GF(7): -1 is not a square
    return parse_window(F7u, "{ell=3,n=1,gens=[u,u^2+1]}")


def test_window_classes_with_quadratic_place(F7u, w_quad):
    x = parse_element(F7u, "u^3+u")   # u * (u^2+1)
    assert w_quad.classify(x) == (1, 1)
    assert w_quad.classify(parse_element(F7u, "u-3")) == (0, 0)


def test_quadratic_place_valuation_and_residue(F7u):
    v = ValuationHandle.from_steps(F7u, ["u^2+1"])
    assert value_of(v, parse_element(F7u, "(u^2+1)^2*u")) == (2,)
    res = residue_model(v)
    assert res.constant_field().q == 49


def test_tame_at_quadratic_place(F7u, level31):
    place = ValuationHandle.from_steps(F7u, ["u^2+1"])
    ts = tame_symbol(parse_element(F7u, "u"),
                     parse_element(F7u, "u^2+1"), place, level31)
    # the residue of u has multiplicative order 4, hence is a cube in GF(49)
    assert ts.is_trivial()
    ts2 = tame_symbol(parse_element(F7u, "3"),
                      parse_element(F7u, "u^2+1"), place, level31)
    # 3 generates GF(7)^x, and stays a non-cube inside GF(49)
    assert not ts2.is_trivial()


def test_duals_not_cpair_on_quadratic_window(F7u, w_quad):
    f = Character.dual_by_label(w_quad, "u")
    g = Character.dual_by_label(w_quad, "u^2+1")
    d = c_pair_direct(f, g, 2)
    assert d.kind == "NotCPair" and d.exact
    # the degree-1 sweep does not span the wedge module here, so the first
    # violation is a fallback entry past the sweep: x = P for the place
    # P = u^2+1, of degree 2 (the closing block's CRT witness had degree
    # 5); x = 1 - P = 6*u^2 breaks the pair too, and both replay:
    # f(1-x)g(x) != f(x)g(1-x)
    assert format_element(d.witness) == "u^2+1"
    for x in (d.witness, parse_element(F7u, "6*u^2")):
        assert all(F7u.ff.poly_deg(poly) <= 2 for poly in x.data)
        cx, cm = w_quad.classify(x), w_quad.classify(F7u.one() - x)
        assert (f.evaluate_class(cm) * g.evaluate_class(cx)
                - f.evaluate_class(cx) * g.evaluate_class(cm)) % 3
    sp = steinberg_scan(w_quad, 2, stop_at_floor=True)
    assert k2_cyclic_order(sp)[0] == 1
    assert c_pair_ktheory(f, g, sp).kind == "NotCPair"


def test_inertia_and_decomp_at_quadratic_place(F7u, w_quad):
    v = ValuationHandle.from_steps(F7u, ["u^2+1"])
    I = inertia_chars(v, w_quad)
    assert I.labels() == ["u^2+1"]
    D, cert = decomp_chars(v, w_quad, 3)
    assert I <= D and cert.exact


def test_evaluate_zero_propagates(F7u, w_quad):
    f = Character.dual_by_label(w_quad, "u")
    with pytest.raises(ZeroElement):
        f.evaluate(F7u.zero())
