"""An independent referee for the window class rule.

The expected class of an element is read off the factorization of its
bottom numerator and denominator (`FiniteField.factor`), the Laurent
leading exponents, and the discrete log of lc(num)/lc(den) in the cyclic
group F_q^x / (+-1, l^n-th powers), whose order is counted here by brute
force.  None of it goes through `place_multiplicity` or the window's own
orders, so it checks `Window.classify`, `classify_sum`,
`fraction_class` and the leading terms of `leading_term` from outside.
"""

import random

import pytest

from valdetect.errors import ZeroElement
from valdetect.fields import (
    CONST,
    PLACE,
    UNIF,
    leading_term,
    monomial,
    parse_element,
    parse_field,
    parse_window,
    random_element,
)

from oracles import capped_stream

ORACLE_WINDOWS = [
    ("gf:7", "{ell=3,n=1,gens=[const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=2,gens=[u,u-3,const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u^2+1]}"),
    ("ratfunc(gf:9,u)", "{ell=2,n=2,gens=[u,u+1,const]}"),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}"),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}"),
]


def _const_order(ff, modulus):
    """|F_q^x / <-1, y^modulus>|, counted on the field elements."""
    units = [c for c in ff.elements() if c]
    kernel = {ff.pow(y, modulus) for y in units}
    kernel |= {ff.neg(k) for k in kernel}
    return len(units) // len(kernel)


def expected_fraction_class(window, num, den, exps):
    ff = window.model.constant_field()
    mod = window.level.modulus
    fn, fd = ff.factor(num), ff.factor(den)
    const = ff.dlog(ff.mul(num[-1], ff.inv(den[-1])))
    out = []
    for g in window.gens:
        if g[0] == UNIF:
            out.append(exps.get(g[1], 0) % mod)
        elif g[0] == PLACE:
            out.append((fn.get(g[1], 0) - fd.get(g[1], 0)) % mod)
        else:
            assert g[0] == CONST
            out.append(const % _const_order(ff, mod))
    return tuple(out)


def expected_class(window, x):
    exps = {}
    while x.model.kind == "laurent":
        exps[x.model.var], x = x.laurent_lead()
    if x.model.kind == "finite":
        return expected_fraction_class(window, (x.data,), (x.model.ff.one,),
                                       exps)
    return expected_fraction_class(window, *x.data, exps)


def _random_poly(ff, rng, deg):
    """A random nonzero polynomial of degree <= deg, not made monic."""
    while True:
        poly = tuple(rng.randrange(ff.q) for _ in range(deg + 1))
        while poly and not poly[-1]:
            poly = poly[:-1]
        if poly:
            return poly


@pytest.mark.parametrize("fspec,wspec", ORACLE_WINDOWS)
def test_classify_and_classify_sum_match_factor_oracle(fspec, wspec):
    model = parse_field(fspec)
    w = parse_window(model, wspec)
    rng = random.Random(f"{fspec}:{wspec}")
    for _ in range(100):
        a = random_element(model, rng)
        b = random_element(model, rng)
        assert w.classify(a) == expected_class(w, a)
        total = a + b
        try:
            want = expected_class(w, total)
        except ZeroElement:
            want = None
        assert w.classify_sum(a, b) == want
        # a + b with a cancelling lead, and an exact zero sum
        assert w.classify_sum(a, b - a) == expected_class(w, b)
        assert w.classify_sum(a, -a) is None


@pytest.mark.parametrize("fspec,wspec", ORACLE_WINDOWS)
def test_fraction_class_of_unreduced_pairs(fspec, wspec):
    model = parse_field(fspec)
    w = parse_window(model, wspec)
    ff = model.constant_field()
    lvars = model.laurent_vars()
    places = [g[1] for g in w.gens if g[0] == PLACE]
    rng = random.Random(f"fraction:{fspec}:{wspec}")
    for _ in range(100):
        num = _random_poly(ff, rng, 3)
        den = _random_poly(ff, rng, 3)
        # a shared factor, often a listed place, and unequal scalars
        common = _random_poly(ff, rng, 2)
        if places and rng.random() < 0.5:
            common = ff.poly_mul(common, rng.choice(places))
        num = ff.poly_scale(ff.poly_mul(num, common),
                            rng.randrange(1, ff.q))
        den = ff.poly_scale(ff.poly_mul(den, common),
                            rng.randrange(1, ff.q))
        if model.bottom().kind == "finite":
            num, den = num[-1:], den[-1:]  # a finite bottom has constants
        exps = {v: rng.randrange(-5, 6) for v in lvars}
        vec = tuple(exps[v] for v in lvars)
        assert w.fraction_class(num, den, vec) == \
            expected_fraction_class(w, num, den, exps)


def _class_or_zero(window, x):
    """expected_class(window, x), or ZeroElement when x = 0."""
    try:
        return expected_class(window, x)
    except ZeroElement:
        return ZeroElement


@pytest.mark.parametrize("fspec,wspec", ORACLE_WINDOWS)
def test_leading_term_has_the_class_of_its_element(fspec, wspec):
    # stream elements x, the binomials 1 + x, and products of x with a
    # series known only to a bound at each Laurent level: the monomial of
    # leading_term(x) has the class of x.  Only 0 has no leading term, and
    # on every model kind leading_term raises ZeroElement there
    model = parse_field(fspec)
    w = parse_window(model, wspec)
    stream = list(capped_stream(model, 1))
    series = [parse_element(model, f"1/(1-{v})")
              for v in model.laurent_vars()]
    xs = (stream + [model.one() + x for x in stream]
          + [b * x for b in series for x in stream[1:]])
    zeros = 0
    for x in xs:
        want = _class_or_zero(w, x)
        if want is ZeroElement:
            zeros += 1
            with pytest.raises(ZeroElement):
                leading_term(x)
            continue
        vec, bottom = leading_term(x)
        assert len(vec) == len(model.laurent_vars())
        assert expected_class(w, monomial(model, vec, bottom)) == want
    assert zeros == 2       # x = 0 and 1 + x for x = -1

