import random

import pytest
from hypothesis import given, strategies as st

from valdetect.errors import (
    ParseError,
    PrecisionExhausted,
    PreconditionViolated,
    UnsupportedValuation,
    ZeroElement,
)
from valdetect.ffpoly import FiniteField
from valdetect.fields import (
    MAX_EXPONENT,
    MAX_PRECISION,
    ValuationHandle,
    compose_valuations,
    enumerate_blocks,
    enumerate_elements,
    format_element,
    parse_element,
    parse_field,
    parse_window,
    random_element,
    residue_model,
    residue_of,
    value_of,
)

from oracles import capped_stream


def test_field_spec_roundtrip():
    for spec in ("gf:7", "gf:9", "ratfunc(gf:7,u)",
                 "laurent(ratfunc(gf:7,u),t,prec=24)",
                 "laurent(laurent(gf:7,s),t)"):
        m = parse_field(spec)
        assert parse_field(m.spec()) == m


def test_field_spec_errors():
    with pytest.raises(ParseError):
        parse_field("gf:7,")
    with pytest.raises(ParseError):
        parse_field("laurent(gf:7)")
    with pytest.raises(PreconditionViolated):
        parse_field("gf:12")


def test_element_exponent_limit(F7u, F7t):
    # the limit holds for a power and for the product of nested powers
    assert parse_element(F7u, f"u^{MAX_EXPONENT}") == \
        parse_element(F7u, "(u^16)^16")
    assert parse_element(F7t, f"t^-{MAX_EXPONENT}") * \
        parse_element(F7t, f"t^{MAX_EXPONENT}") == F7t.one()
    for spec in (f"u^{MAX_EXPONENT + 1}", f"u^-{MAX_EXPONENT + 1}",
                 "(u^16)^17", "((u+1)^2)^129", "(2*(u^4)^8)^9"):
        with pytest.raises(PreconditionViolated):
            parse_element(F7u, spec)
    # products and sums of powers are not nested powers
    assert parse_element(F7u, "u^200*u^200+u^256") == \
        parse_element(F7u, "u^256*u^144+u^256")


def test_laurent_precision_limit():
    # the limit holds on every level of a tower
    m = parse_field(f"laurent(laurent(gf:7,s,prec={MAX_PRECISION}),t,"
                    f"prec={MAX_PRECISION})")
    assert (m.prec, m.base.prec) == (MAX_PRECISION, MAX_PRECISION)
    assert parse_element(m, "1/(1-t)").data[1] == MAX_PRECISION
    for spec in (f"laurent(gf:7,t,prec={MAX_PRECISION + 1})",
                 f"laurent(laurent(gf:7,s,prec={MAX_PRECISION + 1}),t)",
                 "laurent(gf:7,t,prec=0)"):
        with pytest.raises(PreconditionViolated):
            parse_field(spec)


def test_window_classes_pinned(w_u_u3, F7u):
    assert w_u_u3.classify(parse_element(F7u, "5*u")) == (1, 0)
    assert w_u_u3.classify(parse_element(F7u, "1+2*u")) == (0, 1)
    assert w_u_u3.classify(F7u.one()) == (0, 0)


def test_window_class_zero_element_raises(w_u_u3, F7u):
    with pytest.raises(ZeroElement):
        w_u_u3.classify(F7u.zero())


def test_window_class_homomorphism_random():
    rng = random.Random(101)
    cases = [
        ("gf:7", "{ell=3,n=1,gens=[const]}"),
        ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}"),
        ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}"),
        ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}"),
    ]
    for fspec, wspec in cases:
        model = parse_field(fspec)
        w = parse_window(model, wspec)
        for _ in range(1000):
            x = random_element(model, rng)
            y = random_element(model, rng)
            cx, cy = w.classify(x), w.classify(y)
            assert w.classify(x * y) == w.class_add(cx, cy)


def test_value_of_examples(F7t, F7st):
    v = ValuationHandle.from_steps(F7t, ["t"])
    assert value_of(v, parse_element(F7t, "t^2*(3+t)")) == (2,)
    assert value_of(v, parse_element(F7t, "1+t")) == (0,)
    vc = ValuationHandle.from_steps(F7st, ["t", "s"])
    assert value_of(vc, parse_element(F7st, "t*s^3")) == (1, 3)
    with pytest.raises(ZeroElement):
        value_of(v, F7t.zero())


def test_value_of_is_homomorphism_and_ultrametric():
    rng = random.Random(7)
    F7st = parse_field("laurent(laurent(gf:7,s),t)")
    v = ValuationHandle.from_steps(F7st, ["t", "s"])
    for _ in range(1000):
        x = random_element(F7st, rng)
        y = random_element(F7st, rng)
        vx, vy = value_of(v, x), value_of(v, y)
        prod = tuple(a + b for a, b in zip(vx, vy))
        assert value_of(v, x * y) == prod
        s = x + y
        if not s.is_zero():
            assert value_of(v, s) >= min(vx, vy)


def test_residue_models(F7ut, F7u):
    v = ValuationHandle.from_steps(F7ut, ["t"])
    assert residue_model(v) == F7u
    vu = ValuationHandle.from_steps(F7u, ["u"])
    assert residue_model(vu).constant_field().q == 7
    v3 = ValuationHandle.from_steps(F7u, ["u-3"])
    assert residue_model(v3).constant_field().q == 7
    vq = ValuationHandle.from_steps(F7u, ["u^2+1"])
    assert residue_model(vq).constant_field().q == 49


def test_residue_of_unit(F7ut):
    v = ValuationHandle.from_steps(F7ut, ["t"])
    x = parse_element(F7ut, "u+3*t")
    r = residue_of(v, x)
    assert format_element(r) == "u"
    with pytest.raises(UnsupportedValuation):
        residue_of(v, parse_element(F7ut, "t"))


def test_compose_valuations(F7st):
    base = parse_field("laurent(laurent(gf:7,s),t)")
    v = ValuationHandle.from_steps(base, ["t"])
    w = ValuationHandle.from_steps(residue_model(v), ["s"])
    comp = compose_valuations(v, w)
    assert comp.steps == ValuationHandle.from_steps(base, ["t", "s"]).steps
    assert comp.rank == v.rank + w.rank
    x = parse_element(base, "t^2*s^5")
    assert value_of(comp, x) == value_of(v, x) + value_of(
        w, residue_of(v, x * parse_element(base, "t^-2")))
    triv = ValuationHandle.trivial(base)
    assert compose_valuations(v, ValuationHandle.trivial(residue_model(v))) == v
    assert compose_valuations(triv, v) == v


def test_compose_associative(F7st):
    m = parse_field("laurent(laurent(laurent(gf:7,r),s),t)")
    v1 = ValuationHandle.from_steps(m, ["t"])
    v2 = ValuationHandle.from_steps(residue_model(v1), ["s"])
    v3 = ValuationHandle.from_steps(residue_model(compose_valuations(v1, v2)),
                                    ["r"])
    left = compose_valuations(compose_valuations(v1, v2), v3)
    right = compose_valuations(v1, compose_valuations(v2, v3))
    assert left == right


def test_enumeration_counts_and_prefix(F7, F7u, F7t):
    assert len(list(enumerate_elements(F7, 3))) == 7
    r1 = list(enumerate_elements(F7u, 1))
    # reduced fractions with numerator and monic denominator of degree <= 1
    assert len(r1) == 343
    r2 = list(enumerate_elements(F7u, 2))
    assert r2[:len(r1)] == r1  # streams are prefixes of each other
    assert len(set((e.data for e in r2))) == len(r2)  # duplicate-free
    l2 = list(enumerate_elements(F7t, 2))
    assert len(l2) == 31
    assert l2[:1][0].is_zero()


@pytest.mark.parametrize("spec,height,cap", [
    ("gf:7", 2, 0),
    ("ratfunc(gf:7,u)", 2, 2),
    ("ratfunc(gf:7,u)", 2, 5),
    ("ratfunc(gf:7,u)", 2, 1),
    ("ratfunc(gf:7,u)", 2, 0),
    ("laurent(ratfunc(gf:3,u),t)", 2, 3),
    ("laurent(ratfunc(gf:3,u),t)", 3, 1),
    ("laurent(ratfunc(gf:3,u),t)", 2, 0),
])
def test_enumerate_blocks_ratfunc_cap(spec, height, cap):
    m = parse_field(spec)
    full = [[format_element(x) for x in blk]
            for blk in enumerate_blocks(m, height)]
    capped = [[format_element(x) for x in blk]
              for blk in enumerate_blocks(m, height, ratfunc_cap=cap)]
    assert len(capped) == height + 1
    if cap >= height or m.kind == "finite":
        assert capped == full
    elif m.kind == "ratfunc":
        assert capped[:cap + 1] == full[:cap + 1]
        assert not any(capped[cap + 1:])
    else:
        # an in-order subsequence of the uncapped stream, and a proper one
        stream = iter(sum(full, []))
        assert all(x in stream for x in sum(capped, []))
        assert len(sum(capped, [])) < len(sum(full, []))


def test_enumeration_order_reaches_5u_before_2u1(F7u):
    names = [format_element(e) for e in enumerate_elements(F7u, 1)]
    assert names.index("5*u") < names.index("2*u+1")


def test_laurent_precision_tracking(F7t):
    x = parse_element(F7t, "1-t")
    inv = x.inverse()
    assert inv.data[1] == 24  # default precision
    geo = F7t.from_terms({i: F7t.base.from_int(1) for i in range(24)})
    diff = inv - geo
    with pytest.raises(PrecisionExhausted):
        diff.is_zero()
    with pytest.raises(PrecisionExhausted):
        diff.laurent_lead()
    # exact monomials invert exactly
    t = parse_element(F7t, "t")
    assert (t ** -3).data[1] is None


def test_hensel_units_have_zero_class(F7t, w_t_c):
    rng = random.Random(3)
    for _ in range(50):
        r = random_element(F7t, rng)
        v = value_of(ValuationHandle.from_steps(F7t, ["t"]), r)[0]
        one_plus = F7t.one() + r * parse_element(F7t, "t") ** max(1, 1 - v)
        assert w_t_c.classify(one_plus) == (0, 0)


def test_element_parse_format_roundtrip(F7ut):
    rng = random.Random(13)
    for _ in range(60):
        x = random_element(F7ut, rng)
        assert parse_element(F7ut, format_element(x)) == x


def test_extension_field_elements():
    F9 = parse_field("gf:9")
    z = parse_element(F9, "z")
    assert not (z * z + F9.one()).is_zero() or True
    # z generates: z^2 = -1 for the canonical modulus z^2+1 over GF(3)
    assert (z * z) == parse_element(F9, "-1")


@pytest.mark.parametrize("q", [9, 25])
def test_extension_tables_match_the_polynomial_path(q):
    # add, neg and mul read tables on small extension fields; the
    # coefficient-vector arithmetic is their reference on every pair
    ff = FiniteField.of_order(q)
    assert ff._mul_tab is not None
    for a in ff.elements():
        assert ff.neg(a) == ff._poly_neg(a)
        for b in ff.elements():
            assert ff.add(a, b) == ff._poly_add(a, b)
            assert ff.mul(a, b) == ff._poly_mul(a, b)


def _irreducible_by_division(ff, f):
    """Whether the monic f of degree >= 1 has no monic factor of degree
    1 <= k <= deg f / 2, by trial division."""
    d = ff.poly_deg(f)
    return all(ff.poly_mod(f, g) for k in range(1, d // 2 + 1)
               for g in ff.monic_polys(k))


@pytest.mark.parametrize("q,degrees", [(2, range(1, 9)), (3, range(1, 6)),
                                       (4, range(1, 5)), (5, range(1, 4))])
def test_irreducibility_matches_trial_division(q, degrees):
    # the zero-constant-term shortcut keeps every verdict, so the first
    # irreducible, the modulus of every extension field, is unchanged
    ff = FiniteField.of_order(q)
    for d in degrees:
        polys = list(ff.monic_polys(d))
        want = [_irreducible_by_division(ff, f) for f in polys]
        assert [ff.poly_is_irreducible(f) for f in polys] == want
        assert ff.find_irreducible(d) == polys[want.index(True)]


def test_large_extension_fields_keep_the_polynomial_path():
    ff = FiniteField.of_order(81)
    assert ff._mul_tab is None
    g = ff.generator()
    assert ff.pow(g, 80) == ff.one and ff.pow(g, 40) != ff.one


@pytest.mark.parametrize("q", [7, 9])
def test_poly_xgcd_is_a_bezout_identity(q):
    ff = FiniteField.of_order(q)
    rng = random.Random(q)
    for _ in range(60):
        f, g = (tuple(rng.randrange(q) for _ in range(rng.randrange(6)))
                for _ in range(2))
        f, g = ff.poly_add(f, ()), ff.poly_add(g, ())   # trimmed
        d, s, t = ff.poly_xgcd(f, g)
        assert d == ff.poly_gcd(f, g)
        assert ff.poly_add(ff.poly_mul(s, f), ff.poly_mul(t, g)) == d


def test_window_validation_errors(F7u, F7t):
    with pytest.raises(PreconditionViolated):
        parse_window(F7u, "{ell=7,n=1,gens=[u]}")     # ell = char
    with pytest.raises(PreconditionViolated):
        parse_window(F7u, "{ell=3,n=1,gens=[u,u]}")   # duplicate
    with pytest.raises(PreconditionViolated):
        parse_window(F7u, "{ell=3,n=1,gens=[u^2-2]}")  # reducible place
    with pytest.raises(PreconditionViolated):
        parse_window(parse_field("gf:5"), "{ell=3,n=1,gens=[const]}")


def test_mu_flag(w_u_u3):
    assert w_u_u3.mu_2ln_ok()
    F19u = parse_field("ratfunc(gf:19,u)")
    w = parse_window(F19u, "{ell=3,n=2,gens=[u,const]}")
    assert w.mu_2ln_ok()
    w7 = parse_window(parse_field("ratfunc(gf:7,u)"),
                      "{ell=3,n=2,gens=[u]}")
    assert not w7.mu_2ln_ok()


@given(st.integers(2, 40))
def test_finite_field_of_order_prime_powers(k):
    q = [4, 8, 9, 25, 27, 49][k % 6]
    ff = FiniteField.of_order(q)
    assert ff.q == q
    g = ff.generator()
    seen = set()
    x = ff.one
    for _ in range(q - 1):
        seen.add(x)
        x = ff.mul(x, g)
    assert len(seen) == q - 1


def test_window_classify_precision_exhausted(F7t, w_t_c):
    inv = parse_element(F7t, "1-t").inverse()
    geo = F7t.from_terms({i: F7t.base.from_int(1) for i in range(24)})
    fog = inv - geo  # O(t^24): every known coefficient cancels
    with pytest.raises(PrecisionExhausted):
        w_t_c.classify(fog)


# ---------------------------------------------------------------------------
# Window.classify_sum against the built sum
# ---------------------------------------------------------------------------

SUM_WINDOWS = [
    ("gf:7", "{ell=3,n=1,gens=[const]}"),
    ("gf:9", "{ell=2,n=1,gens=[const]}"),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}"),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}"),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}"),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}"),
]

# streams longer than this are paired against a fixed sample of their
# elements rather than with every element
ALL_PAIRS_MAX = 160
PAIR_SAMPLE = 8


def _class_of_built_sum(w, a, b):
    """The reference: classify the element a + b; None when it is zero."""
    try:
        return w.classify(a + b)
    except ZeroElement:
        return None


@pytest.mark.parametrize("fspec,wspec", SUM_WINDOWS)
def test_classify_sum_matches_built_sum(fspec, wspec):
    model = parse_field(fspec)
    w = parse_window(model, wspec)
    one = model.one()
    for height in (1, 2):
        xs = list(capped_stream(model, height))
        lefts = xs
        if len(xs) > ALL_PAIRS_MAX:
            lefts = random.Random(f"{fspec}:{height}").sample(xs, PAIR_SAMPLE)
        for a in lefts:
            for b in xs:
                assert w.classify_sum(a, b) == _class_of_built_sum(w, a, b)
        for x in xs:
            # the 1 + x binomials, exact cancellation x + (-x), and
            # cancellation of one term of 1 + x, which falls through to the
            # other term when the two share no exponent
            assert w.classify_sum(one, x) == _class_of_built_sum(w, one, x)
            assert w.classify_sum(x, -x) is None
            opx = one + x
            for y in (-one, -x):
                assert w.classify_sum(opx, y) == _class_of_built_sum(w, opx, y)


def test_classify_sum_cancellation_cases(F7u, F7t, F7st, w_t_c, w_tsc):
    w_u = parse_window(F7u, "{ell=3,n=1,gens=[u,u-3,const]}")
    cases = [
        # equal exponents cancel at t^0; the lead is the next term, t
        (w_t_c, "1+t", "-1+t^2", "t+t^2"),
        # the t^0 coefficients cancel down to their next term, s^2
        (w_tsc, "s+s^2", "-s+t", "s^2+t"),
        (w_tsc, "3*s^-1+t", "4*s^-1+2*t", "3*t"),
        # the unreduced fraction (u-3)^2 / (u-3)^2 has the class of 1
        (w_u, "u/(u-3)", "-3/(u-3)", "1"),
    ]
    for w, a, b, total in cases:
        m = w.model
        a, b = parse_element(m, a), parse_element(m, b)
        assert w.classify_sum(a, b) == w.classify(parse_element(m, total))
        assert w.classify_sum(a, b) == w.classify(a + b)
    x = parse_element(F7st, "s*t^-2+3*t")
    assert w_tsc.classify_sum(x, -x) is None
    assert w_u.classify_sum(F7u.zero(), F7u.zero()) is None
    with pytest.raises(PreconditionViolated):
        w_t_c.classify_sum(F7t.one(), F7st.one())


def test_classify_sum_bounded_series(F7t, F7st, w_t_c, w_tsc):
    # 1/(1-t) = 1 + t + ... + O(t^24), as canonical-valuation
    # --test-elements can pass it
    h = parse_element(F7t, "1/(1-t)")
    for x in capped_stream(F7t, 2):
        assert w_t_c.classify_sum(h, x) == _class_of_built_sum(w_t_c, h, x)
    assert w_t_c.classify_sum(h, -F7t.one()) == w_t_c.classify(
        parse_element(F7t, "t"))
    # every known coefficient cancels: the leading term is not known
    tail = parse_element(F7t, "t^30")
    geo = F7t.from_terms({i: F7t.base.from_int(1) for i in range(24)})
    for b in (-h, tail - geo):
        with pytest.raises(PrecisionExhausted):
            w_t_c.classify(h + b)
        with pytest.raises(PrecisionExhausted):
            w_t_c.classify_sum(h, b)
    # a bounded coefficient inside the tower: 1/(1-s) = 1 + s + ... + O(s^24)
    g = parse_element(F7st, "1/(1-s)")
    assert w_tsc.classify_sum(g, -F7st.one()) == w_tsc.classify(g - 1)
    with pytest.raises(PrecisionExhausted):
        w_tsc.classify_sum(g + parse_element(F7st, "t"), -g)
    # the t^1 coefficient of the sum is O(s^24): the built sum keeps it, and
    # the leading term 1 is known either way
    a = parse_element(F7st, "1+t/(1-s)")
    b = parse_element(F7st, "-t/(1-s)")
    assert (a + b).data == (((0, F7st.base.one().data), (1, ((), 24))), None)
    assert w_tsc.classify(a + b) == w_tsc.classify_sum(a, b) == \
        w_tsc.zero_class()
    # a leading coefficient known only as O(s^24) decides no valuation
    c = a + b - 1
    for undecided in (c.laurent_lead, c.inverse, lambda: w_tsc.classify(c),
                      lambda: value_of(ValuationHandle.from_steps(F7st, ["t"]),
                                       c + parse_element(F7st, "t^2"))):
        with pytest.raises(PrecisionExhausted):
            undecided()


def _known_part(x):
    """The coefficients of a series known to be nonzero, at every level, by
    exponent tuple (top level first)."""
    if x.model.kind != "laurent":
        return {(): x} if not x.is_zero() else {}
    base = x.model.base
    return {(e, *k): c for e, data in x.data[0]
            for k, c in _known_part(base.elt(data)).items()}


def test_three_level_unit_inverts():
    # the series inverse multiplies base series whose coefficients can be
    # known only as O(r^6); they are kept, and x * (1/x) is 1 up to the
    # bounds
    model = parse_field("laurent(laurent(laurent(gf:7,r,prec=6),s,prec=6),"
                        "t,prec=6)")
    x = parse_element(model, "1-r-s-t")
    y = x.inverse()
    assert _known_part(x * y) == {(0, 0, 0): model.bottom().one()}
    assert _known_part(y)[2, 1, 0] == model.bottom().from_int(3)
    w = parse_window(model, "{ell=3,n=1,gens=[t,s,r,const]}")
    assert w.classify(y) == (0, 0, 0, 0)
