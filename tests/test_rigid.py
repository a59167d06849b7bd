import hashlib
import itertools
import random
import re

import pytest

from valdetect.errors import (
    LevelMismatch,
    MainClaimViolated,
    NotValuative,
    PrecisionExhausted,
    ValdetectError,
)
from valdetect.characters import (
    Character,
    CharacterGroup,
    decomp_chars,
    inertia_chars,
)
from valdetect.cpairs import c_pair_direct
from valdetect.fields import (
    ValuationHandle,
    Window,
    enumerate_elements,
    format_element,
    parse_element,
    parse_field,
    parse_window,
    value_of,
)
from valdetect.rigid import (
    MultSubgroup,
    UnitGroupApprox,
    canonical_valuation,
    capped_stream,
    comparable,
    rigid_complement,
    valuative_members_mask,
    valuative_test,
)

from oracles import (
    cpair_inertia,
    one_variable_witness,
    psi_span_contains,
    rigid_qualifying,
)


def _kernel(window, labels):
    gens = tuple(Character.dual_by_label(window, s) for s in labels)
    return MultSubgroup(CharacterGroup(window, gens))


def test_valuative_pinned(w_t_c, w_u_u3):
    assert valuative_test(_kernel(w_t_c, ["t"]), 8).holds()
    assert valuative_test(_kernel(w_u_u3, ["u"]), 4).holds()
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    H = MultSubgroup(CharacterGroup(w_u_u3, (f + g,)))
    verdict = valuative_test(H, 4)
    assert not verdict.holds()
    # no x of degree <= 1 fails, so the first failing entry is a closing
    # entry, whose witness is a CRT witness
    assert format_element(verdict.witness) == "(u+5)/(u^2+u+2)"


def test_valuative_soundness_native_chains(w_t_c, w_tuu3, w_tsc):
    cases = [
        (w_t_c, ["t"]),
        (w_tuu3, ["t"]),
        (w_tuu3, ["t", "u"]),
        (w_tsc, ["t"]),
        (w_tsc, ["t", "s"]),
    ]
    for w, steps in cases:
        v = ValuationHandle.from_steps(w.model, steps)
        I = inertia_chars(v, w)
        assert valuative_test(MultSubgroup(I), 6).holds()


def test_valuative_pair_condition_at_two():
    # l = 2 runs the two-variable clause as well; F9 has the 8th roots
    m = parse_field("laurent(gf:9,t)")
    w = parse_window(m, "{ell=2,n=1,gens=[t,const]}")
    H = _kernel(w, ["t"])
    verdict = valuative_test(H, 4)
    assert verdict.holds()
    assert "one_plus_x_one_plus_y" in verdict.conditions


def test_canonical_valuation_units(w_t_c):
    H = _kernel(w_t_c, ["t"])
    units = canonical_valuation(H, 6)
    m = w_t_c.model
    assert units.is_unit(parse_element(m, "3"))
    assert units.is_unit(parse_element(m, "1+t"))
    assert not units.is_unit(parse_element(m, "t"))
    assert not units.is_unit(parse_element(m, "t^3"))
    assert not units.is_unit(m.zero())


def test_canonical_valuation_full_group_is_trivial(w_t_c):
    # H = K^x: the trivial valuation accepts everything
    H = MultSubgroup(CharacterGroup.zero(w_t_c))
    units = canonical_valuation(H, 4)
    for x in list(enumerate_elements(w_t_c.model, 2))[1:10]:
        assert units.is_unit(x)


def test_canonical_valuation_composite(w_tsc):
    ft = Character.dual_by_label(w_tsc, "t")
    fs = Character.dual_by_label(w_tsc, "s")
    H = MultSubgroup(CharacterGroup(w_tsc, (ft, fs)))
    units = canonical_valuation(H, 6)
    v = ValuationHandle.from_steps(w_tsc.model, ["t", "s"])
    for x in enumerate_elements(w_tsc.model, 4):
        if x.is_zero():
            continue
        assert units.is_unit(x) == (value_of(v, x) == (0, 0))


def test_canonical_valuation_rejects_nonvaluative(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    H = MultSubgroup(CharacterGroup(w_u_u3, (f + g,)))
    with pytest.raises(NotValuative):
        canonical_valuation(H, 4)


def test_units_contained_in_H_and_contain_one_plus_m(w_t_c):
    H = _kernel(w_t_c, ["t"])
    units = canonical_valuation(H, 6)
    m = w_t_c.model
    v = ValuationHandle.from_steps(m, ["t"])
    t = parse_element(m, "t")
    for x in enumerate_elements(m, 3):
        if x.is_zero():
            continue
        if units.is_unit(x):
            assert H.contains(x)
        shift = t ** max(1, 1 - value_of(v, x)[0])
        one_plus = m.one() + x * shift    # a 1 + m_v element
        assert units.is_unit(one_plus)


def test_rigid_complement_trivial_branch(w_t_c):
    # Psi from the full-group C-pair on F7((t)) with both duals: H = T only
    # when no x qualifies; with (t-dual, const-dual) the constants qualify
    ft = Character.dual_by_label(w_t_c, "t")
    fc = Character.dual_by_label(w_t_c, "const")
    rc = rigid_complement(ft, fc, 8)
    assert not rc.is_trivial()
    assert rigid_qualifying(ft, fc, 8)[1] == (0, 1)
    # zero pair: H = T vacuously
    z = Character.zero(w_t_c)
    rc0 = rigid_complement(z, z, 8)
    assert rc0.is_trivial()


def test_rigid_complement_trivial_on_composite_pair(w_tsc):
    # Psi = (t-dual, s-dual) on F7((s))((t)): every x has Psi(1+x) equal to
    # Psi(1) or Psi(x), so H = T
    ft = Character.dual_by_label(w_tsc, "t")
    fs = Character.dual_by_label(w_tsc, "s")
    rc = rigid_complement(ft, fs, 8)
    assert rc.is_trivial()


def test_rigid_complement_cyclic_on_native_cpairs(w_t_c, w_tuu3):
    # pairs from inertia x decomposition of native valuations reduce from
    # genuine C-pairs, so H/T must come out cyclic
    for w, steps, h in ((w_t_c, ["t"], 8), (w_tuu3, ["t"], 4)):
        v = ValuationHandle.from_steps(w.model, steps)
        I = inertia_chars(v, w)
        D, _ = decomp_chars(v, w, h)
        for i in I.elements():
            for d in D.elements():
                rc = rigid_complement(i, d, h)
                gen = rigid_qualifying(i, d, h)[1]
                assert len(rc.span) <= 1 or gen is not None


def test_rigid_complement_raises_on_non_cpair(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    with pytest.raises(MainClaimViolated):
        rigid_complement(f, g, 4)


def test_comparable_examples(w_tsc, w_u_u3):
    ft = Character.dual_by_label(w_tsc, "t")
    fs = Character.dual_by_label(w_tsc, "s")
    assert comparable(ft, fs, 6).holds()
    assert comparable(ft, ft, 6).holds()
    fu = Character.dual_by_label(w_u_u3, "u")
    fu3 = Character.dual_by_label(w_u_u3, "u-3")
    verdict = comparable(fu, fu3, 4)
    assert verdict.kind == "NotComparable"
    assert format_element(verdict.witness) == "5*u"


def test_comparable_requires_valuative(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    with pytest.raises(NotValuative):
        comparable(f + g, f, 4)
    with pytest.raises(NotValuative):
        comparable(f, f + g, 4)


def test_comparable_at_two_matches_per_member_test():
    # l = 2: the product filter plus the pair clause decide valuativity the
    # way valuative_test does member by member; const is not valuative
    w = parse_window(parse_field("laurent(laurent(gf:5,s),t)"),
                     "{ell=2,n=1,gens=[t,s,const]}")
    members = CharacterGroup.full(w).elements()
    valuative = {f.values: valuative_test(MultSubgroup(
        CharacterGroup(w, (f,))), 4).holds() for f in members}
    assert sorted(f.label() for f in members if valuative[f.values]) == \
        ["0", "s", "t", "t+s"]
    for f, g in itertools.product(members, repeat=2):
        if valuative[f.values] and valuative[g.values]:
            assert comparable(f, g, 4).holds()
        else:
            with pytest.raises(NotValuative):
                comparable(f, g, 4)


def test_cpair_with_valuative_partner_gives_decomposition(w_t_c):
    # at n = 1 (so M1(n) = 1): a valuative f with C-partner g forces g to
    # kill the scanned 1+m classes of v_f
    m = w_t_c.model
    f = Character.dual_by_label(w_t_c, "t")
    v = ValuationHandle.from_steps(m, ["t"])
    D, _ = decomp_chars(v, w_t_c, 8)
    for g in CharacterGroup.full(w_t_c).elements():
        if c_pair_direct(f, g, 8).holds():
            assert D.contains(g)


def test_cpair_with_valuative_partner_ell_two():
    # same statement at l = 2 over F9 (2*l^2 divides q-1 = 8)
    m = parse_field("laurent(gf:9,t)")
    w = parse_window(m, "{ell=2,n=1,gens=[t,const]}")
    f = Character.dual_by_label(w, "t")
    v = ValuationHandle.from_steps(m, ["t"])
    D, _ = decomp_chars(v, w, 6)
    for g in CharacterGroup.full(w).elements():
        if c_pair_direct(f, g, 6).holds():
            assert D.contains(g)


def test_capped_stream_deterministic(w_tuu3):
    a = [format_element(x) for x in capped_stream(w_tuu3.model, 3)]
    b = [format_element(x) for x in capped_stream(w_tuu3.model, 3)]
    assert a == b
    # the stream itself is pinned, not only its determinism
    assert hashlib.sha256("\n".join(a).encode()).hexdigest() == (
        "548d77443126a5d2c1f35c60b9b99b07aadd7e46ebbf555210a7e392508c36ee")


def _is_unit_by_elements(units, h):
    """The unit test on built elements, the reference for is_unit: classify
    h + x and 1 + x for every scanned nonmember x."""
    H = units.H
    w = H.window
    if h.is_zero() or not H.contains(h):
        return False
    one = w.model.one()
    for x, *_ in units._table():
        hx, opx = h + x, one + x
        if hx.is_zero() or opx.is_zero():
            continue
        if not H.contains_class(w.class_sub(w.classify(opx), w.classify(hx))):
            return False
    return True


# (window fixture, valuation steps, heights, elements sampled per height)
UNIT_CASES = [
    ("w_t_c", ["t"], (3, 8), 200),
    ("w_tsc", ["t"], (2, 4), 100),
    ("w_tsc", ["t", "s"], (2, 4), 100),
    ("w_tuu3", ["t"], (1, 2), 30),
    ("w19_t_c", ["t"], (3, 8), 200),
    ("w19_tsc", ["t", "s"], (1, 2), 100),
    ("w5_tsc", ["t", "s"], (2, 4), 100),
]


@pytest.mark.parametrize("wname,steps,heights,sample", UNIT_CASES)
def test_is_unit_matches_element_reference(request, wname, steps, heights,
                                           sample):
    w = request.getfixturevalue(wname)
    m = w.model
    H = MultSubgroup(
        inertia_chars(ValuationHandle.from_steps(m, steps), w))
    for height in heights:
        units = UnitGroupApprox(H, height)
        hs = list(capped_stream(m, height))
        hs += [m.one() + x for x in hs[1:]]      # binomials, mostly units
        if len(hs) > sample:
            hs = random.Random(f"{wname}:{steps}:{height}").sample(hs, sample)
        verdicts = [units.is_unit(h) for h in hs]
        assert any(verdicts) and not all(verdicts)
        assert verdicts == [_is_unit_by_elements(units, h) for h in hs]
        # a caller's class of h gives the same verdicts on a fresh memo
        fresh = UnitGroupApprox(H, height)
        assert verdicts == [not h.is_zero() and fresh.is_unit(h, w.classify(h))
                            for h in hs]


def test_contains_class_memo_matches_fresh(w_t_c, w_tsc, w_tuu3):
    ft = Character.dual_by_label(w_t_c, "t")
    fc = Character.dual_by_label(w_t_c, "const")
    rc = rigid_complement(ft, fc, 8)
    subgroups = [rc.subgroup,
                 _kernel(w_t_c, ["t"]), _kernel(w_tsc, ["t", "s"]),
                 _kernel(w_tuu3, ["t", "u-3"])]
    assert rc.span
    for H in subgroups:
        w = H.window
        classes = list(itertools.product(*(range(o) for o in w.orders)))
        # the same group from other generators: its Howell rows
        rows = CharacterGroup(w, tuple(Character(w, r)
                                       for r in H.group.howell()))
        for _ in range(2):   # the second pass reads the memo
            for cls in classes:
                fresh = MultSubgroup(rows)
                assert H.contains_class(cls) == fresh.contains_class(cls)
        assert len(H._members) == len(classes)
        assert H == MultSubgroup(rows)
        assert hash(H) == hash(MultSubgroup(rows))


def test_unit_group_payload_reports_nonmember_cap(w_tsc):
    H = _kernel(w_tsc, ["t", "s"])
    small = UnitGroupApprox(H, 4, max_nonmembers=5)
    p = small.payload()
    assert (p["scanned_nonmembers"], p["max_nonmembers"]) == (5, 5)
    assert p["nonmembers_capped"] is True
    large = UnitGroupApprox(H, 4, max_nonmembers=10_000)
    p = large.payload()
    assert p["scanned_nonmembers"] < 10_000
    assert p["nonmembers_capped"] is False
    # a cap equal to the number of nonmembers leaves none out
    exact = UnitGroupApprox(H, 4, max_nonmembers=p["scanned_nonmembers"])
    assert exact.payload()["nonmembers_capped"] is False


def _outcome(fn, h):
    """fn(h), or the type and message of the valdetect error it raised."""
    try:
        return fn(h)
    except ValdetectError as exc:
        return type(exc).__name__, str(exc)


def _inexact(m, data):
    """Whether the series is known only to a bound at some Laurent level."""
    if m.kind != "laurent":
        return False
    coeffs, bound = data
    return bound is not None or any(_inexact(m.base, c) for _, c in coeffs)


# (field, window, kernel labels, height, bounded series, exact h and
# bounded h sampled, whether h in H can tie with a nonmember on the top
# exponent): every verdict, and every exception, of is_unit equals the
# element reference.  On ker t of F7((t)) no tie is possible: members have
# t-exponent 0 mod 3, nonmembers do not.
LEAD_CASES = [
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", ["t"], 4,
     ["1/(1-t)", "3/(1-t)", "t^-3/(1+t)"], (120, 40), False),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", ["const"], 3,
     ["1/(1-t)", "t/(1+t)"], (100, 30), True),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", ["s"], 2,
     ["1+t/(1-s)", "s^3/(1-s)", "1/(1-t)"], (100, 30), True),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}",
     ["t", "s"], 2, ["1+t/(1-s)", "t^3/(1-s)+s^3"], (80, 30), True),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", ["u"], 1,
     ["1/(1-t)"], (60, 4), True),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}",
     ["t", "s"], 2, ["1/(1-s)", "t^2/(1+s*t)"], (80, 30), True),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", ["u"], 2,
     [], (120, 0), False),
]


@pytest.mark.parametrize("fspec,wspec,labels,height,series,sample,ties",
                         LEAD_CASES)
def test_is_unit_leading_exponent_rule_matches_reference(
        fspec, wspec, labels, height, series, sample, ties):
    m = parse_field(fspec)
    w = parse_window(m, wspec)
    H = _kernel(w, labels)
    units = UnitGroupApprox(H, height)
    stream = list(capped_stream(m, height))
    rng = random.Random(f"{fspec}:{labels}:{height}")
    exact = stream + [m.one() + x for x in stream[1:]]
    series = [parse_element(m, s) for s in series]
    bounded = [b * y for b in series for y in stream[1:]]
    hs = (rng.sample(exact, min(sample[0], len(exact))) + series
          + rng.sample(bounded, min(sample[1], len(bounded))))
    got = [_outcome(units.is_unit, h) for h in hs]
    assert got == [_outcome(lambda h: _is_unit_by_elements(units, h), h)
                   for h in hs]
    assert True in got and False in got
    # windows kill -1, so -1 is never a row, and -x has the class of x: no
    # row cancels the lead of an h in H
    assert w.classify(-m.one()) == w.zero_class()
    assert all(w.classify(-x) == cls_x for x, _, cls_x, *_ in units._table())
    if m.kind != "laurent":
        return
    # the sample takes every branch of the rule: x leads, h leads, a tie,
    # and h known only to a precision bound
    exps = [exp for _, exp, *_ in units._table()]
    seen = set()
    for h in hs:
        if h.is_zero() or not H.contains(h):
            continue
        eh = h.data[0][0][0]
        seen.update((e > eh) - (e < eh) for e in exps)
        seen.add("bounded" if _inexact(m, h.data) else "exact")
    assert seen == {-1, 1, "bounded", "exact"} | ({0} if ties else set())


def test_is_unit_raises_as_reference(w_t_c, w_tsc):
    # O(t^24) cannot be decided zero; t * O(s^5) has no leading s-term; a
    # coefficient at the bound itself leaves h + t unknown, so the rule
    # must not read its leading exponent
    cases = [(w_t_c, ["t"], parse_element(w_t_c.model, "1/(1-t)-1/(1-t)")),
             (w_tsc, ["t", "s"], w_tsc.model.elt((((1, ((), 5)),), None))),
             (w_t_c, ["t"], w_t_c.model.elt((((0, 1),), 0)))]
    for w, labels, h in cases:
        units = UnitGroupApprox(_kernel(w, labels), 2)
        for fn in (units.is_unit, lambda h: _is_unit_by_elements(units, h)):
            with pytest.raises(PrecisionExhausted):
                fn(h)


def test_is_unit_cancel_row_as_reference(w_t_c, w_tsc):
    # an h whose leading term cancels that of a row x, exact (-x*(1+t)) or
    # known to a bound (-x/(1-t)), has the class of -x, which is that of x:
    # it lies outside H, so the lead rule and the element reference both
    # reject it, and no row is read past the lead of h
    for w, labels in ((w_t_c, ["t"]), (w_tsc, ["t"]), (w_tsc, ["t", "s"])):
        m = w.model
        units = UnitGroupApprox(_kernel(w, labels), 2)
        rows = units._table()
        assert rows
        tails = [parse_element(m, "1+t"), parse_element(m, "1/(1-t)")]
        pairs = [(x, -x * y) for x, *_ in rows for y in tails]
        assert all(h.data[0][0][0] == x.data[0][0][0] for x, h in pairs)
        hs = [h for _, h in pairs]
        got = [_outcome(units.is_unit, h) for h in hs]
        ref = [_outcome(lambda h: _is_unit_by_elements(units, h), h)
               for h in hs]
        assert got == ref == [False] * len(hs)
        assert all(units._memo[h.data[0][0]] is False for h in hs)


def test_is_unit_walks_ties_once_per_leading_term(w_tsc, monkeypatch):
    # 1 + c*t^e with e > 0 all lead with 1: after the first, each takes the
    # verdict of that leading term and classifies no sum
    m = w_tsc.model
    units = UnitGroupApprox(_kernel(w_tsc, ["t", "s"]), 3)
    units._table()
    cs = [c for c in capped_stream(m.base, 2) if not c.is_zero()]
    t = parse_element(m, "t")
    hs = [m.one() + m.elt((((0, c.data),), None)) * t ** e
          for c in cs for e in (1, 2)]
    calls = []
    classify_sum = Window.classify_sum

    def counting(self, a, b):
        calls.append(a)
        return classify_sum(self, a, b)

    monkeypatch.setattr(Window, "classify_sum", counting)
    first = units.is_unit(hs[0])
    assert calls
    for h in hs[1:]:
        calls.clear()
        assert units.is_unit(h) == first
        assert not calls


def _valuative_by_member(chars, height):
    return [valuative_test(MultSubgroup(
        CharacterGroup(f.window, (f,))), height).holds() for f in chars]


MASK_CASES = [
    ("laurent(laurent(gf:19,s),t)", "{ell=3,n=2,gens=[t,s,const]}", 9),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 8),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", 3),
]


@pytest.mark.parametrize("fspec,wspec,height", MASK_CASES)
def test_valuative_members_mask_matches_per_member(fspec, wspec, height):
    w = parse_window(parse_field(fspec), wspec)
    chars = CharacterGroup.full(w).elements()
    mask = valuative_members_mask(chars, height)
    assert mask == _valuative_by_member(chars, height)
    assert True in mask[1:] and False in mask
    assert valuative_members_mask([], height) == []


def test_valuative_members_mask_rejects_mixed_windows(w_t_c, w_u_u3):
    # each of u+4 and 2*u+4 is valuative alone; after a character of
    # another window the mask must refuse, not read them on its table
    fc = Character.dual_by_label(w_t_c, "const")
    for label in ("u+4", "2*u+4"):
        f, = (f for f in CharacterGroup.full(w_u_u3).elements()
              if f.label() == label)
        assert valuative_members_mask([f], 4) == [True]
        with pytest.raises(LevelMismatch):
            valuative_members_mask([fc, f], 4)


# (field, window, height, pairs sampled or None for every ordered pair)
KERNEL_ORACLE_CASES = [
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", 8, None),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", 4, None),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", 4, None),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", 9, 150),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 4, 24),
]


def _verdict_matches_oracle(H, height, contains_class):
    """valuative_test(H) against the entry-by-entry one-variable loop, which
    decides membership with `contains_class`; at l = 2 the verdict may also
    fail on the pair clause."""
    w = H.window
    verdict = valuative_test(H, height)
    want = one_variable_witness(contains_class, w, height)
    got = verdict.witness
    assert (got is None) == (want is None)
    if want is not None:
        assert format_element(got) == format_element(want)
    if w.level.ell != 2:
        assert verdict.holds() == (want is None)
    return verdict


@pytest.mark.parametrize("fspec,wspec,height,sample", KERNEL_ORACLE_CASES)
def test_kernel_rules_match_span_rule_oracles(fspec, wspec, height, sample):
    # a kernel of characters against the {x : Psi(x) in S} rule it replaced:
    # membership on every class, the rigid complement's group against the
    # intersection that C-pair detection used to form, and the valuative
    # verdict and witness against the per-entry loop
    w = parse_window(parse_field(fspec), wspec)
    chars = CharacterGroup.full(w).elements()
    classes = list(itertools.product(*(range(o) for o in w.orders)))
    pairs = list(itertools.product(chars, repeat=2))
    if sample is not None:
        pairs = random.Random(fspec).sample(pairs, sample)
    split = 0
    for f, g in pairs:
        H = MultSubgroup(CharacterGroup(w, (f, g)))
        assert [H.contains_class(c) for c in classes] == \
            [psi_span_contains((f, g), (), c) for c in classes]
        try:
            rc = rigid_complement(f, g, height)
        except MainClaimViolated:
            continue
        H = rc.subgroup
        assert [H.contains_class(c) for c in classes] == \
            [psi_span_contains((f, g), rc.span, c) for c in classes]
        assert H == MultSubgroup(cpair_inertia(
            f, g, rigid_qualifying(f, g, height)[0]))
        _verdict_matches_oracle(
            H, height, lambda c: psi_span_contains((f, g), rc.span, c))
        split += not rc.is_trivial()
    if w.level.ell != 2:    # at l = 2, n = 1 no x qualifies: H = T
        assert split > 0
    # the mask against member-by-member verdicts, and those against the loop
    mask = valuative_members_mask(chars, height)
    by_member = [_verdict_matches_oracle(
        MultSubgroup(CharacterGroup(w, (f,))), height,
        lambda c, f=f: psi_span_contains((f,), (), c)).holds()
        for f in chars]
    assert mask == by_member
    assert True in mask[1:] and False in mask


def test_detect_inertia_names_first_nonvaluative_member(monkeypatch):
    # with the C-center check bypassed, I'' = D'' holds non-valuative
    # members; the error names the first one in I'.elements() order
    from valdetect import detect
    w = parse_window(parse_field("ratfunc(gf:7,u)"),
                     "{ell=3,n=1,gens=[u,u-3,const]}")
    D = CharacterGroup.full(w)
    members = [f for f in D.elements() if not f.is_zero()]
    flags = _valuative_by_member(members, 3)
    first = members[flags.index(False)]
    assert flags[0]     # a valuative member comes before it
    monkeypatch.setattr(detect, "c_center", lambda group, height: group)
    with pytest.raises(MainClaimViolated,
                       match=f"^member {re.escape(first.label())} of I' "):
        detect.detect_inertia(D, D, 1, 3, aggressive=True)
