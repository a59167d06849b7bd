import random

import pytest

from valdetect.errors import (
    LevelMismatch,
    NotInDecomposition,
    PreconditionViolated,
)
from valdetect.characters import (
    Character,
    CharacterGroup,
    decomp_chars,
    inertia_chars,
    residue_char,
    residue_rank,
    residue_window,
)
from valdetect.fields import (
    ValuationHandle,
    parse_element,
    parse_field,
    parse_window,
    random_element,
)
from oracles import decomp_chars_by_walk


def test_evaluate_pinned(w_u_u3, w_t_c, F7u, F7t):
    f = Character.dual_by_label(w_u_u3, "u")
    assert f.evaluate(parse_element(F7u, "5*u")) == 1
    assert f.evaluate(F7u.one()) == 0
    ft = Character.dual_by_label(w_t_c, "t")
    assert ft.evaluate(parse_element(F7t, "t^2")) == 2


def test_evaluate_bilinear_random(w_tuu3, F7ut):
    rng = random.Random(23)
    chars = [Character.dual(w_tuu3, i) for i in range(3)]
    for _ in range(1000):
        f = chars[rng.randrange(3)]
        x = random_element(F7ut, rng)
        y = random_element(F7ut, rng)
        assert f.evaluate(x * y) == (f.evaluate(x) + f.evaluate(y)) % 3


def test_character_value_divisibility():
    F19t = parse_field("laurent(gf:19,t)")
    w = parse_window(F19t, "{ell=3,n=2,gens=[t,const]}")
    assert w.orders == (9, 9)
    Character(w, (1, 1))  # fine, both full order
    F7t = parse_field("laurent(gf:7,t)")
    w7 = parse_window(F7t, "{ell=3,n=2,gens=[t,const]}")
    assert w7.orders == (9, 3)
    with pytest.raises(PreconditionViolated):
        Character(w7, (0, 1))  # constant class has order 3 only
    Character(w7, (0, 3))


def test_reduce_level_functorial():
    F19t = parse_field("laurent(gf:19,t)")
    w = parse_window(F19t, "{ell=3,n=2,gens=[t,const]}")
    f = Character(w, (4, 7))
    assert f.reduce_level(2) == f
    assert f.reduce_level(1).values == (1, 1)
    assert f.reduce_level(2).reduce_level(1) == f.reduce_level(1)


def test_reduce_level_surjectivity_on_mu_rich_base():
    # 2*l^2 | q-1 holds for q = 19, l = 3
    F19t = parse_field("laurent(gf:19,t)")
    w2 = parse_window(F19t, "{ell=3,n=2,gens=[t,const]}")
    w1 = w2.at_level(1)
    level1 = {c.values for c in CharacterGroup.full(w1).elements()}
    reduced = {c.reduce_level(1).values
               for c in CharacterGroup.full(w2).elements()}
    assert reduced == level1


def test_inertia_pinned(w_t_c, w_tsc, F7t, F7st):
    v = ValuationHandle.from_steps(F7t, ["t"])
    I = inertia_chars(v, w_t_c)
    assert I.labels() == ["t"]
    triv = ValuationHandle.trivial(F7t)
    assert inertia_chars(triv, w_t_c).rank == 0
    vc = ValuationHandle.from_steps(F7st, ["t", "s"])
    Ic = inertia_chars(vc, w_tsc)
    assert Ic.rank == 2 and Ic.labels() == ["t", "s"]


def test_inertia_matches_unit_scan(w_t_c, F7t):
    # oracle: characters vanishing on classes of scanned units
    from valdetect.fields import enumerate_elements, value_of
    v = ValuationHandle.from_steps(F7t, ["t"])
    unit_classes = []
    for x in enumerate_elements(F7t, 8):
        if x.is_zero():
            continue
        if value_of(v, x) == (0,):
            unit_classes.append(w_t_c.classify(x))
    scanned = CharacterGroup.killing_classes(w_t_c, unit_classes)
    assert scanned == inertia_chars(v, w_t_c)


def test_decomp_pinned(w_t_c, w_u_u3, F7t, F7u):
    v = ValuationHandle.from_steps(F7t, ["t"])
    D, cert = decomp_chars(v, w_t_c)
    assert cert.exact and D == CharacterGroup.full(w_t_c)
    triv = ValuationHandle.trivial(F7t)
    Dt, certt = decomp_chars(triv, w_t_c)
    assert certt.exact and Dt == CharacterGroup.full(w_t_c)
    vu = ValuationHandle.from_steps(F7u, ["u"])
    Du, certu = decomp_chars(vu, w_u_u3, height=4)
    assert Du.labels() == ["u"]
    assert certu.exact and certu.describe() == "exact"


def test_inertia_below_decomposition(w_t_c, w_u_u3, w_tuu3, F7t, F7u, F7ut):
    cases = [
        (w_t_c, ValuationHandle.from_steps(F7t, ["t"])),
        (w_u_u3, ValuationHandle.from_steps(F7u, ["u"])),
        (w_u_u3, ValuationHandle.from_steps(F7u, ["u-3"])),
        (w_tuu3, ValuationHandle.from_steps(F7ut, ["t"])),
        (w_tuu3, ValuationHandle.from_steps(F7ut, ["t", "u"])),
    ]
    for w, v in cases:
        I = inertia_chars(v, w)
        D, _ = decomp_chars(v, w, height=3)
        assert I <= D


def test_exactness_of_residue_sequence(w_tuu3, F7ut):
    # 1 -> I_v -> D_v -> residue characters -> 1 on a Laurent tower
    v = ValuationHandle.from_steps(F7ut, ["t"])
    I = inertia_chars(v, w_tuu3)
    D, cert = decomp_chars(v, w_tuu3)
    assert cert.exact
    rw = residue_window(v, w_tuu3)
    res_full = CharacterGroup.full(rw)
    images = {residue_char(f, v, w_tuu3, decomp=D).values
              for f in D.elements()}
    assert images == {c.values for c in res_full.elements()}
    kernel = [f for f in D.elements()
              if residue_char(f, v, w_tuu3, decomp=D).is_zero()]
    assert {f.values for f in kernel} == {c.values for c in I.elements()}


def test_residue_char_examples(w_tuu3, F7ut):
    v = ValuationHandle.from_steps(F7ut, ["t"])
    fu = Character.dual_by_label(w_tuu3, "u")
    res = residue_char(fu, v, w_tuu3)
    assert res.label() == "u"
    ft = Character.dual_by_label(w_tuu3, "t")
    assert residue_char(ft, v, w_tuu3).is_zero()
    with pytest.raises(NotInDecomposition):
        # a character outside D of the composite [t,(u)]
        vc = ValuationHandle.from_steps(F7ut, ["t", "u"])
        residue_char(Character.dual_by_label(w_tuu3, "u+4"), vc, w_tuu3)


def test_residue_window_after_place(F7u, w_u_u3):
    vu = ValuationHandle.from_steps(F7u, ["u"])
    rw = residue_window(vu, w_u_u3)
    assert rw.rank == 0  # constants and unlisted places fill the kernel
    assert residue_rank(vu, w_u_u3) == 0


def test_inertia_equality_transfer_across_levels():
    # with 2 l^N | q-1: subgroup equalities transfer between levels
    m = parse_field("laurent(laurent(gf:19,s),t)")
    w2 = parse_window(m, "{ell=3,n=2,gens=[t,s,const]}")
    w1 = w2.at_level(1)
    v = ValuationHandle.from_steps(m, ["t"])
    wv = ValuationHandle.from_steps(m, ["t", "s"])
    for win in (w2, w1):
        Iv, Iw = inertia_chars(v, win), inertia_chars(wv, win)
        Dv, _ = decomp_chars(v, win)
        Dw, _ = decomp_chars(wv, win)
        assert (Iv == Iw) is False
        assert (Dv == Dw) is True
    # equality at level N iff at level n, tested on the I side via reduction
    I2v = inertia_chars(v, w2).reduce_level(1)
    assert I2v == inertia_chars(v, w1)


def test_group_operations(w_t_c):
    full = CharacterGroup.full(w_t_c)
    assert len(full.elements()) == 9
    ft = Character.dual_by_label(w_t_c, "t")
    sub = CharacterGroup(w_t_c, (ft,))
    assert sub <= full and not full <= sub
    assert full.quotient_orders(sub) == [3]
    assert full.quotient_is_cyclic(sub)
    inter = full.intersect(sub)
    assert inter == sub
    assert sub.member_quasi_basis()[0][1] == 3


def test_window_level_mismatch(w_t_c, w_u_u3):
    f = Character.dual(w_t_c, 0)
    g = Character.dual(w_u_u3, 0)
    with pytest.raises(LevelMismatch):
        f + g


def test_dual_by_label_errors(w_u_u3, monkeypatch):
    # any representative of a listed place names it
    assert Character.dual_by_label(w_u_u3, "2*u+1") == \
        Character.dual_by_label(w_u_u3, "u-3")
    # labels that are not listed places, or not polynomials at all, get the
    # documented error
    for label in ("u-1", "1/u", "v", "u+"):
        with pytest.raises(PreconditionViolated, match="no window generator"):
            Character.dual_by_label(w_u_u3, label)
    # a failure inside the polynomial parser is no longer taken for "not a
    # place label"

    def broken(model, s):
        raise RuntimeError("internal failure")

    import valdetect.fields
    monkeypatch.setattr(valdetect.fields, "_parse_poly", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        Character.dual_by_label(w_u_u3, "u-1")


# windows that omit the top uniformizer or list it away from the front, with
# the base window each should drop to
TOP_LAYOUTS = [
    ("laurent(laurent(gf:7,s),t)", "s,const", "s,const"),
    ("laurent(laurent(gf:7,s),t)", "const,s,t", "const,s"),
    ("laurent(laurent(gf:7,s),t)", "s,t", "s"),
    ("laurent(ratfunc(gf:7,u),t)", "u,t,u-3", "u,u-3"),
    ("laurent(ratfunc(gf:7,u),t)", "u-3,u", "u-3,u"),
]


def _duals(window, labels):
    """The duals of those of `labels` that the window lists."""
    listed = [window.gen_label(i) for i in range(window.rank)]
    return CharacterGroup(window, [Character.dual_by_label(window, lab)
                                   for lab in labels if lab in listed])


def _one_plus_place_classes(window, place):
    """Classes of 1 + P*(a/b) + t over deg a <= 1 and monic deg b <= 1 with
    b(0) != 0, built as elements of the whole tower."""
    model = window.model
    base = model.base
    ff = base.ff
    out = set()
    for b in [(ff.one,)] + [(c, ff.one) for c in range(1, ff.q)]:
        for a in [(c0, c1) for c0 in range(ff.q) for c1 in range(ff.q)]:
            y = base.from_poly(ff.poly_mul(place, a), b) + base.one()
            if y.is_zero():
                continue
            x = model.from_terms({0: y, 1: base.one()})
            out.add(window.classify(x))
    return out


@pytest.mark.parametrize("fspec,gens,base_gens", TOP_LAYOUTS)
def test_valuation_groups_when_top_is_omitted_or_reordered(fspec, gens,
                                                           base_gens):
    model = parse_field(fspec)
    w = parse_window(model, f"{{ell=3,n=1,gens=[{gens}]}}")
    top = ValuationHandle.from_steps(model, ["t"])
    assert residue_window(top, w) == parse_window(
        model.base, f"{{ell=3,n=1,gens=[{base_gens}]}}")
    assert inertia_chars(top, w) == _duals(w, ["t"])
    D, cert = decomp_chars(top, w)
    assert D == CharacterGroup.full(w) and cert.exact
    lower = "s" if model.base.kind == "laurent" else "u"
    chain = ValuationHandle.from_steps(model, ["t", lower])
    assert inertia_chars(chain, w) == _duals(w, ["t", lower])
    D, cert = decomp_chars(chain, w)
    if lower == "s":
        # 1 + m is made of l^n-th powers at both Laurent steps
        assert D == CharacterGroup.full(w) and cert.exact
        assert residue_window(chain, w).gens == \
            (("const",),) * ("const" in gens)
    else:
        place = chain.steps[1][1]
        assert D == CharacterGroup.killing_classes(
            w, sorted(_one_plus_place_classes(w, place)))
        assert residue_window(chain, w).rank == 0


# (field, window, place): listed and unlisted places of degree 1 and 2 over
# gf:7, gf:13 and gf:9, and one window in characteristic 2
DECOMP_PLACES = [
    ("ratfunc(gf:7,u)", "u,u-3", "u"),
    ("ratfunc(gf:7,u)", "u,u-3", "u-1"),
    ("ratfunc(gf:7,u)", "u,u-3,const", "u-3"),
    ("ratfunc(gf:7,u)", "u,u^2+1", "u^2+1"),
    ("ratfunc(gf:7,u)", "u,u^2+1", "u"),
    ("ratfunc(gf:7,u)", "u,u-3", "u^2+1"),
    ("ratfunc(gf:13,u)", "u,u-1,const", "u-1"),
    ("ratfunc(gf:13,u)", "u,u-1,const", "u-2"),
    ("ratfunc(gf:9,u)", "u,u-1,const", "u"),
    ("ratfunc(gf:9,u)", "u,u-1,const", "u-1"),
    ("ratfunc(gf:9,u)", "u,u-1", "u^2+(z+1)*u+1"),
    ("ratfunc(gf:9,u)", "u,u^2+(z+1)*u+1", "u^2+(z+1)*u+1"),
    ("ratfunc(gf:4,u)", "u,u+1", "u"),
]


@pytest.mark.parametrize("fspec,gens,place", DECOMP_PLACES)
def test_decomp_at_place_is_the_stabilized_sweep(fspec, gens, place):
    # the closed form <chi_P> (trivial for an unlisted P) against the
    # sweep of the classes of 1 + P*(a/b), which stabilizes by degree 3
    model = parse_field(fspec)
    ell = 3 if model.ff.q % 3 == 1 else 2
    w = parse_window(model, f"{{ell={ell},n=1,gens=[{gens}]}}")
    v = ValuationHandle.from_steps(model, [place])
    D, cert = decomp_chars(v, w)
    swept, stable = decomp_chars_by_walk(v, w, 3)
    assert cert.exact and stable is not None
    assert D == swept
    listed = place in gens.split(",")
    assert D == CharacterGroup(w, (Character.dual_by_label(w, place),)
                               if listed else ())
