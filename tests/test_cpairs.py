import dataclasses
import importlib.util
import itertools
import pathlib
import random

import pytest

import valdetect.cpairs as cpairs
from valdetect.coeffmod import vectors_cyclic
from valdetect.errors import (
    LevelMismatch,
    NotQuasiIndependent,
    PreconditionViolated,
    RankNotTwo,
)
from valdetect.characters import Character, CharacterGroup, decomp_chars, \
    inertia_chars, residue_char, residue_window
from valdetect.cpairs import (
    CPAIR,
    CPAIR_UP_TO,
    NOT_CPAIR,
    c_center,
    c_group,
    c_pair_direct,
    c_pair_ktheory,
    cyclic_pair_transfer,
    quasi_independent,
)
from valdetect.fields import (
    ValuationHandle,
    format_element,
    parse_element,
    parse_field,
    parse_window,
)
from valdetect.milnor import steinberg_scan
from valdetect.scans import (
    ScanIndex,
    Verdict,
    exhaustive_classes,
    scan_index,
    wedge_of,
)


def _c_pair_by_scan(f, g, height):
    """Reference C-pair verdict: the identity f(1-x)g(x) = f(x)g(1-x) on
    every table entry, in stream order."""
    w = f.window
    if CharacterGroup(w, (f, g)).is_cyclic():
        return Verdict(CPAIR, height, method="direct", exact=True)
    mod = w.level.modulus
    for ent in scan_index(w, height).entries(height):
        if ent.cls_1mx is None:
            continue
        lhs = f.evaluate_class(ent.cls_1mx) * g.evaluate_class(ent.cls_x)
        rhs = f.evaluate_class(ent.cls_x) * g.evaluate_class(ent.cls_1mx)
        if (lhs - rhs) % mod:
            return Verdict(NOT_CPAIR, height, witness=ent.element(),
                           method="direct", exact=True)
    if exhaustive_classes(w, height):
        return Verdict(CPAIR, height, method="direct", exact=True)
    return Verdict(CPAIR_UP_TO, height, method="direct", exact=False)


# (field, window, heights): mixed generator orders (4, 4, 2) at l = 2,
# rational functions, Laurent towers over finite fields and over F7(u)
ORACLE_WINDOWS = [
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,const]}", (1, 2)),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", (1, 2)),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", (2, 8)),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", (2, 4)),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", (2, 4)),
]
ORACLE_IDS = ["F5u-l2", "F7u-const", "F7t", "F7st", "F7ut"]


def test_direct_pinned_ratfunc(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    v = c_pair_direct(f, g, 4)
    assert v.kind == "NotCPair"
    assert format_element(v.witness) == "5*u"
    # replay: f(1-z)g(z) != f(z)g(1-z)
    z = v.witness
    one_minus = w_u_u3.model.one() - z
    assert (f.evaluate(one_minus) * g.evaluate(z)) % 3 != \
        (f.evaluate(z) * g.evaluate(one_minus)) % 3


@pytest.mark.parametrize("field, window, heights", ORACLE_WINDOWS,
                         ids=ORACLE_IDS)
def test_direct_matches_full_scan(field, window, heights):
    # the wedge pairing gives the full scan's verdict and minimal witness
    w = parse_window(parse_field(field), window)
    chars = CharacterGroup.full(w).elements()
    for h in heights:
        negatives = 0
        for f, g in itertools.combinations_with_replacement(chars, 2):
            fast, ref = c_pair_direct(f, g, h), _c_pair_by_scan(f, g, h)
            assert (fast.kind, fast.exact) == (ref.kind, ref.exact)
            assert fast.payload() == ref.payload()
            negatives += fast.kind == NOT_CPAIR
        if "ratfunc" in field:
            assert negatives > 0


@pytest.mark.parametrize("field, window, heights", ORACLE_WINDOWS,
                         ids=ORACLE_IDS)
def test_wedge_entries_are_first_occurrences(field, window, heights):
    # the kernel holds the first entry of each distinct wedge of what the
    # linear verdicts read: the table, or where the span is full the span
    # prefix, whose Steinberg witnesses open the table's, entry for entry
    w = parse_window(parse_field(field), window)
    for h in heights:
        index = scan_index(w, h)
        table = [ent for ent in index.entries(h) if ent.cls_1mx is not None
                 and any(wedge_of(w, ent.cls_x, ent.cls_1mx))]
        read = table
        if index.spans:
            read = index.span_prefix()
            assert [(e.key, e.cls_x, e.cls_1mx, e.cls_1px) for e in read] \
                == [(e.key, e.cls_x, e.cls_1mx, e.cls_1px)
                    for e in table[:len(read)]]
        expected, seen = [], set()
        for ent in read:
            if ent.cls_1mx is None:
                continue
            wedge = wedge_of(w, ent.cls_x, ent.cls_1mx)
            if any(wedge) and wedge not in seen:
                seen.add(wedge)
                expected.append((wedge, ent))
        got = list(index.pair_kernel(h)[0])
        assert [wd for wd, _ in got] == [wd for wd, _ in expected]
        assert all(a is b for (_, a), (_, b) in zip(got, expected))
        keys = [ent.key for _, ent in got]
        assert keys == sorted(keys)


# (field, window, height) at level 9: a table that closes, one in
# characteristic 2 (not exhaustive) and one at a Laurent height below l^n
# (exhaustive, as its base is)
REORDER_WINDOWS = [
    ("ratfunc(gf:19,u)", "{ell=3,n=2,gens=[u,u-1]}", 1),
    ("ratfunc(gf:4,u)", "{ell=3,n=2,gens=[u,u+1]}", 1),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", 2),
]
REORDER_IDS = ["F19u-closed", "F4u-char2", "F19t-low"]


@pytest.mark.parametrize("field, window, height", REORDER_WINDOWS,
                         ids=REORDER_IDS)
def test_direct_reads_no_table_when_the_wedge_vanishes(monkeypatch, field,
                                                       window, height):
    w = parse_window(parse_field(field), window)
    exhaustive = exhaustive_classes(w, height)
    assert exhaustive == (field != "ratfunc(gf:4,u)")

    def char(*vals):
        return Character(w, vals)
    # cyclic pairs, and (3,0), (0,3): f ^ g = 9 = 0 mod 9, not cyclic
    cyclic = [(char(3, 0), char(3, 0)), (char(3, 0), char(6, 0)),
              (char(0, 0), char(0, 3)), (char(1, 2), char(4, 8))]
    split = (char(3, 0), char(0, 3))
    refs = [_c_pair_by_scan(f, g, height) for f, g in cyclic + [split]]

    def refuse(self, h):
        raise AssertionError("the scan table was read")
    monkeypatch.setattr(ScanIndex, "pair_kernel", refuse)
    for (f, g), ref in zip(cyclic, refs):
        got = c_pair_direct(f, g, height)
        assert (got.kind, got.exact) == (CPAIR, True)
        assert got.payload() == ref.payload()
    got = c_pair_direct(*split, height)
    assert (got.kind, got.exact) == ((CPAIR, True) if exhaustive
                                     else (CPAIR_UP_TO, False))
    assert got.payload() == refs[-1].payload()


@pytest.mark.parametrize("field, window, height", REORDER_WINDOWS,
                         ids=REORDER_IDS)
def test_direct_asks_for_cyclicity_only_after_a_bounded_pass(
        monkeypatch, field, window, height):
    w = parse_window(parse_field(field), window)
    exhaustive = exhaustive_classes(w, height)
    chars = CharacterGroup.full(w).elements()
    pairs = random.Random(25).sample(
        list(itertools.combinations_with_replacement(chars, 2)), 300)
    refs = [_c_pair_by_scan(f, g, height) for f, g in pairs]
    asked = []

    def counted(*args):
        asked.append(args)
        return vectors_cyclic(*args)
    monkeypatch.setattr(cpairs, "vectors_cyclic", counted)
    kinds = set()
    for (f, g), ref in zip(pairs, refs):
        before = len(asked)
        got = c_pair_direct(f, g, height)
        assert got.payload() == ref.payload()
        assert (len(asked) > before) == (not exhaustive and got.holds())
        kinds.add(got.kind)
    assert NOT_CPAIR in kinds or field.startswith("laurent")


def _cl_check_tower_pairs(seed):
    """The tower pairs of the cl-check benchmark workload at `seed`, drawn
    by bench/inputs.py itself."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.make_inputs("cl-check", seed)["tower_pairs"]


CL_TOWER = ("laurent(laurent(gf:19,s),t)", "{ell=3,n=2,gens=[t,s,const]}")
# the REORDER_WINDOWS at their height and at one more: 0 on the rational
# function windows, whose block 0 lacks every first violation of height 1,
# and 9 on the Laurent one, where its table becomes exhaustive; and the
# cl-check tower
MEMO_ORDER_WINDOWS = [
    (field, window, (height, other)) for (field, window, height), other
    in zip(REORDER_WINDOWS, (0, 0, 9))] + [(*CL_TOWER, (2, 9))]


@pytest.mark.parametrize("field, window, heights", MEMO_ORDER_WINDOWS,
                         ids=REORDER_IDS + ["F19st-cl-check"])
def test_direct_verdicts_do_not_depend_on_query_order(field, window,
                                                      heights):
    # the pair kernel keeps the first violation per f ^ g, and passing
    # pairs share one verdict per height and exactness: answering the pairs
    # forward, then reversed, on a warm index gives every pair the full
    # scan's payload both times, and a shared verdict cannot be altered;
    # each height comes back after the other, so no height reads another's
    # memo unseen
    w = parse_window(parse_field(field), window)
    if (field, window) == CL_TOWER:
        pairs = [(Character(w, tuple(f)), Character(w, tuple(g)))
                 for f, g in _cl_check_tower_pairs(1)]
    else:
        pairs = random.Random(25).sample(list(
            itertools.combinations_with_replacement(
                CharacterGroup.full(w).elements(), 2)), 300)
    for h in heights + heights[::-1]:
        refs = [_c_pair_by_scan(f, g, h).payload() for f, g in pairs]
        shared = {}
        for order in (1, -1):
            for (f, g), ref in list(zip(pairs, refs))[::order]:
                got = c_pair_direct(f, g, h)
                assert got.payload() == ref, (f.values, g.values, h, order)
                if got.holds():
                    assert shared.setdefault(got.kind, got) is got
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        got.kind = NOT_CPAIR
        assert shared


def test_direct_trivial_and_laurent(w_t_c):
    f = Character.dual_by_label(w_t_c, "t")
    assert c_pair_direct(f, f, 8).kind == "CPair"
    g = Character.dual_by_label(w_t_c, "const")
    verdict = c_pair_direct(f, g, 8)
    assert verdict.kind == "CPair" and verdict.exact


def test_ktheory_pinned(w_u_u3, w_t_c):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    sp = steinberg_scan(w_u_u3, 4, stop_at_floor=True)
    v = c_pair_ktheory(f, g, sp)
    assert v.kind == "NotCPair" and v.exact
    assert format_element(v.witness) == "5*u"
    ft = Character.dual_by_label(w_t_c, "t")
    fc = Character.dual_by_label(w_t_c, "const")
    spt = steinberg_scan(w_t_c, 8)
    assert c_pair_ktheory(ft, fc, spt).kind == "CPair"


def test_ktheory_guards(w_u_u3, w_tuu3):
    sp = steinberg_scan(w_u_u3, 2)
    f = Character.dual_by_label(w_u_u3, "u")
    with pytest.raises(NotQuasiIndependent):
        c_pair_ktheory(f, f.scale(2), sp)
    sp3 = steinberg_scan(w_tuu3, 2)
    a = Character.dual_by_label(w_tuu3, "t")
    b = Character.dual_by_label(w_tuu3, "u")
    with pytest.raises(RankNotTwo):
        c_pair_ktheory(a, b, sp3)


def test_criterion_agreement_exhaustive(w_u_u3, w_t_c):
    # every quasi-independent pair, both windows, both methods
    for w, h in ((w_u_u3, 4), (w_t_c, 8)):
        sp = steinberg_scan(w, h, stop_at_floor=True)
        chars = CharacterGroup.full(w).elements()
        pairs = 0
        for f, g in itertools.combinations(chars, 2):
            if f.is_zero() or g.is_zero() or not quasi_independent(f, g):
                continue
            pairs += 1
            assert c_pair_direct(f, g, h).holds() == \
                c_pair_ktheory(f, g, sp).holds()
        assert pairs > 0


def test_lemma_inertia_decomposition_pairs(w_t_c, w_tuu3):
    # every (i, d) with i inertial and d decomposing is a C-pair
    cases = [
        (w_t_c, ValuationHandle.from_steps(w_t_c.model, ["t"]), 8),
        (w_tuu3, ValuationHandle.from_steps(w_tuu3.model, ["t"]), 4),
    ]
    for w, v, h in cases:
        I = inertia_chars(v, w)
        D, _ = decomp_chars(v, w, h)
        for i in I.elements():
            for d in D.elements():
                assert c_pair_direct(i, d, h).holds()


def test_residue_compatibility_exhaustive(w_tuu3):
    # verdicts of f, g in D_v match the verdicts of their residues
    v = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    D, _ = decomp_chars(v, w_tuu3, 4)
    rw = residue_window(v, w_tuu3)
    els = D.elements()
    for f, g in itertools.combinations(els, 2):
        up = c_pair_direct(f, g, 4).holds()
        down = c_pair_direct(residue_char(f, v, w_tuu3, decomp=D),
                             residue_char(g, v, w_tuu3, decomp=D), 4).holds()
        assert up == down


def test_c_group_examples(w_t_c, w_tuu3):
    full_t = CharacterGroup.full(w_t_c)
    assert c_group(full_t, 8).kind == "CGroup"
    full3 = CharacterGroup.full(w_tuu3)
    verdict = c_group(full3, 4)
    assert verdict.kind == "NotCGroup"
    assert format_element(verdict.witness) == "5*u"
    rank1 = CharacterGroup(w_tuu3, (Character.dual_by_label(w_tuu3, "t"),))
    assert c_group(rank1, 4).holds()


def test_c_center_examples(w_tuu3, w_t_c):
    full = CharacterGroup.full(w_tuu3)
    center = c_center(full, 4)
    assert center.labels() == ["t"]
    # a C-group is its own center
    full_t = CharacterGroup.full(w_t_c)
    assert c_center(full_t, 8) == full_t
    # rank-1 groups are their own center
    rank1 = CharacterGroup(w_t_c, (Character.dual_by_label(w_t_c, "t"),))
    assert c_center(rank1, 8) == rank1


def test_c_center_closure_by_bilinearity(w_tuu3):
    # if (f,g) and (f,h) are C-pairs then f pairs with all of <g, h>
    full = CharacterGroup.full(w_tuu3)
    center = c_center(full, 4)
    for f in center.elements():
        for g in full.elements():
            assert c_pair_direct(f, g, 4).holds()


def _c_center_by_members(group, height):
    """Reference C-center: the members of A that form a C-pair with every
    quasi-basis element of A, tested one member at a time."""
    basis = [c for c, _ in group.member_quasi_basis()]
    members = [f for f in group.elements()
               if all(c_pair_direct(f, g, height).holds() for g in basis)]
    center = CharacterGroup(group.window, tuple(members))
    # bilinearity makes the members a subgroup
    assert {c.values for c in center.elements()} == \
        {f.values for f in members}
    return center


def _test_subgroups(w):
    """The full group, and <d_i>, <d_i, d_j>, <d_i + d_j> and
    <d_i + d_j, d_k> for the generator duals d."""
    d = [Character.dual(w, i) for i in range(w.rank)]
    yield CharacterGroup.full(w)
    for x in d:
        yield CharacterGroup(w, (x,))
    for x, y in itertools.combinations(d, 2):
        yield CharacterGroup(w, (x, y))
        yield CharacterGroup(w, (x + y,))
    for x, y, z in itertools.combinations(d, 3):
        yield CharacterGroup(w, (x + y, z))


# (field, window, heights): F7(u) at ranks 3 and 4, generator orders
# (4, 4, 2) at l = 2 over F5(u) and F13(u), Laurent towers over finite
# fields (n = 2 over F19, l = 2 over F5) and F7(u)((t))
CENTER_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", (1, 2)),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-1,u-2,const]}", (1, 2)),
    ("ratfunc(gf:5,u)", "{ell=2,n=2,gens=[u,u-1,const]}", (1, 2)),
    ("ratfunc(gf:13,u)", "{ell=2,n=2,gens=[u,u-1,const]}", (1, 2)),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", (2, 8)),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", (4, 9)),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", (2, 4)),
    ("laurent(laurent(gf:19,s),t)", "{ell=3,n=2,gens=[t,s,const]}", (2, 4)),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", (2, 6)),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", (2, 4)),
]
CENTER_IDS = ["F7u-r3", "F7u-r4", "F5u-l2", "F13u-l2", "F7t", "F19t-n2",
              "F7st", "F19st-n2", "F5st-l2", "F7ut"]


@pytest.mark.parametrize("field,window,heights", CENTER_WINDOWS,
                         ids=CENTER_IDS)
def test_c_center_kernel_matches_member_scan(field, window, heights):
    # the kernel gives the enumerated center's Howell form, hence the same
    # labels and members, on the full group and on proper subgroups
    w = parse_window(parse_field(field), window)
    for h in heights:
        for group in _test_subgroups(w):
            ref = _c_center_by_members(group, h)
            center = c_center(group, h)
            assert center == ref, (h, group)
            assert center.labels() == ref.labels()
            assert [c.values for c in center.elements()] == \
                [c.values for c in ref.elements()]


def test_vectors_cyclic():
    assert vectors_cyclic((2, 4), (1, 2), 3, 2)
    assert vectors_cyclic((0, 0), (1, 5), 3, 2)
    assert not vectors_cyclic((1, 0), (0, 1), 3, 2)


def test_cyclic_pair_transfer_exhaustive_mod8():
    # ad = bc over Z/8 with c a unit mod 4 forces (a,b) in <(c,d)> mod 4
    for a, b, c, d in itertools.product(range(8), repeat=4):
        if (a * d - b * c) % 8:
            continue
        if c % 4 == 0:
            continue
        assert vectors_cyclic((a, b), (c, d), 2, 2)


def test_cyclic_pair_transfer_on_characters(w_t_c):
    # M1(1) = 1, so level-1 C-pairs transfer to themselves
    f = Character.dual_by_label(w_t_c, "t")
    g = Character.dual_by_label(w_t_c, "const")
    x = parse_element(w_t_c.model, "t+3")
    assert cyclic_pair_transfer(f, g, x, 1)
    zero_psi_x = parse_element(w_t_c.model, "1+t")
    assert cyclic_pair_transfer(f, g, zero_psi_x, 1)
    with pytest.raises(LevelMismatch):
        cyclic_pair_transfer(f, g, x, 2)


def test_cyclic_pair_transfer_rejects_non_cpair(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    with pytest.raises(PreconditionViolated):
        cyclic_pair_transfer(f, g, parse_element(w_u_u3.model, "u+1"), 1)


def test_transfer_at_level_three_to_two():
    # a genuine level drop: M1(2) = 3 over a mu-rich constant field
    m = parse_field("laurent(gf:109,t)")  # 2*27 | 108
    w3 = parse_window(m, "{ell=3,n=3,gens=[t,const]}")
    f = Character.dual_by_label(w3, "t")
    g = Character.dual_by_label(w3, "const")
    x = parse_element(m, "t+3")
    assert cyclic_pair_transfer(f, g, x, 2)
