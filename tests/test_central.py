import itertools
import random

import pytest

import valdetect.central as central
from valdetect.coeffmod import Level, howell_form, kernel_mod, span_contains
from valdetect.errors import FrameMismatch, PreconditionViolated, WrongLevel
from valdetect.characters import Character, CharacterGroup
from valdetect.cpairs import c_center, c_pair_direct
from valdetect.central import (
    AbelianElement,
    CentralFrame,
    beta_power,
    canonical_omega,
    cl_center,
    cl_pair,
    commutator,
    frame_from_k2,
    free_frame,
    heisenberg_mul,
    heisenberg_pow,
    ibcl_alt_check,
    minimized_identity_check,
    pi_power,
)
from valdetect.fields import (
    ValuationHandle,
    format_element,
    parse_field,
    parse_window,
)
from valdetect.milnor import steinberg_scan

from oracles import canonical_omega_code_by_order_loop, submodule_contains


def test_commutator_basis_cases():
    fr = free_frame(Level(3, 1), ("g1", "g2"))
    s = AbelianElement(fr, (1, 0))
    t = AbelianElement(fr, (0, 1))
    assert commutator(s, t).coords == (1, 0, 0)
    assert commutator(s, s).is_zero()
    mixed = AbelianElement(fr, (1, 1))
    assert commutator(mixed, t).coords == (1, 0, 0)


def test_commutator_antisymmetric_bilinear():
    fr = free_frame(Level(3, 2), ("a", "b", "c"))
    els = [AbelianElement(fr, v)
           for v in itertools.product((0, 1, 5), repeat=3)]
    for s in els:
        for t in els:
            st = commutator(s, t)
            ts = commutator(t, s)
            assert (st + ts).is_zero()
    s, t, u = els[1], els[5], els[9]
    lhs = commutator(AbelianElement(fr, tuple(
        (a + b) % 9 for a, b in zip(s.coeffs, t.coeffs))), u)
    rhs = commutator(s, u) + commutator(t, u)
    assert lhs.coords == rhs.coords


def test_pi_power_generator_case():
    fr = free_frame(Level(3, 1), ("g1", "g2"))
    g1 = AbelianElement(fr, (1, 0))
    assert pi_power(g1).coords == (0, 1, 0)


def test_beta_linear_all_small_frames():
    for ell, n, r in ((2, 1, 2), (2, 2, 3), (3, 1, 3), (3, 2, 2)):
        fr = free_frame(Level(ell, n), tuple(f"g{i}" for i in range(r)))
        mod = ell ** n
        vals = range(mod)
        els = [AbelianElement(fr, v)
               for v in itertools.product(vals, repeat=r)]
        for s in els:
            for t in els:
                summed = AbelianElement(fr, tuple(
                    (a + b) % mod for a, b in zip(s.coeffs, t.coeffs)))
                assert beta_power(summed).coords == \
                    (beta_power(s) + beta_power(t)).coords


def test_pi_nonlinear_at_two_but_beta_linear():
    fr = free_frame(Level(2, 1), ("g1", "g2"))
    s = AbelianElement(fr, (1, 0))
    t = AbelianElement(fr, (0, 1))
    st = AbelianElement(fr, (1, 1))
    # the correction 2*1/2 = 1 shows up on the commutator coordinate
    assert pi_power(st).coords != (pi_power(s) + pi_power(t)).coords
    assert beta_power(st).coords == (beta_power(s) + beta_power(t)).coords


def test_power_identity_heisenberg_oracle():
    # brute force in the Heisenberg group over Z/l^(2n) vs the normal form
    for ell, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ln = ell ** n
        m = ell ** (2 * n)
        half = ln * (ln - 1) // 2
        fr = free_frame(Level(ell, n), ("x", "y"))
        for s1 in range(ln):
            for s2 in range(ln):
                lift = heisenberg_mul((s1, 0, 0), (0, s2, 0), m)
                brute = heisenberg_pow(lift, ln, m)
                formula = pi_power(AbelianElement(fr, (s1, s2)))
                a12 = formula.coords[0]
                b1, b2 = formula.coords[1], formula.coords[2]
                assert (brute[0] - ln * b1) % m == 0
                assert (brute[1] - ln * b2) % m == 0
                # central coordinates compare modulo l^n after removing the
                # cross term of the ordered product x^(ln b1) y^(ln b2)
                assert (brute[2] - ln * b1 * ln * b2 - a12) % ln == 0
                assert (a12 + half * s1 * s2) % ln == 0


def test_cl_pair_free_frame():
    fr = free_frame(Level(3, 1), ("g1", "g2"))
    s = AbelianElement(fr, (1, 0))
    t = AbelianElement(fr, (0, 1))
    assert not cl_pair(s, t)
    assert cl_pair(s, s)
    assert cl_center([s, t], fr) == [AbelianElement(fr, (0, 0))]


def test_frame_span_members_are_sorted():
    # cl_center and ibcl_alt_check walk the members in sorted order
    fr = free_frame(Level(3, 2), ("a", "b"))
    gens = [AbelianElement(fr, (1, 3)), AbelianElement(fr, (0, 3))]
    got = [s.coeffs for s in fr.span(gens)]
    assert got == [(a, b) for a in range(9) for b in range(9) if b % 3 == 0]


def test_frame_from_k2_pinned_laurent(w_t_c):
    sp = steinberg_scan(w_t_c, 8)
    omega = canonical_omega(w_t_c)
    assert format_element(omega) == "2"
    frame = frame_from_k2(w_t_c, sp, omega)
    # R is spanned by [1,2] + 2 pi_1, matching the tame one-relator shape
    assert frame.relations == ((1, 2, 0),)
    ft = Character.dual_by_label(w_t_c, "t")
    fc = Character.dual_by_label(w_t_c, "const")
    assert cl_pair(AbelianElement.from_character(frame, ft),
                   AbelianElement.from_character(frame, fc))


def test_from_character_matches_the_checking_constructor(w_t_c, w19_t_c):
    # on a frame of its window's rank and level a character's values are
    # taken as they stand; they equal the reduced, length-checked vector
    for w, h in ((w_t_c, 8), (w19_t_c, 9)):
        frame = frame_from_k2(w, steinberg_scan(w, h))
        assert frame.fits_window
        for f in CharacterGroup.full(w).elements():
            got = AbelianElement.from_character(frame, f)
            want = AbelianElement(frame, f.values)
            assert got == want and hash(got) == hash(want)
    # a frame of another rank or level on the same window checks each one
    f = Character.dual_by_label(w_t_c, "t")
    for level, labels in ((w_t_c.level, ("t",)), (Level(3, 2), ("t", "c"))):
        other = CentralFrame(level, labels, (), None, w_t_c)
        assert not other.fits_window
        if len(labels) != w_t_c.rank:
            with pytest.raises(FrameMismatch):
                AbelianElement.from_character(other, f)
        else:
            assert AbelianElement.from_character(other, f) == \
                AbelianElement(other, f.values)


def test_frame_from_k2_pinned_ratfunc(w_u_u3):
    sp = steinberg_scan(w_u_u3, 4, stop_at_floor=True)
    frame = frame_from_k2(w_u_u3, sp)
    # the K2-quotient dies, so the relation module pairs with nothing
    assert frame.relations == ()
    fu = Character.dual_by_label(w_u_u3, "u")
    fu3 = Character.dual_by_label(w_u_u3, "u-3")
    assert not cl_pair(AbelianElement.from_character(frame, fu),
                       AbelianElement.from_character(frame, fu3))


def _frame_one_column_per_witness(window, sp):
    """Reference frame: the kernel of [I | B | St] with one Steinberg column
    per witness, projected, then annihilated."""
    level = window.level
    ell, n, mod = level.ell, level.n, level.modulus
    omega_cls = window.classify(canonical_omega(window))
    r = window.rank
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    ncols = len(pairs) + r
    big = []
    for c, (i, j) in enumerate(pairs):
        row = [0] * ncols
        row[c] = 1
        row[len(pairs) + i] = omega_cls[j]
        row[len(pairs) + j] = -omega_cls[i] % mod
        big.append(row + [wit.wedge[c] for wit in sp.witnesses])
    ker = kernel_mod(big, ell, n, len(big[0]))
    rel = kernel_mod([k[:ncols] for k in ker], ell, n, ncols)
    labels = tuple(window.gen_label(i) for i in range(r))
    return CentralFrame(level, labels, tuple(rel), omega_cls, window)


@pytest.mark.parametrize("field, window, height", [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-1,const]}", 2),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}", 4),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", 4),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,const]}", 2),
    ("laurent(gf:9,t)", "{ell=2,n=2,gens=[t,const]}", 6),
], ids=["F7u-const", "F7u", "F7ut", "F7ut-const", "F9t-l2"])
def test_frame_matches_one_column_per_witness(field, window, height):
    # the Howell rows of the distinct witness wedges span what the witness
    # columns span, so the relation module comes out identical
    w = parse_window(parse_field(field), window)
    sp = steinberg_scan(w, height)
    ref = _frame_one_column_per_witness(w, sp)
    assert frame_from_k2(w, sp).relations == ref.relations


def test_cl_matches_c_exhaustive_three_windows(w_u_u3, w_t_c, w_tuu3):
    for w, h in ((w_u_u3, 4), (w_t_c, 8), (w_tuu3, 4)):
        sp = steinberg_scan(w, h)
        frame = frame_from_k2(w, sp)
        chars = CharacterGroup.full(w).elements()
        for f, g in itertools.combinations_with_replacement(chars, 2):
            c_verdict = c_pair_direct(f, g, h).holds()
            cl_verdict = cl_pair(AbelianElement.from_character(frame, f),
                                 AbelianElement.from_character(frame, g))
            assert c_verdict == cl_verdict, (f.label(), g.label())


def test_cl_center_matches_c_center(w_tuu3, w_t_c):
    for w, h in ((w_tuu3, 4), (w_t_c, 8)):
        sp = steinberg_scan(w, h)
        frame = frame_from_k2(w, sp)
        full = CharacterGroup.full(w)
        cc = {c.values for c in c_center(full, h).elements()}
        clc = {a.coeffs for a in cl_center(
            [AbelianElement.from_character(frame, c) for c in full.gens],
            frame)}
        assert cc == clc


def test_ibcl_alternative(w_tuu3, w_t_c):
    for w, h in ((w_tuu3, 4), (w_t_c, 8)):
        sp = steinberg_scan(w, h)
        frame = frame_from_k2(w, sp)
        gens = [AbelianElement.from_character(frame, c)
                for c in CharacterGroup.full(w).gens]
        assert ibcl_alt_check(gens, frame)
    fr = free_frame(Level(3, 2), ("a", "b"))
    with pytest.raises(WrongLevel):
        ibcl_alt_check([AbelianElement(fr, (1, 0))], fr)


def test_minimized_identity(w_t_c, w_tuu3):
    sp = steinberg_scan(w_t_c, 8)
    omega = canonical_omega(w_t_c)
    frame = frame_from_k2(w_t_c, sp, omega)
    v = ValuationHandle.from_steps(w_t_c.model, ["t"])
    assert minimized_identity_check(v, w_t_c, frame, omega)
    sp3 = steinberg_scan(w_tuu3, 4)
    omega3 = canonical_omega(w_tuu3)
    frame3 = frame_from_k2(w_tuu3, sp3, omega3)
    v3 = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    assert minimized_identity_check(v3, w_tuu3, frame3, omega3)


def test_inertia_pairs_commute_in_frame(w_tsc):
    # sigma, tau both inertial: [sigma, tau] lies in the relation module
    sp = steinberg_scan(w_tsc, 6)
    frame = frame_from_k2(w_tsc, sp)
    from valdetect.characters import inertia_chars
    v = ValuationHandle.from_steps(w_tsc.model, ["t", "s"])
    I = inertia_chars(v, w_tsc)
    for s in I.elements():
        for t in I.elements():
            probe = commutator(AbelianElement.from_character(frame, s),
                               AbelianElement.from_character(frame, t))
            assert frame.contains_relation(probe.coords)


def test_frame_mismatch_guard():
    fr1 = free_frame(Level(3, 1), ("a", "b"))
    fr2 = free_frame(Level(3, 1), ("x", "y"))
    with pytest.raises(FrameMismatch):
        commutator(AbelianElement(fr1, (1, 0)), AbelianElement(fr2, (0, 1)))


def _cl_center_by_pairs(gens, frame):
    """Reference CL-center: cl_pair on every pair of members, then the
    closure check, member by member."""
    members = frame.span(gens)
    center = [s for s in members if all(cl_pair(s, t) for t in members)]
    center_set = {c.coeffs for c in center}
    for a in center:
        for b in center:
            summed = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            if AbelianElement(frame, summed).coeffs not in center_set:
                raise PreconditionViolated(
                    "CL-center failed to close under addition")
    return center


def _frame_subgroups(frame):
    """Generator lists of the full group, <e_i>, <e_i, e_j>, <e_i + e_j>,
    <e_i + e_j, e_k> and <l e_0, e_1, ...>."""
    r, ell = frame.rank, frame.level.ell
    e = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    subs = [e]
    subs += [[x] for x in e]
    for x, y in itertools.combinations(e, 2):
        subs += [[x, y], [tuple(a + b for a, b in zip(x, y))]]
    for x, y, z in itertools.combinations(e, 3):
        subs.append([tuple(a + b for a, b in zip(x, y)), z])
    subs.append([tuple(ell * a for a in e[0])] + e[1:])
    return [[AbelianElement(frame, v) for v in sub] for sub in subs]


# (field, window, heights): frames with R = 0 (F7(u)), with nonempty R
# (the Laurent towers and F7(u)((t))), at n = 2 (F19((t))) and at l = 2
CL_CENTER_WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", (1, 3)),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", (4, 9)),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", (2, 6)),
    ("laurent(gf:9,t)", "{ell=2,n=2,gens=[t,const]}", (6,)),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,const]}", (2,)),
]


@pytest.mark.parametrize("field, window, heights", CL_CENTER_WINDOWS,
                         ids=["F7u", "F19t-n2", "F5st-l2", "F9t-l2",
                              "F7ut-const"])
def test_cl_center_batched_matches_pairwise(field, window, heights):
    # the quotient pass keeps exactly the members the pairwise scan keeps,
    # in the same sorted order, on the full group and on proper subgroups
    w = parse_window(parse_field(field), window)
    for h in heights:
        frame = frame_from_k2(w, steinberg_scan(w, h))
        for gens in _frame_subgroups(frame):
            ref = _cl_center_by_pairs(gens, frame)
            assert cl_center(gens, frame) == ref, (h, gens)


def _random_frame(rng, ell, n, rank):
    """A frame whose relations tie [i,j] l^v to random pi coordinates, the
    shape of the tame relations, on a random set of pairs."""
    m, npairs = ell ** n, rank * (rank - 1) // 2
    rels = []
    for p in rng.sample(range(npairs), rng.randrange(1, npairs + 1)):
        row = [0] * npairs + [rng.randrange(m) for _ in range(rank)]
        row[p] = ell ** rng.randrange(n)
        rels.append(tuple(row))
    return CentralFrame(Level(ell, n), tuple("abcd"[:rank]), tuple(rels))


def test_cl_center_batched_on_random_and_hand_frames():
    # seeded frames at l = 2, 3, 5 and n = 1, 2, 3; relations with mixed
    # valuations, R killing all of Q (k = 0), and a level whose products
    # overflow int64
    rng = random.Random(5)
    for ell, n, rank in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 1, 3)):
        for _ in range(2):
            frame = _random_frame(rng, ell, n, rank)
            for gens in _frame_subgroups(frame):
                assert cl_center(gens, frame) == \
                    _cl_center_by_pairs(gens, frame)
    lv = Level(3, 2)
    mixed = CentralFrame(lv, ("a", "b"), ((3, 0, 6), (0, 0, 3)))
    assert mixed.module.quotient_width == 3
    dead = CentralFrame(lv, ("a", "b"), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert dead.module.quotient_width == 0
    big = CentralFrame(Level(3, 25), ("a", "b"), ((3 ** 24, 0, 3 ** 23),))
    for frame in (mixed, dead, big):
        for gens in _frame_subgroups(frame):
            if frame is big:
                gens = [AbelianElement(frame, tuple(3 ** 23 * c
                                                    for c in g.coeffs))
                        for g in gens]
            assert cl_center(gens, frame) == _cl_center_by_pairs(gens, frame)
    assert len(cl_center([AbelianElement(dead, (1, 0)),
                          AbelianElement(dead, (0, 1))], dead)) == 81


def test_cl_center_does_not_call_cl_pair(monkeypatch, w_t_c):
    frame = frame_from_k2(w_t_c, steinberg_scan(w_t_c, 8))
    gens = [AbelianElement(frame, (1, 0)), AbelianElement(frame, (0, 1))]
    ref = _cl_center_by_pairs(gens, frame)

    def refuse(*args):
        raise AssertionError("cl_center called cl_pair")
    monkeypatch.setattr(central, "cl_pair", refuse)
    assert cl_center(gens, frame) == ref


def test_cl_center_closure_check_raises(monkeypatch):
    # a kernel that keeps {0, a} in (Z/3)^2 keeps a set not closed under
    # addition, since a + a is missing
    fr = free_frame(Level(3, 1), ("a", "b"))
    gens = [AbelianElement(fr, (1, 0)), AbelianElement(fr, (0, 1))]

    def not_closed(frame, vecs):
        return [tuple(v) in ((0, 0), (1, 0)) for v in vecs.tolist()]
    monkeypatch.setattr(central, "_cl_center_mask", not_closed)
    with pytest.raises(PreconditionViolated):
        cl_center(gens, fr)


def test_cl_center_729_members_equals_c_center():
    # laurent(laurent(gf:19,s),t) at n = 2: the whole group is central
    w = parse_window(parse_field("laurent(laurent(gf:19,s),t)"),
                     "{ell=3,n=2,gens=[t,s,const]}")
    frame = frame_from_k2(w, steinberg_scan(w, 9))
    full = CharacterGroup.full(w)
    center = cl_center(
        [AbelianElement.from_character(frame, c) for c in full.gens], frame)
    assert len(center) == 729
    assert {a.coeffs for a in center} == \
        {c.values for c in c_center(full, 9).elements()}


def _ibcl_alt_by_members(gens, frame):
    """Reference alternative description: <beta rows of every member> + R
    as one Howell form over the full [i,j] + pi basis."""
    members = frame.span(gens)
    ell, n = frame.level.ell, frame.level.n
    form = howell_form([beta_power(t).coords for t in members]
                       + list(frame.relations), ell, n, frame.dim)
    alt = {s.coeffs for s in members
           if all(span_contains(form, commutator(s, t).coords, ell, n)
                  for t in members)}
    return alt == {c.coeffs for c in _cl_center_by_pairs(gens, frame)}


@pytest.mark.parametrize("field, window, height", [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", 2),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 6),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,const]}", 2),
], ids=["F7u", "F5st-l2", "F7ut-const"])
def test_ibcl_alt_check_matches_member_rows(field, window, height):
    w = parse_window(parse_field(field), window)
    frame = frame_from_k2(w, steinberg_scan(w, height))
    for gens in _frame_subgroups(frame):
        assert ibcl_alt_check(gens, frame) == \
            _ibcl_alt_by_members(gens, frame), gens


def test_ibcl_alt_check_matches_member_rows_on_random_frames():
    # seeded level-1 frames, where the alternative description can fail
    rng = random.Random(5)
    verdicts = set()
    for ell, rank in ((2, 3), (3, 3), (5, 2)):
        for _ in range(3):
            frame = _random_frame(rng, ell, 1, rank)
            for gens in _frame_subgroups(frame):
                got = ibcl_alt_check(gens, frame)
                assert got == _ibcl_alt_by_members(gens, frame), gens
                verdicts.add(got)
    assert verdicts == {True, False}


def _cl_pair_by_oracle(sigma, tau):
    """[sigma, tau] in <sigma^beta, tau^beta> + R through the Howell form of
    the q-images of the two beta rows."""
    return submodule_contains(
        sigma.frame.module, [beta_power(sigma).coords, beta_power(tau).coords],
        commutator(sigma, tau).coords)


def _assert_cl_pair_matches_oracle(members, pairs=None):
    """cl_pair against the oracle on every ordered pair of members, or on
    the member pairs (i, j) listed in `pairs`."""
    if pairs is None:
        pairs = itertools.product(range(len(members)), repeat=2)
    verdicts = set()
    for s, t in ((members[i], members[j]) for i, j in pairs):
        got = cl_pair(s, t)
        assert got == _cl_pair_by_oracle(s, t), (s.coeffs, t.coeffs)
        verdicts.add(got)
    return verdicts


def _hand_frames():
    """(frame, generators): two relations of mixed valuation, R killing all
    of Q (k = 0), and a level-3^25 frame on a subgroup of 81 members."""
    lv = Level(3, 2)
    mixed = CentralFrame(lv, ("a", "b"), ((3, 0, 6), (0, 0, 3)))
    dead = CentralFrame(lv, ("a", "b"), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    big = CentralFrame(Level(3, 25), ("a", "b"), ((3 ** 24, 0, 3 ** 23),))
    out = [(fr, [AbelianElement(fr, (1, 0)), AbelianElement(fr, (0, 1))])
           for fr in (mixed, dead)]
    out.append((big, [AbelianElement(big, (3 ** 23, 0)),
                      AbelianElement(big, (0, 3 ** 23))]))
    return out


@pytest.mark.parametrize("field, window, heights", CL_CENTER_WINDOWS,
                         ids=["F7u", "F19t-n2", "F5st-l2", "F9t-l2",
                              "F7ut-const"])
def test_cl_pair_matches_oracle_on_windows(field, window, heights):
    # every ordered pair of members of the full group, at two heights
    w = parse_window(parse_field(field), window)
    for h in heights if len(heights) > 1 else (1,) + heights:
        frame = frame_from_k2(w, steinberg_scan(w, h))
        members = frame.span([AbelianElement.from_character(frame, c)
                              for c in CharacterGroup.full(w).gens])
        _assert_cl_pair_matches_oracle(members)


def test_cl_pair_matches_oracle_on_the_tower_frame():
    # the cl-check tower: 729 members, so a seeded sample of the 729^2
    # ordered pairs, at a low height and at l^n; its table has no nonzero
    # Steinberg wedge, so every pair is a C-pair and must be a CL-pair too
    w = parse_window(parse_field("laurent(laurent(gf:19,s),t)"),
                     "{ell=3,n=2,gens=[t,s,const]}")
    rng = random.Random(32)
    for h in (2, 9):
        frame = frame_from_k2(w, steinberg_scan(w, h))
        members = frame.span([AbelianElement.from_character(frame, c)
                              for c in CharacterGroup.full(w).gens])
        assert len(members) == 729
        pairs = [divmod(k, 729) for k in rng.sample(range(729 ** 2), 2000)]
        assert _assert_cl_pair_matches_oracle(members, pairs) == {True}


def test_cl_pair_matches_oracle_on_random_and_hand_frames():
    rng = random.Random(12)
    verdicts = set()
    for ell, n, rank in ((2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 1, 3)):
        frame = _random_frame(rng, ell, n, rank)
        e = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
        members = frame.span([AbelianElement(frame, v) for v in e])
        verdicts |= _assert_cl_pair_matches_oracle(members)
    assert verdicts == {True, False}
    for frame, gens in _hand_frames():
        members = frame.span(gens)
        assert len(members) == 81
        _assert_cl_pair_matches_oracle(members)


def test_cl_pair_verdict_does_not_depend_on_cache_order():
    # warm sigma's maps, tau's maps or neither on a fresh frame; cl_pair
    # then reads whichever maps are cached and gives the same verdict
    rng = random.Random(3)
    frames = [_random_frame(rng, 3, 2, 2), _random_frame(rng, 2, 2, 3)]
    frames += [fr for fr, _ in _hand_frames()[:2]]
    for frame in frames:
        members = [s.coeffs for s in frame.span(
            [AbelianElement(frame, tuple(int(i == k)
                                         for i in range(frame.rank)))
             for k in range(frame.rank)])]
        for s, t in rng.sample(list(itertools.product(members, repeat=2)),
                               60):
            ref = _cl_pair_by_oracle(AbelianElement(frame, s),
                                     AbelianElement(frame, t))
            for warm in ((), (s,), (t,), (s, t), (t, s)):
                fresh = CentralFrame(frame.level, frame.gen_labels,
                                     frame.relations)
                for v in warm:
                    fresh.sigma_maps(v)
                sigma, tau = (AbelianElement(fresh, v) for v in (s, t))
                assert cl_pair(sigma, tau) == ref, (s, t, warm)
                assert cl_pair(tau, sigma) == ref, (s, t, warm)
                # a cached tau serves both orders; no map is built for sigma
                if warm == (t,) and s != t:
                    assert s not in fresh._sigma_maps


def test_cl_pair_forms_no_howell_form(monkeypatch, w_tuu3):
    import valdetect.coeffmod as coeffmod
    frame = frame_from_k2(w_tuu3, steinberg_scan(w_tuu3, 4))
    members = frame.span([AbelianElement.from_character(frame, c)
                          for c in CharacterGroup.full(w_tuu3).gens])
    pairs = list(itertools.product(members, repeat=2))
    expected = [_cl_pair_by_oracle(s, t) for s, t in pairs]
    assert frame.module.quotient_matrix

    def refuse(*args):
        raise AssertionError("cl_pair formed a Howell form")
    monkeypatch.setattr(central, "howell_form", refuse)
    monkeypatch.setattr(coeffmod, "howell_form", refuse)
    assert [cl_pair(s, t) for s, t in pairs] == expected


def test_cl_pair_takes_no_smith_form_once_the_frame_exists(monkeypatch,
                                                           w_tuu3):
    # the frame module's one Smith form is taken; each sigma's quotient by
    # q(sigma^beta) is then a closed form (coeffmod.cyclic_quotient)
    import valdetect.coeffmod as coeffmod
    frame = frame_from_k2(w_tuu3, steinberg_scan(w_tuu3, 4))
    assert frame.module.quotient_matrix
    members = frame.span([AbelianElement.from_character(frame, c)
                          for c in CharacterGroup.full(w_tuu3).gens])
    pairs = list(itertools.product(members, repeat=2))
    expected = [_cl_pair_by_oracle(s, t) for s, t in pairs]
    assert set(expected) == {True, False}

    def refuse(*args):
        raise AssertionError("cl_pair took a Smith form")
    monkeypatch.setattr(coeffmod, "smith_form", refuse)
    assert [cl_pair(s, t) for s, t in pairs] == expected


def _omega_cases():
    """(q, l, n) over small prime and prime-power fields with the l^n-th
    roots of unity (the 2l^n-th when l = 2) and l prime to q."""
    for q in (5, 7, 9, 13, 17, 19, 25, 27, 29, 37, 41, 49, 73, 81, 97, 109,
              163):
        for ell in (2, 3, 5, 7, 13):
            n = 1
            while (q - 1) % ell ** n == 0 and (
                    ell != 2 or (q - 1) % (2 * ell ** n) == 0):
                if q % ell:
                    yield q, ell, n
                n += 1


def test_canonical_omega_matches_the_order_loop():
    cases = list(_omega_cases())
    assert len(cases) >= 30
    for q, ell, n in cases:
        model = parse_field(f"gf:{q}")
        w = parse_window(model, f"{{ell={ell},n={n},gens=[const]}}")
        code = canonical_omega_code_by_order_loop(model.ff, ell, n)
        assert canonical_omega(w) == model.elt(code), (q, ell, n)
