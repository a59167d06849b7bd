import itertools
import random

import pytest
from hypothesis import given, strategies as st

from valdetect.coeffmod import (
    Coeff,
    FinMod,
    Level,
    cancellation_conclusion,
    cancellation_holds,
    cyclic_contains,
    howell_form,
    index_m,
    index_n,
    kernel_mod,
    level_bound,
    smith_form,
    span_combine,
    span_contains,
    span_coords,
    span_elements,
    span_intersect,
    span_quasi_basis,
    vectors_cyclic,
    wedge,
    wedge_pairs,
)
from valdetect.errors import PreconditionViolated

from oracles import cyclic_contains_by_howell, submodule_contains


def test_index_functions_fix_one():
    for r in (1, 2, 3):
        assert index_m(r, 1) == 1
    for ell in (2, 3, 5):
        assert index_n(ell, 1) == (1, 1)


def test_index_values():
    assert index_m(1, 3) == 5
    assert index_m(2, 2) == 4
    assert index_n(2, 2) == (93, 185)
    assert index_n(3, 2) == (483, 965)


def test_index_inequalities():
    for ell in (2, 3, 5):
        for n in (1, 2, 3):
            nprime, nbig = index_n(ell, n)
            assert nbig >= index_m(1, n) >= n
            assert level_bound(ell, n) >= nbig


def test_huge_level_coeff_arithmetic():
    # N(2) at ell=3 is 965; the modulus 3^965 must be a first-class citizen
    lv = Level(3, index_n(3, 2)[1])
    a = Coeff(3 ** 400 + 1, lv)
    b = Coeff(3 ** 400 - 1, lv)
    assert (a * b).value == (3 ** 800 - 1) % lv.modulus
    assert (a - b).value == 2


def test_cancellation_pinned_example():
    lv = Level(2, 3)
    assert cancellation_holds(Coeff(1, lv), Coeff(5, lv), [Coeff(2, lv)], 2)


def test_cancellation_identity_and_unit_cases():
    lv = Level(3, 3)
    a = Coeff(17, lv)
    assert cancellation_holds(a, a, [Coeff(5, lv)], 2)
    # unit multiplier: a*1 = b*1 at level R forces a = b there, so the
    # conclusion holds at the target level
    b = Coeff(17, lv)
    assert cancellation_holds(a, b, [Coeff(1, lv)], 2)


def test_cancellation_rejects_bad_inputs():
    lv = Level(2, 3)
    with pytest.raises(PreconditionViolated):
        cancellation_holds(Coeff(1, lv), Coeff(1, lv), [Coeff(4, lv)], 2)
    with pytest.raises(PreconditionViolated):
        cancellation_holds(Coeff(1, lv), Coeff(2, lv), [Coeff(2, lv)], 2)
    small = Level(2, 2)
    with pytest.raises(PreconditionViolated):
        cancellation_holds(Coeff(1, small), Coeff(1, small),
                           [Coeff(2, small)], 2)


def test_cancellation_randomized_10k():
    rng = random.Random(20260808)
    count = 0
    while count < 10_000:
        ell = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        r = rng.randrange(1, 3)
        R = index_m(r, n) + rng.randrange(0, 2)
        lv = Level(ell, R)
        elln = ell ** n
        cs = []
        while len(cs) < r:
            c = rng.randrange(lv.modulus)
            if c % elln:
                cs.append(Coeff(c, lv))
        a = Coeff(rng.randrange(lv.modulus), lv)
        prod = Coeff(1, lv)
        for c in cs:
            prod = prod * c
        # manufacture b with a*prod = b*prod: b = a + annihilator of prod
        ann = lv.modulus // (ell ** min(R, sum(v.valuation() for v in cs)))
        b = Coeff(a.value + ann * rng.randrange(ell ** 2), lv)
        if (a * prod).value != (b * prod).value:
            continue
        assert cancellation_holds(a, b, cs, n)
        count += 1


def test_cancellation_sharpness_invalid_instances():
    # some c_i = 0 mod l^n; the conclusion must fail at least once
    rng = random.Random(77)
    failures = 0
    for _ in range(100):
        ell = rng.choice((2, 3))
        n = 2
        R = index_m(1, n)
        lv = Level(ell, R)
        c = Coeff(ell ** n * rng.randrange(1, ell), lv)
        a = Coeff(rng.randrange(lv.modulus), lv)
        b = Coeff(a.value + lv.modulus // (ell ** c.valuation()), lv)
        if (a * c).value != (b * c).value:
            continue
        if not cancellation_conclusion(a, b, n):
            failures += 1
    assert failures > 0


def test_quasi_basis_examples(level31):
    lv = Level(3, 2)
    m = FinMod(("a", "b"), ((0, 3),), lv)
    assert m.quasi_basis() == [((1, 0), 9), ((0, 1), 3)]
    zero = FinMod((), (), lv)
    assert zero.quasi_basis() == []
    cyc = FinMod(("g",), (), level31)
    assert cyc.quasi_basis() == [((1,), 3)]


def test_quasi_basis_length_is_mod_l_dimension():
    lv = Level(3, 2)
    m = FinMod(("a", "b", "c"), ((3, 0, 0), (0, 0, 9)), lv)
    qb = m.quasi_basis()
    # Z/3 x Z/9 x Z/9: dimension over Z/3 is 3
    assert len(qb) == 3
    assert sorted(o for _, o in qb) == [3, 9, 9]


def test_quasi_basis_invariant_under_representation():
    rng = random.Random(5)
    lv = Level(3, 2)
    base = FinMod(("a", "b"), ((0, 3),), lv)
    orders = sorted(o for _, o in base.quasi_basis())
    for _ in range(20):
        # random invertible change of generators and redundant relations
        u = rng.randrange(9)
        rel = [(0 + 3 * u % 9, 3)]
        rel.append((0, 9))  # redundant
        a, c = 1, rng.randrange(3) * 3 + 1  # units mod 9
        mixed = [((r[0] * a) % 9, (r[0] * u + r[1] * c) % 9) for r in rel]
        m2 = FinMod(("x", "y"), tuple(mixed), lv)
        assert sorted(o for _, o in m2.quasi_basis()) == orders


def test_submodule_contains_examples():
    lv = Level(3, 2)
    m = FinMod(("a", "b"), (), lv)
    assert submodule_contains(m, [(1, 0)], (3, 0))
    assert not submodule_contains(m, [(3, 0)], (1, 0))
    assert submodule_contains(m, [], (0, 0))


def test_submodule_contains_matches_enumeration():
    rng = random.Random(11)
    lv = Level(3, 2)
    m = FinMod(("a", "b"), ((0, 3),), lv)
    for _ in range(40):
        gens = [tuple(rng.randrange(9) for _ in range(2))
                for _ in range(rng.randrange(1, 3))]
        members = m.span_members(gens)
        for _ in range(10):
            x = tuple(rng.randrange(9) for _ in range(2))
            assert submodule_contains(m, gens, x) == (m.reduce(x) in members)


def test_reduce_forms_the_relations_once(monkeypatch):
    import valdetect.coeffmod as coeffmod
    calls = []

    def counted(*args):
        calls.append(args)
        return howell_form(*args)

    monkeypatch.setattr(coeffmod, "howell_form", counted)
    m = FinMod(tuple(range(4)), ((4, 0, 0, 0),), Level(2, 3))
    basis = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    assert len(m.span_members(basis)) == 2048
    assert len(calls) == 1


def test_wedge_layout_and_antisymmetry():
    assert wedge_pairs(0) == wedge_pairs(1) == ()
    assert wedge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert wedge((1, 2, 3), (4, 5, 6)) == (1 * 5 - 2 * 4, 1 * 6 - 3 * 4,
                                            2 * 6 - 3 * 5)
    rng = random.Random(5)
    for rank in range(1, 6):
        for _ in range(20):
            a = tuple(rng.randrange(-9, 9) for _ in range(rank))
            b = tuple(rng.randrange(-9, 9) for _ in range(rank))
            c = rng.randrange(-9, 9)
            assert len(wedge(a, b)) == rank * (rank - 1) // 2
            assert wedge(b, a) == tuple(-x for x in wedge(a, b))
            assert not any(wedge(a, a))
            assert wedge(a, tuple(c * x for x in a)) == (0,) * len(wedge(a, b))


def test_wedge_with_unit_vector_is_the_bockstein_column():
    # the column of s_k in frame_from_k2: omega_j at e_kj, -omega_i at e_ik
    rng = random.Random(6)
    for rank in range(1, 6):
        mod = 9
        omega = tuple(rng.randrange(mod) for _ in range(rank))
        for k in range(rank):
            old = []
            for i, j in wedge_pairs(rank):
                if i == k:
                    old.append(omega[j])
                elif j == k:
                    old.append(-omega[i] % mod)
                else:
                    old.append(0)
            unit = tuple(int(i == k) for i in range(rank))
            assert tuple(x % mod for x in wedge(unit, omega)) == tuple(old)


# (l, n) and widths for the span-algebra checks against enumeration
SPAN_LEVELS = [(2, 1), (2, 3), (3, 2), (5, 1)]
SPAN_WIDTHS = (1, 2, 3, 4)
span_cases = pytest.mark.parametrize(
    "ell,n,width",
    [(ell, n, w) for ell, n in SPAN_LEVELS for w in SPAN_WIDTHS])


def _random_rows(rng, ell, n, width, count):
    """Random rows, scaled by random powers of l so that spans with mixed
    orders come up."""
    m = ell ** n
    return [tuple(rng.randrange(m) * ell ** rng.randrange(n) % m
                  for _ in range(width)) for _ in range(count)]


def _enumerated(rows, ell, n, width):
    """Members of the span of rows by the FinMod.span_members BFS."""
    return FinMod(tuple(range(width)), (), Level(ell, n)).span_members(rows)


@span_cases
def test_span_elements_match_enumeration(ell, n, width):
    rng = random.Random(1000 * ell + 10 * n + width)
    for _ in range(6):
        rows = _random_rows(rng, ell, n, width, rng.randrange(4))
        members = span_elements(howell_form(rows, ell, n, width), ell, n,
                                width)
        assert members[0] == (0,) * width
        assert len(members) == len(set(members))
        assert set(members) == _enumerated(rows, ell, n, width)


@span_cases
def test_span_quasi_basis_size_and_span(ell, n, width):
    rng = random.Random(2000 * ell + 10 * n + width)
    for _ in range(6):
        rows = _random_rows(rng, ell, n, width, rng.randrange(4))
        form = howell_form(rows, ell, n, width)
        basis = span_quasi_basis(form, ell, n)
        size = 1
        for _, order in basis:
            size *= order
        assert size == len(span_elements(form, ell, n, width))
        assert howell_form([v for v, _ in basis], ell, n, width) == form
        # quotient by a subspan: the orders multiply to the index
        sub = howell_form(rows[:1], ell, n, width)
        quotient = 1
        for _, order in span_quasi_basis(form, ell, n, sub):
            quotient *= order
        assert quotient * len(span_elements(sub, ell, n, width)) == size


@span_cases
def test_vectors_cyclic_is_quasi_basis_rank_one(ell, n, width):
    rng = random.Random(3000 * ell + 10 * n + width)
    for _ in range(40):
        v1, v2 = _random_rows(rng, ell, n, width, 2)
        form = howell_form([v1, v2], ell, n, width)
        assert vectors_cyclic(v1, v2, ell, n) == \
            (len(span_quasi_basis(form, ell, n)) <= 1)


def _cyclic_probes(rng, ell, n, width):
    """(v, x) pairs: zero vectors, vectors with mixed valuations, multiples
    c v (members), and unreduced representatives."""
    m = ell ** n
    zero = (0,) * width
    for _ in range(30):
        v, x = _random_rows(rng, ell, n, width, 2)
        c = rng.randrange(m)
        member = tuple(c * a % m for a in v)
        lifted = tuple(a + m * rng.randrange(-2, 3) for a in member)
        yield from ((v, x), (x, v), (v, member), (v, lifted), (zero, x),
                    (v, zero), (zero, zero))


@pytest.mark.parametrize("ell,n", list(itertools.product((2, 3, 5),
                                                         (1, 2, 3))))
def test_cyclic_contains_matches_howell(ell, n):
    rng = random.Random(9000 * ell + n)
    verdicts = set()
    for width in range(5):
        for v, x in _cyclic_probes(rng, ell, n, width):
            got = cyclic_contains(v, x, ell, n)
            assert got == cyclic_contains_by_howell(v, x, ell, n), (v, x)
            assert vectors_cyclic(v, x, ell, n) == (
                got or cyclic_contains_by_howell(x, v, ell, n)), (v, x)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("ell,n,width", [(2, 2, 2), (3, 2, 2)])
def test_cyclic_contains_every_pair(ell, n, width):
    vectors = list(itertools.product(range(ell ** n), repeat=width))
    inside = {v: {x for x in vectors
                  if cyclic_contains_by_howell(v, x, ell, n)}
              for v in vectors}
    for v, x in itertools.product(vectors, repeat=2):
        assert cyclic_contains(v, x, ell, n) == (x in inside[v]), (v, x)
        assert vectors_cyclic(v, x, ell, n) == (
            x in inside[v] or v in inside[x]), (v, x)


@span_cases
def test_span_coords_and_intersection(ell, n, width):
    rng = random.Random(4000 * ell + 10 * n + width)
    m = ell ** n
    for _ in range(6):
        form = howell_form(_random_rows(rng, ell, n, width, 2), ell, n,
                           width)
        other = howell_form(_random_rows(rng, ell, n, width, 2), ell, n,
                            width)
        members = span_elements(form, ell, n, width)
        for vec in members:
            coords = span_coords(form, vec, ell, n)
            assert span_combine(form, coords, ell, n, width) == vec
        outside = [v for v in itertools.product(range(m), repeat=width)
                   if not span_contains(form, v, ell, n)]
        if outside:
            with pytest.raises(PreconditionViolated):
                span_coords(form, rng.choice(outside), ell, n)
        both = howell_form(span_intersect(form, other, ell, n), ell, n, width)
        assert set(span_elements(both, ell, n, width)) == \
            set(members) & set(span_elements(other, ell, n, width))


def test_howell_canonical_and_membership():
    rows = [(2, 4, 0), (0, 8, 8)]
    form1 = howell_form(rows, 2, 4, 3)
    form2 = howell_form(rows[::-1] + [(2, 12, 8)], 2, 4, 3)
    assert form1 == form2  # canonical under re-generation
    assert span_contains(form1, (2, 4, 0), 2, 4)
    assert not span_contains(form1, (1, 0, 0), 2, 4)


@given(st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26),
                          st.integers(0, 26)), min_size=1, max_size=4),
       st.integers(0, 3))
def test_howell_span_closed_under_combination(rows, k):
    form = howell_form(rows, 3, 3, 3)
    combo = [0, 0, 0]
    for r in rows:
        for j in range(3):
            combo[j] = (combo[j] + k * r[j]) % 27
    assert span_contains(form, tuple(combo), 3, 3)


def test_smith_and_kernel():
    diag, v, vinv = smith_form([(3, 0), (0, 9)], 3, 2, 2)
    assert sorted(diag) == [1, 2]
    ker = kernel_mod([(3, 0)], 3, 2, 2)
    assert span_contains(ker, (3, 0), 3, 2)
    assert span_contains(ker, (0, 1), 3, 2)
    assert not span_contains(ker, (1, 0), 3, 2)


def test_level_validation():
    with pytest.raises(PreconditionViolated):
        Level(4, 1)
    with pytest.raises(PreconditionViolated):
        Level(3, 0)
    assert Level(3, 2048).modulus == 3 ** 2048
    with pytest.raises(PreconditionViolated):
        Level(3, 2049)  # 2049 * (bit length 2) > MAX_LEVEL_BITS


def _submodule_contains_with_relations(module, gens, x):
    """Reference membership: one Howell form of gens plus every relation
    row, then span_contains."""
    ell, e = module.level.ell, module.level.n
    form = howell_form(list(gens) + list(module.relations), ell, e,
                       module.rank)
    return span_contains(form, x, ell, e)


def _relation_cases(rng, ell, n, width):
    """R = 0, random rows with mixed valuations, and rows that kill the
    whole module (quotient width 0)."""
    m = ell ** n
    yield ()
    for count in (1, 2, width + 1):
        yield tuple(_random_rows(rng, ell, n, width, count))
    unit = [rng.randrange(1, m) for _ in range(width)]
    unit = [u if u % ell else u + 1 for u in unit]
    # unit diagonal, zero below it: invertible, so R is everything
    yield tuple(tuple(unit[i] if i == k else rng.randrange(m) * (i > k)
                      for i in range(width)) for k in range(width))


@pytest.mark.parametrize("ell,n", list(itertools.product((2, 3), (1, 2, 3))))
def test_submodule_contains_matches_relation_rows(ell, n):
    # q through the cached Smith data decides exactly what the Howell form
    # of gens + R decides, members and non-members alike
    rng = random.Random(7000 * ell + n)
    m = ell ** n
    verdicts, widths = set(), set()
    for width in (1, 2, 3, 4):
        for rel in _relation_cases(rng, ell, n, width):
            module = FinMod(tuple(range(width)), rel, Level(ell, n))
            widths.add(module.quotient_width)
            for _ in range(12):
                gens = _random_rows(rng, ell, n, width, rng.randrange(3))
                # one probe in gens + R by construction, one at random
                inside = [0] * width
                for g in gens + list(rel):
                    c = rng.randrange(m)
                    inside = [(a + c * b) % m for a, b in zip(inside, g)]
                for x in (tuple(inside),
                          _random_rows(rng, ell, n, width, 1)[0]):
                    got = submodule_contains(module, gens, x)
                    assert got == _submodule_contains_with_relations(
                        module, gens, x), (rel, gens, x)
                    verdicts.add(got)
    assert verdicts == {True, False}
    assert widths == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("ell,n", [(2, 3), (3, 2)])
def test_quotient_map_kernel_is_the_relations(ell, n):
    rng = random.Random(8000 * ell + n)
    m = ell ** n
    for width in (1, 2, 3):
        for rel in _relation_cases(rng, ell, n, width):
            module = FinMod(tuple(range(width)), rel, Level(ell, n))
            size = 1
            for _, order in module.quasi_basis():
                size *= order
            images = {module.quotient(x) for x in
                      itertools.product(range(m), repeat=width)}
            assert len(images) == size
            for x, y in zip(_random_rows(rng, ell, n, width, 8),
                            _random_rows(rng, ell, n, width, 8)):
                summed = tuple(a + b for a, b in zip(x, y))
                assert module.quotient(summed) == tuple(
                    (a + b) % m for a, b in zip(module.quotient(x),
                                                module.quotient(y)))
                assert (not any(module.quotient(x))) == span_contains(
                    module.relation_form, x, ell, n)


def test_module_takes_one_smith_form_and_no_relation_rows(monkeypatch):
    import valdetect.coeffmod as coeffmod
    smith_calls, howell_shapes = [], []

    def smith_counted(*args):
        smith_calls.append(args)
        return smith_form(*args)

    def howell_counted(rows, ell, e, ncols):
        rows = list(rows)
        howell_shapes.append((len(rows), ncols))
        return howell_form(rows, ell, e, ncols)

    monkeypatch.setattr(coeffmod, "smith_form", smith_counted)
    monkeypatch.setattr(coeffmod, "howell_form", howell_counted)
    m = FinMod(tuple(range(3)), ((3, 0, 0), (0, 9, 0), (0, 0, 1)),
               Level(3, 3))
    assert m.quasi_basis() == [((0, 1, 0), 9), ((1, 0, 0), 3)]
    assert m.quotient_width == 2
    assert submodule_contains(m, [(1, 0, 0)], (2, 0, 5))
    assert not submodule_contains(m, [(1, 0, 0), (0, 3, 1)], (0, 1, 0))
    assert len(smith_calls) == 1
    # only the generators enter a Howell form, at the quotient's width
    assert howell_shapes == [(1, 2), (2, 2)]
