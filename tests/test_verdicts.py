"""Every scan verdict fails exactly when it carries a witness.

`Verdict.holds()` reads the witness alone.  On each window below every
verdict of the C-pair (both methods), C-group, valuative and comparability
scans holds exactly when its kind is not a failing kind, and every C-pair
or C-group witness replays as a violation of f(1-x)g(x) = f(x)g(1-x).
"""

import itertools

import pytest

from valdetect.characters import CharacterGroup
from valdetect.cpairs import (
    c_group,
    c_pair_direct,
    c_pair_ktheory,
    quasi_independent,
)
from valdetect.fields import parse_field, parse_window
from valdetect.milnor import steinberg_scan
from valdetect.rigid import (
    MultSubgroup,
    comparable,
    valuative_members_mask,
    valuative_test,
)

FAILING = {"NotCPair", "NotCGroup", "Violation", "NotComparable"}

# (field, window, height, failing kinds that occur)
WINDOWS = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}", 2, FAILING),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", 8, {"Violation"}),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u]}", 3, set()),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", 3,
     FAILING),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 4,
     {"Violation"}),
]
WINDOW_IDS = ["F7u", "F7t", "F7ut-rank2", "F7ut", "F5st-l2"]


def _violates(f, g, x):
    """f(1-x)g(x) != f(x)g(1-x) mod l^n."""
    w = f.window
    one_minus = w.model.one() - x
    lhs = f.evaluate(one_minus) * g.evaluate(x)
    rhs = f.evaluate(x) * g.evaluate(one_minus)
    return (lhs - rhs) % w.level.modulus != 0


def _verdicts(w, height):
    """(verdict, (f, g) or None) of every scan on w: the C-pair scans on
    every pair of characters (K-theoretic on quasi-independent pairs of a
    rank-2 window), c_group on every two-generator group, valuative_test
    on every cyclic group and comparable on every pair of valuative
    members."""
    chars = CharacterGroup.full(w).elements()
    sp = steinberg_scan(w, height) if w.rank == 2 else None
    for f, g in itertools.combinations_with_replacement(chars, 2):
        yield c_pair_direct(f, g, height), (f, g)
        if sp is not None and quasi_independent(f, g):
            yield c_pair_ktheory(f, g, sp), (f, g)
        v = c_group(CharacterGroup(w, (f, g)), height)
        yield v, v.pair
    for f in chars:
        yield valuative_test(MultSubgroup(CharacterGroup(w, (f,))),
                             height), None
    mask = valuative_members_mask(chars, height)
    members = [f for f, ok in zip(chars, mask) if ok]
    for f, g in itertools.combinations_with_replacement(members, 2):
        yield comparable(f, g, height), None


@pytest.mark.parametrize("field, window, height, failing", WINDOWS,
                         ids=WINDOW_IDS)
def test_verdict_fails_exactly_with_a_witness(field, window, height,
                                              failing):
    w = parse_window(parse_field(field), window)
    failed, pair_witnessed = set(), False
    for v, pair in _verdicts(w, height):
        assert v.holds() == (v.kind not in FAILING)
        if not v.holds():
            failed.add(v.kind)
        if pair is not None and v.witness is not None:
            assert _violates(*pair, v.witness)
        pair_witnessed |= v.witness_pair is not None
    assert failed == failing
    # only the l = 2 two-variable clause fails with a witness pair
    assert pair_witnessed == (w.level.ell == 2)
