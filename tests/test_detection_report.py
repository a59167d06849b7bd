"""Detection reports read their window, level, inertia labels and quotient
orders off the detected pair I <= D.

Each pipeline runs with the lift level N above the target level n, so a
report that took its level from the inputs instead of D would show N.
"""

import pytest

from valdetect.characters import Character, CharacterGroup
from valdetect.detect import (
    detect_from_cgroup,
    detect_from_cpair,
    detect_inertia,
)
from valdetect.fields import parse_field, parse_window


def _cpair():
    w = parse_window(parse_field("laurent(gf:19,t)"),
                     "{ell=3,n=2,gens=[t,const]}")
    rep = detect_from_cpair(Character.dual_by_label(w, "t"),
                            Character.dual_by_label(w, "const"), 1, 9,
                            aggressive=True)
    D = CharacterGroup(w, (Character.dual_by_label(w, "t"),
                           Character.dual_by_label(w, "const")))
    return rep, D.reduce_level(1), "f,g in D_v"


def _cgroup():
    w = parse_window(parse_field("laurent(gf:19,t)"),
                     "{ell=3,n=2,gens=[t,const]}")
    D = CharacterGroup.full(w)
    rep = detect_from_cgroup(D, 1, 9, aggressive=True)
    return rep, D.reduce_level(1), "D in D_v"


def _inertia():
    w = parse_window(parse_field("laurent(ratfunc(gf:19,u),t)"),
                     "{ell=3,n=2,gens=[t,u,u-1]}")
    D = CharacterGroup.full(w)
    rep = detect_inertia(CharacterGroup(w, (Character.dual_by_label(w, "t"),)),
                         D, 1, 1, aggressive=True)
    return rep, D.reduce_level(1), "D in D_v"


@pytest.mark.parametrize("run", [_cpair, _cgroup, _inertia],
                         ids=["cpair", "cgroup", "inertia"])
def test_report_derives_from_d_and_i(run):
    rep, D, what = run()
    I = rep.detected_group
    orders = D.quotient_orders(I)
    assert rep.window == D.window == I.window
    p = rep.payload()
    assert (p["n"], p["lift_level"]) == (1, 2)
    assert p["window"] == D.window.spec()
    assert p["inertia"] == I.labels()
    assert p["quotient_orders"] == orders
    assert p["quotient_cyclic"] == (len(orders) <= 1)
    assert list(rep.containments) == list(rep.verification) == \
        [what, "I in I_v"]
    assert all(rep.containments.values())
    assert rep.units is not None


@pytest.mark.parametrize("run", [_cpair, _cgroup, _inertia],
                         ids=["cpair", "cgroup", "inertia"])
def test_inertia_sample_units_are_those_of_the_detected_group(run):
    # the "I in I_v" sample meets only units with class in H = ker I, and
    # H is the kernel of the detected group itself, so no member of I can
    # fail on one: the sample confirms I in I_v on every window
    rep, _, _ = run()
    assert rep.units.H.group == rep.detected_group
    assert rep.containments["I in I_v"] is True
