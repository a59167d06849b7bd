import itertools
import random
from dataclasses import asdict

import pytest

from valdetect.errors import (
    HypothesisFailed,
    MainClaimViolated,
    NotValuative,
    PreconditionViolated,
    UnsupportedValuation,
)
from valdetect.characters import (
    Character,
    CharacterGroup,
    decomp_chars,
    inertia_chars,
    residue_rank,
)
from valdetect import detect
from valdetect.cpairs import c_center, c_group, c_pair_direct
from valdetect.detect import (
    _verification_walk,
    class_membership,
    detect_from_cgroup,
    detect_from_cpair,
    detect_inertia,
    valuative_members,
)
from valdetect.fields import (
    ValuationHandle,
    enumerate_elements,
    parse_field,
    parse_window,
    value_of,
)
import oracles
from oracles import rigid_qualifying


def test_detect_from_cpair_laurent(w_t_c):
    ft = Character.dual_by_label(w_t_c, "t")
    fc = Character.dual_by_label(w_t_c, "const")
    rep = detect_from_cpair(ft, fc, 1, 8)
    assert rep.inertia_labels == ["t"]
    assert rep.quotient_cyclic and rep.quotient_orders == [3]
    assert rep.branch == "H!=T"
    assert all(rep.containments.values())
    # the detected units agree with the native t-adic valuation
    v = ValuationHandle.from_steps(w_t_c.model, ["t"])
    for x in enumerate_elements(w_t_c.model, 6):
        if x.is_zero():
            continue
        assert rep.units.is_unit(x) == (value_of(v, x) == (0,))


def test_detect_from_cpair_equal_characters(w_t_c):
    f = Character.dual_by_label(w_t_c, "t")
    rep = detect_from_cpair(f, f, 1, 8)
    assert rep.quotient_cyclic


def test_detect_from_cpair_composite_window(w_tuu3):
    ft = Character.dual_by_label(w_tuu3, "t")
    fu = Character.dual_by_label(w_tuu3, "u")
    rep = detect_from_cpair(ft, fu, 1, 4)
    assert rep.quotient_cyclic
    assert all(rep.containments.values())


def test_detect_from_cpair_rejects_non_cpair(w_u_u3):
    f = Character.dual_by_label(w_u_u3, "u")
    g = Character.dual_by_label(w_u_u3, "u-3")
    with pytest.raises((PreconditionViolated, MainClaimViolated)):
        detect_from_cpair(f, g, 1, 4)


def _inertia_by_enumeration(fpp, gpp, n, height):
    """The members of D = <f, g> at level n that vanish on every qualifying
    element of the rigid complement, found by evaluating each member."""
    f, g = fpp.reduce_level(n), gpp.reduce_level(n)
    qualifying = rigid_qualifying(f, g, height)[0]
    D = CharacterGroup(f.window, (f, g))
    return CharacterGroup(f.window, tuple(
        d for d in D.elements()
        if all(d.evaluate(x) == 0 for x in qualifying)))


@pytest.mark.parametrize("field,window,n,height,sample", [
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", 1, 8, None),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", 2, 9, 12),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 1, 6,
     None),
])
def test_detect_from_cpair_inertia_matches_enumeration(field, window, n,
                                                       height, sample):
    w = parse_window(parse_field(field), window)
    pairs = list(itertools.combinations(CharacterGroup.full(w).elements(), 2))
    if sample is not None:
        pairs = random.Random(8).sample(pairs, sample)
    checked = split = 0
    for f, g in pairs:
        if not c_pair_direct(f, g, height).holds():
            continue
        try:
            rep = detect_from_cpair(f, g, n, height, aggressive=True)
        except NotValuative:
            # at l = 2 the pairs with const fail the canonical valuation
            # scan, before I is formed
            continue
        want = _inertia_by_enumeration(f, g, n, height)
        assert rep.detected_group == want
        assert rep.inertia_labels == want.labels()
        checked += 1
        split += rep.branch == "H!=T"
    assert checked >= 6
    if w.level.ell != 2:
        assert split > 0  # some I is a proper intersection


def test_detect_from_cgroup_composite(w_tsc):
    full = CharacterGroup.full(w_tsc)
    rep = detect_from_cgroup(full, 1, 8)
    assert sorted(rep.inertia_labels) == ["s", "t"]
    assert rep.quotient_cyclic
    assert all(rep.containments.values())
    v = ValuationHandle.from_steps(w_tsc.model, ["t", "s"])
    for x in enumerate_elements(w_tsc.model, 8):
        if x.is_zero():
            continue
        native = all(c == 0 for c in value_of(v, x))
        assert rep.units.is_unit(x) == native


def test_detect_from_cgroup_rank_one(w_t_c):
    sub = CharacterGroup(w_t_c, (Character.dual_by_label(w_t_c, "t"),))
    rep = detect_from_cgroup(sub, 1, 8)
    assert rep.quotient_cyclic


def test_detect_from_cgroup_rejects_non_cgroup(w_tuu3):
    with pytest.raises(PreconditionViolated):
        detect_from_cgroup(CharacterGroup.full(w_tuu3), 1, 4)


def test_round_trip_on_maximal_native_valuations(w_t_c, w_tsc):
    # for natives maximal with their decomposition group, detection recovers
    # exactly the native inertia characters and the native units
    cases = [
        (w_t_c, ["t"], 8),
        (w_tsc, ["t", "s"], 8),
    ]
    for w, steps, h in cases:
        v = ValuationHandle.from_steps(w.model, steps)
        D, cert = decomp_chars(v, w, h)
        assert cert.exact
        assert c_group(D, h).holds()
        rep = detect_from_cgroup(D, 1, h)
        assert rep.detected_group == inertia_chars(v, w)
        for x in enumerate_elements(w.model, 5):
            if x.is_zero():
                continue
            native = all(c == 0 for c in value_of(v, x))
            assert rep.units.is_unit(x) == native


def test_valuative_members_composite(w_tsc):
    full = CharacterGroup.full(w_tsc).reduce_level(1)
    vm = valuative_members(full, 6)
    assert sorted(vm.labels()) == ["s", "t"]


def test_detect_inertia_pinned(w_tuu3):
    import itertools
    full = CharacterGroup.full(w_tuu3)
    ft = Character.dual_by_label(w_tuu3, "t")
    rep = detect_inertia(CharacterGroup(w_tuu3, (ft,)), full, 1, 4)
    assert rep.inertia_labels == ["t"]
    assert all(rep.containments.values())
    v = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    for x in itertools.islice(enumerate_elements(w_tuu3.model, 2), 400):
        if x.is_zero():
            continue
        native = all(c == 0 for c in value_of(v, x))
        assert rep.units.is_unit(x) == native


def test_detect_inertia_trivial_subgroup(w_tuu3):
    full = CharacterGroup.full(w_tuu3)
    rep = detect_inertia(CharacterGroup.zero(w_tuu3), full, 1, 4)
    assert rep.inertia_labels == []


def test_detect_inertia_hypothesis_guard(w_t_c):
    full = CharacterGroup.full(w_t_c)
    ft = Character.dual_by_label(w_t_c, "t")
    with pytest.raises(HypothesisFailed):
        detect_inertia(CharacterGroup(w_t_c, (ft,)), full, 1, 8)


def test_detect_inertia_center_guard(w_tuu3):
    full = CharacterGroup.full(w_tuu3)
    fu = Character.dual_by_label(w_tuu3, "u")
    with pytest.raises(PreconditionViolated):
        detect_inertia(CharacterGroup(w_tuu3, (fu,)), full, 1, 4)


def test_level_bound_enforced(w_t_c):
    # lifting from level 1 to target 2 needs N >= N(2) = 965
    f = Character.dual_by_label(w_t_c, "t")
    with pytest.raises(PreconditionViolated):
        detect_from_cpair(f, f, 2, 4)


def test_class_membership_pinned(w_tuu3, w_tsc):
    vt = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    cm = class_membership(vt, w_tuu3, 1, 8)
    assert cm.in_w and cm.in_v and cm.alt_v_agrees
    vts = ValuationHandle.from_steps(w_tsc.model, ["t"])
    cm2 = class_membership(vts, w_tsc, 1, 8)
    assert not cm2.in_w and not cm2.in_v
    assert cm2.witness_refinement == "t,s"
    comp = ValuationHandle.from_steps(w_tsc.model, ["t", "s"])
    cm3 = class_membership(comp, w_tsc, 1, 8)
    assert cm3.in_w and not cm3.in_v


def test_class_membership_names_residue_rank_fallback(w_tuu3):
    # over GF(4) with l = 3 the cubes are {1}; listing u, every other place
    # of degree <= 2 whose residue at u is not 1, and the constants leaves a
    # residue kernel that is not a window kernel, so the residue rank falls
    # back to its bound 1 and the report says so
    m = parse_field("ratfunc(gf:4,u)")
    w = parse_window(m, "{ell=3,n=1,gens=[u,u+z,u+(z+1),u^2+u+z,u^2+z*u+z,"
                        "u^2+u+(z+1),u^2+(z+1)*u+(z+1),const]}")
    v = ValuationHandle.from_steps(m, ["u"])
    with pytest.raises(UnsupportedValuation):
        residue_rank(v, w)
    cm = class_membership(v, w, 1, 1)
    assert not cm.in_v
    fallback = [s for s in cm.payload()["notes"] if "fallback" in s]
    assert fallback == ["residue rank 1 is the fallback bound: residue "
                        "kernel after the place step is not a window kernel"]
    vt = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    assert not any("fallback" in s for s in
                   class_membership(vt, w_tuu3, 1, 4).notes)


def test_w_class_closed_under_composition(w_tsc, w_tuu3):
    # composites of members stay members (checked on the pinned towers)
    comp = ValuationHandle.from_steps(w_tsc.model, ["t", "s"])
    assert class_membership(comp, w_tsc, 1, 6).in_w
    comp2 = ValuationHandle.from_steps(w_tuu3.model, ["t", "u"])
    assert class_membership(comp2, w_tuu3, 1, 4).in_w


def test_maximality_conditions_level_one(w_tuu3):
    # for the t-adic valuation: I = C-center of D, the pair is maximal among
    # enumerable supergroups, and D is not a C-group
    v = ValuationHandle.from_steps(w_tuu3.model, ["t"])
    D, _ = decomp_chars(v, w_tuu3, 4)
    I = inertia_chars(v, w_tuu3)
    center = c_center(D, 4)
    assert center == I
    assert center != D
    assert not c_group(D, 4).holds()
    # maximality: D is already the full window group, so E = D is forced
    assert D == CharacterGroup.full(w_tuu3)


def test_detection_report_payload_shape(w_t_c):
    f = Character.dual_by_label(w_t_c, "t")
    g = Character.dual_by_label(w_t_c, "const")
    p = detect_from_cpair(f, g, 1, 8).payload()
    for key in ("mode", "window", "field", "ell", "n", "lift_level",
                "height", "inertia", "quotient_cyclic", "containments"):
        assert key in p


def test_cgroup_lift_construction_at_higher_level():
    # on a mu-rich backend (2*l^2 | 18), a subgroup below D_v(1) with cyclic
    # image mod inertia lifts to a level-2 C-group reducing onto it
    m = parse_field("laurent(gf:19,t)")
    w2 = parse_window(m, "{ell=3,n=2,gens=[t,const]}")
    w1 = w2.at_level(1)
    v = ValuationHandle.from_steps(m, ["t"])
    I2 = inertia_chars(v, w2)
    fprime = Character.dual_by_label(w2, "const")
    Dprime = CharacterGroup(w2, I2.gens + (fprime,))
    assert c_group(Dprime, 6).holds()
    D1 = Dprime.reduce_level(1)
    assert D1 == CharacterGroup.full(w1)
    # and the detection applied to the lift lands back on the inertia
    rep = detect_from_cgroup(Dprime, 1, 6, aggressive=True)
    assert rep.detected_group == inertia_chars(v, w1)


def test_aggressive_mode_notes(w_t_c):
    f = Character.dual_by_label(w_t_c, "t")
    rep = detect_from_cpair(f, f, 1, 6, aggressive=True)
    assert any("aggressive" in note for note in rep.notes)


def test_detection_report_names_verification_samples(w_t_c, w_tsc):
    f = Character.dual_by_label(w_t_c, "t")
    g = Character.dual_by_label(w_t_c, "const")
    p = detect_from_cpair(f, g, 1, 8).payload()
    assert p["verification"] == {
        "f,g in D_v": {"max_samples": 120, "max_scanned": 4000,
                       "samples": 48, "scanned": 103,
                       "samples_capped": False, "scanned_capped": False},
        "I in I_v": {"max_samples": 60, "max_scanned": 4000,
                     "samples": 6, "scanned": 103,
                     "samples_capped": False, "scanned_capped": False},
    }
    rep = detect_from_cgroup(CharacterGroup.full(w_tsc), 1, 8)
    assert rep.verification.keys() == rep.containments.keys()
    for sample in rep.verification.values():
        assert 0 < sample.samples <= sample.scanned <= sample.max_scanned


def _capped(monkeypatch, scan, *args, **caps):
    """scan(*args) with the detect module's sample caps set to `caps`."""
    with monkeypatch.context() as m:
        for name, value in caps.items():
            m.setattr(detect, name, value)
        return scan(*args)


def test_verification_caps_report_whether_hit(w_tsc, monkeypatch):
    rep = detect_from_cgroup(CharacterGroup.full(w_tsc), 1, 8)
    units, I = rep.units, rep.detected_group
    full = CharacterGroup.full(w_tsc)
    chars = [c for c, _ in full.member_quasi_basis()]
    args = (units, 4, chars, I)
    (_, sample), _, _ = _capped(monkeypatch, _verification_walk, *args,
                                IDEAL_SAMPLES=3)
    assert (sample.samples, sample.samples_capped) == (3, True)
    assert not sample.scanned_capped
    (_, sample), _, _ = _capped(monkeypatch, _verification_walk, *args,
                                MAX_SCANNED=10)
    assert (sample.scanned, sample.scanned_capped) == (10, True)
    assert not sample.samples_capped
    (_, sample), _, ideal = _capped(monkeypatch, _verification_walk, *args,
                                    IDEAL_SAMPLES=10_000, MAX_SCANNED=10_000)
    assert not sample.samples_capped and not sample.scanned_capped
    assert sample.samples == len(ideal) > 0
    (_, ideal_sample), (ok, sample), _ = _capped(
        monkeypatch, _verification_walk, *args, INERTIA_SAMPLES=2)
    assert ok and (sample.samples, sample.samples_capped) == (2, True)
    # the inertia sample stopped; the ideal sample walked on
    assert ideal_sample.scanned > sample.scanned
    _, (ok, sample), _ = _capped(monkeypatch, _verification_walk, *args,
                                 MAX_SCANNED=5)
    assert ok and (sample.scanned, sample.scanned_capped) == (5, True)
    _, (ok, sample), _ = _capped(monkeypatch, _verification_walk, *args,
                                 INERTIA_SAMPLES=10_000, MAX_SCANNED=10_000)
    assert ok and not sample.samples_capped and not sample.scanned_capped
    # no chars: no ideal sample
    (ok, sample), inertia, _ = _verification_walk(units, 4, (), I)
    assert ok and asdict(sample) == asdict(detect.VerificationSample(0, 0))
    assert inertia[0] and inertia[1].samples > 0
    # the full group does not kill the units: the inertia sample ends at
    # its first failure, and the ideal sample is the one of I
    (ok, sample), (bad, failed), _ = _verification_walk(units, 4, chars,
                                                        full)
    assert not bad and failed.samples < failed.scanned
    assert not (failed.samples_capped or failed.scanned_capped)
    assert (ok, asdict(sample)) == (True, asdict(_verification_walk(
        units, 4, chars, I)[0][1]))


def _verification_cases():
    """(name, detection) of the README, demo and laurent-detect bench
    detections: the library calls behind them, at their heights."""
    def window(field, spec):
        return parse_window(parse_field(field), spec)

    wl = window("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}")
    ws = window("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}")
    cases = [
        ("cpair F7((t))", lambda: detect_from_cpair(
            Character.dual_by_label(wl, "t"),
            Character.dual_by_label(wl, "const"), 1, 8)),
        ("cgroup F7((s))((t))", lambda: detect_from_cgroup(
            CharacterGroup.full(ws), 1, 8)),
    ]
    for a, height in ((3, 4), (1, 3), (5, 3)):
        wm = window("laurent(ratfunc(gf:7,u),t)",
                    f"{{ell=3,n=1,gens=[t,u,u-{a}]}}")
        cases.append((f"inertia F7(u)((t)) u-{a}", lambda wm=wm, h=height:
                      detect_inertia(
                          CharacterGroup(wm, (Character.dual_by_label(
                              wm, "t"),)), CharacterGroup.full(wm), 1, h)))
    for field, spec, steps, n, height in (
            ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", ["t"], 1, 8),
            ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}",
             ["t", "s"], 1, 8),
            ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", ["t"], 2, 9),
            ("laurent(laurent(gf:19,s),t)", "{ell=3,n=2,gens=[t,s,const]}",
             ["t", "s"], 2, 9),
            ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}",
             ["t", "s"], 1, 8)):
        w = window(field, spec)
        v = ValuationHandle.from_steps(w.model, steps)
        cases.append((f"aggressive {field} {spec}", lambda w=w, v=v, n=n,
                      h=height: detect_from_cgroup(
                          decomp_chars(v, w, h)[0], n, h, aggressive=True)))
    return cases


VERIFICATION_CASES = _verification_cases()


@pytest.mark.parametrize("name,run", VERIFICATION_CASES,
                         ids=[name for name, _ in VERIFICATION_CASES])
def test_one_walk_gives_both_samples_of_the_two_walks(name, run,
                                                      monkeypatch):
    """The walk that takes both samples at once against the two walks it
    replaced (`oracles.verify_decomposition`, `oracles.verify_inertia`),
    on the arguments of the detection's own call, at the default caps and
    with each cap set to 1, 2, 3, 5 and 10."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return walk(*args)

    walk = detect._verification_walk
    monkeypatch.setattr(detect, "_verification_walk", recorded)
    run()
    (units, height, chars, I), = calls
    settings = [{}] + [{cap: k} for cap in ("IDEAL_SAMPLES", "INERTIA_SAMPLES",
                                           "MAX_SCANNED")
                       for k in (1, 2, 3, 5, 10)]
    for caps in settings:
        with monkeypatch.context() as m:
            for cap, k in caps.items():
                m.setattr(detect, cap, k)
            got_d, got_i, _ = walk(units, height, chars, I)
            want_d = (oracles.verify_decomposition(chars, units, height)
                      if chars else (True, detect.VerificationSample(0, 0)))
            want_i = oracles.verify_inertia(I, units, height)
        assert [(ok, asdict(s)) for ok, s in (got_d, got_i)] == \
            [(ok, asdict(s)) for ok, s in (want_d, want_i)], caps
