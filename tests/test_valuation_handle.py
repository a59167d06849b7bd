"""ValuationHandle is the one check and the one walk of a valuation chain.

Every reader of a handle (spec, residue_model, value_of, residue_of,
residue_window, inertia_chars, decomp_chars) is compared with the walkers
in tests/oracles.py, which walk the chain against the tower themselves, on
every chain of the pinned towers below; and every chain that does not
match its tower is refused when the handle is built.
"""

import random

import pytest

from oracles import (
    decomp_chars_by_walk,
    inertia_chars_by_walk,
    residue_model_by_walk,
    residue_of_by_walk,
    residue_window_by_walk,
    spec_by_walk,
    value_of_by_walk,
)
from valdetect.characters import decomp_chars, inertia_chars, residue_window
from valdetect.errors import UnsupportedValuation
from valdetect.fields import (
    PLACE,
    UNIF,
    FFModel,
    ValuationHandle,
    compose_valuations,
    parse_element,
    parse_field,
    parse_window,
    random_element,
    residue_model,
    residue_of,
    value_of,
)

# (field, window generators); places of the chains are every degree-one
# place of the rational-function level plus the degree-two place u^2+1
TOWERS = [
    ("laurent(gf:7,t)", "t,const"),
    ("laurent(laurent(gf:7,s),t)", "t,s,const"),
    ("ratfunc(gf:7,u)", "u,u-3"),
    ("ratfunc(gf:7,u)", "u,u^2+1"),
    ("ratfunc(gf:7,u)", "u,u-3,const"),
    ("laurent(ratfunc(gf:7,u),t)", "t,u,u-3"),
    ("laurent(laurent(gf:5,s),t)", "t,s"),
]
HEIGHT = 2


def _chains(model):
    """Every chain: the uniformizers of a prefix of the Laurent levels,
    then optionally one place of a rational-function level."""
    out = [()]
    steps = ()
    cur = model
    while cur.kind == "laurent":
        steps += ((UNIF, cur.var),)
        out.append(steps)
        cur = cur.base
    if cur.kind == "ratfunc":
        ff = cur.ff
        places = list(ff.monic_polys(1)) + [(1, 0, 1)]
        out += [steps + ((PLACE, p),) for p in places]
    return out


def _outcome(fn, *args):
    """The value, or the type and message of the library error raised."""
    try:
        return fn(*args)
    except UnsupportedValuation as e:
        return type(e), str(e)


def _units_and_more(handle, rng):
    """Random nonzero elements, each also divided by the chain's
    uniformizers to its unit part."""
    pis = [parse_element(handle.model, s) for s in handle.spec().split(",")
           if s]
    out = []
    for _ in range(12):
        x = random_element(handle.model, rng)
        out.append(x)
        unit = x
        for pi, v in zip(pis, value_of(handle, x)):
            unit = unit * pi ** (-v)
        out.append(unit)
    return out


@pytest.mark.parametrize("fspec,gens", TOWERS)
def test_readers_match_the_walk_oracle(fspec, gens):
    model = parse_field(fspec)
    window = parse_window(model, f"{{ell=3,n=1,gens=[{gens}]}}")
    rng = random.Random(fspec + gens)
    chains = _chains(model)
    assert len(chains) >= 2
    for steps in chains:
        handle = ValuationHandle(model, steps)
        assert handle.spec() == spec_by_walk(handle)
        assert residue_model(handle) == residue_model_by_walk(handle)
        assert handle.models[0] == model and len(handle.models) == len(steps) + 1
        units = 0
        for x in _units_and_more(handle, rng):
            assert value_of(handle, x) == value_of_by_walk(handle, x)
            got = _outcome(residue_of, handle, x)
            assert got == _outcome(residue_of_by_walk, handle, x)
            units += not isinstance(got, tuple)
        assert units >= 12
        assert _outcome(residue_window, handle, window) == \
            _outcome(residue_window_by_walk, handle, window)
        assert inertia_chars(handle, window) == \
            inertia_chars_by_walk(handle, window)
        assert decomp_chars(handle, window, HEIGHT) == \
            decomp_chars_by_walk(handle, window, HEIGHT)


def test_models_record_each_level_and_the_residue_field():
    model = parse_field("laurent(ratfunc(gf:7,u),t)")
    handle = ValuationHandle.from_steps(model, ["t", "u^2+1"])
    assert handle.models[:2] == (model, model.base)
    assert handle.models[2] == FFModel(handle.models[2].ff)
    assert handle.models[2].ff.q == 49
    assert ValuationHandle.trivial(model).models == (model,)


def test_from_steps_equals_the_direct_handle():
    model = parse_field("laurent(ratfunc(gf:7,u),t)")
    direct = ValuationHandle(model, ((UNIF, "t"), (PLACE, (4, 1))))
    for place in ("u-3", "2*u-6", (6, 5)):
        built = ValuationHandle.from_steps(model, ["t", place])
        assert built == direct and hash(built) == hash(direct)
        assert built.models == direct.models


@pytest.mark.parametrize("fspec,steps,message", [
    # a wrong variable
    ("laurent(gf:7,t)", ((UNIF, "s"),), "expected uniformizer 't', got 's'"),
    ("laurent(laurent(gf:7,s),t)", ((UNIF, "t"), (UNIF, "t")),
     "expected uniformizer 's', got 't'"),
    # a place on a Laurent level
    ("laurent(ratfunc(gf:7,u),t)", ((PLACE, (0, 1)),),
     "a place step on laurent(ratfunc(gf:7,u),t,prec=24), "
     "which takes a unif step"),
    ("laurent(gf:7,t)", ((PLACE, "t"),),
     "a place step on laurent(gf:7,t,prec=24), which takes a unif step"),
    # a uniformizer step on a rational-function level
    ("ratfunc(gf:7,u)", ((UNIF, "u"),),
     "a unif step on ratfunc(gf:7,u), which takes a place step"),
    # a step after a place
    ("ratfunc(gf:7,u)", ((PLACE, (0, 1)), (PLACE, (1, 1))),
     "finite fields have no native places"),
    ("laurent(ratfunc(gf:7,u),t)",
     ((UNIF, "t"), (PLACE, (0, 1)), (UNIF, "t")),
     "finite fields have no native places"),
    ("gf:7", ((UNIF, "t"),), "finite fields have no native places"),
    # reducible and non-monic places
    ("ratfunc(gf:7,u)", ((PLACE, (0, 0, 1)),), "place polynomial is reducible"),
    ("ratfunc(gf:7,u)", ((PLACE, (1,)),), "place polynomial is reducible"),
    ("ratfunc(gf:7,u)", ((PLACE, ()),), "place polynomial is reducible"),
    ("ratfunc(gf:7,u)", ((PLACE, (0, 2)),), "place polynomial is not monic"),
    ("laurent(ratfunc(gf:7,u),t)", ((UNIF, "t"), (PLACE, (2, 0, 2))),
     "place polynomial is not monic"),
])
def test_bad_chains_are_refused_at_construction(fspec, steps, message):
    with pytest.raises(UnsupportedValuation) as exc:
        ValuationHandle(parse_field(fspec), steps)
    assert str(exc.value) == message


@pytest.mark.parametrize("fspec,steps,message", [
    ("laurent(gf:7,t)", ["s"], "expected uniformizer 't', got 's'"),
    ("ratfunc(gf:7,u)", ["u^2"], "place polynomial is reducible"),
    ("ratfunc(gf:7,u)", ["0"], "place polynomial is reducible"),
    ("ratfunc(gf:7,u)", ["u", "u"], "finite fields have no native places"),
    ("gf:7", ["t"], "finite fields have no native places"),
])
def test_from_steps_keeps_its_messages(fspec, steps, message):
    with pytest.raises(UnsupportedValuation) as exc:
        ValuationHandle.from_steps(parse_field(fspec), steps)
    assert str(exc.value) == message


def test_residue_window_refuses_a_handle_of_another_field(F7t, F7st):
    window = parse_window(F7st, "{ell=3,n=1,gens=[t,s,const]}")
    for handle in (ValuationHandle.trivial(F7t),
                   ValuationHandle.from_steps(F7t, ["t"])):
        with pytest.raises(UnsupportedValuation):
            residue_window(handle, window)


def test_compose_with_trivial_handles(F7st, F7t):
    v = ValuationHandle.from_steps(F7st, ["t"])
    assert compose_valuations(ValuationHandle.trivial(F7st), v) == v
    assert compose_valuations(v, ValuationHandle.trivial(F7st.base)) == v
    with pytest.raises(UnsupportedValuation):
        compose_valuations(ValuationHandle.trivial(F7t), v)
    with pytest.raises(UnsupportedValuation):
        compose_valuations(v, ValuationHandle.trivial(F7st))
