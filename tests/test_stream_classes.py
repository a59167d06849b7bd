"""The element walks of rigid and detect read one class list per window,
owned by the window's ScanIndex and, on a Laurent window, derived from the
list of its base window; these tests hold that list, the rebuilt elements,
the pair probes and the ideal scan to the elements of the reference stream,
classified one by one."""

import collections
import itertools
from dataclasses import asdict

import pytest

from valdetect import detect, fields, scans
from valdetect.characters import Character, CharacterGroup
from valdetect.detect import (
    _verification_walk,
    detect_from_cgroup,
    detect_inertia,
)
from valdetect.fields import (
    format_element,
    leading_term,
    parse_field,
    parse_window,
)
from valdetect.rigid import (
    PAIR_HEIGHT_CAP,
    MultSubgroup,
    _pair_failure,
    canonical_valuation,
)
from valdetect.scans import index_of

from oracles import (
    capped_stream,
    maximal_ideal_scan_by_elements,
    pair_failure_by_products,
)


def _cold(monkeypatch, w):
    """A fresh index of the window, on a fresh index cache, so that it and
    the indexes of the windows below it derive their stream classes and
    pair classes from position 0."""
    monkeypatch.setattr(scans, "_INDEX_CACHE", {})
    return index_of(w)


def _fmt(pair):
    return None if pair is None else [format_element(e) for e in pair]


def test_pair_failure_matches_product_oracle(w5_tsc, monkeypatch):
    index = _cold(monkeypatch, w5_tsc)
    members = [f for f in CharacterGroup.full(w5_tsc).elements()
               if not f.is_zero()]
    groups = [(f,) for f in members] + list(itertools.combinations(members, 2))
    failing = 0
    # the highest height first: the lower walks read a prefix of its list
    for height in (3, 1, 2):
        for chars in groups:
            H = MultSubgroup(CharacterGroup(w5_tsc, chars))
            got = _pair_failure(H, height)
            assert _fmt(got) == _fmt(pair_failure_by_products(H, height))
            failing += got is not None
    assert failing > 0
    # the memo holds the class of 1 + x_i(1 + x_j) under its pair (i, j)
    xs = list(capped_stream(w5_tsc.model, PAIR_HEIGHT_CAP))
    one = w5_tsc.model.one()
    assert index.pair_classes
    for (i, j), cls in index.pair_classes.items():
        assert cls == w5_tsc.classify_sum(one, xs[i] * (one + xs[j]))


def _cancels(x, y):
    """Whether the t^0 leading terms of 1 and x(1 + y) cancel."""
    one = x.model.one()
    prod = x * (one + y)
    sum_ = one + prod
    return prod.data[0][0][0] == 0 and (
        sum_.is_zero() or sum_.data[0][0][0] != 0)


def test_pair_failure_builds_only_the_pair_it_returns(w5_tsc, monkeypatch):
    """The clause reads exponents off the sources: it builds x and y for
    the pair it returns and for a probe whose t^0 terms cancel, and no
    other element of the window."""
    index = _cold(monkeypatch, w5_tsc)
    built = []
    element = scans.ScanIndex.element

    def counted(self, src):
        built.append(src)
        return element(self, src)

    monkeypatch.setattr(scans.ScanIndex, "element", counted)
    xs = list(capped_stream(w5_tsc.model, PAIR_HEIGHT_CAP))
    members = [f for f in CharacterGroup.full(w5_tsc).elements()
               if not f.is_zero()]
    groups = [(f,) for f in members] + list(itertools.combinations(members, 2))
    probes = failing = silent = 0
    for height in (3, 1, 2):
        for chars in groups:
            H = MultSubgroup(CharacterGroup(w5_tsc, chars))
            before = set(index.pair_classes)
            built.clear()
            got = _pair_failure(H, height)
            new = [ij for ij in index.pair_classes if ij not in before]
            assert len(built) == 2 * (got is not None) + 2 * sum(
                _cancels(xs[i], xs[j]) for i, j in new)
            probes += len(new)
            failing += got is not None
            silent += bool(new) and not built
    assert probes and failing and silent


def test_bottom_blocks_are_listed_once(monkeypatch):
    """Repeated walks and a detection on a cold Laurent index list each
    block of the bottom stream once."""
    w = parse_window(parse_field("laurent(ratfunc(gf:7,u),t)"),
                     "{ell=3,n=1,gens=[t,u,u-3]}")
    index = _cold(monkeypatch, w)
    calls = collections.Counter()
    bottom_block = scans.bottom_block

    def counted(model, s, ratfunc_cap=None):
        calls[model.spec(), s] += 1
        return bottom_block(model, s, ratfunc_cap)

    monkeypatch.setattr(scans, "bottom_block", counted)
    for h in (1, 3, 2, 3):
        list(index.stream(h))
    detect_inertia(CharacterGroup(w, (Character.dual_by_label(w, "t"),)),
                   CharacterGroup.full(w), 1, 3)
    assert sorted(s for _, s in calls) == [0, 1, 2, 3]
    assert set(calls.values()) == {1}


# (field, window, height of the row check, stride of the pair sample at
# PAIR_HEIGHT_CAP)
STREAM_CASES = [
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", 8, 1),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", 3, 13),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 4, 1),
    ("laurent(laurent(gf:9,s),t)", "{ell=2,n=1,gens=[t,s,const]}", 4, 1),
    # no slot for the top uniformizer t
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[s,const]}", 8, 1),
]


def _window(fspec, wspec):
    return parse_window(parse_field(fspec), wspec)


@pytest.mark.parametrize("fspec,wspec,height,stride", STREAM_CASES)
def test_derived_rows_match_classify(fspec, wspec, height, stride,
                                    monkeypatch):
    w = _window(fspec, wspec)
    index = _cold(monkeypatch, w)
    one = w.model.one()
    # a low walk, then a high one that extends the list past its end
    for h in (1, height):
        rows = list(index.stream(h))
        xs = list(capped_stream(w.model, h))
        assert len(rows) == len(xs)
        for ((cls_x, cls_opx), src), x in zip(rows, xs):
            assert index.element(src) == x
            if x.is_zero():
                assert (cls_x, cls_opx) == (None, w.zero_class())
            else:
                # a source is the (exponent vector, bottom element) of x
                assert leading_term(x) == src
                assert cls_x == w.classify(x)
                assert cls_opx == w.classify_sum(one, x)
    assert sum(map(len, index.stream_blocks)) == len(rows)


@pytest.mark.parametrize("fspec,wspec,height,stride", STREAM_CASES)
def test_pair_probes_match_products(fspec, wspec, height, stride,
                                    monkeypatch):
    """cls(1 + x(1 + y)) by exponents against the built product, for every
    x != 0 and every y != 0, -1 of the pair walk's stream (every `stride`-th
    on the large one): a superset of the qualifying pairs of every
    subgroup.  Some pairs have g = 0 with a cancelling t^0 coefficient,
    where the probe falls back to the product."""
    w = _window(fspec, wspec)
    index = _cold(monkeypatch, w)
    one = w.model.one()
    rows = [(i, src, index.element(src), cls_x, cls_opx)
            for i, ((cls_x, cls_opx), src)
            in enumerate(index.stream(PAIR_HEIGHT_CAP))][::stride]
    xs = [(i, src, x, cls_x) for i, src, x, cls_x, _ in rows
          if cls_x is not None]
    ys = [(j, src, y, cls_opy) for j, src, y, cls_y, cls_opy in rows
          if cls_y is not None and cls_opy is not None]
    cancelling = 0
    for (i, src_x, x, cls_x), (j, src_y, y, cls_opy) in \
            itertools.product(xs, ys):
        assert index.pair_class(i, j, src_x, cls_x, src_y, cls_opy) == \
            w.classify_sum(one, x * (one + y))
        cancelling += _cancels(x, y)
    assert cancelling > 0


def test_walk_stopped_early_derives_one_block_ahead(w_tsc, monkeypatch):
    through_4 = len(list(_cold(monkeypatch, w_tsc).stream(4)))
    index = _cold(monkeypatch, w_tsc)
    # stop at the first element of block 5
    list(itertools.islice(index.stream(8), through_4 + 1))
    derived = sum(map(len, index.stream_blocks))
    assert through_4 < derived < len(list(capped_stream(w_tsc.model, 5)))
    # the base window F7((s)) derived its blocks 0..5 and no more
    base = index_of(w_tsc.base_window())
    assert [bool(b) for b in base.stream_blocks] == [True] * 6 + [False] * 3


def _ideal_scans_agree(units, height):
    # the walk takes an ideal sample when some character is to kill 1+x
    group = units.H.group
    chars = [Character(group.window, r) for r in group.howell()] or \
        CharacterGroup.full(group.window).elements()[:1]
    (_, sample), _, ideal = _verification_walk(units, height, chars, group)
    want, want_sample = maximal_ideal_scan_by_elements(units, height)
    assert [format_element(x) for x, _ in ideal] == \
        [format_element(x) for x in want]
    assert asdict(sample) == asdict(want_sample)
    w = units.H.window
    assert all(cls == w.classify(w.model.one() + x) for x, cls in ideal)
    return ideal, sample


def _units(w, labels, height):
    """The canonical valuation of the kernel of the dual characters of
    `labels`."""
    chars = tuple(Character.dual_by_label(w, a) for a in labels)
    return canonical_valuation(MultSubgroup(CharacterGroup(w, chars)), height)


@pytest.mark.parametrize("fspec,wspec,height,stride", STREAM_CASES[:2])
def test_ideal_scan_matches_element_oracle(fspec, wspec, height, stride,
                                           monkeypatch):
    # the t-adic valuation, and the rank-2 one, under which 1 + c for a
    # t-constant c need not be a unit
    w = _window(fspec, wspec)
    for labels in (w.gen_label(0),), (w.gen_label(0), w.gen_label(1)):
        units = _units(w, labels, height)
        ideal, _ = _ideal_scans_agree(units, height)
        assert ideal
    # with a small sample cap, the caps stop both scans at the same place
    monkeypatch.setattr(detect, "IDEAL_SAMPLES", 5)
    _, sample = _ideal_scans_agree(units, height)
    assert sample.samples_capped


def test_ideal_scan_matches_element_oracle_off_laurent(w_u_u3):
    # the u-adic valuation of F7(u)
    ideal, _ = _ideal_scans_agree(_units(w_u_u3, ("u",), 2), 2)
    assert ideal


def test_laurent_detection_classifies_nothing_on_its_window(w_tsc,
                                                            monkeypatch):
    # every class of the walks comes from the bottom window F7 or from
    # exponents; the top window w_tsc classifies no element of the stream
    _cold(monkeypatch, w_tsc)
    calls = []
    classify = fields.Window.classify

    def counted(self, x):
        calls.append(self)
        return classify(self, x)

    monkeypatch.setattr(fields.Window, "classify", counted)
    detect_from_cgroup(CharacterGroup.full(w_tsc), 1, 8)
    assert calls
    assert all(c.model.kind != "laurent" for c in calls)
