"""The element walks of rigid and detect read one class list per window,
owned by the window's ScanIndex; these tests hold that list, the pair
memo and the ideal scan to the walks that classify every element
themselves."""

import itertools
from dataclasses import asdict

import pytest

from valdetect import detect, fields
from valdetect.characters import Character, CharacterGroup
from valdetect.detect import _maximal_ideal_scan, detect_from_cgroup
from valdetect.fields import format_element, parse_field, parse_window
from valdetect.rigid import (
    PAIR_HEIGHT_CAP,
    MultSubgroup,
    _pair_failure,
    canonical_valuation,
    capped_stream,
    classified_stream,
)
from valdetect.scans import index_of

from oracles import maximal_ideal_scan_by_elements, pair_failure_by_products


def _cold(w):
    """Drop the window's stream classes and pair memo, so the next walk
    classifies from position 0."""
    index = index_of(w)
    index.stream_classes.clear()
    index.pair_classes.clear()
    return index


def _fmt(pair):
    return None if pair is None else [format_element(e) for e in pair]


def test_pair_failure_matches_product_oracle(w5_tsc):
    index = _cold(w5_tsc)
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


# (field, window, height)
STREAM_CASES = [
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}", 8),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", 3),
]


@pytest.mark.parametrize("fspec,wspec,height", STREAM_CASES)
def test_stream_classes_match_classify(fspec, wspec, height):
    w = parse_window(parse_field(fspec), wspec)
    _cold(w)
    one = w.model.one()
    # a low walk, then a high one that extends the list past its end
    for h in (1, height):
        rows = list(classified_stream(w, h))
        for x, cls_x, cls_opx in rows:
            if x.is_zero():
                assert (cls_x, cls_opx) == (None, w.zero_class())
            else:
                assert cls_x == w.classify(x)
                assert cls_opx == w.classify_sum(one, x)
    assert len(index_of(w).stream_classes) == len(rows)


def _ideal_scans_agree(units, height):
    ideal, sample = _maximal_ideal_scan(units, height)
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


@pytest.mark.parametrize("fspec,wspec,height", STREAM_CASES)
def test_ideal_scan_matches_element_oracle(fspec, wspec, height,
                                           monkeypatch):
    # the t-adic valuation, and the rank-2 one, under which 1 + c for a
    # t-constant c need not be a unit
    w = parse_window(parse_field(fspec), wspec)
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


def test_second_detection_classifies_a_quarter(w_tsc, monkeypatch):
    _cold(w_tsc)
    calls = []
    classify = fields.Window.classify

    def counted(self, x):
        calls.append(1)
        return classify(self, x)

    monkeypatch.setattr(fields.Window, "classify", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        detect_from_cgroup(CharacterGroup.full(w_tsc), 1, 8)
        counts.append(len(calls))
    assert 4 * counts[1] <= counts[0]
