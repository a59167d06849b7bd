"""Scan entries carry their Steinberg wedge, and the K2 presentation's
witnesses are those entries.

Every tabled entry's `wedge` must equal `wedge_of(cls x, cls 1-x)` and be
None exactly when x = 1; `steinberg_scan` must return the witnesses the
reference loop finds by computing each wedge afresh, in the same order.
Where the span prefix serves (height >= 1 and `wedge_span`), those are
the table's witnesses up to the first one at which they span all that the
table's wedges span, with or without stop_at_floor.
"""

import pytest

from valdetect.fields import parse_field, parse_window
from valdetect.milnor import steinberg_scan
from valdetect.scans import scan_index, wedge_of, wedge_span

from oracles import steinberg_witnesses_by_wedge_of

# (field, window, heights)
WINDOWS = [
    ("gf:7", "{ell=3,n=1,gens=[const]}", range(5)),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3,const]}", range(5)),
    ("laurent(ratfunc(gf:7,u),t)", "{ell=3,n=1,gens=[t,u,u-3]}", (3,)),
    ("laurent(laurent(gf:5,s),t)", "{ell=2,n=1,gens=[t,s,const]}", range(5)),
    ("laurent(laurent(gf:19,s),t)", "{ell=3,n=2,gens=[t,s,const]}", (9,)),
]


def _window(fspec, wspec):
    return parse_window(parse_field(fspec), wspec)


@pytest.mark.parametrize("fspec,wspec,heights", WINDOWS)
def test_every_entry_carries_its_wedge(fspec, wspec, heights):
    w = _window(fspec, wspec)
    for h in heights:
        entries = list(scan_index(w, h).entries(h))
        assert entries
        for ent in entries:
            assert (ent.wedge is None) == (ent.cls_1mx is None)
            if ent.wedge is not None:
                assert ent.wedge == wedge_of(w, ent.cls_x, ent.cls_1mx)


@pytest.mark.parametrize("fspec,wspec", [row[:2] for row in WINDOWS])
@pytest.mark.parametrize("stop_at_floor", [False, True])
def test_steinberg_scan_matches_the_wedge_of_loop(fspec, wspec,
                                                  stop_at_floor):
    w = _window(fspec, wspec)
    for h in range(5):
        sp = steinberg_scan(w, h, stop_at_floor=stop_at_floor)
        got = [(e.cls_x, e.cls_1mx, e.wedge, e.element())
               for e in sp.witnesses]
        want = steinberg_witnesses_by_wedge_of(
            w, h, stop_at_floor, stop_at_span=h >= 1 and wedge_span(w))
        assert [r[:3] for r in got] == [r[:3] for r in want]
        assert [(x.model, x.data) for *_, x in got] == \
            [(x.model, x.data) for *_, x in want]
