#!/usr/bin/env python3
"""Experimental probe: run the C-group detection with the lifting level
forced down to N = n (far below the proven staircase bound) and report
whether the recovered valuation still matches the native one.

The proven bound N(M1(n)), printed as proven_bound, is far larger once
n > 1: 52,473 at l = 3, n = 2, against a lift level of 2 here.  The staircase
bound is not expected to be sharp, and on these concrete towers detection
already succeeds with no headroom at all.  Nothing here feeds the acceptance
suite."""

import json
import sys

from valdetect.characters import decomp_chars, inertia_chars
from valdetect.coeffmod import index_m, index_n
from valdetect.detect import detect_from_cgroup
from valdetect.fields import ValuationHandle, parse_field, parse_window

CASES = [
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", ["t"], 1, 8),
    ("laurent(laurent(gf:7,s),t)", "{ell=3,n=1,gens=[t,s,const]}",
     ["t", "s"], 1, 8),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", ["t"], 2, 9),
]


def main():
    for fspec, wspec, steps, n, height in CASES:
        model = parse_field(fspec)
        w = parse_window(model, wspec)
        v = ValuationHandle.from_steps(model, steps)
        D, cert = decomp_chars(v, w, height)
        ell = w.level.ell
        proven = index_n(ell, index_m(1, n))[1]
        rep = detect_from_cgroup(D, n, height, aggressive=True)
        recovered = rep.detected_group == inertia_chars(v, w.at_level(n))
        print(json.dumps({
            "field": fspec, "window": w.spec(), "valuation": v.spec(),
            "n": n, "lift_level_used": w.level.n,
            "proven_bound": proven,
            "decomposition_certificate": cert.describe(),
            "inertia_recovered_exactly": recovered,
            "quotient_cyclic": rep.quotient_cyclic,
            "notes": rep.notes,
        }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
