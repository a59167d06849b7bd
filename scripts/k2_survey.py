#!/usr/bin/env python3
"""Survey the presented K2 orders across windows and scan heights, showing
the monotone stabilization of the upper bound and the tame lower bound where
it applies."""

import sys

from valdetect.errors import UnsupportedValuation
from valdetect.fields import parse_field, parse_window
from valdetect.milnor import k2_cyclic_order, k2_tame_lower_bound, \
    steinberg_scan

CASES = [
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-3]}", (0, 1, 2, 3, 4)),
    ("ratfunc(gf:7,u)", "{ell=3,n=1,gens=[u,u-1]}", (0, 1, 2, 3, 4)),
    ("laurent(gf:7,t)", "{ell=3,n=1,gens=[t,const]}", (0, 2, 4, 8)),
    ("laurent(gf:19,t)", "{ell=3,n=2,gens=[t,const]}", (0, 2, 4, 9)),
]


def main():
    for fspec, wspec, heights in CASES:
        model = parse_field(fspec)
        w = parse_window(model, wspec)
        print(f"== {fspec} :: {w.spec()}")
        for h in heights:
            sp = steinberg_scan(w, h)
            order, c = k2_cyclic_order(sp)
            line = (f"  height {h}: order <= {order} (c >= {c}), "
                    f"witnesses {len(sp.witnesses)}")
            if sp.exhaustive:
                line += " [exhaustive]"
            print(line)
        try:
            lb = k2_tame_lower_bound(w)
            print(f"  tame lower bound: order >= {lb}")
        except UnsupportedValuation:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
