"""Workload inputs generated from the seed.

Everything a workload varies is drawn here, in the parent process, before
any child starts; the child receives only the resulting plain-JSON inputs.
This module does not import valdetect.
"""

import random

WORKLOADS = ("ratfunc-k2", "laurent-detect", "cl-check")

# laurent(laurent(gf:19,s),t) with {ell=3,n=2,gens=[t,s,const]}: every
# generator class has order 9 (9 divides 19-1), so the characters are all
# of (Z/9)^3
CL_TOWER_MOD = 9
CL_TOWER_RANK = 3
CL_TOWER_PAIRS = 300


def _place_shift(rng):
    """a in 1..6, so that u and u-a are distinct degree-one places of F7(u)."""
    return rng.randint(1, 6)


def _vector(rng):
    return [rng.randrange(CL_TOWER_MOD) for _ in range(CL_TOWER_RANK)]


def _independent_mod3(v1, v2):
    """Whether v1, v2 stay independent modulo 3, i.e. they span a subgroup
    of (Z/9)^3 with 81 members."""
    a = [x % 3 for x in v1]
    b = [x % 3 for x in v2]
    return any((a[i] * b[j] - a[j] * b[i]) % 3
               for i in range(3) for j in range(i + 1, 3))


def make_inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("ratfunc-k2", "laurent-detect"):
        return {"a": _place_shift(rng)}
    if workload == "cl-check":
        a = _place_shift(rng)
        pairs = set()
        while len(pairs) < CL_TOWER_PAIRS:
            f, g = tuple(_vector(rng)), tuple(_vector(rng))
            if f != g:
                pairs.add((min(f, g), max(f, g)))
        while True:
            g1, g2 = _vector(rng), _vector(rng)
            if _independent_mod3(g1, g2):
                break
        return {"a": a,
                "tower_pairs": [[list(f), list(g)] for f, g in sorted(pairs)],
                "tower_subgroup": [g1, g2]}
    raise ValueError(f"unknown workload {workload!r}")
