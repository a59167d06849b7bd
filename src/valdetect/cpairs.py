"""C-pair and C-group testing, by direct scan and by the K-theoretic bound.

The direct method scans the enumeration stream for a witness x with
f(1-x)g(x) != f(x)g(1-x).  The identity is bilinear: its two sides differ
by the pairing of f ^ g with the Steinberg wedge cls x ^ cls 1-x, which the
character values make well defined on the wedge coordinates modulo
min(o_i, o_j).  So the scan pairs f ^ g with the few distinct wedges of
what the linear verdicts read (ScanIndex.linear_entries), each represented
by its first entry in order, and the witness is the same stream-minimal x
a scan of every entry would find.  At height >= 1 on rational-function
windows of odd characteristic and Laurent towers over them, that is the
span prefix, the shortest stream prefix whose wedges span all that the
wedges of K span, and every verdict is exact; elsewhere it is the class
table, exact where its triples are exhausted at the height (finite fields
and Laurent towers over them) and a semi-decision otherwise.  The per-height
pair kernel (ScanIndex.pair_kernel) holds those wedges, the exactness flag
and, per f ^ g mod l^n, the first wedge that pairs nonzero with it.  A pair
does only the work its verdict needs: with f ^ g = 0 mod l^n nothing is
read, and cyclicity of the pair is tested only when the scan passed on a
table that is not exhaustive, the one case where it decides the verdict
(exact or up to the bound).  By the same bilinearity the C-center of a
group A is linear algebra: the members of A that kill one row per
quasi-basis element and distinct wedge.

The K-theoretic method compares the order drop c of the wedge generator in
the presented K_2-quotient against the order drops a, b of the two
characters: the pair is a C-pair iff c <= a+b.  A negative K-theoretic
verdict is always certain and carries a direct witness; the two methods must
agree wherever both are exact.

Both methods and the C-group check return a `scans.Verdict`, which fails
exactly when it carries a witness x, a replayable violation of the
identity; `exact` says whether a verdict that holds covers all of K.
"""

import operator
from functools import cache

from .coeffmod import index_m, val_mod, vectors_cyclic, wedge, wedge_pairs
from .errors import (
    LevelMismatch,
    NotQuasiIndependent,
    PreconditionViolated,
    RankNotTwo,
)
from .characters import Character, CharacterGroup
from .scans import Verdict, index_of

CPAIR = "CPair"
NOT_CPAIR = "NotCPair"
CPAIR_UP_TO = "CPairUpToBound"


def c_pair_direct(f: Character, g: Character, height: int) -> Verdict:
    """Scan x in the stream for f(1-x)g(x) = f(x)g(1-x); witnesses minimal.

    f(1-x)g(x) - f(x)g(1-x) = -<f ^ g, cls x ^ cls 1-x>, so an entry's
    verdict depends only on its wedge and the scan pairs f ^ g with the
    first entry of each distinct wedge (ScanIndex.pair_kernel): of the span
    prefix where it serves, which decides every pair exactly, else of the
    table.  Those come in stream order, so the first one that pairs
    nonzero is the first violating entry of the table
    (ScanIndex.first_violation), or a fallback entry of the prefix where
    the degree-1 sweep does not span.  With f ^ g = 0 mod l^n nothing pairs
    nonzero and nothing is read.  A cyclic pair has f ^ g = 0, so
    cyclicity only matters once the scan has passed on a table that is not
    exhaustive: it makes that verdict exact.  Passing pairs share one
    frozen verdict per height and exactness.
    """
    w = f.window
    if g.window is not w and g.window != w:
        raise LevelMismatch("characters on different windows")
    mod = w.level.modulus
    fg = tuple([c % mod for c in wedge(f.values, g.values)])
    index = index_of(w)
    if any(fg):
        ent, exhaustive = index.first_violation(height, fg)
        if ent is not None:
            return Verdict(NOT_CPAIR, height, witness=ent.element(),
                           method="direct", exact=True)
    else:
        exhaustive = index.linear_exact(height)
    exact = exhaustive or vectors_cyclic(f.values, g.values, w.level.ell,
                                         w.level.n)
    return _passed(height)[exact]


@cache
def _passed(height):
    """The frozen verdicts that the passing pairs at `height` share, the
    bounded one first, so that exactness indexes them."""
    return (Verdict(CPAIR_UP_TO, height, method="direct", exact=False),
            Verdict(CPAIR, height, method="direct", exact=True))


def order_drop(f: Character) -> int:
    """a with f of order l^(n-a)."""
    return f.level.n - f.order_exponent()

def quasi_independent(f: Character, g: Character) -> bool:
    """No relation af + bg = 0 beyond the termwise ones."""
    span = CharacterGroup(f.window, (f, g))
    size = 1
    for _, order in span.member_quasi_basis():
        size *= order
    ell = f.level.ell
    return size == ell ** (f.order_exponent() + g.order_exponent())


def c_pair_ktheory(f: Character, g: Character, sp) -> Verdict:
    """Order-drop criterion c <= a+b on the presented K2-quotient."""
    if f.window != g.window or f.window != sp.window:
        raise LevelMismatch("characters and presentation do not match")
    w = f.window
    if w.rank != 2:
        raise RankNotTwo(f"window has rank {w.rank}")
    if not quasi_independent(f, g):
        raise NotQuasiIndependent("characters are not quasi-independent")
    a, b = order_drop(f), order_drop(g)
    cval, wit = _k2_pair_drop(sp, f, g, a, b)
    if cval <= a + b:
        kind = CPAIR if sp.exhaustive else CPAIR_UP_TO
        return Verdict(kind, sp.height, method="ktheory", exact=sp.exhaustive)
    return Verdict(NOT_CPAIR, sp.height, witness=wit, method="ktheory",
                   exact=True)


def _k2_pair_drop(sp, f, g, a, b):
    """(c, witness) with the pair's K2-quotient of order l^(n-c); the witness
    realizes the largest order drop and is a direct violation when c > a+b."""
    w = sp.window
    ell, n = w.level.ell, w.level.n
    wedge_exp = n - max(a, b)     # order of x^y in the pair quotient
    best = wedge_exp
    best_wit = None
    for wit in sp.witnesses:
        fz, gz = f.evaluate_class(wit.cls_x), g.evaluate_class(wit.cls_x)
        fm, gm = f.evaluate_class(wit.cls_1mx), g.evaluate_class(wit.cls_1mx)
        psi_z = (fz // ell ** a, gz // ell ** b)
        psi_m = (fm // ell ** a, gm // ell ** b)
        coeff = wedge(psi_z, psi_m)[0] % ell ** wedge_exp
        v = val_mod(coeff, ell, wedge_exp)
        if v < best:
            best = v
            best_wit = wit
    cval = n - best
    return cval, (best_wit.element() if best_wit is not None else None)


def c_group(group: CharacterGroup, height: int) -> Verdict:
    """Pairwise C-pair check over a quasi-basis of the subgroup."""
    basis = [c for c, _ in group.member_quasi_basis()]
    exact = True
    for i, j in wedge_pairs(len(basis)):
        v = c_pair_direct(basis[i], basis[j], height)
        if not v.holds():
            return Verdict("NotCGroup", height, witness=v.witness,
                           exact=True, pair=(basis[i], basis[j]))
        exact = exact and v.exact
    kind = "CGroup" if exact else "CGroupUpToBound"
    return Verdict(kind, height, exact=exact)


def c_center(group: CharacterGroup, height: int) -> CharacterGroup:
    """{f in A : f forms a C-pair with every quasi-basis element g of A}.

    <f ^ g, x> = sum_k f_k <e_k ^ g, x>, so f forms a C-pair with g at this
    height iff f kills the row (<e_k ^ g, x>)_k of every distinct nonzero
    Steinberg wedge x of the pair kernel, the span prefix's or the scan
    table's (cyclic pairs have f ^ g = 0 and pass too).  The center is A
    intersected with the kernel of all those rows: a subgroup by
    construction, found without listing A.
    """
    w = group.window
    mod = w.level.modulus
    wedges = [x for x, _ in index_of(w).pair_kernel(height)[0]]
    unit_vectors = [tuple(int(i == k) for i in range(w.rank))
                    for k in range(w.rank)]
    rows = []
    for g, _ in group.member_quasi_basis():
        cols = [wedge(e, g.values) for e in unit_vectors]
        rows += [tuple(sum(map(operator.mul, col, x)) % mod
                       for col in cols) for x in wedges]
    return group.intersect(
        CharacterGroup.killing_classes(w, dict.fromkeys(rows)))


# height of the C-pair check on the inputs of cyclic_pair_transfer
TRANSFER_VERIFY_HEIGHT = 2


def cyclic_pair_transfer(fp: Character, gp: Character, x, n: int) -> bool:
    """For a C-pair at level M1(n) = 2n-1, the reduced pair Psi = (f_n, g_n)
    has <Psi(1-x), Psi(x)> cyclic; returns that check (true unless the
    inputs were not really a C-pair at the lifted level)."""
    if fp.window != gp.window:
        raise LevelMismatch("characters on different windows")
    if fp.level.n != index_m(1, n):
        raise LevelMismatch(
            f"inputs must live at level {index_m(1, n)} for target {n}")
    probe = c_pair_direct(fp, gp, TRANSFER_VERIFY_HEIGHT)
    if not probe.holds():
        raise PreconditionViolated("inputs are not a C-pair at the lifted level")
    f, g = fp.reduce_level(n), gp.reduce_level(n)
    w = f.window
    one_minus = w.model.one() - x
    if x.is_zero() or one_minus.is_zero():
        raise PreconditionViolated("x must avoid 0 and 1")
    psi_x = (f.evaluate(x), g.evaluate(x))
    psi_m = (f.evaluate(one_minus), g.evaluate(one_minus))
    return vectors_cyclic(psi_m, psi_x, w.level.ell, w.level.n)
