"""Reference algorithms that the library no longer runs, kept as referees
for the fast paths that replaced them."""

import functools

from valdetect.characters import (
    Character,
    CharacterGroup,
    _finite_kernel_is_everything,
)
from valdetect.coeffmod import (
    howell_form,
    quotient_span,
    span_contains,
    span_quasi_basis,
    vectors_cyclic,
    wedge,
    wedge_pairs,
)
from valdetect.errors import (
    LevelMismatch,
    NotValuative,
    UnsupportedValuation,
    ZeroElement,
)
from valdetect.fields import (
    CONST,
    PLACE,
    UNIF,
    FFModel,
    Window,
    _place_residue,
    enumerate_blocks,
    laurent_exponents,
    residue_field_of_place,
)
from valdetect import detect
from valdetect.milnor import SymbolPresentation
from valdetect.rigid import PAIR_HEIGHT_CAP, MultSubgroup, valuative_test
from valdetect.scans import (
    ELEMENT_RATFUNC_CAP,
    RATFUNC_DEGREE_CAP,
    ScanEntry,
    Verdict,
    exhaustive_classes,
    index_of,
    scan_index,
    wedge_of,
)


def submodule_contains(module, gens, x) -> bool:
    """Exact membership of x in the span of gens inside the presented module:
    q(x) against the Howell form of the q-images of gens, so the relations
    enter only through the module's cached Smith data."""
    if len(x) != module.rank:
        raise LevelMismatch("vector width does not match module rank")
    return span_contains(quotient_span(module, gens), module.quotient(x),
                         module.level.ell, module.level.n)


def cyclic_contains_by_howell(v, x, ell, n) -> bool:
    """x in <v> in (Z/l^n)^k through the Howell form of the one row v."""
    return span_contains(howell_form([v], ell, n, len(v)), x, ell, n)


# ---------------------------------------------------------------------------
# valuation-chain walkers: each walks the handle's steps against the tower
# itself instead of reading the record the handle's constructor keeps
# ---------------------------------------------------------------------------

def spec_by_walk(handle) -> str:
    out = []
    cur = handle.model
    for kind, payload in handle.steps:
        if kind == "unif":
            out.append(payload)
            cur = cur.base
        else:
            out.append(cur.ff.poly_fmt(payload, cur.var))
            cur = FFModel(residue_field_of_place(cur, payload))
    return ",".join(out)


def residue_model_by_walk(handle):
    cur = handle.model
    for kind, payload in handle.steps:
        if kind == "unif":
            if cur.kind != "laurent" or cur.var != payload:
                raise UnsupportedValuation("chain does not match tower")
            cur = cur.base
        else:
            if cur.kind != "ratfunc":
                raise UnsupportedValuation("chain does not match tower")
            cur = FFModel(residue_field_of_place(cur, payload))
    return cur


def value_of_by_walk(handle, x):
    if x.model != handle.model:
        raise UnsupportedValuation("element not in the handle's field")
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    out = []
    cur = x
    for kind, payload in handle.steps:
        if kind == "unif":
            v, cur = cur.laurent_lead()
            out.append(v)
        else:
            m = cur.model
            num, den = cur.data
            v = m.ff.place_multiplicity(num, payload) - \
                m.ff.place_multiplicity(den, payload)
            out.append(v)
            cur = _place_residue(m, payload, num, den, v)
    return tuple(out)


def residue_of_by_walk(handle, x):
    if any(c != 0 for c in value_of_by_walk(handle, x)):
        raise UnsupportedValuation("residue of a non-unit")
    cur = x
    for kind, payload in handle.steps:
        if kind == "unif":
            _, cur = cur.laurent_lead()
        else:
            m = cur.model
            num, den = cur.data
            cur = _place_residue(m, payload, num, den, 0)
    return cur


def inertia_chars_by_walk(handle, window):
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    chain = set()
    for kind, payload in handle.steps:
        chain.add((UNIF, payload) if kind == "unif" else (PLACE, payload))
    return CharacterGroup(window, [Character.dual(window, i)
                                   for i, g in enumerate(window.gens)
                                   if g in chain])


def decomp_chars_by_walk(handle, window, height):
    """(group, stabilization height) with no memo; recurses on the bare step
    tuple.  The sweep at a place stabilizes at the first height h whose
    group equals those of h - 1 and h - 2; the height is None when the sweep
    through `height` does not stabilize, and 0 when no place is reached."""
    if handle.model != window.model:
        raise UnsupportedValuation("handle on a different field")
    return _decomp_by_walk(handle.steps, window, height)


def _decomp_by_walk(steps, window, height):
    if not steps:
        return CharacterGroup.full(window), 0
    kind, payload = steps[0]
    model = window.model
    if kind == "unif":
        if model.kind != "laurent" or model.var != payload:
            raise UnsupportedValuation("chain does not match tower")
        sub, stable = _decomp_by_walk(steps[1:], window.base_window(),
                                      height)
        gens = [Character(window, window.from_base(g.values, 0))
                for g in sub.gens]
        for i, g in enumerate(window.gens):
            if g == (UNIF, payload):
                gens.append(Character.dual(window, i))
        return CharacterGroup(window, gens), stable
    if model.kind != "ratfunc":
        raise UnsupportedValuation("place step off a rational function field")
    if len(steps) > 1:
        raise UnsupportedValuation("no places below a finite residue field")
    classes = set()
    history = []
    for h in range(height + 1):
        classes |= decomp_place_classes(window, payload, h)
        group = CharacterGroup.killing_classes(window, sorted(classes))
        history.append(group)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return group, h
    return group, None


def decomp_place_classes(window, place, h):
    """Window classes of 1 + P*(a/b) over the block max(deg a, deg b) = h
    with P not dividing b: the sweep that the closed form of
    `characters._decomp_at_place` is checked against."""
    ff = window.model.ff
    out = set()
    pa_memo = {}
    for bdeg in range(h + 1):
        for b in ff.monic_polys(bdeg):
            if ff.place_multiplicity(b, place) > 0:
                continue
            adegs = range(h + 1) if bdeg == h else (h,)
            for adeg in adegs:
                for a in ff.polys_of_degree(adeg):
                    pa = pa_memo.get(a)
                    if pa is None:
                        pa = pa_memo[a] = ff.poly_mul(place, a)
                    num = ff.poly_add(b, pa)
                    if not num:
                        continue
                    out.add(window.fraction_class(num, b))
    return out


def residue_window_by_walk(handle, window):
    cur = window
    for idx, (kind, payload) in enumerate(handle.steps):
        model = cur.model
        if kind == "unif":
            if model.kind != "laurent" or model.var != payload:
                raise UnsupportedValuation("chain does not match tower")
            cur = cur.base_window()
        else:
            if idx + 1 != len(handle.steps):
                raise UnsupportedValuation("places end at finite residues")
            kres = residue_field_of_place(model, payload)
            const_listed = any(g[0] == CONST for g in cur.gens)
            if _finite_kernel_is_everything(model, payload, cur,
                                            const_listed=const_listed):
                return Window(FFModel(kres), cur.level, ())
            if not const_listed and model.ff.poly_deg(payload) == 1:
                return Window(FFModel(kres), cur.level, ())
            raise UnsupportedValuation(
                "residue kernel after the place step is not a window kernel")
    return cur


# ---------------------------------------------------------------------------
# Steinberg witnesses and roots of unity, as computed before scan entries
# carried their wedge and before the order rule
# ---------------------------------------------------------------------------

def steinberg_witnesses_by_wedge_of(window, height, stop_at_floor=False,
                                    stop_at_span=False):
    """(cls z, cls 1-z, wedge, element) of each witness: the scan entries
    through `height` whose wedge, computed afresh by wedge_of, is nonzero,
    stopping once the relations span the whole wedge when stop_at_floor,
    and once they span what all the table's wedges span when
    stop_at_span."""
    ell, n = window.level.ell, window.level.n
    scales = wedge_scales(window)
    wedge_full = [tuple(s if k == c else 0 for k in range(len(scales)))
                  for c, s in enumerate(scales)]
    table_span = table_wedge_span(window, height) if stop_at_span else None
    out, span_rows = [], []
    for ent in scan_index(window, height).entries(height):
        if ent.cls_1mx is None:
            continue
        vec = wedge_of(window, ent.cls_x, ent.cls_1mx)
        if not any(vec):
            continue
        out.append((ent.cls_x, ent.cls_1mx, vec, ent.element()))
        span_rows.append(tuple(v * s for v, s in zip(vec, scales)))
        if not (stop_at_floor or stop_at_span):
            continue
        form = howell_form(span_rows, ell, n, len(scales))
        if stop_at_floor and all(span_contains(form, row, ell, n)
                                 for row in wedge_full):
            break
        if form == table_span:
            break
    return out


def wedge_scales(window):
    """l^n / min(o_i, o_j) per wedge coordinate e_ij: the factors that
    embed wedge vectors into (Z/l^n)^pairs."""
    o = window.orders
    mod = window.level.modulus
    return [mod // min(o[i], o[j]) for i, j in wedge_pairs(window.rank)]


def wedge_span_form(window, wedges):
    """The Howell form of the span of wedge vectors, embedded by
    wedge_scales."""
    scales = wedge_scales(window)
    return howell_form([tuple(v * s for v, s in zip(x, scales))
                        for x in wedges],
                       window.level.ell, window.level.n, len(scales))


def table_wedge_span(window, height):
    """wedge_span_form of every wedge of the table through `height`."""
    return wedge_span_form(window, [
        wedge_of(window, ent.cls_x, ent.cls_1mx)
        for ent in scan_index(window, height).entries(height)
        if ent.cls_1mx is not None])


# ---------------------------------------------------------------------------
# linear verdicts read off every wedge of the class table, as they were
# read before a stream prefix whose wedges span the wedge module replaced
# the table wherever that span is known to be full
# ---------------------------------------------------------------------------

@functools.cache
def table_kernel(window, height):
    """(wedge, entry) for the first entry of each distinct nonzero wedge of
    the table through `height`, in stream order; kept per window and
    height, as the tables are."""
    first = {}
    for ent in scan_index(window, height).entries(height):
        if ent.cls_1mx is not None:
            vec = wedge_of(window, ent.cls_x, ent.cls_1mx)
            if any(vec):
                first.setdefault(vec, ent)
    return tuple(first.items())


def c_pair_by_table(f, g, height):
    """The C-pair verdict of the table: the first distinct wedge in stream
    order that pairs nonzero with f ^ g gives the witness; a pass is exact
    when the table is exhaustive or the pair cyclic."""
    w = f.window
    mod = w.level.modulus
    fg = tuple(c % mod for c in wedge(f.values, g.values))
    for x, ent in table_kernel(w, height):
        if sum(a * b for a, b in zip(fg, x)) % mod:
            return Verdict("NotCPair", height, witness=ent.element(),
                           method="direct", exact=True)
    if exhaustive_classes(w, height) or vectors_cyclic(
            f.values, g.values, w.level.ell, w.level.n):
        return Verdict("CPair", height, method="direct", exact=True)
    return Verdict("CPairUpToBound", height, method="direct", exact=False)


def c_group_by_table(group, height):
    """The C-group verdict of the table, pair by pair of a quasi-basis."""
    basis = [c for c, _ in group.member_quasi_basis()]
    exact = True
    for i, j in wedge_pairs(len(basis)):
        v = c_pair_by_table(basis[i], basis[j], height)
        if not v.holds():
            return Verdict("NotCGroup", height, witness=v.witness,
                           exact=True, pair=(basis[i], basis[j]))
        exact = exact and v.exact
    return Verdict("CGroup" if exact else "CGroupUpToBound", height,
                   exact=exact)


def c_center_by_table(group, height):
    """The members of the group that form a C-pair with every quasi-basis
    element at this height, by the table's verdicts."""
    basis = [c for c, _ in group.member_quasi_basis()]
    return CharacterGroup(group.window, tuple(
        f for f in group.elements()
        if all(c_pair_by_table(f, g, height).holds() for g in basis)))


def steinberg_by_table(window, height):
    """The K2 presentation whose witnesses are every table entry with a
    nonzero wedge, exhaustive where the table is."""
    return SymbolPresentation(
        window, height,
        tuple(ent for ent in scan_index(window, height).entries(height)
              if ent.cls_1mx is not None
              and any(wedge_of(window, ent.cls_x, ent.cls_1mx))),
        exhaustive=exhaustive_classes(window, height))


def canonical_omega_code_by_order_loop(ff, ell, n):
    """Least code among the elements of order exactly l^n in the powers of
    g^((q-1)/l^n), each order found by repeated multiplication."""
    mod = ell ** n

    def mult_order(x):
        o, cur = 1, x
        while cur != ff.one and o <= mod:
            cur = ff.mul(cur, x)
            o += 1
        return o

    x = ff.pow(ff.generator(), (ff.q - 1) // mod)
    best, cur = None, x
    for _ in range(1, mod):
        if mult_order(cur) == mod and (best is None or cur < best):
            best = cur
        cur = ff.mul(cur, x)
    return best


# ---------------------------------------------------------------------------
# valuative subgroups as {x : Psi(x) in S}, the representation that the
# kernel of a character group replaced
# ---------------------------------------------------------------------------

def psi_span_contains(psi, span, cls) -> bool:
    """Whether a class lies in {x : Psi(x) in S}: the Psi-image of the class
    against the Howell form of the span S of value vectors; S = () is the
    plain kernel of the characters psi."""
    w = psi[0].window
    ell, n = w.level.ell, w.level.n
    img = tuple(f.evaluate_class(cls) for f in psi)
    form = howell_form(span, ell, n, len(psi))
    return not any(img) or span_contains(form, img, ell, n)


def one_variable_witness(contains_class, window, height):
    """The first scan entry x through `height`, in stream order, with x,
    1+x and (1+x)/x all outside H, walked entry by entry with the class
    predicate of H; the element, or None."""
    for ent in scan_index(window, height).entries(height):
        if contains_class(ent.cls_x) or contains_class(ent.cls_1px):
            continue
        if contains_class(window.class_sub(ent.cls_1px, ent.cls_x)):
            continue
        return ent.element()
    return None


def comparable_by_entries(f, g, height):
    """(kind, witness) of the comparability scan of two characters, each
    checked alone by valuative_test, walked entry by entry: the first entry
    x, in stream order, with <Psi(1-x), Psi(x)> not cyclic is the
    witness."""
    w = f.window
    for h in (f, g):
        if not valuative_test(MultSubgroup(CharacterGroup(w, (h,))),
                              height).holds():
            raise NotValuative("input character is not valuative at this "
                               "height")
    ell, n = w.level.ell, w.level.n
    for ent in scan_index(w, height).entries(height):
        if ent.cls_1mx is None:
            continue
        psi_x = (f.evaluate_class(ent.cls_x), g.evaluate_class(ent.cls_x))
        psi_m = (f.evaluate_class(ent.cls_1mx),
                 g.evaluate_class(ent.cls_1mx))
        if not vectors_cyclic(psi_m, psi_x, ell, n):
            return "NotComparable", ent.element()
    if exhaustive_classes(w, height):
        return "Comparable", None
    return "ComparableUpToBound", None


def rigid_qualifying(f, g, height):
    """(qualifying, generator) of the rigid complement of (f, g), found
    from elements: the first element of the scan table with each distinct
    qualifying image Psi(x) = (f(x), g(x)), classified from the element
    itself, so x, 1+x and Psi(1+x) differ from 0; and the Psi-image
    generating H/T, or None when H = T."""
    w = f.window
    ell, n = w.level.ell, w.level.n
    one = w.model.one()
    images, qualifying = [], []
    for ent in scan_index(w, height).entries(height):
        x = ent.element()
        opx = one + x
        if opx.is_zero():
            continue
        img = (f.evaluate(x), g.evaluate(x))
        q = (f.evaluate(opx), g.evaluate(opx))
        if any(img) and any(q) and q != img and img not in images:
            images.append(img)
            qualifying.append(x)
    basis = span_quasi_basis(howell_form(images, ell, n, 2), ell, n)
    assert len(basis) <= 1, "H/T is not cyclic"
    return tuple(qualifying), (basis[0][0] if basis else None)


def cpair_inertia(f, g, qualifying):
    """The members of D = <f, g> that vanish on the classes of the
    qualifying elements of the rigid complement, by intersecting D with
    the group that kills those classes."""
    w = f.window
    return CharacterGroup(w, (f, g)).intersect(CharacterGroup.killing_classes(
        w, [w.classify(x) for x in qualifying]))


# ---------------------------------------------------------------------------
# element walks that classify each element themselves, as they did before
# the walks read one shared class list per window
# ---------------------------------------------------------------------------

def capped_stream(model, height):
    """The element stream that ScanIndex.stream walks: every element of
    enumerate_blocks through `height`, built, with rational-function levels
    capped at ELEMENT_RATFUNC_CAP."""
    return (x for blk in enumerate_blocks(model, height, ELEMENT_RATFUNC_CAP)
            for x in blk)


def pair_failure_by_products(H, height):
    """The first (x, y) over the capped stream, x and y outside H with 1+x
    and 1+y in H, that has 1+x(1+y) outside H, or None: every element and
    every product x(1+y) is built and classified."""
    w = H.window
    one = w.model.one()
    qualifying = []
    for x in capped_stream(w.model, min(height, PAIR_HEIGHT_CAP)):
        if x.is_zero():
            continue
        if H.contains_class(w.classify(x)):
            continue
        cls_opx = w.classify_sum(one, x)
        if cls_opx is None or not H.contains_class(cls_opx):
            continue
        qualifying.append((x, one + x))
    for x, _ in qualifying:
        for y, opy in qualifying:
            cls_probe = w.classify_sum(one, x * opy)
            if cls_probe is not None and not H.contains_class(cls_probe):
                return x, y
    return None


def maximal_ideal_scan_by_elements(units, height):
    """detect._maximal_ideal_scan with is_unit asked of every nonzero x and
    of the built 1+x: the ideal elements x and the VerificationSample,
    under the same caps."""
    model = units.H.window.model
    one = model.one()
    out = []
    sample = detect.VerificationSample(detect.IDEAL_SAMPLES,
                                       detect.MAX_SCANNED)
    for x in capped_stream(model, height):
        if sample.scanned == sample.max_scanned:
            sample.scanned_capped = True
            break
        if sample.samples == sample.max_samples:
            sample.samples_capped = True
            break
        sample.scanned += 1
        if x.is_zero() or units.is_unit(x):
            continue
        opx = one + x
        if opx.is_zero():
            continue
        if units.is_unit(opx):
            out.append(x)
            sample.samples += 1
    return out, sample


# ---------------------------------------------------------------------------
# the two verification walks of a detection report, one per containment, as
# they ran before one walk took both samples; the caps are read off
# valdetect.detect at the call, so a patched cap applies here too
# ---------------------------------------------------------------------------

def maximal_ideal_scan(units, height):
    """Scanned elements of the maximal ideal of the detected valuation:
    non-units x whose 1+x is a unit, each as (x, cls 1+x), and the
    VerificationSample of the scan over the stream of the window of
    units.H.  Capped; the caps bound the verification sample, not the
    detection itself.

    A unit lies in H, so is_unit is asked only of an h whose class lies in
    H."""
    H = units.H
    index = index_of(H.window)
    out = []
    sample = detect.VerificationSample(detect.IDEAL_SAMPLES,
                                       detect.MAX_SCANNED)
    for (cls_x, cls_opx), src in index.stream(height):
        if sample.scanned == sample.max_scanned:
            sample.scanned_capped = True
            break
        if sample.samples == sample.max_samples:
            sample.samples_capped = True
            break
        sample.scanned += 1
        # skip x = 0, x = -1 (1+x = 0), the x with 1+x outside H (no unit)
        # and the units x
        if cls_x is None or cls_opx is None or not H.contains_class(cls_opx):
            continue
        if H.contains_class(cls_x) and \
                units.is_unit(index.element(src), cls_x):
            continue
        if units.is_unit(index.one_plus(src), cls_opx):
            out.append((index.element(src), cls_opx))
            sample.samples += 1
    return out, sample


def verify_decomposition(chars, units, height):
    """All characters kill 1+x for scanned x in the maximal ideal; returns
    the verdict and the VerificationSample."""
    ideal, sample = maximal_ideal_scan(units, height)
    for _, cls in ideal:
        for ch in chars:
            if ch.evaluate_class(cls) != 0:
                return False, sample
    return True, sample


def verify_inertia(group, units, height):
    """All members kill scanned units; returns the verdict and the
    VerificationSample."""
    w = group.window
    members = [Character(w, r) for r in group.howell()]
    index = index_of(w)
    sample = detect.VerificationSample(detect.INERTIA_SAMPLES,
                                       detect.MAX_SCANNED)
    for (cls, _), src in index.stream(height):
        if sample.scanned == sample.max_scanned:
            sample.scanned_capped = True
            break
        if sample.samples == sample.max_samples:
            sample.samples_capped = True
            break
        sample.scanned += 1
        if cls is None or not units.H.contains_class(cls) \
                or not units.is_unit(index.element(src), cls):
            continue
        if not all(f.evaluate_class(cls) == 0 for f in members):
            return False, sample
        sample.samples += 1
    return True, sample


# ---------------------------------------------------------------------------
# the full Laurent lift: every base entry at every exponent |e| <= s, as the
# Laurent tables were built before they kept only the t^0 lifts; patch both
# into valdetect.scans, on a fresh index cache, to build such tables
# ---------------------------------------------------------------------------

def effective_height(model, height):
    if model.kind == "ratfunc":
        return min(height, RATFUNC_DEGREE_CAP)
    return height


def _laurent_block_entries(window, s):
    model = window.model
    mod = window.level.modulus
    res_height = effective_height(model.base, s)
    res_index = scan_index(window.base_window(), res_height)

    def lift(ent, e):
        return lambda: model.elt((((e, ent.element().data),), None))

    # residue classes and triples grouped by first-occurrence block
    for sc in range(min(s, res_height) + 1):
        es = laurent_exponents(s, sc)
        for ent in res_index.blocks[sc]:
            for e in es:
                cls_x = window.from_base(ent.cls_x, e % mod)
                if e > 0:
                    cls_1mx = cls_1px = window.zero_class()
                elif e < 0:
                    cls_1mx = cls_1px = cls_x
                else:
                    cls_1mx = None if ent.cls_1mx is None else \
                        window.from_base(ent.cls_1mx, 0)
                    cls_1px = None if ent.cls_1px is None else \
                        window.from_base(ent.cls_1px, 0)
                yield ScanEntry((s, sc) + ent.key + (e,), cls_x,
                                cls_1mx, cls_1px, lift(ent, e))
