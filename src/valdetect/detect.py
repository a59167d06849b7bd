"""End-to-end detection pipelines: recover a valuation from C-pair or
C-group data, detect inertia inside decomposition, and classify native
valuations by the maximality conditions.

Every report replays its claims: containments are re-verified by evaluating
characters on scanned elements, cyclic quotients are certified by quasi-bases
of the quotient module, and all heights and levels used are recorded.  Each
re-verification is a capped sample; the report names its size and caps and
says whether a cap stopped it.  The three pipelines end in one call that
reads the window, level, inertia labels and quotient orders off the detected
pair I <= D and runs both sample checks.

Both samples walk `ScanIndex.stream`, the one element stream of the
window, which the unit table of the found valuation and the l = 2 pair
clause also read: each position comes with cls x and cls 1+x, and its
element is built only when `is_unit` is asked of it or a sample keeps it.
A unit lies in H, so `is_unit` is asked only of an element whose class
lies in H; the ideal scan asks it of the leading monomial of 1 + x
(`ScanIndex.one_plus`), which has the verdict of 1 + x.
"""

from dataclasses import asdict, dataclass, field

from .coeffmod import index_m, index_n, wedge_pairs
from .errors import (
    HypothesisFailed,
    MainClaimViolated,
    PreconditionViolated,
    UnsupportedValuation,
)
from .characters import (
    Character,
    CharacterGroup,
    decomp_chars,
    inertia_chars,
    residue_rank,
)
from .cpairs import c_group, c_pair_direct, c_center
from .fields import (
    PLACE,
    ValuationHandle,
    Window,
    compose_valuations,
    residue_model,
)
from .rigid import (
    MultSubgroup,
    UnitGroupApprox,
    canonical_valuation,
    comparable,
    rigid_complement,
    valuative_members_mask,
)
from .scans import index_of


@dataclass
class VerificationSample:
    """The sample one containment was re-verified on: `samples` elements
    checked out of `scanned` stream elements, and whether `max_samples` or
    `max_scanned` stopped the scan before the end of the stream."""

    max_samples: int
    max_scanned: int
    samples: int = 0
    scanned: int = 0
    samples_capped: bool = False
    scanned_capped: bool = False

    def stream(self, index, height):
        """`ScanIndex.stream` rows ((cls x, cls 1+x), src), counted, up to
        the first cap that is hit; the caller counts the samples it
        takes."""
        for row in index.stream(height):
            if self.scanned == self.max_scanned:
                self.scanned_capped = True
                return
            if self.samples == self.max_samples:
                self.samples_capped = True
                return
            self.scanned += 1
            yield row


@dataclass
class DetectionReport:
    mode: str
    window: Window
    level_n: int
    level_lift: int
    height: int
    inputs: list
    inertia_labels: list = field(default_factory=list)
    quotient_orders: list = field(default_factory=list)
    quotient_cyclic: bool = False
    branch: str = ""
    containments: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)  # of VerificationSample
    notes: list = field(default_factory=list)
    units: object = None            # UnitGroupApprox of the found valuation
    detected_group: object = None   # the valuative subgroup I

    def payload(self):
        return {
            "mode": self.mode,
            "window": self.window.spec(),
            "field": self.window.model.spec(),
            "ell": self.window.level.ell,
            "n": self.level_n,
            "lift_level": self.level_lift,
            "height": self.height,
            "inputs": self.inputs,
            "inertia": self.inertia_labels,
            "quotient_orders": self.quotient_orders,
            "quotient_cyclic": self.quotient_cyclic,
            "branch": self.branch,
            "containments": self.containments,
            "verification": {k: asdict(v)
                             for k, v in self.verification.items()},
            "notes": self.notes,
        }


def _require_level(N, bound, aggressive, what):
    if aggressive:
        return ["aggressive mode: level bound not enforced "
                f"(need {bound} for {what}, have {N})"]
    if N < bound:
        raise PreconditionViolated(
            f"{what} needs lift level >= {bound}, got {N}")
    return []


def _intermediate_level(n, N, notes):
    """M1(n), clamped to the lift level N; a clamp is noted."""
    M = min(index_m(1, n), N)
    if M < index_m(1, n):
        notes.append(f"intermediate level clamped to {M} (lift too shallow "
                     "for the full staircase)")
    return M


def _maximal_ideal_scan(units: UnitGroupApprox, height):
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
    sample = VerificationSample(IDEAL_SAMPLES, MAX_SCANNED)
    for (cls_x, cls_opx), src in sample.stream(index, height):
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


def _verify_decomposition(chars, units, height):
    """All characters kill 1+x for scanned x in the maximal ideal; returns
    the verdict and the VerificationSample."""
    ideal, sample = _maximal_ideal_scan(units, height)
    for _, cls in ideal:
        for ch in chars:
            if ch.evaluate_class(cls) != 0:
                return False, sample
    return True, sample


def _verify_inertia(group: CharacterGroup, units, height):
    """All members kill scanned units; returns the verdict and the
    VerificationSample."""
    w = group.window
    members = [Character(w, r) for r in group.howell()]
    index = index_of(w)
    sample = VerificationSample(INERTIA_SAMPLES, MAX_SCANNED)
    for (cls, _), src in sample.stream(index, height):
        if cls is None or not units.H.contains_class(cls) \
                or not units.is_unit(index.element(src), cls):
            continue
        if not all(f.evaluate_class(cls) == 0 for f in members):
            return False, sample
        sample.samples += 1
    return True, sample


def _report(mode, inputs, D, I, units, N, height, notes, what, chars,
            branch=""):
    """The report of I <= D at the level of D: the window, level, inertia
    labels and quotient orders come from D and I, and `what` (chars kill
    1+m) and "I in I_v" are re-verified on samples against the units of the
    found valuation; no chars means nothing to check."""
    w = D.window
    orders = D.quotient_orders(I)
    report = DetectionReport(
        mode=mode, window=w, level_n=w.level.n, level_lift=N, height=height,
        inputs=inputs, inertia_labels=I.labels(), quotient_orders=orders,
        quotient_cyclic=len(orders) <= 1, branch=branch, notes=notes,
        units=units, detected_group=I)
    checks = {what: _verify_decomposition(chars, units, height)
              if chars else (True, VerificationSample(0, 0)),
              "I in I_v": _verify_inertia(I, units, height)}
    for key, (ok, sample) in checks.items():
        report.containments[key], report.verification[key] = ok, sample
    return report


def detect_from_cpair(fpp: Character, gpp: Character, n: int, height: int,
                      aggressive: bool = False) -> DetectionReport:
    """Recover a valuation from a C-pair lifted to level N >= N(n): the two
    reduced characters land in D_v(n) with cyclic image mod I_v(n)."""
    if fpp.window != gpp.window:
        raise PreconditionViolated("characters on different windows")
    w = fpp.window
    N = w.level.n
    notes = _require_level(N, index_n(w.level.ell, n)[1], aggressive,
                           "C-pair detection")
    probe = c_pair_direct(fpp, gpp, height)
    if not probe.holds():
        raise PreconditionViolated(
            "inputs are not a C-pair at the lifted level")
    f, g = fpp.reduce_level(n), gpp.reduce_level(n)
    wn = f.window
    rc = rigid_complement(f, g, height)
    branch = "H=T" if rc.is_trivial() else "H!=T"
    units = canonical_valuation(rc.subgroup, height)
    D = CharacterGroup(wn, (f, g))
    # the members of D vanishing on the rigid complement, whose kernel it is
    I = rc.subgroup.group
    return _report("cpair", [fpp.label(), gpp.label()], D, I, units, N,
                   height, notes, "f,g in D_v", (f, g), branch)


def valuative_members(group: CharacterGroup, height: int):
    """The subgroup generated by the individually valuative members."""
    members = [f for f in group.elements() if not f.is_zero()]
    mask = valuative_members_mask(members, height)
    return CharacterGroup(group.window,
                          tuple(f for f, ok in zip(members, mask) if ok))


def detect_from_cgroup(Dpp: CharacterGroup, n: int, height: int,
                       aggressive: bool = False) -> DetectionReport:
    """Recover I <= D with D/I cyclic and D <= D_{v_I}(n) from a C-group at
    level N >= N(M1(n))."""
    w = Dpp.window
    N = w.level.n
    ell = w.level.ell
    notes = _require_level(N, index_n(ell, index_m(1, n))[1], aggressive,
                           "C-group detection")
    probe = c_group(Dpp, height)
    if not probe.holds():
        raise PreconditionViolated("input is not a C-group at its level")
    M = _intermediate_level(n, N, notes)
    Dp = Dpp.reduce_level(M)
    Ip = valuative_members(Dp, height)
    basis = [c for c, _ in Ip.member_quasi_basis()]
    for i, j in wedge_pairs(len(basis)):
        if not comparable(basis[i], basis[j], height).holds():
            raise MainClaimViolated(
                "valuative members with incomparable valuations")
    I = Ip.reduce_level(n)
    D = Dpp.reduce_level(n)
    units = canonical_valuation(MultSubgroup(I), height)
    return _report("cgroup", Dpp.labels(), D, I, units, N, height, notes,
                   "D in D_v", [c for c, _ in D.member_quasi_basis()])


def detect_inertia(Ipp: CharacterGroup, Dpp: CharacterGroup, n: int,
                   height: int, aggressive: bool = False) -> DetectionReport:
    """Given I'' inside the C-center of D'' at level N >= N(M2(M1(n))) with
    D''_n not a C-group, certify that I''_n is valuative and D''_n lies in
    the decomposition group of its canonical valuation."""
    w = Dpp.window
    if Ipp.window != w:
        raise PreconditionViolated("subgroups on different windows")
    N = w.level.n
    ell = w.level.ell
    bound = index_n(ell, index_m(2, index_m(1, n)))[1]
    notes = _require_level(N, bound, aggressive, "inertia detection")
    center = c_center(Dpp, height)
    if not Ipp <= center:
        raise PreconditionViolated("I'' is not inside the C-center of D''")
    D = Dpp.reduce_level(n)
    if c_group(D, height).holds():
        raise HypothesisFailed(
            "D is a C-group; inertia detection needs a non-C decomposition")
    M = _intermediate_level(n, N, notes)
    Ip = Ipp.reduce_level(M)
    members = [f for f in Ip.elements() if not f.is_zero()]
    for f, ok in zip(members, valuative_members_mask(members, height)):
        if not ok:
            raise MainClaimViolated(
                f"member {f.label()} of I' is not valuative")
    I = Ipp.reduce_level(n)
    units = canonical_valuation(MultSubgroup(I), height)
    return _report("inertia", [Ipp.labels(), Dpp.labels()], D, I, units, N,
                   height, notes, "D in D_v",
                   [c for c, _ in D.member_quasi_basis()])


# ---------------------------------------------------------------------------
# classification of native valuations
# ---------------------------------------------------------------------------

@dataclass
class ClassMembershipReport:
    handle: ValuationHandle
    window: Window
    level_n: int
    height: int
    in_w: bool
    in_v: bool
    alt_v_agrees: bool
    refinements: list
    witness_refinement: str = None
    notes: list = None

    def payload(self):
        return {
            "mode": "classify",
            "valuation": self.handle.spec(),
            "window": self.window.spec(),
            "field": self.window.model.spec(),
            "n": self.level_n,
            "height": self.height,
            "in_W": self.in_w,
            "in_V": self.in_v,
            "alt_V_agrees": self.alt_v_agrees,
            "refinements_examined": self.refinements,
            "witness_refinement": self.witness_refinement,
            "notes": self.notes or [],
        }


# caps of the verification samples: elements of the maximal ideal checked
# by `_maximal_ideal_scan`, units checked by `_verify_inertia`, and stream
# elements either one scans
IDEAL_SAMPLES = 120
INERTIA_SAMPLES = 60
MAX_SCANNED = 4000

# highest degree of the unlisted places tried as refinements
REFINEMENT_DEGREE = 2


def _refinement_steps(handle: ValuationHandle, window: Window):
    """Native one-step refinements of the handle: the next uniformizer for a
    Laurent residue, or places of a rational-function residue up to
    REFINEMENT_DEGREE (window-listed places first)."""
    res = residue_model(handle)
    if res.kind == "laurent":
        yield ValuationHandle.from_steps(res, [res.var])
    elif res.kind == "ratfunc":
        listed = [g[1] for g in window.gens if g[0] == PLACE]
        seen = set()
        for p in listed:
            seen.add(p)
            yield ValuationHandle.from_steps(res, [p])
        for d in range(1, REFINEMENT_DEGREE + 1):
            for p in res.ff.monic_polys(d):
                if p in seen or not res.ff.poly_is_irreducible(p):
                    continue
                yield ValuationHandle.from_steps(res, [p])


def class_membership(handle: ValuationHandle, window: Window, n: int,
                     height: int) -> ClassMembershipReport:
    """Maximality classification of a native valuation within the window.

    Condition (1) holds for every chain (the value group is Z^k with the
    lexicographic order).  Condition (2) is checked over the enumerated
    refinements: any refinement with the same decomposition group must not
    grow the inertia group.  Membership in the finer class additionally needs
    a non-cyclic residue character group, and the level-1 alternative
    characterization is cross-checked.
    """
    w = window.at_level(n)
    Dv, _ = decomp_chars(handle, w)
    Iv = inertia_chars(handle, w)
    in_w = True
    witness = None
    refinements = []
    for step in _refinement_steps(handle, w):
        wprime = compose_valuations(handle, step)
        refinements.append(wprime.spec())
        Dw, _ = decomp_chars(wprime, w)
        if Dw == Dv:
            Iw = inertia_chars(wprime, w)
            if Iw != Iv:
                in_w = False
                witness = wprime.spec()
                break
    notes = ["value group Z^k lex: no nontrivial l-divisible convex "
             "subgroups (condition 1 automatic)",
             "residue characteristic equals the base characteristic, "
             "away from ell"]
    try:
        rr = residue_rank(handle, w)
    except UnsupportedValuation as exc:
        # a finite residue field contributes at most a cyclic group
        rr = 1
        notes.append(f"residue rank 1 is the fallback bound: {exc}")
    in_v = in_w and rr >= 2
    # level-1 alternative: I_v(1) = C-center of D_v(1), properly inside it
    w1 = window.at_level(1)
    D1, _ = decomp_chars(handle, w1)
    I1 = inertia_chars(handle, w1)
    center1 = c_center(D1, height)
    alt_v = (I1 == center1) and (center1 != D1)
    return ClassMembershipReport(
        handle=handle, window=w, level_n=n, height=height,
        in_w=in_w, in_v=in_v, alt_v_agrees=(alt_v == in_v),
        refinements=refinements, witness_refinement=witness,
        notes=notes,
    )
