"""Abelian-by-central fragments: normal forms for the middle quotient,
commutator and power maps, CL-pairs, and frames built from K2 presentations.

A CentralFrame models the degree-2 graded piece of a free central extension
on generators mirroring a window quasi-basis: the free module on the basis
[i,j] (i < j) and pi_r, together with a relation submodule R.  Field-derived
frames obtain R from the presented K2-quotient through the normal-form
pairing, with the Bockstein columns coupled through the window class of a
fixed root of unity omega.  The presentation enters only through the span
of its Steinberg wedges, so a frame built from the span prefix
(`milnor.steinberg_scan` at height >= 1 where `scans.wedge_span` holds) is
the frame of the whole table: the Howell form of the same module.

The only formula the construction needs beyond bilinearity is the power
identity for products in a class-2 group; it is validated against brute
force in a Heisenberg group before first use at each level.

CL-pairs and CL-centers are decided in the quotient Q = M/R of the frame's
module M, through the linear map q of one Smith form of R that the module
caches (coeffmod.FinMod.quotient_matrix).  beta = 2 pi is linear in sigma for
every l, since 2 C(l^n, 2) = l^n (l^n - 1) vanishes mod l^n, and the
commutator is bilinear.  So for a fixed sigma both q[sigma, tau] and
q(tau^beta), carried on to Q / <q sigma^beta>, are linear in tau: the frame
keeps their two matrices per sigma (CentralFrame.sigma_maps), column-major,
so that each image coordinate is one dot product with tau.  The quotient
of Q by the one vector q(sigma^beta) has a closed form
(coeffmod.cyclic_quotient), so no sigma takes a Smith form of its own: the
module's one Smith form is the only one the CL queries take.  cl_pair is
two vector-matrix products and one cyclic-membership test, and cl_center
applies the same matrices to every member at once.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .coeffmod import (
    FinMod,
    Level,
    cyclic_contains,
    cyclic_quotient,
    howell_form,
    kernel_mod,
    quotient_span,
    span_contains,
    span_elements,
    wedge,
    wedge_pairs,
)
from .errors import (
    FrameMismatch,
    NoRootsOfUnity,
    PreconditionViolated,
    WrongLevel,
)
from .characters import Character
from .fields import CONST, Window, lift_constant


@dataclass(frozen=True)
class CentralFrame:
    """Generators gamma_i, the free basis {[i,j]: i<j} u {pi_r}, and the
    relation submodule R in that basis.

    The frame memoises, per coefficient tuple sigma, the two matrices of
    sigma_maps, and once the beta rows they share; there are at most
    l^(n rank) of them, and they live and die with the frame.  They come
    from the module's quotient map and the closed-form quotient by one
    vector, so they take no Smith form beyond the module's one."""

    level: Level
    gen_labels: tuple
    relations: tuple              # rows over the [i,j] + pi basis
    omega_class: tuple = None     # window class of omega, when field-derived
    window: Window = None

    def __post_init__(self):
        _validate_power_identity(self.level.ell, self.level.n)
        ell, n = self.level.ell, self.level.n
        object.__setattr__(
            self, "relations",
            tuple(howell_form(self.relations, ell, n, self.dim)))

    @property
    def rank(self):
        return len(self.gen_labels)

    @cached_property
    def pairs(self):
        return wedge_pairs(self.rank)

    @cached_property
    def dim(self):
        return len(self.pairs) + self.rank

    @cached_property
    def module(self):
        """The free module on the [i,j] + pi basis modulo R."""
        return FinMod(tuple(range(self.dim)), self.relations, self.level)

    def pi_index(self, r):
        return len(self.pairs) + r

    def span(self, gens):
        """The members of the span of AbelianElements `gens`, sorted."""
        ell, n = self.level.ell, self.level.n
        form = howell_form([g.coeffs for g in gens], ell, n, self.rank)
        return [AbelianElement(self, v)
                for v in sorted(span_elements(form, ell, n, self.rank))]

    def zero(self):
        return CentralElement(self, (0,) * self.dim)

    def contains_relation(self, vec):
        ell, n = self.level.ell, self.level.n
        return span_contains(self.relations, vec, ell, n)

    @cached_property
    def fits_window(self):
        """Whether the frame has the rank and level of its window, so that
        the values of a character on it, already reduced mod l^n and one
        per generator, are coefficients as they stand."""
        w = self.window
        return w is not None and (w.rank, w.level) == (self.rank, self.level)

    @cached_property
    def _sigma_maps(self):
        return {}

    @cached_property
    def _beta_rows(self):
        """q(gamma_r^beta) = 2 q[pi_r] per generator r, for sigma_maps."""
        m = self.level.modulus
        q = self.module.quotient_matrix
        return [tuple(2 * x % m for x in q[self.pi_index(r)])
                for r in range(self.rank)]

    def sigma_maps(self, sigma):
        """(M_sigma, P_sigma): the rank x k' matrices, over exact ints, that
        take tau to the images of q[sigma, tau] and of q(tau^beta) in
        Q / <q sigma^beta> = (Z/l^n)^k', stored as their k' columns, so
        that coordinate c of an image is tau dotted with column c.

        q[sigma, tau] = sum (sigma_a tau_b - sigma_b tau_a) q[a,b] over the
        pairs a < b, so its row for tau_b gains sigma_a q[a,b] and its row
        for tau_a loses sigma_b q[a,b]; q(tau^beta) = tau . 2 q[pi rows].
        Both are then carried on by the closed-form quotient map by the
        single vector q(sigma^beta) (coeffmod.cyclic_quotient), which takes
        no Smith form."""
        maps = self._sigma_maps.get(sigma)
        if maps is not None:
            return maps
        m = self.level.modulus
        q = self.module.quotient_matrix
        beta = self._beta_rows
        bracket = [[0] * self.module.quotient_width for _ in range(self.rank)]
        for p, (a, b) in enumerate(self.pairs):
            for c, x in enumerate(q[p]):
                bracket[b][c] += sigma[a] * x
                bracket[a][c] -= sigma[b] * x
        image = [sum(map(operator.mul, sigma, col)) % m for col in zip(*beta)]
        quotient = cyclic_quotient(image, self.level.ell, self.level.n)
        maps = (tuple(zip(*map(quotient, bracket))),
                tuple(zip(*map(quotient, beta))))
        self._sigma_maps[sigma] = maps
        return maps


@dataclass(frozen=True)
class CentralElement:
    """Normal-form coordinates (a_ij; b_r) in the frame's free basis."""

    frame: CentralFrame
    coords: tuple

    def __post_init__(self):
        m = self.frame.level.modulus
        object.__setattr__(self, "coords",
                           tuple(c % m for c in self.coords))

    def _match(self, other):
        if other.frame != self.frame:
            raise FrameMismatch("elements of different frames")

    def __add__(self, other):
        self._match(other)
        return CentralElement(self.frame,
                              tuple(a + b for a, b in
                                    zip(self.coords, other.coords)))

    def __neg__(self):
        return CentralElement(self.frame, tuple(-a for a in self.coords))

    def scale(self, c):
        return CentralElement(self.frame, tuple(c * a for a in self.coords))

    def is_zero(self):
        return not any(self.coords)


@dataclass(frozen=True)
class AbelianElement:
    """A vector over the frame generators (the image in the abelianization)."""

    frame: CentralFrame
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.frame.rank:
            raise FrameMismatch("coefficient vector does not fit the frame")
        m = self.frame.level.modulus
        object.__setattr__(self, "coeffs",
                           tuple(c % m for c in self.coeffs))

    @staticmethod
    def from_character(frame, char: Character):
        w = frame.window
        if char.window is not w and (w is None or char.window != w):
            raise FrameMismatch("character does not match the frame window")
        if not frame.fits_window:
            return AbelianElement(frame, char.values)
        out = object.__new__(AbelianElement)  # no second validation
        object.__setattr__(out, "frame", frame)
        object.__setattr__(out, "coeffs", char.values)
        return out

    def label(self):
        terms = [f"{c}*{g}" if c != 1 else str(g)
                 for c, g in zip(self.coeffs, self.frame.gen_labels) if c]
        return "+".join(terms) if terms else "0"


def free_frame(level: Level, labels) -> CentralFrame:
    """Frame with no relations (R = 0)."""
    return CentralFrame(level, tuple(labels), ())


def commutator(sigma: AbelianElement, tau: AbelianElement) -> CentralElement:
    """[sigma, tau]: bilinear, antisymmetric, supported on the [i,j] basis."""
    if sigma.frame != tau.frame:
        raise FrameMismatch("elements of different frames")
    fr = sigma.frame
    return CentralElement(
        fr, wedge(sigma.coeffs, tau.coeffs) + (0,) * fr.rank)


def pi_power(sigma: AbelianElement) -> CentralElement:
    """sigma^pi, the l^n-th power of any lift, in normal form.

    For sigma = sum s_i gamma_i (lift multiplied in increasing index order)
    the class-2 power identity gives
        sigma^pi = sum s_i pi_i - C(l^n, 2) * sum_{i<j} s_i s_j [i,j].
    """
    fr = sigma.frame
    m = fr.level.modulus
    half = m * (m - 1) // 2
    out = [0] * fr.dim
    for k, (i, j) in enumerate(fr.pairs):
        out[k] = -half * sigma.coeffs[i] * sigma.coeffs[j]
    for r in range(fr.rank):
        out[fr.pi_index(r)] = sigma.coeffs[r]
    return CentralElement(fr, tuple(out))


def beta_power(sigma: AbelianElement) -> CentralElement:
    """sigma^beta = 2 sigma^pi; linear in sigma for every l."""
    return pi_power(sigma).scale(2)


def cl_pair(sigma: AbelianElement, tau: AbelianElement) -> bool:
    """[sigma, tau] in <sigma^beta, tau^beta> modulo the frame relations.

    Decided in Q = M/R through the frame module's map q: the membership
    holds iff the image of q[sigma, tau] in Q / <q sigma^beta> lies in the
    cyclic span of the image of q(tau^beta).  Both images are tau times the
    matrices of frame.sigma_maps(sigma), and the cyclic test is exact
    (coeffmod.cyclic_contains).  [tau, sigma] = -[sigma, tau], so the
    verdict is symmetric, and tau's maps serve when only they are cached."""
    frame = sigma.frame
    if tau.frame is not frame and tau.frame != frame:
        raise FrameMismatch("elements of different frames")
    s, t = sigma.coeffs, tau.coeffs
    cached = frame._sigma_maps
    if s not in cached and t in cached:
        s, t = t, s
    bracket, beta = frame.sigma_maps(s)
    level = frame.level
    m = level.modulus
    return cyclic_contains(
        [sum(map(operator.mul, t, col)) % m for col in beta],
        [sum(map(operator.mul, t, col)) % m for col in bracket],
        level.ell, level.n)


# rows of the center summed against the whole center per closure step, so
# peak memory grows with the center, not with its square
CLOSURE_CHUNK = 64


def cl_center(gens, frame: CentralFrame):
    """Members sigma of the span of `gens` with cl_pair(sigma, tau) for every
    tau in the span, in the sorted order of frame.span(gens); closure under
    addition is verified afterwards.

    All members are tested in one batched pass over Q (_cl_center_mask)."""
    members = frame.span(gens)
    m = frame.level.modulus
    # int64 when every key and product stays below 2^63, else exact ints
    bound = max(m ** frame.rank, m * m * (frame.dim + 1))
    dtype = np.int64 if bound < 2 ** 63 else object
    vecs = np.array([s.coeffs for s in members], dtype=dtype)
    keep = _cl_center_mask(frame, vecs)
    center = vecs[keep]
    radix = np.array([m ** i for i in range(frame.rank)], dtype=dtype)
    keys = center @ radix
    for i in range(0, len(center), CLOSURE_CHUNK):
        sums = (center[i:i + CLOSURE_CHUNK, None, :] + center) % m @ radix
        if not np.isin(sums, keys).all():
            raise PreconditionViolated(
                "CL-center failed to close under addition")
    return [s for s, kept in zip(members, keep) if kept]


def _cl_center_mask(frame, vecs):
    """For each row sigma of `vecs` (every member of a subgroup A), whether
    cl_pair(sigma, tau) holds for every row tau.

    sigma's two matrices (frame.sigma_maps) take every tau at once to the
    images of q[sigma, tau] and q(tau^beta) in Q / <q sigma^beta>; there
    [sigma, tau] must be b times the image of tau^beta for some b modulo the
    exponent of A, which kills every such image."""
    m = frame.level.modulus
    exponent = m // math.gcd(m, *(int(x) for x in vecs.ravel()))
    scalars = np.arange(exponent).astype(vecs.dtype)[:, None, None]
    width = frame.rank
    keep = np.zeros(len(vecs), dtype=bool)
    for idx, sigma in enumerate(vecs.tolist()):
        # the stored columns, as the rank x k' matrices; k' may be 0
        bracket, beta = (np.array(cols, dtype=vecs.dtype).reshape(-1, width).T
                         for cols in frame.sigma_maps(tuple(sigma)))
        z = vecs @ bracket % m
        w = vecs @ beta % m
        keep[idx] = (scalars * w % m == z).all(axis=2).any(axis=0).all()
    return keep


def ibcl_alt_check(gens, frame: CentralFrame) -> bool:
    """At n = 1, compare the CL-center with {sigma : [sigma, tau] in A^beta}.

    beta is linear, so <A^beta> + R is the span of the beta rows of `gens`
    and R; membership is tested in Q through the frame module's map q."""
    if frame.level.n != 1:
        raise WrongLevel("the alternative description is a level-1 statement")
    members = frame.span(gens)
    center = {c.coeffs for c in cl_center(gens, frame)}
    ell, n = frame.level.ell, frame.level.n
    module = frame.module
    form = quotient_span(module, [beta_power(g).coords for g in gens])
    alt = {
        s.coeffs for s in members
        if all(span_contains(form, module.quotient(commutator(s, t).coords),
                             ell, n)
               for t in members)
    }
    return center == alt


# ---------------------------------------------------------------------------
# frames from K2
# ---------------------------------------------------------------------------

def canonical_omega(window: Window):
    """Primitive l^n-th root of unity in the constant field with the least
    code, as an element of K."""
    ff = window.model.constant_field()
    mod = window.level.modulus
    if (ff.q - 1) % mod:
        raise NoRootsOfUnity(
            f"constant field GF({ff.q}) has no primitive {mod}-th root")
    if window.level.ell == 2 and (ff.q - 1) % (2 * mod):
        raise NoRootsOfUnity("need the 2l^n-th roots of unity when l = 2")
    # x has order l^n, so x^k is primitive exactly when l does not divide k
    x = ff.pow(ff.generator(), (ff.q - 1) // mod)
    best = min(ff.pow(x, k) for k in range(1, mod) if k % window.level.ell)
    return lift_constant(window.model, best)


def frame_from_k2(window: Window, sp, omega=None) -> CentralFrame:
    """Relation module R dual to the presented K2-quotient.

    The wedge coordinates of H^2 of the free frame map onto the K2-quotient
    (Bockstein classes going to the symbol with omega); R is the annihilator
    of the kernel of that map under the normal-form pairing, so that R pairs
    perfectly with the K2-quotient.
    """
    if sp.window != window:
        raise FrameMismatch("presentation on a different window")
    level = window.level
    if any(o != level.modulus for o in window.orders):
        raise PreconditionViolated(
            "frames need every window generator of full order l^n")
    if omega is None:
        omega = canonical_omega(window)
    omega_cls = window.classify(omega)
    if any(omega_cls[i] and window.gens[i][0] != CONST
           for i in range(window.rank)):
        # omega is a constant, so only a constant generator can see it
        raise PreconditionViolated("omega class is not constant-supported")
    labels = tuple(window.gen_label(i) for i in range(window.rank))
    r = window.rank
    npairs = len(wedge_pairs(r))
    ell, n = level.ell, level.n
    # theta maps the H^2 coordinates (m_ij; s_r) of the free frame onto the
    # K2-quotient: e_ij to the symbol of the generator pair, the Bockstein
    # coordinate s_r through the column B_r = wedge of x_r with omega
    # theta sees the Steinberg columns only through their span, so the
    # Howell rows of the distinct witness wedges (at most npairs) stand in
    # for one column per witness
    steinberg = howell_form(dict.fromkeys(wit.wedge for wit in sp.witnesses),
                            ell, n, npairs)
    bockstein = [wedge(tuple(int(i == k) for i in range(r)), omega_cls)
                 for k in range(r)]
    # ker theta = projections of solutions of m + B s = St u
    ncols = npairs + r
    aux = len(steinberg)
    big = []
    for c in range(npairs):
        row = [0] * ncols
        row[c] = 1
        for k in range(r):
            row[npairs + k] = bockstein[k][c]
        row += [st[c] for st in steinberg]
        big.append(tuple(row))
    ker = kernel_mod(big, ell, n, ncols + aux)
    ker_proj = [k[:ncols] for k in ker]
    # R is the annihilator of ker theta under the normal-form pairing, so
    # that R pairs perfectly with the K2-quotient
    rel = kernel_mod(ker_proj, ell, n, ncols)
    return CentralFrame(level, labels, tuple(rel), omega_cls, window)


def minimized_identity_check(handle, window, frame, omega) -> bool:
    """For sigma in the inertia characters and tau in the decomposition
    characters of the handle: [sigma, tau] + a*(sigma^beta) lies in R, where
    2a = tau(omega)."""
    from .characters import decomp_chars, inertia_chars
    iv = inertia_chars(handle, window)
    dv, _ = decomp_chars(handle, window)
    mod = frame.level.modulus
    for tau in dv.elements():
        tval = tau.evaluate(omega)
        avals = [a for a in range(mod) if (2 * a - tval) % mod == 0]
        if not avals:
            return False
        for sig in iv.elements():
            s = AbelianElement.from_character(frame, sig)
            t = AbelianElement.from_character(frame, tau)
            probe = commutator(s, t)
            if not any(
                frame.contains_relation(
                    (probe + beta_power(s).scale(a)).coords)
                for a in avals
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# power-identity oracle
# ---------------------------------------------------------------------------

def heisenberg_mul(x, y, m):
    """(a,b,c) * (a',b',c') in the Heisenberg group over Z/m."""
    return ((x[0] + y[0]) % m, (x[1] + y[1]) % m,
            (x[2] + y[2] + x[0] * y[1]) % m)


def heisenberg_pow(x, e, m):
    out = (0, 0, 0)
    for _ in range(e):
        out = heisenberg_mul(out, x, m)
    return out


@lru_cache(maxsize=None)
def _validate_power_identity(ell, n):
    """Brute-force check of the class-2 power identity in the Heisenberg
    group over Z/l^(2n) before the formula is trusted at level (l, n)."""
    if ell ** n > 64:
        return True  # the correction term vanishes for odd l; 2-adic levels
                     # this large never occur in the finite backends
    m = ell ** (2 * n)
    ln = ell ** n
    half = ln * (ln - 1) // 2
    for s1 in range(ln):
        for s2 in range(ln):
            lift = heisenberg_mul((s1, 0, 0), (0, s2, 0), m)
            brute = heisenberg_pow(lift, ln, m)
            # predicted normal form: pi-coords (s1, s2), [1,2]-coord -C(l^n,2)s1s2
            pred_ab = ((ln * s1) % m, (ln * s2) % m)
            if (brute[0], brute[1]) != pred_ab:
                raise PreconditionViolated("power identity failed (abelian part)")
            if (brute[2] - (ln * s1 * ln * s2 - half * s1 * s2)) % ln:
                # compare c-coordinates modulo l^n after normal-form reordering
                raise PreconditionViolated("power identity failed (central part)")
    return True
