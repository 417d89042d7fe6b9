"""The Frobenius pair between graded modules and cochain complexes.

For an ordinary algebra R (no differential, concentrated in degree zero),
the category of cochain complexes of R-modules is module theory over R
with a square-zero degree-one operator, and the plain graded category is
its underlying world.  A graded module is a ComplexObj with no
differentials, and a map of graded modules is a ChainMap between two of
them, whose squares hold trivially.  The two functors realized here:

* F sends a graded module X to the complex with components
  X^p ⊕ X^{p-1} and differential (x, y) -> (0, x); the action twist of
  the general graded setting collapses because the algebra sits in
  degree zero, so the action is diagonal;
* U forgets the differential.

(F, U) and (U, ΣF) are adjoint pairs; all units, counits and triangle
identities are constructed explicitly and checked as exact matrix
equalities on every corpus object.  Projective objects of the complex
category are the contractible complexes with projective components, so
F lands in projectives: F(X) carries the contracting homotopy
(x, y) -> (y, 0); is_contractible finds one degree by degree.

A complex is Gorenstein projective exactly when each component is; the
componentwise check reports per-degree verdicts and states that the
complex-level verdict rests on the faithful-Frobenius transfer through U.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

from .errors import InputShapeError, PreconditionFailed, PropertyViolation
from .exactlin import Mat, block_matrix
from .frobenius import AdjunctionReport
from .homology import (
    ComplexObj,
    GorensteinProfile,
    is_gorenstein_projective,
    is_projective,
    syzygy,
)
from .modrep import ModHom, ShortExactSequence, cover_envelope, direct_sum, factor_through


class ChainMap:
    """A degreewise module map between complexes commuting with differentials."""

    def __init__(self, source: ComplexObj, target: ComplexObj, mats: Dict[int, Mat]):
        self.source = source
        self.target = target
        self.mats = dict(mats)
        for p, mat in self.mats.items():
            ModHom(source.component(p), target.component(p), mat)
        for p in range(min(source.lo, target.lo) - 1, max(source.hi, target.hi) + 2):
            lhs = self.mat(p + 1) * source.differential(p).matrix
            rhs = target.differential(p).matrix * self.mat(p)
            if lhs != rhs:
                raise PropertyViolation(f"chain map square fails at degree {p}")

    def mat(self, p: int) -> Mat:
        m = self.mats.get(p)
        if m is not None:
            return m
        field = self.source.algebra.field
        return Mat.zeros(field, self.target.component(p).dim, self.source.component(p).dim)

    def is_mono(self) -> bool:
        return all(self.mat(p).rank() == self.source.component(p).dim
                   for p in self.source.support())

    def is_epi(self) -> bool:
        return all(self.mat(p).rank() == self.target.component(p).dim
                   for p in self.target.support())


def _f_dims(x: ComplexObj, p: int) -> List[int]:
    """Block sizes of F(X)^p = X^p ⊕ X^{p-1}."""
    return [x.component(p).dim, x.component(p - 1).dim]


def functor_F(x: ComplexObj) -> ComplexObj:
    """F(X)^p = X^p ⊕ X^{p-1} with differential (x, y) -> (0, x), for a
    graded module X: a complex with no differentials."""
    if x.differentials:
        raise InputShapeError("F takes a graded module, a complex with no differentials")
    a = x.algebra
    comps = {p: direct_sum([x.component(p), x.component(p - 1)])
             for p in range(x.lo, x.hi + 2)}
    diffs = {}
    for p in range(x.lo, x.hi + 1):
        # the block (X^p of the target) x (X^p of the source) is the identity
        d = block_matrix(a.field, _f_dims(x, p + 1), _f_dims(x, p),
                         {(1, 0): Mat.identity(a.field, x.component(p).dim)})
        diffs[p] = ModHom(comps[p], comps[p + 1], d)
    return ComplexObj(a, comps, diffs)


def functor_F_hom(f: ChainMap, fx: ComplexObj, fy: ComplexObj) -> ChainMap:
    """F on morphisms, from F(f.source) = fx to F(f.target) = fy: the
    diagonal blocks diag(f^p, f^{p-1})."""
    mats = {p: block_matrix(f.source.algebra.field, _f_dims(f.target, p), _f_dims(f.source, p),
                            {(0, 0): f.mat(p), (1, 1): f.mat(p - 1)})
            for p in range(min(fx.lo, fy.lo), max(fx.hi, fy.hi) + 1)}
    return ChainMap(fx, fy, mats)


def functor_U(c: ComplexObj) -> ComplexObj:
    """Forget the differential, keep the components."""
    return ComplexObj(c.algebra, {p: c.component(p) for p in c.support()}, {})


def functor_U_hom(f: ChainMap) -> ChainMap:
    return ChainMap(functor_U(f.source), functor_U(f.target), f.mats)


def shift_sigma(c: ComplexObj) -> ComplexObj:
    """Σ: components shift down by one, differentials change sign."""
    comps = {p: c.component(p + 1) for p in range(c.lo - 1, c.hi)}
    diffs = {p: ModHom(comps[p], comps[p + 1], -c.differential(p + 1).matrix)
             for p in range(c.lo - 1, c.hi - 1)}
    return ComplexObj(c.algebra, comps, diffs)


# ---------------------------------------------------------------------------
# Adjunction data
# ---------------------------------------------------------------------------


def unit_FU(x: ComplexObj, fx: ComplexObj) -> ChainMap:
    """eta: X -> U F X, the inclusion x -> (x, 0)."""
    field = x.algebra.field
    mats = {p: Mat.identity(field, sum(_f_dims(x, p))).select_cols(range(x.component(p).dim))
            for p in x.support()}
    return ChainMap(x, functor_U(fx), mats)


def counit_FU(y: ComplexObj) -> ChainMap:
    """eps: F U Y -> Y, (y, z) -> y + d(z)."""
    field = y.algebra.field
    fuy = functor_F(functor_U(y))
    # (F U Y)^p = Y^p ⊕ Y^{p-1}
    mats = {p: Mat.identity(field, y.component(p).dim).hstack(y.differential(p - 1).matrix)
            for p in fuy.support()}
    return ChainMap(fuy, y, mats)


def unit_U_SigmaF(y: ComplexObj) -> ChainMap:
    """eta': Y -> Σ F U Y, y -> (-d y, y)."""
    field = y.algebra.field
    sfu = shift_sigma(functor_F(functor_U(y)))
    # (Σ F U Y)^p = (F U Y)^{p+1} = Y^{p+1} ⊕ Y^p
    mats = {p: (-y.differential(p).matrix).vstack(Mat.identity(field, y.component(p).dim))
            for p in y.support()}
    return ChainMap(y, sfu, mats)


def counit_U_SigmaF(x: ComplexObj, sfx: ComplexObj) -> ChainMap:
    """eps': U Σ F X -> X, (x, y) -> y."""
    usf = functor_U(sfx)
    mats = {}
    for p in usf.support():
        # (Σ F X)^p = (F X)^{p+1} = X^{p+1} ⊕ X^p
        up, here = _f_dims(x, p + 1)
        mats[p] = Mat.identity(x.algebra.field, up + here).select_rows(range(up, up + here))
    return ChainMap(usf, x, mats)


def is_contractible(c: ComplexObj):
    """Solve id = d∘s + s∘d for a degreewise module homotopy s.

    From the top degree down, s^p is one factor_through: d^{p-1}·s^p =
    id - s^{p+1}·d^p.  Solving degree by degree loses no homotopy.  Once
    s^{p+1} meets its own equation, d^p·(id - s^{p+1}·d^p) =
    s^{p+2}·d^{p+1}·d^p = 0, so the right side lands in ker d^p, which is
    im d^{p-1} when c is contractible; and a contractible complex splits,
    so d^{p-1} has a module section on its image and the right side lifts.
    factor_through asserts each degree's equation exactly, so the witness
    is exact as returned.  Returns (True, homotopy mats) or (False, None).
    """
    field = c.algebra.field
    homotopy: Dict[int, Mat] = {}
    for p in reversed(c.support()):
        rhs = Mat.identity(field, c.component(p).dim)
        if p + 1 in homotopy:
            rhs = rhs - homotopy[p + 1] * c.differential(p).matrix
        s = factor_through(c.component(p), c.component(p - 1), c.differential(p - 1).matrix, rhs)
        if s is None:
            return False, None
        homotopy[p] = s
    return True, homotopy


# ---------------------------------------------------------------------------
# The verification suites
# ---------------------------------------------------------------------------


def check_frobenius_pair_FU(corpus_graded: Sequence[ComplexObj],
                            corpus_complexes: Sequence[ComplexObj]) -> AdjunctionReport:
    """Verify both adjunctions, exactness, and projectivity preservation.

    Triangle identities for (F, U) and (U, ΣF) are checked on every corpus
    object; F and U are applied to short exact sequences built from
    componentwise projective covers; F of a degreewise-projective graded
    module must be contractible with projective components.
    """

    def is_identity(outer: ChainMap, inner: ChainMap, shift: int = 0) -> bool:
        """Whether outer ∘ inner, with outer read shift degrees up, is the
        identity of inner.source at every degree."""
        src = inner.source
        return all(outer.mat(p + shift) * inner.mat(p)
                   == Mat.identity(src.algebra.field, src.component(p).dim)
                   for p in src.support())

    flags = dict.fromkeys(("triangle_identities", "unit_FU_mono", "counit_sigma_epi",
                           "F_image_projective", "exact_on_covers"), True)

    for x in corpus_graded:
        fx = functor_F(x)
        sfx = shift_sigma(fx)
        eta = unit_FU(x, fx)
        flags["unit_FU_mono"] &= eta.is_mono()
        # first triangle of (F, U): (eps F)(F eta) = id_{F X}
        f_eta = functor_F_hom(eta, fx, functor_F(eta.target))
        flags["triangle_identities"] &= is_identity(counit_FU(fx), f_eta)
        # second triangle of (U, ΣF): (ΣF eps')(eta' ΣF) = id_{ΣF X}, where
        # ΣF eps' at degree p is F eps' at degree p + 1
        epsp = counit_U_SigmaF(x, sfx)
        f_epsp = functor_F_hom(epsp, functor_F(epsp.source), fx)
        flags["triangle_identities"] &= is_identity(f_epsp, unit_U_SigmaF(sfx), shift=1)
        flags["F_image_projective"] &= is_contractible(fx)[0]

        # exactness of F and U on the sequence 0 -> K -> P -> X -> 0 of
        # componentwise covers
        if sum(m.dim for m in x.components.values()) == 0:
            continue
        covers = {p: cover_envelope(x.component(p)) for p in x.support()}
        kernels = {p: syzygy(x.component(p)) for p in x.support()}
        p_graded = ComplexObj(x.algebra, {p: c[0] for p, c in covers.items()}, {})
        k_graded = ComplexObj(x.algebra, {p: k[0] for p, k in kernels.items()}, {})
        cov_hom = ChainMap(p_graded, x, {p: c[1].matrix for p, c in covers.items()})
        ker_hom = ChainMap(k_graded, p_graded, {p: k[1].matrix for p, k in kernels.items()})
        fp, fk = functor_F(p_graded), functor_F(k_graded)
        f_cov = functor_F_hom(cov_hom, fp, fx)
        f_ker = functor_F_hom(ker_hom, fk, fp)
        # F of the cover sequence is a degreewise short exact sequence of
        # complexes; forgetting differentials (applying U) checks the same
        # degreewise exactness, so this verifies exactness of both functors.
        for p in fp.support():
            try:
                ShortExactSequence(fk.component(p), fp.component(p), fx.component(p),
                                   ModHom(fk.component(p), fp.component(p), f_ker.mat(p)),
                                   ModHom(fp.component(p), fx.component(p), f_cov.mat(p)))
            except PropertyViolation:
                flags["exact_on_covers"] = False
        # F preserves projectivity: contractible with projective components
        flags["F_image_projective"] &= is_contractible(fp)[0]
        flags["F_image_projective"] &= all(is_projective(fp.component(p)) for p in fp.support())

    for y in corpus_complexes:
        eps = counit_FU(y)
        uy = functor_U(y)
        # second triangle of (F, U): (U eps)(eta U) = id_{U Y}
        flags["triangle_identities"] &= is_identity(eps, unit_FU(uy, eps.source))
        # first triangle of (U, ΣF): (eps' U)(U eta') = id_{U Y}
        etap = unit_U_SigmaF(y)
        epsp_uy = counit_U_SigmaF(uy, etap.target)
        flags["triangle_identities"] &= is_identity(epsp_uy, functor_U_hom(etap))
        flags["counit_sigma_epi"] &= epsp_uy.is_epi()

    return AdjunctionReport(flags)


class ComponentwiseGpReport(NamedTuple):
    per_degree: Dict[int, str]
    all_gp: bool
    note: str

    @property
    def passed(self) -> bool:
        return all(v in ("yes", "no") for v in self.per_degree.values())


def componentwise_gp_check(c: ComplexObj, profile: GorensteinProfile) -> ComponentwiseGpReport:
    """Per-degree Gorenstein projectivity verdicts for a complex.

    The complex-level verdict equals the componentwise one because the
    forgetful functor to graded modules is a faithful Frobenius functor
    and Gorenstein projectivity in the graded product category is exactly
    the componentwise condition; the report states this reliance.
    """
    if not profile.certified:
        raise PreconditionFailed("componentwise check needs a certified profile")
    per = {p: is_gorenstein_projective(c.component(p), profile).verdict for p in c.support()}
    return ComponentwiseGpReport(
        per,
        all(v == "yes" for v in per.values()),
        "complex-level verdict obtained from the componentwise criterion "
        "through the faithful forgetful functor; no direct totally acyclic "
        "witness inside the complex category is attempted",
    )
