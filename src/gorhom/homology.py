"""Resolutions, Ext, Gorenstein dimensions, and quasi-bicomplex totalization.

Only the projective side is computed.  Resolutions are minimal and exact
by construction: each step is a checked projective cover and its exact
kernel.  Every injective quantity is the projective one of the
dual over the opposite algebra, through D = Hom_k(-, k): a coresolution of
m is D of the resolution of D(m), id(m) = pd(D(m)), Gid(m) = Gpd(D(m)) and
Ext^i(m, n) = Ext^i(D(n), D(m)).  D is a memoized involution, so the two
sides share their covers, syzygies, stars and verdicts.  A module's
projective dimension is detected by its syzygies becoming projective,
where "projective" is decided by the cover map being an isomorphism.

The Gorenstein profile of an algebra records the supremum of projective
dimensions of the indecomposable injectives and the supremum of injective
dimensions of the indecomposable projectives; when both are finite within
the bound they must agree, and the common value is the Gorenstein
dimension.  Over a certified d-Gorenstein algebra, Gorenstein projectivity
is decided by vanishing of Ext^i(-, A) for 1 <= i <= d, and every "yes" is
cross-checked against the definition: the module is totally reflexive (its
evaluation into the double A-dual is an isomorphism, and Ext^i(m, A) and
Ext^i(Hom(m, A), A) vanish) in a finite window of degrees.  Gpd(m) is the
largest i <= d with Ext^i(m, A) != 0, certified by that test on the syzygy
at stage i, and Gid(m) = Gpd(D(m)).  Each Ext degree is computed once.

The totalization routine builds, for M over a d-Gorenstein algebra, the
projective resolutions of an injective coresolution of M, each row built
once per injective term as the sum of the profile's resolutions of the
indecomposable injectives, gives them the maps d_l, l >= 1, from one
null-homotopy recursion (d_1 starts from the coresolution map; each step
is one modrep.factor_through), checks D∘D = 0 on the total complex, every
identity sum d_i d_{l-i} = 0 at once, and extracts 0 -> B^0 -> Z^0 -> M -> 0
witnessing Gpd(M) <= d; with B^0 = 0, Z^0 ≅ M, and M's own Gorenstein
projectivity verdict serves for Z^0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .algebra import (Algebra, algebra_to_json, document, json_int, json_list, memo,
                      resolve_algebra_ref)
from .errors import (AlgebraMismatch, InputShapeError, NoHomotopy, ProfileNotCertified,
                     PropertyViolation)
from .exactlin import Mat, Record, block_matrix, mat_from_flat, mat_to_flat, pivot_columns, solve
from .modrep import (ModHom, Module, ShortExactSequence, column_space_basis, component_to_json,
                     cover_envelope, direct_sum, dual_module, factor_through, generator_delta,
                     hom_actions, hom_coordinates, hom_dim, hom_space, module_from_json,
                     regular_module, structural_modules, submodule, zero_hom, zero_module)


class AtLeast(Record):
    """A lower bound returned when a dimension is not detected within bound.
    Not a tuple: a report writes it through str, in JSON too."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        object.__setattr__(self, "bound", bound)

    def __str__(self):
        return f">= {self.bound}"


Dim = Union[int, AtLeast]


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------


class Resolution(NamedTuple):
    """An augmented minimal projective resolution.

    terms[k] sits k steps from the module, maps[k] is the matrix of the map
    terms[k+1] -> terms[k] and augmentation that of terms[0] -> augmented.
    complete means the last syzygy vanished.  There is no injective kind:
    the coresolution of m is D applied to the resolution of D(m) over the
    opposite algebra.
    """

    augmented: Module
    terms: tuple
    maps: tuple
    augmentation: Mat
    complete: bool

    def depth(self) -> int:
        return len(self.terms) - 1

    def term(self, k: int) -> Module:
        if 0 <= k < len(self.terms):
            return self.terms[k]
        return zero_module(self.augmented.algebra)

    def map_from(self, k: int) -> Mat:
        """The matrix of the map leaving terms[k]: the augmentation at k = 0,
        maps[k - 1] after it, and zero past the computed maps."""
        if k == 0:
            return self.augmentation
        if k - 1 < len(self.maps):
            return self.maps[k - 1]
        return Mat.zeros(self.augmented.algebra.field, self.term(k - 1).dim, self.term(k).dim)


def homology_dims(dims: Sequence[int], mats: Sequence[Mat]) -> List[int]:
    """dims[i] - rank(mats[i-1]) - rank(mats[i]) at every spot i of a
    complex whose map mats[i] joins spot i and spot i+1, pointing either
    way; maps past the end of mats count as rank 0.  Each rank is computed
    once.  A spot is exact exactly when its entry is 0."""
    ranks = [len(pivot_columns(m)) for m in mats]

    def rank(i: int) -> int:
        return ranks[i] if 0 <= i < len(ranks) else 0

    return [d - rank(i - 1) - rank(i) for i, d in enumerate(dims)]


def syzygy(m: Module) -> Tuple[Module, ModHom]:
    """The kernel of m's projective cover with its inclusion into the cover,
    built once per module; zero when m is its own cover (an epi onto itself)."""

    def build() -> Tuple[Module, ModHom]:
        p, cov = cover_envelope(m)
        if p is m:
            return zero_module(m.algebra), zero_hom(zero_module(m.algebra), m)
        return submodule(p, cov.matrix.kernel_basis())

    return memo(m, "syzygy", None, build)


def resolve(m: Module, depth: int) -> Resolution:
    """Minimal projective resolution by projective covers, to `depth`
    steps or until it stops.

    Exact by construction, so not checked again: each cover is checked epi
    where it is built, and each syzygy is the exact kernel of its cover,
    embedded by an independent basis (submodule rejects a dependent one).
    So the map leaving terms[k+1], incl_k·cov_{k+1}, has image
    im(incl_k) = ker of the map leaving terms[k].  Each cover and each
    syzygy step is memoized on the module it starts from, so a deeper
    request walks on from the steps a shallower one built.
    """
    terms: List[Module] = []
    maps: List[Mat] = []
    current = m
    incl: Optional[ModHom] = None  # current -> previous term
    for _ in range(depth + 1):
        p, cov = cover_envelope(current)
        terms.append(p)
        if incl is not None:
            maps.append(incl.matrix * cov.matrix)
        current, incl = syzygy(current)
        if current.dim == 0:
            break
    return Resolution(m, tuple(terms), tuple(maps), cover_envelope(m)[1].matrix, current.dim == 0)


def resolve_injective_sum(q: Module, depth: int) -> Resolution:
    """A minimal resolution of D(q) to depth, for a recorded sum q of
    structural projectives over A^op, built once per (q, depth): D(q) is
    the sum of the injectives D(A^op·e_j), j in q._summands, and this is
    the block-diagonal sum of their memoized resolutions: one direct_sum
    per term and block-diagonal maps.  A direct sum of minimal resolutions
    is a minimal resolution, exact by construction as resolve's own are;
    its terms are direct_sums, so they stay recorded sums.  q's record is
    set once and never changes, and the terms are interned, so the value
    depends on q and depth alone."""
    if q.dim == 0:  # past the end of a coresolution
        return resolve(dual_module(q), depth)

    def build() -> Resolution:
        a = q.algebra.opposite()
        parts = [resolve(structural_modules(a).injectives[j], depth) for j in q._summands]

        def leaving(k: int) -> Mat:
            mats = [r.map_from(k) for r in parts]
            return block_matrix(a.field, [x.rows for x in mats], [x.cols for x in mats],
                                {(b, b): x for b, x in enumerate(mats)})

        n = max(len(r.terms) for r in parts)
        terms = tuple(direct_sum([r.terms[k] for r in parts if k < len(r.terms)]) for k in range(n))
        return Resolution(dual_module(q), terms, tuple(leaving(k) for k in range(1, n)),
                          leaving(0), all(r.complete for r in parts))

    return memo(q, ("injective_sum", depth), None, build)


# ---------------------------------------------------------------------------
# Ext and finite dimensions
# ---------------------------------------------------------------------------


def ext_dim(m: Module, n: Module, i: int) -> int:
    """dim Ext^i(m, n): dim H^i of Hom(P, n) for the minimal projective
    resolution P of m, computed once per m, n and degree.

    In degree 0 it is the memoized hom_dim(m, n), as in ext_dim_injective.
    Above it no hom basis is built: every term of P is a recorded sum of
    structural projectives, so Hom(P_k, n) is read in Yoneda coordinates,
    and phi -> phi∘d at the generators of the next term (generator_delta)."""
    if i < 0:
        raise InputShapeError("Ext degree must be >= 0")
    if i == 0:
        return hom_dim(m, n)

    def build() -> int:
        if m.algebra != n.algebra:
            raise AlgebraMismatch("Ext requires modules over one algebra")
        res = resolve(m, i + 1)
        if res.complete and i > res.depth():
            return 0
        deltas = [generator_delta(res.term(k), res.term(k + 1), res.map_from(k + 1), n)
                  for k in (i - 1, i)]
        return homology_dims([x.cols for x in deltas], deltas)[1]

    return memo(m, ("ext", i), n, build)


def ext_dim_injective(m: Module, n: Module, i: int) -> int:
    """dim Ext^i(m, n) computed from an injective coresolution of n.

    Independent route used for the balance cross-check against ext_dim:
    it resolves n, not m.  The coresolution of n is D(P) for P the
    projective resolution of D(n) over the opposite algebra, and
    Hom_A(m, D(P)) is Hom_{A^op}(P, D(m)) transposed, so this is
    Ext^i(D(n), D(m)) over the opposite algebra, in Yoneda coordinates
    there.  In degree 0 both routes return the same memoized hom_dim(m, n).
    """
    if i == 0:
        return hom_dim(m, n)
    return ext_dim(dual_module(n), dual_module(m), i)


def projective_dimension(m: Module, bound: int) -> Dim:
    """The stage at which the minimal projective resolution of m stops, or
    AtLeast(bound) when it runs past bound.  The injective dimension of m
    is projective_dimension(dual_module(m), bound)."""
    if bound < 1:
        raise InputShapeError("bound must be >= 1")
    res = resolve(m, bound)
    return res.depth() if res.complete else AtLeast(bound)


# ---------------------------------------------------------------------------
# Gorenstein profiles
# ---------------------------------------------------------------------------


class GorensteinProfile(NamedTuple):
    """max pd over indecomposable injectives, max id over indecomposable
    projectives, their common value when both are finite within bound, and
    the algebra whose modules it serves."""

    max_pd_injective: Dim
    max_id_projective: Dim
    gorenstein_dim: Optional[int]
    bound: int
    algebra: Algebra

    @property
    def certified(self) -> bool:
        return self.gorenstein_dim is not None

    def check_module(self, m: Module) -> None:
        if m.algebra != self.algebra:
            raise AlgebraMismatch("the module is not over the algebra of the Gorenstein profile")


def gorenstein_profile(a: Algebra, bound: int = 20) -> GorensteinProfile:
    """Compute the profile; asserts equality of the two suprema when finite."""

    def sup(mods) -> Dim:
        dims = [projective_dimension(x, bound) for x in mods]
        return max(dims, default=0) if all(isinstance(x, int) for x in dims) else AtLeast(bound)

    def build():
        s = structural_modules(a)
        spdi = sup(s.injectives)
        sidp = sup(dual_module(p_mod) for p_mod in s.projectives)
        gdim = None
        if isinstance(spdi, int) and isinstance(sidp, int):
            if spdi != sidp:
                raise PropertyViolation(
                    f"finite suprema disagree: max pd of injectives {spdi} != "
                    f"max id of projectives {sidp}")
            gdim = spdi
        return GorensteinProfile(spdi, sidp, gdim, bound, a)

    return memo(a, ("profile", bound), None, build)


# ---------------------------------------------------------------------------
# Gorenstein projectivity
# ---------------------------------------------------------------------------


class GpVerdict(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown-at-depth"
    detail: str = ""

    def __bool__(self):
        return self.verdict == "yes"


def star_module(m: Module) -> Tuple[Module, Tuple[Mat, ...]]:
    """Hom(m, A) as a module over the opposite algebra, A acting by right
    multiplication after the map, with its hom basis as matrices, computed
    once per module.

    Over the regular module itself the basis is the right multiplications
    x -> x·e_j, regular_module(A^op).action, which commute with left
    multiplication by associativity, and Hom_A(A, A) is regular_module(A^op):
    e_i takes the j-th to x -> x·(e_j·e_i), of coordinates table[j][i].
    Another module's is hom_space's basis, and the module is not checked:
    the solve proves the span stable under f -> f·a, (f·a)·b = f·(ab) by
    associativity, which is the law over the opposite algebra, and f·1 = f."""

    def build() -> Tuple[Module, Tuple[Mat, ...]]:
        a = m.algebra
        right = regular_module(a.opposite())
        if m is regular_module(a):
            return right, right.action
        basis = hom_space(m, regular_module(a))
        acts = hom_actions(basis, right.action, a.field,
                           "Hom(m, A) is not stable under the right action", post=True)
        return Module(a.opposite(), acts, _skip_validation=True), basis

    return memo(m, "star", None, build)


def evaluation_to_double_star(m: Module) -> ModHom:
    """The natural map m -> Hom_op(Hom(m, A), A_op), in explicit bases."""
    field = m.algebra.field
    star_m, basis = star_module(m)
    star2, basis2 = star_module(star_m)
    # ev_x : star_m -> A, f -> f(x) for the basis vectors x = e_c of m, as
    # matrices over the star_m basis: column t is column c of basis[t]
    ev_mats = [Mat.from_cols(field, [h.col(c) for h in basis], m.algebra.dim)
               for c in range(m.dim)]
    mat = hom_coordinates(ev_mats, basis2, field,
                          "evaluation map leaves the double-star hom space")
    return ModHom(m, star2, mat)


def is_projective(m: Module) -> bool:
    """Zero and a recorded sum of projectives are projective; any other
    module is iff its projective cover map is an isomorphism."""
    return m.dim == 0 or m._summands is not None or cover_envelope(m)[1].is_iso()


def is_gorenstein_projective(m: Module, profile: GorensteinProfile) -> GpVerdict:
    """Membership test for the Gorenstein projective objects.

    Over a certified d-Gorenstein algebra the test is Ext^i(m, A) = 0 for
    1 <= i <= d; every "yes" is cross-checked against the definition, total
    reflexivity, in degrees below max(1, 2d) (see _totally_reflexive_check).
    Without certification, Ext-vanishing up to the profile bound yields
    only "unknown-at-depth", while a nonzero Ext certifies "no".
    """
    profile.check_module(m)
    return memo(m, ("is_gp", profile.gorenstein_dim, profile.bound), None,
                lambda: _is_gp_uncached(m, profile))


def _is_gp_uncached(m: Module, profile: GorensteinProfile) -> GpVerdict:
    if m.dim == 0:
        return GpVerdict("yes", "zero module")
    if is_projective(m):
        return GpVerdict("yes", "projective module")
    reg = regular_module(m.algebra)
    d = profile.gorenstein_dim
    for i in range(1, (d if profile.certified else profile.bound) + 1):
        e = ext_dim(m, reg, i)
        if e:
            return GpVerdict("no", f"Ext^{i}(m, A) has dimension {e}")
    if not profile.certified:
        return GpVerdict("unknown-at-depth",
                         f"Ext vanishes up to {profile.bound} but the algebra is not certified")
    window = max(1, 2 * d)
    _totally_reflexive_check(m, window)
    return GpVerdict("yes", f"Ext^i(m, A) = 0 for 1 <= i <= {d}, "
                            f"totally reflexive below degree {window}")


def _totally_reflexive_check(m: Module, window: int) -> None:
    """Assert that m is totally reflexive below degree w = window, or raise a
    PropertyViolation naming the condition and degree that failed.

    With m* = Hom(m, A), the conditions are: the evaluation m -> m** is an
    isomorphism, Ext^i(m, A) = 0 and Ext^i(m*, A) = 0 over A^op for
    1 <= i < w.  They are the finite window of a complete resolution, read
    position by position.  Let P be the projective resolution of m and Q
    that of m* over A^op, and join them through m -> m** -> Q_0* into the
    window P_w -> ... -> P_0 -> Q_0* -> ... -> Q_w*.  Then:
    - the window is a complex, because Hom(-, A) is a functor: it sends
      the zero composites of Q and of Q_1 -> Q_0 -> m* to zero;
    - it is exact at P_k for k >= 1, because P is a resolution;
    - it is exact at P_0 iff the evaluation is injective, and at Q_0* iff it
      is surjective, because Hom(-, A) is left exact and so embeds m** in
      Q_0* as the kernel of Q_0* -> Q_1*;
    - it is exact at Q_j* (1 <= j < w) iff Ext^j(m*, A) = 0;
    - Hom(-, A) applied to the window is exact at Hom(P_k, A) (1 <= k < w)
      iff Ext^k(m, A) = 0;
    - it is exact at every other interior position, because finitely
      generated projectives are reflexive: at Hom(Q_j*, A) = Q_j it is Q
      itself, and at Hom(P_0, A) it is Q_0 -> m* -> Hom(P_0, A), exact
      once the evaluation is an isomorphism.
    If Q stops at Q_r with 1 <= r < w, the joined window ends at Q_r* and
    cannot test exactness there, but Ext^r(m*, A) != 0 and this check
    fails.  No Gorenstein projective m meets that case: its m* is
    Gorenstein projective, and one of finite projective dimension is
    projective (r = 0).
    """
    if not evaluation_to_double_star(m).is_iso():
        raise PropertyViolation(
            "not totally reflexive: evaluation to the double star is not an isomorphism")
    star_m, _ = star_module(m)
    for side, x in (("m", m), ("Hom(m, A)", star_m)):
        reg = regular_module(x.algebra)
        for i in range(1, window):
            e = ext_dim(x, reg, i)
            if e:
                raise PropertyViolation(
                    f"not totally reflexive: Ext^{i}({side}, A) has dimension {e}")


def gpd(m: Module, profile: GorensteinProfile):
    """Gorenstein projective dimension over a certified algebra, else "unknown".

    Over a d-Gorenstein algebra A it is the Ext support s, the largest
    1 <= i <= d with Ext^i(m, A) != 0, or 0 (Holm, "Gorenstein homological
    dimensions", JPAA 189, 2004, Thm 2.20).  Dimension shifting along
    0 -> Ω^{k+1} m -> P_k -> Ω^k m -> 0 gives Ext^i(Ω^n m, A) = Ext^{n+i}(m, A)
    for i >= 1, and Ext^j(m, A) = 0 for j > d = id A: so Ω^s m passes the
    Ext test, and Ω^n m fails it in degree s - n for n < s, while Gpd(m) is
    the least n with Ω^n m Gorenstein projective.  A search for that n reads
    those Ext groups off the same memoized covers, maps and Yoneda maps, so
    it would check nothing; the membership test of Ω^s m, with its
    total-reflexivity cross-check, does, and a verdict other than "yes"
    raises PropertyViolation.
    """
    profile.check_module(m)
    if not profile.certified:
        return "unknown"
    return memo(m, ("gpd", profile.gorenstein_dim, profile.bound), None,
                lambda: _gpd_uncached(m, profile))


def _gpd_uncached(m: Module, profile: GorensteinProfile) -> int:
    reg = regular_module(m.algebra)
    s = max((i for i in range(1, profile.gorenstein_dim + 1) if ext_dim(m, reg, i)), default=0)
    stage = m
    for _ in range(s):
        stage = syzygy(stage)[0]
    verdict = is_gorenstein_projective(stage, profile)
    if verdict.verdict != "yes":
        raise PropertyViolation(
            f"the syzygy at the Ext support {s} is not Gorenstein projective: {verdict.detail}")
    return s


def gid(m: Module, profile: GorensteinProfile):
    """Gorenstein injective dimension: Gpd(D(m)) over the opposite algebra.

    The opposite profile is not compared with this one: it reads its two
    numbers off the same memoized resolutions, of D(P) for A's projectives
    P and of A's injectives, which structural_modules builds as D(Q) for
    A^op's projectives Q, so it mirrors this profile by construction."""
    profile.check_module(m)
    if not profile.certified:
        return "unknown"
    return gpd(dual_module(m), gorenstein_profile(m.algebra.opposite(), profile.bound))


# ---------------------------------------------------------------------------
# Null-homotopies
# ---------------------------------------------------------------------------


def nullhomotopy(chain_map: Sequence[Optional[Mat]], source: Resolution, target: Resolution,
                 target_shift: int = 0) -> List[Mat]:
    """Solve chain_map = d∘s + s∘d degreewise, or raise NoHomotopy.

    chain_map[k] is the matrix of a map source.terms[k] ->
    target.terms[k + target_shift]; a missing or None entry is zero.  With
    target_shift = -1, entry 0 maps into the augmented object, which no
    zero default can shape, so it must be given, and s[k] is (-1)^k times
    the k-th map of a chain map lifting it.  The homotopy s[k]:
    source.terms[k] -> target.terms[k + target_shift + 1] is one
    factor_through per degree, d·s[k] = chain_map[k] - s[k-1]·d with d the
    map leaving the target term (the augmentation at degree 0), which
    factor_through asserts exactly: that is the identity in degree k.  An
    inconsistent system signals a violated precondition upstream and raises
    NoHomotopy.
    """
    field = source.augmented.algebra.field
    s: List[Mat] = []
    for k in range(len(source.terms)):
        phi = chain_map[k] if k < len(chain_map) else None
        if phi is None:
            phi = Mat.zeros(field, target.term(k + target_shift).dim, source.term(k).dim)
        rhs = phi - s[-1] * source.map_from(k) if s else phi
        sol = factor_through(source.term(k), target.term(k + target_shift + 1),
                             target.map_from(k + target_shift + 1), rhs)
        if sol is None:
            raise NoHomotopy(f"homotopy system inconsistent at stage {k}")
        s.append(sol)
    return s


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------


class ComplexObj:
    """A bounded cochain complex of modules with d^{n+1} ∘ d^n = 0; with
    no differentials, a graded module."""

    def __init__(self, algebra: Algebra, components: Dict[int, Module],
                 differentials: Dict[int, ModHom]):
        self.algebra = algebra
        self.components = dict(components)
        self.differentials = dict(differentials)
        degrees = sorted(self.components)
        self.lo = degrees[0] if degrees else 0
        self.hi = degrees[-1] if degrees else -1
        for n, m in self.components.items():
            if m.algebra != algebra:
                raise InputShapeError(f"component at degree {n} is over another algebra")
        for n, d in self.differentials.items():
            if d.source is not self.component(n) or d.target is not self.component(n + 1):
                raise InputShapeError(f"differential at {n} connects wrong components")
        for n in list(self.differentials):
            nxt = self.differentials.get(n + 1)
            if nxt is not None and not (nxt.matrix * self.differentials[n].matrix).is_zero():
                raise PropertyViolation(f"d∘d != 0 at degree {n}")

    def component(self, n: int) -> Module:
        mod = self.components.get(n)
        return mod if mod is not None else zero_module(self.algebra)

    def differential(self, n: int) -> ModHom:
        d = self.differentials.get(n)
        if d is not None:
            return d
        return zero_hom(self.component(n), self.component(n + 1))

    def support(self):
        return range(self.lo, self.hi + 1)

    def cohomology_dim(self, n: int) -> int:
        dims = [self.component(k).dim for k in (n - 1, n, n + 1)]
        return homology_dims(dims, [self.differential(k).matrix for k in (n - 1, n)])[1]


def complex_to_json(c: ComplexObj, algebra_ref: Optional[str] = None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(c.algebra),
        "support": [c.lo, c.hi],
        "components": [component_to_json(c.component(n)) for n in c.support()],
        "differentials": [mat_to_flat(c.differential(n).matrix) for n in range(c.lo, c.hi)],
    }


def json_support(doc: dict) -> int:
    """The first degree of a complex document, whose support [lo, hi] must
    count its components exactly, with one differential or none between
    each two of them."""
    support = json_list(doc["support"], "support")
    count = len(json_list(doc["components"], "components"))
    maps = len(json_list(doc["differentials"], "differentials"))
    if len(support) != 2:
        raise InputShapeError("support must be a pair [lo, hi]")
    lo, hi = (json_int(x, "support") for x in support)
    if hi - lo + 1 != count:
        raise InputShapeError(f"support [{lo}, {hi}] does not match {count} components")
    if maps >= max(count, 1):
        raise InputShapeError(f"too many differentials: {maps} for {count} components")
    return lo


def complex_from_json(doc: dict, algebra: Optional[Algebra] = None,
                      base_dir: Optional[Path] = None) -> ComplexObj:
    with document("complex", doc):
        if algebra is None:
            algebra = resolve_algebra_ref(doc, "algebra", base_dir)
        lo = json_support(doc)
        comps = {lo + k: module_from_json(comp, algebra=algebra)
                 for k, comp in enumerate(doc["components"])}
        diffs: Dict[int, ModHom] = {}
        for offset, flat in enumerate(doc["differentials"]):
            n = lo + offset
            src, tgt = comps[n], comps[n + 1]
            diffs[n] = ModHom(src, tgt, mat_from_flat(algebra.field, flat, tgt.dim, src.dim))
        return ComplexObj(algebra, comps, diffs)


def save_complex(c: ComplexObj, path, algebra_ref: Optional[str] = None) -> None:
    Path(path).write_text(json.dumps(complex_to_json(c, algebra_ref), indent=1))


def load_complex(path, algebra: Optional[Algebra] = None) -> ComplexObj:
    p = Path(path)
    return complex_from_json(json.loads(p.read_text()), algebra=algebra, base_dir=p.parent)


# ---------------------------------------------------------------------------
# Quasi-bicomplex totalization
# ---------------------------------------------------------------------------


class QuasiBicomplex(NamedTuple):
    """Bigraded projectives P^{i,j} with maps d_l of bidegree (l, -l+1).

    maps[l][(i, j)] sends P^{i,j} to P^{i+l, j-l+1}; the defining
    identities sum_{a=0}^{l} d_a ∘ d_{l-a} = 0 hold in the whole window.
    totalize_quasi_bicomplex builds each d_l, l >= 1, from composite_sum
    over 1 <= a <= l-1 and checks the identities as D∘D = 0 on the total
    complex; verify_identities checks them one by one.
    """

    max_column: int
    max_row: int            # rows run j = 0, -1, ..., -max_row
    components: Dict[Tuple[int, int], Module]
    maps: Dict[int, Dict[Tuple[int, int], Mat]]

    def map_at(self, l: int, i: int, j: int) -> Optional[Mat]:
        return self.maps.get(l, {}).get((i, j))

    def composite_sum(self, l: int, i: int, j: int, degrees: range) -> Optional[Mat]:
        """sum of d_a ∘ d_{l-a} out of P^{i,j} over a in degrees, or None
        when no composite is defined there."""
        acc = None
        for a_deg in degrees:
            first = self.map_at(l - a_deg, i, j)
            second = self.map_at(a_deg, i + l - a_deg, j - (l - a_deg) + 1)
            if first is not None and second is not None:
                acc = second * first if acc is None else acc + second * first
        return acc

    def verify_identities(self) -> List[tuple]:
        """Return the list of (l, i, j) where sum d_a d_{l-a} != 0 (expected empty)."""
        return [(l, i, j) for l in range(2 * (self.max_row + 2) + 1) for i, j in self.components
                if (acc := self.composite_sum(l, i, j, range(l + 1))) is not None
                and not acc.is_zero()]


class TotalizationResult(NamedTuple):
    quasi_bicomplex: QuasiBicomplex
    total: ComplexObj
    witness: ShortExactSequence
    b0_pd: Dim
    z0_verdict: GpVerdict
    gpd_bound_matches: bool


def totalize_quasi_bicomplex(m: Module, profile: GorensteinProfile) -> TotalizationResult:
    """Realize the totalization argument bounding Gpd(m) by the profile.

    Builds the injective coresolution of m to degree m^+1, as D of the
    projective resolution of D(m) over the opposite algebra, and the rows,
    the resolutions of its terms (resolve_injective_sum), whose maps are
    d_0.  Every d_l, l >= 1, then comes from one induction (Wall, "Resolutions
    for extensions of groups", Proc. Cambridge Philos. Soc. 57, 1961), one
    null-homotopy per column: d_0 d_l + d_l d_0 = -sum_{a=1}^{l-1} d_a
    d_{l-a}, the composite_sum of the maps already built.  For l = 1 the
    sum is empty and the homotopy starts from -∂·ε into I^{i+1}, with ∂
    the coresolution map and ε the row's augmentation, so d_1^{i,j} is
    (-1)^j times the lift of ∂ (factor_through's particular solution is
    linear in its right side).  Checks that the total differential D
    squares to zero, which is every window identity at once (the block of
    D² from P^{i,j} to P^{i+l,j-l+2} is sum_a d_a d_{l-a}); checks H^0 ≅ m
    and vanishing elsewhere in the window; and returns the short exact
    sequence 0 -> B^0 -> Z^0 -> m -> 0 with pd(B^0) <= m^-1 and Z^0
    Gorenstein projective: when B^0 = 0 the epi Z^0 -> m is an isomorphism,
    so m's own memoized verdict is Z^0's.  B^0 is built inside Z^0, at its
    coordinates in Z^0's kernel basis, read off that basis's unit rows with no
    elimination; its inclusion is the submodule's, not checked again.
    """
    profile.check_module(m)
    if not profile.certified:
        raise ProfileNotCertified("totalization requires a certified Gorenstein profile")
    a = m.algebra
    mhat = profile.gorenstein_dim
    ncols = mhat + 2

    dres = resolve(dual_module(m), ncols - 1)
    rows = [resolve_injective_sum(dres.term(i), mhat) for i in range(ncols)]
    for i, r in enumerate(rows):
        if not r.complete:
            raise PropertyViolation(
                f"injective term {i} has projective dimension above the certified bound")

    components = {(i, -k): t for i, r in enumerate(rows) for k, t in enumerate(r.terms)}
    # d_0^{i, -(k+1)}: terms[k+1] -> terms[k]
    dmaps: Dict[int, Dict[Tuple[int, int], Mat]] = {
        0: {(i, -(k + 1)): f for i, r in enumerate(rows) for k, f in enumerate(r.maps)}}
    qb = QuasiBicomplex(ncols - 1, mhat, components, dmaps)

    # d_0 d_l + d_l d_0 = -sum_{a=1}^{l-1} d_a d_{l-a}; for l = 1, -∂·ε into I^{i+1}
    for l in range(1, mhat + 2):
        dmaps[l] = {}
        for i in range(ncols - l):
            cmap = [qb.composite_sum(l, i, -k, range(1, l)) for k in range(len(rows[i].terms))]
            if l == 1:
                cmap[0] = -(dres.map_from(i + 1).transpose() * rows[i].augmentation)
            try:
                s = nullhomotopy(cmap, rows[i], rows[i + l], target_shift=l - 2)
            except NoHomotopy as exc:
                raise PropertyViolation(
                    f"null-homotopy for the degree-{l} map failed at column {i}: {exc}"
                ) from exc
            for k, mat in enumerate(s):
                if mat.rows and mat.cols:
                    dmaps[l][(i, -k)] = -mat

    # Total complex Q^s = ⊕_{i+j=s} P^{i,j}, differential sum of d_l blocks.
    degrees = range(-mhat, ncols)
    blocks = {s: [(i, s - i) for i in range(ncols) if (i, s - i) in components] for s in degrees}
    totals = {s: direct_sum([components[key] for key in blocks[s]]) if blocks[s]
              else zero_module(a) for s in degrees}

    diffs: Dict[int, ModHom] = {}
    for s in degrees[:-1]:
        target_pos = {key: n for n, key in enumerate(blocks[s + 1])}
        parts = {}
        for n, (i, j) in enumerate(blocks[s]):
            for l, maps in dmaps.items():
                if (i, j) in maps and (i + l, j - l + 1) in target_pos:
                    parts[(target_pos[(i + l, j - l + 1)], n)] = maps[(i, j)]
        d = block_matrix(a.field, [components[key].dim for key in blocks[s + 1]],
                         [components[key].dim for key in blocks[s]], parts)
        diffs[s] = ModHom(totals[s], totals[s + 1], d)

    total = ComplexObj(a, totals, diffs)  # checks D∘D = 0: the window identities

    h_dims = homology_dims([totals[s].dim for s in degrees],
                           [diffs[s].matrix for s in degrees[:-1]])
    for s, h in zip(degrees, h_dims):
        if s == 0:
            if h != m.dim:
                raise PropertyViolation(f"H^0 of the total complex has dimension {h} != {m.dim}")
        elif -mhat <= s <= mhat and h != 0:
            raise PropertyViolation(f"H^{s} of the total complex is nonzero")

    # Witness sequence 0 -> B^0 -> Z^0 -> m -> 0.
    z0_basis = total.differential(0).matrix.kernel_basis()
    z0_mod, _ = submodule(totals[0], z0_basis)

    # Map Z^0 -> m: project to the P^{0,0} block, which comes first in Q^0
    # (every row has a term 0), apply the row augmentation, then pull back
    # through the coresolution augmentation m -> I^0.
    into_i0 = rows[0].augmentation * z0_basis.select_rows(range(rows[0].terms[0].dim))
    back = solve(dres.augmentation.transpose(), into_i0)
    if back.particular is None:
        raise PropertyViolation("Z^0 does not land in the image of m inside I^0")
    omega = ModHom(z0_mod, m, back.particular)  # the sequence checks it is epi
    b0_in_z0 = solve(z0_basis, column_space_basis(total.differential(-1).matrix))
    if b0_in_z0.particular is None:
        raise PropertyViolation("B^0 is not contained in Z^0")
    b0_mod, b0_incl = submodule(z0_mod, b0_in_z0.particular)
    witness = ShortExactSequence(b0_mod, z0_mod, m, b0_incl, omega)

    b0_pd: Dim = 0 if b0_mod.dim == 0 else projective_dimension(b0_mod, max(1, mhat))
    if b0_mod.dim and not (isinstance(b0_pd, int) and b0_pd <= mhat - 1):
        raise PropertyViolation(f"pd(B^0) = {b0_pd} exceeds {mhat - 1}")
    z0_verdict = is_gorenstein_projective(z0_mod if b0_mod.dim else m, profile)
    if z0_verdict.verdict != "yes":
        raise PropertyViolation("Z^0 failed the Gorenstein projective test")
    independent = gpd(m, profile)
    bound_ok = isinstance(independent, int) and independent <= mhat

    return TotalizationResult(qb, total, witness, b0_pd, z0_verdict, bound_ok)
