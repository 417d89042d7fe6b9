"""Frobenius pairs as tensor functors of bimodules.

Functors are realized as explicit matrix constructions, never as abstract
functor objects.  Every adjoint pair is a BimodulePair: for an S-R-bimodule
M with _S M projective, F = M ⊗_R - and G = Hom_S(M, S) ⊗_S -, with unit
and counit assembled from a dual basis witnessing that M is a summand of a
free S-module.  The pairs the package uses are four bimodules:

* (induction, restriction) of a ring extension R -> S: _S S_R;
* (restriction, coinduction): _R S_S;
* (projection, inclusion) for a product B x B': e(B x B') with e = (1, 0),
  as a B-(B x B')-bimodule;
* (inclusion, projection): B as a (B x B')-B-bimodule.

There is one tensor construction: M ⊗_R x is the quotient of M ⊗_k x by
the balancing relations of R's generators.  When M's right side is the
regular R-module (one object, as modules are interned), M ⊗_R x is x
itself with S acting through M's left action, and Hom into the regular
module is homology.star_module, which writes Hom_A(A, A) in the basis of
right multiplications, so the G of (induction, restriction) and the F of
(restriction, coinduction) are restriction exactly.
BimodulePair.check_triangles is the one check of the triangle identities,
as exact matrix equalities, and is_frobenius_bimodule certifies any pair,
once per bimodule and seed.  A ring extension R -> S is
certified by a Frobenius system (E, x_i, y_i), checked by multiplication,
with S ≅ Coind(R) by t -> E(-·t) as its witness; when none is found it is
certified as the bimodule _S S_R, under the same memo.  The verification
routines report per-object records rather than trusting any general fact
on faith.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    Algebra,
    algebra_to_json,
    document,
    json_int,
    json_list,
    memo,
    product_algebra,
    resolve_algebra_ref,
    tensor_algebra,
)
from .errors import (
    AlgebraMismatch,
    InputShapeError,
    PreconditionFailed,
    PropertyViolation,
)
from .exactlin import Mat, block_matrix, kron, kron_difference, mat_from_flat, mat_to_flat, solve, vec
from .homology import (
    gorenstein_profile,
    gpd,
    is_gorenstein_projective,
    is_projective,
    projective_dimension,
    star_module,
    syzygy,
)
from .modrep import (
    MAX_RANDOM_TRIALS,
    IsoVerdict,
    ModHom,
    Module,
    ShortExactSequence,
    _combine,
    _hom_space_matrices,
    _isomorphism,
    column_space_basis,
    cover_envelope,
    hom_actions,
    hom_coordinates,
    hom_delta,
    hom_space,
    random_coefficients,
    regular_module,
    stable_hom_dim,
    structural_modules,
    submodule,
    quotient_module,
)


# ---------------------------------------------------------------------------
# Ring extensions
# ---------------------------------------------------------------------------


class RingExtension:
    """An injective unit-preserving algebra map R -> S given by its matrix."""

    def __init__(self, base: Algebra, total: Algebra, embedding: Mat):
        if base.field != total.field:
            raise AlgebraMismatch("extension endpoints must share the field")
        if embedding.rows != total.dim or embedding.cols != base.dim:
            raise InputShapeError("embedding matrix has the wrong shape")
        self.base = base
        self.total = total
        self.embedding = embedding
        if embedding.rank() != base.dim:
            raise PropertyViolation("embedding is not injective")
        if (embedding * Mat.from_cols(base.field, [base.unit])).col(0) != total.unit:
            raise PropertyViolation("embedding does not preserve the unit")
        # once phi(1) = 1, the x with phi(x·y) = phi(x)·phi(y) for all y form
        # a subalgebra containing 1, so the generators of R suffice
        for i in base.generators():
            for j in range(base.dim):
                lhs = total.mul_vec(embedding.col(i), embedding.col(j))
                if lhs != self.embed(base.table[i][j]):
                    raise PropertyViolation(
                        f"embedding is not multiplicative at "
                        f"({base.basis_labels[i]}, {base.basis_labels[j]})"
                    )
        self._cache: dict = {}

    def embed(self, v) -> tuple:
        return (self.embedding * Mat.from_cols(self.base.field, [v])).col(0)

    def __repr__(self):
        return f"RingExtension({self.base!r} -> {self.total!r})"


def identity_extension(a: Algebra) -> RingExtension:
    return RingExtension(a, a, Mat.identity(a.field, a.dim))


# -- induction / restriction / coinduction ----------------------------------


def induce(ext: RingExtension, x: Module) -> Module:
    """S ⊗_R x: tensoring with the bimodule _S S_R."""
    return _tensor(extension_bimodule(ext), x).module


def restrict(ext: RingExtension, y: Module) -> Module:
    """The same space with R acting through the embedding: S ⊗_S y over
    the restriction bimodule _R S_S, which _tensor reads as y itself."""
    return _tensor(restriction_bimodule(ext), y).module


def coinduce(ext: RingExtension, x: Module) -> Module:
    """Hom_R(S, x) with S acting by precomposition with right multiplication,
    built once per (ext, x), not checked again: the solve proves the span
    stable, and with rho_r(s) = regular_module(S^op).rho(s) the right
    multiplication by s, f∘rho_r(s')∘rho_r(s) = f∘rho_r(s·s'), rho_r(1) = id."""

    def build() -> Module:
        if x.algebra != ext.base:
            raise AlgebraMismatch("coinduce expects a module over the base algebra")
        s = ext.total
        basis = hom_space(restrict(ext, regular_module(s)), x)
        return Module(s, hom_actions(basis, regular_module(s.opposite()).action, s.field,
                                     "coinduced action left the hom space"),
                      _skip_validation=True)

    return memo(x, "coind", ext, build)


# ---------------------------------------------------------------------------
# Bimodules
# ---------------------------------------------------------------------------


class Bimodule:
    """An S-R-bimodule with commuting verified left and right actions."""

    def __init__(self, left: Algebra, right: Algebra, dim: int,
                 left_action: Sequence[Mat], right_action: Sequence[Mat]):
        # each action is a module structure in its own right
        self._set(left, right, dim, Module(left, left_action),
                  Module(right.opposite(), right_action))
        # for a right generator h the s whose action commutes with h's form a
        # subalgebra containing 1, and so, for any s, do the r whose action
        # commutes with s's: commuting on generator pairs is commuting
        for i in left.generators():
            for j in self._as_right_op.algebra.generators():
                lam, rho_m = self.left_action[i], self.right_action[j]
                if lam * rho_m != rho_m * lam:
                    raise PropertyViolation("left and right actions do not commute")

    @classmethod
    def _trusted(cls, left: Algebra, right: Algebra, dim: int,
                 left_action: Sequence[Mat], right_action: Sequence[Mat]) -> "Bimodule":
        """A bimodule whose construction proved both module laws and that the
        actions commute, built without the checks; only the bimodules of a
        ring extension call it."""
        b = object.__new__(cls)
        b._set(left, right, dim, Module(left, left_action, _skip_validation=True),
               Module(right.opposite(), right_action, _skip_validation=True))
        return b

    def _set(self, left: Algebra, right: Algebra, dim: int, as_left: Module,
             as_right_op: Module):
        self.left, self.right, self.dim = left, right, dim
        self.left_action, self.right_action = as_left.action, as_right_op.action
        self._as_left, self._as_right_op = as_left, as_right_op
        self._cache: dict = {}

    def as_left_module(self) -> Module:
        return self._as_left

    def as_right_op_module(self) -> Module:
        return self._as_right_op

    def as_tensor_module(self) -> Module:
        """One module over left ⊗ right^op encoding the whole bimodule; its
        products are formed on each call, and the module is interned.

        s ⊗ r acts as lambda(s)·rho(r), not checked again: construction
        checked lambda as a left-module and rho as a right^op-module action
        and that they commute, so lambda(s)·rho(r)·lambda(s')·rho(r') =
        lambda(s·s')·rho(r *op r'), the action of (s ⊗ r)(s' ⊗ r'), and
        1 ⊗ 1 acts as the identity."""
        t = tensor_algebra(self.left, self.right.opposite())
        return Module(t, [lam * rho for lam in self.left_action for rho in self.right_action],
                      _skip_validation=True)


def extension_bimodule(ext: RingExtension) -> Bimodule:
    """S as the natural S-R-bimodule of a ring extension, built once per
    extension, not checked again: S acts by left multiplication,
    regular_module(S), and R by right multiplication through the embedding
    phi, regular_module(S^op).rho(phi(r)), which RingExtension checked
    unital and multiplicative, so x·phi(r)·phi(r') = x·phi(r·r');
    associativity makes both actions modules and makes them commute."""

    def build() -> Bimodule:
        s, r = ext.total, ext.base
        right = [regular_module(s.opposite()).rho(ext.embedding.col(j)) for j in range(r.dim)]
        return Bimodule._trusted(s, r, s.dim, regular_module(s).action, right)

    return memo(ext, "bimodule", None, build)


def restriction_bimodule(ext: RingExtension) -> Bimodule:
    """S as the natural R-S-bimodule of a ring extension, built once per
    extension, not checked again: extension_bimodule's reading and proof,
    sides swapped."""

    def build() -> Bimodule:
        s, r = ext.total, ext.base
        left = [regular_module(s).rho(ext.embedding.col(j)) for j in range(r.dim)]
        return Bimodule._trusted(r, s, s.dim, left, regular_module(s.opposite()).action)

    return memo(ext, "restriction bimodule", None, build)


def hom_to_regular(m: Bimodule, side: str) -> Tuple[Bimodule, tuple]:
    """Hom into the regular module over one side of an S-R-bimodule M, as an
    R-S-bimodule, with the basis of matrices its coordinates refer to,
    built once per (M, side).

    side="left":  Hom_S(M, S),      (r·h·s)(x) = h(x·r)·s;
    side="right": Hom_{R^op}(M, R), (r·g·s)(x) = r·g(s·x).
    The regular module's own algebra acts by right multiplication after h:
    that is star_module of the side, whose basis and action are taken as
    they are; the other side's action on M is precomposed.
    """

    def build() -> Tuple[Bimodule, tuple]:
        over, pre = ((m.as_left_module(), m.right_action) if side == "left"
                     else (m.as_right_op_module(), m.left_action))
        star, basis = star_module(over)
        pre_acts = hom_actions(basis, pre, over.algebra.field,
                               f"bimodule action left Hom into the regular {side} module")
        left, right = (pre_acts, star.action) if side == "left" else (star.action, pre_acts)
        return Bimodule(m.right, m.left, len(basis), left, right), basis

    return memo(m, "hom to regular " + side, None, build)


# -- the tensor construction -------------------------------------------------


class _Tensor(NamedTuple):
    """M ⊗_R x with the projection from M ⊗_k x onto it and a section of
    that projection."""

    module: Module
    proj: Mat
    section: Mat


def _tensor(bim: Bimodule, x: Module) -> _Tensor:
    """M ⊗_R x: the quotient of M ⊗_k x by m·r ⊗ v - m ⊗ r·v, with its
    projection and section, built once per (M, x).

    The relations of the generators r of R (Algebra.generators) suffice:
    m·r1r2 ⊗ v - m ⊗ r1r2·v = [(m·r1)·r2 ⊗ v - (m·r1) ⊗ r2·v]
    + [m·r1 ⊗ r2·v - m ⊗ r1·(r2·v)], so the r whose relations lie in their
    span form a subalgebra containing 1.  quotient_module reads only that
    span, by the RREF of its annihilator.  The relations are the rows of
    kron(rho_M(r)^T, I) - kron(I, rho_x(r)^T), one exactlin.kron_difference.

    When M is literally R_R, m ⊗ v -> m·v identifies M ⊗_R x with x, on
    which s acts as rho_x(s·1); the section is v -> 1 ⊗ v."""

    def build() -> _Tensor:
        out_alg = bim.left
        act_alg = bim.right
        if x.algebra != act_alg:
            raise AlgebraMismatch("tensor functor applied to a module over the wrong algebra")
        field = out_alg.field
        dm, dx = bim.dim, x.dim
        over = bim.as_right_op_module()
        if over is regular_module(over.algebra):
            unit = Mat.from_cols(field, [act_alg.unit])
            acts = [x.rho((lam * unit).col(0)) for lam in bim.left_action]
            proj = block_matrix(field, [dx], [dx] * dm,
                                {(0, a): act for a, act in enumerate(x.action)})
            return _Tensor(Module(out_alg, acts), proj, kron(unit, Mat.identity(field, dx)))
        ambient = Module(out_alg, [kron(lam, Mat.identity(field, dx)) for lam in bim.left_action],
                         _skip_validation=True)
        # row a*dx + b for generator r is m_a·r ⊗ v_b - m_a ⊗ r·v_b
        rels = kron_difference(field, dm, dx, [
            (bim.right_action[g].transpose(), x.action[g].transpose())
            for g in act_alg.generators()])
        quot, proj = quotient_module(ambient, column_space_basis(rels.transpose()))
        # each row of proj is a kernel vector, 1 at its own free coordinate and
        # 0 at the other free ones and past it: those unit vectors are a section
        section = Mat.identity(field, dm * dx).select_cols(
            max((j for j, c in enumerate(row) if c), default=0) for row in proj.matrix.data)
        if proj.matrix * section != Mat.identity(field, quot.dim):
            raise PropertyViolation("quotient projection has no section")
        return _Tensor(quot, proj.matrix, section)

    return memo(x, "tensor", bim, build)


def _tensor_hom(bim: Bimodule, f: ModHom) -> ModHom:
    """M ⊗_R f between the tensor modules of its source and target."""
    src, tgt = _tensor(bim, f.source), _tensor(bim, f.target)
    field = bim.left.field
    big = kron(Mat.identity(field, bim.dim), f.matrix)
    mat = tgt.proj * big * src.section
    if tgt.proj * big != mat * src.proj:
        raise PropertyViolation("tensor hom is not well defined on classes")
    return ModHom(src.module, tgt.module, mat)


# ---------------------------------------------------------------------------
# Projectivity with witness
# ---------------------------------------------------------------------------


class DualBasis(NamedTuple):
    """Pairs (element column, functional matrix) with v = sum rho(f_t(v))·m_t."""

    elements: tuple      # columns in the module
    functionals: tuple   # matrices module -> regular


def summand_witness(q: Module, gen: Module):
    """Solve id_q = sum_t c_t·p_t∘h_t over p_t in a basis of Hom(gen, q)
    and h_t in a basis of Hom(q, gen).

    Returns the pairs (p_t, h_t) as matrices and the coefficient column c,
    or None when q is not a direct summand of a finite direct sum of copies
    of gen.
    """
    field = q.algebra.field
    if q.dim == 0:
        return [], Mat.zeros(field, 0, 1)
    downs = hom_space(q, gen)
    pairs = [(p, h) for p in hom_space(gen, q) for h in downs]
    if not pairs:
        return None
    span = Mat.from_cols(field, [tuple(vec(p * h).col(0)) for p, h in pairs])
    coeffs = solve(span, vec(Mat.identity(field, q.dim))).particular
    return None if coeffs is None else (pairs, coeffs)


def projective_witness(m: Module) -> Optional[DualBasis]:
    """A dual basis certifying that m is a summand of a free module, or None.

    The pieces of the summand system id_m = sum_t p_t ∘ q_t with p_t: A -> m
    and q_t: m -> A give the dual basis; the regular module's is (1, id).
    When the algebra carries idempotents the verdict is cross-checked
    against the projective-cover test.
    """
    a = m.algebra
    field = a.field
    if m is regular_module(a):
        pieces = [(Mat.identity(field, a.dim), Mat.identity(field, a.dim))]
    else:
        found = summand_witness(m, regular_module(a))
        if a.idempotents is not None:
            if (found is not None) != is_projective(m):
                raise PropertyViolation("summand-of-free and cover tests disagree")
        if found is None:
            return None
        pairs, coeffs = found
        pieces = [(p.scale(c), q) for (p, q), c in zip(pairs, coeffs.col(0)) if c != 0]
    if sum((p * q for p, q in pieces), Mat.zeros(field, m.dim, m.dim)) != Mat.identity(field, m.dim):
        raise PropertyViolation("dual basis does not reassemble the identity")
    unit_col = Mat.from_cols(field, [a.unit])
    return DualBasis(tuple(tuple((p * unit_col).col(0)) for p, _ in pieces),
                     tuple(q for _, q in pieces))


# ---------------------------------------------------------------------------
# Frobenius certification
# ---------------------------------------------------------------------------


def is_frobenius_extension(ext: RingExtension, seed: int = 0) -> IsoVerdict:
    """R -> S is a Frobenius extension exactly when it has a Frobenius system
    (Kasch; Kadison, New Examples of Frobenius Extensions, ch. 1), and
    exactly when _S S_R is a Frobenius bimodule.  A system is tried first,
    with S ≅ Coind(R), t -> E(-·t), as its witness; when none is found the
    search certifies _S S_R.  The verdict is memoized as the bimodule's, so
    the extension and its bimodule share one object."""
    bim = extension_bimodule(ext)

    def build() -> IsoVerdict:
        system = frobenius_system(ext, seed)
        if system is None:
            return _frobenius_search(bim, seed)
        return IsoVerdict("yes", witness=_system_witness(ext, system[2]))

    return memo(bim, ("frobenius", seed), None, build)


def is_frobenius_bimodule(m: Bimodule, seed: int = 0) -> IsoVerdict:
    """The search's verdict on M, decided once per (M, seed)."""
    return memo(m, ("frobenius", seed), None, lambda: _frobenius_search(m, seed))


def _frobenius_search(m: Bimodule, seed: int) -> IsoVerdict:
    """Projectivity on both sides plus Hom_S(M, S) ≅ Hom_R^op(M, R).  The
    verdict is the isomorphism test's, its witness the bimodule isomorphism."""
    if projective_witness(m.as_left_module()) is None:
        return IsoVerdict("no", obstruction="M is not projective as a left S-module")
    if projective_witness(m.as_right_op_module()) is None:
        return IsoVerdict("no", obstruction="M is not projective as a right R-module")
    left_dual = hom_to_regular(m, "left")[0].as_tensor_module()
    right_dual = hom_to_regular(m, "right")[0].as_tensor_module()
    # the verdict's witness holds the two dual modules: the search
    # memoizes nothing on them, so a kept verdict keeps no search memo
    iso = _isomorphism(left_dual, right_dual, seed, _hom_space_matrices)
    if iso.verdict == "no":
        return IsoVerdict("no", obstruction="the two dual bimodules are not "
                                            f"isomorphic: {iso.obstruction}")
    return iso


def frobenius_system(ext: RingExtension, seed: int = 0) -> Optional[Tuple[Mat, list, list]]:
    """A Frobenius system (E, e_i, y_i) of R -> S, x_i being the basis e_i of
    S, checked by check_frobenius_system, as (E, [y_i], er), er[t] the
    matrix of E(-·e_t); None when none is found.

    E is drawn, seeded, from the R-R-bimodule maps S -> R, at most
    MAX_RANDOM_TRIALS times.  A Frobenius homomorphism makes t -> E(-·t) a
    bijection S -> Hom_R(S, R), so a draw whose map is not injective, or
    every draw when the two dimensions differ, is passed over.  Once
    x_i = e_i both identities are linear in the y_i, and any system
    (x'_k, y'_k) with x'_k = sum_i c_ik·e_i gives y_i = sum_k c_ik·y'_k, so
    one solve decides whether E has dual elements."""
    r, s = ext.base, ext.total
    maps = _bimodule_maps(ext)
    if not maps or coinduce(ext, regular_module(r)).dim != s.dim:
        return None
    rng, p = random.Random(seed), s.field.characteristic
    for _ in range(MAX_RANDOM_TRIALS):
        e = _combine(maps, random_coefficients(rng, p, len(maps)))
        er = [e * m for m in regular_module(s.opposite()).action]
        if Mat.from_cols(s.field, [vec(x).col(0) for x in er]).rank() == s.dim:
            ys = _dual_elements(s, [ext.embedding * x for x in er])
            if ys is not None:
                check_frobenius_system(ext, e, ys)
                return e, ys, er
    return None


def _bimodule_maps(ext: RingExtension) -> List[Mat]:
    """A basis of the R-R-bimodule maps E: S -> R as matrices: the E in
    Hom_R(S, R), the basis Coind(R) is written in, with E(x·phi(g)) =
    E(x)·g for the generators g of R.  The r with E(x·phi(r)) = E(x)·r for
    every x form a subalgebra containing 1, so the generators suffice."""
    r, s = ext.base, ext.total
    basis = hom_space(restrict(ext, regular_module(s)), regular_module(r))
    if not basis:
        return []
    system = Mat.zeros(r.field, 0, len(basis))
    on_s, on_r = regular_module(s.opposite()), regular_module(r.opposite())
    for g in r.generators():
        system = system.vstack(hom_delta(basis, on_s.rho(ext.embedding.col(g)))
                               - hom_delta(basis, on_r.action[g], post=True))
    ker = system.kernel_basis()
    return [_combine(basis, ker.col(c)) for c in range(ker.cols)]


def _dual_elements(s: Algebra, fr: List[Mat]) -> Optional[list]:
    """The y_i with sum_i e_i·E(y_i·e_k) = e_k = sum_i E(e_k·e_i)·y_i for
    every k, as coordinate tuples, from one solve in the coordinates of all
    the y_i; None when there are none.  fr[k] is t -> phi(E(t·e_k))."""
    n, left = s.dim, regular_module(s)
    blocks = {}
    for i in range(n):
        for k in range(n):
            blocks[(k, i)] = left.action[i] * fr[k]
            blocks[(n + k, i)] = left.rho(fr[i].col(k))
    eye = vec(Mat.identity(s.field, n))
    sol = solve(block_matrix(s.field, [n] * (2 * n), [n] * n, blocks), eye.vstack(eye)).particular
    return None if sol is None else [sol.col(0)[i * n:(i + 1) * n] for i in range(n)]


def check_frobenius_system(ext: RingExtension, e: Mat, ys: Sequence) -> None:
    """Raise PropertyViolation unless (E, e_i, y_i) is a Frobenius system of
    R -> S, checked by multiplication alone: E is an R-R-bimodule map on the
    generators of R, and sum_i e_i·E(y_i·t) = t = sum_i E(t·e_i)·y_i for
    every basis element t of S."""
    r, s = ext.base, ext.total
    field = s.field
    for g in r.generators():
        x = ext.embedding.col(g)
        for over_s, over_r in ((s, r), (s.opposite(), r.opposite())):
            if e * regular_module(over_s).rho(x) != regular_module(over_r).action[g] * e:
                raise PropertyViolation(f"E is not an R-R-bimodule map at {r.basis_labels[g]}")

    def fe(v) -> tuple:
        return ext.embed((e * Mat.from_cols(field, [v])).col(0))

    for k in range(s.dim):
        t = s.basis_vec(k)
        left = right = s.zero_vec()
        for i, y in enumerate(ys):
            left = tuple(map(field.add, left, s.mul_vec(s.basis_vec(i), fe(s.mul_vec(y, t)))))
            right = tuple(map(field.add, right, s.mul_vec(fe(s.table[k][i]), y)))
        if left != t or right != t:
            raise PropertyViolation(f"the Frobenius system fails at {s.basis_labels[k]}")


def _system_witness(ext: RingExtension, er: List[Mat]) -> ModHom:
    """S -> Coind(R) = Hom_R(S, R), t -> E(-·t), from the matrices er[t] of
    E(-·e_t), checked as a hom of S-modules and as invertible."""
    s, r = ext.total, ext.base
    basis = hom_space(restrict(ext, regular_module(s)), regular_module(r))
    mat = hom_coordinates(er, basis, s.field, "E(-·t) is not a map of R-modules")
    witness = ModHom(regular_module(s), coinduce(ext, regular_module(r)), mat)
    if not witness.is_iso():
        raise PropertyViolation("t -> E(-·t) is not invertible")
    return witness


# ---------------------------------------------------------------------------
# Bimodule tensor pair
# ---------------------------------------------------------------------------


class BimodulePair:
    """The adjoint pair (M ⊗_R -, Hom_S(M, S) ⊗_S -) of an S-R-bimodule M with
    _S M projective: F takes algebra_a = R-modules to algebra_b = S-modules,
    G takes them back, with unit eta: 1 -> GF and counit eps: FG -> 1.

    Building a pair computes nothing.  N = Hom_S(M, S) and a dual basis of
    M over S are found on first use and memoized on M, so every pair on M
    shares them; a non-projective _S M raises PreconditionFailed there.
    """

    def __init__(self, m: Bimodule):
        self.m = m
        self.algebra_a = m.right
        self.algebra_b = m.left
        self.name = f"(M⊗-, N⊗-) of the ({m.left!r}, {m.right!r})-bimodule M"

    def _dual(self) -> Tuple[Bimodule, tuple, list]:
        """N as an R-S-bimodule, the basis of Hom_S(M, S) it is written in,
        and the dual basis of M over S as pairs (element, functional in N's
        coordinates)."""
        m = self.m

        def build() -> Tuple[Bimodule, tuple, list]:
            dual, n_basis = hom_to_regular(m, "left")
            basis = projective_witness(m.as_left_module())
            if basis is None:
                raise PreconditionFailed("M is not projective as a left S-module")
            coords = hom_coordinates(basis.functionals, n_basis, m.left.field,
                                     "dual-basis functional is outside Hom_S(M, S)")
            return dual, n_basis, list(zip(basis.elements,
                                           (coords.col(t) for t in range(coords.cols))))

        return memo(m, "dual basis", None, build)

    def apply_f(self, x: Module) -> Module:
        return _tensor(self.m, x).module

    def apply_g(self, y: Module) -> Module:
        return _tensor(self._dual()[0], y).module

    def apply_f_hom(self, f: ModHom) -> ModHom:
        return _tensor_hom(self.m, f)

    def apply_g_hom(self, f: ModHom) -> ModHom:
        return _tensor_hom(self._dual()[0], f)

    def unit(self, x: Module) -> ModHom:
        """x -> N ⊗_S M ⊗_R x, v -> sum_t f_t ⊗ m_t ⊗ v over the dual basis
        (m_t, f_t) of M over S: the sum of proj_GFx·(f_t ⊗ proj_Fx·(m_t ⊗ 1))."""
        dual, _, dual_basis = self._dual()
        fx = _tensor(self.m, x)
        gfx = _tensor(dual, fx.module)
        field = x.algebra.field
        eye = Mat.identity(field, x.dim)
        mat = sum((gfx.proj * kron(Mat.from_cols(field, [f_coords]),
                                   fx.proj * kron(Mat.from_cols(field, [m_elt]), eye))
                   for m_elt, f_coords in dual_basis), Mat.zeros(field, gfx.module.dim, x.dim))
        return ModHom(x, gfx.module, mat)

    def counit(self, y: Module) -> ModHom:
        """M ⊗_R N ⊗_S y -> y, m ⊗ h ⊗ w -> rho_y(h(m))·w."""
        dual, n_basis, _ = self._dual()
        gy = _tensor(dual, y)
        fgy = _tensor(self.m, gy.module)
        field = y.algebra.field
        # E1 on M ⊗k N ⊗k y: block (a, u) is the action of h_u(m_a) in S
        acts = [y.rho(h.col(a)) for a in range(self.m.dim) for h in n_basis]
        e1 = block_matrix(field, [y.dim], [y.dim] * len(acts),
                          {(0, k): act for k, act in enumerate(acts)})
        # descend through N ⊗_S y: the ambient M ⊗k G(y) maps into M ⊗k N ⊗k y
        # by the section of G(y) on each copy
        eye_m = Mat.identity(field, self.m.dim)
        e2 = e1 * kron(eye_m, gy.section)
        mat = e2 * fgy.section
        if mat * fgy.proj != e2:
            raise PropertyViolation("counit does not kill the outer balancing relations")
        # well-definedness across the inner quotient
        big_q = kron(eye_m, gy.proj)
        if mat * fgy.proj * big_q != e1:
            raise PropertyViolation("counit does not kill the inner balancing relations")
        return ModHom(fgy.module, y, mat)

    def check_triangles(self, x: Module, y: Module) -> bool:
        """eps_{Fx} ∘ F(eta_x) = id_{Fx} and G(eps_y) ∘ eta_{Gy} = id_{Gy}, exactly."""
        fx = self.apply_f(x)
        first = self.counit(fx).matrix * self.apply_f_hom(self.unit(x)).matrix
        if first != Mat.identity(fx.algebra.field, fx.dim):
            raise PropertyViolation(f"first triangle identity of {self.name} fails")
        gy = self.apply_g(y)
        second = self.apply_g_hom(self.counit(y)).matrix * self.unit(gy).matrix
        if second != Mat.identity(gy.algebra.field, gy.dim):
            raise PropertyViolation(f"second triangle identity of {self.name} fails")
        return True


def ExtensionPair(ext: RingExtension) -> BimodulePair:
    """(induction, restriction) of a ring extension: the pair of _S S_R."""
    return BimodulePair(extension_bimodule(ext))


def triangles_hold(pair: BimodulePair, corpus_a: Sequence[Module],
                   corpus_b: Sequence[Module]) -> bool:
    """Whether pair.check_triangles(x, y) holds at every x in corpus_a, y in corpus_b."""
    try:
        for x in corpus_a:
            for y in corpus_b:
                pair.check_triangles(x, y)
    except PropertyViolation:
        return False
    return True


def column_bimodule(r: Algebra, n: int, matrix_alg: Algebra) -> Bimodule:
    """The column bimodule R^n over (M_n(R), R): left matrix action, right scalars."""
    eye = Mat.identity(r.field, n)
    # E_uv ⊗ r_i sends column entry (v, j) to (u, r_i·r_j); r_j acts on the right
    left = [kron(eye.select_cols([u]) * eye.select_rows([v]), lam)
            for u in range(n) for v in range(n) for lam in regular_module(r).action]
    right = [kron(eye, rho) for rho in regular_module(r.opposite()).action]
    return Bimodule(matrix_alg, r, n * r.dim, left, right)


def product_pairs(b: Algebra, bprime: Algebra) -> Tuple[BimodulePair, BimodulePair]:
    """(projection, inclusion) and (inclusion, projection) for B x B': the
    pairs of e(B x B') as a B-(B x B')-bimodule and of B as a
    (B x B')-B-bimodule, where e = (1, 0) and B' acts by zero."""
    product = product_algebra(b, bprime)
    left, right = list(regular_module(b).action), list(regular_module(b.opposite()).action)
    zeros = [Mat.zeros(b.field, b.dim, b.dim)] * bprime.dim
    return (BimodulePair(Bimodule(b, product, b.dim, left, right + zeros)),
            BimodulePair(Bimodule(product, b, b.dim, left + zeros, right)))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class AdjunctionReport(NamedTuple):
    flags: Dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def add_generation_holds(pair, side: str) -> bool:
    """Exact test of add F(P(A)) ⊇ P(B) (side="f") or add G(P(B)) ⊇ P(A) ("g"),
    decided once per (M, side)."""

    def build() -> bool:
        if side == "f":
            gen = pair.apply_f(regular_module(pair.algebra_a))
            projs = structural_modules(pair.algebra_b).projectives
        else:
            gen = pair.apply_g(regular_module(pair.algebra_b))
            projs = structural_modules(pair.algebra_a).projectives
        return all(summand_witness(q, gen) is not None for q in projs)

    return memo(pair.m, "add generation " + side, None, build)


def faithfulness_report(pair, corpus: Sequence[Module]) -> AdjunctionReport:
    """Cor-2.2-style diagnostics for an adjoint pair on a module corpus.

    Flags whether the unit is mono and the counit epi at every object and
    the triangle identities hold; plus the exact add-generation tests in
    both directions, and the agreement between the unit-mono verdict and
    the G-side add-generation verdict (two characterizations of F being
    faithful).
    """
    report = AdjunctionReport({})
    corpus_a = [m for m in corpus if m.algebra == pair.algebra_a]
    corpus_b = [m for m in corpus if m.algebra == pair.algebra_b]
    units_mono = [pair.unit(x).is_mono() for x in corpus_a]
    counits_epi = [pair.counit(y).is_epi() for y in corpus_b]
    add_f = add_generation_holds(pair, "f")
    add_g = add_generation_holds(pair, "g")
    # naturality of unit and counit along projective cover maps P -> x
    covers_a = [cover_envelope(x)[1] for x in corpus_a if x.dim]
    covers_b = [cover_envelope(y)[1] for y in corpus_b if y.dim]
    naturality = all(
        [pair.unit(c.target).matrix * c.matrix
         == pair.apply_g_hom(pair.apply_f_hom(c)).matrix * pair.unit(c.source).matrix
         for c in covers_a]
        + [pair.counit(c.target).matrix * pair.apply_f_hom(pair.apply_g_hom(c)).matrix
           == c.matrix * pair.counit(c.source).matrix for c in covers_b])
    report.flags["triangle_identities"] = triangles_hold(pair, corpus_a, corpus_b)
    report.flags["unit_mono_all"] = all(units_mono)
    report.flags["counit_epi_all"] = all(counits_epi)
    report.flags["add_generation_f_side"] = add_f
    report.flags["add_generation_g_side"] = add_g
    report.flags["unit_mono_matches_add_generation"] = (all(units_mono) == add_g)
    report.flags["counit_epi_matches_add_generation"] = (all(counits_epi) == add_f)
    report.flags["unit_naturality"] = naturality
    # both functors send indecomposable projectives to summands of frees
    report.flags["projectivity_preserved"] = all(
        [projective_witness(functor(p)) is not None
         for a, functor in ((pair.algebra_a, pair.apply_f), (pair.algebra_b, pair.apply_g))
         for p in structural_modules(a).projectives])
    # the agreement flags are the real checks; lack of faithfulness itself
    # is data, not a failure
    report.flags.setdefault("exactness_on_covers", True)
    for mods, functor, functor_hom in (
        (corpus_a, pair.apply_f, pair.apply_f_hom),
        (corpus_b, pair.apply_g, pair.apply_g_hom),
    ):
        for x in mods:
            if x.dim == 0:
                continue
            p, cov = cover_envelope(x)
            sub, incl = syzygy(x)
            try:
                ShortExactSequence(sub, p, x, incl, cov)
                ShortExactSequence(functor(sub), functor(p), functor(x),
                                   functor_hom(incl), functor_hom(cov))
            except PropertyViolation:
                report.flags["exactness_on_covers"] = False
    return report


class TransferReport(NamedTuple):
    rows: List[dict]
    all_equal: bool
    ind_checked: bool


def verify_gpd_transfer(ext: RingExtension, corpus: Sequence[Module], bound: int = 20,
                        seed: int = 0) -> TransferReport:
    """Compare Gorenstein projective dimensions across a Frobenius extension.

    For every corpus module M over S, gpd_S(M) and gpd_R(restriction of M)
    are computed independently and must agree (the forgetful functor is a
    faithful Frobenius functor).  When induction is faithful too, the
    induced modules of an R-side corpus are compared the other way.
    """
    frob = is_frobenius_extension(ext, seed=seed)
    if frob.verdict != "yes":
        raise PreconditionFailed(f"extension is not certified Frobenius: {frob.verdict}")
    prof_s = gorenstein_profile(ext.total, bound)
    prof_r = gorenstein_profile(ext.base, bound)
    if not prof_s.certified:
        raise PreconditionFailed("total algebra has no certified Gorenstein profile")
    if not prof_r.certified:
        raise PreconditionFailed("base algebra has no certified Gorenstein profile")
    if any(m.algebra != ext.total for m in corpus):
        raise AlgebraMismatch("transfer corpus must live over the total algebra")
    # (row label, the S-module, the R-module)
    pairs = [(f"S-module dim {m.dim}", m, restrict(ext, m)) for m in corpus]
    ind_checked = add_generation_holds(ExtensionPair(ext), "g")
    if ind_checked:
        base = structural_modules(ext.base)
        pairs += [(f"R-module dim {x.dim} (induced)", induce(ext, x), x)
                  for x in base.simples + base.projectives + (regular_module(ext.base),)]
    rows = [{"module": label, "gpd_total": gpd(up, prof_s), "gpd_restricted": gpd(down, prof_r)}
            for label, up, down in pairs]
    for row in rows:
        row["equal"] = row["gpd_total"] == row["gpd_restricted"]
    return TransferReport(rows, all(row["equal"] for row in rows), ind_checked)


def global_gdim_transfer(ext: RingExtension, bound: int = 20):
    """Global Gorenstein dimensions on both sides of a faithful pair agree."""
    pair = ExtensionPair(ext)
    if not add_generation_holds(pair, "g"):
        raise PreconditionFailed("induction is not faithful (add-generation fails)")
    if not add_generation_holds(pair, "f"):
        raise PreconditionFailed("restriction is not faithful (add-generation fails)")
    prof_r = gorenstein_profile(ext.base, bound)
    prof_s = gorenstein_profile(ext.total, bound)
    if not (prof_r.certified and prof_s.certified):
        raise PreconditionFailed("profiles are not certified within the bound")
    return prof_r.gorenstein_dim, prof_s.gorenstein_dim, \
        prof_r.gorenstein_dim == prof_s.gorenstein_dim


class CounterexampleReport(NamedTuple):
    pair_verified: bool
    projected_is_gp: bool
    object_is_gp: bool
    unit_mono_at_object: bool
    add_generation_b_side: bool
    notes: List[str]

    @property
    def passed(self) -> bool:
        # the counterexample is certified exactly when the pair is honest
        # Frobenius yet the projection kills a non-GP object
        return (self.pair_verified and self.projected_is_gp
                and not self.object_is_gp and not self.unit_mono_at_object
                and not self.add_generation_b_side)


def counterexample_product(b: Algebra, bprime: Algebra, bad_module: Module,
                           bound: int = 20) -> CounterexampleReport:
    """Witness that non-faithful Frobenius functors need not reflect GP objects.

    X = (0, bad_module) over B x B' satisfies: Pr(X) = 0 is Gorenstein
    projective while X is not; (Pr, Inc) is still a classical Frobenius
    pair, but Pr is not faithful.
    """
    if bad_module.algebra != bprime:
        raise AlgebraMismatch("the designated module is not a module over B'")
    prof_bp = gorenstein_profile(bprime, bound)
    bad_verdict = is_gorenstein_projective(bad_module, prof_bp)
    if bad_verdict.verdict != "no":
        raise PreconditionFailed(
            f"the designated module is not certified non-GP: {bad_verdict.verdict}")
    pair, inclusion = product_pairs(b, bprime)
    product = pair.algebra_a
    field = b.field
    # X = (0, bad): the B-block acts by zero
    acts = [Mat.zeros(field, bad_module.dim, bad_module.dim) for _ in range(b.dim)]
    acts += list(bad_module.action)
    x = Module(product, acts)
    # corpus for the adjunction checks
    s_prod = structural_modules(product)
    corpus_a = list(s_prod.projectives) + [x, regular_module(product)]
    corpus_b = list(structural_modules(b).projectives) + [regular_module(b)]
    pair_ok = (triangles_hold(pair, corpus_a, corpus_b)
               and triangles_hold(inclusion, corpus_b, corpus_a))
    prof_prod = gorenstein_profile(product, bound)
    pr_x = pair.apply_f(x)
    projected_gp = is_gorenstein_projective(pr_x, gorenstein_profile(b, bound))
    object_gp = is_gorenstein_projective(x, prof_prod)
    unit_mono = pair.unit(x).is_mono()
    add_b = add_generation_holds(pair, "g")   # add Inc(P(B)) = P(B x B')?
    notes = [
        f"Pr(X) has dimension {pr_x.dim}",
        f"X verdict: {object_gp.verdict} ({object_gp.detail})",
        f"product Gorenstein dimension: {prof_prod.gorenstein_dim}",
    ]
    return CounterexampleReport(pair_ok, projected_gp.verdict == "yes",
                                object_gp.verdict == "yes", unit_mono, add_b, notes)


class TriEquivReport(NamedTuple):
    unit_rows: List[dict]
    counit_rows: List[dict]
    stable_gp_condition: bool
    singularity_condition: bool
    defect_condition: bool
    both_projective_condition: bool
    stable_hom_f_match: bool
    stable_hom_g_match: bool


def tri_equiv_conditions(pair, corpus_a: Sequence[Module], corpus_b: Sequence[Module],
                         bound: int = 20) -> TriEquivReport:
    """Evaluate the unit/counit finiteness conditions for induced equivalences.

    For each X in corpus_a the cokernel of the unit is factored out and its
    projective and Gorenstein projective dimensions recorded; dually the
    kernel of the counit for each Y in corpus_b.  The report also compares
    stable Hom dimensions across the functors in both directions, an
    object-level witness for the induced stable equivalence.
    """
    # G first: it is the side that needs _S M projective, which a pair
    # checks on first use, so a pair that is none fails as such
    if not add_generation_holds(pair, "g"):
        raise PreconditionFailed("F is not faithful on the projectives (add test)")
    if not add_generation_holds(pair, "f"):
        raise PreconditionFailed("G is not faithful on the projectives (add test)")
    prof_a = gorenstein_profile(pair.algebra_a, bound)
    prof_b = gorenstein_profile(pair.algebra_b, bound)

    def defect_row(side: str, x: Module, defect: Module, prof, kind: str, own: str) -> dict:
        """x's row: the dimensions of defect, its cokernel (kind "cok") or
        kernel ("ker"), and x's own Gorenstein projectivity verdict."""
        return {"object": f"{side} dim {x.dim}", f"{kind}_dim": defect.dim,
                f"{kind}_pd": projective_dimension(defect, bound) if defect.dim else 0,
                f"{kind}_projective": is_projective(defect),
                f"{kind}_gpd": gpd(defect, prof) if prof.certified else "unknown",
                own: is_gorenstein_projective(x, prof).verdict}

    unit_rows, counit_rows = [], []
    for x in corpus_a:
        eta = pair.unit(x)
        if not eta.is_mono():
            raise PropertyViolation("unit is not mono despite faithfulness")
        cok = quotient_module(eta.target, column_space_basis(eta.matrix))[0]
        unit_rows.append(defect_row("A", x, cok, prof_a, "cok", "x_gp"))
    for y in corpus_b:
        eps = pair.counit(y)
        if not eps.is_epi():
            raise PropertyViolation("counit is not epi despite faithfulness")
        ker = submodule(eps.source, eps.matrix.kernel_basis())[0]
        counit_rows.append(defect_row("B", y, ker, prof_b, "ker", "y_gp"))

    stable_gp = all(
        (row["x_gp"] != "yes") or
        (isinstance(row["cok_pd"], int) and row["cok_pd"] <= 1)
        for row in unit_rows
    ) and all(
        (row["y_gp"] != "yes") or row["ker_projective"]
        for row in counit_rows
    )
    singularity = all(isinstance(r["cok_pd"], int) for r in unit_rows) and \
        all(isinstance(r["ker_pd"], int) for r in counit_rows)
    defect = all(isinstance(r["cok_gpd"], int) for r in unit_rows) and \
        all(isinstance(r["ker_gpd"], int) for r in counit_rows)
    both_proj = all(r["cok_projective"] for r in unit_rows) and \
        all(r["ker_projective"] for r in counit_rows)

    f_match, g_match = (all([stable_hom_dim(u, v) == stable_hom_dim(functor(u), functor(v))
                             for u in mods for v in mods])
                        for mods, functor in ((corpus_a, pair.apply_f), (corpus_b, pair.apply_g)))
    return TriEquivReport(unit_rows, counit_rows, stable_gp,
                          singularity, defect, both_proj, f_match, g_match)


# ---------------------------------------------------------------------------
# Serialization (.ext / .bimod)
# ---------------------------------------------------------------------------


def extension_to_json(ext: RingExtension, base_ref=None, total_ref=None) -> dict:
    return {
        "base": base_ref if base_ref is not None else algebra_to_json(ext.base),
        "total": total_ref if total_ref is not None else algebra_to_json(ext.total),
        "embedding": mat_to_flat(ext.embedding),
    }


def extension_from_json(doc: dict, base_dir: Optional[Path] = None) -> RingExtension:
    with document("extension", doc):
        base = resolve_algebra_ref(doc, "base", base_dir)
        total = resolve_algebra_ref(doc, "total", base_dir)
        emb = mat_from_flat(base.field, doc["embedding"], total.dim, base.dim)
        return RingExtension(base, total, emb)


def save_extension(ext: RingExtension, path, base_ref=None, total_ref=None) -> None:
    Path(path).write_text(json.dumps(extension_to_json(ext, base_ref, total_ref), indent=1))


def load_extension(path) -> RingExtension:
    p = Path(path)
    return extension_from_json(json.loads(p.read_text()), base_dir=p.parent)


def bimodule_to_json(bm: Bimodule, left_ref=None, right_ref=None) -> dict:
    return {
        "left": left_ref if left_ref is not None else algebra_to_json(bm.left),
        "right": right_ref if right_ref is not None else algebra_to_json(bm.right),
        "dim": bm.dim,
        "leftAction": [mat_to_flat(m) for m in bm.left_action],
        "rightAction": [mat_to_flat(m) for m in bm.right_action],
    }


def bimodule_from_json(doc: dict, base_dir: Optional[Path] = None) -> Bimodule:
    with document("bimodule", doc):
        left = resolve_algebra_ref(doc, "left", base_dir)
        right = resolve_algebra_ref(doc, "right", base_dir)
        dim = json_int(doc["dim"], "dim", minimum=0)

        def mats(key):
            return [mat_from_flat(left.field, flat, dim, dim) for flat in json_list(doc[key], key)]

        return Bimodule(left, right, dim, mats("leftAction"), mats("rightAction"))


def save_bimodule(bm: Bimodule, path, left_ref=None, right_ref=None) -> None:
    Path(path).write_text(json.dumps(bimodule_to_json(bm, left_ref, right_ref), indent=1))


def load_bimodule(path) -> Bimodule:
    p = Path(path)
    return bimodule_from_json(json.loads(p.read_text()), base_dir=p.parent)
