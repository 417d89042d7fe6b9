"""Finite-dimensional left modules over structure-constant algebras.

A Module stores one action matrix per algebra basis element, and a ModHom
a matrix from source to target coordinates; a hom basis, a lift and a
resolution differential are plain matrices.  Each law is checked once,
where it is cheapest:

* Modules and homs from outside (documents, callers, bimodules)
  are checked on construction: rho(1) = id and rho(g·e_j) = rho(g)·rho(e_j)
  for every generator g of the algebra (Algebra.generators) and basis
  element e_j; a hom intertwines on the generators.  The elements where
  either law holds form a subalgebra containing 1, so this is the law on
  the whole algebra.
* Constructions that proved the law themselves build their result
  without the check (`Module(..., _skip_validation=True)`,
  `ModHom._trusted`), and each says why: `submodule`, `dual_module`,
  `dual_hom`, `zero_hom`, an isomorphism witness (a combination of a hom
  basis), the cover map x -> rho(x)·v and `regular_module`
  (associativity), the identity cover, `homology.star_module` (Hom(m, A)
  over A^op), the block-diagonal `zero_module` and `direct_sum`, and in
  `frobenius` a tensor product's ambient module, `coinduce`,
  `Bimodule.as_tensor_module` (two checked actions that commute) and,
  through `Bimodule._trusted`, the two bimodules of a ring extension
  (multiplications through a checked embedding).
  A quotient is D of a submodule of the dual, so it is built by these.
  Their inputs are checked modules, so no outside input skips a check;
  tests/test_source.py fails on a trusted construction anywhere else.
* A fact a construction proved is not proved again: a cover's epi is
  checked, and its superfluous kernel counted, where it is built, and
  factor_through asserts g·f = rhs exactly, so what is made of them (a
  resolution, a homotopy) carries no second check; tests/test_laws.py
  checks them in full, as oracles.

Modules are interned, one object per algebra object and action matrices,
so what is memoized on a module is built once per content; a module is
interned only once checked, so one that failed is never returned.

Hom out of a sum of structural projectives A·e_i, every term of a
resolution, is found by Yoneda: Hom(A·e_i, N) = e_i·N, its canonical basis
memoized on N once per i, and a sum's basis is its summands' bases side by
side; Ext needs no basis, and reads the Yoneda maps at the generators of
the next term (generator_delta).  Other Hom spaces are the kernel of the
intertwining system that `exactlin.kron_difference` builds from the
actions' nonzero entries; kernels and cokernels reduce to exact kernel
computations in `exactlin`.
An injective envelope is D of the projective cover of the dual, and a
quotient m/U is D of the annihilator of U in D(m); a cover reads the top
m/rad m in those coordinates and builds no quotient.  Finding f in
Hom(X, Y) with g·f = rhs (a lift, a homotopy) is one solve over a hom
basis, factor_through.  Right modules are handled as left modules over the
opposite algebra throughout, and the standard duality D = Hom_k(-, k)
transposes action matrices.
"""

from __future__ import annotations

import json
import random
from itertools import product as iter_product
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (Algebra, algebra_to_json, document, interned, json_int, json_list, memo,
                      resolve_algebra_ref)
from .errors import AlgebraMismatch, InputShapeError, PropertyViolation, UnsupportedAlgebra
from .exactlin import (Mat, Record, block_matrix, kron_difference, mat_from_flat, mat_to_flat,
                       pivot_columns, rref, solve, unvec, vec)


class Module:
    """A left module given by an action matrix for every algebra basis element."""

    # _summands: (i_1, ..., i_s) when the module is built as the sum of the
    # structural projectives A·e_{i_1}, ..., A·e_{i_s}, else None;
    # _key: a new module's content key, which __init__ takes to intern it
    __slots__ = ("algebra", "dim", "action", "_cache", "_summands", "_key", "__weakref__")

    def __new__(cls, algebra: Algebra, action: Sequence[Mat], _skip_validation=False):
        """The live interned module of this content, else a new one."""
        action = tuple(action)
        if len(action) != algebra.dim:
            raise InputShapeError("need one action matrix per algebra basis element")
        dim = action[0].rows
        for m in action:
            if m.rows != dim or m.cols != dim:
                raise InputShapeError("action matrices must be square of the module dimension")
        key = (id(algebra), tuple(m.data for m in action))
        self = interned(key)
        if self is None:
            self = object.__new__(cls)
            self.algebra, self.action, self.dim, self._key = algebra, action, dim, key
            self._cache = {}
            self._summands = None
        return self

    def __init__(self, algebra: Algebra, action: Sequence[Mat], _skip_validation=False):
        """Check a new module, unless its construction proved the law, then intern it."""
        key, self._key = self._key, None
        if key is not None:
            if not _skip_validation:
                self._validate()
            interned(key, self)

    def _validate(self):
        """rho(1) = id and rho(g·e_j) = rho(g)·rho(e_j) for the generators g:
        the x with rho(x·y) = rho(x)·rho(y) for all y form a subalgebra
        containing 1, so this proves every structure constant."""
        if self.rho(self.algebra.unit) != Mat.identity(self.algebra.field, self.dim):
            raise PropertyViolation("the unit does not act as the identity")
        a = self.algebra
        for i in a.generators():
            for j in range(a.dim):
                if self.action[i] * self.action[j] != self.rho(a.table[i][j]):
                    raise PropertyViolation(
                        f"structure constants violated at ({a.basis_labels[i]}, {a.basis_labels[j]})"
                    )

    def rho(self, v) -> Mat:
        """Action matrix of an algebra element (coordinate vector); action[i] for e_i."""
        return _combine(self.action, v)

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


class ModHom(Record):
    """A module homomorphism; the matrix maps source coordinates to target ones."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Module, target: Module, matrix: Mat):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        self.__post_init__()  # its own method: a layer trace counts checked homs by it

    def __post_init__(self):
        """Intertwining on the generators: the x with f·rho(x) = rho(x)·f
        form a subalgebra containing 1."""
        if self.source.algebra != self.target.algebra:
            raise AlgebraMismatch("hom between modules over different algebras")
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise InputShapeError(
                f"hom matrix must be {self.target.dim}x{self.source.dim}, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )
        for i in self.source.algebra.generators():
            if self.matrix * self.source.action[i] != self.target.action[i] * self.matrix:
                raise PropertyViolation(
                    f"intertwining fails at basis element "
                    f"{self.source.algebra.basis_labels[i]}"
                )

    @classmethod
    def _trusted(cls, source: Module, target: Module, matrix: Mat) -> "ModHom":
        """A hom whose construction proved it intertwines, built without the
        check; only the constructions the module docstring lists call it."""
        f = object.__new__(cls)
        object.__setattr__(f, "source", source)
        object.__setattr__(f, "target", target)
        object.__setattr__(f, "matrix", matrix)
        return f

    def is_mono(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def is_epi(self) -> bool:
        return self.matrix.rank() == self.target.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.matrix.is_invertible()


def zero_module(a: Algebra) -> Module:
    """The zero module, built once per algebra."""
    return memo(a, "zero_module", None,
                lambda: Module(a, [Mat.zeros(a.field, 0, 0)] * a.dim, _skip_validation=True))


def zero_hom(source: Module, target: Module) -> ModHom:
    """The zero map, not checked again: 0·rho(x) = 0 = rho(x)·0."""
    if source.algebra != target.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    return ModHom._trusted(source, target, Mat.zeros(source.algebra.field, target.dim, source.dim))


def regular_module(a: Algebra) -> Module:
    """The left regular module, built once per algebra and, its laws being the
    algebra's, not checked again: action i, e_i·-, has column j table[i][j],
    so over a.opposite(), the transposed table, it holds a's right
    multiplications, and .rho(v) multiplies by v."""

    def build():
        return Module(a, [Mat.from_cols(a.field, row) for row in a.table], _skip_validation=True)

    return memo(a, "regular_module", None, build)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def _yoneda(n: Module, emb: Mat, w: Mat) -> Mat:
    """The maps A·e -> n, x -> rho_n(x)·w_t for the columns w_t of w (in e·n),
    in the basis emb of A·e, stacked: map t is rows t·dim(n) on, and its
    column c is sum_j emb[j][c]·(action[j]·w)_t, each action[j]·w computed
    once and all combined in one product."""
    used = [j for j in range(emb.rows) if any(emb.row(j))]
    # row t·dim(n) + r, column j: entry (r, t) of action[j]·w
    prods = Mat.from_cols(emb.field, [vec(n.action[j] * w).col(0) for j in used],
                          n.dim * w.cols)
    return prods * emb.select_rows(used)


def _yoneda_basis(n: Module, i: int) -> List[Mat]:
    """The canonical basis of Hom(A·e_i, n), built once per (n, i): the
    Yoneda maps of a basis of e_i·n, by one reversed RREF, independent."""

    def build() -> List[Mat]:
        a, d = n.algebra, n.dim
        emb = _indecomposable_projectives(a)[1][i]
        maps = _yoneda(n, emb, column_space_basis(n.rho(a.idempotents[i])))
        vecs = [vec(maps.select_rows(range(t, t + d))).col(0)[::-1] for t in range(0, maps.rows, d)]
        red = rref(Mat.from_cols(a.field, vecs, emb.cols * d).transpose())
        if red.rank != len(vecs):
            raise PropertyViolation("the Yoneda maps out of a projective are dependent")
        return [unvec(a.field, red.matrix.row(r)[::-1], d, emb.cols)
                for r in reversed(range(red.rank))]

    return memo(n, ("yoneda", i), None, build)


def generator_delta(p: Module, q: Module, d: Mat, n: Module) -> Mat:
    """The matrix of phi -> phi∘d over Hom(p, n), read at q's generators,
    for the matrix d of a map q -> p between recorded sums of structural
    projectives over one algebra object; no hom basis is built.

    A map out of q is fixed by its values at the generators e_c of its
    summands A·e_c, so this has hom_delta's rank.  Its columns, dim Hom(p, n)
    of them, are y·d_j·G read row by row, for the Yoneda maps y of each
    summand A·e_j of p at the column space basis of rho_n(e_j), stacked once
    per (n, algebra object, j), d_j the rows of d at that summand, and G the
    generators' coordinates, built once per q."""
    a, nd, src = p.algebra, n.dim, q._summands or ()
    embs, gens = _indecomposable_projectives(a)[1:]
    g = memo(q, "generator_columns", None, lambda: block_matrix(
        a.field, [embs[j].cols for j in src], [1] * len(src),
        {(c, c): gens[j] for c, j in enumerate(src)}))
    dg, cols, start = d * g, [], 0
    for j in p._summands:
        ys = memo(n, ("yoneda_stack", j), a, lambda: _yoneda(
            n, embs[j], column_space_basis(n.rho(a.idempotents[j]))))
        out = ys * dg.select_rows(range(start, start + embs[j].cols))
        cols += [[x for row in out.data[r:r + nd] for x in row]
                 for r in range(0, out.rows, max(nd, 1))]
        start += embs[j].cols
    return Mat.from_cols(a.field, cols, nd * len(src))


def _hom_space_matrices(m: Module, n: Module) -> Tuple[Mat, ...]:
    """A basis of Hom(m, n) as matrices: the kernel basis of the equations
    f·rho_m(g) = rho_n(g)·f for every generator g, in the unknowns vec(f).

    Out of a sum of structural projectives over n's own algebra object it is
    found by Yoneda: the maps A·e_i -> n are x -> rho_n(x)·w for w in e_i·n,
    so dim Hom = sum rank rho_n(e_i) (asserted).  A kernel basis vector is 1
    at its free coordinate, 0 at the others and elsewhere nonzero only
    before it: with the coordinates reversed the basis is the RREF of any
    spanning set.  Different summands have disjoint vec coordinates, so
    that RREF is the union of the summands' RREFs, read back in summand
    order, and it is independent exactly when each part is: each summand's
    _yoneda_basis, padded into its columns.  Any other source solves the
    system over the generators, here only, built by kron_difference; it has
    the row space, so the kernel basis, of the system over every element."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("hom space requires modules over one algebra")
    if m.dim == 0 or n.dim == 0:
        return ()
    field = m.algebra.field
    if m._summands is not None and m.algebra is n.algebra:
        dims = [_indecomposable_projectives(m.algebra)[1][i].cols for i in m._summands]
        return tuple(block_matrix(field, [n.dim], dims, {(0, j): f})
                     for j, i in enumerate(m._summands) for f in _yoneda_basis(n, i))
    # no generators (the ground field itself): no equations, all of Hom_k(m, n)
    ker = kron_difference(field, m.dim, n.dim, [(m.action[i].transpose(), n.action[i])
                                                for i in m.algebra.generators()]).kernel_basis()
    return tuple(unvec(field, ker.col(c), n.dim, m.dim) for c in range(ker.cols))


def hom_space(m: Module, n: Module) -> Tuple[Mat, ...]:
    """A basis of Hom(m, n) as matrices from m's coordinates to n's, built
    once per (m, n): solutions of the intertwining equations, or
    combinations of Yoneda maps, which intertwine by associativity.  The
    memoized tuple itself is returned; it refers to neither module."""
    return memo(m, "hom", n, lambda: _hom_space_matrices(m, n))


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_space(m, n))


def hom_delta(mats: Sequence[Mat], d: Mat, post: bool = False) -> Mat:
    """Matrix of phi -> phi∘d, or phi -> d∘phi when post, over the hom basis
    mats; column t is the column-major vec of the image of mats[t]."""
    return Mat.from_cols(d.field, [tuple(vec(d * h if post else h * d).col(0)) for h in mats])


def _combine(mats: Sequence[Mat], coeffs) -> Mat:
    """The combination sum c_t·mats[t] of a nonempty list of matrices;
    mats[t] itself when the coefficients are the t-th unit vector."""
    terms = [(h, c) for h, c in zip(mats, coeffs) if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    return sum((h.scale(c) for h, c in terms), Mat.zeros(mats[0].field, mats[0].rows, mats[0].cols))


def factor_through(src: Module, tgt: Module, g: Mat, rhs: Mat) -> Optional[Mat]:
    """The matrix of an f in Hom(src, tgt) with g·f = rhs, or None when
    there is none.

    One solve over hom_space's basis h_t: hom_delta(basis, g,
    post=True)·c = vec(rhs) and f = sum c_t·h_t.  f is a combination of
    solutions of the intertwining system, so it intertwines, and g·f = rhs
    is asserted exactly.  The system is memoized on src for tgt under
    ("post", g.data): a homotopy asks for it again with each right side.
    """
    basis = hom_space(src, tgt)
    if not basis:
        return Mat.zeros(src.algebra.field, tgt.dim, src.dim) if rhs.is_zero() else None
    system = memo(src, ("post", g.data), tgt, lambda: hom_delta(basis, g, post=True))
    coeffs = solve(system, vec(rhs)).particular
    if coeffs is None:
        return None
    f = _combine(basis, coeffs.col(0))
    if g * f != rhs:
        raise PropertyViolation("the factorization does not compose to the right side")
    return f


def hom_coordinates(mats: Sequence[Mat], basis: Sequence[Mat], field, law: str) -> Mat:
    """The matrix whose columns are the coordinates of mats in the hom basis;
    raises PropertyViolation(law) when one of them leaves the hom space.

    One solve for all of mats: the basis is independent, so each column has
    one solution, which a canonical basis's unit rows give with no elimination."""
    if not mats:
        return Mat.zeros(field, len(basis), 0)
    rows = mats[0].rows * mats[0].cols
    span = Mat.from_cols(field, [vec(h).col(0) for h in basis], rows)
    coeffs = solve(span, Mat.from_cols(field, [vec(mat).col(0) for mat in mats], rows)).particular
    if coeffs is None:
        raise PropertyViolation(law)
    return coeffs


def hom_actions(basis: Sequence[Mat], ops: Sequence[Mat], field, law: str,
                post: bool = False) -> List[Mat]:
    """For each op, the matrix of h -> h∘op, or h -> op∘h when post, in the
    hom basis: one hom_coordinates solve, one block of columns per op."""
    k = len(basis)
    mats = [op * h if post else h * op for op in ops for h in basis]
    coeffs = hom_coordinates(mats, basis, field, law)
    return [coeffs.select_cols(range(t * k, (t + 1) * k)) for t in range(len(ops))]


# ---------------------------------------------------------------------------
# Sub/quotient/direct sum constructions
# ---------------------------------------------------------------------------


def column_space_basis(m: Mat) -> Mat:
    """Deterministic basis of the column space: the pivot columns themselves."""
    return m.select_cols(pivot_columns(m))


def submodule(m: Module, basis: Mat) -> Tuple[Module, ModHom]:
    """The submodule spanned by the columns of basis, with its inclusion.

    The columns must be independent and the span action-stable.  Neither
    result is checked again: rho(e_i)·B = B·X_i is solved for every i, and
    with B independent, B·X_iX_j = rho_i·rho_j·B = B·sum_k c_ij^k X_k gives
    the structure constants of the X_i (and X(1) = I), while the solved
    equations are the inclusion's intertwining equations.  They are one
    solve, B·X = [rho(e_0)·B | ...], with zero kernel exactly when B is
    independent, and X_i is the i-th block of X.  No columns give
    zero_module and zero_hom, with no solve.  In a recorded sum of
    structural projectives, which lives as long as its algebra, the
    submodule is memoized on m under ("submodule", basis.data): its actions
    are a function of m's and of the basis.
    """
    k, n = basis.cols, m.algebra.dim
    if basis.rows != m.dim:
        raise InputShapeError("submodule basis lives in the wrong space")
    if not k:
        return zero_module(m.algebra), zero_hom(zero_module(m.algebra), m)

    def actions() -> List[Mat]:
        images = block_matrix(m.algebra.field, [m.dim], [k] * n,
                              {(0, i): act * basis for i, act in enumerate(m.action)})
        res = solve(basis, images)
        if res.kernel.cols:
            raise InputShapeError("submodule basis columns are dependent")
        if res.particular is None:
            raise PropertyViolation("span is not action-stable")
        return [res.particular.select_cols(range(i * k, (i + 1) * k)) for i in range(n)]

    sub = (Module(m.algebra, actions(), _skip_validation=True) if m._summands is None else
           memo(m, ("submodule", basis.data), None,
                lambda: Module(m.algebra, actions(), _skip_validation=True)))
    return sub, ModHom._trusted(sub, m, basis)


def quotient_module(m: Module, basis: Mat) -> Tuple[Module, ModHom]:
    """The quotient of m by the stable span of basis, with its projection:
    D of the annihilator of the span, a submodule of D(m).

    The annihilator is the kernel of basis^T, of dimension m.dim - rank, and
    it is action-stable exactly when the span is; the projection is D of its
    inclusion, so neither result is checked again.  Its kernel vectors are 1
    at one coordinate off the pivots of the span's RREF and 0 at the others,
    so the quotient is written in those coordinates."""
    if basis.rows != m.dim:
        raise InputShapeError("quotient basis lives in the wrong space")
    ann = basis.transpose().kernel_basis()
    if ann.cols != m.dim - basis.cols:
        raise InputShapeError("quotient basis is not independent")
    proj = dual_hom(submodule(dual_module(m), ann)[1])
    return proj.target, proj


def direct_sum(mods: Sequence[Module]) -> Module:
    """Block-diagonal direct sum; summand b holds the coordinates after
    those of the summands before it.  A sum of one module is that module,
    with no block built: its one block is its own action, so interning the
    sum would return it, and its record cannot change.  A sum of recorded
    sums over one algebra object is built once per summand tuple, memoized
    on that algebra under ("sum", summands), so it lives as long as the
    algebra: the tuple names the blocks, so it determines the sum."""
    if not mods:
        raise InputShapeError("direct sum of nothing; use zero_module")
    if len(mods) == 1:
        return mods[0]
    a, dims = mods[0].algebra, [m.dim for m in mods]
    acts = (block_matrix(a.field, dims, dims, {(b, b): m.action[i] for b, m in enumerate(mods)})
            for i in range(a.dim))  # built only by the Module that takes them
    if not all(m._summands is not None and m.algebra is a for m in mods):
        return Module(a, acts, _skip_validation=True)
    summands = sum((m._summands for m in mods), ())
    out = memo(a, ("sum", summands), None, lambda: Module(a, acts, _skip_validation=True))
    if out._summands is None:
        out._summands = summands
    return out


class ShortExactSequence(Record):
    """0 -> left -> middle -> right -> 0, validated exactly on construction."""

    __slots__ = ("left", "middle", "right", "incl", "proj")

    def __init__(self, left: Module, middle: Module, right: Module, incl: ModHom, proj: ModHom):
        if not (incl.is_mono() and proj.is_epi() and (proj.matrix * incl.matrix).is_zero()
                and left.dim + right.dim == middle.dim):
            raise PropertyViolation("sequence is not short exact")
        for name, value in zip(self.__slots__, (left, middle, right, incl, proj)):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual_module(m: Module) -> Module:
    """D(m) = Hom_k(m, k) as a module over the opposite algebra, built once
    per module; D(D(m)) is the interned module of m's content.  The
    transposes of a valid action are a valid action of the opposite algebra,
    so D(m) is not checked again."""

    def build() -> Module:
        return Module(m.algebra.opposite(), [a.transpose() for a in m.action],
                      _skip_validation=True)

    return memo(m, "dual", None, build)


def dual_hom(f: ModHom) -> ModHom:
    """D(f): the transpose of an intertwiner intertwines the transposed actions."""
    return ModHom._trusted(dual_module(f.target), dual_module(f.source), f.matrix.transpose())


# ---------------------------------------------------------------------------
# Simples, projectives, injectives
# ---------------------------------------------------------------------------


def _radical_image(m: Module, v: Optional[Mat] = None) -> Mat:
    """The images rho(r)·v for the columns r of the radical's basis, side by
    side: rad(A)·V is their column space.  v is a basis of a subspace V of
    m, or None for all of m, which takes rho(r) itself.  Each image is
    formed once and the row of blocks built at once."""
    field, rad = m.algebra.field, m.algebra.radical_basis()
    imgs = [m.rho(rad.col(c)) for c in range(rad.cols)]
    if v is not None:
        imgs = [img * v for img in imgs]
    widths = [m.dim if v is None else v.cols] * len(imgs)
    return block_matrix(field, [m.dim], widths, {(0, c): img for c, img in enumerate(imgs)})


def radical_submodule_basis(m: Module) -> Mat:
    """Basis of rad(A)·m as columns."""
    return column_space_basis(_radical_image(m))


def socle_basis(m: Module) -> Mat:
    """Basis of the socle, the annihilator of the radical action: the
    common kernel of the rho(r), whose transposes are the radical's action
    on D(m) (rad(A^op) is rad(A))."""
    return _radical_image(dual_module(m)).transpose().kernel_basis()


def top_of(m: Module) -> Tuple[Module, ModHom]:
    return quotient_module(m, radical_submodule_basis(m))


class StructuralModules(NamedTuple):
    simples: tuple
    projectives: tuple
    injectives: tuple
    # indices of the idempotents grouped by isomorphism class of their tops;
    # several idempotents share a class on non-basic algebras (matrix units)
    simple_classes: tuple
    # embeddings[i]: the basis of projectives[i] = A·e_i inside the algebra,
    # as columns of algebra elements
    embeddings: tuple


def _indecomposable_projectives(a: Algebra) -> Tuple[tuple, tuple, tuple]:
    """The modules A·e for the primitive idempotents e, the basis of each
    inside the algebra as columns of algebra elements, and the coordinates
    of e in that basis, built once per algebra.  Equal ones, as A·E11 and
    A·E22 over m2f2x2, are one object and keep the first record: Hom out of
    a module depends on its content."""

    def build() -> Tuple[tuple, tuple, tuple]:
        idems = a.idempotents
        if idems is None:
            raise UnsupportedAlgebra("structural modules need primitive idempotents")
        reg = regular_module(a)
        embeddings = tuple(column_space_basis(regular_module(a.opposite()).rho(e)) for e in idems)
        projectives = tuple(submodule(reg, emb)[0] for emb in embeddings)
        for i, p in enumerate(projectives):
            if p._summands is None:
                p._summands = (i,)
        return projectives, embeddings, tuple(
            solve(emb, Mat.from_cols(a.field, [e])).particular for emb, e in zip(embeddings, idems))

    return memo(a, "indecomposable_projectives", None, build)


def structural_modules(a: Algebra) -> StructuralModules:
    """Simple, projective-indecomposable and injective-indecomposable modules.

    Projectives are A·e for the primitive idempotents e, simples their
    tops, injectives the duals of the indecomposable projectives over the
    opposite algebra: the same objects, since D is a memoized involution,
    so injectives[i] is dual_module(structural_modules(A^op).projectives[i]).
    Simples must be split (End = k); otherwise UnsupportedAlgebra is raised.

    Both are read off ranks, with no Hom space.  S_i = top(A·e_i), and a map
    from A·e_i into a module S that the radical kills factors through the
    top, so Hom(S_i, S) = Hom(A·e_i, S) = e_i·S, of dimension rank rho_S(e_i).
    So S_i is split (and simple) exactly when rank rho_{S_i}(e_i) = 1, and
    then S_j ≅ S_i exactly when rank rho_{S_j}(e_i) > 0: a nonzero map
    between simples is an isomorphism.
    """

    def build():
        projectives, embeddings = _indecomposable_projectives(a)[:2]
        simples = [top_of(pe)[0] for pe in projectives]
        idems = a.idempotents
        if any(s.rho(e).rank() != 1 for s, e in zip(simples, idems)):
            raise UnsupportedAlgebra("non-split simple module encountered")
        classes: List[List[int]] = []
        for j, s in enumerate(simples):
            for cls in classes:
                if s.rho(idems[cls[0]]).rank():
                    cls.append(j)
                    break
            else:
                classes.append([j])
        injectives = tuple(dual_module(p) for p in _indecomposable_projectives(a.opposite())[0])
        return StructuralModules(tuple(simples), projectives, injectives,
                                 tuple(tuple(c) for c in classes), embeddings)

    return memo(a, "structural_modules", None, build)


def cover_envelope(m: Module) -> Tuple[Module, ModHom]:
    """The projective cover P -> m, computed once per module: an epi whose
    kernel lies in rad(P), both checked here.  A recorded sum of projectives
    (zero too) is its own cover: the identity, an epi with zero kernel.

    P has a summand A·e_i with the map x -> rho_m(x)·v for each lift v of a
    basis vector of e_i·top(m), a hom by associativity, built trusted.  Given
    the epi, the kernel K lies in rad(P) exactly when P/rad P -> m/rad m,
    onto with kernel (K + rad P)/rad P, is injective: when dims agree.

    No top module is built: with U the annihilator of rad m in D(m), the
    kernel of R^T for R = radical_submodule_basis(m), the projection onto
    the top is U^T, its dimension U.cols, and e acts on it by X^T where
    U·X = rho_m(e)^T·U.  These are top_of's: quotient_module builds D of
    the submodule U of D(m), whose action X solves that equation uniquely
    (U is independent), so its projection, D of the inclusion, is U^T and
    its action X^T.  An inconsistent solve means rad m is not stable.

    The injective envelope of m is D of the cover of D(m) over the
    opposite algebra, dual_hom(cover_envelope(dual_module(m))[1]): D turns
    the epi into a mono and the superfluous kernel into an essential image.
    """

    def build() -> Tuple[Module, ModHom]:
        a = m.algebra
        if m.dim == 0 or m._summands is not None:
            return m, ModHom._trusted(m, m, Mat.identity(a.field, m.dim))
        structural = structural_modules(a)
        idems = a.idempotents
        ann = radical_submodule_basis(m).transpose().kernel_basis()
        proj = ann.transpose()
        summands, cols = [], []
        # one idempotent per isomorphism class of simples, so multiplicities
        # are not double-counted when distinct idempotents share their top;
        # a class's generators lift a basis of e·top(m) into e·m
        for rep in (cls[0] for cls in structural.simple_classes):
            e_m, gens = m.rho(idems[rep]), []
            x = solve(ann, e_m.transpose() * ann).particular  # e acts on the top by X^T
            if x is None:
                raise PropertyViolation("the radical of the module is not action-stable")
            img = column_space_basis(x.transpose())
            for c in range(img.cols):
                t_vec = Mat.col_vector(a.field, img.col(c))
                v = e_m * solve(proj, t_vec).particular
                if proj * v != t_vec:
                    raise PropertyViolation("projective cover lift left the idempotent slice")
                gens.append(v.col(0))
            summands += [rep] * img.cols
            ys = _yoneda(m, structural.embeddings[rep], Mat.from_cols(a.field, gens, m.dim))
            cols += [col for t in range(0, ys.rows, m.dim) for col in zip(*ys.data[t:t + m.dim])]
        if not summands:
            raise PropertyViolation("nonzero module with zero top")
        big = direct_sum([structural.projectives[i] for i in summands])
        cover_map = ModHom._trusted(big, m, Mat.from_cols(a.field, cols))
        if not cover_map.is_epi():
            raise PropertyViolation("projective cover map is not epi")
        if sum(structural.simples[i].dim for i in summands) != ann.cols:
            raise PropertyViolation("projective cover kernel is not superfluous")
        return big, cover_map

    return memo(m, "cover", None, build)


def stable_hom_dim(m: Module, n: Module) -> int:
    """dim Hom(m, n) minus the dimension of maps factoring through a projective.

    Every map factoring through some projective factors through the
    projective cover of n, so the factoring subspace is the image of
    composition with the cover map.
    """
    homs = hom_space(m, n)
    if not homs:
        return 0
    p_n, cov = cover_envelope(n)
    return len(homs) - len(pivot_columns(hom_delta(hom_space(m, p_n), cov.matrix, post=True)))


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


class IsoVerdict(NamedTuple):
    verdict: str                    # "yes" | "no" | "inconclusive"
    witness: Optional[ModHom] = None
    obstruction: Optional[str] = None

    def __bool__(self):
        return self.verdict == "yes"


MAX_RANDOM_TRIALS = 64
EXHAUSTION_LIMIT = 1 << 20


def is_isomorphic(m: Module, n: Module, seed: int = 0) -> IsoVerdict:
    """Three-valued isomorphism test with verified certificates.

    "yes" carries an invertible intertwiner.  "no" carries a certified
    obstruction: a dimension mismatch, Hom(m, n) = 0, a Hom/End dimension
    mismatch, a radical-series mismatch, or exhaustion of the hom space
    over a small finite field.  The two cheap tests come first; then
    MAX_RANDOM_TRIALS seeded combinations of the hom basis are tried, and
    only when none is invertible are End(m), End(n) and the radical series
    computed, so a "yes" pays for its certificate only.  When randomized
    search fails and exhaustion is infeasible the verdict is "inconclusive".
    """
    return _isomorphism(m, n, seed, hom_space)


def _isomorphism(m: Module, n: Module, seed: int, homs_of) -> IsoVerdict:
    """is_isomorphic with the hom bases, as matrices, from homs_of(x, y),
    which must return a basis of Hom(x, y): a witness is a combination of it,
    built unchecked.  Solved afresh, they leave no memo for a kept witness
    to pin.

    An invertible intertwiner is an isomorphism, so no obstruction can hold
    where a trial succeeds, and the trials read nothing the obstructions
    compute: the order changes no verdict, obstruction or witness."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("isomorphism test requires one algebra")
    if m.dim != n.dim:
        return IsoVerdict("no", obstruction=f"dimensions differ: {m.dim} vs {n.dim}")
    if m.dim == 0:
        return IsoVerdict("yes", witness=zero_hom(m, n))

    homs = homs_of(m, n)
    if not homs:
        return IsoVerdict("no", obstruction="Hom(m, n) = 0")
    rng, p = random.Random(seed), m.algebra.field.characteristic
    trials = (random_coefficients(rng, p, len(homs)) for _ in range(MAX_RANDOM_TRIALS))
    found = _first_invertible(m, n, homs, trials)
    if found is not None:
        return found

    d_end_m, d_end_n, d_hom = len(homs_of(m, m)), len(homs_of(n, n)), len(homs)
    if not (d_end_m == d_end_n == d_hom):
        return IsoVerdict(
            "no",
            obstruction=f"hom dimensions differ: End(m)={d_end_m}, End(n)={d_end_n}, Hom={d_hom}",
        )
    rm = _radical_series_dims(m)
    rn = _radical_series_dims(n)
    if rm != rn:
        return IsoVerdict("no", obstruction=f"radical series differ: {rm} vs {rn}")
    if p and p ** len(homs) <= EXHAUSTION_LIMIT:
        return (_first_invertible(m, n, homs, iter_product(range(p), repeat=len(homs)))
                or IsoVerdict("no", obstruction="exhausted the hom space: no invertible element"))
    return IsoVerdict("inconclusive")


def random_coefficients(rng: random.Random, p: int, count: int) -> list:
    """count seeded coefficients: uniform in F_p, or integers in [-3, 3]
    when the characteristic p is 0."""
    return [rng.randrange(p) if p else rng.randint(-3, 3) for _ in range(count)]


def _first_invertible(m: Module, n: Module, homs: Sequence[Mat], trials) -> Optional[IsoVerdict]:
    """The "yes" of the first combination of homs, by the coefficient lists
    of trials, that is invertible; None when there is none.  homs is a basis
    of Hom(m, n), so a combination intertwines and is not checked again;
    its invertibility is the certificate, tested here."""
    for coeffs in trials:
        cand = _combine(homs, coeffs)
        if cand.is_invertible():
            return IsoVerdict("yes", witness=ModHom._trusted(m, n, cand))
    return None


def _radical_series_dims(m: Module) -> tuple:
    """dim rad^k(m) for k = 0, 1, ... while nonzero, read in m's own
    coordinates: rad^(k+1)(m) = rad(A)·rad^k(m) is the column space of the
    radical's images of a basis of rad^k(m), so no submodule is built.  A
    nonzero module's radical is proper (Nakayama), else a violation."""
    dims, basis = [m.dim], None
    while dims[-1]:
        basis = column_space_basis(_radical_image(m, basis))
        if basis.cols == dims[-1]:
            raise PropertyViolation("radical series does not descend")
        if basis.cols == 0:
            break
        dims.append(basis.cols)
    return tuple(dims)


# ---------------------------------------------------------------------------
# Serialization (.mod)
# ---------------------------------------------------------------------------


def component_to_json(m: Module) -> dict:
    """The dimension and flat action matrices of m: a .mod document without
    its algebra, as the components of a complex are."""
    return {"dim": m.dim, "action": [mat_to_flat(mat) for mat in m.action]}


def module_to_json(m: Module, algebra_ref: Optional[str] = None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(m.algebra),
        **component_to_json(m),
    }


def module_from_json(doc: dict, base_dir: Optional[Path] = None,
                     algebra: Optional[Algebra] = None) -> Module:
    """Read a .mod document, or a component document when the algebra is given."""
    with document("module", doc):
        if algebra is None:
            algebra = resolve_algebra_ref(doc, "algebra", base_dir)
        dim = json_int(doc["dim"], "dim", minimum=0)
        return Module(algebra, [mat_from_flat(algebra.field, flat, dim, dim)
                                for flat in json_list(doc["action"], "action")])


def save_module(m: Module, path, algebra_ref: Optional[str] = None) -> None:
    Path(path).write_text(json.dumps(module_to_json(m, algebra_ref), indent=1))


def load_module(path, algebra: Optional[Algebra] = None) -> Module:
    p = Path(path)
    return module_from_json(json.loads(p.read_text()), base_dir=p.parent, algebra=algebra)
