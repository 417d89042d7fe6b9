"""Each law is checked once: generator checks and trusted constructions
against the full-basis checks they replaced, and constructions proved by
their own steps against the second proofs they dropped.

The dropped checks live on here as oracles: associativity on every triple
of basis elements, multiplicativity of an embedding on every pair, the
generic radical of every algebra a constructor gives a closed form,
structure constants on every pair of basis elements, intertwining and
commuting on every basis element, the intertwining system stacked over
every basis element, the exactness of every resolution, the identities of
every homotopy and contraction, the short exact sequences of a
factorization, the socle of an envelope, the intertwining system out of a
projective (now solved by Yoneda), the intertwining and superfluous
kernel of a cover (the identity, for a recorded sum of projectives), the
cover built through the top module (now read through the annihilator of
the radical), the whole-sum Yoneda route out of a sum of projectives (now
assembled from memoized summand blocks), the intertwining of a zero map,
the block-diagonal maps of a totalization row, the laws of opposites,
tensor algebras and the tensor modules of bimodules (built unchecked from
checked parts), and the radical series walked through submodules (now
read in the module's coordinates), and the multiplication matrices built
product by product (now read off the structure table as the regular
modules of an algebra and of its opposite).
"""

import random
from itertools import product as iter_product

import pytest

from test_kupisch import NAKAYAMA, nakayama, uniserial

from gorhom import algebra as algebra_mod
from gorhom import frobenius, homology, modrep, suite
from gorhom.algebra import (Algebra, algebra_from_json, algebra_to_json, load_algebra,
                            tensor_algebra)
from gorhom.corpus import (
    ALGEBRA_NAMES,
    EXTENSION_NAMES,
    GORENSTEIN_NAMES,
    complex_corpus,
    corpus_algebra,
    corpus_bimodule,
    corpus_extension,
    module_corpus,
)
from gorhom.dgcplx import is_contractible
from gorhom.errors import InputShapeError, PropertyViolation
from gorhom.exactlin import Mat, kron, rref, solve, unvec, vec
from gorhom.frobenius import (
    Bimodule,
    RingExtension,
    coinduce,
    extension_bimodule,
    hom_to_regular,
    is_frobenius_bimodule,
    restriction_bimodule,
)
from gorhom.homology import (
    ext_dim,
    ext_dim_injective,
    gorenstein_profile,
    homology_dims,
    resolve,
    resolve_injective_sum,
    star_module,
    syzygy,
    totalize_quasi_bicomplex,
)
from gorhom.modrep import (
    ModHom,
    Module,
    ShortExactSequence,
    column_space_basis,
    cover_envelope,
    direct_sum,
    dual_hom,
    dual_module,
    hom_actions,
    hom_delta,
    hom_space,
    is_isomorphic,
    quotient_module,
    radical_submodule_basis,
    regular_module,
    socle_basis,
    structural_modules,
    submodule,
    top_of,
    zero_hom,
    zero_module,
)


def _product(field, table, v, w) -> tuple:
    """v·w by the structure constants table[i][j] = e_i·e_j."""
    out = [field.zero()] * len(v)
    for i, x in enumerate(v):
        for j, y in enumerate(w):
            if x != 0 and y != 0:
                xy = field.mul(x, y)
                out = [field.add(o, field.mul(xy, c)) for o, c in zip(out, table[i][j])]
    return tuple(out)


def full_basis_algebra_law(field, table, unit) -> bool:
    """1·e_i = e_i = e_i·1 for every basis element and (e_i·e_j)·e_k =
    e_i·(e_j·e_k) for every triple."""
    n = len(unit)
    basis = [tuple(field.one() if k == i else field.zero() for k in range(n)) for i in range(n)]
    if any(_product(field, table, unit, e) != e or _product(field, table, e, unit) != e
           for e in basis):
        return False
    return all(_product(field, table, table[i][j], basis[k])
               == _product(field, table, basis[i], table[j][k])
               for i in range(n) for j in range(n) for k in range(n))


def full_basis_multiplicative(base, total, embedding) -> bool:
    """An injective map sending 1 to 1 and e_i·e_j to phi(e_i)·phi(e_j) for
    every pair of basis elements."""

    def phi(v):
        return tuple((embedding * Mat.col_vector(base.field, v)).col(0))

    return (embedding.rank() == base.dim
            and phi(base.unit) == total.unit
            and all(total.mul_vec(phi(base.basis_vec(i)), phi(base.basis_vec(j)))
                    == phi(base.table[i][j])
                    for i in range(base.dim) for j in range(base.dim)))


def left_mult_oracle(a, v) -> Mat:
    """The matrix of x -> v·x (column j is v·e_j), product by product."""
    return Mat.from_cols(a.field, [a.mul_vec(v, a.basis_vec(j)) for j in range(a.dim)])


def right_mult_oracle(a, v) -> Mat:
    """The matrix of x -> x·v (column j is e_j·v), product by product."""
    return Mat.from_cols(a.field, [a.mul_vec(a.basis_vec(j), v) for j in range(a.dim)])


def same_column_space(a: Mat, b: Mat) -> bool:
    """The columns of a and of b span the same subspace."""
    ra = rref(a.transpose()).rank if a.cols else 0
    rb = rref(b.transpose()).rank if b.cols else 0
    if ra != rb:
        return False
    joint = rref(a.hstack(b).transpose()).rank
    return joint == ra


def _combination(a, mats, coeffs, rows, cols):
    out = Mat.zeros(a.field, rows, cols)
    for k, c in enumerate(coeffs):
        if c != 0:
            out = out + mats[k].scale(c)
    return out


def full_basis_module_law(a, action) -> bool:
    """rho(1) = id and rho(e_i)·rho(e_j) = sum_k c_ij^k rho(e_k) for every
    pair of basis elements."""
    dim = action[0].rows
    if _combination(a, action, a.unit, dim, dim) != Mat.identity(a.field, dim):
        return False
    return all(action[i] * action[j] == _combination(a, action, a.table[i][j], dim, dim)
               for i in range(a.dim) for j in range(a.dim))


def full_basis_intertwines(m, n, mat) -> bool:
    return all(mat * m.action[i] == n.action[i] * mat for i in range(m.algebra.dim))


def full_basis_hom_matrices(m, n, elements=None) -> list:
    """The kernel of the intertwining system stacked over every basis
    element, or over the basis elements given (the generators: the system
    Hom out of a projective was solved by before Yoneda)."""
    field = m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return []
    eye_m, eye_n = Mat.identity(field, m.dim), Mat.identity(field, n.dim)
    system = Mat.zeros(field, 0, m.dim * n.dim)
    for i in range(m.algebra.dim) if elements is None else elements:
        system = system.vstack(kron(m.action[i].transpose(), eye_n) - kron(eye_m, n.action[i]))
    ker = system.kernel_basis()
    return [unvec(field, ker.col(c), n.dim, m.dim) for c in range(ker.cols)]


def full_basis_commute(left_action, right_action) -> bool:
    return all(lam * rho == rho * lam for lam in left_action for rho in right_action)


def _corrupted(mat: Mat, r: int, c: int) -> Mat:
    """mat with 1 added to entry (r, c)."""
    one = mat.field.one()
    return Mat._from_canonical(mat.field, tuple(
        tuple(mat.field.add(x, one) if (i, j) == (r, c) else x for j, x in enumerate(row))
        for i, row in enumerate(mat.data)), mat.cols)


def _raises(build) -> bool:
    try:
        build()
    except PropertyViolation:
        return True
    return False


ALGEBRAS = [(name, op) for name in GORENSTEIN_NAMES for op in (False, True)]


def _algebra(name, op):
    a = corpus_algebra(name)
    return a.opposite() if op else a


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name, count", [
    ("a2t2", 4), ("a3", 4), ("m2f2x2", 4), ("nak2", 3), ("f2x3", 1), ("f3c3", 1), ("f2", 0)])
def test_greedy_generators_pick_few_basis_elements(name, count):
    assert len(corpus_algebra(name).generators()) == count


def _independent(a, vectors) -> list:
    """A maximal independent subset of vectors, earlier ones first."""
    keep = []
    for v in vectors:
        if Mat.from_cols(a.field, keep + [v]).rank() == len(keep) + 1:
            keep.append(v)
    return keep


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_the_generators_generate(name, op):
    # words in the generators, one letter longer each round, span the algebra
    a = _algebra(name, op)
    words = [a.unit]
    for _ in range(a.dim):
        words = _independent(a, words + [a.mul_vec(a.basis_vec(g), v)
                                         for g in a.generators() for v in words])
    assert len(words) == a.dim


def test_generators_are_found_once_per_algebra(monkeypatch, tmp_path, in_new_basis):
    # associativity is checked on them at load, and every later law reuses
    # them: the second module, of new content, is checked on them too
    from gorhom.algebra import save_algebra

    save_algebra(corpus_algebra("a2t2"), tmp_path / "a2t2.alg")
    calls = []
    greedy = algebra_mod._greedy_generators
    monkeypatch.setattr(algebra_mod, "_greedy_generators",
                        lambda a: calls.append(a) or greedy(a))
    a = load_algebra(tmp_path / "a2t2.alg")
    assert calls == [a]
    reg = Module(a, [left_mult_oracle(a, a.basis_vec(i)) for i in range(a.dim)])
    in_new_basis(reg)
    assert calls == [a]


# --- checks on generators equal the full-basis checks -------------------------


SMALL_ALGEBRAS = [(name, op) for name in ALGEBRA_NAMES for op in (False, True)
                  if corpus_algebra(name).dim <= 6]


@pytest.mark.parametrize("name, op", SMALL_ALGEBRAS)
def test_single_entry_corruptions_of_tables_get_the_full_basis_verdict(name, op):
    a = _algebra(name, op)
    field, caught = a.field, 0
    assert full_basis_algebra_law(field, a.table, a.unit)
    for i, j, k in iter_product(range(a.dim), repeat=3):
        table = [list(row) for row in a.table]
        cell = list(table[i][j])
        cell[k] = field.add(cell[k], field.one())
        table[i][j] = tuple(cell)
        broken = _raises(lambda: Algebra(field, a.basis_labels, table, a.unit))
        assert broken == (not full_basis_algebra_law(field, table, a.unit)), (i, j, k)
        caught += broken
    assert caught


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_single_entry_corruptions_of_embeddings_get_the_full_basis_verdict(name):
    ext = corpus_extension(name)
    assert full_basis_multiplicative(ext.base, ext.total, ext.embedding)
    verdicts = set()
    for r, c in iter_product(range(ext.total.dim), range(ext.base.dim)):
        mat = _corrupted(ext.embedding, r, c)
        broken = _raises(lambda: RingExtension(ext.base, ext.total, mat))
        assert broken == (not full_basis_multiplicative(ext.base, ext.total, mat)), (r, c)
        verdicts.add(broken)
    assert True in verdicts


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_generator_hom_bases_equal_the_full_basis_kernel(name, op):
    mods = module_corpus(_algebra(name, op), minimum=0)
    for m, n in iter_product(mods, mods):
        assert list(hom_space(m, n)) == full_basis_hom_matrices(m, n)


@pytest.mark.parametrize("name", GORENSTEIN_NAMES)
def test_hom_systems_in_new_bases_equal_the_full_basis_kernel(name, in_new_basis):
    # a corpus module of dimension > 1 in a seeded new basis has new content
    # and no record of projective summands, so Hom out of it solves the
    # system that kron_difference builds; a 1-dimensional module has no
    # other basis and stays itself (Hom out of a recorded one is found by
    # Yoneda), as every module over a field does
    a = corpus_algebra(name)
    mods = [in_new_basis(m, seed)[0] if m.dim > 1 else m
            for seed, m in enumerate(module_corpus(a, minimum=0))]
    assert any(m._summands is None for m in mods) == (a.dim > 1)
    for m, n in iter_product(mods, mods):
        assert list(modrep._hom_space_matrices(m, n)) == full_basis_hom_matrices(m, n), (m, n)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_single_entry_corruptions_get_the_full_basis_verdict(name, op):
    a = _algebra(name, op)
    caught = 0
    # modules up to dimension 4: the regular modules of the larger algebras
    # would take seconds
    for m in (m for m in module_corpus(a, minimum=0) if m.dim <= 4):
        for i, r, c in iter_product(range(a.dim), range(m.dim), range(m.dim)):
            acts = list(m.action)
            acts[i] = _corrupted(acts[i], r, c)
            broken = _raises(lambda: Module(a, acts))
            assert broken == (not full_basis_module_law(a, acts)), (m, i, r, c)
            caught += broken
    assert caught


@pytest.mark.parametrize("name", ["a2", "nak2", "a2t2", "m2f2x2", "prod_f2_a2"])
def test_single_entry_corruptions_of_homs_get_the_full_basis_verdict(name):
    a = corpus_algebra(name)
    mods = module_corpus(a, minimum=0)
    for m, n in iter_product(mods, mods):
        for h in hom_space(m, n)[:1]:
            for r, c in iter_product(range(n.dim), range(m.dim)):
                mat = _corrupted(h, r, c)
                assert _raises(lambda: ModHom(m, n, mat)) == (
                    not full_basis_intertwines(m, n, mat)), (m, n, r, c)


BIMODULES = ["morita_col"] + [f"{kind} {name}" for name in EXTENSION_NAMES
                              for kind in ("extension", "restriction")]


def _bimodule(name):
    if name == "morita_col":
        return corpus_bimodule(name)
    kind, ext = name.split()
    build = extension_bimodule if kind == "extension" else restriction_bimodule
    return build(corpus_extension(ext))


@pytest.mark.parametrize("name", BIMODULES)
def test_single_entry_corruptions_of_bimodules_get_the_full_basis_verdict(name):
    bim = _bimodule(name)
    left, right = list(bim.left_action), list(bim.right_action)
    assert full_basis_commute(left, right)
    # every action matrix, corrupted in its first column (all entries of
    # all of them take seconds)
    for side, acts in (("left", left), ("right", right)):
        for i, r in iter_product(range(len(acts)), range(bim.dim)):
            bad = list(acts)
            bad[i] = _corrupted(bad[i], r, 0)
            lam, rho = (bad, right) if side == "left" else (left, bad)
            expected = not (full_basis_module_law(bim.left, lam)
                            and full_basis_module_law(bim.right.opposite(), rho)
                            and full_basis_commute(lam, rho))
            assert _raises(lambda: Bimodule(bim.left, bim.right, bim.dim, lam, rho)) == \
                expected, (side, i, r)


# --- closed-form radicals -------------------------------------------------------


def test_every_closed_form_radical_spans_the_generic_radical():
    # every corpus algebra and its opposite, the tensor algebra S (x) R^op of
    # every bimodule above, and the Kupisch algebras
    algebras = [_algebra(name, op) for name in ALGEBRA_NAMES for op in (False, True)]
    algebras += [tensor_algebra(b.left, b.right.opposite()) for b in map(_bimodule, BIMODULES)]
    algebras += [nakayama(name)[0] for name in NAKAYAMA]
    closed = [a for a in algebras if a._closed_radical is not None]
    # the group algebras f2c2, f3c3 and f7s3 are the only ones a constructor
    # gives no closed form; an opposite's asks its original, so their
    # opposites take the radicals computed for them, checked here too
    assert [a.provenance for a in algebras if a._closed_radical is None] == [
        {"kind": "group_algebra", "order": n} for n in (2, 3, 6)]
    for a in closed:
        form = a._closed_radical() if callable(a._closed_radical) else a._closed_radical
        assert a.radical_basis() is form
        assert same_column_space(form, algebra_mod._radical_generic(a)), a


# --- algebras and modules built from checked ones -------------------------------


def full_basis_idempotent_law(a) -> bool:
    """The idempotents e satisfy e·e = e, are pairwise orthogonal and sum
    to the unit."""
    idems, field = a.idempotents, a.field
    zero = tuple(field.zero() for _ in a.unit)
    total = zero
    for e in idems:
        total = tuple(field.add(x, y) for x, y in zip(total, e))
    return total == a.unit and all(
        _product(field, a.table, e, f) == (e if s == t else zero)
        for s, e in enumerate(idems) for t, f in enumerate(idems))


TRUSTED_ALGEBRAS = ([f"opposite {name}" for name in ALGEBRA_NAMES]
                    + [f"{kind} {name}" for name in EXTENSION_NAMES + ["morita_col"]
                       for kind in ("tensor", "reversed-tensor")]
                    + [f"corpus {name}" for name in ("f2x2", "f2x3", "a2t2", "m2f2x2")])


def _trusted_algebra(name):
    """An opposite, a corpus algebra built by truncated_extension or
    matrix_algebra, or S (x) R^op of the bimodule _S M_R (an extension's
    _S S_R, or morita_col), or R (x) S^op, over which certification compares
    the two duals of M."""
    kind, base = name.split()
    if kind == "opposite":
        return corpus_algebra(base).opposite()
    if kind == "corpus":
        return corpus_algebra(base)
    bim = _bimodule(base if base == "morita_col" else f"extension {base}")
    left, right = (bim.right, bim.left) if kind == "reversed-tensor" else (bim.left, bim.right)
    return tensor_algebra(left, right.opposite())


@pytest.mark.parametrize("name", TRUSTED_ALGEBRAS)
def test_algebras_built_unchecked_pass_the_full_basis_law(name):
    # the opposite and the tensor product (behind truncated_extension and
    # matrix_algebra) inherit the laws of checked algebras, so skip the check
    a = _trusted_algebra(name)
    assert full_basis_algebra_law(a.field, a.table, a.unit), a
    assert a.idempotents is None or full_basis_idempotent_law(a), a


@pytest.mark.parametrize("name", list(dict.fromkeys(
    TRUSTED_ALGEBRAS + [f"corpus {name}" for name in ALGEBRA_NAMES])))
def test_the_regular_modules_of_a_and_its_opposite_are_its_multiplications(name):
    # action i of each is read off the table, and star_module of the left
    # regular module returns the right one as it is, with no solve
    a = _trusted_algebra(name)
    basis = [a.basis_vec(i) for i in range(a.dim)]
    left, right = regular_module(a), regular_module(a.opposite())
    assert left.action == tuple(left_mult_oracle(a, e) for e in basis)
    assert right.action == tuple(right_mult_oracle(a, e) for e in basis)
    v = tuple(random.Random(name).choice([a.field.zero(), a.field.one()]) for _ in basis)
    assert left.rho(v) == left_mult_oracle(a, v) and right.rho(v) == right_mult_oracle(a, v)
    star, homs = star_module(left)
    assert star is right
    assert homs is right.action
    assert list(star.action) == hom_actions(homs, [right_mult_oracle(a, e) for e in basis],
                                            a.field, "left the hom space", post=True)


@pytest.mark.parametrize("name", BIMODULES)
def test_tensor_modules_of_bimodules_pass_the_full_basis_law(name):
    # lambda(s)·rho(r) is an S (x) R^op action because the two actions are
    # checked and commute, so the tensor module is built unchecked
    m = _bimodule(name).as_tensor_module()
    assert full_basis_module_law(m.algebra, m.action)


# --- trusted constructions -----------------------------------------------------


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_trusted_constructions_pass_the_full_basis_checks(name, op):
    a = _algebra(name, op)
    for m in module_corpus(a, minimum=0):
        rad = radical_submodule_basis(m)
        for built, arrow in (submodule(m, rad), quotient_module(m, rad)):
            assert full_basis_module_law(a, built.action)
            assert full_basis_intertwines(arrow.source, arrow.target, arrow.matrix)
            dual = dual_hom(arrow)
            assert full_basis_module_law(a.opposite(), dual_module(built).action)
            assert full_basis_intertwines(dual.source, dual.target, dual.matrix)
        for source, target, f in resolution_arrows(resolve(m, 2)):
            assert full_basis_intertwines(source, target, f)
    # Hom_A(A, A) in the basis of the right multiplications
    reg = regular_module(a)
    for h in star_module(reg)[1]:
        assert full_basis_intertwines(reg, reg, h)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_what_the_multiplication_makes_passes_the_full_basis_checks(name, op):
    # the regular module is left multiplication, Hom(m, A) over A^op is
    # right multiplication after the map, and a witness of m ≅ m is a
    # combination of an End basis: all built unchecked
    a = _algebra(name, op)
    assert full_basis_module_law(a, regular_module(a).action)
    for m in module_corpus(a, minimum=0):
        assert full_basis_module_law(a.opposite(), star_module(m)[0].action), m
        witness = is_isomorphic(m, m).witness
        assert witness.is_iso() and full_basis_intertwines(m, m, witness.matrix), m


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_coinduction_and_the_extension_bimodules_pass_the_full_basis_checks(name):
    # Coind(x) is precomposition with right multiplication, and the two
    # bimodules are multiplications through the checked embedding: all
    # built unchecked, as is the search's witness on them
    ext = corpus_extension(name)
    for x in module_corpus(ext.base, minimum=0):
        assert full_basis_module_law(ext.total, coinduce(ext, x).action), x
    for bim in (extension_bimodule(ext), restriction_bimodule(ext)):
        assert full_basis_module_law(bim.left, bim.left_action)
        assert full_basis_module_law(bim.right.opposite(), bim.right_action)
        assert full_basis_commute(bim.left_action, bim.right_action)
        witness = is_frobenius_bimodule(bim, seed=1).witness
        assert full_basis_intertwines(witness.source, witness.target, witness.matrix)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_submodule_and_quotient_reject_what_is_not_stable_or_independent(name, op):
    a = _algebra(name, op)
    for m in module_corpus(a, minimum=0):
        for k in range(m.dim):
            basis = Mat.identity(a.field, m.dim).select_cols([k])
            stable = all(Mat.from_cols(a.field, [basis.col(0), (rho * basis).col(0)]).rank() == 1
                         for rho in m.action)
            assert _raises(lambda: submodule(m, basis)) == (not stable)
            assert _raises(lambda: quotient_module(m, basis)) == (not stable)
            with pytest.raises(InputShapeError):
                submodule(m, basis.hstack(basis))
            with pytest.raises(InputShapeError):
                quotient_module(m, basis.hstack(basis))


@pytest.mark.parametrize("name", BIMODULES)
def test_hom_to_regular_bases_intertwine_on_every_basis_element(name):
    # over the regular module the basis is star_module's right
    # multiplications
    bim = _bimodule(name)
    for side, over in (("left", bim.as_left_module()), ("right", bim.as_right_op_module())):
        reg = regular_module(over.algebra)
        assert all(full_basis_intertwines(over, reg, h) for h in hom_to_regular(bim, side)[1])


def _recording(monkeypatch, module, name) -> list:
    """A list that gains (args, kwargs, result) for every call of module.name."""
    calls = []
    real = getattr(module, name)

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, record)
    return calls


def test_factorizations_of_the_tri_equiv_inputs_pass_the_dropped_checks(monkeypatch):
    # the cokernels of the units and kernels of the counits tri_equiv_conditions
    # builds in the suite, by the same two calls
    units = _recording(monkeypatch, frobenius.BimodulePair, "unit")
    counits = _recording(monkeypatch, frobenius.BimodulePair, "counit")
    assert suite.check_tri_equiv().passed
    assert units and counits
    for _args, _kwargs, eta in units:
        cokernel, proj = quotient_module(eta.target, column_space_basis(eta.matrix))
        assert full_basis_module_law(cokernel.algebra, cokernel.action)
        assert full_basis_intertwines(eta.target, cokernel, proj.matrix)
        ShortExactSequence(eta.source, eta.target, cokernel, eta, proj)
    for _args, _kwargs, eps in counits:
        kernel, incl = submodule(eps.source, eps.matrix.kernel_basis())
        assert full_basis_module_law(kernel.algebra, kernel.action)
        assert full_basis_intertwines(kernel, eps.source, incl.matrix)
        ShortExactSequence(kernel, eps.source, eps.target, incl, eps)


# --- chain-level facts proved by construction ----------------------------------


def resolution_arrows(res) -> list:
    """(source, target, matrix) of the augmentation and of every map of res."""
    return [(res.terms[0], res.augmented, res.augmentation)] + [
        (res.terms[k + 1], res.terms[k], d) for k, d in enumerate(res.maps)]


def syzygy_stages(m, n) -> tuple:
    """m, Ω^1 m, ..., Ω^n m, each the memoized syzygy of the one before;
    zero past a complete resolution."""
    stages = [m]
    for _ in range(n):
        stages.append(syzygy(stages[-1])[0])
    return tuple(stages)


def resolution_defects(res) -> list:
    """Exactness of a resolution, checked in full: every composite of two
    maps is zero, and the augmented complex is exact at the module and at
    every term a map leaves; one message per failure."""
    arrows = (res.augmentation,) + res.maps
    found = [f"composite is nonzero at stage {k}"
             for k, (prev, d) in enumerate(zip(arrows, res.maps))
             if not (prev * d).is_zero()]
    h = homology_dims([res.augmented.dim] + [t.dim for t in res.terms], arrows)
    if h[0]:
        found.append("augmentation of a projective resolution must be epi")
    return found + [f"resolution is not exact at stage {k}"
                    for k in range(len(res.maps)) if h[k + 1]]


RESOLVED = ALGEBRAS + [(name, "kupisch") for name in NAKAYAMA]


def _resolved_algebra(name, op):
    return nakayama(name)[0] if op == "kupisch" else _algebra(name, op)


@pytest.mark.parametrize("name, op", RESOLVED)
def test_every_resolution_is_exact(name, op):
    a = _resolved_algebra(name, op)
    for m in module_corpus(a, minimum=0):
        assert resolution_defects(resolve(m, 6)) == [], m


def _homotopy_defects(chain_map, source, target, target_shift, s) -> list:
    """The degrees k where d·s[k] + s[k-1]·d != chain_map[k], a None
    entry being zero."""
    found = []
    for k, sk in enumerate(s):
        acc = target.map_from(k + target_shift + 1) * sk
        if k:
            acc = acc + s[k - 1] * source.map_from(k)
        if not (acc.is_zero() if chain_map[k] is None else acc == chain_map[k]):
            found.append(k)
    return found


SWEPT = [(name, False) for name in GORENSTEIN_NAMES] + [(name, True) for name in NAKAYAMA]


@pytest.mark.parametrize("name, kupisch", SWEPT)
def test_the_homotopies_of_the_totalization_sweep_meet_their_identities(monkeypatch, name,
                                                                        kupisch):
    if kupisch:
        a, prof, _oracle = nakayama(name)
    else:
        a = corpus_algebra(name)
        prof = gorenstein_profile(a)
    calls = _recording(monkeypatch, homology, "nullhomotopy")
    for m in module_corpus(a):
        totalize_quasi_bicomplex(m, prof)
    for (chain_map, source, target), kwargs, s in calls:
        assert _homotopy_defects(chain_map, source, target, kwargs["target_shift"], s) == []
    assert calls or prof.gorenstein_dim == 0


def test_every_contraction_of_the_complex_corpus_meets_its_identity():
    contracted = 0
    for c in complex_corpus():
        ok, s = is_contractible(c)
        if not ok:
            continue
        contracted += 1
        for p in c.support():
            acc = c.differential(p - 1).matrix * s[p]
            if p + 1 in s:
                acc = acc + s[p + 1] * c.differential(p).matrix
            assert acc == Mat.identity(c.algebra.field, c.component(p).dim), (c, p)
    assert contracted


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_envelopes_are_mono_with_the_socle_in_their_image(name, op):
    # the envelope D(cover of D(m)): its image contains the socle, the dual
    # of the cover's superfluous kernel
    for m in module_corpus(_algebra(name, op), minimum=0):
        emap = dual_hom(cover_envelope(dual_module(m))[1])
        img = emap.matrix
        assert emap.source is m and emap.is_mono()
        assert img.hstack(socle_basis(emap.target)).rank() == img.rank()


# --- maps out of projectives by Yoneda ------------------------------------------


def _resolution_terms(a) -> list:
    """The distinct terms of the resolutions of a's corpus modules, one per
    sum of structural projectives."""
    terms = {}
    for m in module_corpus(a, minimum=0):
        for t in resolve(m, 6).terms:
            terms.setdefault(t._summands, t)
    return list(terms.values())


@pytest.mark.parametrize("name, op", RESOLVED)
def test_yoneda_hom_bases_equal_the_kron_kernel(name, op):
    # the targets include the regular module
    a = _resolved_algebra(name, op)
    targets = module_corpus(a, minimum=0)
    terms = _resolution_terms(a)
    assert all(t._summands is not None for t in terms)
    for t, n in iter_product(terms, targets):
        kron_basis = full_basis_hom_matrices(t, n, a.generators())
        assert list(hom_space(t, n)) == kron_basis, (t._summands, n)


def yoneda_maps(n, emb, w) -> list:
    """modrep._yoneda's stacked maps, one matrix each."""
    stack = modrep._yoneda(n, emb, w)
    return [stack.select_rows(range(t, t + n.dim)) for t in range(0, stack.rows, n.dim)]


def whole_sum_yoneda_matrices(m, n) -> list:
    """Hom(m, n) out of a recorded sum m of structural projectives, the
    Yoneda maps of every summand canonicalized together by one reversed
    RREF of the whole sum: the route each pair took before the summands'
    blocks were memoized."""
    field = m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return []
    idems, embeddings = m.algebra.idempotents, structural_modules(m.algebra).embeddings
    rows, before, zero = [], 0, (field.zero(),) * n.dim
    for i in m._summands:
        after = m.dim - before - embeddings[i].cols
        rows += [zero * after + vec(f).col(0)[::-1] + zero * before
                 for f in yoneda_maps(n, embeddings[i], column_space_basis(n.rho(idems[i])))]
        before = m.dim - after
    red = rref(Mat.from_cols(field, rows, m.dim * n.dim).transpose())
    assert red.rank == len(rows)
    return [unvec(field, red.matrix.row(r)[::-1], n.dim, m.dim) for r in reversed(range(red.rank))]


def _projective_sums(a) -> list:
    """The structural projectives, their sum, the reversed sum, and a sum
    with a repeated summand."""
    ps = list(structural_modules(a).projectives)
    return ps + [direct_sum(ps), direct_sum(ps[::-1]), direct_sum([ps[0], ps[0]] + ps[-1:])]


def _hom_targets(a) -> list:
    """The corpus, the injectives and the duals of the opposite's corpus."""
    return (module_corpus(a, minimum=0) + list(structural_modules(a).injectives)
            + [dual_module(x) for x in module_corpus(a.opposite(), minimum=0)])


@pytest.mark.parametrize("name, op", ALGEBRAS + [(name, "kupisch")
                                                 for name in ("k32", "k223", "k54")])
def test_hom_out_of_projective_sums_is_the_whole_sum_yoneda_route(name, op):
    a = _resolved_algebra(name, op)
    targets = _hom_targets(a)
    if op == "kupisch":
        targets += [uniserial(a, *x) for x in nakayama(name)[2].modules()]
    if name == "m2f2x2":  # two idempotents, one projective: its record is the first
        assert [p._summands for p in structural_modules(a).projectives] == [(0,), (0,)]
    for src, n in iter_product(_projective_sums(a), targets):
        assert list(hom_space(src, n)) == whole_sum_yoneda_matrices(src, n), (
            src._summands, n)


def test_each_yoneda_block_is_built_once_per_target_and_idempotent(monkeypatch):
    # new algebra objects, so that no hom space is memoized: the projectives
    # and their sums share one block per (target, idempotent)
    yoneda, calls = modrep._yoneda, []
    for name, op in ALGEBRAS:
        a = algebra_from_json(algebra_to_json(_algebra(name, op)))
        sources, targets = _projective_sums(a), _hom_targets(a)
        monkeypatch.setattr(modrep, "_yoneda",
                            lambda n, emb, w: calls.append((n, emb)) or yoneda(n, emb, w))
        for src, n in iter_product(sources, targets):
            hom_space(src, n)
        monkeypatch.setattr(modrep, "_yoneda", yoneda)
    keys = [(id(n), id(emb)) for n, emb in calls]
    assert keys and len(set(keys)) == len(keys)


def hom_basis_ext_dim(m, n, i) -> int:
    """dim Ext^i(m, n) from hom_space's bases of the resolution's terms and
    hom_delta over them: the route ext_dim took before it read the maps at
    the generators of the terms."""
    res = resolve(m, i + 1)
    homs = [hom_space(res.term(k), n) for k in (i - 1, i)]
    deltas = [hom_delta(h, res.map_from(k + 1)) for h, k in zip(homs, (i - 1, i))]
    return homology_dims([len(h) for h in homs], deltas)[1]


def _rebased(mods, rebase) -> list:
    """Each of mods in a seeded random basis, where one changes it."""
    out = []
    for seed, m in enumerate(mods):
        try:
            out.append(rebase(m, seed)[0])
        except AssertionError:
            pass
    return out


def assert_ext_is_the_hom_basis_route(a, mods):
    """ext_dim and ext_dim_injective in degrees 1 to 3 against the hom
    basis route, into A, into the next module and into the dual of the
    opposite's corpus module at the same place."""
    duals = [dual_module(x) for x in module_corpus(a.opposite(), minimum=0)]
    for k, m in enumerate(mods):
        for n in (regular_module(a), mods[(k + 1) % len(mods)], duals[k % len(duals)]):
            for i in (1, 2, 3):
                want = hom_basis_ext_dim(m, n, i)
                assert ext_dim(m, n, i) == want == ext_dim_injective(m, n, i), (m, n, i)


@pytest.mark.parametrize("op", [False, True])
@pytest.mark.parametrize("name", [x for x in TRUSTED_ALGEBRAS if x != "opposite f7s3"])
def test_ext_in_yoneda_coordinates_is_the_hom_basis_route(name, op, in_new_basis):
    # every corpus module, in a random basis and in random sums; f7s3 has no
    # primitive idempotents, so no cover
    a = _trusted_algebra(name)
    a = a.opposite() if op else a
    mods = module_corpus(a, minimum=0)
    mods += _rebased(mods, in_new_basis) + _rebased_sums(mods, in_new_basis)
    assert_ext_is_the_hom_basis_route(a, mods)


def test_ext_over_a_copy_with_reversed_idempotents_is_the_hom_basis_route():
    # the terms' summands name their own algebra's idempotents, and Ext
    # between modules over two equal algebra objects reads those: its memos
    # are keyed by that object, since equal algebras may order them apart
    a = corpus_algebra("a2")
    doc = algebra_to_json(a)
    doc["idempotents"] = doc["idempotents"][::-1]
    b = algebra_from_json(doc)
    assert b == a and b.idempotents == a.idempotents[::-1]
    mods = module_corpus(a, minimum=0)
    copies = [Module(b, m.action) for m in mods]
    for side in (mods, copies):
        assert_ext_is_the_hom_basis_route(a, side)
        assert_ext_is_the_hom_basis_route(b, side)
    for m, n in iter_product(mods + copies, repeat=2):
        assert [ext_dim(m, n, i) for i in (1, 2)] == [hom_basis_ext_dim(m, n, i) for i in (1, 2)]


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_zero_maps_intertwine_on_every_basis_element(name, op):
    # built unchecked: 0·rho(x) = 0 = rho(x)·0
    mods = module_corpus(_algebra(name, op), minimum=0)
    for m, n in iter_product(mods, mods):
        z = zero_hom(m, n)
        assert z.is_zero() and (z.matrix.rows, z.matrix.cols) == (n.dim, m.dim)
        assert full_basis_intertwines(m, n, z.matrix), (m, n)


def test_a_zero_map_finds_no_generators(monkeypatch, tmp_path):
    # a loaded algebra found its generators to check itself; its opposite,
    # built unchecked, has not, and a zero map over it needs none
    from gorhom.algebra import save_algebra

    save_algebra(corpus_algebra("a2t2"), tmp_path / "a2t2.alg")
    op = load_algebra(tmp_path / "a2t2.alg").opposite()
    calls = []
    greedy = algebra_mod._greedy_generators
    monkeypatch.setattr(algebra_mod, "_greedy_generators",
                        lambda a: calls.append(a) or greedy(a))
    z = zero_hom(zero_module(op), regular_module(op))
    assert z.matrix == Mat.zeros(op.field, op.dim, 0) and calls == []


def cover_defects(m) -> list:
    """The cover of m checked in full: intertwining on every basis element,
    epi, and a kernel inside rad(P)."""
    p, cov = cover_envelope(m)
    found = []
    if not full_basis_intertwines(p, m, cov.matrix):
        found.append("the cover map does not intertwine")
    if not cov.is_epi():
        found.append("the cover map is not epi")
    radp = radical_submodule_basis(p)
    ker = cov.matrix.kernel_basis()
    if rref(radp.hstack(ker).transpose()).rank != rref(radp.transpose()).rank:
        found.append("the cover kernel is not superfluous")
    return found


@pytest.mark.parametrize("name, op", RESOLVED)
def test_every_cover_intertwines_with_a_superfluous_kernel(name, op):
    for m in module_corpus(_resolved_algebra(name, op), minimum=0):
        for x in syzygy_stages(m, 4):
            if x.dim:
                assert cover_defects(x) == [], x


@pytest.mark.parametrize("name, op", RESOLVED)
def test_summed_rows_and_identity_covers_pass_the_full_basis_checks(name, op):
    # a totalization row is the block-diagonal sum of the injectives'
    # resolutions, and a recorded sum of projectives covers itself by the
    # identity: all built unchecked.  A new algebra object, so that no sum
    # was covered before it was recorded
    a = algebra_from_json(algebra_to_json(_resolved_algebra(name, op)))
    d = gorenstein_profile(a).gorenstein_dim
    for m in module_corpus(a, minimum=0):
        dres = resolve(dual_module(m), d + 1)
        for i in range(d + 2):
            row = resolve_injective_sum(dres.term(i), d)
            for source, target, f in resolution_arrows(row):
                assert full_basis_intertwines(source, target, f), (m, i)
            for t in row.terms + dres.terms:
                if t._summands is not None:
                    p, cov = cover_envelope(t)
                    assert p is t and cov.matrix == Mat.identity(a.field, t.dim)
                    assert cover_defects(t) == [], t


def top_module_cover(m):
    """The cover of m, (P, matrix), as it was built through the top module:
    top_of's quotient, its action read for one idempotent per simple class
    and its projection solved for every lift (no check repeated)."""
    a = m.algebra
    if m.dim == 0 or m._summands is not None:
        return m, Mat.identity(a.field, m.dim)
    structural, idems = structural_modules(a), a.idempotents
    top, pi_top = top_of(m)
    summands, blocks = [], []
    for rep in (cls[0] for cls in structural.simple_classes):
        img, e_m = column_space_basis(top.rho(idems[rep])), m.rho(idems[rep])
        gens = [(e_m * solve(pi_top.matrix, Mat.col_vector(a.field, img.col(c))).particular).col(0)
                for c in range(img.cols)]
        summands += [rep] * img.cols
        blocks += yoneda_maps(m, structural.embeddings[rep], Mat.from_cols(a.field, gens, m.dim))
    cols = [col for block in blocks for col in zip(*block.data)]
    return direct_sum([structural.projectives[i] for i in summands]), Mat.from_cols(a.field, cols)


def _rebased_sums(mods, rebase, count: int = 6) -> list:
    """Seeded random-basis sums of seeded random pairs of mods; a sum that
    no basis changes (every action a scalar) is left out."""
    out = []
    for seed in range(count):
        try:
            out.append(rebase(direct_sum(random.Random(seed).choices(mods, k=2)), seed)[0])
        except AssertionError:
            pass
    return out


@pytest.mark.parametrize("name, op", ALGEBRAS + [(name, "kupisch")
                                                 for name in ("k32", "k223", "k54")])
def test_covers_through_the_annihilator_are_the_top_module_covers(name, op, in_new_basis):
    # a new algebra object, so that no cover was built before this test:
    # each module's record is the one both covers read
    a = algebra_from_json(algebra_to_json(_resolved_algebra(name, op)))
    mods = _hom_targets(a)
    if op == "kupisch":
        mods += [uniserial(a, *x) for x in nakayama(name)[2].modules()]
    mods += _rebased_sums([x for x in mods if x.dim], in_new_basis)
    for m in mods:
        old_p, old_matrix = top_module_cover(m)
        p, cov = cover_envelope(m)
        assert p is old_p and p._summands == old_p._summands and cov.matrix == old_matrix, m


# --- the radical series, read in place ----------------------------------------------


def chained_radical_basis(m) -> Mat:
    """rad(A)·m as the pivot columns of [rho(r_1) | rho(r_2) | ...], the
    stack chained one image at a time."""
    rad = m.algebra.radical_basis()
    stacked = Mat.zeros(m.algebra.field, m.dim, 0)
    for c in range(rad.cols):
        stacked = stacked.hstack(m.rho(rad.col(c)))
    return column_space_basis(stacked)


def chained_socle_basis(m) -> Mat:
    """The common kernel of the rho(r), the stack chained one image at a time."""
    rad = m.algebra.radical_basis()
    stacked = Mat.zeros(m.algebra.field, 0, m.dim)
    for c in range(rad.cols):
        stacked = m.rho(rad.col(c)).vstack(stacked)
    return stacked.kernel_basis()


def submodule_walk_dims(m) -> tuple:
    """dim rad^k(m), each rad^(k+1)(m) built as the submodule rad(A)·rad^k(m)
    of the one before and its radical taken there."""
    dims = [m.dim]
    while m.dim:
        rad = chained_radical_basis(m)
        if rad.cols == 0:
            break
        m = submodule(m, rad)[0]
        dims.append(m.dim)
    return tuple(dims)


def _series_inputs(name, op):
    if op != "extension":
        return module_corpus(_algebra(name, op), minimum=0)
    ext = corpus_extension(name)
    base = module_corpus(ext.base, minimum=0)
    return [frobenius.induce(ext, x) for x in base] + [frobenius.coinduce(ext, x) for x in base]


@pytest.mark.parametrize("name, op", ALGEBRAS + [(name, "extension") for name in EXTENSION_NAMES])
def test_the_radical_series_in_place_is_the_submodule_walk(name, op):
    for m in _series_inputs(name, op):
        assert modrep._radical_series_dims(m) == submodule_walk_dims(m), m
        assert radical_submodule_basis(m) == chained_radical_basis(m), m
        assert socle_basis(m) == chained_socle_basis(m), m
