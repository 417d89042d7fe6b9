"""Each family of action matrices on one subspace comes from one
elimination: the submodule actions from one solve against the basis, and
the actions on a hom basis (Hom(m, A), coinduction, Hom into the regular
module over a bimodule) from one hom_coordinates solve.  Each construction
is built once: a quotient is D of a submodule of the dual, the socle is
read off the radical's action on the dual, a pair's unit is one matrix
formula over the dual basis, a tensor quotient's section is read off its
projection, and the simples are classified by ranks, with no Hom space.
Gpd is read off the Ext support, with no search over the syzygies, and
the totalization's d_1 is its first null-homotopy, with no chain-map lift.

The constructions they replaced live on here as oracles and must give
identical matrices and values; the work counts check that each family is
one solve.
"""

import pytest

from test_kupisch import F2, NAKAYAMA, nakayama, uniserial
from test_laws import ALGEBRAS, _algebra, right_mult_oracle, syzygy_stages

from gorhom import exactlin, frobenius, homology, modrep
from gorhom.algebra import Algebra, path_algebra
from gorhom.corpus import (
    EXTENSION_NAMES,
    corpus_algebra,
    corpus_bimodule,
    corpus_extension,
    module_corpus,
)
from gorhom.errors import UnsupportedAlgebra
from gorhom.exactlin import Mat, kron, rref, solve
from gorhom.frobenius import (
    BimodulePair,
    ExtensionPair,
    coinduce,
    extension_bimodule,
    hom_to_regular,
    product_pairs,
    restrict,
    restriction_bimodule,
)
from gorhom.dgcplx import ChainMap
from gorhom.homology import (
    ComplexObj,
    gid,
    gorenstein_profile,
    gpd,
    is_gorenstein_projective,
    resolve,
    star_module,
    totalize_quasi_bicomplex,
)
from gorhom.modrep import (
    ModHom,
    column_space_basis,
    cover_envelope,
    dual_module,
    factor_through,
    hom_coordinates,
    hom_dim,
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


def per_element_submodule_actions(m, basis) -> list:
    """X_i with rho(e_i)·B = B·X_i, one solve per basis element e_i."""
    acts = []
    for act in m.action:
        res = solve(basis, act * basis)
        assert res.particular is not None
        acts.append(res.particular)
    return acts


def per_operator_actions(basis, ops, field, post=False) -> list:
    """The matrix of h -> h∘op (op∘h when post) in the hom basis, one
    hom_coordinates solve per op."""
    return [hom_coordinates([op * h if post else h * op for h in basis],
                            basis, field, "left the hom space")
            for op in ops]


def _right_mults(a) -> list:
    return [right_mult_oracle(a, a.basis_vec(i)) for i in range(a.dim)]


def _syzygy_inputs(a) -> list:
    """(cover, kernel basis) of every corpus module and its first syzygies:
    the submodules a resolution builds."""
    out = []
    for m in module_corpus(a, minimum=0):
        for x in syzygy_stages(m, 3):
            if x.dim:
                p, cov = cover_envelope(x)
                out.append((p, cov.matrix.kernel_basis()))
    return out


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_submodules_are_the_per_element_solves(name, op):
    a = _algebra(name, op)
    reg = regular_module(a)
    inputs = [(reg, emb) for emb in structural_modules(a).embeddings] + _syzygy_inputs(a)
    for m, basis in inputs:
        assert list(submodule(m, basis)[0].action) == per_element_submodule_actions(m, basis)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_star_modules_are_the_per_operator_solves(name, op):
    a = _algebra(name, op)
    for m in module_corpus(a, minimum=0):
        star, basis = star_module(m)
        assert list(star.action) == per_operator_actions(basis, _right_mults(a), a.field,
                                                         post=True)


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_coinduced_modules_are_the_per_operator_solves(name):
    ext = corpus_extension(name)
    s = ext.total
    for x in module_corpus(ext.base, minimum=0):
        basis = hom_space(restrict(ext, regular_module(s)), x)
        assert list(coinduce(ext, x).action) == per_operator_actions(basis, _right_mults(s),
                                                                     s.field)


@pytest.mark.parametrize("name", ["morita_col"] + EXTENSION_NAMES)
@pytest.mark.parametrize("side", ["left", "right"])
def test_hom_to_regular_actions_are_the_per_operator_solves(name, side):
    bim = corpus_bimodule(name) if name == "morita_col" else extension_bimodule(
        corpus_extension(name))
    over, pre = ((bim.as_left_module(), bim.right_action) if side == "left"
                 else (bim.as_right_op_module(), bim.left_action))
    a = over.algebra
    dual, basis = hom_to_regular(bim, side)
    pre_acts = per_operator_actions(basis, pre, a.field)
    post_acts = per_operator_actions(basis, _right_mults(a), a.field, post=True)
    left, right = (pre_acts, post_acts) if side == "left" else (post_acts, pre_acts)
    assert list(dual.left_action) == left
    assert list(dual.right_action) == right


# --- quotients, socles and units ---------------------------------------------


def conjugated_quotient(m, basis) -> tuple:
    """The quotient actions and projection by conjugation: T is the RREF rows
    of the basis, then the unit vectors off their pivots; the lower-left
    block of T^-1·rho(e_i)·T vanishes, its lower-right block is the quotient
    action, and the projection is the lower rows of T^-1."""
    field = m.algebra.field
    red = rref(basis.transpose())
    assert red.rank == basis.cols
    b = red.matrix.transpose().select_cols(range(red.rank))
    keep = [i for i in range(m.dim) if i not in set(red.pivots)]
    t = b.hstack(Mat.identity(field, m.dim).select_cols(keep))
    tinv = t.inverse()
    stable, rest = range(b.cols), range(b.cols, m.dim)
    acts = []
    for act in m.action:
        lower = (tinv * act * t).select_rows(rest)
        assert lower.select_cols(stable).is_zero()
        acts.append(lower.select_cols(rest))
    return acts, tinv.select_rows(rest)


def stacked_socle_basis(m) -> Mat:
    """The common kernel of the rho(r), r in the radical's basis, stacked."""
    rad = m.algebra.radical_basis()
    system = Mat.zeros(m.algebra.field, 0, m.dim)
    for c in range(rad.cols):
        system = system.vstack(m.rho(rad.col(c)))
    return system.kernel_basis()


def _class_of(t, m_vec, x_vec) -> tuple:
    """The class of m ⊗ v in a tensor module, as a coordinate tuple."""
    field = t.proj.field
    return (t.proj * kron(Mat.from_cols(field, [m_vec]), Mat.from_cols(field, [x_vec]))).col(0)


def pure_tensor_unit(pair, x) -> Mat:
    """The unit at x column by column: e_c -> sum_t [f_t ⊗ [m_t ⊗ e_c]]."""
    dual, _, dual_basis = pair._dual()
    fx = frobenius._tensor(pair.m, x)
    gfx = frobenius._tensor(dual, fx.module)
    field = x.algebra.field
    eye = Mat.identity(field, x.dim)
    cols = []
    for c in range(x.dim):
        acc = [field.zero()] * gfx.module.dim
        for m_elt, f_coords in dual_basis:
            outer = _class_of(gfx, f_coords, _class_of(fx, m_elt, eye.col(c)))
            acc = [field.add(u, v) for u, v in zip(acc, outer)]
        cols.append(acc)
    return Mat.from_cols(field, cols, gfx.module.dim)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_quotients_and_socles_are_the_conjugated_and_stacked_ones(name, op):
    a = _algebra(name, op)
    for m in module_corpus(a, minimum=0):
        rad = radical_submodule_basis(m)
        quot, proj = quotient_module(m, rad)
        assert proj.source is m and proj.target is quot
        assert (list(quot.action), proj.matrix) == conjugated_quotient(m, rad)
        assert socle_basis(m) == stacked_socle_basis(m)


def _pairs() -> list:
    """The pairs of every bundled extension, of the restriction bimodules,
    of morita_col and of a2 x f2."""
    pairs = [ExtensionPair(corpus_extension(name)) for name in EXTENSION_NAMES]
    pairs += [BimodulePair(restriction_bimodule(corpus_extension(name)))
              for name in EXTENSION_NAMES]
    pairs += [BimodulePair(corpus_bimodule("morita_col"))]
    return pairs + list(product_pairs(corpus_algebra("a2"), corpus_algebra("f2")))


def _relation_quotient_inputs(bim, x) -> tuple:
    """The ambient module M ⊗_k x and a basis of the balancing relations of
    every basis element of R, whose span the tensor construction reads off
    the relations of R's generators alone."""
    field = bim.left.field
    eye_m, eye_x = Mat.identity(field, bim.dim), Mat.identity(field, x.dim)
    ambient = modrep.Module(bim.left, [kron(lam, eye_x) for lam in bim.left_action])
    cols = []
    for mr, xr in zip(bim.right_action, x.action):
        rel = kron(mr, eye_x) - kron(eye_m, xr)
        cols.extend(c for c in zip(*rel.data) if any(c))
    return ambient, column_space_basis(Mat.from_cols(field, cols, bim.dim * x.dim))


def test_tensor_quotients_are_the_conjugated_ones():
    seen = 0
    for pair in _pairs():
        for bim, side in ((pair.m, pair.algebra_a), (pair._dual()[0], pair.algebra_b)):
            over = bim.as_right_op_module()
            if over is regular_module(over.algebra):
                continue
            for x in module_corpus(side, minimum=0):
                ambient, rels = _relation_quotient_inputs(bim, x)
                acts, proj = conjugated_quotient(ambient, rels)
                t = frobenius._tensor(bim, x)
                assert (list(t.module.action), t.proj) == (acts, proj)
                # the generators' relations span every element's, so the
                # quotient by all of them is the same interned module
                assert t.module is quotient_module(ambient, rels)[0]
                seen += 1
    assert seen > 0


def test_units_are_the_sums_of_pure_tensors():
    for pair in _pairs():
        for x in module_corpus(pair.algebra_a, minimum=0):
            assert pair.unit(x).matrix == pure_tensor_unit(pair, x)


def test_tensor_sections_give_the_tensor_homs_of_the_solved_ones():
    # a section is read only through classes, so the one read off the
    # projection and the one solved for give the same M ⊗_R f
    differ = 0
    for pair in _pairs():
        for bim, side in ((pair.m, pair.algebra_a), (pair._dual()[0], pair.algebra_b)):
            over = bim.as_right_op_module()
            if over is regular_module(over.algebra):
                continue
            corpus = module_corpus(side, minimum=0)
            for x in corpus:
                t = frobenius._tensor(bim, x)
                eye = Mat.identity(t.proj.field, t.module.dim)
                solved = solve(t.proj, eye).particular
                assert t.proj * t.section == eye == t.proj * solved
                differ += t.section != solved
                eye_m = Mat.identity(t.proj.field, bim.dim)
                for y in corpus:
                    into = frobenius._tensor(bim, y).proj
                    for f in hom_space(x, y):
                        via_solved = into * kron(eye_m, f) * solved
                        assert frobenius._tensor_hom(bim, ModHom(x, y, f)).matrix == via_solved
    assert differ > 0


# --- the simples by ranks --------------------------------------------------------


def hom_classified_simples(a) -> tuple:
    """Whether every simple top(A·e_i) is split, and then their classes: by
    one End solve per simple and one isomorphism search per pair of
    simples, the loop the ranks replaced; (False, None) when one is not."""
    simples = [top_of(p)[0] for p in modrep._indecomposable_projectives(a)[0]]
    if any(hom_dim(s, s) != 1 for s in simples):
        return False, None
    classes = []
    for i, s in enumerate(simples):
        for cls in classes:
            if is_isomorphic(s, simples[cls[0]]).verdict == "yes":
                cls.append(i)
                break
        else:
            classes.append([i])
    return True, tuple(tuple(c) for c in classes)


def f4() -> Algebra:
    """F_4 over F_2: basis 1, w with w² = w + 1.  Its one simple module is
    F_4 itself, with End = F_4, so it is not split."""
    return Algebra(F2, ["1", "w"], [[(1, 0), (0, 1)], [(0, 1), (1, 1)]], (1, 0),
                   idempotents=[(1, 0)])


SIMPLES = ALGEBRAS + [(name, "kupisch") for name in NAKAYAMA] + [("f4", "field")]


def _fresh_algebra(name, op):
    """A new algebra object, so nothing is memoized on it yet: a copy of the
    corpus algebra (or its opposite), a Kupisch algebra, or F_4."""
    if op == "field":
        return f4()
    if op == "kupisch":
        return path_algebra(NAKAYAMA[name][0], F2)
    a = corpus_algebra(name)
    copy = Algebra(a.field, a.basis_labels, a.table, a.unit, idempotents=a.idempotents)
    return copy.opposite() if op else copy


@pytest.mark.parametrize("name, op", SIMPLES)
def test_simples_by_ranks_are_the_hom_classified_ones(name, op):
    a = _fresh_algebra(name, op)
    split, classes = hom_classified_simples(a)
    if not split:
        with pytest.raises(UnsupportedAlgebra, match="^non-split simple module encountered$"):
            structural_modules(a)
    else:
        assert structural_modules(a).simple_classes == classes
    assert split == (name != "f4")


# --- Gpd and Gid by the syzygy search ---------------------------------------------


def syzygy_search_gpd(m, profile) -> int:
    """The first n <= d whose syzygy Ω^n m passes the Gorenstein projective
    test, the zero module past a complete resolution: the search gpd ran
    before it read the Ext support."""
    d = profile.gorenstein_dim
    for n, stage in enumerate(syzygy_stages(m, d)):
        if is_gorenstein_projective(stage, profile).verdict == "yes":
            return n
    raise AssertionError(f"no Gorenstein projective syzygy within the Gorenstein dimension {d}")


def syzygy_search_gid(m, profile) -> int:
    """The search on D(m) under the opposite profile, which gid once checked
    for mirroring this one."""
    op = gorenstein_profile(m.algebra.opposite(), profile.bound)
    assert op.max_id_projective == profile.max_pd_injective
    return syzygy_search_gpd(dual_module(m), op)


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_gpd_and_gid_are_the_syzygy_search(name, op):
    a = _algebra(name, op)
    prof = gorenstein_profile(a)
    for m in module_corpus(a, minimum=0):
        assert (gpd(m, prof), gid(m, prof)) == (syzygy_search_gpd(m, prof),
                                                syzygy_search_gid(m, prof))


@pytest.mark.parametrize("name", NAKAYAMA)
def test_gpd_and_gid_of_every_kupisch_indecomposable_are_the_syzygy_search(name):
    a, prof, oracle = nakayama(name)
    for x in oracle.modules():
        m = uniserial(a, *x)
        assert (gpd(m, prof), gid(m, prof)) == (syzygy_search_gpd(m, prof),
                                                syzygy_search_gid(m, prof)), x


# --- d_1 by chain-map lifting ------------------------------------------------------


def lift_chain_map(f, source, target) -> list:
    """Lift the matrix f of a map between the augmented objects to a chain
    map of projective resolutions (the comparison theorem), one
    factor_through per degree: d_k·f_k = f_{k-1}·d_k, with d_k the map
    leaving terms[k] and f_{-1} = f.  The totalization built d_1 from these
    lifts before d_1 became its first null-homotopy."""
    lifts = []
    for k in range(max(len(source.terms), len(target.terms))):
        rhs = (lifts[-1] if lifts else f) * source.map_from(k)
        lift = factor_through(source.term(k), target.term(k), target.map_from(k), rhs)
        assert lift is not None, f"lift is not solvable at stage {k}"
        lifts.append(lift)
    return lifts


def lifted_d1(m, profile) -> dict:
    """The nonempty blocks of d_1 as the lifts built them: in column i, the
    lift of the coresolution map I^i -> I^{i+1} times (-1)^k in row -k."""
    d = profile.gorenstein_dim
    dres = resolve(dual_module(m), d + 1)
    rows = [resolve(dual_module(dres.term(i)), d) for i in range(d + 2)]
    blocks = {}
    for i in range(d + 1):
        # D of the coresolution map dres.maps[i], zero past the last one
        partial = (dres.maps[i].transpose() if i < len(dres.maps) else
                   Mat.zeros(m.algebra.field, rows[i + 1].augmented.dim, rows[i].augmented.dim))
        for k, h in enumerate(lift_chain_map(partial, rows[i], rows[i + 1])):
            if h.rows and h.cols:
                blocks[(i, -k)] = -h if k % 2 else h
    return blocks


def _assert_d1_is_lifted(prof, modules) -> None:
    for m in modules:
        d1 = totalize_quasi_bicomplex(m, prof).quasi_bicomplex.maps[1]
        assert {key: mat for key, mat in d1.items() if mat.rows and mat.cols} == \
            lifted_d1(m, prof), m


@pytest.mark.parametrize("name, op", ALGEBRAS)
def test_d1_is_the_signed_lift_of_the_coresolution(name, op):
    a = _algebra(name, op)
    _assert_d1_is_lifted(gorenstein_profile(a), module_corpus(a, minimum=0))


@pytest.mark.parametrize("name", NAKAYAMA)
def test_d1_of_every_kupisch_indecomposable_is_the_signed_lift(name):
    a, prof, oracle = nakayama(name)
    _assert_d1_is_lifted(prof, [uniserial(a, *x) for x in oracle.modules()])


# --- work counts ----------------------------------------------------------------


def _counting(monkeypatch, module, name) -> list:
    """A list that gains an entry for every call of module.name."""
    calls, real = [], getattr(module, name)

    def count(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("name", ["f2", "a2", "k32", "k223", "k33344"])
def test_every_d_l_is_one_null_homotopy_per_column(monkeypatch, name):
    # d_l for 1 <= l <= d+1 in the columns 0 .. d+1-l: (d+1)(d+2)/2 homotopies
    if name in NAKAYAMA:
        a, prof, _oracle = nakayama(name)
        m = uniserial(a, 0, 1)
    else:
        a = corpus_algebra(name)
        prof, m = gorenstein_profile(a), module_corpus(a)[0]
    calls = _counting(monkeypatch, homology, "nullhomotopy")
    totalize_quasi_bicomplex(m, prof)
    d = prof.gorenstein_dim
    assert len(calls) == (d + 1) * (d + 2) // 2


@pytest.mark.parametrize("name", ["f2", "f2x3", "a3", "a2t2", "m2f2x2"])
def test_a_submodule_is_one_elimination_whatever_the_algebra_dimension(monkeypatch, name):
    embeddings = structural_modules(corpus_algebra(name)).embeddings
    # the regular module of a new algebra object records no summands, so no
    # submodule of it is memoized: each one is a cold build
    reg = regular_module(_fresh_algebra(name, None))
    solves = _counting(monkeypatch, modrep, "solve")
    rrefs = _counting(monkeypatch, exactlin, "rref")
    for emb in embeddings:
        del solves[:], rrefs[:]
        submodule(reg, emb)
        # an embedding has a unit row for every column: the solve eliminates nothing
        assert (len(solves), len(rrefs)) == (1, 0)


def test_injectivity_is_a_rank_with_no_kernel_built(monkeypatch):
    a = corpus_algebra("a2")
    reg = regular_module(a)
    incl = submodule(reg, structural_modules(a).embeddings[0])[1]
    stalk = ComplexObj(a, {0: reg}, {})
    kernels = _counting(monkeypatch, exactlin, "_kernel")
    assert incl.is_mono() and not zero_hom(reg, incl.source).is_mono()
    assert ChainMap(stalk, stalk, {0: Mat.identity(a.field, reg.dim)}).is_mono()
    assert not ChainMap(stalk, stalk, {}).is_mono()
    assert kernels == []


def test_structural_modules_solve_no_hom_space_and_search_no_isomorphism(monkeypatch):
    fresh = [_fresh_algebra(name, op) for name, op in SIMPLES if op != "field"]
    homs = _counting(monkeypatch, modrep, "_hom_space_matrices")
    searches = _counting(monkeypatch, modrep, "_isomorphism")
    for a in fresh:
        structural_modules(a)
    assert (len(homs), len(searches)) == (0, 0)


def test_star_and_coinduce_solve_once_for_their_action_family(monkeypatch, in_new_basis):
    ext = corpus_extension("a2_a2t2")
    a, s = ext.base, ext.total
    # new content, so no star or coinduction memo; the hom bases are built
    # first, so what is counted is the action family alone
    m = in_new_basis(regular_module(a))[0]
    x = in_new_basis(structural_modules(a).projectives[0])[0]
    hom_space(m, regular_module(a))
    hom_space(restrict(ext, regular_module(s)), x)
    solves = _counting(monkeypatch, modrep, "solve")
    star_module(m)
    assert len(solves) == 1
    del solves[:]
    coinduce(ext, x)
    assert len(solves) == 1


def test_a_tensor_quotient_solves_for_no_section(monkeypatch, in_new_basis):
    # new content, so no tensor memo; the duals are built before counting
    fresh = [(bim, in_new_basis(regular_module(side))[0]) for pair in _pairs()
             for bim, side in ((pair.m, pair.algebra_a), (pair._dual()[0], pair.algebra_b))
             if side.dim > 1]
    quotients = _counting(monkeypatch, frobenius, "quotient_module")
    solves = _counting(monkeypatch, frobenius, "solve")
    for bim, x in fresh:
        frobenius._tensor(bim, x)
    assert len(quotients) > 0
    assert solves == []


@pytest.mark.parametrize("name", ["f2", "a3", "m2f2x2"])
def test_zero_modules_and_basis_actions_are_not_rebuilt(monkeypatch, name):
    a = corpus_algebra(name)
    first = zero_module(a)
    zeros = _counting(monkeypatch, modrep.Mat, "zeros")
    assert zero_module(a) is first and zeros == []
    for m in module_corpus(a, minimum=0):
        assert all(m.rho(a.basis_vec(i)) is m.action[i] for i in range(a.dim))
