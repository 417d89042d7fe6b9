"""Each family of action matrices on one subspace comes from one
elimination: the submodule actions from one solve against the basis, and
the actions on a hom basis (Hom(m, A), coinduction, Hom into the regular
module over a bimodule) from one hom_coordinates solve.

The per-element loops they replaced live on here as oracles and must give
identical matrices; the work counts check that each family is one solve.
"""

import pytest

from test_laws import ALGEBRAS, _algebra

from gorhom import exactlin, modrep
from gorhom.corpus import (
    EXTENSION_NAMES,
    corpus_algebra,
    corpus_bimodule,
    corpus_extension,
    module_corpus,
)
from gorhom.exactlin import solve
from gorhom.frobenius import coinduce, extension_bimodule, hom_to_regular, restrict
from gorhom.homology import resolve, star_module
from gorhom.modrep import (
    cover_envelope,
    hom_coordinates,
    hom_space,
    regular_module,
    structural_modules,
    submodule,
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
    return [hom_coordinates([op * h.matrix if post else h.matrix * op for h in basis],
                            basis, field, "left the hom space")
            for op in ops]


def _right_mults(a) -> list:
    return [a.right_mult_matrix(a.basis_vec(i)) for i in range(a.dim)]


def _syzygy_inputs(a) -> list:
    """(cover, kernel basis) of every corpus module and its first syzygies:
    the submodules a resolution builds."""
    out = []
    for m in module_corpus(a, minimum=0):
        for x in (m,) + resolve(m, 2).syzygies:
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


# --- work counts ----------------------------------------------------------------


def _counting(monkeypatch, module, name) -> list:
    """A list that gains an entry for every call of module.name."""
    calls, real = [], getattr(module, name)

    def count(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("name", ["f2", "f2x3", "a3", "a2t2", "m2f2x2"])
def test_a_submodule_is_one_elimination_whatever_the_algebra_dimension(monkeypatch, name):
    a = corpus_algebra(name)
    reg = regular_module(a)
    embeddings = structural_modules(a).embeddings
    solves = _counting(monkeypatch, modrep, "solve")
    rrefs = _counting(monkeypatch, exactlin, "rref")
    for emb in embeddings:
        del solves[:], rrefs[:]
        submodule(reg, emb)
        assert (len(solves), len(rrefs)) == (1, 1)


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


@pytest.mark.parametrize("name", ["f2", "a3", "m2f2x2"])
def test_zero_modules_and_basis_actions_are_not_rebuilt(monkeypatch, name):
    a = corpus_algebra(name)
    first = zero_module(a)
    zeros = _counting(monkeypatch, modrep.Mat, "zeros")
    assert zero_module(a) is first and zeros == []
    for m in module_corpus(a, minimum=0):
        assert all(m.rho(a.basis_vec(i)) is m.action[i] for i in range(a.dim))
