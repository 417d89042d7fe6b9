import gc
import random
import sys
import threading
from itertools import count, product as iter_product
from pathlib import Path

import pytest

from test_families import _counting, lift_chain_map
from test_laws import full_basis_hom_matrices

import gorhom
from gorhom import homology, modrep
from gorhom.algebra import (
    Quiver,
    cyclic_group_table,
    field_algebra,
    group_algebra,
    load_algebra,
    path_algebra,
    truncated_extension,
)
from gorhom.corpus import corpus_algebra, module_corpus
from gorhom.errors import AlgebraMismatch, NoHomotopy, PropertyViolation
from gorhom.exactlin import FieldSpec, Mat, kron, solve, vec
from gorhom.modrep import (
    EXHAUSTION_LIMIT,
    MAX_RANDOM_TRIALS,
    IsoVerdict,
    Module,
    ModHom,
    ShortExactSequence,
    column_space_basis,
    cover_envelope,
    direct_sum,
    dual_hom,
    dual_module,
    factor_through,
    hom_dim,
    hom_space,
    is_isomorphic,
    load_module,
    quotient_module,
    radical_submodule_basis,
    regular_module,
    save_module,
    socle_basis,
    stable_hom_dim,
    structural_modules,
    submodule,
    top_of,
    zero_hom,
    zero_module,
)

F2 = FieldSpec(2)


@pytest.fixture(scope="module")
def a2():
    return path_algebra(Quiver(2, arrows=((0, 1, "a"),)), F2)


@pytest.fixture(scope="module")
def f2c2():
    return group_algebra(cyclic_group_table(2), F2)


def test_regular_module_of_field():
    k = field_algebra(F2)
    assert regular_module(k).dim == 1


def test_regular_module_of_f2c2_is_indecomposable(f2c2):
    reg = regular_module(f2c2)
    assert reg.dim == 2
    # Oracle: End(reg) is local, i.e. every endomorphism over F_2 is either
    # nilpotent or invertible, and there is no nontrivial idempotent.
    homs = hom_space(reg, reg)
    for coeffs in iter_product(range(2), repeat=len(homs)):
        mat = Mat.zeros(F2, 2, 2)
        for h, c in zip(homs, coeffs):
            if c:
                mat = mat + h
        sq = mat * mat
        is_idem = sq == mat
        if is_idem and not mat.is_zero() and mat != Mat.identity(F2, 2):
            pytest.fail("found a nontrivial idempotent endomorphism")
        if not mat.is_invertible():
            power = mat * mat
            assert (power * power).is_zero() or power.is_zero() or mat.is_zero()


def test_regular_of_a2_decomposes_along_vertex_idempotents(a2):
    reg = regular_module(a2)
    s = structural_modules(a2)
    assert sorted(p.dim for p in s.projectives) == [1, 2]
    assert sum(p.dim for p in s.projectives) == reg.dim


def test_hom_from_regular_has_module_dimension(a2, f2c2):
    for a in (a2, f2c2):
        reg = regular_module(a)
        s = structural_modules(a)
        for m in list(s.simples) + list(s.projectives):
            assert hom_dim(reg, m) == m.dim


def test_hom_between_distinct_simples_vanishes(a2):
    s = structural_modules(a2)
    s1, s2 = s.simples
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0


def test_end_of_unique_simple_over_f2c2_by_exhaustion(f2c2):
    s = structural_modules(f2c2)
    (k,) = s.simples
    assert k.dim == 1
    # Oracle: enumerate every 1x1 matrix over F_2 and count intertwiners.
    count = 0
    for val in range(2):
        mat = Mat(F2, [[val]])
        if all(mat * k.action[i] == k.action[i] * mat for i in range(f2c2.dim)):
            count += 1 if val else 0
    assert count == 1
    assert hom_dim(k, k) == 1


def test_hom_space_mismatched_algebras(a2, f2c2):
    with pytest.raises(AlgebraMismatch):
        hom_space(regular_module(a2), regular_module(f2c2))


def test_factorization_of_zero_and_identity(a2):
    reg = regular_module(a2)
    for f, image_dim in ((zero_hom(reg, reg), 0),
                         (ModHom(reg, reg, Mat.identity(F2, reg.dim)), reg.dim)):
        image = column_space_basis(f.matrix)
        assert image.cols == image_dim
        assert submodule(reg, f.matrix.kernel_basis())[0].dim == reg.dim - image_dim
        assert quotient_module(reg, image)[0].dim == reg.dim - image_dim


def test_cokernel_of_projective_inclusion_is_simple(a2):
    s = structural_modules(a2)
    p1 = next(p for p in s.projectives if p.dim == 2)
    p2 = next(p for p in s.projectives if p.dim == 1)
    maps = hom_space(p2, p1)
    incl = next(h for h in maps if h.kernel_basis().cols == 0)
    cokernel = quotient_module(p1, column_space_basis(incl))[0]
    s1 = next(x for x in s.simples if hom_dim(x, top_of(p1)[0]))
    assert is_isomorphic(cokernel, s1).verdict == "yes"


def test_dual_module_basics(a2):
    z = zero_module(a2)
    assert dual_module(z).dim == 0
    reg = regular_module(a2)
    d = dual_module(reg)
    # D is built once per module and is an involution
    assert d.algebra is a2.opposite() and dual_module(reg) is d
    assert dual_module(d) is reg


def test_dual_is_exact(a2):
    s = structural_modules(a2)
    p1 = next(p for p in s.projectives if p.dim == 2)
    rad = radical_submodule_basis(p1)
    sub, incl = submodule(p1, rad)
    quot, proj = quotient_module(p1, rad)
    ShortExactSequence(sub, p1, quot, incl, proj)
    # dualize: arrows reverse
    ShortExactSequence(dual_module(quot), dual_module(p1), dual_module(sub),
                       dual_hom(proj), dual_hom(incl))


def test_dual_of_projective_is_envelope_of_its_socle(a2):
    s = structural_modules(a2)
    p1 = next(p for p in s.projectives if p.dim == 2)
    d = dual_module(p1)   # module over the opposite algebra
    soc = socle_basis(d)
    soc_mod, _ = submodule(d, soc)
    # the envelope is D of the projective cover of the dual
    env = dual_hom(cover_envelope(dual_module(soc_mod))[1]).target
    assert is_isomorphic(d, env).verdict == "yes"


def test_structural_modules_of_field():
    k = field_algebra(F2)
    s = structural_modules(k)
    assert [m.dim for m in s.simples] == [1]
    assert [m.dim for m in s.projectives] == [1]
    assert [m.dim for m in s.injectives] == [1]


def test_structural_modules_of_f2c2(f2c2):
    s = structural_modules(f2c2)
    assert [m.dim for m in s.simples] == [1]
    assert [m.dim for m in s.projectives] == [2]
    assert [m.dim for m in s.injectives] == [2]
    # self-injective: dual of regular is isomorphic to regular
    reg = regular_module(f2c2)
    assert is_isomorphic(dual_module(dual_module(reg)), reg).verdict == "yes"
    assert is_isomorphic(s.injectives[0], reg).verdict == "yes"


def test_structural_modules_of_a2(a2):
    s = structural_modules(a2)
    assert sorted(m.dim for m in s.simples) == [1, 1]
    assert sorted(m.dim for m in s.projectives) == [1, 2]
    assert sorted(m.dim for m in s.injectives) == [1, 2]


def test_cover_of_projective_is_iso(a2):
    s = structural_modules(a2)
    for p in s.projectives:
        _, cmap = cover_envelope(p)
        assert cmap.is_iso()


def test_cover_of_simple_over_a2(a2):
    s = structural_modules(a2)
    s1 = next(x for x in s.simples
              if hom_dim(next(p for p in s.projectives if p.dim == 2), x))
    cover, cmap = cover_envelope(s1)
    assert cover.dim == 2
    assert cmap.is_epi()
    # kernel of the cover lies inside rad(P)
    ker = cmap.matrix.kernel_basis()
    rad = radical_submodule_basis(cover)
    stacked = rad.hstack(ker)
    assert stacked.rank() == rad.rank()


def test_a_cold_cover_builds_no_top_module(monkeypatch, a2, in_new_basis):
    # the top is read through the annihilator of the radical: only the
    # simples, built once per algebra, are quotient modules
    m = in_new_basis(direct_sum(list(structural_modules(a2).simples)))[0]
    quotients = _counting(monkeypatch, modrep, "quotient_module")
    p, cov = cover_envelope(m)
    assert cov.is_epi() and p.dim > m.dim
    assert quotients == []


def test_a_sum_of_one_module_is_that_module(monkeypatch):
    mods = module_corpus(corpus_algebra("a2"), minimum=0)
    records = [m._summands for m in mods]
    blocks = _counting(monkeypatch, modrep, "block_matrix")
    assert all(direct_sum([m]) is m for m in mods)
    assert blocks == [] and [m._summands for m in mods] == records


def test_envelope_of_simple_over_f2c2_is_regular(f2c2):
    s = structural_modules(f2c2)
    (k,) = s.simples
    emap = dual_hom(cover_envelope(dual_module(k))[1])
    env = emap.target
    assert env.dim == 2
    assert emap.is_mono()
    # the image contains the socle
    img = emap.matrix
    assert img.hstack(socle_basis(env)).rank() == img.rank()
    assert is_isomorphic(env, regular_module(f2c2)).verdict == "yes"


def test_injectives_are_the_duals_of_the_opposite_projectives():
    # the same objects, not equal copies: both sides share their resolutions
    from gorhom.corpus import GORENSTEIN_NAMES, corpus_algebra

    for name in GORENSTEIN_NAMES:
        a = corpus_algebra(name)
        injectives = structural_modules(a).injectives
        op_projectives = structural_modules(a.opposite()).projectives
        assert len(injectives) == len(op_projectives)
        assert all(i is dual_module(p) for i, p in zip(injectives, op_projectives)), name


def test_stable_hom_vanishes_on_projectives(a2, f2c2):
    for a in (a2, f2c2):
        s = structural_modules(a)
        for p in s.projectives:
            for m in list(s.simples) + list(s.projectives):
                assert stable_hom_dim(p, m) == 0


def test_stable_end_of_simple_over_f2c2(f2c2):
    s = structural_modules(f2c2)
    (k,) = s.simples
    # Oracle: dim Hom(k, k) = 1; every composite k -> A -> k kills the
    # radical and lands in rad(A)·k = 0... enumerate the composites directly.
    reg = regular_module(f2c2)
    ups = hom_space(k, reg)
    downs = hom_space(reg, k)
    composites = {tuple((d * u).data) for u in ups for d in downs}
    assert composites == {((0,),)}
    assert stable_hom_dim(k, k) == 1


def test_stable_hom_over_semisimple_field():
    k = field_algebra(F2)
    reg = regular_module(k)
    assert stable_hom_dim(reg, reg) == 0


def test_is_isomorphic_reflexive(a2):
    reg = regular_module(a2)
    v = is_isomorphic(reg, reg)
    assert v.verdict == "yes"
    assert v.witness.is_iso()


def test_is_isomorphic_dimension_obstruction(a2):
    s = structural_modules(a2)
    p1 = next(p for p in s.projectives if p.dim == 2)
    p2 = next(p for p in s.projectives if p.dim == 1)
    assert is_isomorphic(p1, p2).verdict == "no"


def test_is_isomorphic_end_dimension_obstruction(f2c2):
    s = structural_modules(f2c2)
    (k,) = s.simples
    reg = regular_module(f2c2)
    two_k = direct_sum([k, k])
    v = is_isomorphic(two_k, reg)
    assert v.verdict == "no"
    assert v.obstruction == "hom dimensions differ: End(m)=4, End(n)=2, Hom=2"


def obstruction_first_isomorphism(m, n, seed=0):
    """is_isomorphic with the End-dimension and radical-series obstructions
    before the random trials, as it was written before the trials came
    first: the oracle for the search-first order."""
    if m.dim != n.dim:
        return IsoVerdict("no", obstruction=f"dimensions differ: {m.dim} vs {n.dim}")
    if m.dim == 0:
        return IsoVerdict("yes", witness=zero_hom(m, n))
    homs = hom_space(m, n)
    if not homs:
        return IsoVerdict("no", obstruction="Hom(m, n) = 0")
    d_end_m, d_end_n, d_hom = hom_dim(m, m), hom_dim(n, n), len(homs)
    if not (d_end_m == d_end_n == d_hom):
        return IsoVerdict(
            "no",
            obstruction=f"hom dimensions differ: End(m)={d_end_m}, End(n)={d_end_n}, Hom={d_hom}",
        )
    rm, rn = modrep._radical_series_dims(m), modrep._radical_series_dims(n)
    if rm != rn:
        return IsoVerdict("no", obstruction=f"radical series differ: {rm} vs {rn}")
    rng, p = random.Random(seed), m.algebra.field.characteristic
    for _ in range(MAX_RANDOM_TRIALS):
        if p:
            coeffs = [rng.randrange(p) for _ in homs]
        else:
            coeffs = [rng.randint(-3, 3) for _ in homs]
        cand = modrep._combine(homs, coeffs)
        if cand.is_invertible():
            return IsoVerdict("yes", witness=ModHom(m, n, cand))
    if p and p ** len(homs) <= EXHAUSTION_LIMIT:
        for coeffs in iter_product(range(p), repeat=len(homs)):
            cand = modrep._combine(homs, coeffs)
            if cand.is_invertible():
                return IsoVerdict("yes", witness=ModHom(m, n, cand))
        return IsoVerdict("no", obstruction="exhausted the hom space: no invertible element")
    return IsoVerdict("inconclusive")


def _verdict_record(v):
    return v.verdict, v.obstruction, None if v.witness is None else v.witness.matrix


@pytest.mark.parametrize("name", ["a2", "a3", "nak2", "f2c2", "a2t2"])
def test_search_first_isomorphism_agrees_with_obstructions_first(name, in_new_basis):
    # every ordered pair of the corpus and of its seeded new bases gets the
    # verdict, obstruction text and witness matrix of the old order
    mods = module_corpus(corpus_algebra(name), minimum=0)
    rebased = []
    for seed, m in enumerate(mods):
        try:
            rebased.append(in_new_basis(m, seed)[0])
        except AssertionError:   # every basis gives m itself
            pass
    for seed, (m, n) in enumerate(iter_product(mods + rebased, repeat=2)):
        assert (_verdict_record(is_isomorphic(m, n, seed % 3))
                == _verdict_record(obstruction_first_isomorphism(m, n, seed % 3)))


def test_search_first_isomorphism_keeps_each_obstruction():
    # P2 + P2 and S1 + S2 + P2 over A_3: equal End dimensions, so one
    # direction is decided by the radical series and the other by Hom
    s = structural_modules(corpus_algebra("a3"))
    p2 = s.projectives[1]
    m, n = direct_sum([p2, p2]), direct_sum([s.simples[0], s.simples[1], p2])
    k, reg = structural_modules(corpus_algebra("f2c2")).simples[0], regular_module(
        corpus_algebra("f2c2"))
    for x, y, obstruction in [
            (m, n, "radical series differ: (4, 2) vs (4, 1)"),
            (n, m, "hom dimensions differ: End(m)=4, End(n)=4, Hom=2"),
            (direct_sum([k, k]), reg, "hom dimensions differ: End(m)=4, End(n)=2, Hom=2")]:
        assert _verdict_record(is_isomorphic(x, y)) == ("no", obstruction, None)
        assert _verdict_record(obstruction_first_isomorphism(x, y)) == ("no", obstruction, None)


def test_a_yes_computes_no_obstruction(monkeypatch, in_new_basis):
    # the first random trial certifies the isomorphism: End(m), End(n) and
    # the radical series are never computed
    m = regular_module(corpus_algebra("a2t2"))
    n = in_new_basis(m, 1)[0]
    walks, solved = [], []
    series, solve_homs = modrep._radical_series_dims, modrep._hom_space_matrices
    monkeypatch.setattr(modrep, "_radical_series_dims",
                        lambda x: walks.append(x) or series(x))
    monkeypatch.setattr(modrep, "_hom_space_matrices",
                        lambda x, y: solved.append((x, y)) or solve_homs(x, y))
    assert is_isomorphic(m, n).verdict == "yes"
    assert walks == [] and [(x, y) for x, y in solved if x is y] == []


def test_factorization_dimension_bookkeeping(a2, f2c2):
    for a in (a2, f2c2):
        s = structural_modules(a)
        reg = regular_module(a)
        for m in list(s.simples) + [reg]:
            for h in hom_space(reg, m):
                image = column_space_basis(h)
                kernel = submodule(reg, h.kernel_basis())[0]
                assert kernel.dim + image.cols == reg.dim
                assert image.cols + quotient_module(m, image)[0].dim == m.dim


def test_intertwining_validation_fires(f2c2):
    reg = regular_module(f2c2)
    with pytest.raises(PropertyViolation):
        ModHom(reg, reg, Mat(F2, [[1, 1], [0, 0]]))


def test_module_serialization_roundtrip(tmp_path, a2):
    s = structural_modules(a2)
    p1 = next(p for p in s.projectives if p.dim == 2)
    path = tmp_path / "p1.mod"
    save_module(p1, path)
    again = load_module(path)
    assert again.dim == p1.dim
    assert is_isomorphic(again, p1).verdict == "yes"


def test_module_serialization_with_algebra_ref(tmp_path, a2):
    from gorhom.algebra import save_algebra

    save_algebra(a2, tmp_path / "a2.alg")
    reg = regular_module(a2)
    save_module(reg, tmp_path / "reg.mod", algebra_ref="a2.alg")
    again = load_module(tmp_path / "reg.mod")
    assert again.dim == 3


def test_homs_into_fresh_modules_retain_no_memory(a2, retained_bytes, in_new_basis):
    # Hom(A, n) is memoized on the long-lived regular module A for n; an
    # entry kept after n dies holds n and the hom basis.  Each call's n is A
    # in a basis of its own: a kept n of one content would be found again
    # by the next call of that content, and retain nothing more
    reg, seeds = regular_module(a2), count(1)
    assert retained_bytes(lambda: hom_space(reg, in_new_basis(reg, next(seeds))[0]), 20) < 100


def test_threads_storing_and_dropping_entries_keep_the_memo_consistent(a2, in_new_basis):
    # four threads store entries keyed by fresh modules on one holder while
    # the entries of the modules they free are deleted, from whichever
    # thread frees them: every answer is the one computed alone, and no
    # entry outlives its module.  The modules have content no long-lived
    # module has, so they die and are built again
    reg = regular_module(a2)
    acts = in_new_basis(reg)[0].action
    expected = hom_space(reg, Module(a2, acts))
    gc.collect()
    entries = len(reg._cache)
    answers = []

    def work():
        for _ in range(200):
            answers.append(hom_space(reg, Module(a2, acts)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(answers) == 800 and all(a == expected for a in answers)
    gc.collect()
    assert len(reg._cache) == entries


def test_idempotent_count_matches_top_multiplicities(a2, f2c2):
    # For basic constructor-built algebras, the idempotent count equals the
    # number of isomorphism classes of simples; in general it equals the
    # number of simple summands of the top of the regular module.
    from gorhom.algebra import field_algebra, matrix_algebra, truncated_extension

    basic = [a2, f2c2, truncated_extension(a2, 2)[0]]
    for alg in basic:
        s = structural_modules(alg)
        assert len(alg.idempotents) == len(s.simple_classes)
    m2 = matrix_algebra(truncated_extension(field_algebra(F2), 2)[0], 2)
    s = structural_modules(m2)
    assert len(m2.idempotents) == 2
    assert len(s.simple_classes) == 1
    top_reg, _ = top_of(regular_module(m2))
    rep = s.simples[s.simple_classes[0][0]]
    assert top_reg.dim == sum(len(cls) for cls in s.simple_classes) * rep.dim


def test_direct_sum_and_quotient_never_enter_the_coercing_constructor(monkeypatch):
    # Both lay out internal data that is canonical already: blocks and
    # slices of existing matrices, never a coercing Mat(...).
    cases = []
    for name in ("a2", "nak2", "f3c3", "q", "m2f2x2"):
        mods = module_corpus(corpus_algebra(name))
        cases.append((mods, [(m, radical_submodule_basis(m)) for m in mods]))
    calls = []
    coercing_init = Mat.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        coercing_init(self, *args, **kwargs)

    monkeypatch.setattr(Mat, "__init__", counting_init)
    for mods, quotients in cases:
        big = direct_sum(mods)
        assert big.dim == sum(m.dim for m in mods)
        for m, rad in quotients:
            quot, _ = quotient_module(m, rad)
            assert quot.dim == m.dim - rad.cols
    assert calls == []


def kron_factor_oracle(src, tgt, g, rhs) -> bool:
    """Whether some f: src -> tgt intertwines and has g·f = rhs, decided in
    the unknowns vec(f): the intertwining rows stacked on kron(I, g)."""
    field = src.algebra.field
    eye_s, eye_t = Mat.identity(field, src.dim), Mat.identity(field, tgt.dim)
    system, target = kron(eye_s, g), vec(rhs)
    for i in range(src.algebra.dim):
        rows = kron(src.action[i].transpose(), eye_t) - kron(eye_s, tgt.action[i])
        system = system.vstack(rows)
        target = target.vstack(Mat.zeros(field, rows.rows, 1))
    return solve(system, target).particular is not None


def recorded_factorizations(monkeypatch, run):
    """(src, tgt, g, rhs, result) of every factor_through call run makes
    through the homology layer."""
    calls = []

    def recording(src, tgt, g, rhs):
        calls.append((src, tgt, g, rhs, factor_through(src, tgt, g, rhs)))
        return calls[-1][-1]

    monkeypatch.setattr(homology, "factor_through", recording)
    run()
    monkeypatch.undo()
    return calls


def assert_agrees_with_kron_oracle(calls):
    for src, tgt, g, rhs, f in calls:
        assert kron_factor_oracle(src, tgt, g, rhs) == (f is not None)
        if f is not None:
            assert (f.rows, f.cols) == (tgt.dim, src.dim) and g * f == rhs


@pytest.mark.parametrize("name", ["a2", "nak2", "a2t2"])
def test_factor_through_agrees_with_the_kron_system_on_totalizations(monkeypatch, name):
    a = corpus_algebra(name)
    prof = homology.gorenstein_profile(a)
    calls = recorded_factorizations(monkeypatch, lambda: [
        homology.totalize_quasi_bicomplex(m, prof) for m in module_corpus(a)])
    assert calls and all(f is not None for *_, f in calls)
    assert any(not rhs.is_zero() for _, _, _, rhs, _ in calls)
    assert_agrees_with_kron_oracle(calls)


def test_factor_through_agrees_with_the_kron_system_when_inconsistent(monkeypatch):
    # the identity on a resolution of k over k[x]/x^2 is not null-homotopic
    k = structural_modules(truncated_extension(field_algebra(F2), 2)[0]).simples[0]
    res = homology.resolve(k, 3)
    ident = [Mat.identity(F2, t.dim) for t in res.terms]

    def run():
        with pytest.raises(NoHomotopy):
            homology.nullhomotopy(ident, res, res)

    calls = recorded_factorizations(monkeypatch, run)
    assert calls[-1][-1] is None
    assert_agrees_with_kron_oracle(calls)


@pytest.mark.parametrize("name", ["a2", "nak2", "a2t2", "m2f2x2"])
def test_maps_out_of_a_resolution_term_build_no_kron_system(monkeypatch, name, in_new_basis):
    # Hom out of a sum of structural projectives is found by Yoneda, so
    # neither hom_space nor factor_through (lifts) out of a resolution term
    # builds the intertwining system.  Each copy is m in a new basis, a new
    # module resolved cold; a 1-dimensional module over F_2 has no other
    # basis, so it is its own copy
    from gorhom import modrep

    a = corpus_algebra(name)
    mods = module_corpus(a, minimum=0)
    copies = [in_new_basis(m) if m.dim > 1 else (m, Mat.identity(a.field, m.dim))
              for m in mods]

    def no_kron(*_args):
        raise AssertionError("kron_difference called")

    monkeypatch.setattr(modrep, "kron_difference", no_kron)
    idems = a.idempotents
    for m, (copy, iso) in zip(mods, copies):
        res, res_copy = homology.resolve(m, 3), homology.resolve(copy, 3)
        for t in res.terms:
            # dim Hom(A·e, N) = dim e·N
            assert hom_dim(t, copy) == sum(copy.rho(idems[i]).rank() for i in t._summands)
        lifts = lift_chain_map(iso, res, res_copy)
        assert all(f.is_invertible() for f in lifts)


# --- interning ------------------------------------------------------------------


DATA = Path(gorhom.__file__).parent / "data"


def test_equal_content_over_one_algebra_object_is_one_module():
    a, b = load_algebra(DATA / "a2.alg"), load_algebra(DATA / "a2.alg")
    m = regular_module(a)
    assert Module(a, [Mat(a.field, x.data) for x in m.action]) is m
    n = Module(b, m.action)
    assert n is not m and n.action == m.action and n.algebra is b


def test_a_module_that_fails_its_checks_is_never_interned(a2):
    # the unit acts as 0, not the identity; the first failure, and the
    # module in its traceback, stay alive while the second is built
    bad = [Mat.identity(F2, 1)] * a2.dim
    with pytest.raises(PropertyViolation, match="unit") as first:
        Module(a2, bad)
    with pytest.raises(PropertyViolation, match="unit"):
        Module(a2, bad)
    assert first.value.__traceback__ is not None


def test_interning_fresh_modules_retains_no_memory(a2, retained_bytes, in_new_basis):
    reg, seeds = regular_module(a2), count(1)
    assert retained_bytes(lambda: in_new_basis(reg, next(seeds)), 20) < 100


def test_threads_building_one_content_get_checked_modules(a2, in_new_basis):
    reg = regular_module(a2)
    acts = in_new_basis(reg)[0].action
    expected = hom_space(reg, Module(a2, acts))
    built = []

    def work():
        for _ in range(50):
            m = Module(a2, acts)
            built.append((m.dim, m.action, m._summands, hom_space(reg, m)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert built == [(reg.dim, acts, None, expected)] * 200


@pytest.mark.parametrize("op", [False, True])
def test_projectives_of_one_content_keep_the_first_record(op):
    # A·E11 and A·E22 have the same action matrices, so they are one module
    # with one record; Hom out of it is the kron system's, whichever record
    a = corpus_algebra("m2f2x2")
    a = a.opposite() if op else a
    s = structural_modules(a)
    assert s.projectives[0] is s.projectives[1] and s.projectives[1]._summands == (0,)
    for p, n in iter_product(s.projectives, module_corpus(a, minimum=0)):
        assert list(hom_space(p, n)) == full_basis_hom_matrices(p, n, a.generators())
