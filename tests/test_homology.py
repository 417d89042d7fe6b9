import gc
import re
from itertools import count
from itertools import product as iter_product

import pytest

from test_families import _counting, lift_chain_map
from test_kupisch import NAKAYAMA, uniserial
from test_kupisch import nakayama as kupisch
from test_laws import resolution_defects, syzygy_stages

from gorhom import corpus, homology, modrep
from gorhom.algebra import (
    Quiver,
    algebra_from_json,
    algebra_to_json,
    field_algebra,
    path_algebra,
    truncated_extension,
)
from gorhom.errors import (
    AlgebraMismatch,
    InputShapeError,
    NoHomotopy,
    ProfileNotCertified,
    PropertyViolation,
)
from gorhom.exactlin import FieldSpec, Mat, rref
from gorhom.homology import (
    AtLeast,
    ComplexObj,
    ext_dim,
    ext_dim_injective,
    gid,
    gorenstein_profile,
    gpd,
    is_gorenstein_projective,
    load_complex,
    nullhomotopy,
    projective_dimension,
    resolve,
    save_complex,
    totalize_quasi_bicomplex,
)
from gorhom.modrep import (
    ModHom,
    Module,
    dual_module,
    hom_dim,
    hom_space,
    is_isomorphic,
    regular_module,
    structural_modules,
    zero_hom,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


@pytest.fixture(scope="module")
def a2():
    return path_algebra(Quiver(2, arrows=((0, 1, "a"),)), F2)


@pytest.fixture(scope="module")
def dual_numbers():
    return truncated_extension(field_algebra(F2), 2)[0]


@pytest.fixture(scope="module")
def nakayama():
    q = Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
               relations=(((("b", "a"), 1),), ((("a", "b"), 1),)))
    return path_algebra(q, F2)


@pytest.fixture(scope="module")
def two_loops():
    # k<x,y>/(all length-2 paths): local, radical square zero, not Gorenstein
    q = Quiver(1, arrows=((0, 0, "x"), (0, 0, "y")),
               relations=(((("x", "x"), 1),), ((("x", "y"), 1),),
                          ((("y", "x"), 1),), ((("y", "y"), 1),)))
    return path_algebra(q, F2)


def simple_at(a, label):
    s = structural_modules(a)
    # identify the simple whose projective cover has top at the given vertex label
    for si, emb in zip(s.simples, s.embeddings):
        if a.basis_labels.index(label) in rref(emb.transpose()).pivots:
            return si
    raise AssertionError("no simple found")


def test_resolution_of_projective_has_length_zero(a2):
    for p in structural_modules(a2).projectives:
        res = resolve(p, 5)
        assert res.complete and res.depth() == 0


def test_periodic_resolution_over_dual_numbers(dual_numbers):
    a = dual_numbers
    k = structural_modules(a).simples[0]
    res = resolve(k, 4)
    assert not res.complete
    assert len(res.terms) == 5
    reg = regular_module(a)
    for term in res.terms:
        assert term.dim == reg.dim == 2
    # Oracle: every differential is multiplication by x (rank 1), and every
    # syzygy is the simple again.
    for d in res.maps:
        assert d.rank() == 1
    for syz in syzygy_stages(k, 5)[1:]:
        assert syz.dim == 1
        assert is_isomorphic(syz, k).verdict == "yes"


def test_a_deeper_cached_resolution_is_cut_to_the_depth_asked(a2, dual_numbers):
    # a resolution reused from the cache must be the one a cold cache computes
    k = structural_modules(dual_numbers).simples[0]
    resolve(k, 6)
    res = resolve(k, 2)
    assert (len(res.terms), len(res.maps), res.complete) == (3, 2, False)
    s1 = simple_at(a2, "e1")
    assert resolve(s1, 5).complete
    res = resolve(s1, 0)
    assert (len(res.terms), res.complete) == (1, False)


def _counting_builds(monkeypatch, module, kind) -> list:
    """A list that gains the holder of each build that module memoizes
    under the tag kind, or a tag tuple that starts with it."""
    built, memo = [], module.memo

    def counting(holder, tag, other, build):
        if (tag[0] if isinstance(tag, tuple) else tag) != kind:
            return memo(holder, tag, other, build)
        return memo(holder, tag, other, lambda: built.append(holder) or build())

    monkeypatch.setattr(module, "memo", counting)
    return built


def test_a_deeper_resolution_walks_on_from_the_steps_built(monkeypatch):
    # over the cyclic Nakayama algebra with 6 vertices and radical square
    # zero, the syzygies of a simple are the 6 simples in turn: 6 distinct
    # modules, so each step of a depth-5 resolution has a cover of its own
    arrows = tuple((i, (i + 1) % 6, f"a{i}") for i in range(6))
    relations = tuple((((f"a{(i + 1) % 6}", f"a{i}"), 1),) for i in range(6))
    a = path_algebra(Quiver(6, arrows=arrows, relations=relations), F2)
    k = structural_modules(a).simples[0]
    resolve(k, 2)
    built = _counting_builds(monkeypatch, modrep, "cover")
    assert len(resolve(k, 5).terms) == 6
    assert len(built) == 3


def test_a_second_injective_resolution_builds_no_cover(monkeypatch, a2, in_new_basis):
    s1 = simple_at(a2, "e1")
    fresh = in_new_basis(regular_module(a2))[0]
    built = _counting_builds(monkeypatch, modrep, "cover")
    first = [ext_dim_injective(s1, fresh, i) for i in range(1, 4)]
    assert built
    built.clear()
    assert [ext_dim_injective(s1, fresh, i) for i in range(1, 4)] == first
    assert built == []


def test_a_warm_injective_pass_retains_no_memory(a2, retained_bytes):
    # gid, totalization and Ext from a coresolution all go through the dual;
    # a fresh dual per call pinned in the modules' memos grew every pass
    prof = gorenstein_profile(a2)
    mods = corpus.module_corpus(a2)

    def injective_pass():
        for m in mods:
            gid(m, prof)
            totalize_quasi_bicomplex(m, prof)
            ext_dim_injective(m, m, 1)

    assert retained_bytes(injective_pass, 3) < 1024


def test_ext_into_fresh_targets_retains_no_memory(a2, retained_bytes, in_new_basis):
    # Ext^i(s1, n) reads Hom(P_k, n) from the hom memo of the long-lived
    # terms of s1's resolution; an entry kept after n dies cost about 886 B.
    # Each call's n is A in a basis of its own, so no call finds the n of
    # an earlier one
    s1, reg, seeds = simple_at(a2, "e1"), regular_module(a2), count(1)

    def ext_fresh():
        n = in_new_basis(reg, next(seeds))[0]
        return [ext_dim(s1, n, i) for i in (1, 2)]

    assert retained_bytes(ext_fresh, 20) < 100


def test_totalizing_fresh_modules_retains_no_memory(a2, retained_bytes, in_new_basis):
    # each row is memoized on its injective term, a sum of projectives over
    # A^op; each call's module is A in a basis of its own, so no call finds
    # the memos of an earlier one, and a row kept per module would show here
    prof, reg, seeds = gorenstein_profile(a2), regular_module(a2), count(1)

    def totalize_fresh():
        return totalize_quasi_bicomplex(in_new_basis(reg, next(seeds))[0], prof).b0_pd

    assert retained_bytes(totalize_fresh, 20) < 100


def test_rows_outlive_the_fresh_modules_that_asked_for_them(monkeypatch, in_new_basis):
    # a new algebra object, so that every row is cold; each module is A in a
    # basis of its own and dies before the next is built, and the injective
    # sums of their coresolutions, with their rows, live on the algebra.  The
    # count keeps the tags only: a kept holder would outlive its module
    a = path_algebra(Quiver(2, arrows=((0, 1, "a"),)), F2)
    prof, reg = gorenstein_profile(a), regular_module(a)
    built, counts, memo = [], [], homology.memo

    def counting(holder, tag, other, build):
        if isinstance(tag, tuple) and tag[0] == "injective_sum":
            return memo(holder, tag, other, lambda: built.append(tag) or build())
        return memo(holder, tag, other, build)

    monkeypatch.setattr(homology, "memo", counting)
    for seed in range(1, 6):
        totalize_quasi_bicomplex(in_new_basis(reg, seed)[0], prof)
        gc.collect()
        counts.append(len(built))
    assert counts == [2] * 5


def test_each_injective_sum_row_is_built_once(monkeypatch):
    # new algebra objects, so that every row is cold; a row is asked for
    # again by each module whose coresolution has that term
    asked = _counting(monkeypatch, homology, "resolve_injective_sum")
    built = _counting_builds(monkeypatch, homology, "injective_sum")
    for name in corpus.GORENSTEIN_NAMES:
        a = algebra_from_json(algebra_to_json(corpus.corpus_algebra(name)))
        prof = gorenstein_profile(a)
        for m in corpus.module_corpus(a):
            totalize_quasi_bicomplex(m, prof)
    rows = {(id(q), depth) for q, depth in asked if q.dim}
    assert len(asked) > len(rows) == len(built)
    assert {id(q) for q in built} == {q_id for q_id, _depth in rows}


@pytest.mark.parametrize("name", ["a2", "a3", "nak2", "a2t2", "prod_f2_a2"])
def test_a_rebuilt_injective_sum_row_is_the_row(name):
    # the memo rule: deleting the entry changes no term and no map
    a = corpus.corpus_algebra(name)
    d = gorenstein_profile(a).gorenstein_dim
    for m in corpus.module_corpus(a):
        for q in resolve(dual_module(m), d + 1).terms:
            first = homology.resolve_injective_sum(q, d)
            del q._cache[("injective_sum", d)]
            again = homology.resolve_injective_sum(q, d)
            assert again is not first and again.complete == first.complete
            assert all(x is y for x, y in zip(again.terms, first.terms, strict=True))
            assert (again.augmentation,) + again.maps == (first.augmentation,) + first.maps


# `direction` only names the case: every resolution is projective
@pytest.mark.parametrize("direction, law", [("projective", "^resolution is not exact")])
def test_a_resolution_with_a_zero_map_is_rejected(dual_numbers, direction, law):
    # resolve proves exactness by construction; the test oracle rejects what
    # no construction could build
    k = structural_modules(dual_numbers).simples[0]
    res = resolve(k, 3)
    assert resolution_defects(res) == []
    maps = list(res.maps)
    maps[1] = Mat.zeros(F2, maps[1].rows, maps[1].cols)
    defects = resolution_defects(res._replace(maps=tuple(maps)))
    assert any(re.match(law, d) for d in defects)
    aug = Mat.zeros(F2, res.augmentation.rows, res.augmentation.cols)
    defects = resolution_defects(res._replace(augmentation=aug))
    assert any("must be epi" in d for d in defects)


def test_resolution_of_simple_over_a2(a2):
    s1 = simple_at(a2, "e1")
    res = resolve(s1, 5)
    assert res.complete and res.depth() == 1
    assert [t.dim for t in res.terms] == [2, 1]


def test_ext_zero_is_hom(a2):
    s = structural_modules(a2)
    for m in s.simples:
        for n in s.simples:
            assert ext_dim(m, n, 0) == hom_dim(m, n)


def test_ext1_between_a2_simples(a2):
    s1 = simple_at(a2, "e1")
    s2 = simple_at(a2, "e2")
    # Hand value: applying Hom(-, S2) to 0 -> P(2) -> P(1) -> S1 -> 0 gives
    # Hom(P(1), S2) = 0 -> Hom(P(2), S2) = k, so Ext^1 = 1.
    assert ext_dim(s1, s2, 1) == 1
    assert ext_dim_injective(s1, s2, 1) == 1
    assert ext_dim(s2, s1, 1) == 0


def test_ext_vanishing_against_regular_over_dual_numbers(dual_numbers):
    a = dual_numbers
    k = structural_modules(a).simples[0]
    reg = regular_module(a)
    # Oracle: the Hom complex of the periodic resolution is
    # Hom(A, A) --(-∘x)--> Hom(A, A) with rank-1 maps, hence H^i = 0.
    homs = hom_space(reg, reg)
    x = a.basis_vec(1)
    xmat = reg.rho(x)
    comp_ranks = Mat.from_cols(
        F2, [tuple((h * xmat).entry(i, j) for j in range(2) for i in range(2))
             for h in homs]).rank()
    assert len(homs) == 2 and comp_ranks == 1
    for i in range(1, 7):
        assert ext_dim(k, reg, i) == 0
        assert ext_dim_injective(k, reg, i) == 0


def test_ext_balance_on_sampled_pairs(a2, dual_numbers, nakayama):
    for a in (a2, dual_numbers, nakayama):
        s = structural_modules(a)
        mods = list(s.simples) + list(s.projectives) + list(s.injectives) + [regular_module(a)]
        for m in mods:
            for n in mods:
                for i in range(3):
                    assert ext_dim(m, n, i) == ext_dim_injective(m, n, i)


def test_fin_dimension(a2, dual_numbers):
    s1 = simple_at(a2, "e1")
    assert projective_dimension(s1, 10) == 1
    for p in structural_modules(a2).projectives:
        assert projective_dimension(p, 10) == 0
    k = structural_modules(dual_numbers).simples[0]
    assert projective_dimension(k, 8) == AtLeast(8)


def test_profile_of_field():
    prof = gorenstein_profile(field_algebra(F2), 10)
    assert prof.max_pd_injective == 0 and prof.max_id_projective == 0
    assert prof.gorenstein_dim == 0


def test_profile_of_dual_numbers(dual_numbers, in_new_basis):
    # self-injective: the dual of the regular module is the regular module
    reg = regular_module(dual_numbers)
    dd = dual_module(reg)
    # the same structure over the same (commutative) algebra, in a new basis
    back = in_new_basis(Module(dual_numbers, dd.action))[0]
    assert is_isomorphic(back, reg).verdict == "yes"
    prof = gorenstein_profile(dual_numbers, 10)
    assert prof.gorenstein_dim == 0


def test_profile_of_a2(a2):
    prof = gorenstein_profile(a2, 10)
    assert prof.max_pd_injective == 1
    assert prof.max_id_projective == 1
    assert prof.gorenstein_dim == 1


def test_profile_of_nakayama(nakayama):
    prof = gorenstein_profile(nakayama, 10)
    assert prof.gorenstein_dim == 0


def test_profile_of_two_loops_not_certified(two_loops):
    prof = gorenstein_profile(two_loops, 4)
    assert not prof.certified


def test_gp_projective_always_yes(a2, two_loops):
    for a in (a2, two_loops):
        prof = gorenstein_profile(a, 4)
        for p in structural_modules(a).projectives:
            assert is_gorenstein_projective(p, prof).verdict == "yes"


def test_gp_simple_over_dual_numbers(dual_numbers):
    prof = gorenstein_profile(dual_numbers, 10)
    k = structural_modules(dual_numbers).simples[0]
    assert is_gorenstein_projective(k, prof).verdict == "yes"


def test_gp_simple_over_a2_is_no(a2):
    prof = gorenstein_profile(a2, 10)
    s1 = simple_at(a2, "e1")
    v = is_gorenstein_projective(s1, prof)
    assert v.verdict == "no"
    reg = regular_module(a2)
    assert ext_dim(s1, reg, 1) > 0


def test_gp_unknown_at_depth(two_loops):
    prof = gorenstein_profile(two_loops, 4)
    k = structural_modules(two_loops).simples[0]
    v = is_gorenstein_projective(k, prof)
    # Ext^i(k, A) != 0 for rad-square-zero: certified no
    assert v.verdict == "no"


def test_total_reflexivity_at_the_gp_window_is_ext_vanishing():
    # over a certified d-Gorenstein algebra, m is Gorenstein projective iff
    # Ext^i(m, A) = 0 for 1 <= i <= d, and iff it is totally reflexive
    not_gp = 0
    for name in corpus.GORENSTEIN_NAMES:
        a = corpus.corpus_algebra(name)
        d = gorenstein_profile(a).gorenstein_dim
        reg = regular_module(a)
        for m in corpus.module_corpus(a):
            if all(ext_dim(m, reg, i) == 0 for i in range(1, d + 1)):
                homology._totally_reflexive_check(m, max(1, 2 * d))
            else:
                not_gp += 1
                with pytest.raises(PropertyViolation, match="evaluation to the double star"):
                    homology._totally_reflexive_check(m, max(1, 2 * d))
    assert not_gp == 10


def _a2t2_gp_simple() -> Module:
    """A Gorenstein projective, non-projective simple over a new copy of
    the 1-Gorenstein algebra a2t2: 1-dimensional over F_2, it has no other
    basis, so only a new algebra object makes it a new module, with no
    memos."""
    a = truncated_extension(corpus.corpus_algebra("a2"), 2)[0]
    return Module(a, corpus.module_corpus(corpus.corpus_algebra("a2t2"))[1].action)


@pytest.mark.parametrize("side", ["m", "Hom(m, A)"])
@pytest.mark.parametrize("degree", [1, 2])
def test_the_reflexivity_check_names_the_side_and_degree_that_failed(monkeypatch, side, degree):
    m = _a2t2_gp_simple()
    homology._totally_reflexive_check(m, 3)
    bad = m if side == "m" else homology.star_module(m)[0]
    real = homology.ext_dim
    monkeypatch.setattr(homology, "ext_dim",
                        lambda x, n, i: 1 if (x is bad and i == degree) else real(x, n, i))
    law = re.escape(f"Ext^{degree}({side}, A) has dimension 1")
    with pytest.raises(PropertyViolation, match=law):
        homology._totally_reflexive_check(m, 3)


def test_a_gp_yes_dualizes_only_the_module_and_its_dual(monkeypatch):
    m = _a2t2_gp_simple()
    prof = gorenstein_profile(m.algebra)
    starred = []
    real = homology.star_module
    monkeypatch.setattr(homology, "star_module", lambda x: starred.append(x) or real(x))
    assert is_gorenstein_projective(m, prof).verdict == "yes"
    star_m = real(m)[0]
    assert {id(x) for x in starred} == {id(m), id(star_m)}


def test_gpd_values(a2, dual_numbers):
    prof_a2 = gorenstein_profile(a2, 10)
    s1 = simple_at(a2, "e1")
    assert gpd(s1, prof_a2) == 1
    assert projective_dimension(s1, 10) == 1  # matches pd when pd is finite
    for p in structural_modules(a2).projectives:
        assert gpd(p, prof_a2) == 0
    prof_d = gorenstein_profile(dual_numbers, 10)
    k = structural_modules(dual_numbers).simples[0]
    assert gpd(k, prof_d) == 0


def test_gid_values(a2, dual_numbers):
    prof_a2 = gorenstein_profile(a2, 10)
    s = structural_modules(a2)
    for i_mod in s.injectives:
        assert gid(i_mod, prof_a2) == 0
    k = structural_modules(dual_numbers).simples[0]
    assert gid(k, gorenstein_profile(dual_numbers, 10)) == 0
    s2 = simple_at(a2, "e2")
    assert gid(s2, prof_a2) == 1
    assert projective_dimension(dual_module(s2), 10) == 1


def test_gpd_tests_only_the_syzygy_at_the_ext_support(monkeypatch):
    # a new k223 algebra object, so none of its modules has a memo yet; the
    # uniserial (0, 1) has gpd 3, and a search for the first Gorenstein
    # projective syzygy tested all four of m, Ω^1 m, Ω^2 m and Ω^3 m
    a = path_algebra(NAKAYAMA["k223"][0], F2)
    prof = gorenstein_profile(a)
    m = uniserial(a, 0, 1)
    tested = _counting(monkeypatch, homology, "_is_gp_uncached")
    assert gpd(m, prof) == 3
    assert [x for x, _prof in tested] == [syzygy_stages(m, 3)[3]]


def _counting_homs(monkeypatch) -> list:
    """A list that gains an entry for every ModHom built, checked or not."""
    built, trusted, check = [], modrep.ModHom._trusted, modrep.ModHom.__post_init__
    monkeypatch.setattr(modrep.ModHom, "_trusted",
                        classmethod(lambda _cls, *args: built.append(args) or trusted(*args)))
    monkeypatch.setattr(modrep.ModHom, "__post_init__", lambda f: built.append(f) or check(f))
    return built


def test_hom_bases_lifts_and_resolutions_build_no_map(monkeypatch, a2):
    # covers and syzygy inclusions are maps, built once per module: they are
    # built first, with every stage held, so that what is counted is the hom
    # bases, the lifts (identity lifts along each differential) and the
    # resolutions alone
    mods = corpus.module_corpus(a2, minimum=0)
    _held = [syzygy_stages(m, 4) for m in mods]
    built = _counting_homs(monkeypatch)
    for m in mods:
        res = resolve(m, 3)
        for src, n in iter_product((m,) + res.terms, mods):
            hom_space(src, n)
        for k, t in enumerate(res.terms):
            d = res.map_from(k)
            assert modrep.factor_through(t, t, d, d) is not None
    assert built == []


def test_a_totalization_row_makes_one_direct_sum_per_term(monkeypatch):
    # a new a2 object, so no row is memoized; the modules and results are
    # held, so that a row is built once.  A row sums its parts' terms, one
    # direct_sum each, and nothing else
    a = algebra_from_json(algebra_to_json(corpus.corpus_algebra("a2")))
    prof = gorenstein_profile(a)
    mods = corpus.module_corpus(a, minimum=0)
    sums = _counting(monkeypatch, homology, "direct_sum")
    rows, row = [], homology.resolve_injective_sum

    def counted_row(q, depth):
        before = len(sums)
        rows.append((q, row(q, depth), len(sums) - before))
        return rows[-1][1]

    monkeypatch.setattr(homology, "resolve_injective_sum", counted_row)
    _held = [totalize_quasi_bicomplex(m, prof) for m in mods]
    seen = set()
    for q, r, n in rows:
        # a repeated term is a memo hit; past the coresolution q is zero
        assert n == (0 if id(r) in seen or not q.dim else len(r.terms)), (q, r)
        seen.add(id(r))
    assert len(seen) > 1


def test_a_repeated_ext_solves_nothing(monkeypatch, a2, in_new_basis):
    s1, n = simple_at(a2, "e1"), in_new_basis(regular_module(a2))[0]
    first = [ext_dim(s1, n, i) for i in (1, 2)]
    deltas = _counting(monkeypatch, homology, "generator_delta")
    assert [ext_dim(s1, n, i) for i in (1, 2)] == first
    assert deltas == []


def test_ext_builds_no_hom_basis(monkeypatch):
    # a new a2 object, so that A has no memo yet: Ext^1(s1, A) reads the
    # maps of s1's resolution at their generators, in e_j·A
    a = algebra_from_json(algebra_to_json(corpus.corpus_algebra("a2")))
    s1, reg = corpus.module_corpus(a)[0], regular_module(a)
    homs = [_counting(monkeypatch, x, "hom_space") for x in (modrep, homology)]
    assert ext_dim(s1, reg, 1) == 1
    assert homs == [[], []]
    assert not [key for key in reg._cache if isinstance(key, tuple) and key[0] == "yoneda"]


def test_ext_into_and_out_of_the_zero_module_vanishes(a2):
    zero = homology.zero_module(a2)
    for m in corpus.module_corpus(a2):
        for i in (1, 2):
            assert ext_dim(m, zero, i) == ext_dim(zero, m, i) == 0
            assert ext_dim_injective(m, zero, i) == ext_dim_injective(zero, m, i) == 0


def test_ext_rejects_modules_over_unequal_algebras(a2):
    # a projective has no Ext in degree 1, but the algebras are still compared
    f2 = field_algebra(F2)
    for m in structural_modules(a2).projectives + structural_modules(a2).simples:
        with pytest.raises(AlgebraMismatch, match="^Ext requires modules over one algebra"):
            ext_dim(m, regular_module(f2), 1)


@pytest.mark.parametrize("call", [gpd, gid, is_gorenstein_projective, totalize_quasi_bicomplex])
def test_a_profile_serves_only_modules_over_its_algebra(a2, call):
    f2_profile = gorenstein_profile(corpus.corpus_algebra("f2"))
    with pytest.raises(AlgebraMismatch, match="^the module is not over the algebra of the "):
        call(simple_at(a2, "e1"), f2_profile)


def test_lift_identity_chain_map(a2):
    s1 = simple_at(a2, "e1")
    res = resolve(s1, 4)
    lift = lift_chain_map(Mat.identity(F2, s1.dim), res, res)
    # any valid lift commutes with differentials and augmentations
    assert res.augmentation * lift[0] == res.augmentation
    for k in range(len(res.maps)):
        assert res.maps[k] * lift[k + 1] == lift[k] * res.maps[k]


def test_lift_zero_chain_map(a2):
    s1 = simple_at(a2, "e1")
    s2 = simple_at(a2, "e2")
    res1 = resolve(s1, 4)
    res2 = resolve(s2, 4)
    lift = lift_chain_map(Mat.zeros(F2, s2.dim, s1.dim), res1, res2)
    assert (res2.augmentation * lift[0]).is_zero()


def test_lift_of_coresolution_differential(a2):
    s2 = simple_at(a2, "e2")
    # the first differential I^0 -> I^1 of the injective coresolution of s2
    dres = resolve(dual_module(s2), 2)
    d0 = dres.maps[0].transpose()
    r0 = resolve(dual_module(dres.terms[0]), 3)
    r1 = resolve(dual_module(dres.terms[1]), 3)
    lift = lift_chain_map(d0, r0, r1)
    assert r1.augmentation * lift[0] == d0 * r0.augmentation
    for k in range(min(len(r0.maps), len(r1.maps))):
        assert r1.maps[k] * lift[k + 1] == lift[k] * r0.maps[k]


def test_nullhomotopy_of_zero_map(a2):
    s1 = simple_at(a2, "e1")
    res = resolve(s1, 3)
    s = nullhomotopy([None] * len(res.terms), res, res)
    assert all(mat.is_zero() for mat in s)


def test_nullhomotopy_of_lifted_zero(dual_numbers):
    k = structural_modules(dual_numbers).simples[0]
    res = resolve(k, 3)
    lift = lift_chain_map(Mat.zeros(F2, k.dim, k.dim), res, res)
    s = nullhomotopy(lift, res, res)
    assert len(s) == len(res.terms)


def test_nullhomotopy_identity_fails(dual_numbers):
    k = structural_modules(dual_numbers).simples[0]
    res = resolve(k, 3)
    ident = [Mat.identity(F2, t.dim) for t in res.terms]
    with pytest.raises(NoHomotopy):
        nullhomotopy(ident, res, res)


def test_totalize_projective_module(a2):
    prof = gorenstein_profile(a2, 10)
    p = structural_modules(a2).projectives[0]
    result = totalize_quasi_bicomplex(p, prof)
    assert result.witness.left.dim + p.dim == result.witness.middle.dim
    assert result.z0_verdict.verdict == "yes"
    assert result.gpd_bound_matches
    assert not result.quasi_bicomplex.verify_identities()


def test_totalize_self_injective_degeneration(dual_numbers):
    prof = gorenstein_profile(dual_numbers, 10)
    k = structural_modules(dual_numbers).simples[0]
    result = totalize_quasi_bicomplex(k, prof)
    # rows are concentrated at j = 0, so the total complex is the
    # coresolution itself and B^0 = 0
    assert all(j == 0 for (_i, j) in result.quasi_bicomplex.components
               if result.quasi_bicomplex.components[(_i, j)].dim)
    assert result.witness.left.dim == 0
    assert is_isomorphic(result.witness.middle, k).verdict == "yes"


def test_totalize_simple_over_a2(a2):
    prof = gorenstein_profile(a2, 10)
    s1 = simple_at(a2, "e1")
    result = totalize_quasi_bicomplex(s1, prof)
    assert result.total.cohomology_dim(0) == s1.dim
    assert result.total.cohomology_dim(-1) == 0
    assert result.total.cohomology_dim(1) == 0
    assert result.b0_pd == 0 or result.witness.left.dim == 0
    assert result.z0_verdict.verdict == "yes"
    assert result.gpd_bound_matches
    assert gpd(s1, prof) == 1


def test_totalize_requires_certificate(two_loops):
    prof = gorenstein_profile(two_loops, 3)
    k = structural_modules(two_loops).simples[0]
    with pytest.raises(ProfileNotCertified):
        totalize_quasi_bicomplex(k, prof)


def test_totalize_whole_structural_corpus(a2, dual_numbers, nakayama):
    for a in (a2, dual_numbers, nakayama):
        prof = gorenstein_profile(a, 10)
        s = structural_modules(a)
        for m in list(s.simples) + list(s.projectives) + list(s.injectives):
            result = totalize_quasi_bicomplex(m, prof)
            assert result.z0_verdict.verdict == "yes"
            assert result.gpd_bound_matches



# --- rows from the profile's resolutions --------------------------------------


@pytest.fixture(scope="module")
def cold_totalizations():
    """Totalize every module_corpus module of new copies of the Gorenstein
    corpus algebras and their opposites, and every indecomposable of new
    k32, k223 and k54 objects, so that no memo is warm: (module, profile,
    result, the holders of the "cover" and of the "is_gp" builds it made)
    for each."""
    pairs = []
    for name in corpus.GORENSTEIN_NAMES:
        a = algebra_from_json(algebra_to_json(corpus.corpus_algebra(name)))
        for b in (a, a.opposite()):
            pairs += [(m, gorenstein_profile(b)) for m in corpus.module_corpus(b, minimum=0)]
    for name in ("k32", "k223", "k54"):
        a = path_algebra(NAKAYAMA[name][0], F2)
        pairs += [(uniserial(a, *x), gorenstein_profile(a)) for x in kupisch(name)[2].modules()]
    done = []
    with pytest.MonkeyPatch.context() as mp:
        covers = _counting_builds(mp, modrep, "cover")
        tested = _counting_builds(mp, homology, "is_gp")
        for m, prof in pairs:
            covers.clear()
            tested.clear()
            result = totalize_quasi_bicomplex(m, prof)
            done.append((m, prof, result, list(covers), list(tested)))
    return done


def test_every_row_is_the_sum_of_the_injectives_resolutions(cold_totalizations):
    # the row of I^i = D(dres.term(i)) has the terms of I^i's own
    # resolution, its summands ordered by I^i's summands rather than by
    # their classes (over nak2, P_1 + P_0 where the cover of I_0 + I_1 is
    # P_0 + P_1), so the matrices may differ in basis
    for m, prof, *_ in cold_totalizations:
        d = prof.gorenstein_dim
        dres = resolve(dual_module(m), d + 1)
        for i in range(d + 2):
            row = homology.resolve_injective_sum(dres.term(i), d)
            direct = resolve(dual_module(dres.term(i)), d)
            assert (row.augmented, row.complete) == (direct.augmented, direct.complete)
            assert all(t._summands is not None for t in row.terms if t.dim)
            assert ([sorted(t._summands or ()) for t in row.terms]
                    == [sorted(t._summands or ()) for t in direct.terms]), (m, i)
            assert resolution_defects(row) == [], (m, i)


def test_a_projective_sum_is_its_own_cover_with_no_top(monkeypatch):
    # a new k223 algebra object, so the sum has no memo yet
    a = path_algebra(NAKAYAMA["k223"][0], F2)
    p0, _p1, p2 = structural_modules(a).projectives
    p = modrep.direct_sum([p2, p0, p2])
    tops = _counting(monkeypatch, modrep, "top_of")
    cover, cov = modrep.cover_envelope(p)
    assert tops == []
    assert cover is p and cov.matrix == Mat.identity(F2, p.dim)
    assert homology.syzygy(p)[0].dim == 0


def test_totalizing_covers_no_sum_of_injectives(cold_totalizations):
    # each row resolves the indecomposable injectives the profile resolved,
    # so no I^i with two or more summands is covered again
    assert any(covers for *_, covers, _tested in cold_totalizations)
    for m, _prof, _result, covers, _tested in cold_totalizations:
        assert not [h for h in covers
                    if h.algebra is m.algebra and len(dual_module(h)._summands or ()) >= 2], m


def test_z0_is_read_through_omega_when_b0_vanishes(cold_totalizations):
    # Z^0 -> M is then an isomorphism, so M's own memoized verdict serves;
    # a fresh test of Z^0 agrees with it
    read = [(m, prof, result, tested) for m, prof, result, _covers, tested in cold_totalizations
            if result.witness.left.dim == 0]
    assert read
    for m, prof, result, tested in read:
        assert not any(h is result.witness.middle and h is not m for h in tested), m
        assert homology._is_gp_uncached(result.witness.middle, prof) == result.z0_verdict


# (dim B^0, dim Z^0, pd B^0) of the witness 0 -> B^0 -> Z^0 -> M -> 0 for
# every module_corpus module, as the kron-system lifts produced them; all
# three algebras have Gorenstein dimension 1, so d_1 and d_2 are nontrivial
TOTALIZATION_WITNESSES = {
    "a2": [(1, 2, 0), (0, 1, 0), (0, 2, 0), (0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 3, 0),
           (0, 1, 0)],
    "a3": [(2, 3, 0), (1, 2, 0), (0, 1, 0), (0, 3, 0), (0, 2, 0), (0, 1, 0), (2, 3, 0),
           (1, 3, 0), (0, 3, 0), (0, 6, 0), (0, 2, 0), (0, 1, 0)],
    "prod_f2_a2": [(0, 1, 0), (1, 2, 0), (0, 1, 0), (0, 1, 0), (0, 2, 0), (0, 1, 0),
                   (0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 4, 0), (0, 1, 0)],
}


@pytest.mark.parametrize("name", sorted(TOTALIZATION_WITNESSES))
def test_totalization_witnesses_are_pinned(name):
    a = corpus.corpus_algebra(name)
    prof = gorenstein_profile(a)
    assert prof.gorenstein_dim == 1
    witnesses = []
    for m in corpus.module_corpus(a):
        result = totalize_quasi_bicomplex(m, prof)
        witnesses.append((result.witness.left.dim, result.witness.middle.dim, result.b0_pd))
    assert witnesses == TOTALIZATION_WITNESSES[name]

def test_complex_serialization_roundtrip(tmp_path, a2):
    s1 = simple_at(a2, "e1")
    res = resolve(s1, 3)
    comps = {-k: t for k, t in enumerate(res.terms)}
    diffs = {-(k + 1): ModHom(res.terms[k + 1], res.terms[k], d) for k, d in enumerate(res.maps)}
    c = ComplexObj(a2, comps, diffs)
    assert c.cohomology_dim(0) == s1.dim  # H^0 = coker of the last map
    path = tmp_path / "res.cpx"
    save_complex(c, path)
    c2 = load_complex(path)
    assert [c2.component(n).dim for n in c2.support()] == \
        [c.component(n).dim for n in c.support()]
    assert c2.cohomology_dim(0) == s1.dim


def test_a_differential_must_join_its_own_components(a2):
    # both simples of a2 have dimension 1, so only identity tells them apart
    s1, s2 = structural_modules(a2).simples
    with pytest.raises(InputShapeError):
        ComplexObj(a2, {0: s1, 1: s1}, {0: zero_hom(s2, s2)})
    with pytest.raises(InputShapeError):
        ComplexObj(a2, {0: s1}, {0: zero_hom(s1, s2)})  # degree 1 is the zero module
    assert ComplexObj(a2, {0: s1, 1: s2}, {0: zero_hom(s1, s2)}).cohomology_dim(0) == 1


def test_a_component_over_another_algebra_is_refused(a2):
    k = regular_module(field_algebra(F2))
    with pytest.raises(InputShapeError):
        ComplexObj(a2, {0: simple_at(a2, "e1"), 1: k}, {})


def test_gpd_equals_pd_when_pd_finite(a2, nakayama):
    # whenever the plain projective dimension is finite, it coincides with
    # the Gorenstein projective dimension
    for alg in (a2, nakayama):
        prof = gorenstein_profile(alg, 10)
        s = structural_modules(alg)
        for m in list(s.simples) + list(s.projectives) + list(s.injectives):
            pd = projective_dimension(m, 10)
            if isinstance(pd, int):
                assert gpd(m, prof) == pd


@pytest.mark.parametrize("char", [0, 3])
def test_totalize_sign_conventions_in_odd_and_zero_characteristic(char):
    # over F_2 every sign is invisible; characteristic 0 and 3 exercise the
    # alternating sign on the horizontal lifts and the homotopy bookkeeping
    from gorhom.algebra import truncated_extension

    field = FieldSpec(char)
    a2 = path_algebra(Quiver(2, arrows=((0, 1, "a"),)), field)
    t2, _ = truncated_extension(a2, 2)
    for alg in (a2, t2):
        prof = gorenstein_profile(alg, 10)
        assert prof.gorenstein_dim == 1
        s = structural_modules(alg)
        for m in list(s.simples) + list(s.injectives):
            result = totalize_quasi_bicomplex(m, prof)
            assert not result.quasi_bicomplex.verify_identities()
            assert result.z0_verdict.verdict == "yes"
            assert result.gpd_bound_matches
