import gc
import re
import weakref
from itertools import count
from pathlib import Path

import pytest

from test_laws import right_mult_oracle

import gorhom
from gorhom import algebra, frobenius, modrep
from gorhom.algebra import (
    Algebra,
    Quiver,
    cyclic_group_table,
    field_algebra,
    group_algebra,
    matrix_algebra,
    path_algebra,
    product_algebra,
    tensor_algebra,
    truncated_extension,
)
from gorhom.corpus import (ALGEBRA_NAMES, EXTENSION_NAMES, bad_module_for_counterexample,
                           corpus_algebra, corpus_extension, module_corpus)
from gorhom.errors import AlgebraMismatch, PreconditionFailed, PropertyViolation
from gorhom.exactlin import FieldSpec, Mat
from gorhom.frobenius import (
    Bimodule,
    BimodulePair,
    ExtensionPair,
    RingExtension,
    add_generation_holds,
    coinduce,
    column_bimodule,
    counterexample_product,
    extension_bimodule,
    faithfulness_report,
    frobenius_system,
    global_gdim_transfer,
    hom_to_regular,
    identity_extension,
    induce,
    is_frobenius_bimodule,
    is_frobenius_extension,
    load_bimodule,
    load_extension,
    product_pairs,
    projective_witness,
    restrict,
    restriction_bimodule,
    save_bimodule,
    save_extension,
    triangles_hold,
    tri_equiv_conditions,
    verify_gpd_transfer,
)
from gorhom.homology import gorenstein_profile, gpd, is_gorenstein_projective, star_module
from gorhom.modrep import (
    Module,
    cover_envelope,
    direct_sum,
    dual_hom,
    dual_module,
    hom_dim,
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
def f2():
    return field_algebra(F2)


@pytest.fixture(scope="module")
def f2c2():
    return group_algebra(cyclic_group_table(2), F2)


@pytest.fixture(scope="module")
def ext_f2_f2c2(f2, f2c2):
    emb = Mat(F2, [[1], [0]])  # 1 -> identity element of C2
    return RingExtension(f2, f2c2, emb)


@pytest.fixture(scope="module")
def ext_a2_trunc(a2):
    s, emb = truncated_extension(a2, 2)
    return RingExtension(a2, s, emb)


def test_induce_free_rank_one(ext_f2_f2c2, f2, f2c2):
    k = regular_module(f2)
    ind = induce(ext_f2_f2c2, k)
    assert ind.dim == 2
    assert is_isomorphic(ind, regular_module(f2c2)).verdict == "yes"


def test_induce_dimension_over_truncated(ext_a2_trunc, a2):
    for m in structural_modules(a2).simples:
        assert induce(ext_a2_trunc, m).dim == 2 * m.dim


def test_restrict_identity(a2):
    ext = identity_extension(a2)
    reg = regular_module(a2)
    res = restrict(ext, reg)
    assert res.dim == reg.dim
    assert all(res.action[i] == reg.action[i] for i in range(a2.dim))


def test_restrict_regular_of_truncation_is_free(ext_a2_trunc, a2):
    res = restrict(ext_a2_trunc, regular_module(ext_a2_trunc.total))
    free = direct_sum([regular_module(a2), regular_module(a2)])
    assert res.dim == 6
    assert is_isomorphic(res, free).verdict == "yes"


def test_coinduce_identity(a2):
    ext = identity_extension(a2)
    for m in structural_modules(a2).simples:
        co = coinduce(ext, m)
        assert is_isomorphic(co, m).verdict == "yes"


def test_coinduce_isomorphic_to_induce_when_frobenius(ext_f2_f2c2, f2):
    assert is_frobenius_extension(ext_f2_f2c2).verdict == "yes"
    k = regular_module(f2)
    assert is_isomorphic(coinduce(ext_f2_f2c2, k), induce(ext_f2_f2c2, k)).verdict == "yes"


def test_coinduce_dimension(ext_a2_trunc, a2):
    for m in structural_modules(a2).projectives:
        assert coinduce(ext_a2_trunc, m).dim == 2 * m.dim


def test_unit_counit_identity_extension(a2):
    pair = ExtensionPair(identity_extension(a2))
    reg = regular_module(a2)
    eta, eps = pair.unit(reg), pair.counit(reg)
    assert pair.check_triangles(reg, reg)
    assert eta.is_iso()
    assert eps.is_iso()


def test_unit_mono_counit_split(ext_f2_f2c2, f2, f2c2):
    k = regular_module(f2)
    reg_s = regular_module(f2c2)
    pair = ExtensionPair(ext_f2_f2c2)
    eta, eps = pair.unit(k), pair.counit(reg_s)
    assert pair.check_triangles(k, reg_s)
    assert eta.is_mono()
    assert eps.is_epi()
    # split epi: a section exists
    from gorhom.exactlin import solve

    sec = solve(eps.matrix, Mat.identity(F2, reg_s.dim)).particular
    assert sec is not None


def test_res_coind_triangles(ext_f2_f2c2, f2, f2c2):
    pair = BimodulePair(restriction_bimodule(ext_f2_f2c2))
    assert pair.check_triangles(regular_module(f2c2), regular_module(f2))


def _conjugated(m: Bimodule) -> Bimodule:
    """m written in the basis given by the columns of a unitriangular matrix."""
    p = Mat(m.left.field, [[int(j >= i) for j in range(m.dim)] for i in range(m.dim)])
    q = p.inverse()
    return Bimodule(m.left, m.right, m.dim, [q * a * p for a in m.left_action],
                    [q * a * p for a in m.right_action])


def _is_regular(m: Module) -> bool:
    """m is the regular module of its algebra: one object, as modules are
    interned by algebra and content."""
    return m is regular_module(m.algebra)


def _pair_bimodules(name: str) -> list:
    if name == "a2 x f2":
        return [pair.m for pair in product_pairs(corpus_algebra("a2"), corpus_algebra("f2"))]
    ext = corpus_extension(name)
    return [extension_bimodule(ext), restriction_bimodule(ext)]


@pytest.mark.parametrize("name", ["f2_f2c2", "a2_a2t2", "a2 x f2"])
def test_the_regular_shortcut_and_the_quotient_path_agree(name):
    # each pair bimodule has a side that is literally regular; in another
    # basis neither side is, so the tensors, the hom basis and the dual
    # basis are all found the general way, and the pairs must still agree
    for m in _pair_bimodules(name):
        conj = _conjugated(m)
        assert [_is_regular(side) for side in (m.as_left_module(),
                                               m.as_right_op_module())].count(True) == 1
        assert not _is_regular(conj.as_left_module())
        assert not _is_regular(conj.as_right_op_module())
        plain, moved = BimodulePair(m), BimodulePair(conj)
        corpus_a = module_corpus(plain.algebra_a, minimum=2)[:2]
        corpus_b = module_corpus(plain.algebra_b, minimum=2)[:2]
        for x in corpus_a:
            assert is_isomorphic(plain.apply_f(x), moved.apply_f(x)).verdict == "yes"
        for y in corpus_b:
            assert is_isomorphic(plain.apply_g(y), moved.apply_g(y)).verdict == "yes"
        assert triangles_hold(plain, corpus_a, corpus_b)
        assert triangles_hold(moved, corpus_a, corpus_b)


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_restriction_is_g_of_induction_and_f_of_coinduction(name):
    ext = corpus_extension(name)
    g, f = ExtensionPair(ext).apply_g, BimodulePair(restriction_bimodule(ext)).apply_f
    for y in module_corpus(ext.total):
        res = restrict(ext, y)
        assert g(y).algebra is f(y).algebra is ext.base
        assert g(y).action == f(y).action == res.action


def test_inclusion_extends_by_zero(f2, a2):
    for b, other in ((f2, a2), (a2, f2)):
        _, inc = product_pairs(b, other)
        for x in module_corpus(b, minimum=3):
            zeros = (Mat.zeros(F2, x.dim, x.dim),) * other.dim
            assert inc.apply_f(x).action == x.action + zeros


def test_every_pair_bimodule_is_frobenius(ext_f2_f2c2, f2, a2):
    pr, inc = product_pairs(f2, a2)
    for m in (extension_bimodule(ext_f2_f2c2), restriction_bimodule(ext_f2_f2c2), pr.m, inc.m):
        assert is_frobenius_bimodule(m).verdict == "yes"


def test_every_pair_names_itself_when_a_triangle_fails(ext_f2_f2c2, f2, a2, f2c2):
    ext = ext_f2_f2c2
    k, k_c2 = regular_module(f2), regular_module(f2c2)
    x_prod = regular_module(product_algebra(f2, a2))
    pr, inc = product_pairs(f2, a2)
    pairs = [(ExtensionPair(ext), k, k_c2), (BimodulePair(restriction_bimodule(ext)), k_c2, k),
             (BimodulePair(extension_bimodule(ext)), k, k_c2), (pr, x_prod, k),
             (inc, k, x_prod)]
    for pair, x, y in pairs:
        assert pair.check_triangles(x, y)
        unit = pair.unit
        pair.unit = lambda m, unit=unit: zero_hom(m, unit(m).target)
        with pytest.raises(PropertyViolation, match=re.escape(pair.name)):
            pair.check_triangles(x, y)


def test_frobenius_extension_identity(a2):
    assert is_frobenius_extension(identity_extension(a2)).verdict == "yes"


def test_frobenius_extension_truncated_cubed(f2):
    s, emb = truncated_extension(f2, 3)
    ext = RingExtension(f2, s, emb)
    v = is_frobenius_extension(ext)
    assert v.verdict == "yes"
    assert v.witness is not None and v.witness.is_iso()


def test_frobenius_extension_a2_is_not(f2, a2):
    emb = Mat.from_cols(F2, [a2.unit])
    ext = RingExtension(f2, a2, emb)
    v = is_frobenius_extension(ext)
    assert v.verdict == "no"
    assert v.obstruction is not None


def _field_into(name):
    a = corpus_algebra(name)
    f2 = corpus_algebra("f2")
    return RingExtension(f2, a, Mat.from_cols(F2, [a.unit]))


SYSTEM_CASES = ([(name, corpus_extension, "yes") for name in EXTENSION_NAMES]
                + [(name, _field_into, "yes") for name in ("nak2", "f2c2", "m2f2x2")]
                + [(name, _field_into, "no") for name in ("a2", "a3", "a2t2")])


@pytest.mark.parametrize("name, make, expected", SYSTEM_CASES)
def test_a_frobenius_system_exists_exactly_when_the_search_says_yes(name, make, expected):
    # the search is called directly, not through the verdict memo the two
    # routes share
    ext = make(name)
    search = frobenius._frobenius_search(extension_bimodule(ext), 0)
    assert search.verdict == expected
    assert (frobenius_system(ext) is not None) == (expected == "yes")
    v = is_frobenius_extension(ext)
    assert (v.verdict, v.obstruction) == (search.verdict, search.obstruction)
    if expected == "yes":
        assert v.witness.source is regular_module(ext.total)
        assert v.witness.target is coinduce(ext, regular_module(ext.base))
        assert v.witness.is_iso()


def _bumped(x, field):
    p = field.characteristic
    return (x + 1) % p if p else x + 1


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_a_corrupted_frobenius_system_is_refused(name):
    # every one-entry change of E breaks a bimodule law or an identity; over
    # a field base the y_i are the dual basis of the e_i under the form
    # (x, t) -> E(x·t), so every one-entry change of a y_i breaks one too
    ext = corpus_extension(name)
    e, ys, er = frobenius_system(ext)
    frobenius.check_frobenius_system(ext, e, ys)
    s = ext.total
    assert er == [e * right_mult_oracle(s, s.basis_vec(t)) for t in range(s.dim)]
    field = e.field
    for r in range(e.rows):
        for c in range(e.cols):
            rows = [list(row) for row in e.data]
            rows[r][c] = _bumped(rows[r][c], field)
            with pytest.raises(PropertyViolation):
                frobenius.check_frobenius_system(ext, Mat(field, rows), ys)
    if ext.base.dim == 1:
        for i, y in enumerate(ys):
            for j in range(len(y)):
                bad = list(ys)
                bad[i] = y[:j] + (_bumped(y[j], field),) + y[j + 1:]
                with pytest.raises(PropertyViolation):
                    frobenius.check_frobenius_system(ext, e, bad)


def test_frobenius_bimodule_trivial(f2):
    k = Bimodule(f2, f2, 1, [Mat.identity(F2, 1)], [Mat.identity(F2, 1)])
    assert is_frobenius_bimodule(k).verdict == "yes"


def test_frobenius_bimodule_from_extension(ext_f2_f2c2):
    bm = extension_bimodule(ext_f2_f2c2)
    assert is_frobenius_bimodule(bm).verdict == "yes"


def test_frobenius_bimodule_nonprojective_gate(f2, f2c2):
    # the trivial module k over F_2[C_2] is not projective on the left
    one = Mat.identity(F2, 1)
    # both group elements act as the identity on k
    left = [one, one]
    right = [one]
    bm = Bimodule(f2c2, f2, 1, left, right)
    v = is_frobenius_bimodule(bm)
    assert v.verdict == "no"
    assert "projective" in v.obstruction
    # a pair on it is built, and fails as no pair at its first use of G
    pair = BimodulePair(bm)
    assert pair.apply_f(regular_module(f2)).dim == 1
    for _ in range(2):
        with pytest.raises(PreconditionFailed, match="not projective as a left S-module"):
            tri_equiv_conditions(pair, [regular_module(f2)], [regular_module(f2c2)])


def test_projective_witness_dual_basis(f2c2):
    reg = regular_module(f2c2)
    db = projective_witness(reg)
    assert db is not None and len(db.elements) >= 1
    s = structural_modules(f2c2)
    assert projective_witness(s.simples[0]) is None


def test_functor_caches_never_answer_for_another_pair(f2, a2, f2c2):
    # A cache keyed on id(pair) or id(ext) alone, with nothing keeping that
    # object alive, handed a collected pair's module to a new pair that
    # reused its id: a module over the wrong algebra.
    f2x2 = product_algebra(f2, f2)
    reg_f2, reg_f2c2 = regular_module(f2), regular_module(f2c2)
    extensions = {f2: lambda: RingExtension(f2, f2c2, Mat(F2, [[1], [0]])),
                  f2c2: lambda: identity_extension(f2c2)}
    for trial in range(60):
        other = a2 if trial % 2 else f2x2
        assert product_pairs(f2, other)[0].apply_g(reg_f2).algebra.dim == 1 + other.dim
        base = f2 if trial % 2 else f2c2
        assert ExtensionPair(extensions[base]()).apply_g(reg_f2c2).algebra is base


def _counting(log, name, fn):
    def wrapper(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_second_application_builds_nothing(monkeypatch, ext_f2_f2c2, f2, a2, f2c2):
    k, reg_f2c2 = regular_module(f2), regular_module(f2c2)
    pr, _ = product_pairs(f2, a2)
    bim_pair = BimodulePair(extension_bimodule(ext_f2_f2c2))
    applications = [
        (ExtensionPair(ext_f2_f2c2).apply_f, k), (ExtensionPair(ext_f2_f2c2).apply_g, reg_f2c2),
        (bim_pair.apply_f, k), (bim_pair.apply_g, reg_f2c2),
        (BimodulePair(restriction_bimodule(ext_f2_f2c2)).apply_g, k),
        (pr.apply_f, regular_module(pr.algebra_a)), (pr.apply_g, k),
    ]
    built = []
    for name in ("Module", "quotient_module"):
        monkeypatch.setattr(frobenius, name, _counting(built, name, getattr(frobenius, name)))
    # every bimodule, checked or trusted, is set up by Bimodule._set
    monkeypatch.setattr(frobenius.Bimodule, "_set",
                        _counting(built, "Bimodule", frobenius.Bimodule._set))
    first = [apply(x) for apply, x in applications]
    assert built
    built.clear()
    assert all(apply(x) is out for (apply, x), out in zip(applications, first))
    assert built == []
    # induction and the pair's F share one bimodule and one tensor module
    ext = RingExtension(f2, f2c2, Mat(F2, [[1], [0]]))
    ind = induce(ext, k)
    assert "Bimodule" in built
    built.clear()
    assert ExtensionPair(ext).apply_f(k) is ind
    assert frobenius._tensor(extension_bimodule(ext), k).module is ind
    assert built == []


def _empty_every_cache() -> int:
    """Empty the `_cache` of every live gorhom object; the entries removed."""
    removed = 0
    for obj in gc.get_objects():
        cache = getattr(obj, "_cache", None)
        if type(obj).__module__.startswith("gorhom.") and isinstance(cache, dict):
            removed += len(cache)
            cache.clear()
    return removed


def test_clearing_every_cache_changes_no_result(ext_f2_f2c2, f2, a2, f2c2):
    # A cache entry may only save time: the triangle identities, units and
    # counits of all five pairs, covers, envelopes, stars and Gorenstein
    # verdicts come out the same from empty caches as from warm ones.
    ext = ext_f2_f2c2
    k, k_c2 = structural_modules(f2).simples[0], structural_modules(f2c2).simples[0]
    s_a2 = structural_modules(a2).simples[0]
    x_prod = regular_module(product_algebra(f2, a2))
    pr, inc = product_pairs(f2, a2)
    pairs = [(ExtensionPair(ext), k, k_c2), (BimodulePair(restriction_bimodule(ext)), k_c2, k),
             (BimodulePair(extension_bimodule(ext)), k, k_c2), (pr, x_prod, k), (inc, k, x_prod)]

    def results():
        out = []
        for pair, x, y in pairs:
            assert pair.check_triangles(x, y)
            out += [pair.unit(x).matrix, pair.counit(y).matrix]
        for m in (k_c2, s_a2):
            prof = gorenstein_profile(m.algebra)
            cover, cmap = cover_envelope(m)
            emap = dual_hom(cover_envelope(dual_module(m))[1])  # the envelope
            out += [cover.action, cmap.matrix, emap.target.action, emap.matrix]
            star, basis = star_module(m)
            out += [star.action, basis]
            out += [prof, is_gorenstein_projective(m, prof), gpd(m, prof)]
        return out

    first = results()
    assert _empty_every_cache() > 0
    assert results() == first


DATA = Path(gorhom.__file__).parent / "data"


def test_repeated_certification_retains_no_memory(retained_bytes):
    # S restricted to R is built once per extension; a fresh restriction
    # per call pinned every one of them in R's hom memo
    ext = load_extension(DATA / "a2_a2t2.ext")
    assert retained_bytes(lambda: is_frobenius_extension(ext), 5) < 1024


def _in_new_basis(bim, rebase, seed):
    """bim with both actions conjugated by the seeded T of rebase(left
    module, seed): a bimodule of new content, whose modules are new objects
    with no memos, since modules are interned by content."""
    t_inv = rebase(bim.as_left_module(), seed)[1]
    t = t_inv.inverse()
    return Bimodule(bim.left, bim.right, bim.dim, [t_inv * a * t for a in bim.left_action],
                    [t_inv * a * t for a in bim.right_action])


def _seeds_of_new_duals(bim, rebase, count_wanted):
    """The first count_wanted seeds whose _in_new_basis bimodules have two
    duals (Hom into the regular module on each side) of contents no earlier
    seed gave, so a certification in such a basis builds dual modules that
    none before it interned.  New bases need not give new duals: Hom_S(M, S)
    is fixed by the span of its hom basis, and many bases share a span."""
    seeds, seen = [], set()
    for seed in count(1):
        fresh = _in_new_basis(bim, rebase, seed)
        keys = [tuple(a.data for a in hom_to_regular(fresh, side)[0].as_tensor_module().action)
                for side in ("left", "right")]
        if seen.isdisjoint(keys):
            seeds.append(seed)
            if len(seeds) == count_wanted:
                return seeds
        seen.update(keys)


def test_certifying_fresh_bimodules_retains_no_memory(retained_bytes, in_new_basis):
    # the summand test memoizes Hom(A, q) on the long-lived regular module A
    # for q; an entry that outlived q held every fresh bimodule's module q
    # (about 10.7 KB a certification).  Each call's bimodule is in a basis
    # of its own, so its q is a new module
    bim, seeds = extension_bimodule(load_extension(DATA / "a2_a2t2.ext")), count(1)

    def certify_fresh():
        is_frobenius_bimodule(_in_new_basis(bim, in_new_basis, next(seeds)))

    assert retained_bytes(certify_fresh, 3) < 1024


def test_applying_fresh_pairs_to_the_regular_module_retains_no_memory(retained_bytes):
    # F(A) = M ⊗ A is memoized on the long-lived regular module A for M; an
    # entry that outlived M held every fresh pair's bimodule (about 11.1 KB
    # a call)
    bim = load_bimodule(DATA / "morita_col.bimod")

    def generate_fresh():
        fresh = Bimodule(bim.left, bim.right, bim.dim, bim.left_action, bim.right_action)
        assert add_generation_holds(BimodulePair(fresh), "f")

    assert retained_bytes(generate_fresh, 3) < 1024


def test_a_first_certification_keeps_only_its_witness(retained_bytes, in_new_basis):
    # the verdict memo keeps its witness, a hom between the two dual
    # modules, and the isomorphism search leaves no memo on them: keeping
    # the verdict costs no more than keeping the witness's matrices (with
    # the search's hom memos it cost 6-9 KB more).  Each call certifies the
    # bimodule in a basis that gives new duals, so its dual modules are new
    # objects, not ones an earlier call interned: a witness module seen
    # before and still alive would allocate less, and fails the test instead
    bim = extension_bimodule(load_extension(DATA / "a2_a2t2.ext"))
    # two measurements of a warm-up call and three batches of 3 calls
    seeds, kept, seen = iter(_seeds_of_new_duals(bim, in_new_basis, 20)), [], weakref.WeakSet()

    def first_certification():
        v = is_frobenius_bimodule(_in_new_basis(bim, in_new_basis, next(seeds)))
        assert v.witness.source not in seen and v.witness.target not in seen
        seen.update((v.witness.source, v.witness.target))
        return v

    def keep_verdict():
        kept.append(first_certification())

    def keep_matrices():
        w = first_certification().witness
        kept.append((w.source.action, w.target.action, w.matrix))

    overhead = retained_bytes(keep_verdict, 3) - retained_bytes(keep_matrices, 3)
    assert overhead < 1536


def test_the_functors_multiply_by_reading_the_regular_modules(monkeypatch):
    # coinduce, star_module and the two bimodules of an extension act by
    # multiplications read off the structure tables, the regular modules of
    # S and S^op, so building them multiplies no two elements; the loaded
    # extension has checked its embedding by multiplication already
    ext = load_extension(DATA / "a2_a2t2.ext")
    corpus = module_corpus(ext.base)
    calls = []
    mul_vec = Algebra.mul_vec
    monkeypatch.setattr(Algebra, "mul_vec", lambda *args: calls.append(args) or mul_vec(*args))
    for x in corpus:
        coinduce(ext, x)
        star_module(x)
    extension_bimodule(ext)
    restriction_bimodule(ext)
    assert calls == []


def test_second_certification_builds_nothing(monkeypatch, ext_f2_f2c2):
    # a Frobenius system certifies the extension, so no tensor module is
    # built; the verdict is memoized on the bimodule _S S_R and its seed, so
    # certifying again, as an extension or as that bimodule, is a lookup
    built = []
    as_tensor_module = Bimodule.as_tensor_module

    def counting(self):
        built.append(self)
        return as_tensor_module(self)

    monkeypatch.setattr(Bimodule, "as_tensor_module", counting)
    first = is_frobenius_extension(ext_f2_f2c2, seed=3)
    assert first.verdict == "yes" and built == []
    built.clear()
    assert is_frobenius_extension(ext_f2_f2c2, seed=3) is first
    assert is_frobenius_bimodule(extension_bimodule(ext_f2_f2c2), seed=3) is first
    assert built == []

def test_coinducing_fresh_modules_retains_no_memory(f2, ext_f2_f2c2, retained_bytes):
    # Hom_R(S, x) is taken out of a restriction built for the call, so no
    # long-lived module keeps a hom memo entry that pins x (that cost about
    # 2 KB a call); the bound leaves room for a few dozen bytes of noise.
    # Over the field all modules of one dimension have one content, so each
    # call's x takes a dimension of its own: a kept x would be found again
    # by the next call of its dimension, and retain nothing more.  Batches
    # of 7 calls keep every dimension under 25, as one batch of 20 did
    dims = count(3)
    assert retained_bytes(
        lambda: coinduce(ext_f2_f2c2, Module(f2, [Mat.identity(F2, next(dims))])), 7) < 100


def test_coinducing_along_fresh_extensions_retains_no_memory(f2, f2c2, ext_f2_f2c2,
                                                              retained_bytes):
    # Hom_R(S, x) is memoized on the long-lived x for the extension; an
    # entry kept after the extension dies holds it and the coinduced module
    k, emb = regular_module(f2), ext_f2_f2c2.embedding
    assert retained_bytes(lambda: coinduce(RingExtension(f2, f2c2, emb), k), 20) < 100


def is_frobenius_bimodule_of(ext):
    """The search's certification of the extension, as the bimodule _S S_R."""
    return is_frobenius_bimodule(extension_bimodule(ext))


@pytest.mark.parametrize("name, load, certify", [
    ("a2_a2t2.ext", load_extension, is_frobenius_bimodule_of),
    ("morita_col.bimod", load_bimodule, is_frobenius_bimodule),
])
def test_certification_computes_the_tensor_radical_once(monkeypatch, name, load, certify):
    # Both sides of the isomorphism the search certifies are modules over
    # S (x) R^op, which is built once per pair of factors with its
    # closed-form radical, so the generic computation never runs on it.
    kinds, built = [], []
    generic, tensor = algebra._radical_generic, algebra._tensor_algebra

    def counting(a):
        kinds.append(a.provenance.get("kind"))
        return generic(a)

    def building(*args):
        built.append(args[-1]["kind"])
        return tensor(*args)

    monkeypatch.setattr(algebra, "_radical_generic", counting)
    monkeypatch.setattr(algebra, "_tensor_algebra", building)
    obj = load(DATA / name)
    assert certify(obj).verdict == "yes"
    assert built == ["tensor"] and "tensor" not in kinds
    kinds.clear()
    built.clear()
    assert certify(obj).verdict == "yes"
    assert kinds == [] and built == []


def test_certifying_a_loaded_extension_checks_no_inherited_law(monkeypatch):
    # S (x) R^op, the opposites and the tensor modules of the two duals are
    # built from checked algebras and bimodules and inherit their laws; the
    # isomorphism obstruction reads the radical series in m's coordinates
    ext = load_extension(DATA / "a2_a2t2.ext")
    algebras, modules, submodules = [], [], []
    check_algebra, check_module, submodule = Algebra._validate, Module._validate, modrep.submodule
    monkeypatch.setattr(Algebra, "_validate", lambda a: algebras.append(a) or check_algebra(a))
    monkeypatch.setattr(Module, "_validate", lambda m: modules.append(m) or check_module(m))
    assert is_frobenius_extension(ext).verdict == "yes"
    t = tensor_algebra(ext.base, ext.total.opposite())
    assert algebras == [] and [m for m in modules if m.algebra is t] == []
    x = regular_module(ext.base)
    coind, ind = coinduce(ext, x), induce(ext, x)
    monkeypatch.setattr(modrep, "submodule",
                        lambda *args: submodules.append(args) or submodule(*args))
    assert is_isomorphic(coind, ind).verdict == "yes"
    assert submodules == []


def test_faithfulness_identity(a2):
    pair = ExtensionPair(identity_extension(a2))
    s = structural_modules(a2)
    corpus = list(s.simples) + list(s.projectives) + [regular_module(a2)]
    report = faithfulness_report(pair, corpus)
    assert report.passed
    assert report.flags["unit_mono_all"]
    assert report.flags["add_generation_f_side"]
    assert report.flags["add_generation_g_side"]


def test_faithfulness_group_extension(ext_f2_f2c2, f2, f2c2):
    pair = ExtensionPair(ext_f2_f2c2)
    corpus = [regular_module(f2), regular_module(f2c2),
              structural_modules(f2c2).simples[0]]
    report = faithfulness_report(pair, corpus)
    assert report.passed


def test_faithfulness_fails_for_product_projection(f2, a2):
    pair, _ = product_pairs(f2, a2)
    product = pair.algebra_a
    s_prod = structural_modules(product)
    s_a2 = structural_modules(a2)
    # embed the non-GP simple S1 of A2 as (0, S1)
    s1 = next(m for m in s_a2.simples
              if hom_dim(next(p for p in s_a2.projectives if p.dim == 2), m))
    bad = Module(product, [Mat.zeros(F2, 1, 1)] + list(s1.action))
    corpus = list(s_prod.projectives) + [bad, regular_module(f2)]
    report = faithfulness_report(pair, corpus)
    assert not report.flags["unit_mono_all"]
    assert not report.flags["add_generation_g_side"]
    # the two characterizations of faithfulness must agree on the corpus
    assert report.flags["unit_mono_matches_add_generation"]


def test_gpd_transfer_group_extension(ext_f2_f2c2, f2c2):
    s = structural_modules(f2c2)
    corpus = [regular_module(f2c2), s.simples[0], s.projectives[0],
              direct_sum([s.simples[0], s.simples[0]])]
    report = verify_gpd_transfer(ext_f2_f2c2, corpus, bound=10)
    assert report.all_equal
    assert all(row["gpd_total"] == 0 for row in report.rows)


def test_gpd_transfer_truncated_a2(ext_a2_trunc):
    s_alg = ext_a2_trunc.total
    s = structural_modules(s_alg)
    corpus = list(s.simples) + list(s.projectives) + list(s.injectives) + \
        [regular_module(s_alg)]
    report = verify_gpd_transfer(ext_a2_trunc, corpus, bound=10)
    assert report.all_equal
    assert any(row["gpd_total"] == 1 for row in report.rows)


def test_global_gdim_transfer_f3c3():
    f3 = field_algebra(F3)
    f3c3 = group_algebra(cyclic_group_table(3), F3)
    emb = Mat(F3, [[1], [0], [0]])
    ext = RingExtension(f3, f3c3, emb)
    gr, gs, equal = global_gdim_transfer(ext, bound=10)
    assert (gr, gs, equal) == (0, 0, True)


def test_global_gdim_transfer_truncated(ext_a2_trunc):
    gr, gs, equal = global_gdim_transfer(ext_a2_trunc, bound=10)
    assert equal and gr == 1 and gs == 1


def test_counterexample_product(f2, a2):
    s_a2 = structural_modules(a2)
    s1 = next(m for m in s_a2.simples
              if hom_dim(next(p for p in s_a2.projectives if p.dim == 2), m))
    report = counterexample_product(f2, a2, s1, bound=10)
    assert report.passed
    assert report.pair_verified
    assert report.projected_is_gp and not report.object_is_gp


def test_counterexample_guards(f2, a2):
    s_a2 = structural_modules(a2)
    p = s_a2.projectives[0]
    with pytest.raises(PreconditionFailed):
        counterexample_product(f2, a2, p, bound=10)


@pytest.mark.parametrize("other", [name for name in ALGEBRA_NAMES if name != "a2"])
def test_a_bad_module_over_another_factor_is_a_mismatch(f2, other):
    # the designated module is an a2 simple, so every other factor is a
    # mismatch, named before any profile is computed
    with pytest.raises(AlgebraMismatch, match="^the designated module is not a module over B'$"):
        counterexample_product(f2, corpus_algebra(other), bad_module_for_counterexample())


def test_tri_equiv_identity_nakayama():
    q = Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
               relations=(((("b", "a"), 1),), ((("a", "b"), 1),)))
    nak = path_algebra(q, F2)
    pair = ExtensionPair(identity_extension(nak))
    s = structural_modules(nak)
    corpus = list(s.simples) + list(s.projectives)
    report = tri_equiv_conditions(pair, corpus, corpus, bound=10)
    assert report.both_projective_condition
    assert report.stable_gp_condition
    assert report.singularity_condition
    assert report.defect_condition
    assert report.stable_hom_f_match and report.stable_hom_g_match
    # and there genuinely are nonzero stable homs in this corpus
    from gorhom.modrep import stable_hom_dim

    assert any(stable_hom_dim(m, m) > 0 for m in corpus)


def test_tri_equiv_group_extension_fails(ext_f2_f2c2, f2, f2c2):
    s = structural_modules(f2c2)
    corpus_a = [regular_module(f2)]
    corpus_b = [s.simples[0], regular_module(f2c2)]
    pair = ExtensionPair(ext_f2_f2c2)
    report = tri_equiv_conditions(pair, corpus_a, corpus_b, bound=10)
    krow = next(r for r in report.counit_rows if r["object"] == "B dim 1")
    assert krow["ker_dim"] == 1
    assert not krow["ker_projective"]
    assert not report.both_projective_condition
    assert not report.stable_hom_g_match  # stable End(k) = 1 upstairs, 0 downstairs


def test_tri_equiv_morita_pair():
    r, _ = truncated_extension(field_algebra(F2), 2)
    s = matrix_algebra(r, 2)
    col = column_bimodule(r, 2, s)
    assert is_frobenius_bimodule(col).verdict == "yes"
    pair = BimodulePair(col)
    sr = structural_modules(r)
    ss = structural_modules(s)
    corpus_a = list(sr.simples) + [regular_module(r)]
    corpus_b = list(ss.simples) + list(ss.projectives)
    report = tri_equiv_conditions(pair, corpus_a, corpus_b, bound=10)
    assert report.both_projective_condition
    assert all(r_["cok_dim"] == 0 for r_ in report.unit_rows)
    assert all(r_["ker_dim"] == 0 for r_ in report.counit_rows)
    assert report.stable_hom_f_match and report.stable_hom_g_match


def test_extension_serialization_roundtrip(tmp_path, ext_a2_trunc):
    path = tmp_path / "ext.ext"
    save_extension(ext_a2_trunc, path)
    again = load_extension(path)
    assert again.base == ext_a2_trunc.base
    assert again.total == ext_a2_trunc.total
    assert again.embedding == ext_a2_trunc.embedding


def test_bimodule_serialization_roundtrip(tmp_path, ext_f2_f2c2):
    bm = extension_bimodule(ext_f2_f2c2)
    path = tmp_path / "s.bimod"
    save_bimodule(bm, path)
    again = load_bimodule(path)
    assert again.dim == bm.dim
    assert again.left_action == bm.left_action
    assert again.right_action == bm.right_action
