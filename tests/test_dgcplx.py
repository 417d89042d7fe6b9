import pytest

from gorhom.algebra import Quiver, cyclic_group_table, field_algebra, group_algebra, path_algebra
from gorhom.dgcplx import (
    check_frobenius_pair_FU,
    componentwise_gp_check,
    functor_F,
    functor_U,
    is_contractible,
    shift_sigma,
)
from gorhom.errors import InputShapeError, PreconditionFailed
from gorhom.exactlin import FieldSpec, Mat
from gorhom.homology import ComplexObj, gorenstein_profile
from gorhom.modrep import (
    ModHom,
    Module,
    quotient_module,
    radical_submodule_basis,
    regular_module,
    structural_modules,
    submodule,
    zero_module,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


@pytest.fixture(scope="module")
def a2():
    return path_algebra(Quiver(2, arrows=((0, 1, "a"),)), F2)


@pytest.fixture(scope="module")
def f2c2():
    return group_algebra(cyclic_group_table(2), F2)


def stalk(m, degree=0):
    return ComplexObj(m.algebra, {degree: m}, {})


def test_functor_F_of_zero(a2):
    x = ComplexObj(a2, {}, {})
    fx = functor_F(x)
    assert all(fx.component(p).dim == 0 for p in fx.support())


def test_functor_F_of_stalk_field():
    k_alg = field_algebra(F2)
    k = regular_module(k_alg)
    fx = functor_F(stalk(k))
    # the complex [k --id--> k] in degrees 0, 1
    assert fx.component(0).dim == 1
    assert fx.component(1).dim == 1
    assert fx.differential(0).matrix == Mat.identity(F2, 1)
    assert fx.cohomology_dim(0) == 0 and fx.cohomology_dim(1) == 0


def test_functor_F_always_contractible(a2, f2c2):
    for alg in (a2, f2c2):
        s = structural_modules(alg)
        for m in list(s.simples) + list(s.projectives):
            x = ComplexObj(alg, {0: m, 1: m, 3: m}, {})
            ok, _homotopy = is_contractible(functor_F(x))
            assert ok
    # the canonical homotopy s(x, y) = (y, 0) certifies the stalk case by hand:
    # for F(k) = [k --id--> k] both composites with s = id are the identity
    k = regular_module(field_algebra(F2))
    fx = functor_F(stalk(k))
    d0 = fx.differential(0).matrix
    s_hand = Mat.identity(F2, 1)
    assert s_hand * d0 == Mat.identity(F2, 1)
    assert d0 * s_hand == Mat.identity(F2, 1)
    ok, _ = is_contractible(fx)
    assert ok


def test_functor_F_takes_only_graded_modules(a2):
    # F is defined on graded modules: a complex with a differential is refused
    p = structural_modules(a2).projectives[0]
    ident = ComplexObj(a2, {0: p, 1: p}, {0: ModHom(p, p, Mat.identity(F2, p.dim))})
    with pytest.raises(InputShapeError):
        functor_F(ident)
    assert functor_F(functor_U(ident)).component(1).dim == 2 * p.dim


def test_functor_U_keeps_components(a2):
    s = structural_modules(a2)
    x = ComplexObj(a2, {0: s.simples[0], 2: s.projectives[0]}, {})
    fx = functor_F(x)
    u = functor_U(fx)
    for p in fx.support():
        assert u.component(p).dim == x.component(p).dim + x.component(p - 1).dim


def test_shift_sigma_basics(a2):
    s = structural_modules(a2)
    x = ComplexObj(a2, {0: s.projectives[0], 1: s.simples[0]}, {})
    c = functor_F(x)
    sc = shift_sigma(c)
    assert sc.component(0).dim == c.component(1).dim
    s2 = shift_sigma(sc)
    for p in s2.support():
        assert s2.differential(p).matrix == c.differential(p + 2).matrix
    # cohomology shifts accordingly
    for p in range(c.lo - 2, c.hi + 1):
        assert sc.cohomology_dim(p) == c.cohomology_dim(p + 1)


def test_sigma_negates_differential_over_f3():
    f3 = field_algebra(F3)
    two = Module(f3, [Mat.identity(F3, 2)])
    d = ModHom(two, two, Mat(F3, [[0, 1], [0, 0]]))
    c = ComplexObj(f3, {0: two, 1: two}, {0: d})
    sc = shift_sigma(c)
    assert sc.differential(-1).matrix == Mat(F3, [[0, 2], [0, 0]])


def test_contractible_verdicts(a2):
    s = structural_modules(a2)
    z = ComplexObj(a2, {0: zero_module(a2)}, {})
    assert is_contractible(z)[0]
    p = s.projectives[0]
    ident = ComplexObj(a2, {0: p, 1: p}, {0: ModHom(p, p, Mat.identity(F2, p.dim))})
    ok, homotopy = is_contractible(ident)
    assert ok
    # d^0·s^1 = id on C^1 and s^1·d^0 = id on C^0: s^1 inverts the identity
    d0 = ident.differential(0).matrix
    assert d0 * homotopy[1] == Mat.identity(F2, p.dim) == homotopy[1] * d0
    stalk_c = stalk(s.simples[0])
    assert not is_contractible(stalk_c)[0]


def test_exact_non_split_complex_is_not_contractible(a2):
    # 0 -> rad P -> P -> top P -> 0 for the 2-dimensional indecomposable
    # projective P is exact, but P does not split, so no homotopy exists
    p = next(q for q in structural_modules(a2).projectives if q.dim == 2)
    rad = radical_submodule_basis(p)
    sub, incl = submodule(p, rad)
    top, proj = quotient_module(p, rad)
    c = ComplexObj(a2, {0: sub, 1: p, 2: top}, {0: incl, 1: proj})
    assert all(c.cohomology_dim(n) == 0 for n in range(-1, 4))
    assert is_contractible(c) == (False, None)


def test_check_frobenius_pair_empty_corpora():
    report = check_frobenius_pair_FU([], [])
    assert report.passed


def test_check_frobenius_pair_on_f2c2(f2c2):
    s = structural_modules(f2c2)
    reg = regular_module(f2c2)
    graded = [stalk(s.simples[0]), stalk(reg),
              ComplexObj(f2c2, {0: s.simples[0], 1: reg}, {})]
    complexes = [stalk(s.simples[0]), functor_F(graded[2])]
    report = check_frobenius_pair_FU(graded, complexes)
    assert report.passed, report.flags


def test_check_frobenius_pair_on_a2(a2):
    s = structural_modules(a2)
    graded = [ComplexObj(a2, {0: p}, {}) for p in s.projectives]
    graded.append(ComplexObj(a2, {0: s.simples[0], 1: s.simples[1]}, {}))
    complexes = [functor_F(g) for g in graded[:2]]
    report = check_frobenius_pair_FU(graded, complexes)
    assert report.passed, report.flags


def test_check_frobenius_pair_over_f3():
    f3c3 = group_algebra(cyclic_group_table(3), F3)
    s = structural_modules(f3c3)
    reg = regular_module(f3c3)
    graded = [ComplexObj(f3c3, {0: s.simples[0], 1: reg}, {})]
    complexes = [functor_F(graded[0]), stalk(s.simples[0])]
    report = check_frobenius_pair_FU(graded, complexes)
    assert report.passed, report.flags


def test_componentwise_gp_on_projective_complex(a2):
    s = structural_modules(a2)
    prof = gorenstein_profile(a2, 10)
    c = functor_F(ComplexObj(a2, {0: s.projectives[0]}, {}))
    report = componentwise_gp_check(c, prof)
    assert report.all_gp


def test_componentwise_gp_self_injective(f2c2):
    prof = gorenstein_profile(f2c2, 10)
    s = structural_modules(f2c2)
    c = ComplexObj(f2c2, {0: s.simples[0], 1: regular_module(f2c2)},
                   {0: ModHom(s.simples[0], regular_module(f2c2),
                              Mat(F2, [[1], [1]]))})
    report = componentwise_gp_check(c, prof)
    assert report.all_gp


def test_componentwise_gp_detects_failure(a2):
    prof = gorenstein_profile(a2, 10)
    s = structural_modules(a2)
    from gorhom.homology import projective_dimension

    s1 = next(m for m in s.simples if projective_dimension(m, 5) == 1)
    report = componentwise_gp_check(stalk(s1), prof)
    assert not report.all_gp
    assert report.per_degree[0] == "no"


def test_componentwise_gp_shift_invariance(a2, f2c2):
    for alg in (a2, f2c2):
        prof = gorenstein_profile(alg, 10)
        s = structural_modules(alg)
        c = functor_F(ComplexObj(alg, {0: s.simples[0], 1: s.projectives[0]}, {}))
        rep1 = componentwise_gp_check(c, prof)
        rep2 = componentwise_gp_check(shift_sigma(c), prof)
        assert rep1.all_gp == rep2.all_gp
        assert sorted(rep1.per_degree.values()) == sorted(rep2.per_degree.values())


def test_componentwise_gp_requires_certificate():
    q = Quiver(1, arrows=((0, 0, "x"), (0, 0, "y")),
               relations=(((("x", "x"), 1),), ((("x", "y"), 1),),
                          ((("y", "x"), 1),), ((("y", "y"), 1),)))
    bad = path_algebra(q, F2)
    prof = gorenstein_profile(bad, 3)
    s = structural_modules(bad)
    with pytest.raises(PreconditionFailed):
        componentwise_gp_check(stalk(s.simples[0]), prof)
