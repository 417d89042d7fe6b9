"""Gorenstein dimension 2, 3 and 4 against the Kupisch-series oracle.

The corpus algebras all have Gorenstein dimension 0 or 1.  These cyclic
Nakayama algebras over F_2 reach gpd 2, 3 and 4, total-reflexivity windows
4 and 8, and the higher maps d_3, d_4 and d_5 of the totalization;
kupisch.py predicts pd, gpd and the GP verdict of every indecomposable
from the Kupisch series alone, and so gpd of its induced module over
A[x]/(x²), which the paper's theorem says a Frobenius extension keeps.
"""

import functools

import pytest

from kupisch import Kupisch

from gorhom.algebra import Quiver, path_algebra, truncated_extension
from gorhom.exactlin import FieldSpec, Mat
from gorhom.frobenius import (RingExtension, global_gdim_transfer, induce, is_frobenius_extension,
                              verify_gpd_transfer)
from gorhom.homology import (
    AtLeast,
    ext_dim,
    ext_dim_injective,
    gorenstein_profile,
    gpd,
    is_gorenstein_projective,
    projective_dimension,
    totalize_quasi_bicomplex,
)
from gorhom.modrep import (quotient_module, radical_submodule_basis, regular_module,
                           structural_modules, submodule)

F2 = FieldSpec(2)
BOUND = 20


def monomial(*labels):
    """The relation 'this path is zero'; labels in composition order."""
    return ((tuple(labels), 1),)


def cycle(lengths):
    """The cyclic quiver x_i: i -> i + 1 (mod n) in which the path of length
    c_i from each vertex i is zero."""
    n = len(lengths)
    return Quiver(n, arrows=tuple((i, (i + 1) % n, f"x{i}") for i in range(n)),
                  relations=tuple(monomial(*(f"x{(i + k) % n}" for k in reversed(range(c))))
                                  for i, c in enumerate(lengths)))


# name -> (quiver, Kupisch series c_i, sigma(i) = the target of the arrow
# leaving vertex i, Gorenstein dimension)
NAKAYAMA = {
    # 2-cycle a: 0 -> 1, b: 1 -> 0; finite global dimension
    "k32": (Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
                   relations=(monomial("a", "b"), monomial("b", "a", "b"))),
            (3, 2), (1, 0), 2),
    # 3-cycle a: 0 -> 1, b: 1 -> 2, c: 2 -> 0; finite global dimension
    "k223": (Quiver(3, arrows=((0, 1, "a"), (1, 2, "b"), (2, 0, "c")),
                    relations=(monomial("b", "a"), monomial("c", "b"), monomial("a", "c", "b"))),
             (2, 2, 3), (1, 2, 0), 3),
    # 2-cycle with infinite global dimension: four modules have pd >= 20
    "k54": (Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
                   relations=(monomial("a", "b", "a", "b"), monomial("b", "a", "b", "a", "b"))),
            (5, 4), (1, 0), 2),
    # 5-cycle with infinite global dimension, dim 17; gpd takes every value
    # from 0 to 4
    "k33344": (cycle((3, 3, 3, 4, 4)), (3, 3, 3, 4, 4), (1, 2, 3, 4, 0), 4),
}

@functools.cache
def nakayama(name):
    """(algebra, its profile, the oracle), built once per name."""
    quiver, lengths, sigma, d = NAKAYAMA[name]
    a = path_algebra(quiver, F2)
    oracle = Kupisch(lengths, sigma)
    assert oracle.gorenstein_dimension() == d
    return a, gorenstein_profile(a, BOUND), oracle


def uniserial(a, top: int, length: int):
    """P_top / rad^length P_top."""
    p = structural_modules(a).projectives[top]
    current, in_p = p, Mat.identity(F2, p.dim)
    for _ in range(length):
        rad = radical_submodule_basis(current)
        current, in_p = submodule(current, rad)[0], in_p * rad
    return quotient_module(p, in_p)[0] if in_p.cols else p


@pytest.mark.parametrize("name", NAKAYAMA)
def test_the_profile_is_the_kupisch_gorenstein_dimension(name):
    a, prof, oracle = nakayama(name)
    assert prof.gorenstein_dim == oracle.gorenstein_dimension()
    assert [p.dim for p in structural_modules(a).projectives] == list(oracle.lengths)


@pytest.mark.parametrize("name", ["k32", "k223"])
def test_every_indecomposable_matches_the_oracle(name):
    a, prof, oracle = nakayama(name)
    gp = oracle.gorenstein_projectives()
    for x in oracle.modules():
        m = uniserial(a, *x)
        assert m.dim == x[1]
        assert projective_dimension(m, BOUND) == oracle.pd(x, BOUND), x
        assert gpd(m, prof) == oracle.gpd(x), x
        assert is_gorenstein_projective(m, prof).verdict == ("yes" if x in gp else "no"), x


def test_infinite_global_dimension_matches_the_oracle():
    a, prof, oracle = nakayama("k54")
    gp = oracle.gorenstein_projectives()
    # the non-projective GP module is the only length-2 module in GP
    assert [x for x in gp if not oracle.is_projective(x)] == [(1, 2)]
    assert oracle.gpd((0, 2)) == 2
    for x, verdict in (((1, 2), "yes"), ((0, 2), "no")):
        m = uniserial(a, *x)
        assert gpd(m, prof) == oracle.gpd(x), x
        assert is_gorenstein_projective(m, prof).verdict == verdict, x
    # pd is compared only at a small bound: four modules have pd >= 20
    assert oracle.pd((1, 2), 4) is None
    assert projective_dimension(uniserial(a, 1, 2), 4) == AtLeast(4)


def test_gorenstein_dimension_four_matches_the_oracle():
    a, prof, oracle = nakayama("k33344")
    gp = oracle.gorenstein_projectives()
    # three non-projective GP modules, each GP by total reflexivity over a
    # window of 8, and one module of gpd 4
    assert sorted(x for x in gp if not oracle.is_projective(x)) == [(0, 2), (2, 1), (3, 2)]
    assert oracle.gpd((0, 1)) == 4
    for x in ((2, 1), (0, 2), (3, 2), (0, 1)):
        m = uniserial(a, *x)
        assert gpd(m, prof) == oracle.gpd(x), x
        assert is_gorenstein_projective(m, prof).verdict == ("yes" if x in gp else "no"), x


@pytest.mark.parametrize("name, x", [("k32", (0, 2)), ("k223", (2, 2)), ("k33344", (0, 1))])
def test_totalization_above_gorenstein_dimension_one(name, x):
    a, prof, oracle = nakayama(name)
    m = uniserial(a, *x)
    result = totalize_quasi_bicomplex(m, prof)
    # the maps d_0 .. d_{mhat + 1} are all built: d_3 at mhat 2, d_4 at mhat 3,
    # d_5 at mhat 4
    assert sorted(result.quasi_bicomplex.maps) == list(range(prof.gorenstein_dim + 2))
    assert not result.quasi_bicomplex.verify_identities()
    assert result.z0_verdict.verdict == "yes" and result.gpd_bound_matches
    assert result.witness.left.dim + m.dim == result.witness.middle.dim
    assert oracle.gpd(x) == prof.gorenstein_dim


@pytest.mark.parametrize("name", NAKAYAMA)
def test_the_ext_support_is_the_oracle_gpd(name):
    # gpd is the largest 1 <= i <= d with Ext^i(X, A) != 0, or 0, and
    # Ext^{d+1}(X, A) vanishes; the two routes to Ext agree in degrees 1..d+1
    a, prof, oracle = nakayama(name)
    d, reg = prof.gorenstein_dim, regular_module(a)
    for x in oracle.modules():
        m = uniserial(a, *x)
        exts = [ext_dim(m, reg, i) for i in range(1, d + 2)]
        assert max((i for i, e in enumerate(exts[:d], 1) if e), default=0) == oracle.gpd(x), x
        assert exts[d] == 0, x
        assert exts == [ext_dim_injective(m, reg, i) for i in range(1, d + 2)], x


@pytest.mark.parametrize("name", ["k32", "k223", "k54"])
def test_gpd_transfers_to_the_dual_numbers_at_gorenstein_dimension_two_and_three(name):
    a, _prof, oracle = nakayama(name)
    ext = RingExtension(a, *truncated_extension(a, 2))
    assert is_frobenius_extension(ext).verdict == "yes"
    # the global Gorenstein dimension on both sides, the appendix's statement
    d = oracle.gorenstein_dimension()
    assert global_gdim_transfer(ext) == (d, d, True)
    xs = oracle.modules()
    report = verify_gpd_transfer(ext, [induce(ext, uniserial(a, *x)) for x in xs], BOUND)
    # the induced indecomposables, then the induced simples (vertex order),
    # projectives and regular module that the transfer adds itself
    n = len(oracle.lengths)
    expected = [oracle.gpd(x) for x in xs] + [oracle.gpd((i, 1)) for i in range(n)] + [0] * (n + 1)
    assert report.all_equal and report.ind_checked
    assert [row["gpd_total"] for row in report.rows] == expected
    assert max(expected) == oracle.gorenstein_dimension()
