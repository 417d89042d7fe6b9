import json
import re
from pathlib import Path

import pytest

from test_families import _counting
from test_kupisch import NAKAYAMA
from test_laws import left_mult_oracle, same_column_space

import gorhom
from gorhom import algebra
from gorhom.algebra import (
    Algebra,
    Quiver,
    algebra_to_json,
    cyclic_group_table,
    field_algebra,
    group_algebra,
    load_algebra,
    matrix_algebra,
    memo,
    path_algebra,
    product_algebra,
    load_quiver,
    quiver_from_json,
    save_algebra,
    save_quiver,
    symmetric_group_table,
    tensor_algebra,
    truncated_extension,
)
from gorhom.errors import (
    InfiniteDimensional,
    InputShapeError,
    MalformedRelation,
    NotAGroup,
    PropertyViolation,
    UnsupportedAlgebra,
)
from gorhom.corpus import corpus_algebra
from gorhom.exactlin import FieldSpec, Mat, rref
from gorhom.frobenius import extension_bimodule, load_bimodule, load_extension
from gorhom.modrep import quotient_module, regular_module, structural_modules

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F7 = FieldSpec(7)
QQ = FieldSpec(0)


def a2_quiver():
    return Quiver(2, arrows=((0, 1, "a"),))


def loop_quiver():
    return Quiver(1, arrows=((0, 0, "x"),), relations=(((("x", "x"), 1),),))


def test_empty_quiver_is_the_base_field():
    a = path_algebra(Quiver(1), F2)
    assert a.dim == 1
    assert a.unit == (1,)
    assert a.radical_basis().cols == 0


def test_a2_path_algebra_basis():
    # Reduced paths of 1 -> 2 by hand: the two trivial paths and the arrow.
    a = path_algebra(a2_quiver(), F2)
    assert a.dim == 3
    assert set(a.basis_labels) == {"e1", "e2", "a"}
    assert len(a.idempotents) == 2


def test_a2_multiplication_follows_composition():
    a = path_algebra(a2_quiver(), F2)
    e1 = a.basis_vec(a.basis_labels.index("e1"))
    e2 = a.basis_vec(a.basis_labels.index("e2"))
    arr = a.basis_vec(a.basis_labels.index("a"))
    # a starts at vertex 1 and ends at vertex 2: a*e1 = a = e2*a.
    assert a.mul_vec(arr, e1) == arr
    assert a.mul_vec(e2, arr) == arr
    assert a.mul_vec(e1, arr) == a.zero_vec()
    assert a.mul_vec(arr, arr) == a.zero_vec()


def test_loop_mod_square_is_dual_numbers():
    a = path_algebra(loop_quiver(), F2)
    assert a.dim == 2
    x = a.basis_vec(a.basis_labels.index("x"))
    assert a.mul_vec(x, x) == a.zero_vec()
    assert a.radical_basis().cols == 1


def test_unbounded_loop_raises():
    with pytest.raises(InfiniteDimensional):
        path_algebra(Quiver(1, arrows=((0, 0, "x"),)), F2, max_path_length=6)


def test_a_dense_level_raises_at_the_cell_budget():
    # four loops and five quadratic relations over F_3: the standard paths
    # grow as 4, 11, 24, 41, so the ideal rows of length 5 times its
    # candidate paths pass the budget, which is checked before any row of
    # that length is built or reduced
    rels = (((("x", "y"), 1), (("y", "x"), 2)),
            ((("z", "w"), 1), (("w", "z"), 1)),
            ((("x", "z"), 1), (("y", "w"), 1)),
            ((("x", "x"), 1), (("z", "z"), 2)),
            ((("y", "y"), 1), (("w", "w"), 1), (("w", "x"), 1)))
    q = Quiver(1, arrows=tuple((0, 0, label) for label in "xyzw"), relations=rels)
    with pytest.raises(InfiniteDimensional,
                       match="desk-scale limit at length 5: 212 ideal rows over 172 candidate"):
        path_algebra(q, F3)


def test_bundled_and_kupisch_quivers_stay_far_below_the_cell_budget(monkeypatch):
    reduced, reduce = [], algebra.rref
    monkeypatch.setattr(algebra, "rref", lambda m: reduced.append(m.rows * m.cols) or reduce(m))
    for name in ("a2", "a3", "nak2"):
        path_algebra(load_quiver(DATA / f"{name}.quiver"), F2)
    for quiver, *_ in NAKAYAMA.values():
        path_algebra(quiver, F2)
    assert 100 * max(reduced) < algebra.LEVEL_CELL_BUDGET


def test_malformed_relations():
    with pytest.raises(MalformedRelation):
        # b after a is not composable in the quiver 1 -> 2 with only one arrow
        path_algebra(Quiver(2, arrows=((0, 1, "a"),), relations=(((("a", "a"), 1),),)), F2)
    with pytest.raises(MalformedRelation):
        path_algebra(Quiver(1, arrows=((0, 0, "x"),), relations=(((("x",), 1),),)), F2)


def test_nakayama_two_cycle_rad_square_zero():
    q = Quiver(
        2,
        arrows=((0, 1, "a"), (1, 0, "b")),
        relations=(((("b", "a"), 1),), ((("a", "b"), 1),)),
    )
    a = path_algebra(q, F2)
    assert a.dim == 4
    assert a.radical_basis().cols == 2


def test_trivial_group_algebra_is_field():
    a = group_algebra([[0]], F2)
    assert a.dim == 1
    assert a.idempotents == ((1,),)


def test_c2_group_algebra_matches_dual_numbers_after_base_change():
    a = group_algebra(cyclic_group_table(2), F2)
    b = path_algebra(loop_quiver(), F2)
    # Base change g -> 1 + x: check structure constants transport exactly.
    t = Mat(F2, [[1, 1], [0, 1]])  # columns: images of 1, g in the {1, x} basis
    tinv = t.inverse()
    for i in range(2):
        for j in range(2):
            vi, vj = t.col(i), t.col(j)
            prod_b = b.mul_vec(vi, vj)
            back = tinv * Mat.col_vector(F2, prod_b)
            assert tuple(back.col(0)) == a.table[i][j]


def test_s3_over_f7_is_semisimple():
    a = group_algebra(symmetric_group_table(3), F7)
    assert a.dim == 6
    # Radical oracle: kernel of the trace bilinear form of the regular
    # representation (7 does not divide 6, so the form is nondegenerate).
    gram = []
    for i in range(6):
        li = left_mult_oracle(a, a.basis_vec(i))
        row = []
        for j in range(6):
            lj = left_mult_oracle(a, a.basis_vec(j))
            prod = li * lj
            row.append(sum(prod.entry(k, k) for k in range(6)) % 7)
        gram.append(row)
    assert Mat(F7, gram).kernel_basis().cols == 0
    assert a.radical_basis().cols == 0


def test_s3_has_no_idempotent_data():
    a = group_algebra(symmetric_group_table(3), F7)
    assert a.idempotents is None
    with pytest.raises(UnsupportedAlgebra):
        structural_modules(a)


def test_f2c2_radical_is_augmentation_ideal():
    a = group_algebra(cyclic_group_table(2), F2)
    rad = a.radical_basis()
    assert rad.cols == 1
    v = rad.col(0)
    # 1 + g is nilpotent: (1+g)^2 = 0 in characteristic 2.
    assert v == (1, 1)
    assert a.mul_vec(v, v) == a.zero_vec()
    # local: single idempotent, the unit
    assert a.idempotents == (a.unit,)


def test_f3c3_radical_dimension():
    a = group_algebra(cyclic_group_table(3), F3)
    assert a.radical_basis().cols == 2
    assert a.is_local()


GROUPS = [(f"C{n}", cyclic_group_table(n)) for n in range(1, 9)]
GROUPS += [("S3", symmetric_group_table(3))]


@pytest.mark.parametrize("field", [F2, F3, FieldSpec(5), F7, QQ], ids=str)
def test_a_group_algebra_is_local_by_its_order_as_its_generic_radical_says(field):
    # F[G] is local exactly when G is trivial or a p-group, p = char F
    for name, table in GROUPS:
        a = group_algebra(table, field)
        local = a.dim - algebra._radical_generic(a).cols == 1
        assert a.idempotents == ((a.unit,) if local else None), name


@pytest.mark.parametrize("table, field", [(cyclic_group_table(2), F2),
                                          (cyclic_group_table(3), F3),
                                          (symmetric_group_table(3), F7)],
                         ids=["f2c2", "f3c3", "f7s3"])
def test_a_group_algebra_is_built_once(monkeypatch, table, field):
    built = _counting(monkeypatch, Algebra, "__init__")
    group_algebra(table, field)
    assert len(built) == 1


def test_not_a_group():
    with pytest.raises(NotAGroup):
        group_algebra([[0, 1], [1, 1]], F2)
    with pytest.raises(NotAGroup):
        group_algebra([[0, 1], [0, 1]], F2)
    # an order-5 loop (Latin square with identity) that is not a group
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup):
        group_algebra(loop5, F2)


def test_truncated_degenerate():
    r = path_algebra(a2_quiver(), F2)
    s, emb = truncated_extension(r, 1)
    assert s.dim == r.dim
    assert emb.is_invertible()


def test_truncated_dual_numbers():
    r = field_algebra(F2)
    s, emb = truncated_extension(r, 2)
    assert s.dim == 2
    x = s.basis_vec(1)
    assert s.mul_vec(x, x) == s.zero_vec()
    assert emb.cols == 1 and emb.col(0) == s.unit


def test_truncated_a2():
    r = path_algebra(a2_quiver(), F2)
    s, _ = truncated_extension(r, 2)
    assert s.dim == 6
    # radical of R[x]/(x^2) is rad(R) + (x): dim 1 + 3
    assert s.radical_basis().cols == 4
    assert len(s.idempotents) == 2


def test_opposite_of_commutative_is_identical():
    a = group_algebra(cyclic_group_table(3), F3)
    assert a.opposite().table == a.table


def test_opposite_of_a2_is_reversed_quiver():
    a = path_algebra(a2_quiver(), F2)
    op = a.opposite()
    rev = path_algebra(Quiver(2, arrows=((1, 0, "a"),)), F2)
    # Relabel basis of rev: e1 <-> e2 swap matches op's vertex order.
    perm = [rev.basis_labels.index("e1"), rev.basis_labels.index("e2"),
            rev.basis_labels.index("a")]
    # op basis order: e1, e2, a (labels inherited).  Map op e1 -> rev e2 etc?
    # The opposite of 1->2 is the quiver with the arrow 2->1; sending vertex i
    # of op to vertex i of rev must transport the tables on the nose.
    mapping = {0: perm[0], 1: perm[1], 2: perm[2]}
    for i in range(3):
        for j in range(3):
            got = op.table[i][j]
            expect = rev.table[mapping[i]][mapping[j]]
            relabeled = [0, 0, 0]
            for k, c in enumerate(expect):
                inv = {v: kk for kk, v in mapping.items()}
                relabeled[inv[k]] = c
            assert list(got) == relabeled


def test_product_algebra_dims_and_blocks():
    a = field_algebra(F2)
    b = path_algebra(a2_quiver(), F2)
    p = product_algebra(a, b)
    assert p.dim == 4
    assert len(p.idempotents) == 3
    assert p.radical_basis().cols == 1


def test_matrix_algebra_over_dual_numbers():
    r, _ = truncated_extension(field_algebra(F2), 2)
    m = matrix_algebra(r, 2)
    assert m.dim == 8
    assert len(m.idempotents) == 2
    assert m.radical_basis().cols == 4


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("name", ["a2", "f2c2", "f3c3", "q", "a2^op"])
def test_truncated_extension_multiplies_powers_of_x(name, t):
    # (r_i x^a)(r_k x^b) = (r_i r_k) x^(a+b), zero once a + b >= t
    r = corpus_algebra(name.removesuffix("^op"))
    r = r.opposite() if name.endswith("^op") else r
    s, emb = truncated_extension(r, t)
    d = r.dim
    for a in range(t):
        for b in range(t):
            for i in range(d):
                for k in range(d):
                    cell = [0] * s.dim
                    if a + b < t:
                        cell[(a + b) * d:(a + b + 1) * d] = r.table[i][k]
                    assert s.table[a * d + i][b * d + k] == tuple(cell)
    pad = (0,) * (s.dim - d)
    assert s.unit == tuple(r.unit) + pad
    if r.idempotents is not None:
        assert s.idempotents == tuple(tuple(e) + pad for e in r.idempotents)
    assert [emb.col(i) for i in range(d)] == [s.basis_vec(i) for i in range(d)]
    assert s.basis_labels == tuple(label + ("" if j == 0 else "*x" if j == 1 else f"*x^{j}")
                                   for j in range(t) for label in r.basis_labels)
    assert same_column_space(s.radical_basis(), algebra._radical_generic(s))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["f2x2", "f3c3", "q"])
def test_matrix_algebra_multiplies_matrix_units(name, n):
    # (E_uv e_i)(E_wz e_j) = E_uz (e_i e_j) when v = w, else 0
    a = corpus_algebra(name)
    m = matrix_algebra(a, n)
    d = a.dim
    units = [(u, v) for u in range(n) for v in range(n)]
    for p, (u, v) in enumerate(units):
        for q, (w, z) in enumerate(units):
            for i in range(d):
                for j in range(d):
                    cell = [0] * m.dim
                    if v == w:
                        start = units.index((u, z)) * d
                        cell[start:start + d] = a.table[i][j]
                    assert m.table[p * d + i][q * d + j] == tuple(cell)
    assert m.basis_labels == tuple(f"E{u + 1}{v + 1}*{label}"
                                   for u, v in units for label in a.basis_labels)
    assert m.unit == tuple(x if u == v else 0 for u, v in units for x in a.unit)
    if a.idempotents is not None:
        assert m.idempotents == tuple(tuple(x if u == v == w else 0 for u, v in units for x in e)
                                      for w in range(n) for e in a.idempotents)
    assert same_column_space(m.radical_basis(), algebra._radical_generic(m))


def test_tensor_algebra_radical_and_idempotents():
    a = path_algebra(a2_quiver(), F2)
    b = group_algebra(cyclic_group_table(2), F2)
    t = tensor_algebra(a, b.opposite())
    assert t.dim == 6
    # rad(a (x) b) = rad a (x) b + a (x) rad b: dims 1*2 + 3*1 - 1*1 = 4
    assert t.radical_basis().cols == 4
    assert len(t.idempotents) == 2


def test_tensoring_with_fresh_algebras_retains_no_memory(retained_bytes):
    # a ⊗ b is memoized on a for b; an entry kept after b dies holds b, its
    # radical and the tensor algebra
    a = path_algebra(a2_quiver(), F2)
    b = group_algebra(cyclic_group_table(2), F2)

    def tensor_fresh():
        tensor_algebra(a, Algebra(b.field, b.basis_labels, b.table, b.unit))

    assert retained_bytes(tensor_fresh, 5) < 100


def test_trusted_builds_coerce_no_entry(monkeypatch):
    # the opposite and the tensor product take the canonical entries of
    # their checked factors as they are
    a2t2 = load_algebra(DATA / "a2t2.alg")
    a2op = load_algebra(DATA / "a2.alg").opposite()
    a2t2.radical_basis(), a2op.radical_basis()
    coerced = []
    coerce = FieldSpec.coerce
    monkeypatch.setattr(FieldSpec, "coerce", lambda f, x: coerced.append(x) or coerce(f, x))
    op, t = a2t2.opposite(), tensor_algebra(a2t2, a2op)
    assert coerced == []
    assert op.table == tuple(tuple(a2t2.table[j][i] for j in range(a2t2.dim))
                             for i in range(a2t2.dim))
    assert (t.dim, t.unit, len(t.idempotents)) == (18, tuple(
        x * y for x in a2t2.unit for y in a2op.unit), 4)


class _Holder:
    """The least object memo keeps entries on, or keys them by."""

    def __init__(self):
        self._cache = {}


def test_an_entry_dies_with_its_other_and_frees_what_only_it_held():
    # h1's entry for `first` is the last holder of `second`, the other of
    # h2's entry: when `first` dies, both entries go
    h1, h2 = _Holder(), _Holder()
    first, second = _Holder(), _Holder()
    assert memo(h2, "t", second, lambda: 2) == 2
    assert memo(h1, "t", first, lambda: second) is second
    del second
    assert len(h1._cache) == len(h2._cache) == 1
    del first
    assert h1._cache == {} and h2._cache == {}


def quotient_by_ideal(a: Algebra, ideal: Mat) -> Algebra:
    """The quotient algebra A/I for a two-sided ideal spanned by ideal's
    columns, as the quotient module of the regular module: its basis is the
    classes of the basis elements missed by the ideal's pivots, the product
    of the classes of e_k and e_j is column j of the quotient action of
    e_k, and the unit is the class of the unit."""
    quot, proj = quotient_module(regular_module(a), ideal)
    pivots = set(rref(ideal.transpose()).pivots)
    keep = [i for i in range(a.dim) if i not in pivots]
    table = [[quot.action[k].col(j) for j in range(quot.dim)] for k in keep]
    unit = (proj.matrix * Mat.from_cols(a.field, [a.unit])).col(0)
    return Algebra(a.field, [a.basis_labels[i] for i in keep], table, unit)


def test_radical_is_nilpotent_ideal_and_quotient_semisimple():
    for a in [
        group_algebra(cyclic_group_table(2), F2),
        group_algebra(cyclic_group_table(3), F3),
        path_algebra(a2_quiver(), F2),
        truncated_extension(path_algebra(a2_quiver(), F2), 2)[0],
    ]:
        rad = a.radical_basis()
        # nilpotency: multiply the spanning set until it vanishes
        span = [rad.col(c) for c in range(rad.cols)]
        power = span
        steps = 0
        while power and steps <= a.dim:
            nxt = []
            for v in power:
                for w in span:
                    prod = a.mul_vec(v, w)
                    if any(x != 0 for x in prod):
                        nxt.append(prod)
            power = nxt
            steps += 1
        assert not power, "radical is not nilpotent"
        # two-sided ideal: e_i * r and r * e_i stay inside the radical span
        cols = [rad.col(c) for c in range(rad.cols)]
        for i in range(a.dim):
            for v in cols:
                for w in (a.mul_vec(a.basis_vec(i), v), a.mul_vec(v, a.basis_vec(i))):
                    stacked = Mat.from_cols(a.field, cols + [w])
                    assert stacked.rank() == rad.cols
        # A/rad is semisimple: its own radical vanishes
        if rad.cols:
            q = quotient_by_ideal(a, rad)
            assert q.radical_basis().cols == 0


def test_associativity_validation_fires():
    # a*a = b, a*b = 1, b*a = 0: then (a*a)*a = 0 but a*(a*a) = 1
    z, e0, e1, e2 = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    bad_table = [
        [e0, e1, e2],
        [e1, e2, e0],
        [e2, z, z],
    ]
    with pytest.raises(PropertyViolation):
        Algebra(F2, ["1", "a", "b"], bad_table, (1, 0, 0))


def test_algebra_serialization_roundtrip(tmp_path):
    a = truncated_extension(path_algebra(a2_quiver(), F2), 2)[0]
    path = tmp_path / "a.alg"
    save_algebra(a, path)
    b = load_algebra(path)
    assert b == a
    assert b.idempotents == a.idempotents
    assert b.radical_basis().cols == a.radical_basis().cols


def test_quiver_serialization_roundtrip(tmp_path):
    q = Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
               relations=(((("b", "a"), 1),), ((("a", "b"), 1),)))
    doc = json.loads(json.dumps({
        "vertices": 2,
        "arrows": [[0, 1, "a"], [1, 0, "b"]],
        "relations": [[[["b", "a"], "1"]], [[["a", "b"], "1"]]],
    }))
    assert path_algebra(quiver_from_json(doc), F2).table == path_algebra(q, F2).table
    path = tmp_path / "nak.quiver"
    save_quiver(q, path)
    assert path_algebra(load_quiver(path), F2).table == path_algebra(q, F2).table


@pytest.mark.parametrize("change", [
    {"vertices": 1.5},
    {"vertices": True},
    {"vertices": "1"},
    {"arrows": [[0.9, 0, "x"]]},
    {"arrows": [[0, 0.0, "x"]]},
    {"arrows": [[False, 0, "x"]]},
    {"arrows": [[0, 0, 7]]},
    {"arrows": [[0, 0, None]]},
    {"relations": [[["xx", "1"]]]},
], ids=repr)
def test_quiver_documents_reject_numbers_labels_and_paths_of_the_wrong_type(change):
    # each change was once read as the good document: int() and str() of
    # the numbers and labels, and "xx" as the path x·x
    good = {"vertices": 1, "arrows": [[0, 0, "x"]], "relations": [[[["x", "x"], "1"]]]}
    assert quiver_from_json(good) == Quiver(1, arrows=((0, 0, "x"),),
                                            relations=(((("x", "x"), "1"),),))
    with pytest.raises(InputShapeError):
        quiver_from_json({**good, **change})


@pytest.mark.parametrize("doc, message", [
    ({"vertices": 1, "arrows": [5]}, "an arrow must be a list [source, target, label]"),
    ({"vertices": 1, "arrows": [[0, 0]]}, "an arrow must be a list [source, target, label]"),
    ({"vertices": 1, "relations": [[5]]}, "a relation term must be a list [path, coefficient]"),
    ({"vertices": 1, "arrows": [[0, 0, "a"]], "relations": [[[["a"], "1", 3]]]},
     "a relation term must be a list [path, coefficient]"),
], ids=repr)
def test_a_malformed_arrow_or_relation_term_is_named_as_the_document_names_it(doc, message):
    # these were once answered in Python's words: "cannot unpack
    # non-iterable int object", "not enough values to unpack", "too many"
    with pytest.raises(InputShapeError) as info:
        quiver_from_json(doc)
    assert str(info.value).startswith(message)


def test_rational_path_algebra():
    a = path_algebra(a2_quiver(), QQ)
    assert a.dim == 3
    assert a.radical_basis().cols == 1


# -- path algebras against the whole two-sided ideal -------------------------

DATA = Path(gorhom.__file__).parent / "data"


def _target(q, path):
    return q.arrows[path[1][-1]][1] if path[1] else path[0]


def _paths(q, length):
    """Every path of the given length as (source, arrows in application order)."""
    out = [(v, ()) for v in range(q.vertex_count)]
    for _ in range(length):
        out = [(s, arrows + (i,)) for s, arrows in out for i, (src, _t, _l) in enumerate(q.arrows)
               if src == _target(q, (s, arrows))]
    return out


def _whole_ideal_path_algebra(q, field):
    """Labels and table of kQ/I with I_n = span{u·r·w} over every relation r
    and all paths u, w with len(u) + len(r) + len(w) = n, row-reduced over
    all paths of length n with the largest paths leading; the standard paths
    are the non-pivots, vertices first, then each length in sorted order."""
    index = {lbl: i for i, (_s, _t, lbl) in enumerate(q.arrows)}
    rels = [{(q.arrows[index[labels[-1]]][0], tuple(index[lbl] for lbl in reversed(labels))):
             field.coerce(c) for labels, c in rel} for rel in q.relations]
    standard, rewrite, n = [], {}, 0
    while True:
        order = sorted(_paths(q, n), reverse=True)
        pos = {p: i for i, p in enumerate(order)}
        rows = []
        for rel in rels:
            (s, arrows), _c = next(iter(rel.items()))
            for k in range(n - len(arrows) + 1):
                for w in _paths(q, k):
                    for u in _paths(q, n - len(arrows) - k):
                        if _target(q, w) != s or u[0] != _target(q, (s, arrows)):
                            continue
                        row = [field.zero()] * len(order)
                        for (_s, term), c in rel.items():
                            path = pos[(w[0], w[1] + term + u[1])]
                            row[path] = field.add(row[path], c)
                        rows.append(row)
        red = rref(Mat(field, rows, cols=len(order)))
        free = [i for i in range(len(order)) if i not in red.pivots]
        for r, i in enumerate(red.pivots):
            rewrite[order[i]] = {order[j]: field.neg(red.matrix.entry(r, j)) for j in free}
        if not free:
            break
        standard += sorted(order[i] for i in free)
        n += 1
    dim, at = len(standard), {p: i for i, p in enumerate(standard)}
    table = []
    for pi in standard:
        cells = []
        for pj in standard:
            cell = [field.zero()] * dim
            if _target(q, pj) == pi[0]:
                path = (pj[0], pj[1] + pi[1])
                for p, c in rewrite.get(path, {path: field.one()}).items():
                    if p in at:
                        cell[at[p]] = c
            cells.append(tuple(cell))
        table.append(tuple(cells))
    labels = [f"e{s + 1}" if not arrows else "*".join(q.arrows[i][2] for i in reversed(arrows))
              for s, arrows in standard]
    return tuple(labels), tuple(table)


def _random_quiver(rng):
    """At most 3 vertices and 3 arrows; relations of length 2 or 3, each a
    combination of parallel paths."""
    n = rng.randint(1, 3)
    q = Quiver(n, arrows=tuple((rng.randrange(n), rng.randrange(n), f"x{i}")
                               for i in range(rng.randint(1, 3))))
    relations = []
    for _ in range(rng.randint(1, 4)):
        paths = _paths(q, rng.choice((2, 3)))
        if not paths:
            continue
        s, arrows = rng.choice(paths)
        parallel = [p for p in paths if p[0] == s and _target(q, p) == _target(q, (s, arrows))]
        relations.append(tuple((tuple(q.arrows[i][2] for i in reversed(p[1])), rng.choice((1, 2, -1)))
                               for p in rng.sample(parallel, rng.randint(1, min(3, len(parallel))))))
    return Quiver(n, arrows=q.arrows, relations=tuple(relations))


def test_path_algebra_matches_the_whole_two_sided_ideal():
    import random

    rng = random.Random(7)
    compared = 0
    for trial in range(150):
        q, field = _random_quiver(rng), (F2, F3, QQ)[trial % 3]
        try:
            a = path_algebra(q, field, max_path_length=4)
        except InfiniteDimensional:
            continue
        assert (a.basis_labels, a.table) == _whole_ideal_path_algebra(q, field), q
        compared += 1
    assert compared >= 80


@pytest.mark.parametrize("name", ["a2", "a3", "nak2"])
def test_bundled_quivers_build_the_bundled_algebras(name):
    a = path_algebra(load_quiver(DATA / f"{name}.quiver"), F2)
    assert algebra_to_json(a) == json.loads((DATA / f"{name}.alg").read_text())


# -- the generic radical against its per-product definition ------------------


def _per_product_radical(a):
    """The F_p radical chain evaluating g_i(x_t*e_y) directly for every basis
    vector x_t of V_i and every e_y: one integer matrix power per product.
    Returns the radical basis and the dimension of each V_i evaluated."""
    field, n, p = a.field, a.dim, a.field.characteristic
    levels = 0
    while p ** (levels + 1) <= n:
        levels += 1
    basis, dims = Mat.identity(field, n), []
    for i in range(levels + 1):
        q = p ** i
        if basis.cols == 0:
            break
        dims.append(basis.cols)
        rows = []
        for y in range(n):
            row = []
            for t in range(basis.cols):
                lz = left_mult_oracle(a, a.mul_vec(basis.col(t), a.basis_vec(y)))
                tr = algebra._int_matrix_power_trace([[int(e) for e in r] for r in lz.data], q)
                assert tr % q == 0
                row.append((tr // q) % p)
            rows.append(row)
        basis = basis * Mat(field, rows, cols=basis.cols).kernel_basis()
    return basis, dims


def _radical_oracle_algebras():
    """Every bundled F_p algebra and its opposite, both tensor algebras of
    each bundled bimodule, and the constructions tested above."""
    out = []
    for path in sorted(DATA.glob("*.alg")):
        a = load_algebra(path)
        out += [a, a.opposite()]
    bimodules = [extension_bimodule(load_extension(path)) for path in sorted(DATA.glob("*.ext"))]
    bimodules.append(load_bimodule(DATA / "morita_col.bimod"))
    for b in bimodules:
        out += [tensor_algebra(b.left, b.right.opposite()),
                tensor_algebra(b.right, b.left.opposite())]
    a2 = path_algebra(a2_quiver(), F2)
    dual = truncated_extension(field_algebra(F2), 2)[0]
    out += [
        product_algebra(field_algebra(F2), a2),
        truncated_extension(a2, 2)[0],
        dual,
        matrix_algebra(dual, 2),
        tensor_algebra(a2, group_algebra(cyclic_group_table(2), F2).opposite()),
        group_algebra(cyclic_group_table(3), F3),
        group_algebra(symmetric_group_table(3), F7),
    ]
    return [a for a in out if a.field.characteristic]


def test_linear_radical_matches_per_product_evaluation():
    algebras = _radical_oracle_algebras()
    assert len(algebras) == 51
    for a in algebras:
        expected, _ = _per_product_radical(a)
        assert same_column_space(algebra._radical_generic(a), expected), repr(a)


def _int_left_mult(a, x) -> list:
    """The integer lift, entries in [0, p), of the matrix of y -> x*y: row m,
    column j holds coordinate m of x*e_j, summed from the structure table."""
    n, p = a.dim, a.field.characteristic
    z = [[0] * n for _ in range(n)]
    for k, xk in enumerate(x):
        if xk:
            for j, cell in enumerate(a.table[k]):
                for m, c in enumerate(cell):
                    z[m][j] += xk * c
    return [[e % p for e in row] for row in z]


def _int_lift_radical(a):
    """The linear p-power trace chain of algebra._radical_generic, each L_x
    lifted entry by entry by _int_left_mult."""
    field, n, p = a.field, a.dim, a.field.characteristic
    levels = 0
    while p ** (levels + 1) <= n:
        levels += 1
    basis = Mat.identity(field, n)
    for i in range(levels + 1):
        q, d = p ** i, basis.cols
        if d == 0:
            break
        zs = [_int_left_mult(a, basis.col(t)) for t in range(d)]
        g = [(algebra._int_matrix_power_trace(z, q) // q) % p for z in zs]
        prods = Mat(field, [[z[m][y] for y in range(n) for z in zs] for m in range(n)])
        coords = algebra.solve(basis, prods).particular
        rows = [[sum(coords.entry(k, y * d + t) * g[k] for k in range(d)) for t in range(d)]
                for y in range(n)]
        basis = basis * Mat(field, rows, cols=d).kernel_basis()
    return basis


@pytest.mark.parametrize("a", [group_algebra(cyclic_group_table(2), F2),
                               group_algebra(cyclic_group_table(3), F3),
                               group_algebra(symmetric_group_table(3), F7),
                               load_algebra(DATA / "a2t2.alg")],
                         ids=["f2c2", "f3c3", "f7s3", "a2t2.alg"])
def test_the_radical_read_off_the_table_is_the_integer_lift_chain(a):
    assert a.radical_basis() == _int_lift_radical(a)


def test_linear_radical_powers_once_per_basis_vector(monkeypatch):
    b = extension_bimodule(load_extension(DATA / "a2_a2t2.ext"))
    t = tensor_algebra(b.left, b.right.opposite())
    calls = []
    power_trace = algebra._int_matrix_power_trace

    def counting(m, e):
        calls.append(e)
        return power_trace(m, e)

    monkeypatch.setattr(algebra, "_int_matrix_power_trace", counting)
    algebra._radical_generic(t)
    linear = len(calls)
    calls.clear()
    _, dims = _per_product_radical(t)
    assert t.dim == 18 and dims == [18, 18, 17, 15, 14]
    assert linear == sum(dims)
    assert len(calls) == t.dim * linear


def test_radical_failures_name_the_algebra(monkeypatch):
    a2 = path_algebra(a2_quiver(), F2)
    wrong = Algebra(F2, a2.basis_labels, a2.table, a2.unit, provenance={"kind": "generic_a2"})
    named = re.escape(repr(wrong))
    # g_1 is evaluated as Tr(Z^2)/2, so an odd trace must be refused
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_int_matrix_power_trace", lambda m, e: 1)
        with pytest.raises(PropertyViolation, match=f"not divisible.*{named}"):
            algebra._radical_generic(wrong)
    solve = algebra.solve
    monkeypatch.setattr(algebra, "solve",
                        lambda a, b: solve(a, b)._replace(particular=None))
    with pytest.raises(PropertyViolation, match=f"leaves the trace ideal.*{named}"):
        algebra._radical_generic(wrong)


def test_an_algebra_and_its_opposite_share_one_generic_radical(monkeypatch):
    # rad(A^op) is the same subspace as rad(A): whichever is asked first,
    # the generic radical runs once for the pair, and building the opposite
    # asks for none
    calls = []
    generic = algebra._radical_generic
    monkeypatch.setattr(algebra, "_radical_generic", lambda a: calls.append(a) or generic(a))
    a, b = load_algebra(DATA / "f7s3.alg"), load_algebra(DATA / "a2.alg")
    a.opposite(), b.opposite()
    assert calls == []
    assert a.radical_basis() is a.opposite().radical_basis()
    assert b.opposite().radical_basis() is b.radical_basis()
    assert calls == [a, b]
