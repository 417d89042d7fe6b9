import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gorhom import exactlin
from gorhom.errors import InputShapeError
from gorhom.exactlin import (
    FieldSpec,
    Mat,
    block_matrix,
    fraction_free_rank,
    kron,
    kron_difference,
    mat_from_flat,
    mat_to_flat,
    pivot_columns,
    rref,
    solve,
)
from gorhom.modrep import column_space_basis

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F7 = FieldSpec(7)
F101 = FieldSpec(101)
QQ = FieldSpec(0)


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)
    FieldSpec(2147483647)  # largest prime below 2^31


def test_scalar_text_roundtrip():
    assert QQ.parse("3/6") == Fraction(1, 2)
    assert QQ.format(Fraction(-4, 8)) == "-1/2"
    assert F101.parse("205") == 3
    assert F101.format(F101.coerce(-1)) == "100"


def test_coerce_canonical_forms():
    assert F101.coerce(-1) == 100 and type(F101.coerce(-1)) is int
    assert F3.coerce(Fraction(1, 2)) == 2
    assert F3.coerce("-1/2") == 1
    assert QQ.coerce(3) == Fraction(3) and type(QQ.coerce(3)) is Fraction
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert Mat(F3, [[Fraction(1, 2)]]) == Mat(F3, [[2]])


@pytest.mark.parametrize("field", [F3, QQ], ids=str)
@pytest.mark.parametrize("bad", ["x", "1/0", "1/", "1/2/3", "", 0.5, 1.5, True, None, [1]],
                         ids=repr)
def test_bad_scalars_raise_input_shape_error(field, bad):
    with pytest.raises(InputShapeError):
        field.coerce(bad)
    with pytest.raises(InputShapeError):
        Mat(field, [[bad]])


@pytest.mark.parametrize("field", [F2, F7, QQ], ids=str)
def test_integer_text_is_coerced_as_an_int(field, monkeypatch):
    # "num" is read as the int it is, equal to the Fraction num/1 it was read
    # as before; over F_p no Fraction is built at all
    for text in ["0", "1", "-1", " 12 ", "-205", "7"]:
        assert field.parse(text) == field.coerce(Fraction(int(text)))
    for text in ["x", "1.5", "1/0", "", "1/"]:
        with pytest.raises(InputShapeError, match=f"not a scalar: {text!r}"):
            field.parse(text)
    if field.characteristic:
        def no_fraction(*args):
            raise AssertionError(f"Fraction{args} built")

        monkeypatch.setattr(exactlin, "Fraction", no_fraction)
        p = field.characteristic
        assert [field.parse(t) for t in ["3", "-3", "10"]] == [3 % p, -3 % p, 10 % p]
        assert Mat(field, [["1", "0"], ["-1", "2"]]).data == ((1, 0), (p - 1, 2 % p))


def test_denominator_vanishing_mod_p_is_an_input_error():
    with pytest.raises(InputShapeError):
        F3.parse("1/3")
    with pytest.raises(InputShapeError):
        F3.coerce(Fraction(2, 3))
    assert QQ.parse("1/3") == Fraction(1, 3)


def test_rref_identity_over_f2():
    res = rref(Mat.identity(F2, 2))
    assert res.rank == 2
    assert res.pivots == (0, 1)
    assert res.matrix == Mat.identity(F2, 2)


def test_rref_duplicate_rows_over_f2():
    res = rref(Mat(F2, [[1, 1], [1, 1]]))
    assert res.rank == 1
    assert res.pivots == (0,)


@pytest.mark.parametrize("seed", range(20))
def test_rref_rank_matches_fraction_free_oracle(seed):
    rng = random.Random(seed)
    m = Mat(F101, [[rng.randrange(101) for _ in range(7)] for _ in range(5)])
    assert rref(m).rank == fraction_free_rank(m)


@pytest.mark.parametrize("seed", range(10))
def test_rref_rank_matches_oracle_over_q(seed):
    rng = random.Random(1000 + seed)
    m = Mat(QQ, [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(6)] for _ in range(4)])
    assert rref(m).rank == fraction_free_rank(m)


def test_solve_identity():
    b = Mat(QQ, [[1, 2], [3, 4]])
    res = solve(Mat.identity(QQ, 2), b)
    assert res.particular == b
    assert res.kernel.cols == 0


def test_solve_inconsistent_flagged_per_column():
    a = Mat(QQ, [[1], [0]])
    b = Mat(QQ, [[0, 5], [1, 0]])
    res = solve(a, b)
    assert res.particular is None


def test_solve_shape_mismatch():
    with pytest.raises(InputShapeError):
        solve(Mat.identity(F2, 2), Mat.identity(F2, 3))


def brute_force_kernel_dim_f2(a: Mat) -> int:
    """Enumerate all vectors over F_2 and count the kernel."""
    n = a.cols
    count = 0
    for bits in range(1 << n):
        v = Mat.col_vector(F2, [(bits >> i) & 1 for i in range(n)])
        if (a * v).is_zero():
            count += 1
    return count.bit_length() - 1  # log2 of the kernel size


@pytest.mark.parametrize("seed", range(8))
def test_kernel_dim_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    a = Mat(F2, [[rng.randrange(2) for _ in range(6)] for _ in range(4)])
    assert a.kernel_basis().cols == brute_force_kernel_dim_f2(a)


def test_zero_dimension_bookkeeping():
    a = Mat.zeros(F2, 0, 3)
    assert a.cols == 3
    assert a.transpose().rows == 3
    b = Mat.zeros(F2, 3, 0)
    prod = b * a  # 3x0 times 0x3 is the 3x3 zero matrix
    assert prod.rows == 3 and prod.cols == 3 and prod.is_zero()
    assert solve(a, Mat.zeros(F2, 0, 2)).kernel.cols == 3


def _small_fraction():
    return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def matrices(draw, field):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    if field.characteristic:
        entry = st.integers(0, field.characteristic - 1)
    else:
        entry = _small_fraction()
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Mat(field, data)


@settings(max_examples=60, deadline=None)
@given(matrices(F101))
def test_rref_is_idempotent_fp(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rref_is_idempotent_q(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_solve_solutions_are_exact(m):
    b = m * Mat(QQ, [[Fraction(i + 1, j + 2) for j in range(2)] for i in range(m.cols)])
    res = solve(m, b)
    assert res.particular is not None
    assert m * res.particular == b
    k = res.kernel
    assert (m * k).is_zero()
    assert k.cols == m.cols - rref(m).rank


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_rationals_stay_in_lowest_terms(m):
    from math import gcd

    r = rref(m).matrix
    for row in r.data:
        for x in row:
            assert gcd(x.numerator, x.denominator) == 1


# -- canonical form and trusted construction ----------------------------------

FIELDS = [F2, F3, F101, QQ]


def _raw_entry(field):
    # Raw entries, not yet canonical: Mat(...) must bring them into form.
    if field.characteristic:
        return st.integers(-2 * field.characteristic, 2 * field.characteristic)
    return _small_fraction() | st.integers(-5, 5)


def _raw_matrix(draw, field, rows, cols):
    entry = _raw_entry(field)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Mat(field, data, cols=cols)


@st.composite
def operands(draw):
    """A field, a and b of one shape r x k, c of shape k x s, and a square m."""
    field = draw(st.sampled_from(FIELDS))
    r, k, s, n = (draw(st.integers(0, 4)) for _ in range(4))
    a, b = _raw_matrix(draw, field, r, k), _raw_matrix(draw, field, r, k)
    c = _raw_matrix(draw, field, k, s)
    m = _raw_matrix(draw, field, n, n)
    return field, a, b, c, m


def _assert_canonical(r: Mat):
    assert r == Mat(r.field, r.data, cols=r.cols)
    assert type(r.data) is tuple and len(r.data) == r.rows
    p = r.field.characteristic
    for row in r.data:
        assert type(row) is tuple and len(row) == r.cols
        for x in row:
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is Fraction


def _naive_blocks(field, row_sizes, col_sizes, blocks) -> Mat:
    out = [[field.zero()] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for (i, j), b in blocks.items():
        r0, c0 = sum(row_sizes[:i]), sum(col_sizes[:j])
        for r in range(b.rows):
            for c in range(b.cols):
                out[r0 + r][c0 + c] = b.entry(r, c)
    return Mat(field, out, cols=sum(col_sizes))


def _layout_cases(field, a, c, m):
    """Block grids of the operands, 0-sized blocks included, with a zero
    block row and column that nothing fills."""
    row_sizes, col_sizes = [a.rows, c.rows, m.rows, 2], [a.cols, c.cols, m.cols, a.rows, 0]
    blocks = {(0, 0): a, (1, 1): c, (2, 2): m, (1, 3): a.transpose()}
    return row_sizes, col_sizes, blocks


def _naive_product(a: Mat, b: Mat) -> Mat:
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a.entry(i, k), b.entry(k, j)))
            row.append(acc)
        out.append(row)
    return Mat(f, out, cols=b.cols)


def _naive_kron(a: Mat, b: Mat) -> Mat:
    """Entry (i·b.rows + k, j·b.cols + l) is a[i][j]·b[k][l]."""
    f = a.field
    out = [[f.mul(a.entry(i, j), b.entry(k, l)) for j in range(a.cols) for l in range(b.cols)]
           for i in range(a.rows) for k in range(b.rows)]
    return Mat(f, out, cols=a.cols * b.cols)


@settings(max_examples=150, deadline=None)
@given(operands(), st.integers(-7, 7))
def test_every_result_is_canonical(ops, c0):
    field, a, b, c, m = ops
    res = solve(a, b)
    odd_rows = [i for i in range(a.rows) if i % 2]
    layout = _layout_cases(field, a, c, m)
    block = block_matrix(field, *layout)
    a_cols = Mat.from_cols(field, [a.col(j) for j in range(a.cols)], a.rows)
    results = [
        a + b, a - b, -a, a.scale(c0), a * c,
        a.transpose(), a.hstack(b), a.vstack(b), a.select_cols([j for j in range(a.cols) if j % 2]),
        a.select_rows(odd_rows), block, a_cols, Mat.from_cols(field, [], a.rows),
        kron(a, c), kron(c, m), rref(a).matrix, res.kernel,
    ]
    if res.particular is not None:
        results.append(res.particular)
    if m.is_invertible():
        results.append(m.inverse())
    for r in results:
        _assert_canonical(r)
    assert a * c == _naive_product(a, c)
    assert kron(a, c) == _naive_kron(a, c) and kron(c, m) == _naive_kron(c, m)
    assert (a - b) + b == a
    assert block == _naive_blocks(field, *layout)
    assert a.select_rows(odd_rows) == a.transpose().select_cols(odd_rows).transpose()
    assert a_cols == a
    assert Mat.from_cols(field, [], a.rows) == Mat.zeros(field, a.rows, 0)


def test_block_matrix_rejects_misfit_blocks():
    one = Mat.identity(F2, 1)
    with pytest.raises(InputShapeError):
        block_matrix(F2, [2], [1], {(0, 0): one})
    with pytest.raises(InputShapeError):
        block_matrix(F2, [1], [1], {(0, 1): one})


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_codec_round_trips(field, data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = _raw_matrix(data.draw, field, rows, cols)
    flat = mat_to_flat(m)
    assert all(type(x) is str for x in flat) and len(flat) == rows * cols
    assert mat_from_flat(field, flat, rows, cols) == m
    short = [flat[1:]] if flat else []
    for wrong in [flat + ["0"], "".join(flat), {"entries": flat}] + short:
        with pytest.raises(InputShapeError):
            mat_from_flat(field, wrong, rows, cols)


def test_exact_arithmetic_never_enters_the_coercing_constructor(monkeypatch):
    operands_by_field = [
        (f, Mat(f, [[1, 0, 2, 3], [2, 0, 4, 6], [0, 1, 1, 5]]), Mat(f, [[1, 2], [0, 1], [5, 0], [1, 1]]))
        for f in FIELDS
    ]
    calls = []
    coercing_init = Mat.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        coercing_init(self, *args, **kwargs)

    monkeypatch.setattr(Mat, "__init__", counting_init)
    for field, a, b in operands_by_field:
        prod = a * b
        total = prod + prod
        at = a.transpose()
        a.hstack(a)
        a.vstack(a)
        kron(at, b)
        rref(a)
        solve(a, total.hstack(prod))
        solve(at, at)
        Mat.identity(field, 3).inverse()
        a.select_rows([2, 0])
        block_matrix(field, *_layout_cases(field, a, b, prod))
        Mat.from_cols(field, [a.col(1), a.col(3)], 3)
        Mat.from_cols(field, [], 3)
    assert calls == []
    Mat(F2, [[1]])  # the count does see the public constructor
    assert len(calls) == 1


# -- the small-system kernel against its per-entry forms ------------------------


def per_bit_rref_gf2(m: Mat):
    """RREF over F_2 with rows packed and unpacked one bit at a time: the
    oracle for the byte-packed elimination."""
    nrows, ncols = m.rows, m.cols
    packed = []
    for row in m.data:
        acc = 0
        for j, x in enumerate(row):
            if x:
                acc |= 1 << j
        packed.append(acc)
    pivots, r = [], 0
    for c in range(ncols):
        bit = 1 << c
        pr = next((i for i in range(r, nrows) if packed[i] & bit), None)
        if pr is None:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        for i in range(nrows):
            if i != r and packed[i] & bit:
                packed[i] ^= packed[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    data = tuple(tuple((acc >> j) & 1 for j in range(ncols)) for acc in packed)
    return data, tuple(pivots)


def per_column_solve(a: Mat, b: Mat):
    """(particular rows or None, kernel rows) of a x = b, each solution
    column assembled entry by entry from the RREF of [a | b]: the oracle for
    the row-wise solve."""
    field, n = a.field, a.cols
    aug = rref(a.hstack(b))
    pivots = [c for c in aug.pivots if c < n]
    free = [c for c in range(n) if c not in pivots]
    kcols = []
    for f in free:
        v = [field.zero()] * n
        v[f] = field.one()
        for r_i, c in enumerate(pivots):
            v[c] = field.neg(aug.matrix.entry(r_i, f))
        kcols.append(v)
    particular = None
    if all(c < n for c in aug.pivots):
        pcols = []
        for k in range(b.cols):
            v = [field.zero()] * n
            for r_i, c in enumerate(pivots):
                v[c] = aug.matrix.entry(r_i, n + k)
            pcols.append(v)
        particular = tuple(tuple(col[i] for col in pcols) for i in range(n))
    return particular, tuple(tuple(col[i] for col in kcols) for i in range(n))


@st.composite
def f2_matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    bits = st.integers(0, 1)
    return Mat(F2, draw(st.lists(st.lists(bits, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)), cols=cols)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0), (3, 7), (12, 12)])
def test_rref_gf2_of_empty_and_zero_shapes(rows, cols):
    m = Mat.zeros(F2, rows, cols)
    res = rref(m)
    assert (res.matrix.data, res.pivots, res.rank) == (m.data, (), 0)
    assert (res.matrix.rows, res.matrix.cols) == (rows, cols)


@settings(max_examples=200, deadline=None)
@given(f2_matrices())
def test_rref_gf2_is_the_per_bit_elimination(m):
    res = rref(m)
    data, pivots = per_bit_rref_gf2(m)
    assert (res.matrix.data, res.pivots, res.rank) == (data, pivots, len(pivots))
    assert (res.matrix.rows, res.matrix.cols) == (m.rows, m.cols)
    _assert_canonical(res.matrix)


@st.composite
def systems(draw):
    """A field, a of shape r x n, and b of r rows: consistent b = a·y with
    some columns replaced by arbitrary ones, which may be inconsistent."""
    field = draw(st.sampled_from([F2, F3, QQ]))
    r, n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))
    a = _raw_matrix(draw, field, r, n)
    b = a * _raw_matrix(draw, field, n, k)
    loose = _raw_matrix(draw, field, r, k)
    cols = [loose.col(j) if draw(st.booleans()) else b.col(j) for j in range(k)]
    return a, Mat.from_cols(field, cols, r) if draw(st.booleans()) else b


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_meets_its_contract_and_the_per_column_assembly(system):
    a, b = system
    field, n = a.field, a.cols
    res = solve(a, b)
    particular, kernel = per_column_solve(a, b)
    assert res.kernel.data == kernel and (res.kernel.rows, res.kernel.cols) == (n, n - a.rank())
    assert (a * res.kernel).is_zero()
    consistent = [rref(a.hstack(b.select_cols([j]))).rank == a.rank() for j in range(b.cols)]
    if not all(consistent):
        assert res.particular is None and particular is None
        return
    assert res.particular.data == particular
    assert (res.particular.rows, res.particular.cols) == (n, b.cols)
    assert a * res.particular == b
    pivots = rref(a).pivots
    for c in range(n):
        if c not in pivots:
            assert all(x == field.zero() for x in res.particular.row(c))
    _assert_canonical(res.particular)
    _assert_canonical(res.kernel)


# -- systems against a left side with a unit row for every column -------------


def _solve_counting_rrefs(a: Mat, b: Mat):
    """solve(a, b) and the number of rref calls it made."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "rref", lambda m: calls.append(m) or rref(m))
        res = solve(a, b)
    return res, len(calls)


@st.composite
def kernel_systems(draw):
    """A field, a raw a over it and K = kernel_basis(a), which holds a unit
    row at every free coordinate, and X of K.cols rows."""
    field = draw(st.sampled_from([F2, F3, QQ]))
    a = _raw_matrix(draw, field, draw(st.integers(0, 4)), draw(st.integers(0, 6)))
    k = a.kernel_basis()
    return a, k, _raw_matrix(draw, field, k.cols, draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(kernel_systems())
def test_a_system_against_a_kernel_basis_is_read_off_its_unit_rows(system):
    _a, k, x = system
    y = k * x
    res, rrefs = _solve_counting_rrefs(k, y)
    assert rrefs == 0
    assert res.particular.data == x.data == per_column_solve(k, y)[0]
    assert (res.particular.rows, res.particular.cols) == (x.rows, x.cols)
    assert res.kernel.data == per_column_solve(k, y)[1] and res.kernel.cols == 0
    _assert_canonical(res.particular)
    _assert_fresh_rows(res.particular, k, y)


@settings(max_examples=200, deadline=None)
@given(kernel_systems(), st.data())
def test_a_right_side_off_a_kernel_basis_span_has_no_solution(system, data):
    a, k, x = system
    pivots = rref(a).pivots
    assume(pivots and x.cols)
    # e_p at a pivot coordinate p has zero free coordinates, so it lies in
    # the span only if it is zero: y_j + e_p is off the span
    p, j = data.draw(st.sampled_from(pivots)), data.draw(st.integers(0, x.cols - 1))
    y = k * x
    cols = [y.col(c) for c in range(x.cols)]
    cols[j] = tuple(a.field.add(v, a.field.one() if i == p else a.field.zero())
                    for i, v in enumerate(cols[j]))
    b = Mat.from_cols(a.field, cols, k.rows)
    res, rrefs = _solve_counting_rrefs(k, b)
    assert rrefs == 0
    assert res.particular is None and per_column_solve(k, b)[0] is None
    assert res.kernel.data == per_column_solve(k, b)[1]


@st.composite
def one_column_short(draw):
    """a with a unit row for every column but a drawn c, its rows shuffled
    among raw rows from which e_c is removed, and a b of a·y or raw columns."""
    field = draw(st.sampled_from([F2, F3, QQ]))
    n = draw(st.integers(1, 5))
    c = draw(st.integers(0, n - 1))
    unit = tuple(field.one() if i == c else field.zero() for i in range(n))
    raw = [row if row != unit else (field.zero(),) * n
           for row in _raw_matrix(draw, field, draw(st.integers(0, 3)), n).data]
    rows = draw(st.permutations([tuple(field.one() if i == j else field.zero() for i in range(n))
                                 for j in range(n) if j != c] + raw))
    a = Mat(field, rows, cols=n)
    k = draw(st.integers(0, 3))
    b = a * _raw_matrix(draw, field, n, k)
    return a, _raw_matrix(draw, field, a.rows, k) if draw(st.booleans()) else b


@settings(max_examples=200, deadline=None)
@given(one_column_short())
def test_one_column_with_no_unit_row_takes_the_elimination_route(system):
    a, b = system
    res, rrefs = _solve_counting_rrefs(a, b)
    particular, kernel = per_column_solve(a, b)
    assert rrefs == 1
    assert res.kernel.data == kernel
    assert (None if res.particular is None else res.particular.data) == particular


def test_a_row_whose_one_nonzero_entry_is_two_is_no_unit_row():
    # over F_3, 2·x = 1 gives x = 2: reading b at that row would give 1
    a = Mat(F3, [[2, 0], [0, 1]])
    res, rrefs = _solve_counting_rrefs(a, Mat(F3, [[1], [1]]))
    assert rrefs == 1
    assert res.particular == Mat(F3, [[2], [1]]) and res.kernel.cols == 0


# -- what a caller reads, without what it throws away ---------------------------


@st.composite
def shaped_matrices(draw):
    """A matrix over F_2, F_3, F_7 or Q with 0 to 5 rows and columns: raw
    entries, or a product through 0 to 2 columns, of low rank."""
    field = draw(st.sampled_from([F2, F3, F7, QQ]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        return _raw_matrix(draw, field, rows, cols)
    inner = draw(st.integers(0, 2))
    return _raw_matrix(draw, field, rows, inner) * _raw_matrix(draw, field, inner, cols)


@settings(max_examples=300, deadline=None)
@given(shaped_matrices(), st.data())
def test_pivots_ranks_kernels_and_products_agree_with_their_full_routes(m, data):
    assert pivot_columns(m) == rref(m).pivots
    assert m.rank() == fraction_free_rank(m)
    assert m.is_invertible() == (m.rows == m.cols == fraction_free_rank(m))
    kernel = m.kernel_basis()
    assert kernel == solve(m, Mat.zeros(m.field, m.rows, 0)).kernel
    assert kernel.data == per_column_solve(m, Mat.zeros(m.field, m.rows, 0))[1]
    assert (kernel.rows, kernel.cols) == (m.cols, m.cols - m.rank())
    _assert_canonical(kernel)
    other = _raw_matrix(data.draw, m.field, m.cols, data.draw(st.integers(0, 5)))
    assert m * other == _naive_product(m, other)


def test_ranks_and_column_spaces_over_f2_unpack_no_rows(monkeypatch):
    calls = []
    gf2 = exactlin._rref_gf2
    monkeypatch.setattr(exactlin, "_rref_gf2", lambda m: calls.append(m) or gf2(m))
    m = Mat(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2 and not m.is_invertible()
    assert column_space_basis(m) == m.select_cols([0, 1])
    assert calls == []
    rref(m)  # the count does see the reduced matrix
    assert calls == [m]


def test_a_kernel_basis_solves_no_system(monkeypatch):
    calls = []
    monkeypatch.setattr(exactlin, "solve", lambda a, b: calls.append(a) or solve(a, b))
    for field in FIELDS:
        m = Mat(field, [[1, 2, 0], [2, 4, 0]])
        kernel = m.kernel_basis()
        assert kernel.cols == 2 and (m * kernel).is_zero()
    assert calls == []


def test_trusted_matrices_stay_immutable():
    m = rref(Mat(F3, [[1, 2], [2, 1]])).matrix
    for name in ("field", "rows", "cols", "data"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)


# -- the sparse kernels against their dense forms --------------------------------


def dot_product(a: Mat, b: Mat) -> Mat:
    """a·b entry by entry, each the dot product of a row of a and a column of
    b: the product's formula before it combined rows."""
    zero = a.field.zero()
    return Mat(a.field, [[sum(map(mul, row, b.col(j)), zero) for j in range(b.cols)]
                         for row in a.data], cols=b.cols)


def _sparse_matrix(draw, field, rows, cols) -> Mat:
    """Mostly zero raw entries, and one row all zero when there are rows."""
    entry = st.sampled_from([0, 0, 0, 1]) | _raw_entry(field)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows,
                         max_size=rows))
    if rows:
        data[draw(st.integers(0, rows - 1))] = [0] * cols
    return Mat(field, data, cols=cols)


@st.composite
def sparse_products(draw):
    """a and b of shapes r x k and k x s, 0 to 6 each, over F_2, F_3, F_7 or Q."""
    field = draw(st.sampled_from([F2, F3, F7, QQ]))
    r, k, s = (draw(st.integers(0, 6)) for _ in range(3))
    return _sparse_matrix(draw, field, r, k), _sparse_matrix(draw, field, k, s)


def _assert_fresh_rows(result: Mat, *operands: Mat):
    # no row is an operand's row or another row of the result; the empty
    # tuple is one object in CPython, so only nonempty rows count
    rows = [row for row in result.data if row]
    assert len({id(row) for row in rows}) == len(rows)
    assert all(row is not x for row in rows for m in operands for x in m.data)


@settings(max_examples=400, deadline=None)
@given(sparse_products())
def test_the_row_combination_product_is_the_dot_product(ops):
    a, b = ops
    prod = a * b
    assert prod == dot_product(a, b)
    _assert_canonical(prod)
    _assert_fresh_rows(prod, a, b)


@pytest.mark.parametrize("field", [F2, F3, F7, QQ], ids=str)
@pytest.mark.parametrize("r, k, s", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 4, 1),
                                     (4, 1, 4), (1, 1, 1), (1, 5, 3), (5, 3, 1)])
def test_products_of_edge_shapes(field, r, k, s):
    rng = random.Random(r * 100 + k * 10 + s)
    p = field.characteristic or 5
    a, b = (Mat(field, [[rng.randrange(p) for _ in range(c)] for _ in range(n)], cols=c)
            for n, c in ((r, k), (k, s)))
    for x, y in [(a, b), (Mat.identity(field, r), a), (a, Mat.identity(field, k)),
                 (Mat.zeros(field, r, k), b)]:
        prod = x * y
        assert prod == dot_product(x, y) and (prod.rows, prod.cols) == (x.rows, y.cols)
        _assert_fresh_rows(prod, x, y)
    assert Mat.identity(field, r) * a == a and a * Mat.identity(field, k) == a


@st.composite
def kron_systems(draw):
    """Sizes m and n, 0 to 4, and 0 to 3 pairs of an m x m and an n x n matrix."""
    field = draw(st.sampled_from([F2, F3, F7, QQ]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = [(_sparse_matrix(draw, field, m, m), _sparse_matrix(draw, field, n, n))
             for _ in range(draw(st.integers(0, 3)))]
    return field, m, n, pairs


@settings(max_examples=300, deadline=None)
@given(kron_systems())
def test_kron_difference_stacks_the_kron_differences(system):
    field, m, n, pairs = system
    expected = Mat.zeros(field, 0, m * n)
    for a, b in pairs:
        expected = expected.vstack(kron(a, Mat.identity(field, n)) - kron(Mat.identity(field, m), b))
    got = kron_difference(field, m, n, pairs)
    assert got == expected
    _assert_canonical(got)


def test_kron_difference_rejects_misfit_matrices():
    a, b = Mat.identity(F3, 2), Mat.identity(F3, 3)
    assert kron_difference(F3, 2, 3, [(a, b)]).is_zero()
    for pair in [(b, b), (a, a), (Mat.zeros(F3, 2, 3), b)]:
        with pytest.raises(InputShapeError):
            kron_difference(F3, 2, 3, [pair])
