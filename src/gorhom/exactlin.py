"""Exact dense linear algebra over prime fields F_p and the rationals.

Scalars are plain python ints for F_p (residues in [0, p)) and
`fractions.Fraction` for characteristic 0, so every result is exact and
runs are bit-reproducible.  Matrices are immutable tuples-of-tuples; all
operations are pure functions returning new values, which makes them safe
to call from concurrent tasks without coordination.

Storage is dense: the matrices in this project stay well below 1000
rows, so clarity wins over asymptotics.  But they are sparse, and two
kernels skip zeros: a product combines rows (Gustavson 1978) and
`kron_difference` builds the stacked Hom and tensor systems
kron(a, I) - kron(I, b) from the nonzero entries of a and b.  Every
result row is a new tuple, never an operand's row nor another row of
the result, so what a result keeps alive does not depend on its
operands.  Row reduction picks the first nonzero entry as pivot,
deterministically.

Canonical form is an invariant of every `Mat`: entries are ints in
[0, p) over F_p and `Fraction`s over Q.  The public constructor `Mat(...)`
is the boundary where outside data comes in, so it coerces and checks
every entry; so does `mat_from_flat`, the reader of the flat encoding.
The routines of this module build their results with the private
`Mat._from_canonical`, which skips that work: their entries are canonical
by construction; it sets the four slots through their slot descriptors,
as `Mat.__setattr__` raises.  `Mat.from_cols` is trusted the same way and
takes columns of canonical entries, such as columns of other matrices.
Over F_2, whose entries are the ints 0 and 1, `rref` packs each row into
one int by a byte translation and eliminates by xor.  Nothing is built to
be thrown away: `pivot_columns` (and so a rank) skips the reduced matrix,
unpacking no row over F_2, and `kernel_basis` reads the kernel off the RREF
of the matrix alone, by the kernel assembly `solve` uses on [a | b].  Nor
is anything eliminated twice: a kernel basis or a canonical hom basis has a
unit row for every column, and `solve` against it reads the answer off
those rows and checks it by one product.

Matrix layout lives here and nowhere else: slicing (`select_rows`,
`select_cols`), block assembly (`block_matrix`, of which a block-diagonal
matrix is the special case), empty shapes (an n x 0 matrix from no
columns) and the flat row-major string encoding that every document
format uses for its matrices (`mat_to_flat`, `mat_from_flat`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import add, sub, xor
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InputShapeError

Scalar = Union[int, Fraction]


def _is_prime(n: int) -> bool:
    return n > 1 and (n < 4 or n % 2 == 1 and all(n % f for f in range(3, isqrt(n) + 1, 2)))


class Record:
    """A frozen record that checks its fields or that a report shows: a
    subclass names its fields in __slots__ and sets them in its __init__
    through object.__setattr__.  Equality, hash and repr go by field."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FieldSpec(Record):
    """The ground field: F_p for a prime p, or the rationals when 0."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        p = characteristic
        if p and not (0 < p < (1 << 31) and _is_prime(p)):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {p}")
        object.__setattr__(self, "characteristic", p)

    def __eq__(self, other):  # Mat.__eq__ asks this of every pair it compares
        if other.__class__ is FieldSpec:
            return self.characteristic == other.characteristic
        return NotImplemented

    def __hash__(self):
        return hash((self.characteristic,))

    def zero(self) -> Scalar:
        return 0 if self.characteristic else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.characteristic else Fraction(1)

    def coerce(self, x) -> Scalar:
        """Bring an int/Fraction/str into canonical form for this field.

        Anything else (floats, bools, other number types) and any value
        that is not a field element raises InputShapeError.
        """
        p = self.characteristic
        if type(x) is int:
            return x % p if p else Fraction(x)
        if type(x) is Fraction and not p:
            return x
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InputShapeError(f"not a scalar: {x!r}")
        x = Fraction(x)
        if not p:
            return x
        if x.denominator % p == 0:
            raise InputShapeError(f"denominator of {x} vanishes mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return (a + b) % p if p else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a: Scalar) -> Scalar:
        p = self.characteristic
        return (-a) % p if p else -a

    def parse(self, text: str) -> Scalar:
        """Parse the scalar text encoding: "num/den" or "num", an int
        coerced as one, with no Fraction built."""
        try:
            num, slash, den = text.strip().partition("/")
            value = Fraction(int(num), int(den)) if slash else int(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputShapeError(f"not a scalar: {text!r}") from exc
        return self.coerce(value)

    def format(self, x: Scalar) -> str:
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x)

    def __str__(self):
        return f"F_{self.characteristic}" if self.characteristic else "Q"


class Mat(Record):
    """An immutable dense matrix over a fixed FieldSpec.

    Entries live in canonical form: residues in [0, p) for F_p, Fractions
    in lowest terms for the rationals (Fraction normalizes on
    construction, so lowest terms hold by construction).

    `Mat(field, data)` coerces and checks every entry and rejects ragged
    rows; use it for any data from outside.  `Mat._from_canonical` trusts
    its input and is for this module's arithmetic only.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: Sequence[Sequence], cols: Optional[int] = None):
        rows = len(data)
        if rows:
            cols = len(data[0])
        elif cols is None:
            cols = 0
        coerce = field.coerce
        canon = []
        for row in data:
            if len(row) != cols:
                raise InputShapeError("ragged rows")
            canon.append(tuple(map(coerce, row)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(canon))

    @classmethod
    def _from_canonical(cls, field: FieldSpec, rows: tuple, cols: int) -> "Mat":
        """Wrap `rows`, a tuple of `cols`-long tuples of canonical entries,
        without coercing or checking them."""
        m = _new(cls)
        _set_field(m, field)
        _set_rows(m, len(rows))
        _set_cols(m, cols)
        _set_data(m, rows)
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return Mat._from_canonical(field, ((field.zero(),) * cols,) * rows, cols)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        one, zero = field.one(), field.zero()
        return Mat._from_canonical(
            field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)

    @staticmethod
    def from_cols(field: FieldSpec, cols: Sequence[Sequence], rows: int = 0) -> "Mat":
        """The matrix with the given columns of canonical entries; `rows` is
        its row count when there are no columns."""
        if not cols:
            return Mat.zeros(field, rows, 0)
        return Mat._from_canonical(field, tuple(zip(*cols)), len(cols))

    @staticmethod
    def col_vector(field: FieldSpec, entries: Sequence) -> "Mat":
        return Mat(field, [[x] for x in entries])

    # -- basic queries -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}]({body})"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def entry(self, i: int, j: int) -> Scalar:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple([row[j] for row in self.data])

    # -- arithmetic ----------------------------------------------------------

    def _entrywise(self, op, other: "Mat") -> "Mat":
        self._same_shape(other)
        p = self.field.characteristic
        rows = tuple([tuple([x % p for x in map(op, r, s)] if p else list(map(op, r, s)))
                      for r, s in zip(self.data, other.data)])
        return Mat._from_canonical(self.field, rows, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(add, other)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(sub, other)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        p = self.field.characteristic
        if p:
            rows = tuple(tuple([(c * a) % p for a in r]) for r in self.data)
        else:
            rows = tuple(tuple([c * a for a in r]) for r in self.data)
        return Mat._from_canonical(self.field, rows, self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        """Row i of the product is the sum of a_ij·(row j of other) over the
        nonzero a_ij of row i (over F_2 the parity of the rows it selects),
        each row a new tuple made from a list, zero rows too, so a result
        shares no row object (rows made by tuple(map(...)) made the bytes a
        certification retains vary with the basis)."""
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise InputShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p, rows, zero = self.field.characteristic, other.data, self.field.zero()
        out = []
        for row in self.data:
            acc = (zero,) * other.cols
            if p == 2:
                for a, b in zip(row, rows):
                    if a:
                        acc = list(map(xor, acc, b))
            else:
                for a, b in zip(row, rows):
                    if a:
                        acc = [x + a * y for x, y in zip(acc, b)]
                if p and acc.__class__ is list:
                    acc = [x % p for x in acc]
            out.append(tuple(acc))
        return Mat._from_canonical(self.field, tuple(out), other.cols)

    def transpose(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zeros(self.field, self.cols, self.rows)
        return Mat._from_canonical(self.field, tuple(zip(*self.data)), self.rows)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise InputShapeError("hstack: row counts differ")
        rows = tuple([r + s for r, s in zip(self.data, other.data)])
        return Mat._from_canonical(self.field, rows, self.cols + other.cols)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise InputShapeError("vstack: column counts differ")
        return Mat._from_canonical(self.field, self.data + other.data, self.cols)

    def select_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        rows = tuple([tuple([row[j] for j in idx]) for row in self.data])
        return Mat._from_canonical(self.field, rows, len(idx))

    def select_rows(self, idx: Iterable[int]) -> "Mat":
        return Mat._from_canonical(self.field, tuple([self.data[i] for i in idx]), self.cols)

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    # -- derived queries -------------------------------------------------------

    def rank(self) -> int:
        return len(pivot_columns(self))

    def kernel_basis(self) -> "Mat":
        red = rref(self)
        return _kernel(red.matrix.data, red.pivots, self.field, self.cols)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise InputShapeError("inverse of non-square matrix")
        res = solve(self, Mat.identity(self.field, self.rows))
        if res.particular is None or res.kernel.cols:
            raise InputShapeError("matrix is singular")
        return res.particular

    def is_invertible(self) -> bool:
        return self.rows == self.cols and len(pivot_columns(self)) == self.rows


_new = object.__new__
_set_field, _set_rows, _set_cols, _set_data = (
    Mat.__dict__[name].__set__ for name in Mat.__slots__)


class RrefResult(NamedTuple):
    matrix: Mat
    pivots: tuple
    rank: int


def rref(m: Mat) -> RrefResult:
    """Unique reduced row echelon form, pivot columns, rank.

    Pivoting always takes the first nonzero entry in the current column,
    so the output is reproducible across runs.
    """
    p = m.field.characteristic
    if p == 2:
        return _rref_gf2(m)
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if p:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
        else:
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = Mat._from_canonical(m.field, tuple(map(tuple, rows)), ncols) if nrows else m
    return RrefResult(out, tuple(pivots), len(pivots))


_PACK = bytes.maketrans(b"\x00\x01", b"01")
_UNPACK = bytes.maketrans(b"01", b"\x00\x01")


def _eliminate_gf2(m: Mat) -> Tuple[list, tuple]:
    """The reduced rows of m, m.cols > 0, over F_2 packed into ints, bit j =
    column j, and the pivot columns.  The reversed row's bytes, read as
    binary digits, are the packed int."""
    nrows = m.rows
    packed = [int(bytes(row[::-1]).translate(_PACK), 2) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        bit = 1 << c
        for pr in range(r, nrows):
            if packed[pr] & bit:
                break
        else:
            continue
        prow = packed[pr]
        if pr != r:
            packed[pr] = packed[r]
            packed[r] = prow
        for i in range(nrows):
            if i != r and packed[i] & bit:
                packed[i] ^= prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return packed, tuple(pivots)


def _rref_gf2(m: Mat) -> RrefResult:
    if not m.cols or not m.rows:
        return RrefResult(m, (), 0)
    packed, pivots = _eliminate_gf2(m)
    width = f"0{m.cols}b"
    data = tuple([tuple(format(acc, width).encode().translate(_UNPACK)[::-1]) for acc in packed])
    return RrefResult(Mat._from_canonical(m.field, data, m.cols), pivots, len(pivots))


def pivot_columns(m: Mat) -> tuple:
    """rref(m).pivots, without the reduced matrix: over F_2 the packed
    elimination alone, with no row unpacked."""
    if m.field.characteristic == 2:
        return _eliminate_gf2(m)[1] if m.cols else ()
    return rref(m).pivots


class SolveResult(NamedTuple):
    """Solution of a x = b: a particular solution (or None when some column
    of b is inconsistent) plus a kernel basis."""

    particular: Optional[Mat]
    kernel: Mat


def _kernel(rows: tuple, pivots: Sequence[int], field: FieldSpec, n: int) -> Mat:
    """The kernel basis of the first n columns of RREF rows with these pivots
    there, one column per free variable, built row by row: a pivot
    coordinate's row is minus its RREF row at the free columns, a free
    coordinate's row a unit vector."""
    pivot_row = dict(zip(pivots, rows))
    free = [c for c in range(n) if c not in pivot_row]
    zero, one, p = field.zero(), field.one(), field.characteristic
    out = []
    for c in range(n):
        row = pivot_row.get(c)
        if row is None:
            out.append(tuple([one if f == c else zero for f in free]))
        elif p:
            out.append(tuple([-row[f] % p for f in free]))
        else:
            out.append(tuple([-row[f] for f in free]))
    return Mat._from_canonical(field, tuple(out), len(free))


def _unit_rows(a: Mat) -> Optional[list]:
    """For each column c of a, the first row equal to e_c (its one nonzero
    entry exactly 1); None once the rows left cannot cover the open columns."""
    n, zero, one, first = a.cols, a.field.zero(), a.field.one(), {}
    for i, row in enumerate(a.data):
        if len(first) == n or a.rows - i < n - len(first):
            break
        if row.count(zero) == n - 1 and one in row:
            first.setdefault(row.index(one), i)
    return [first[c] for c in range(n)] if len(first) == n else None


def solve(a: Mat, b: Mat) -> SolveResult:
    """Solve a x = b exactly for every column of b.

    kernel columns span ker(a); dim ker = cols(a) - rank(a).  The
    particular solution is the one with zeros in all free coordinates.

    When every column c of a has a unit row e_c, as a kernel basis or a
    canonical hom basis has, a has full column rank: the only candidate is
    b read at those rows, and one product decides whether it solves, with
    no elimination.  Otherwise [a | b] is row reduced.
    """
    if a.rows != b.rows:
        raise InputShapeError(f"solve: a has {a.rows} rows but b has {b.rows}")
    field, n = a.field, a.cols
    units = _unit_rows(a)
    if units is not None:
        x = Mat._from_canonical(field, tuple([tuple([*b.data[i]]) for i in units]), b.cols)
        return SolveResult(x if (a * x).data == b.data else None, Mat.zeros(field, n, 0))
    aug = rref(a.hstack(b))
    rows = aug.matrix.data
    pivots = [c for c in aug.pivots if c < n]
    particular = None
    if len(pivots) == aug.rank:  # no pivot in b: every column is consistent
        pivot_row = dict(zip(pivots, rows))
        zeros = (field.zero(),) * b.cols
        particular = Mat._from_canonical(
            field, tuple([pivot_row[c][n:] if c in pivot_row else zeros for c in range(n)]),
            b.cols)
    return SolveResult(particular, _kernel(rows, pivots, field, n))


def fraction_free_rank(m: Mat) -> int:
    """Rank by Bareiss-style fraction-free elimination.

    Independent of rref on purpose: it is the second elimination route used
    to cross-check rank computations.  Over F_p divisions are exact field
    divisions; over Q the matrix is cleared to integers first and the
    classical two-step division stays in Z throughout.
    """
    p = m.field.characteristic
    if m.rows == 0 or m.cols == 0:
        return 0
    if p:
        rows = [[int(x) for x in row] for row in m.data]

        def div(x, d):
            return (x * pow(d, -1, p)) % p
    else:
        rows = []
        for row in m.data:
            den = lcm(*[x.denominator for x in row])
            rows.append([int(x * den) for x in row])

        def div(x, d):
            q, r = divmod(x, d)
            assert r == 0, "Bareiss division must be exact"
            return q

    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            rows[i] = [div(piv * rows[i][j] - fi * rows[r][j], prev) for j in range(ncols)]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, used to vectorize intertwiner equations."""
    p = a.field.characteristic
    if p:
        out = [tuple([(x * y) % p for x in ar for y in br]) for ar in a.data for br in b.data]
    else:
        out = [tuple([x * y for x in ar for y in br]) for ar in a.data for br in b.data]
    return Mat._from_canonical(a.field, tuple(out), a.cols * b.cols)


def kron_difference(field: FieldSpec, m: int, n: int, pairs: Iterable[Tuple[Mat, Mat]]) -> Mat:
    """kron(a, I_n) - kron(I_m, b) for each pair of an m x m matrix a and an
    n x n matrix b, stacked in order (0 x mn for no pairs), built from the
    nonzero entries: row i·n + k holds a_ij at column j·n + k and -b_kl at
    column i·n + l."""
    p, zero = field.characteristic, field.zero()
    out = []
    for a, b in pairs:
        if a.rows != m or a.cols != m or b.rows != n or b.cols != n:
            raise InputShapeError(f"kron_difference: need {m}x{m} and {n}x{n} matrices")
        minus_b = [[(l, -c % p if p else -c) for l, c in enumerate(row) if c] for row in b.data]
        for i, arow in enumerate(a.data):
            a_terms = [(j * n, c) for j, c in enumerate(arow) if c]
            for k, b_terms in enumerate(minus_b):
                row = [zero] * (m * n)
                for jn, c in a_terms:
                    row[jn + k] = c
                for l, c in b_terms:
                    x = row[i * n + l] + c
                    row[i * n + l] = x % p if p else x
                out.append(tuple(row))
    return Mat._from_canonical(field, tuple(out), m * n)


def vec(m: Mat) -> Mat:
    """Column-stacking vectorization: vec(m) lists columns top to bottom."""
    return Mat._from_canonical(m.field, tuple((x,) for col in zip(*m.data) for x in col), 1)


def unvec(field: FieldSpec, v: Sequence, rows: int, cols: int) -> Mat:
    """Inverse of vec for a flat column-major sequence of canonical entries,
    such as a column of another matrix."""
    return Mat._from_canonical(
        field, tuple(tuple(v[j * rows + i] for j in range(cols)) for i in range(rows)), cols)


def block_matrix(field: FieldSpec, row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: Mapping[Tuple[int, int], Mat]) -> Mat:
    """The matrix cut into row_sizes x col_sizes blocks whose block (i, j) is
    blocks[(i, j)], zero where absent.  Sizes may be 0."""
    zero = field.zero()
    out = []
    used = 0
    for i, r in enumerate(row_sizes):
        parts = []
        for j, c in enumerate(col_sizes):
            b = blocks.get((i, j))
            if b is None:
                parts.append(((zero,) * c,) * r)
                continue
            if b.rows != r or b.cols != c:
                raise InputShapeError(f"block ({i}, {j}) is {b.rows}x{b.cols}, expected {r}x{c}")
            parts.append(b.data)
            used += 1
        if col_sizes:
            out.extend(tuple(chain.from_iterable(pieces)) for pieces in zip(*parts))
        else:
            out.extend([()] * r)
    if used != len(blocks):
        raise InputShapeError("a block lies outside the block grid")
    return Mat._from_canonical(field, tuple(out), sum(col_sizes))


def mat_to_flat(m: Mat) -> list:
    """The entries of m as strings, row by row: the document encoding."""
    fmt = m.field.format
    return [fmt(x) for row in m.data for x in row]


def mat_from_flat(field: FieldSpec, flat, rows: int, cols: int) -> Mat:
    """Read the rows x cols matrix of a flat row-major document list,
    coercing every entry; the list must hold exactly rows * cols entries."""
    if not isinstance(flat, list):
        raise InputShapeError(f"a flat matrix must be a list, got {type(flat).__name__}")
    if len(flat) != rows * cols:
        raise InputShapeError(
            f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(flat)}")
    return Mat(field, [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)
