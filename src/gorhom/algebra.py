"""Finite-dimensional associative unital algebras given by structure constants.

An Algebra stores, for each pair of basis elements (e_i, e_j), the
coordinate vector of the product e_i * e_j; multiplication matrices are
read off it in modrep.regular_module, not here.  Construction validates
the unit law on every basis element and associativity on the generators
(Algebra.generators), which proves it everywhere, so a structure-constant
bug in any constructor fails loudly rather than corrupting downstream
homology.  The opposite and the tensor product of checked algebras inherit
their laws, and are not checked again (see `Algebra`).

Conventions
-----------
* Products compose like functions: p * q means "apply q first, then p".
  For a path algebra, a path is stored as a sequence of arrows in
  application order, and relation files list arrow labels in composition
  order (["a", "b"] denotes a∘b, i.e. b followed by a).
* The Jacobson radical of an algebra built by a constructor here is that
  constructor's closed form, a theorem it states where it builds it.  Every
  other algebra (a loaded document, a group algebra) gets the generic
  computation: over Q the kernel of the trace bilinear form of the regular
  representation, over F_p the p-th-power trace refinement of that form.
  Each p-power trace functional is linear on the ideal it is evaluated on
  (Rónyai 1990; Cohen, Ivanyos and Wales 1997), so it is evaluated once per
  basis vector of that ideal and read off coordinates for every product.
* Primitive orthogonal idempotents are carried only when a constructor
  can certify them (quiver vertices, matrix units, local algebras, ...)
  or when the caller supplies them; they are never searched for.
"""

from __future__ import annotations

import json
import threading
import weakref
from contextlib import contextmanager
from operator import mul
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    InfiniteDimensional,
    InputShapeError,
    MalformedRelation,
    NotAGroup,
    PropertyViolation,
)
from .exactlin import FieldSpec, Mat, Record, rref, solve

Vector = tuple


class Algebra:
    """A finite-dimensional associative unital algebra over FieldSpec.

    table[i][j] is the coordinate vector of e_i * e_j, whose multiplication
    matrices, the regular modules of A and A^op, only modrep builds.  The laws
    are checked on construction, except under `_skip_validation`, which only
    `opposite` and `_tensor_algebra` pass, each building from checked algebras
    and saying why the laws carry over (tests/test_source.py); their entries
    are taken as canonical, not coerced again.
    """

    def __init__(
        self,
        field: FieldSpec,
        basis_labels: Sequence[str],
        table,
        unit,
        idempotents=None,
        provenance: Optional[dict] = None,
        _closed_radical=None,
        _skip_validation=False,
    ):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        # a trusted build's vectors hold canonical entries of checked algebras
        vector = tuple if _skip_validation else (lambda v: tuple(map(field.coerce, v)))
        self.table = tuple(tuple(map(vector, row)) for row in table)
        self.unit = vector(unit)
        self.idempotents = tuple(map(vector, idempotents)) if idempotents is not None else None
        self.provenance = provenance or {}
        self._closed_radical = _closed_radical
        self._cache: dict = {}

        if self.dim == 0:
            raise InputShapeError("algebras must be unital, dim >= 1")
        if len(self.table) != self.dim or any(len(r) != self.dim for r in self.table):
            raise InputShapeError("structure table must be dim x dim")
        if any(len(cell) != self.dim for row in self.table for cell in row):
            raise InputShapeError("structure constants must be vectors of length dim")
        if len(self.unit) != self.dim:
            raise InputShapeError("unit vector has wrong length")
        if self.idempotents is not None and any(len(e) != self.dim for e in self.idempotents):
            raise InputShapeError("idempotent vector has wrong length")

        self._nz = tuple(
            tuple(tuple((k, c) for k, c in enumerate(cell) if c != 0) for cell in row)
            for row in self.table
        )
        if not _skip_validation:
            self._validate()

    # -- element arithmetic ---------------------------------------------------

    def zero_vec(self) -> Vector:
        return tuple(self.field.zero() for _ in range(self.dim))

    def basis_vec(self, i: int) -> Vector:
        z = self.field.zero()
        return tuple(self.field.one() if j == i else z for j in range(self.dim))

    def mul_vec(self, v, w) -> Vector:
        p = self.field.characteristic
        acc = [self.field.zero()] * self.dim
        for i, a in enumerate(v):
            if a == 0:
                continue
            row = self._nz[i]
            for j, b in enumerate(w):
                if b == 0:
                    continue
                ab = a * b
                for k, c in row[j]:
                    acc[k] += ab * c
        if p:
            return tuple(x % p for x in acc)
        return tuple(acc)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        """The unit law on every basis element, then (g·e_j)·e_k =
        g·(e_j·e_k) for the generators g: once the unit law holds, the x
        with (x·y)·z = x·(y·z) for all y, z form a subalgebra containing 1,
        so this proves associativity on all of A."""
        for i in range(self.dim):
            e_i = self.basis_vec(i)
            if self.mul_vec(self.unit, e_i) != e_i or self.mul_vec(e_i, self.unit) != e_i:
                raise PropertyViolation(f"unit law fails at basis element {self.basis_labels[i]}")
        for i in self.generators():
            for j in range(self.dim):
                ij = self.table[i][j]
                for k in range(self.dim):
                    lhs = self.mul_vec(ij, self.basis_vec(k))
                    rhs = self.mul_vec(self.basis_vec(i), self.table[j][k])
                    if lhs != rhs:
                        raise PropertyViolation(
                            f"associativity fails at ({self.basis_labels[i]}, "
                            f"{self.basis_labels[j]}, {self.basis_labels[k]})"
                        )
        if self.idempotents is not None:
            self._validate_idempotents()

    def _validate_idempotents(self):
        total = self.zero_vec()
        for a, e in enumerate(self.idempotents):
            if self.mul_vec(e, e) != tuple(e):
                raise PropertyViolation(f"idempotent {a} is not idempotent")
            for b, f in enumerate(self.idempotents):
                if a != b and any(x != 0 for x in self.mul_vec(e, f)):
                    raise PropertyViolation(f"idempotents {a}, {b} are not orthogonal")
            total = tuple(self.field.add(x, y) for x, y in zip(total, e))
        if total != self.unit:
            raise PropertyViolation("idempotents do not sum to the unit")

    # -- identity and comparison ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field}, kind={self.provenance.get('kind', '?')})"

    # -- memoized structure ---------------------------------------------------

    def radical_basis(self) -> Mat:
        """Columns spanning the Jacobson radical: the closed form the
        constructor proved (an opposite's asks its original, when first
        needed), else _radical_generic, run once per algebra."""
        rad = self._closed_radical
        if rad is None:
            return memo(self, "radical", None, lambda: _radical_generic(self))
        return rad() if callable(rad) else rad

    def is_local(self) -> bool:
        return self.dim - self.radical_basis().cols == 1

    def opposite(self) -> "Algebra":
        """A^op, built once per algebra and not checked again: the
        transposed table of an associative unital algebra is associative,
        (xy)z = x(yz) read backwards, with the same unit, and idempotents
        stay orthogonal idempotents summing to 1."""

        def build():
            table = [[self.table[j][i] for j in range(self.dim)] for i in range(self.dim)]
            op = Algebra(self.field, self.basis_labels, table, self.unit,
                         idempotents=self.idempotents,
                         provenance={"kind": "opposite", "of": self.provenance.get("kind", "?")},
                         # rad(A^op) is rad(A): asked of A when first needed, computed once
                         _closed_radical=self.radical_basis, _skip_validation=True)
            memo(op, "opposite", None, lambda: self)
            return op

        return memo(self, "opposite", None, build)

    def generators(self) -> tuple:
        """Indices of basis elements that generate the algebra, found once
        per algebra by _greedy_generators.

        A law whose solution set is a subalgebra containing 1 holds on the
        whole algebra once it holds on these: associativity with every pair
        of basis elements, an action or an embedding respecting products
        with every basis element, a map intertwining two actions, two
        actions commuting."""
        return memo(self, "generators", None, lambda: _greedy_generators(self))


def _greedy_generators(a: Algebra) -> tuple:
    """Walk the basis in order from span{1}, keeping e_i when it lies
    outside the subalgebra the kept ones generate.

    That subalgebra is the closure of span{1} under left multiplication by
    the kept elements, held as echelon rows (pivot, row): each row is 1 at
    its pivot and 0 at the pivots of the rows before it.  A new generator
    is applied to every row already there, and every row it adds meets
    every generator."""
    p = a.field.characteristic
    rows = []

    def add(v) -> bool:
        """Put v into the span; False when it was there already."""
        v = list(v)
        for piv, row in rows:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)] if p else [
                    x - c * y for x, y in zip(v, row)]
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, p) if p else 1 / v[piv]
        rows.append((piv, [(x * inv) % p for x in v] if p else [x * inv for x in v]))
        return True

    add(a.unit)
    gens = []
    for i in range(a.dim):
        if not add(a.basis_vec(i)):
            continue
        gens.append(i)
        todo = [(row, (i,)) for _, row in rows[:-1]] + [(rows[-1][1], tuple(gens))]
        while todo:
            v, by = todo.pop()
            for g in by:
                if add(a.mul_vec(a.basis_vec(g), v)):
                    todo.append((rows[-1][1], tuple(gens)))
    return tuple(gens)


_memo_lock = threading.RLock()
_interned = weakref.WeakValueDictionary()


class _OtherRef(weakref.ref):
    """A weak reference to an entry's `other` that knows its entry: the
    cache it lies in and the key it lies under."""

    __slots__ = ("cache", "key")


def _drop_entry(ref: _OtherRef) -> None:
    """Delete the entry of ref, whose `other` has died, unless a newer
    entry has taken its key.  The entry is freed on return, so the
    callbacks that freeing its value sets off run after the lock is
    released."""
    with _memo_lock:
        cached = ref.cache.get(ref.key)
        if cached is not None and cached[0] is ref:
            del ref.cache[ref.key]


def memo(holder, tag, other, build):
    """build(), memoized in holder's `_cache` under tag for the object
    `other` (None when holder and tag alone determine the value).

    The only cache in the package: no other code reads or writes a
    `_cache`.  Its one rule: an entry holds only a value its key
    determines, so deleting any entry, or a whole `_cache`, changes no
    result, only the time it takes.  Data a later step needs from a
    construction is part of the memoized value, found again from the
    construction's own inputs, never stored on the object it built.
    `Algebra.opposite` primes the entry of the algebra it builds with the
    one it was built from, so A^op^op is A itself.

    An entry lives only while both its objects do: it dies with holder's
    `_cache`, and it holds `other` through a weak reference whose callback
    deletes exactly that entry when `other` dies.  So no call site need
    choose where an entry lives, and a value must not refer to its
    `other` (it would keep `other`, and itself, alive as long as holder):
    `modrep.hom_space` keeps and returns a tuple of matrices, not maps
    that would name their target.  No tag is used both with and without an
    `other`, so an entry for None is keyed by the bare tag, one key tuple
    less.

    The lock guards the dictionaries only and is never held while build()
    runs; when two threads build the same entry, the first value stored is
    the one both return.  It is reentrant because a callback can run on
    the thread that holds it: a garbage collection during a store, or the
    value of a stale entry the store replaces, can free another entry's
    `other`.

    Modules are interned (`interned`) once checked, so an entry serves every
    module of its content; a document equal to a recorded sum of structural
    projectives is that sum, and takes the Yoneda path.
    """
    key = tag if other is None else (tag, id(other))
    with _memo_lock:
        cached = holder._cache.get(key)
    if cached is not None and (other is None or cached[0]() is other):
        return cached[1]
    value = build()
    with _memo_lock:
        cached = holder._cache.get(key)
        if cached is None or (other is not None and cached[0]() is not other):
            ref = None
            if other is not None:
                ref = _OtherRef(other, _drop_entry)
                ref.cache, ref.key = holder._cache, key
            cached = holder._cache[key] = (ref, value)
    return cached[1]


def interned(key, value=None):
    """The live object under key, or None; given value, intern it unless one
    is there, and return the one interned.  Held weakly: it dies with its object."""
    with _memo_lock:
        return _interned.get(key) if value is None else _interned.setdefault(key, value)


def _radical_generic(a: Algebra) -> Mat:
    """Kernel of the trace form over Q; the p-power trace refinement over F_p.

    Over F_p the chain V_0 = A, V_{i+1} = {x in V_i : g_i(x*y) = 0 for all
    y}, with g_i(z) = Tr(Z^(p^i))/p^i mod p computed from an integer lift Z
    of the regular representation of z, reaches the radical after
    floor(log_p dim) + 1 steps.  Each V_i is an ideal and g_i is linear on
    it (Rónyai, "Computing the structure of finite algebras", J. Symb.
    Comput. 1990; Cohen, Ivanyos and Wales, "Finding the radical of an
    algebra of linear transformations", JPAA 1997).  So a step evaluates
    g_i once per basis vector b_k of V_i, one integer matrix power each,
    and reads g_i(x*y) = sum_k c_k g_i(b_k) off the coordinates c of x*y
    in that basis; every step is then one exact kernel computation.
    """
    field = a.field
    n = a.dim
    p = field.characteristic
    # L_i, y -> e_i*y, has column j table[i][j]; entries in [0, p) lift to Z
    lmats = [Mat.from_cols(field, row) for row in a.table]

    if p == 0:
        # the trace form: entry (i, j) is Tr(L_i·L_j)
        gram = [[sum(row[k] for k, row in enumerate((x * y).data)) for y in lmats] for x in lmats]
        return Mat(field, gram).kernel_basis()

    levels = 0
    while p ** (levels + 1) <= n:
        levels += 1

    basis = Mat.identity(field, n)  # columns span the current ideal V_i
    for i in range(levels + 1):
        q = p ** i
        d = basis.cols
        if d == 0:
            break
        zs = [sum((lm.scale(c) for lm, c in zip(lmats, basis.col(t)) if c),
                  Mat.zeros(field, n, n)).data for t in range(d)]
        g = []
        for z in zs:
            tr = _int_matrix_power_trace(z, q)
            if tr % q != 0:
                raise PropertyViolation(
                    f"p-power trace is not divisible as required in {a!r}")
            g.append((tr // q) % p)
        # Column y*d + t holds x_t*e_y, column y of the lift of x_t; solve
        # for the coordinates of all of them in the basis of V_i at once.
        prods = tuple(tuple(z[m][y] for y in range(n) for z in zs) for m in range(n))
        coords = solve(basis, Mat._from_canonical(field, prods, n * d)).particular
        if coords is None:
            raise PropertyViolation(f"a product leaves the trace ideal V_{i} in {a!r}")
        terms = [(row, gk) for row, gk in zip(coords.data, g) if gk]
        rows = tuple(
            tuple(sum(row[y * d + t] * gk for row, gk in terms) % p for t in range(d))
            for y in range(n)
        )
        ker = Mat._from_canonical(field, rows, d).kernel_basis()
        basis = basis * ker
    return basis


def _int_matrix_power_trace(m, e: int) -> int:
    """Trace of m^e for an integer matrix, by square-and-multiply over Z."""
    n = len(m)
    result = None
    base = m
    while e:
        if e & 1:
            result = base if result is None else _int_matmul(result, base)
        e >>= 1
        if e:
            base = _int_matmul(base, base)
    assert result is not None
    return sum(result[i][i] for i in range(n))


def _int_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


# ---------------------------------------------------------------------------
# Quivers and path algebras
# ---------------------------------------------------------------------------


class Quiver(Record):
    """A finite quiver with relations given as combinations of parallel paths.

    Arrows are (source, target, label) with 0-based vertices and string
    labels.  A relation is a list of (arrow-label sequence in composition
    order, coefficient) terms; all terms of one relation must be parallel
    paths of one common length >= 2.
    """

    __slots__ = ("vertex_count", "arrows", "relations")

    def __init__(self, vertex_count: int, arrows: tuple = (), relations: tuple = ()):
        for s, t, _lbl in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise InputShapeError("arrow endpoint outside vertex range")
        labels = [lbl for _, _, lbl in arrows]
        if not all(isinstance(lbl, str) for lbl in labels):
            raise InputShapeError(f"arrow labels must be strings, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise InputShapeError("arrow labels must be distinct")
        for name, value in zip(self.__slots__, (vertex_count, arrows, relations)):
            object.__setattr__(self, name, value)


# The most cells (ideal rows times candidate paths) one level of
# path_algebra row-reduces; the bundled quivers need at most a few dozen.
LEVEL_CELL_BUDGET = 20_000


def path_algebra(q: Quiver, field: FieldSpec, max_path_length: int = 64) -> Algebra:
    """The quotient of the path algebra kQ by the relation ideal.

    Relations must be homogeneous in path length (each relation's terms
    share one length), so the ideal is graded and the quotient is built
    level by level on the standard paths (Green 1999).  The candidates at
    length n are the standard paths of length n-1, each extended by one
    arrow; the relations of length n and each length-(n-1) reduction rule
    with an arrow applied first are row-reduced over them, the largest
    paths leading, and the candidates that are not pivots are the standard
    paths of length n.  Every pivot gets a rule rewriting it into smaller
    standard paths.  The normal form of any path is then its last arrow
    appended to the normal form of the rest, rewritten by those rules: one
    routine gives the ideal rows and the structure table.  Raises
    InfiniteDimensional when standard paths survive past max_path_length,
    or when a level would row-reduce more than LEVEL_CELL_BUDGET cells.
    """
    if q.vertex_count < 1:
        raise InputShapeError("a path algebra needs at least one vertex")
    arrow_labels = [lbl for _, _, lbl in q.arrows]
    label_to_arrow = {lbl: i for i, lbl in enumerate(arrow_labels)}
    arr_src = [a[0] for a in q.arrows]
    arr_tgt = [a[1] for a in q.arrows]

    # Parse and validate relations; group them by term length.
    rels_by_len: dict = {}
    for rel in q.relations:
        terms = []
        for term_path, coeff in rel:
            arrows_comp = [label_to_arrow.get(lbl) for lbl in term_path]
            if any(x is None for x in arrows_comp):
                raise MalformedRelation(f"unknown arrow label in {term_path}")
            arrows_app = tuple(reversed(arrows_comp))  # composition -> application order
            if len(arrows_app) < 2:
                raise MalformedRelation("relation paths must have length >= 2")
            for x, y in zip(arrows_app, arrows_app[1:]):
                if arr_tgt[x] != arr_src[y]:
                    raise MalformedRelation(f"non-composable path {term_path}")
            src = arr_src[arrows_app[0]]
            tgt = arr_tgt[arrows_app[-1]]
            terms.append((src, arrows_app, tgt, field.coerce(coeff)))
        if not terms:
            raise MalformedRelation("empty relation")
        src0, tgt0, len0 = terms[0][0], terms[0][2], len(terms[0][1])
        for src, arrows_app, tgt, _c in terms:
            if (src, tgt) != (src0, tgt0):
                raise MalformedRelation("relation terms are not parallel paths")
            if len(arrows_app) != len0:
                raise MalformedRelation(
                    "relation terms of unequal length are not supported; "
                    "the ideal must be homogeneous in path length"
                )
        rels_by_len.setdefault(len0, []).append(terms)

    # Path keys are (source, arrows-in-application-order).  A reduction rule
    # sends a non-standard path to a combination of standard paths.
    zero, one = field.zero(), field.one()
    rules: dict = {}

    def target(key):
        return arr_tgt[key[1][-1]] if key[1] else key[0]

    def accumulate(acc, combo, scale):
        """acc += scale·combo, over path keys."""
        for key, c in combo.items():
            acc[key] = field.add(acc.get(key, zero), field.mul(scale, c))

    def normal_form(key):
        """The path as a combination of standard paths: the last arrow
        appended to the normal form of the rest, then rewritten by the rules.
        The level being built has no rules yet, so there the result is in
        its candidates."""
        src, arrows = key
        if not arrows:
            return {key: one}
        out: dict = {}
        for (s, head), c in normal_form((src, arrows[:-1])).items():
            cand = (s, head + arrows[-1:])
            accumulate(out, rules.get(cand, {cand: one}), c)
        return {k: c for k, c in out.items() if c != 0}

    basis_keys = [(v, ()) for v in range(q.vertex_count)]
    standard = sorted((arr_src[i], (i,)) for i in range(len(q.arrows)))
    level = 1
    while standard:
        basis_keys += standard
        level += 1
        if level > max_path_length + 1:
            raise InfiniteDimensional(
                f"irreducible paths survive past the bound {max_path_length}"
            )
        candidates = [(s, head + (ai,)) for s, head in standard
                      for ai in range(len(q.arrows)) if arr_src[ai] == target((s, head))]
        if len(candidates) > 100_000:
            raise InfiniteDimensional("path growth exceeds the desk-scale limit")
        # The relations of this length, and each rule of the last level with
        # an arrow applied first; counted before any is built, since
        # building and reducing them is the cost the cell budget bounds.
        relations = rels_by_len.get(level, [])
        extended = [(ai, parrows, rule) for (psrc, parrows), rule in rules.items()
                    if len(parrows) == level - 1
                    for ai in range(len(q.arrows)) if arr_tgt[ai] == psrc]
        rows = len(relations) + len(extended)
        if rows * len(candidates) > LEVEL_CELL_BUDGET:
            raise InfiniteDimensional(
                f"path growth exceeds the desk-scale limit at length {level}: "
                f"{rows} ideal rows over {len(candidates)} candidate paths")
        gens = []
        for terms in relations:
            row = {}
            for src, arrows_app, _tgt, c in terms:
                accumulate(row, normal_form((src, arrows_app)), c)
            gens.append(row)
        for ai, parrows, rule in extended:
            row = normal_form((arr_src[ai], (ai,) + parrows))
            for (_s, arrows), c in rule.items():
                accumulate(row, normal_form((arr_src[ai], (ai,) + arrows)), field.neg(c))
            gens.append(row)
        # The largest paths lead, so each pivot is rewritten into smaller ones.
        order = sorted(candidates, reverse=True)
        red = rref(Mat(field, [[row.get(k, zero) for k in order] for row in gens],
                       cols=len(order)))
        pivots = set(red.pivots)
        free = [pos for pos in range(len(order)) if pos not in pivots]
        for r, pos in enumerate(red.pivots):
            rules[order[pos]] = {order[f]: field.neg(red.matrix.entry(r, f))
                                 for f in free if red.matrix.entry(r, f) != 0}
        standard = sorted(order[pos] for pos in free)

    index = {k: i for i, k in enumerate(basis_keys)}
    dim = len(basis_keys)
    table = []
    for ki in basis_keys:
        cells = []
        for kj in basis_keys:
            # product e_{ki} * e_{kj} applies kj first
            cell = [zero] * dim
            if target(kj) == ki[0]:
                for key, c in normal_form((kj[0], kj[1] + ki[1])).items():
                    cell[index[key]] = c
            cells.append(tuple(cell))
        table.append(cells)

    # The vertices lead the basis; the arrow ideal, spanned by the rest, is
    # nilpotent (paths are bounded) and its quotient is k^n.
    eye = Mat.identity(field, dim)
    idems = [eye.row(v) for v in range(q.vertex_count)]
    unit = [one if b < q.vertex_count else zero for b in range(dim)]
    closed_rad = eye.select_cols(range(q.vertex_count, dim))

    labels = [_path_label(k, arrow_labels) for k in basis_keys]
    return Algebra(
        field,
        labels,
        table,
        unit,
        idempotents=idems,
        provenance={"kind": "path_algebra", "vertices": q.vertex_count,
                    "arrows": [list(a) for a in q.arrows]},
        _closed_radical=closed_rad,
    )


def _path_label(key, arrow_labels):
    source, arrows = key
    if not arrows:
        return f"e{source + 1}"
    return "*".join(arrow_labels[i] for i in reversed(arrows))


# ---------------------------------------------------------------------------
# Group algebras
# ---------------------------------------------------------------------------


def group_algebra(mult_table: Sequence[Sequence[int]], field: FieldSpec) -> Algebra:
    """The group algebra of the finite group given by its multiplication table.

    mult_table[i][j] is the index of g_i * g_j.  The table is validated:
    rows and columns must be permutations, a two-sided identity and
    inverses must exist, and associativity must hold on all triples.
    """
    n = len(mult_table)
    if n == 0:
        raise NotAGroup("empty table")
    if any(len(r) != n for r in mult_table):
        raise NotAGroup("table is not square")
    full = set(range(n))
    for r in mult_table:
        if set(r) != full:
            raise NotAGroup("a row is not a permutation")
    for j in range(n):
        if {mult_table[i][j] for i in range(n)} != full:
            raise NotAGroup("a column is not a permutation")
    identity = None
    for e in range(n):
        if all(mult_table[e][x] == x and mult_table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity")
    for i in range(n):
        if not any(mult_table[i][j] == identity and mult_table[j][i] == identity for j in range(n)):
            raise NotAGroup(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mult_table[mult_table[i][j]][k] != mult_table[i][mult_table[j][k]]:
                    raise NotAGroup(f"associativity fails at ({i}, {j}, {k})")

    zero, one = field.zero(), field.one()
    table = [
        [tuple(one if k == mult_table[i][j] else zero for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    unit = tuple(one if k == identity else zero for k in range(n))
    # F[G] is local, the unit its one primitive idempotent, exactly when G is
    # trivial or a p-group, p = char F (an element of order q != p makes a
    # nontrivial idempotent); the radical is the generic one, computed lazily
    p, order = field.characteristic, n
    while p and order % p == 0:
        order //= p
    return Algebra(
        field,
        [f"g{i}" for i in range(n)],
        table,
        unit,
        idempotents=[unit] if order == 1 else None,
        provenance={"kind": "group_algebra", "order": n},
    )


def cyclic_group_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n: int):
    """Multiplication table of S_n acting on the left (compose like functions)."""
    from itertools import permutations

    perms = list(permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(p[i] for i in q)] for q in perms] for p in perms]


# ---------------------------------------------------------------------------
# Truncated polynomial extensions and derived algebras
# ---------------------------------------------------------------------------


def truncated_extension(r: Algebra, t: int):
    """S = R[x]/(x^t) with x central, plus the embedding matrix R -> S.

    S is the tensor product k[x]/(x^t) ⊗ R, with basis {x^j ⊗ r_i}
    labelled r_i*x^j.  The power of x is the slow index, so the first
    dim R basis vectors (j = 0) are an embedded copy of R.
    """
    if t < 1:
        raise InputShapeError("truncation degree must be >= 1")
    field = r.field

    def power(j):
        return tuple(field.one() if k == j else field.zero() for k in range(t))

    # x^a * x^b = x^(a+b), which power() makes zero once a + b >= t; the
    # radical is (x), nilpotent with quotient k.
    poly = Algebra(field, [f"x^{j}" for j in range(t)],
                   [[power(a + b) for b in range(t)] for a in range(t)], power(0),
                   idempotents=[power(0)], provenance={"kind": "truncated_polynomial"},
                   _closed_radical=Mat.from_cols(field, [power(j) for j in range(1, t)], t))
    suffixes = ["", "*x"] + [f"*x^{j}" for j in range(2, t)]
    s = _tensor_algebra(
        poly, r, [label + suffixes[j] for j in range(t) for label in r.basis_labels],
        {"kind": "truncated", "t": t, "base": r.provenance.get("kind", "?")})
    return s, Mat.identity(field, s.dim).select_cols(range(r.dim))


def field_algebra(field: FieldSpec) -> Algebra:
    # a field has radical zero
    return Algebra(
        field,
        ["1"],
        [[(field.one(),)]],
        (field.one(),),
        idempotents=[(field.one(),)],
        provenance={"kind": "field"},
        _closed_radical=Mat.zeros(field, 1, 0),
    )


def matrix_algebra(a: Algebra, n: int) -> Algebra:
    """M_n(a) as the tensor product M_n(k) ⊗ a, with basis {E_uv ⊗ e_i}
    labelled E{u}{v}*e_i and the matrix unit E_uv as the slow index."""
    if n < 1:
        raise InputShapeError("matrix size must be >= 1")
    field = a.field
    units = [(u, v) for u in range(n) for v in range(n)]

    def unit_vec(uv):
        return tuple(field.one() if w == uv else field.zero() for w in units)

    zero = tuple(field.zero() for _ in units)
    # E_uv * E_wz = E_uz when v = w, else 0; M_n(k) is simple, radical zero
    mn = Algebra(field, [f"E{u + 1}{v + 1}" for u, v in units],
                 [[unit_vec((u, z)) if v == w else zero for w, z in units] for u, v in units],
                 tuple(field.one() if u == v else field.zero() for u, v in units),
                 idempotents=[unit_vec((u, u)) for u in range(n)],
                 provenance={"kind": "matrix_units"},
                 _closed_radical=Mat.zeros(field, n * n, 0))
    return _tensor_algebra(
        mn, a, [f"{e}*{label}" for e in mn.basis_labels for label in a.basis_labels],
        {"kind": "matrix", "n": n, "base": a.provenance.get("kind", "?")})


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """The direct product a x b, with blockwise products."""
    if a.field != b.field:
        raise InputShapeError("product factors must share the field")
    field = a.field
    da, db = a.dim, b.dim
    dim = da + db
    zero = field.zero()

    def embed_a(v):
        return tuple(v) + (zero,) * db

    def embed_b(v):
        return (zero,) * da + tuple(v)

    labels = [f"({lbl},0)" for lbl in a.basis_labels] + [f"(0,{lbl})" for lbl in b.basis_labels]
    # the two diagonal blocks are a's and b's tables; a product across them is 0
    table = ([list(map(embed_a, row)) + [(zero,) * dim] * db for row in a.table]
             + [[(zero,) * dim] * da + list(map(embed_b, row)) for row in b.table])

    unit = tuple(a.unit) + tuple(b.unit)
    idems = None
    if a.idempotents is not None and b.idempotents is not None:
        idems = [embed_a(e) for e in a.idempotents] + [embed_b(f) for f in b.idempotents]

    # rad(a x b) = rad a x rad b
    rad_cols = [embed_a(a.radical_basis().col(c)) for c in range(a.radical_basis().cols)]
    rad_cols += [embed_b(b.radical_basis().col(c)) for c in range(b.radical_basis().cols)]
    closed_rad = Mat.from_cols(field, rad_cols, dim)

    return Algebra(
        field,
        labels,
        table,
        unit,
        idempotents=idems,
        provenance={"kind": "product",
                    "left": a.provenance.get("kind", "?"),
                    "right": b.provenance.get("kind", "?")},
        _closed_radical=closed_rad,
    )


def tensor_algebra(a: Algebra, b: Algebra) -> Algebra:
    """a ⊗_k b; modules over it are (a, b^op)-bimodule-style data.

    Built once per pair of factors: the result is cached on a for b, so
    every bimodule over the same factors shares one algebra and its radical.
    """
    if a.field != b.field:
        raise InputShapeError("tensor factors must share the field")
    return memo(a, "tensor", b, lambda: _tensor_algebra(
        a, b, [f"{la}(x){lb}" for la in a.basis_labels for lb in b.basis_labels],
        {"kind": "tensor",
         "left": a.provenance.get("kind", "?"),
         "right": b.provenance.get("kind", "?")}))


def _tensor_algebra(a: Algebra, b: Algebra, labels: Sequence[str],
                    provenance: dict) -> Algebra:
    """a ⊗_k b with basis a_i ⊗ b_j at i * dim b + j (a's index is the slow
    one), under the caller's labels and provenance.

    Not checked again: a and b are checked algebras, and the table is
    (a_i ⊗ b_j)(a_k ⊗ b_l) = a_i·a_k ⊗ b_j·b_l, which is associative with
    unit 1 ⊗ 1 because each factor is; the e ⊗ f for the idempotents of
    each are orthogonal idempotents summing to 1 ⊗ 1 (Pierce, Associative
    Algebras, GTM 88).  This covers truncated_extension and matrix_algebra."""
    field = a.field
    p = field.characteristic

    def pure(v, w):
        """Coordinates of v ⊗ w."""
        return tuple([(x * y) % p if p else x * y for x in v for y in w])

    pairs = [(i, j) for i in range(a.dim) for j in range(b.dim)]
    table = [[pure(a.table[i][k], b.table[j][l]) for k, l in pairs] for i, j in pairs]
    idems = None
    if a.idempotents is not None and b.idempotents is not None:
        idems = [pure(e, f) for e in a.idempotents for f in b.idempotents]

    # rad(a (x) b) = rad(a) (x) b + a (x) rad(b): F_p and Q are perfect, so
    # a/rad a and b/rad b are separable and their tensor is semisimple
    # (Pierce, Associative Algebras).
    rad_a, rad_b = a.radical_basis(), b.radical_basis()
    span_cols = [pure(rad_a.col(c), b.basis_vec(j)) for c in range(rad_a.cols)
                 for j in range(b.dim)]
    span_cols += [pure(a.basis_vec(i), rad_b.col(c)) for c in range(rad_b.cols)
                  for i in range(a.dim)]
    red = rref(Mat.from_cols(field, span_cols, a.dim * b.dim).transpose())
    closed_rad = red.matrix.transpose().select_cols(range(red.rank))

    return Algebra(
        field,
        labels,
        table,
        pure(a.unit, b.unit),
        idempotents=idems,
        provenance=provenance,
        _closed_radical=closed_rad,
        _skip_validation=True,
    )


# ---------------------------------------------------------------------------
# Serialization (.alg / .quiver)
# ---------------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    fmt = a.field.format
    doc = {
        "field": {"char": a.field.characteristic},
        "basis": list(a.basis_labels),
        "table": [[[fmt(x) for x in cell] for cell in row] for row in a.table],
        "unit": [fmt(x) for x in a.unit],
    }
    if a.idempotents is not None:
        doc["idempotents"] = [[fmt(x) for x in e] for e in a.idempotents]
    if a.provenance:
        doc["provenance"] = a.provenance
    return doc


def json_int(value, what: str, minimum: Optional[int] = None) -> int:
    """A document field that must be a JSON integer (not a bool or a
    float), at least minimum when one is given."""
    if type(value) is not int:
        raise InputShapeError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputShapeError(f"{what} must be at least {minimum}, got {value}")
    return value


def json_list(value, what: str, depth: int = 1, names: Sequence[str] = ()) -> list:
    """A document field that must be a list of lists, `depth` levels deep,
    or, when names are given, a list of one entry per name."""
    if not isinstance(value, list) or (names and len(value) != len(names)):
        shape = f"[{', '.join(names)}]" if names else f"nested {depth} deep"
        raise InputShapeError(f"{what} must be a list {shape}")
    if depth > 1:
        for v in value:
            json_list(v, what, depth - 1)
    return value


def json_object(value, what: str) -> dict:
    """A document field that must be a JSON object."""
    if not isinstance(value, dict):
        raise InputShapeError(f"{what} must be an object")
    return value


@contextmanager
def document(kind: str, doc):
    """The scope of a loader of `kind` documents: doc must be an object,
    and a missing key or a value of the wrong shape in it is an
    InputShapeError, a missing key named as the field it is."""
    json_object(doc, f"a {kind} document")
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise InputShapeError(f"malformed {kind} document: {what}") from exc


def algebra_from_json(doc: dict) -> Algebra:
    with document("algebra", doc):
        field = FieldSpec(json_int(json_object(doc["field"], "field")["char"], "field char"))
        basis = json_list(doc["basis"], "basis")
        table = json_list(doc["table"], "table", 3)
        unit = json_list(doc["unit"], "unit")
        idempotents, provenance = doc.get("idempotents"), doc.get("provenance")
    if not all(isinstance(label, str) for label in basis):
        raise InputShapeError("basis labels must be strings")
    if idempotents is not None:
        json_list(idempotents, "idempotents", 2)
    if provenance is not None:
        json_object(provenance, "provenance")
    return Algebra(field, basis, table, unit, idempotents=idempotents, provenance=provenance)


def resolve_algebra_ref(doc: dict, key: str, base_dir: Optional[Path] = None) -> Algebra:
    """The algebra doc[key] names: an inline algebra document, or the path
    of an .alg file, relative paths taken from base_dir."""
    ref = doc[key]
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            return load_algebra(path)
        except OSError as exc:
            raise InputShapeError(f"{key}: cannot read {path}: {exc.strerror}") from exc
    if not isinstance(ref, dict):
        raise InputShapeError(f"{key} must be an algebra document or the path of one")
    return algebra_from_json(ref)


def save_algebra(a: Algebra, path) -> None:
    Path(path).write_text(json.dumps(algebra_to_json(a), indent=1))


def load_algebra(path) -> Algebra:
    return algebra_from_json(json.loads(Path(path).read_text()))


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": q.vertex_count,
        "arrows": [list(arrow) for arrow in q.arrows],
        "relations": [[[list(p), str(c)] for p, c in rel] for rel in q.relations],
    }


def quiver_from_json(doc: dict) -> Quiver:
    with document("quiver", doc):
        return Quiver(
            json_int(doc["vertices"], "vertices"),
            tuple((json_int(s, "arrow source"), json_int(t, "arrow target"), lbl)
                  for s, t, lbl in (json_list(x, "an arrow", names=("source", "target", "label"))
                                    for x in json_list(doc.get("arrows", []), "arrows"))),
            tuple(tuple((tuple(json_list(p, "relation path")), c)
                        for p, c in (json_list(x, "a relation term", names=("path", "coefficient"))
                                     for x in rel))
                  for rel in json_list(doc.get("relations", []), "relations", 2)),
        )


def save_quiver(q: Quiver, path) -> None:
    Path(path).write_text(json.dumps(quiver_to_json(q), indent=1))


def load_quiver(path) -> Quiver:
    return quiver_from_json(json.loads(Path(path).read_text()))
