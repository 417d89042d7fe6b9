"""The bundled corpus: small algebras, extensions, and module families.

Everything here is built from the validated constructors, once, and
memoized; the same objects back the CLI `suite` command, the acceptance
tests, and the serialized data files shipped with the package.  The
selection covers semisimple, hereditary, self-injective, and properly
1-Gorenstein behavior.
"""

from __future__ import annotations

from typing import Dict, List

from .algebra import (
    Algebra,
    Quiver,
    cyclic_group_table,
    field_algebra,
    group_algebra,
    matrix_algebra,
    path_algebra,
    product_algebra,
    symmetric_group_table,
    truncated_extension,
)
from .dgcplx import functor_F
from .errors import InputShapeError
from .exactlin import FieldSpec, Mat
from .frobenius import Bimodule, RingExtension, column_bimodule, identity_extension
from .homology import ComplexObj
from .modrep import (
    Module,
    direct_sum,
    radical_submodule_basis,
    regular_module,
    structural_modules,
    submodule,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F7 = FieldSpec(7)
QQ = FieldSpec(0)

_built: Dict[tuple, object] = {}


def _bundled(kind: str, builders: dict, name: str):
    """The bundled object of this kind and name, built once by its builder."""
    if (kind, name) not in _built:
        if name not in builders:
            raise InputShapeError(f"unknown corpus {kind} {name!r}")
        _built[(kind, name)] = builders[name]()
    return _built[(kind, name)]


def a2_quiver() -> Quiver:
    return Quiver(2, arrows=((0, 1, "a"),))


def a3_quiver() -> Quiver:
    return Quiver(3, arrows=((0, 1, "a"), (1, 2, "b")))


def nakayama_quiver() -> Quiver:
    return Quiver(2, arrows=((0, 1, "a"), (1, 0, "b")),
                  relations=(((("b", "a"), 1),), ((("a", "b"), 1),)))


_ALGEBRAS = {
    "f2": lambda: field_algebra(F2),
    "f3": lambda: field_algebra(F3),
    "f7": lambda: field_algebra(F7),
    "q": lambda: field_algebra(QQ),
    "f2x2": lambda: truncated_extension(field_algebra(F2), 2)[0],
    "f2x3": lambda: truncated_extension(field_algebra(F2), 3)[0],
    "f2c2": lambda: group_algebra(cyclic_group_table(2), F2),
    "f3c3": lambda: group_algebra(cyclic_group_table(3), F3),
    "f7s3": lambda: group_algebra(symmetric_group_table(3), F7),
    "a2": lambda: path_algebra(a2_quiver(), F2),
    "a3": lambda: path_algebra(a3_quiver(), F2),
    "nak2": lambda: path_algebra(nakayama_quiver(), F2),
    "a2t2": lambda: truncated_extension(corpus_algebra("a2"), 2)[0],
    "m2f2x2": lambda: matrix_algebra(corpus_algebra("f2x2"), 2),
    "prod_f2_a2": lambda: product_algebra(corpus_algebra("f2"), corpus_algebra("a2")),
}
ALGEBRA_NAMES = list(_ALGEBRAS)

# algebras whose Gorenstein profile is finite and which carry idempotents
GORENSTEIN_NAMES = [name for name in ALGEBRA_NAMES if name != "f7s3"]


def corpus_algebra(name: str) -> Algebra:
    """Build (once) a bundled algebra by name."""
    return _bundled("algebra", _ALGEBRAS, name)


def _truncated(base: Algebra, n: int) -> RingExtension:
    return RingExtension(base, *truncated_extension(base, n))


_EXTENSIONS = {
    "id_f2": lambda: identity_extension(corpus_algebra("f2")),
    "id_nak2": lambda: identity_extension(corpus_algebra("nak2")),
    "f2_f2c2": lambda: RingExtension(corpus_algebra("f2"), corpus_algebra("f2c2"),
                                     Mat(F2, [[1], [0]])),
    "f3_f3c3": lambda: RingExtension(corpus_algebra("f3"), corpus_algebra("f3c3"),
                                     Mat(F3, [[1], [0], [0]])),
    "f2_f2x2": lambda: _truncated(field_algebra(F2), 2),
    "f2_f2x3": lambda: _truncated(field_algebra(F2), 3),
    "a2_a2t2": lambda: _truncated(corpus_algebra("a2"), 2),
}
EXTENSION_NAMES = list(_EXTENSIONS)

TRANSFER_EXTENSIONS = ["f2_f2c2", "f3_f3c3", "f2_f2x3", "a2_a2t2"]

FROBENIUS_YES_EXTENSIONS = ["id_f2", "id_nak2", "f2_f2x2", "f2_f2x3",
                            "f2_f2c2", "f3_f3c3", "a2_a2t2"]


def corpus_extension(name: str) -> RingExtension:
    return _bundled("extension", _EXTENSIONS, name)


def corpus_bimodule(name: str) -> Bimodule:
    return _bundled("bimodule", {"morita_col": lambda: column_bimodule(
        corpus_algebra("f2x2"), 2, corpus_algebra("m2f2x2"))}, name)


def module_corpus(a: Algebra, minimum: int = 8) -> List[Module]:
    """A deterministic family of test modules over an algebra.

    Simples, projective and injective indecomposables, the regular
    module, the radicals and tops of the projectives, padded with direct
    sums until at least `minimum` modules are present.
    """
    s = structural_modules(a)
    reg = regular_module(a)
    out: List[Module] = list(s.simples) + list(s.projectives) + list(s.injectives) + [reg]
    for p in s.projectives:
        rad = radical_submodule_basis(p)
        if rad.cols:
            out.append(submodule(p, rad)[0])
    seen = len(out)
    i = 0
    while len(out) < minimum:
        a_mod = out[i % seen]
        b_mod = out[(i + 1) % seen]
        out.append(direct_sum([a_mod, b_mod]))
        i += 1
    return out


def bad_module_for_counterexample() -> Module:
    """The simple at the source vertex of A2: not Gorenstein projective."""
    s = structural_modules(corpus_algebra("a2"))
    return next(top for top, p in zip(s.simples, s.projectives) if p.dim == 2)


def complex_corpus() -> List[ComplexObj]:
    """Bounded complexes over the Gorenstein corpus algebras."""
    out: List[ComplexObj] = []
    for name in ["a2", "f2c2", "nak2", "f2x2"]:
        a = corpus_algebra(name)
        s = structural_modules(a)
        mods = list(s.simples) + list(s.projectives)
        stalks = [ComplexObj(a, {0: m}, {}) for m in mods]
        out += stalks + [functor_F(x) for x in stalks[:2]]
        if len(mods) >= 2:
            out.append(functor_F(ComplexObj(a, {0: mods[0], 1: mods[1]}, {})))
    return out


def graded_corpus() -> List[ComplexObj]:
    """Graded modules, as complexes with no differentials."""
    out: List[ComplexObj] = []
    for name in ["a2", "f2c2", "nak2"]:
        a = corpus_algebra(name)
        s = structural_modules(a)
        out.append(ComplexObj(a, {0: s.simples[0]}, {}))
        out.append(ComplexObj(a, {0: s.projectives[0], 2: s.simples[0]}, {}))
    return out


def export_data(directory) -> List[str]:
    """Serialize the corpus into a directory; returns the file names."""
    from pathlib import Path

    from .algebra import save_algebra, save_quiver
    from .frobenius import save_bimodule, save_extension
    from .homology import save_complex
    from .modrep import save_module

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def put(save, obj, name: str, **refs):
        save(obj, directory / name, **refs)
        written.append(name)

    for name in ALGEBRA_NAMES:
        put(save_algebra, corpus_algebra(name), f"{name}.alg")
    for qname, q in [("a2", a2_quiver()), ("a3", a3_quiver()), ("nak2", nakayama_quiver())]:
        put(save_quiver, q, f"{qname}.quiver")
    for name in EXTENSION_NAMES:
        ext = corpus_extension(name)
        base_name = next(n for n in ALGEBRA_NAMES if corpus_algebra(n) == ext.base)
        total_name = next(n for n in ALGEBRA_NAMES if corpus_algebra(n) == ext.total)
        put(save_extension, ext, f"{name}.ext",
            base_ref=f"{base_name}.alg", total_ref=f"{total_name}.alg")
    put(save_bimodule, corpus_bimodule("morita_col"), "morita_col.bimod",
        left_ref="m2f2x2.alg", right_ref="f2x2.alg")
    # a few sample modules and a sample complex for the CLI
    put(save_module, bad_module_for_counterexample(), "a2_s1.mod", algebra_ref="a2.alg")
    put(save_module, regular_module(corpus_algebra("a2")), "a2_regular.mod", algebra_ref="a2.alg")
    put(save_module, structural_modules(corpus_algebra("f2c2")).simples[0], "f2c2_simple.mod",
        algebra_ref="f2c2.alg")
    put(save_complex, complex_corpus()[0], "a2_stalk.cpx", algebra_ref="a2.alg")
    return written
