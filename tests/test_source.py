"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import gorhom

SOURCES = sorted(Path(gorhom.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of fn's body, without entering functions or classes nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, function, name) for every name a function stores that neither
    it nor a function nested in it ever reads; names starting with _ are
    exempt, since `_` marks a value dropped on purpose."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, SCOPES) or isinstance(fn, ast.ClassDef):
            continue
        own = list(_own_nodes(fn))
        stored = {node.id for node in own
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        stored -= {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                   for name in node.names}
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read |= {node.target.id for node in ast.walk(fn)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        name = getattr(fn, "name", "<lambda>")
        found += [(fn.lineno, name, local) for local in sorted(stored - read)
                  if not local.startswith("_")]
    return found


def test_no_function_stores_a_name_it_never_reads():
    unread = [f"{path.parent.name}/{path.name}:{line} {fn}: {name}"
              for path in SOURCES + sorted((REPO / "tests").glob("*.py"))
              for line, fn, name in unread_locals(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_the_scan_sees_every_kind_of_store():
    tree = ast.parse(
        "def f(xs):\n"
        "    a = 1\n"
        "    for i, v in xs:\n"
        "        print(i)\n"
        "    b, _c = 2, 3\n"
        "    d = 4\n"
        "    def g():\n"
        "        return d\n"
        "    e = 0\n"
        "    e += 1\n"
        "    return g\n")
    assert [name for _line, _fn, name in unread_locals(tree)] == ["a", "b", "v"]


def unused_imports(tree):
    """(line, name) for every name an import binds that the module never
    reads; a name listed in `__all__` is read, and `from __future__`
    imports bind nothing."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= {elt.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{path.parent.name}/{path.name}:{line} {name}"
              for path in SOURCES + sorted((REPO / "tests").glob("*.py"))
              for line, name in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []


def test_the_import_scan_sees_every_kind_of_binding():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json, re\n"
        "import xml.dom\n"
        "import numpy as np\n"
        "from typing import (List,\n"
        "                    Dict)\n"
        "from . import sibling as _sib\n"
        "from pkg import exported, shadowed\n"
        "__all__ = ['exported']\n"
        "shadowed = 1\n"
        "def f(x: List) -> None:\n"
        "    return json.dumps(x), xml.dom\n")
    assert unused_imports(tree) == [(2, "re"), (4, "np"), (6, "Dict"), (7, "_sib"),
                                    (8, "shadowed")]


def cache_touchers(tree, module):
    """`module.function` for every function that reads or writes a `._cache`
    attribute, once each, sorted; `self._cache = {}` initializers do not count."""
    initializers = {id(target) for node in ast.walk(tree)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, ast.Dict) and not node.value.keys
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name) and target.value.id == "self"}
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                and id(node) not in initializers):
            found.add(f"{module}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_memo_is_the_only_code_that_touches_a_cache():
    touchers = [name for path in SOURCES
                for name in cache_touchers(ast.parse(path.read_text(), str(path)), path.stem)]
    assert touchers == ["algebra.memo"]


def test_the_cache_scan_sees_reads_and_writes_but_not_initializers():
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._other: dict = {}\n"
        "    def clear(self):\n"
        "        self._cache = {'k': 1}\n"
        "def memo(h):\n"
        "    return h._cache.get(1)\n"
        "def writer(m):\n"
        "    m._cache['k'] = 1\n"
        "def reader(m):\n"
        "    def inner():\n"
        "        return m._cache\n"
        "    return inner\n"
        "def rebinder(m):\n"
        "    m._cache = {}\n")
    assert cache_touchers(tree, "mod") == ["mod.clear", "mod.inner", "mod.memo",
                                           "mod.rebinder", "mod.writer"]


def defined_functions(tree):
    """(line, name, owner) of every module-level function, whose owner is
    None, and every method, whose owner is its class's name, except dunders
    and functions under a decorator call such as `@command("suite")`, which
    registers them where nothing names them."""
    tops = [(node, None) for node in tree.body]
    tops += [(node, cls.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body]
    return [(fn.lineno, fn.name, owner) for fn, owner in tops
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and not any(isinstance(d, ast.Call) for d in fn.decorator_list)]


def docstring_nodes(tree):
    """The ids of the docstrings: the first statement of a module, class or
    function when it is a string."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def class_bases(tree) -> dict:
    """The name of every class of tree -> the names of its bases."""
    return {node.name: [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def mentioned_names(tree, classes=()):
    """The identifiers that a Name names; those that an Attribute or a word
    of a string constant names; and the (class, identifier) pairs of the
    attributes of `self` or `cls` inside a class, and of a name in classes.
    Only the second and third reach a method, and a pair only the methods of
    its class and of that class's bases: a local `p = ...` does not call a
    method p, nor `self.component` another class's `component`.  Docstrings
    are prose and name nothing: a word such as "compose" in one would hide
    an unused function of that name."""
    docstrings = docstring_nodes(tree)
    names, attributes, qualified = set(), set(), set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", None)
            if base in ("self", "cls") and owner is not None:
                qualified.add((owner, node.attr))
            elif base in classes:
                qualified.add((base, node.attr))
            else:
                attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            attributes.update(re.findall(r"\w+", node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return names, attributes, qualified


# Functions no code in the package or the benchmark calls, kept as library
# API, each with the reason it stays.
LIBRARY_API = {
    "load_quiver": "reads the documented .quiver format, from which path_algebra builds",
    "export_data": "regenerates the bundled gorhom/data files from the constructors",
    "cohomology_dim": "H^n of a complex, the invariant a .cpx complex is read for",
}


def unreferenced_functions(sources, readers) -> list:
    """`file:line name` for every function of sources that no reader
    mentions, and every method that no reader's attribute or string names
    and no reader's `self.name` or `Class.name` reaches from its class or a
    subclass."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in [*sources, *readers]}
    bases = {}
    for tree in trees.values():
        bases.update(class_bases(tree))
    names, attributes, reached = set(), set(), set()
    for path in readers:
        path_names, path_attributes, qualified = mentioned_names(trees[path], bases)
        names |= path_names
        attributes |= path_attributes
        for cls, name in qualified:
            lineage = [cls]
            while lineage:
                cls = lineage.pop()
                reached.add((cls, name))
                lineage += bases.get(cls, [])
    return [f"{path.name}:{line} {name}"
            for path in sources
            for line, name, owner in defined_functions(trees[path])
            if name not in attributes and (owner, name) not in reached
            and (owner is not None or name not in names)]


def test_every_function_is_referred_to():
    # a function only the tests call is test code or unused API: the package
    # or the benchmark calls each function, or LIBRARY_API keeps it, and
    # LIBRARY_API lists nothing they call
    readers = SOURCES + sorted((REPO / "perfbench").glob("*.py"))
    unreferenced = unreferenced_functions(SOURCES, readers)
    assert sorted(entry.split()[-1] for entry in unreferenced) == sorted(LIBRARY_API), unreferenced


def test_the_reference_scan_reads_only_the_readers_it_is_given(tmp_path):
    lib, user, test = (tmp_path / name for name in ("lib.py", "user.py", "test_lib.py"))
    lib.write_text("def used(): pass\ndef tested(): pass\n")
    user.write_text("from lib import used\nused()\n")
    test.write_text("from lib import tested\ntested()\n")
    assert unreferenced_functions([lib], [lib, user]) == ["lib.py:2 tested"]
    assert unreferenced_functions([lib], [lib, user, test]) == []


def test_the_reference_scan_sees_names_attributes_and_strings():
    tree = ast.parse(
        "'Only prose names documented.'\n"
        "import click\n"
        "def called(): pass\n"
        "def patched(): pass\n"
        "def unused(): pass\n"
        "def documented():\n"
        "    'The docstring of documented.'\n"
        "def __dunder__(): pass\n"
        "@click.command('x')\n"
        "def registered(): pass\n"
        "class C:\n"
        "    'C calls documented() in prose.'\n"
        "    def method(self): pass\n"
        "    def dead_method(self): pass\n"
        "called()\n"
        "C().method()\n"
        "PATCH = ('mod', 'patched')\n")
    defined = [name for _line, name, _method in defined_functions(tree)]
    assert defined == ["called", "patched", "unused", "documented", "method", "dead_method"]
    names, attributes, _qualified = mentioned_names(tree)
    assert [name for name in defined if name not in names | attributes] == [
        "unused", "documented", "dead_method"]


def test_self_and_class_attributes_reach_only_their_class_and_its_bases(tmp_path):
    # Bicomplex.component and Bicomplex.shape share their names with methods
    # that Complex calls through self and cls, and nothing calls them;
    # Bicomplex.size is reached by an attribute of another object
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Base:\n"
        "    def shape(self): pass\n"
        "class Complex(Base):\n"
        "    def component(self): pass\n"
        "    def size(self):\n"
        "        return self.component(), self.shape()\n"
        "    @classmethod\n"
        "    def make(cls): return cls.build()\n"
        "    def build(self): pass\n"
        "class Bicomplex:\n"
        "    def component(self): pass\n"
        "    def shape(self): pass\n"
        "    def size(self): pass\n"
        "Complex.make().size()\n")
    assert unreferenced_functions([lib], [lib]) == ["lib.py:11 component", "lib.py:12 shape"]


def test_a_local_of_a_method_name_does_not_refer_to_the_method(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Field:\n"
        "    def p(self): pass\n"
        "    def called(self): pass\n"
        "    def patched(self): pass\n"
        "def characteristic(field):\n"
        "    p = field.called()\n"
        "    return p\n"
        "PATCH = ('Field', 'patched')\n"
        "characteristic(Field())\n")
    assert unreferenced_functions([lib], [lib]) == ["lib.py:2 p"]


# The functions that build a Module or ModHom without checking its law: the
# constructions that proved the law themselves (see the modrep module
# docstring), the empty module, the zero map, direct sums, projective
# covers, the tensor construction's ambient module and a bimodule's tensor
# module; and what a
# checked algebra's own multiplication makes: the regular module, Hom(m, A)
# over A^op, Coind(x),
# the two bimodules of a ring extension, and an isomorphism witness
# combined from a hom basis.  And the constructors that give an
# Algebra its radical, each stating the theorem that proves it (an opposite
# passes on its original's).  No document or outside input reaches any
# other.
TRUSTED_SITES = [
    "algebra.Algebra.opposite.build",
    "algebra._tensor_algebra",
    "algebra.field_algebra",
    "algebra.matrix_algebra",
    "algebra.path_algebra",
    "algebra.product_algebra",
    "algebra.truncated_extension",
    "frobenius.Bimodule._trusted",
    "frobenius.Bimodule.as_tensor_module",
    "frobenius._tensor.build",
    "frobenius.coinduce.build",
    "frobenius.extension_bimodule.build",
    "frobenius.restriction_bimodule.build",
    "homology.star_module.build",
    "modrep._first_invertible",
    "modrep.cover_envelope.build",
    "modrep.direct_sum",
    "modrep.dual_hom",
    "modrep.dual_module.build",
    "modrep.regular_module.build",
    "modrep.submodule",
    "modrep.zero_hom",
    "modrep.zero_module",
]


def trusted_constructions(tree, module):
    """`module.function` for every function that passes `_skip_validation`
    or `_closed_radical`, or names a `._trusted` attribute, once each,
    sorted; nested functions and methods are joined to their owners by
    dots, and a lambda counts as the function around it."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if ((isinstance(node, ast.keyword)
             and node.arg in ("_skip_validation", "_closed_radical"))
                or (isinstance(node, ast.Attribute) and node.attr == "_trusted")):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return sorted(found)


def test_laws_are_skipped_only_where_a_construction_proved_them():
    sites = [name for path in SOURCES
             for name in trusted_constructions(ast.parse(path.read_text(), str(path)), path.stem)]
    assert sites == TRUSTED_SITES


def test_the_trust_scan_sees_keywords_attributes_lambdas_and_methods():
    tree = ast.parse(
        "def checked(a, acts, _skip_validation=False):\n"
        "    return Module(a, acts)\n"
        "def trusted(a, acts):\n"
        "    return Module(a, acts, _skip_validation=True)\n"
        "def closed(f, t, u, _closed_radical=None):\n"
        "    return Algebra(f, ['1'], t, u, _closed_radical=ZERO)\n"
        "def outer(m):\n"
        "    def build():\n"
        "        return [ModHom._trusted(m, m, x) for x in m.action]\n"
        "    return memo(m, 'k', None, lambda: Module(m, m.action, _skip_validation=flag))\n"
        "class C:\n"
        "    def method(self):\n"
        "        make = ModHom._trusted\n"
        "        return make\n"
        "ZERO = Module(a, acts, _skip_validation=False)\n")
    assert trusted_constructions(tree, "mod") == [
        "mod", "mod.C.method", "mod.closed", "mod.outer", "mod.outer.build", "mod.trusted"]


def algebra_law_skippers(tree, module):
    """`module.function` for every function that calls `Algebra(...)` with
    `_skip_validation`, once each, sorted, named as trusted_constructions
    names them."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Algebra"
                and any(k.arg == "_skip_validation" for k in node.keywords)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return sorted(found)


def test_only_the_opposite_and_the_tensor_product_skip_the_algebra_law():
    # both build from checked algebras and inherit the laws (their docstrings
    # say why); every other algebra, loaded or constructed, is checked
    skippers = [name for path in SOURCES
                for name in algebra_law_skippers(ast.parse(path.read_text(), str(path)),
                                                 path.stem)]
    assert skippers == ["algebra.Algebra.opposite.build", "algebra._tensor_algebra"]


def test_the_algebra_skip_scan_sees_only_algebra_calls_with_the_keyword():
    tree = ast.parse(
        "def checked(f):\n"
        "    return Algebra(f, ['1'], T, U)\n"
        "def trusted(f):\n"
        "    return Algebra(f, ['1'], T, U, _skip_validation=True)\n"
        "def module(a):\n"
        "    return Module(a, acts, _skip_validation=True)\n"
        "class A:\n"
        "    def op(self):\n"
        "        return memo(self, 'op', None, lambda: Algebra(F, L, T, U, _skip_validation=1))\n")
    assert algebra_law_skippers(tree, "mod") == ["mod.A.op", "mod.trusted"]


def summand_writers(tree, module):
    """`module.function` for every function that stores a `._summands`
    attribute, by assignment or by setattr, once each, sorted; nested
    functions and methods are joined to their owners by dots, and
    `self._summands = None` initializers do not count."""
    found = set()

    def writes(node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            initializer = (isinstance(node.value, ast.Constant) and node.value.value is None
                           and all(isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                   and t.value.id == "self" for t in targets))
            return not initializer and any(
                isinstance(t, ast.Attribute) and t.attr == "_summands"
                for target in targets for t in ast.walk(target))
        setter = (isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("setattr", "__setattr__"))
        return setter and any(isinstance(arg, ast.Constant) and arg.value == "_summands"
                              for arg in node.args)

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if writes(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return sorted(found)


def test_only_projectives_and_their_sums_record_summands():
    # a module records its structural-projective summands only where it is
    # built as one or as a direct sum of such modules: no document or other
    # construction can claim a decomposition that Hom by Yoneda would trust
    writers = [name for path in SOURCES
               for name in summand_writers(ast.parse(path.read_text(), str(path)), path.stem)]
    assert writers == ["modrep._indecomposable_projectives.build", "modrep.direct_sum"]


def test_the_summands_scan_sees_assignments_setattr_and_tuples_but_not_initializers():
    tree = ast.parse(
        "class Module:\n"
        "    def __init__(self):\n"
        "        self._summands = None\n"
        "    def claim(self):\n"
        "        self._summands = (0,)\n"
        "def grow(m):\n"
        "    m._summands += (1,)\n"
        "def pair(m, n):\n"
        "    m._summands, n._summands = (0,), (1,)\n"
        "def outer(m):\n"
        "    def inner():\n"
        "        object.__setattr__(m, '_summands', (2,))\n"
        "    return inner\n"
        "def reader(m):\n"
        "    return m._summands, getattr(m, '_summands', None)\n"
        "def setter(m):\n"
        "    setattr(m, '_summands', ())\n"
        "def clear(m):\n"
        "    m._summands = None\n")
    assert summand_writers(tree, "mod") == [
        "mod.Module.claim", "mod.clear", "mod.grow", "mod.outer.inner", "mod.pair",
        "mod.setter"]
