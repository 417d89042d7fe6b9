"""Static checks on the package source."""

import ast
from pathlib import Path

import gorhom

SOURCES = sorted(Path(gorhom.__file__).parent.glob("*.py"))
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
    unread = [f"{path.name}:{line} {fn}: {name}"
              for path in SOURCES
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
