"""Every function, class and method of src/qdc is used by src/qdc.

A definition counts as used when its name is named (a name, an attribute or
an imported name) somewhere in the package outside its own body.  The check
is by name, so it cannot tell two methods of one name apart; it catches an
API that nothing calls any more."""

import ast
import pathlib
from collections import Counter

import qdc


def _names(node):
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _definitions(tree, module):
    """(qualified name, node) for each def and class, named after the module,
    class or function that holds it."""
    for parent in ast.walk(tree):
        owner = getattr(parent, "name", module)
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{owner}.{node.name}", node


def _unused(src):
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    named = sum((_names(t) for t in trees.values()), Counter())
    return sorted(
        qualname for module, tree in trees.items()
        for qualname, node in _definitions(tree, module)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] - _names(node)[node.name] <= 0)


def test_no_dead_api():
    src = pathlib.Path(qdc.__file__).parent
    assert _unused(src) == []


def test_dead_api_is_caught(tmp_path):
    # negative control: a helper that nothing names, and one that only
    # names itself, are both reported
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def dead():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n")
    assert _unused(tmp_path) == ["m.dead", "m.recursive"]
