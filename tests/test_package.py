import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstrings(tree):
    """The docstring nodes of a module and of every class and function in it."""
    return {id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}


def _references(tree, skip=frozenset()):
    """The names that code under `tree` refers to, one per reference: names,
    attributes, imported names and their aliases, and the words of string
    constants other than the ids in `skip` (perfbench names its patch targets
    as strings). Comments are not in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            yield from re.findall(r"\w+", node.value)


def _definitions(tree):
    """Module-level defs and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_module_level_name_has_a_caller_outside_tests():
    """Every module-level def or class in `src/pcvne`, and every non-dunder
    method of those classes, is referred to by code in a Python file under
    `src/`, `scripts/` or `perfbench/`, outside its own definition. A mention
    in a docstring or a comment is no reference. A name that only tests use
    belongs in `tests/` (as the hardness reductions in `tests/reductions.py`
    do)."""
    refs = Counter()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            refs.update(_references(tree, _docstrings(tree)))
    unused = []
    for path in sorted((ROOT / "src" / "pcvne").glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _docstrings(tree)
        for node in _definitions(tree):
            own = Counter(_references(node, skip))[node.name]  # recursion is no caller
            if refs[node.name] <= own:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
