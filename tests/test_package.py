import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_level_name_has_a_caller_outside_tests():
    """Every module-level def or class in `src/pcvne` appears as a whole word
    on some line of a Python file under `src/`, `scripts/` or `perfbench/`
    other than its own definition line. A name that only tests use belongs
    in `tests/` (as the hardness reductions in `tests/reductions.py` do)."""
    lines_with = Counter(word
                         for top in ("src", "scripts", "perfbench")
                         for path in (ROOT / top).rglob("*.py")
                         for line in path.read_text().splitlines()
                         for word in set(re.findall(r"\w+", line)))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted((ROOT / "src" / "pcvne").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and lines_with[node.name] < 2]  # the definition line is one of them
    assert unused == []
