"""Every module-level function and class in src/pierce has a caller in the
package or the bench: a name read as code (a Name or an Attribute node, not a
string or a docstring) in src/pierce or bench, or the console script's entry
point. The paper's lemmas that only tests run live in tests/lemmas.py."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pierce").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _names_read(trees) -> set[str]:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_function_and_class_in_src_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + BENCH}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used = _names_read(trees.values()) | {t.rpartition(":")[2] for t in scripts.values()}
    defined = [(path.stem, node.name) for path in PACKAGE for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []
