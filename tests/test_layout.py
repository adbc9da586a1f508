"""Every module-level function, class and constant in src/pierce has a reader
in the package or the bench: a name read as code (a Name or an Attribute node
in a load, not a string, a docstring or the assignment itself) in src/pierce
or bench, or the console script's entry point. Dunder names such as __all__
are exempt. The paper's lemmas that only tests run live in tests/lemmas.py."""

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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def _trees():
    return {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + BENCH}


def test_every_function_and_class_in_src_has_a_caller():
    trees = _trees()
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used = _names_read(trees.values()) | {t.rpartition(":")[2] for t in scripts.values()}
    defined = [(path.stem, node.name) for path in PACKAGE for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []


def test_every_module_constant_in_src_is_read():
    # Assignments at a module's top level, tuple targets included.
    trees = _trees()
    used = _names_read(trees.values())
    defined = [(path.stem, n.id) for path in PACKAGE for node in trees[path].body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               for n in ast.walk(target) if isinstance(n, ast.Name)
               and not (n.id.startswith("__") and n.id.endswith("__"))]
    assert ("geometry", "TOL_GEOM") in defined
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []
