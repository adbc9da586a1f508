"""Every module-level function, class and constant in src/pierce has a reader
in the package or the bench: a name read as code (a Name or an Attribute node
in a load, not a string, a docstring or the assignment itself) in src/pierce
or bench, or the console script's entry point. Dunder names such as __all__
are exempt. The paper's lemmas that only tests run live in tests/lemmas.py.
Only pipeline.flag_values writes a report flag, only cli.cli_run catches a
package error, only pipeline.validate maps a family into the curve's frame,
and only pipeline's parse reads the report layout SHAPES."""

import ast
import tomllib
from pathlib import Path

import pierce.errors
import pierce.pipeline

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


def test_only_flag_values_writes_a_flag():
    # Each flag's rule lives in pipeline.flag_values, which solve and verify
    # both call, and pipeline.FLAGS lists the names. A rule is a write: a flag
    # name as a dict key, or as the key of an assigned subscript. Elsewhere a
    # name may only be listed or read (verify reads the verdicts, the CLI
    # reads all_bodies_hit), so a second rule cannot creep back into
    # run_pipeline or verify_report as a flags[...] line or a truth dict.
    names = {*pierce.pipeline.FLAGS, "condition_holds"}
    trees, writes = _trees(), []
    for path in PACKAGE:
        for top in trees[path].body:
            for node in ast.walk(top):
                keys = node.keys if isinstance(node, ast.Dict) else (
                    [node.slice] if isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store) else [])
                writes += [(path.stem, getattr(top, "name", None), key.value) for key in keys
                           if isinstance(key, ast.Constant) and key.value in names]
    assert {name for _, _, name in writes} == names
    assert [w for w in writes if w[:2] != ("pipeline", "flag_values")] == []


def test_only_the_cli_catches_a_package_error():
    # One path per fault: a pierce.errors class raised in a stage goes up to
    # cli_run, which prints it and picks the exit code. An except clause
    # elsewhere would re-wrap, retry or swallow it, as candidate_classes'
    # fault was once re-wrapped by run_pipeline and turned into "none" by
    # brute_min_transversal.
    errors = {name for name, obj in vars(pierce.errors).items()
              if isinstance(obj, type) and obj.__module__ == pierce.errors.__name__}
    trees, catches = _trees(), []
    for path in PACKAGE:
        for top in trees[path].body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                             if isinstance(n, (ast.Name, ast.Attribute))}
                    catches += [(path.stem, getattr(top, "name", None), name)
                                for name in sorted(named & errors)]
    assert "PierceError" in errors
    assert ("cli", "cli_run", "PierceError") in catches
    assert [c for c in catches if c[:2] != ("cli", "cli_run")] == []


def test_only_validate_maps_bodies_into_the_curve_frame():
    # One door into the unit frame: solve, verify, oracle and stats take
    # their family from pipeline.validate. A command that mapped the bodies
    # itself could skip the map, as pierce oracle once did, and read
    # TOL_GEOM in input units. build_meet_graph's own map serves its
    # callers without arcs, the bench's among them; naming it here keeps
    # that exception from growing.
    trees, callers = _trees(), []
    for path in PACKAGE:
        for top in trees[path].body:
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "to_unit" for node in ast.walk(top)):
                callers.append(f"{path.stem}.{top.name}")
    assert sorted(callers) == ["meetgraph.build_meet_graph", "pipeline.validate"]


def test_only_the_parse_of_shapes_reads_it():
    # pipeline.SHAPES is parsed once, next to it, into PATHS, HEADS and
    # OBJECTS, and the report's readers take that parse: to_dict, verify's
    # shape check and pierce plot. A module that split SHAPES' paths itself
    # would hold a second parse of one layout.
    trees, readers = _trees(), {"SHAPES": [], "PATHS": [], "HEADS": [], "OBJECTS": []}
    for path in PACKAGE:
        for top in trees[path].body:
            name = ast.unparse(top.targets[0]) if isinstance(top, ast.Assign) else getattr(
                top, "name", None)
            for read in _names_read([top]) & readers.keys():
                readers[read].append(f"{path.stem}.{name}")
    assert readers["SHAPES"] == ["pipeline.PATHS"]
    assert sorted(readers["PATHS"]) == ["cli._cmd_plot", "pipeline.HEADS", "pipeline.OBJECTS",
                                        "pipeline.TransversalReport", "reports._shape_failures"]
    for parse in ("HEADS", "OBJECTS"):
        assert sorted(readers[parse]) == ["pipeline.TransversalReport", "reports._shape_failures"]
