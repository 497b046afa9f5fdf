"""Design invariants of the package source, checked on its syntax trees."""

import ast
from pathlib import Path

import barygap

SRC = Path(barygap.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_no_numpy_unique_call():
    # fpq.unique_columns is the one distinct-columns helper: it gives what
    # numpy's unique gives, in the same order, by one lexsort
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            called = isinstance(node, ast.Attribute) and node.attr == "unique" and (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                alias.name == "unique" for alias in node.names
            )
            if called or imported:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_fpq_imports_no_scipy():
    # every hub solve is numpy alone: the q = inf radii steps run the
    # package's own stacked NNLS, not scipy's
    found = []
    for node in ast.walk(_trees()["fpq.py"]):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"fpq.py:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_one_engine_dispatcher():
    # fpq._solve_canonical is the one loop that forms engine stacks: no other
    # code in the package names an iterative engine, and no fpq function
    # takes a step cap (the caps are module constants the engines read)
    engines = {"_newton", "_simplicial", "_radii"}
    found = []
    for name, tree in _trees().items():
        for top in tree.body:
            where = f"{name[:-3]}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs = [node.id]
                elif isinstance(node, ast.Attribute):
                    refs = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    refs = [alias.name for alias in node.names]
                else:
                    continue
                if engines.intersection(refs) and where != "fpq._solve_canonical":
                    found.append(f"{where}:{node.lineno}")
    for node in ast.walk(_trees()["fpq.py"]):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            if "max_steps" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                found.append(f"fpq.py:{node.lineno} max_steps")
    assert found == []
