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
