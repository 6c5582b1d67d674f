"""Checks on the package source itself."""

import ast
from pathlib import Path

import labpoly


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    modules = sorted(Path(labpoly.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
