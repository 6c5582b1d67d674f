"""Checks on the package source itself."""

import ast
import subprocess
import sys
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


def _references(paths):
    """(path, line, name) of every ast.Name and ast.Attribute in the files."""
    refs = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    return refs


def _public_definitions(path):
    """``(name, node)`` of the public top-level functions, classes and
    assigned names (``Mat = tuple``), and of the public methods and
    properties of those classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # a name only tests or docstrings mention is surface nothing runs; a
    # use inside the definition itself (recursion, or an assignment's own
    # target) does not count
    package = sorted(Path(labpoly.__file__).parent.rglob("*.py"))
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    bench = sorted(bench_dir.rglob("*.py"))
    assert bench, f"no benchmark sources under {bench_dir}"
    refs = _references(package + bench)
    unused = []
    for path in package:
        for name, node in _public_definitions(path):
            if not any(ref == name and not (
                    where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, ref in refs):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"public names that nothing runs: {unused}"


def test_public_assignments_are_checked():
    # the check above sees the module-level names, not only defs and classes
    lattice = Path(labpoly.__file__).parent / "lattice.py"
    assert {"Vec", "Mat"} <= {name for name, _ in _public_definitions(lattice)}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; any other module must read every name
    # it imports (an attribute access like json.dumps reads the name json)
    unused = []
    for path in sorted(Path(labpoly.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {name}" for name in
                           ((a.asname or a.name).split(".")[0] for a in node.names)
                           if name not in read]
    assert not unused, f"imported names that nothing reads: {unused}"


def test_the_structure_group_oracle_does_not_use_the_printed_route():
    # local_model.structure_groups checks delzant.face_groups on every proper
    # face, each face's echelon extended from its parent's by the Euclid step
    # it shares with lattice.echelon, so its code may not import delzant or
    # name the printed route's functions (its docstring may)
    path = Path(labpoly.__file__).parent / "local_model.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    forbidden = {"delzant", "face_groups", "face_stabilizer"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in forbidden]
    assert found == [], f"local_model.py uses the printed route: {found}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays this import first, and dataclasses brings inspect,
    # ast, dis and tokenize with it; -S keeps site's own imports out
    src = Path(labpoly.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import labpoly.cli; "
            "print(labpoly.cli.__file__); print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [str(src / "labpoly" / "cli.py"), ""]


def test_no_module_imports_dataclasses_or_typing():
    # typing is checked in the source only: a stdlib module may load it
    # itself on some Python versions
    found = []
    for path in sorted(Path(labpoly.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == [], f"modules that import dataclasses or typing: {found}"
