"""The byte-identical CLI contract, pinned on a fixed set of jobs.

Every job runs ``main`` in-process from a temporary working directory with
relative file names, so neither stdout nor stderr mentions the machine.  The
expected exit code, stdout and stderr of each job are in ``golden_cli.json``,
recorded once from the release these jobs first ran on; any change to a
printed byte is a change to the contract.

The same jobs pin when the face lattice is built: never for ``validate``,
``vertices``, ``betti`` and ``compare``, which read the walk's vertices and
edges only (``compare`` compares vertex cones), and once per loaded polytope
for every other command.  The unit 10-cube, whose lattice has 3^10 faces,
checks the first half on an input where building it would cost more than the
walk.
"""

import contextlib
import io
import json
import os
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from unittest import mock

import pytest

from labpoly import polytope
from labpoly.cli import main

from corpus import (
    box,
    cube,
    interval,
    polytope_to_json,
    random_variant,
    square,
    t1,
    transformed,
    w2,
)

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _halfspaces(triples):
    return [{"normal": list(y), "offset": str(eta), "label": m} for y, eta, m in triples]


def inputs() -> dict:
    """File name -> JSON text of every input the jobs read."""
    polytopes = {
        "t1.json": t1(),
        "w2.json": w2(),
        "square_labeled.json": square(2, [1, 2, 3, 4]),
        "square_unlabeled.json": square(2),
        "rectangle_labeled.json": box([2, 3], [1, 2, 3, 4]),
        "interval35.json": interval(3, 5),
        "cube_labeled.json": cube(1, [1, 2, 3, 1, 2, 5]),
        "w2_variant.json": random_variant(w2(), 110),
        # w2 moved by (1/2, -1/3): compare must find that translation
        "w2_moved.json": transformed(w2(), ((1, 0), (0, 1)),
                                     (Fraction(1, 2), Fraction(-1, 3))),
    }
    files = {name: json.dumps(polytope_to_json(p)) for name, p in polytopes.items()}
    raw = {
        # square pyramid: four facets meet at the apex
        "pyramid.json": (3, [((0, 0, 1), 0, 1), ((-1, 0, -1), -1, 1), ((1, 0, -1), -1, 1),
                             ((0, -1, -1), -1, 1), ((0, 1, -1), -1, 1)]),
        "pyramid_half.json": (3, [((0, 0, 1), 0, 1), ((-1, 0, -1), "-1/2", 1),
                                  ((1, 0, -1), "-1/2", 1), ((0, -1, -1), "-1/2", 1),
                                  ((0, 1, -1), "-1/2", 1)]),
        "empty.json": (2, [((1, 0), "1/2", 1), ((0, 1), "1/3", 1), ((-1, -1), "-1/2", 1)]),
        "redundant.json": (2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1),
                               ((-1, -2), -10, 1)]),
        "slab.json": (2, [((1, 0), 0, 1), ((-1, 0), -1, 1), ((0, 1), 0, 1)]),
        "nonprimitive.json": (2, [((2, 0), 0, 1), ((0, 3), 0, 2),
                                  ((-1, -1), "-3/2", 1)]),
    }
    for name, (dim, triples) in raw.items():
        files[name] = json.dumps({"dim": dim, "halfspaces": _halfspaces(triples)})
    files["bad_schema.json"] = json.dumps({"dim": 2})
    files["bad_json.json"] = "{ not json"
    return files


POLYTOPES = ["t1.json", "w2.json", "square_labeled.json", "interval35.json",
             "cube_labeled.json", "w2_variant.json", "nonprimitive.json"]
ONE_FILE = ["validate", "vertices", "faces", "structure-groups", "fan", "delzant",
            "stabilizers", "betti", "verify"]


def jobs() -> list:
    out = []
    for name in POLYTOPES:
        for flags in ([], ["--json"]):
            out += [[cmd, name, *flags] for cmd in ONE_FILE]
            out.append(["compare", name, name, *flags])
    for a, b in [("w2.json", "w2_moved.json"), ("w2.json", "w2_variant.json"),
                 ("t1.json", "w2.json"), ("square_labeled.json", "square_unlabeled.json"),
                 ("square_labeled.json", "rectangle_labeled.json"),
                 ("square_labeled.json", "cube_labeled.json")]:
        for flags in ([], ["--json"], ["--symplectic"], ["--biholomorphic"]):
            out.append(["compare", a, b, *flags])
    out += [
        ["betti", "cube_labeled.json", "--seed", "5"],
        ["betti", "cube_labeled.json", "--xi", "1,2,4", "--json"],
        ["verify", "w2_variant.json", "--seed", "3"],
        ["verify", "t1.json", "--seed", "7", "--json"],
        # error paths (verify has no --samples: each such job is a usage error)
        ["verify", "w2_variant.json", "--samples", "7", "--seed", "3"],
        ["verify", "t1.json", "--samples", "0", "--json"],
        ["verify", "t1.json", "--samples", "-3"],
        ["betti", "square_labeled.json", "--xi", "0,0"],
        ["betti", "square_labeled.json", "--xi", "1,0"],
        ["betti", "square_labeled.json", "--xi", "1,2,3"],
        ["betti", "square_labeled.json", "--xi", "a,b"],
        ["validate", "missing.json"],
        ["compare", "t1.json", "missing.json"],
        ["validate", "bad_schema.json"],
        ["validate", "bad_json.json", "--json"],
        ["compare", "interval35.json", "t1.json"],
    ]
    for name in ["pyramid.json", "pyramid_half.json", "empty.json", "redundant.json",
                 "slab.json"]:
        out += [["validate", name], ["vertices", name, "--json"]]
    out += [[cmd, "pyramid.json"] for cmd in ["faces", "fan", "verify"]]
    # help and usage errors, which argparse ends with SystemExit
    for cmd in ONE_FILE:
        out += [[cmd, "-h"], [cmd]]
    out += [
        ["compare", "-h"],
        ["compare", "t1.json"],
        ["verify", "t1.json", "--samples", "x"],
        ["betti", "t1.json", "--seed"],
        # usage is checked before the file is read
        ["verify", "missing.json", "--samples", "-3"],
    ]
    return out


def run_job(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call.

    argparse wraps help and usage text to the terminal width, which it reads
    from ``COLUMNS``; the width is fixed so the text does not depend on where
    the tests run.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


JOBS = {" ".join(argv): argv for argv in jobs()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, text in inputs().items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def test_golden_file_covers_every_job(expected):
    assert sorted(expected) == sorted(JOBS)


@pytest.mark.parametrize("key", list(JOBS))
def test_cli_output_matches_golden(key, expected, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert run_job(JOBS[key]) == expected[key]


# the commands that print only what the walk stored: vertices and edges
LATTICE_FREE = {"validate", "vertices", "betti", "compare"}


def _lattice_builds(argv) -> int:
    """How often a successful job builds the face lattice: once per loaded
    polytope, unless the command never reads it."""
    if argv[0] in LATTICE_FREE:
        return 0
    return sum(arg.endswith(".json") for arg in argv)


def _succeeding_jobs() -> list:
    """The jobs that load a polytope and exit 0: a failing job may stop before
    or after it reads the lattice."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [key for key, argv in JOBS.items() if key in golden and golden[key]["exit"] == 0
            and any(arg.endswith(".json") for arg in argv)]


@pytest.mark.parametrize("key", _succeeding_jobs())
def test_face_lattice_is_built_once_per_polytope_that_reads_it(
        key, expected, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    real, calls = polytope._face_lattice, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "_face_lattice", counting)
    assert run_job(JOBS[key]) == expected[key]
    assert len(calls) == _lattice_builds(JOBS[key])


def _cube_file(path, shift):
    """The unit 10-cube moved by ``shift`` along x_1, unlabeled."""
    triples = []
    for i in range(10):
        e = tuple(int(j == i) for j in range(10))
        low = shift if i == 0 else 0
        triples += [(e, low, 1), (tuple(-x for x in e), -(low + 1), 1)]
    path.write_text(json.dumps({"dim": 10, "halfspaces": _halfspaces(triples)}))
    return str(path)


def test_lattice_free_commands_never_build_the_lattice_of_the_10_cube(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the face lattice was built")

    monkeypatch.setattr(polytope, "_face_lattice", refuse)
    cube = _cube_file(tmp_path / "cube10.json", 0)
    moved = _cube_file(tmp_path / "cube10_moved.json", Fraction(1, 2))
    corners = list(product((0, 1), repeat=10))
    points = ["(" + ", ".join(map(str, v)) + ")" for v in corners]
    # xi > 0 falls along the edge leaving facet -x_i >= -1 and rises along
    # every other, so the index of a vertex is twice its number of 1s
    betti = ["xi = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)",
             *(f"vertex {x}: index {2 * sum(v)}" for x, v in zip(points, corners)),
             f"poincare coefficients: {[0 if k % 2 else comb(10, k // 2) for k in range(21)]}"]
    for argv, lines in [
            (["validate", cube], [f"valid: dim 10, 20 facets, 1024 vertices, labels {[1] * 20}"]),
            (["vertices", cube], points),
            (["betti", cube, "--xi", "1,2,3,4,5,6,7,8,9,10"], betti),
            (["compare", cube, moved, "--symplectic"],
             ["symplectomorphic (translation by (1/2, 0, 0, 0, 0, 0, 0, 0, 0, 0))"]),
            (["compare", cube, moved],
             ["symplectomorphic (translation by (1/2, 0, 0, 0, 0, 0, 0, 0, 0, 0))",
              "fans equal: biholomorphic"])]:
        assert run_job(argv) == {"exit": 0, "stdout": "".join(f"{x}\n" for x in lines),
                                 "stderr": ""}, argv[0]
