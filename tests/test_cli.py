"""End-to-end tests of the command line interface.

main() is invoked in-process with an argv list; stdout is captured with
capsys.  Every command is exercised in text and JSON mode, and the exit code
contract (0 ok, 1 validation, 2 parse/I/O, 3 internal) is pinned down.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labpoly.cli
from labpoly import delzant, lattice, local_model, morse, polytope
from labpoly.cli import build_parser, main
from labpoly.fan import build_fan
from labpoly.lattice import FiniteAbelianGroup, format_rational
from labpoly.polytope import format_point, validate

from corpus import (
    box,
    doctor_elimination,
    generated_family,
    interval,
    polytope_to_json,
    raise_first_entry,
    square,
    standard_corpus,
    t1,
    w2,
)
from test_golden import GOLDEN, run_job


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    trunc = tmp_path / "trunc.json"
    trunc.write_text("{ not json")
    # w2 with facets 1 and 2 swapped: face [0, 1] is its order-2 vertex (0, 1)
    w2_singular_first = polytope_to_json(w2())
    hs = w2_singular_first["halfspaces"]
    hs[1], hs[2] = hs[2], hs[1]
    return {
        "t1": write("t1.json", polytope_to_json(t1())),
        "t1_label2": write("t1_label2.json", polytope_to_json(t1((1, 1, 2)))),
        "w2": write("w2.json", polytope_to_json(w2())),
        "w2_singular_first": write("w2_singular_first.json", w2_singular_first),
        "square": write("square.json", polytope_to_json(square())),
        "cube_labeled": write("cube_labeled.json",
                              polytope_to_json(box([1, 1, 1], [2, 3, 1, 4, 6, 5]))),
        "football35": write("football35.json", polytope_to_json(interval(3, 5))),
        "bad_geometry": write("bad.json", {
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "offset": "0", "label": 1},
                {"normal": [0, 1], "offset": "0", "label": 1},
            ],
        }),
        "bad_schema": write("bad_schema.json", {"dim": 2}),
        "bad_json": str(trunc),
        "write": write,
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(files, capsys):
    code, out, err = run(capsys, "validate", files["football35"])
    assert code == 0
    assert out == "valid: dim 1, 2 facets, 2 vertices, labels [3, 5]\n"


def test_validate_json(files, capsys):
    code, out, _ = run(capsys, "validate", files["t1"], "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"valid": True, "dim": 2, "facets": 3, "vertices": 3,
                   "labels": [1, 1, 1]}


def test_validate_geometry_failure_is_exit_1(files, capsys):
    code, out, err = run(capsys, "validate", files["bad_geometry"])
    assert code == 1
    assert "unbounded" in err


def test_schema_failure_is_exit_2(files, capsys):
    code, _, err = run(capsys, "validate", files["bad_schema"])
    assert code == 2
    assert "missing key" in err


def test_bad_json_is_exit_2(files, capsys):
    code, _, err = run(capsys, "validate", files["bad_json"])
    assert code == 2
    assert "invalid JSON" in err


def test_file_that_is_not_utf8_is_exit_2(files, capsys):
    path = files["dir"] / "latin1.json"
    path.write_bytes(b'{"dim": 1, "halfspaces": [], "note": "\xff"}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: file is not UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_integer_past_the_digit_limit_is_exit_2(files, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for such an integer
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    path = files["dir"] / "huge_normal.json"
    path.write_text('{"dim": 1, "halfspaces": [{"normal": [1%s], "offset": "0", '
                    '"label": 1}]}' % ("0" * limit))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_float_offset_is_exit_2(files, capsys):
    # a JSON float is not an exact offset, even where it is a dyadic rational
    path = files["write"]("float_offset.json", {
        "dim": 1,
        "halfspaces": [
            {"normal": [1], "offset": "0", "label": 1},
            {"normal": [-1], "offset": -2.5, "label": 1},
        ],
    })
    for command in ("validate", "vertices"):
        assert run(capsys, command, path) == (
            2, "", "error: halfspace 1: bad offset: not a rational number: -2.5\n")


def _fresh_python(code, *argv, timeout):
    # python -c code in a fresh interpreter that imports labpoly from this checkout
    src = str(Path(labpoly.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("offset", ["-1e100000000", "1E5", "-2.5e-3"])
def test_offset_with_an_exponent_is_exit_2_at_once(files, offset):
    # Fraction would expand the exponent: "-1e100000000" is a 10^8-digit integer
    path = files["write"]("exponent.json", {"dim": 1, "halfspaces": [
        {"normal": [1], "offset": "0", "label": 1},
        {"normal": [-1], "offset": offset, "label": 1}]})
    for flags in ([], ["--json"]):
        done = _fresh_python("import sys, labpoly.cli; sys.exit(labpoly.cli.main())",
                             "validate", path, *flags, timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: halfspace 1: bad offset: not a rational number: '{offset}'\n")


@pytest.mark.parametrize("offset", ["1_000", "-1_0/3", "0.2_5"])
def test_offset_with_an_underscore_is_exit_2(files, capsys, offset):
    # Fraction reads digit-group underscores from Python 3.11 on only: every
    # version refuses them alike
    path = files["write"]("underscore.json", {"dim": 1, "halfspaces": [
        {"normal": [1], "offset": offset, "label": 1},
        {"normal": [-1], "offset": "-2000", "label": 1}]})
    for flags in ([], ["--json"]):
        assert run(capsys, "validate", path, *flags) == (
            2, "", f"error: halfspace 0: bad offset: not a rational number: '{offset}'\n")


def test_missing_file_is_exit_2(files, capsys):
    code, _, err = run(capsys, "validate", str(files["dir"] / "nope.json"))
    assert code == 2


def test_nonprimitive_normal_warns_on_stderr(files, capsys):
    path = files["write"]("nonprim.json", {
        "dim": 1,
        "halfspaces": [
            {"normal": [2], "offset": "0", "label": 1},
            {"normal": [-1], "offset": "-1", "label": 1},
        ],
    })
    code, out, err = run(capsys, "validate", path)
    assert code == 0
    assert "warning" in err and "not primitive" in err


def _facets(*triples):
    return [{"normal": list(y), "offset": eta, "label": 1} for y, eta in triples]


@pytest.mark.parametrize("dim, halfspaces, message", [
    (2, _facets(((1, 0), "0"), ((0, 0), "0"), ((-1, -1), "-1")),
     "zero normal on facet 1"),
    (2, _facets(((1, 0), "0"), ((0, 1, 0), "0"), ((-1, -1), "-1")),
     "normal of facet 1 has length 3, expected 2"),
    (0, [], "dimension must be a positive integer"),
    # the segment 0 <= y <= 1 on the line x = 0: x >= 0 and -x >= 0 are tight
    # at both vertices
    (2, _facets(((1, 0), "0"), ((-1, 0), "0"), ((0, 1), "0"), ((0, -1), "-1")),
     "not full-dimensional"),
], ids=["zero_normal", "normal_length", "dim_0", "flat"])
def test_file_that_parses_but_does_not_validate_is_exit_1(files, capsys, dim, halfspaces,
                                                          message):
    path = files["write"]("rejected.json", {"dim": dim, "halfspaces": halfspaces})
    for flags in ([], ["--json"]):
        assert run(capsys, "validate", path, *flags) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# vertices / faces / structure-groups / fan
# ---------------------------------------------------------------------------

def test_vertices_text(files, capsys):
    code, out, _ = run(capsys, "vertices", files["t1"])
    assert code == 0
    assert out == "(0, 0)\n(0, 1)\n(1, 0)\n"


def test_vertices_json(files, capsys):
    code, out, _ = run(capsys, "vertices", files["w2"], "--json")
    obj = json.loads(out)
    assert obj == {"vertices": [["0", "0"], ["0", "1"], ["2", "0"]]}


def _past_digit_limit(f, *args):
    # f(*args) with the interpreter's digit limit lifted for this call only
    # (Python 3.10 before 3.10.7 has no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f(*args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _str_past_digit_limit(x):
    return _past_digit_limit(str, x)


def test_unbounded_ray_prints_past_the_int_digit_limit(files, capsys):
    # the recession cone of these five halfspaces through the origin is the
    # single ray (a b, -b, 1): the first four fix it up to a factor, the last
    # picks its sign; about 6,000 digits in its first coordinate
    a, b = 10**3000 + 7, 10**3000 + 1
    path = files["write"]("unbounded.json", {"dim": 3, "halfspaces": [
        {"normal": y, "offset": "0", "label": 1}
        for y in ([1, a, 0], [-1, -a, 0], [0, 1, b], [0, -1, -b], [0, 0, 1])]})
    ray = ", ".join(_str_past_digit_limit(x) for x in (a * b, -b, 1))
    assert run(capsys, "validate", path) == (
        1, "", f"error: unbounded in direction ({ray})\n")


def test_vertices_print_past_the_int_digit_limit(files, capsys):
    # y <= a, x <= y + b, x >= -10 with 3,002-digit a and b: the vertex
    # (a + b, a) has a numerator of about 6,000 digits
    a = Fraction(10**3001 + 7, 10**3001 + 3)
    b = Fraction(3 * 10**3001 + 1, 7 * 10**3001 + 9)
    path = files["write"]("huge.json", {"dim": 2, "halfspaces": [
        {"normal": [0, -1], "offset": str(-a), "label": 1},
        {"normal": [-1, 1], "offset": str(-b), "label": 1},
        {"normal": [1, 0], "offset": "-10", "label": 1}]})
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    want = [[_str_past_digit_limit(x) for x in v]
            for v in [(-10, -10 - b), (-10, a), (a + b, a)]]
    assert len(want[2][0]) > 12000
    code, out, err = run(capsys, "vertices", path)
    assert (code, err) == (0, "")
    assert out == "".join(f"({x}, {y})\n" for x, y in want)
    assert run(capsys, "vertices", path, "--json")[:2] == (
        0, json.dumps({"vertices": want}, indent=2) + "\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def big_denominator_triangle():
    # x + y >= 1/p, x - y >= 1/q and x <= 1 for coprime 2,501-digit p and q:
    # the first two meet at ((p + q) / 2pq, (q - p) / 2pq), whose reduced
    # denominators pass the interpreter's digit limit
    p, q = 10**2500 + 1, 10**2500 + 3
    return validate(2, [((1, 1), Fraction(1, p), 1), ((1, -1), Fraction(1, q), 2),
                        ((-1, 0), Fraction(-1), 3)])


PRINTED = standard_corpus() + generated_family() + [("big_denominators", None)]


@pytest.mark.parametrize("name", [name for name, _ in PRINTED])
def test_printed_vertices_are_format_point_of_the_fraction_vertices(name, files, capsys):
    """``vertices``, ``betti`` and the vertex faces of ``structure-groups``
    print each vertex from the walk's integer table, x / D by one gcd: the
    text must be :func:`format_point` of the Fraction vertex, also past the
    digit limit."""
    p = dict(PRINTED)[name] or big_denominator_triangle()
    path = files["write"]("p.json", polytope_to_json(p))
    points = [format_point(v) for v in p.vertices]
    coordinates = [[format_rational(x) for x in v] for v in p.vertices]
    assert run(capsys, "vertices", path) == (0, "".join(f"{t}\n" for t in points), "")
    code, out, _ = run(capsys, "vertices", path, "--json")
    assert (code, json.loads(out)) == (0, {"vertices": coordinates})
    code, out, _ = run(capsys, "betti", path)
    assert [line.rpartition(": index ")[0] for line in out.splitlines()[1:-1]] == [
        f"vertex {t}" for t in points]
    code, out, _ = run(capsys, "betti", path, "--json")
    assert [row["vertex"] for row in json.loads(out)["vertex_indices"]] == coordinates
    code, out, _ = run(capsys, "structure-groups", path)
    assert [line.partition(": ")[0] for line in out.splitlines() if " vertex (" in line] == [
        f"face {list(f.active)} vertex {points[f.vertices[0]]}"
        for f in p.faces if f.codim == p.dim]
    if name == "big_denominators":
        assert len(points[0]) > 2 * 5000


def test_faces_lists_whole_lattice(files, capsys):
    code, out, _ = run(capsys, "faces", files["t1"])
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert lines[0] == "codim 0 active [] vertices [0, 1, 2]"


def test_structure_groups_w2(files, capsys):
    code, out, _ = run(capsys, "structure-groups", files["w2"])
    assert code == 0
    assert "face [0, 2] vertex (0, 1): Z/2" in out
    assert out.count("trivial") == 5  # three facets + two smooth vertices


def test_structure_groups_json(files, capsys):
    code, out, _ = run(capsys, "structure-groups", files["football35"], "--json")
    obj = json.loads(out)
    assert obj["structure_groups"] == [
        {"active": [0], "codim": 1, "invariant_factors": [3], "order": 3},
        {"active": [1], "codim": 1, "invariant_factors": [5], "order": 5},
    ]


def test_group_orders_print_past_the_int_digit_limit(files, capsys):
    # coprime 2,501-digit labels a, b on alternate facets: the vertex (0, 1),
    # on facets labeled a and b, has the cyclic group Z/(a*b), whose order
    # has 5,001 digits
    a, b = 10**2500 + 1, 10**2500 + 3
    path = files["write"]("huge_labels.json", polytope_to_json(square(1, [a, b, a, b])))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    ab = _str_past_digit_limit(a * b)
    vertex = "face [0, 3] vertex (0, 1)"
    for command, vertex_row in [
            ("structure-groups", f"{vertex}: Z/{ab}"),
            ("stabilizers", f"{vertex}: reduction Z/{ab}, local Z/{ab}, agree"),
            ("delzant", f"  {vertex}: Z/{ab}")]:
        code, out, err = run(capsys, command, path)
        assert (code, err) == (0, ""), command
        assert vertex_row in out.splitlines(), command
    assert out.splitlines()[1] == f"  [{a}, {-b}, 0, 0]"  # delzant's projection
    # the vertex (1, 1) on the two facets labeled b has the largest order
    b2 = _str_past_digit_limit(b * b)
    assert out.endswith(f"regular level: yes (max stabilizer order {b2})\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_json_writes_integers_past_the_int_digit_limit(files, capsys):
    # the square above under --json: json.dumps refuses Z/(a*b) and b*b, so
    # main writes them as JSON numbers with every digit
    a, b = 10**2500 + 1, 10**2500 + 3
    path = files["write"]("huge_labels.json", polytope_to_json(square(1, [a, b, a, b])))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    outs = {}
    for command in ("structure-groups", "stabilizers", "delzant"):
        code, outs[command], err = run(capsys, command, path, "--json")
        assert (code, err) == (0, ""), command
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        reports = {command: json.loads(out) for command, out in outs.items()}
        for command, report in reports.items():  # what json.dumps writes unlimited
            assert json.dumps(report, indent=2) + "\n" == outs[command], command
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    group = {"invariant_factors": [a * b], "order": a * b}
    assert {"active": [0, 3], "codim": 2, **group} in reports["structure-groups"][
        "structure_groups"]
    assert {"active": [0, 3], "reduction": group, "local": group, "agree": True} in reports[
        "stabilizers"]["faces"]
    assert reports["delzant"]["projection"][0] == [a, -b, 0, 0]
    assert reports["delzant"]["max_stabilizer_order"] == b * b


def test_json_writer_lays_out_a_tuple_as_a_list():
    # as json.dumps(x, indent=2) does, one item a line, every digit of an int
    # past the digit limit written in place, the limit left as it was
    assert labpoly.cli._dumps({"a": (1, 2)}) == json.dumps({"a": (1, 2)}, indent=2)
    assert labpoly.cli._dumps({"a": (1, 2)}) == '{\n  "a": [\n    1,\n    2\n  ]\n}'
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = 10**5000 + 7
    assert labpoly.cli._dumps(((big, -big), ())) == (
        f"[\n  [\n    {_str_past_digit_limit(big)},\n    -{_str_past_digit_limit(big)}\n"
        f"  ],\n  []\n]")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


# ASCII, the characters json escapes, and non-ASCII ones up to an astral
# one (a surrogate pair) and a lone surrogate; a fixed alphabet, since
# st.text() first builds a Unicode table that costs seconds
_json_strings = st.text("az09 \"\\/\x00\x1f\x7f\n\t\xe9\u4e2d\u2028\ud800\U0001f600")
_json_values = st.recursive(
    st.none() | st.booleans() | _json_strings | st.integers() | st.integers(-2**20000, 2**20000),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_json_values)
def test_json_writer_equals_json_dumps(x):
    # the digit limit lifted for the reference only: _dumps writes every
    # digit under the limit as it stands
    want = _past_digit_limit(lambda: json.dumps(x, indent=2))
    assert labpoly.cli._dumps(x) == want


def test_fan_text_and_json(files, capsys):
    code, out, _ = run(capsys, "fan", files["w2"])
    assert code == 0
    assert "rays [(-1, -2), (0, 1), (1, 0)]" in out
    code, out, _ = run(capsys, "fan", files["w2"], "--json")
    obj = json.loads(out)
    assert obj["ambient_dim"] == 2
    assert [[1, 0], [0, 1]] not in obj["cones"]  # generators stored sorted
    assert [[0, 1], [1, 0]] in obj["cones"]


def test_fan_prints_a_normal_past_the_int_digit_limit(files, capsys, monkeypatch):
    # x, y >= 0 and x + 10^5000 y <= 1: the rays line and the cones print the
    # 5,001-digit normal entry as str would with the limit lifted
    big = 10**5000
    p = validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -big), -1, 1)])
    monkeypatch.setattr(labpoly.cli, "load_polytope", lambda path: p)
    cones = sorted(build_fan(p), key=lambda c: (len(c), c))
    rays = sorted({g for c in cones for g in c})
    want = _past_digit_limit(lambda: "".join(
        [f"dim 2, {len(cones)} cones, rays [{', '.join(map(str, rays))}]\n",
         *(f"cone {[list(g) for g in c]}\n" for c in cones)]))
    assert run(capsys, "fan", "p.json") == (0, want, "")
    code, out, err = run(capsys, "fan", "p.json", "--json")
    assert (code, err) == (0, "")
    assert _past_digit_limit(json.loads, out)["cones"] == [[list(g) for g in c] for c in cones]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_label_twin(files, capsys):
    code, out, _ = run(capsys, "compare", files["t1"], files["t1_label2"])
    assert code == 0
    assert "NOT symplectomorphic" in out
    assert "labels differ" in out
    assert "fans equal: biholomorphic" in out


def test_compare_names_a_normal_past_the_int_digit_limit(files, capsys, monkeypatch):
    # x, y >= 0 and x + 10^5000 y <= 1, labeled 1 and then 2 on the last
    # facet; json neither writes nor reads its 5,001-digit normal entry at the
    # digit limit, so the files are written and loaded with the limit lifted,
    # and compare runs with it set
    big = 10**5000
    paths = [_past_digit_limit(files["write"], f"thin{m}.json", polytope_to_json(
        validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -big), -1, m)]))) for m in (1, 2)]
    load = labpoly.cli.load_polytope
    monkeypatch.setattr(labpoly.cli, "load_polytope", lambda path: _past_digit_limit(load, path))
    reason = f"labels differ on the facet with normal (-1, -1{'0' * 5000})"
    assert run(capsys, "compare", *paths) == (
        0, f"NOT symplectomorphic ({reason})\nfans equal: biholomorphic\n", "")
    code, out, err = run(capsys, "compare", *paths, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"symplectomorphic": False, "reason": reason, "fans_equal": True}


def test_compare_flags_limit_the_checks(files, capsys):
    code, out, _ = run(capsys, "compare", "--symplectic",
                       files["t1"], files["t1_label2"])
    assert "fans" not in out and "NOT symplectomorphic" in out
    code, out, _ = run(capsys, "compare", "--biholomorphic",
                       files["t1"], files["t1_label2"])
    assert "symplectomorphic" not in out and "fans equal" in out


def test_compare_identical(files, capsys):
    code, out, _ = run(capsys, "compare", files["t1"], files["t1"])
    assert code == 0
    assert "symplectomorphic (translation by (0, 0))" in out


def test_compare_different_fans(files, capsys):
    code, out, _ = run(capsys, "compare", files["t1"], files["w2"])
    assert code == 0
    assert "fans differ: not biholomorphic" in out


def test_compare_json(files, capsys):
    code, out, _ = run(capsys, "compare", files["t1"], files["t1_label2"],
                       "--json")
    obj = json.loads(out)
    assert obj["symplectomorphic"] is False
    assert obj["fans_equal"] is True
    assert "labels differ" in obj["reason"]


# ---------------------------------------------------------------------------
# delzant / stabilizers
# ---------------------------------------------------------------------------

def test_delzant_t1(files, capsys):
    code, out, _ = run(capsys, "delzant", files["t1"], "--json")
    obj = json.loads(out)
    assert obj["projection"] == [[1, 0, -1], [0, 1, -1]]
    assert obj["kernel_basis"] == [[1, 1, 1]]
    assert obj["level"] == ["1"]
    assert obj["torus_dim"] == 1
    assert obj["component_group"] == {"invariant_factors": [], "order": 1}
    assert obj["regular"] is True


def test_delzant_text(files, capsys):
    code, out, _ = run(capsys, "delzant", files["w2"])
    assert code == 0
    assert "component group: trivial" in out
    assert "regular level: yes (max stabilizer order 2)" in out


def test_stabilizers_agree(files, capsys):
    for key in ["t1", "w2", "square", "football35", "t1_label2"]:
        code, out, _ = run(capsys, "stabilizers", files[key])
        assert code == 0, key
        assert "verdict: oracles agree on all faces" in out
        assert "DISAGREE" not in out


def test_stabilizers_json(files, capsys):
    code, out, _ = run(capsys, "stabilizers", files["w2"], "--json")
    obj = json.loads(out)
    assert obj["oracles_agree"] is True
    face02 = next(f for f in obj["faces"] if f["active"] == [0, 2])
    assert face02["reduction"] == face02["local"] == \
        {"invariant_factors": [2], "order": 2}


# ---------------------------------------------------------------------------
# betti / verify
# ---------------------------------------------------------------------------

def test_betti_explicit_xi(files, capsys):
    code, out, _ = run(capsys, "betti", files["t1"], "--xi", "1,2")
    assert code == 0
    assert "xi = (1, 2)" in out
    assert "poincare coefficients: [1, 0, 1, 0, 1]" in out
    assert "vertex (1, 0): index 2" in out


def test_betti_random_direction_deterministic(files, capsys):
    code1, out1, _ = run(capsys, "betti", files["square"], "--seed", "7")
    code2, out2, _ = run(capsys, "betti", files["square"], "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "poincare coefficients: [1, 0, 2, 0, 1]" in out1


def test_betti_non_generic_xi_is_exit_1(files, capsys):
    code, _, err = run(capsys, "betti", files["square"], "--xi", "1,0")
    assert code == 1
    assert "not generic" in err


def test_betti_zero_and_non_generic_xi_messages(files, capsys):
    assert run(capsys, "betti", files["square"], "--xi", "0,0") == (
        1, "", "error: xi must be nonzero\n")
    assert run(capsys, "betti", files["square"], "--xi", "1,0") == (
        1, "", "error: xi = (1, 0) is not generic for this polytope\n")


def test_betti_bad_xi_is_exit_2(files, capsys):
    code, _, err = run(capsys, "betti", files["square"], "--xi", "1,2,3")
    assert code == 2
    code, _, err = run(capsys, "betti", files["square"], "--xi", "a,b")
    assert code == 2


def test_verify_pass(files, capsys):
    code, out, _ = run(capsys, "verify", files["w2"], "--seed", "2")
    assert code == 0
    assert "verify: PASS" in out
    assert "PASS: reduction invariants (level and tight facets at 3 vertices)" in out
    assert "PASS: stabilizer/structure-group agreement" in out


def test_verify_rejects_negative_samples(files, capsys):
    # verify checks the level at the vertices: it takes no sample count at all
    for count in ("-3", "0", "5"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", files["w2"], "--samples", count])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"error: unrecognized arguments: --samples {count}\n")


def test_verify_json(files, capsys):
    code, out, _ = run(capsys, "verify", files["t1"], "--json")
    obj = json.loads(out)
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])
    assert len(obj["checks"]) == 4


def test_outputs_are_byte_identical(files, capsys):
    for cmd in [["structure-groups"], ["fan"], ["delzant"], ["faces"],
                ["verify", "--seed", "20"]]:
        _, out1, _ = run(capsys, *cmd, files["w2"])
        _, out2, _ = run(capsys, *cmd, files["w2"])
        assert out1 == out2, cmd


# ---------------------------------------------------------------------------
# reports are written whole
# ---------------------------------------------------------------------------

def test_oracle_disagreement_prints_the_full_report_and_exits_3(
        files, capsys, monkeypatch):
    # a wrong local group on every face: both commands must still report all
    # faces and their verdict, not stop at the first disagreement
    monkeypatch.setattr(local_model, "structure_groups", lambda p: [
        (f, FiniteAbelianGroup((7,))) for f in p.proper_faces()])
    code, out, _ = run(capsys, "stabilizers", files["w2"])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 7  # six proper faces and the verdict
    assert all(line.endswith(", local Z/7, DISAGREE") for line in lines[:-1])
    assert lines[-1] == "verdict: ORACLE DISAGREEMENT"

    code, out, _ = run(capsys, "stabilizers", files["w2"], "--json")
    assert code == 3
    obj = json.loads(out)
    assert len(obj["faces"]) == 6 and not any(f["agree"] for f in obj["faces"])
    assert obj["oracles_agree"] is False

    code, out, _ = run(capsys, "verify", files["w2"])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[2].startswith("FAIL: stabilizer/structure-group agreement at a regular level (6 faces, independent scaled normals on each) (")
    assert lines[-1] == "verify: FAIL"

    code, out, _ = run(capsys, "verify", files["w2"], "--json")
    assert code == 3
    obj = json.loads(out)
    assert [c["passed"] for c in obj["checks"]] == [True, True, False, True]
    assert obj["passed"] is False


def _shift_offset(i, shift):
    def corrupt(d):
        c = d.scaled_offsets
        return d._replace(scaled_offsets=c[:i] + (c[i] + shift,) + c[i + 1:])
    return corrupt


@pytest.mark.parametrize("corrupt, failure", [
    (_shift_offset(0, -1), "vertex (0, 0) has zero slacks [1], tight facets [0, 1]"),
    (_shift_offset(0, 1), "vertex (0, 0) has negative slack on facet 0"),
    (lambda d: d._replace(level=(d.level[0] + Fraction(1, 3),)),
     "vertex (0, 0) does not pair to the level"),
], ids=["offset_lowered", "offset_raised", "level_off_by_a_third"])
def test_failing_reduction_row_prints_the_full_report_and_exits_3(
        files, capsys, monkeypatch, corrupt, failure):
    real = delzant.build_construction
    monkeypatch.setattr(delzant, "build_construction", lambda p: corrupt(real(p)))
    name = "reduction invariants (level and tight facets at 3 vertices)"
    code, out, err = run(capsys, "verify", files["t1"])
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        f"FAIL: {name} ({failure})",
        "PASS: face lattice (7 faces listing 12 vertices; each face lists exactly the vertices on its facets)",
        "PASS: stabilizer/structure-group agreement at a regular level (6 faces, independent scaled normals on each)",
        "PASS: Betti numbers independent of direction (5 draws)",
        "verify: FAIL",
    ]
    code, out, err = run(capsys, "verify", files["t1"], "--json")
    assert (code, err) == (3, "")
    obj = json.loads(out)
    assert obj["checks"][0] == {"name": name, "passed": False, "detail": failure}
    assert [c["passed"] for c in obj["checks"]] == [False, True, True, True]
    assert obj["passed"] is False


def test_consistently_wrong_betti_numbers_fail_verify(files, capsys, monkeypatch):
    # every direction moves one vertex from index 2 to index 0: the draws
    # agree with each other and sum to the vertex count, but not with the
    # h-vector of the face lattice
    real = morse.morse_report

    def moved(p, xi):
        rep = real(p, xi)
        indices = list(rep.vertex_indices)
        indices[indices.index(2)] = 0
        coeffs = list(rep.poincare)
        coeffs[0] += 1
        coeffs[2] -= 1
        return rep._replace(vertex_indices=tuple(indices), poincare=tuple(coeffs))

    monkeypatch.setattr(morse, "morse_report", moved)
    code, out, _ = run(capsys, "verify", files["square"])
    assert code == 3
    assert ("FAIL: Betti numbers independent of direction (5 draws) "
            "(saw [(2, 0, 1, 0, 1)], h-vector [1, 2, 1])") in out.splitlines()
    assert out.endswith("verify: FAIL\n")


def test_a_failing_report_leaves_stdout_empty(files, capsys, monkeypatch):
    real = labpoly.cli.format_point
    calls = []

    def third_call_fails(*point):  # a vertex's numerators and their denominator
        calls.append(point)
        if len(calls) == 3:
            raise ValueError("cannot format this vertex")
        return real(*point)

    monkeypatch.setattr(labpoly.cli, "format_point", third_call_fails)
    assert run(capsys, "vertices", files["square"]) == (
        1, "", "error: cannot format this vertex\n")


# ---------------------------------------------------------------------------
# internal identity checks of the reduction presentation: exit 3, no report
# ---------------------------------------------------------------------------

def _diagonal_dropping_last_entry(monkeypatch, square):
    # the elimination's last diagonal entry and V's column under it zeroed,
    # so U*A*V = D still holds, on square matrices (a vertex's tight scaled
    # normals) or on wide ones (the projection), as if the columns were
    # dependent
    def change(w, m, n):
        if (m == n) == square:
            k = min(m, n) - 1
            w[k][k] = 0
            for row in w[m:]:
                row[k] = 0

    doctor_elimination(monkeypatch, change)


def test_dependent_vertex_normals_exit_3(files, capsys, monkeypatch):
    # the only check behind delzant's "regular level" line and the regular
    # level named in verify's structure-group row;
    # face [0, 1] is a vertex whose normals are not unimodular, so its group
    # takes the diagonal-form route
    _diagonal_dropping_last_entry(monkeypatch, square=True)
    for argv in (["delzant"], ["delzant", "--json"], ["verify"],
                 ["verify", "--json"]):
        assert run(capsys, *argv, files["w2_singular_first"]) == (
            3, "", "internal error: dependent facet normals over face [0, 1]\n")


def test_projection_not_surjective_exit_3(files, capsys, monkeypatch):
    _diagonal_dropping_last_entry(monkeypatch, square=False)
    for argv in (["delzant"], ["delzant", "--json"]):
        assert run(capsys, *argv, files["t1"]) == (
            3, "", "internal error: projection is not surjective over the rationals: "
                   "its diagonal is zero at position 1\n")


def test_merge_losing_the_product_exits_3(files, capsys, monkeypatch):
    # every gcd above 1 in the merge doubled: Z/2 + Z/2 at a vertex of the
    # square with all labels 2 (and the projection's diagonal (2, 2)) merge to
    # [4, 0], whose product is not 4; the normals' gcds are 1, so loading and
    # validation run as usual
    real = math.gcd
    monkeypatch.setattr(lattice, "math", SimpleNamespace(
        **{**vars(math), "gcd": lambda *xs: real(*xs) * (1 + (real(*xs) > 1))}))
    path = files["write"]("square_label2.json", polytope_to_json(square(1, [2] * 4)))
    for command, witness in [("structure-groups", "face [0, 2]"), ("stabilizers", "face [0, 2]"),
                             ("delzant", "projection"), ("verify", "projection")]:
        for flags in ([], ["--json"]):
            assert run(capsys, command, path, *flags) == (
                3, "", f"internal error: {witness}: invariant factors [4, 0] of the "
                       f"cyclic orders [2, 2] lost their product\n")


def _double_merge_gcds_under(function):
    # every gcd above 1 that the merge step lattice._merge_step takes doubled,
    # where ``function`` is its first caller outside lattice (past _merge,
    # from_orders and smith_diagonal); every other gcd is the real one
    def patch(monkeypatch):
        real = math.gcd

        def gcd(*xs):
            g = real(*xs)
            frame = sys._getframe(1)
            if g == 1 or frame.f_code.co_name != "_merge_step":
                return g
            while frame.f_globals["__name__"] == lattice.__name__:
                frame = frame.f_back
            return g * (1 + (frame.f_code.co_name == function))

        monkeypatch.setattr(lattice, "math", SimpleNamespace(**{**vars(math), "gcd": gcd}))
    return patch


@pytest.mark.parametrize("function, command, labels, message", [
    # square, all labels 2: its first vertex face [0, 2] takes Z/2 + Z/2
    ("face_groups", "structure-groups", "square",
     "face [0, 2]: invariant factors [4, 0] of the cyclic orders [2, 2] lost their product"),
    ("_extend", "stabilizers", "square",
     "face [0, 2]: invariant factors [4, 0] of the cyclic orders [2, 2] lost their product"),
    # the projection's minor off the kernel pivots, then its own diagonal
    ("_certify_kernel_index", "delzant", "square",
     "projection: invariant factors [4, 0] of the cyclic orders [2, 2] lost their product"),
    ("build_construction", "verify", "square",
     "projection: invariant factors [4, 0] of the cyclic orders [2, 2] lost their product"),
    # w2, all labels 2: its vertex (0, 1) has determinant 2, and the diagonal
    # of its scaled normals is (2, 4)
    ("face_stabilizer", "structure-groups", "w2",
     "face [0, 2]: invariant factors [4, 0] of the cyclic orders [2, 4] lost their product"),
], ids=["label_route", "oracle", "kernel_index", "component_group", "face_stabilizer"])
def test_merge_losing_the_product_names_its_witness(files, capsys, monkeypatch, function,
                                                    command, labels, message):
    obj = polytope_to_json({"square": square, "w2": w2}[labels]())
    for h in obj["halfspaces"]:
        h["label"] = 2
    path = files["write"](f"{labels}_label2.json", obj)
    _double_merge_gcds_under(function)(monkeypatch)
    for flags in ([], ["--json"]):
        assert run(capsys, command, path, *flags) == (3, "", f"internal error: {message}\n")


def test_kernel_certificate_exit_3(files, capsys, monkeypatch):
    # the level -B c is j* at every point only if the kernel rows B
    # annihilate the projection; the square has two, and the last is broken
    real = delzant.kernel_basis

    def wrong_last_row(*args):
        rows = real(*args)
        return rows[:-1] + ((rows[-1][0] + 1, *rows[-1][1:]),)

    monkeypatch.setattr(delzant, "kernel_basis", wrong_last_row)
    for argv in (["delzant"], ["delzant", "--json"], ["verify"],
                 ["verify", "--json"]):
        assert run(capsys, *argv, files["square"]) == (
            3, "", "internal error: projection does not annihilate kernel row 1\n")


def _double_last_kernel_row(monkeypatch):
    # still in the kernel, but the rows span a sublattice of index 2
    real = delzant.kernel_basis

    def doubled(*args):
        rows = real(*args)
        return rows[:-1] + (tuple(2 * x for x in rows[-1]),)

    monkeypatch.setattr(delzant, "kernel_basis", doubled)


def _drop_last_kernel_row(monkeypatch):
    # one row short: what is left still annihilates the projection
    real = delzant.kernel_basis
    monkeypatch.setattr(delzant, "kernel_basis", lambda *args: real(*args)[:-1])


def _duplicate_last_kernel_row(monkeypatch):
    # one row too long: every row annihilates the projection and the pivot
    # columns are those of the true kernel, so only the row count is wrong,
    # and the torus dimension, printed as that count, must never be printed
    real = delzant.kernel_basis

    def duplicated(*args):
        rows = real(*args)
        return rows + rows[-1:]

    monkeypatch.setattr(delzant, "kernel_basis", duplicated)


def _double_projection_diagonal(monkeypatch):
    # the projection's diagonal doubled at its last entry once the
    # U*A*V = D check has passed; the kernel read off V is unchanged
    real = delzant._diagonal_rows

    def patched(a):
        w = real(a)
        if sys._getframe(1).f_code.co_name == "build_construction":
            w[len(a) - 1][len(a) - 1] *= 2
        return w

    monkeypatch.setattr(delzant, "_diagonal_rows", patched)


@pytest.mark.parametrize("patch, message", [
    # the square's kernel rows (1, 1, 0, 0) and (0, 0, 1, 1) have pivots 1, 1
    # on columns 0 and 2; with the second doubled, 2 * 1 = 2 against |det| 1
    # of the projection on columns 1 and 3
    (_double_last_kernel_row,
     "kernel index identity fails: the kernel pivots' product times the projection's "
     "Smith diagonal product is 2, not |det| of the projection off the pivot "
     "columns, 1"),
    (_double_projection_diagonal,
     "kernel index identity fails: the kernel pivots' product times the projection's "
     "Smith diagonal product is 2, not |det| of the projection off the pivot "
     "columns, 1"),
    (_drop_last_kernel_row,
     "kernel rows: 1, distinct pivot columns: 1; both must be N - n = 2"),
    (_duplicate_last_kernel_row,
     "kernel rows: 3, distinct pivot columns: 2; both must be N - n = 2"),
], ids=["doubled_kernel_row", "doctored_projection_diagonal", "dropped_kernel_row",
        "duplicated_kernel_row"])
def test_kernel_index_identity_exit_3(files, capsys, monkeypatch, patch, message):
    patch(monkeypatch)
    for argv in (["delzant"], ["delzant", "--json"], ["verify"], ["verify", "--json"]):
        assert run(capsys, *argv, files["square"]) == (3, "", f"internal error: {message}\n")


def _change_oracle_echelon(change, at=None):
    # ``change(pivot)`` edits the pivot that each Euclid step of the oracle
    # leaves, [its entry of Y * T, *its column of T], unchecked; with ``at``,
    # only the step that extends a face to the tight set ``at``
    def patch(monkeypatch):
        real = local_model._euclid

        def step(live, r):
            pivot, zeroed = real(live, r)
            if at in (None, sys._getframe(1).f_locals["active"]):
                pivot = change(pivot)
            return pivot, zeroed

        monkeypatch.setattr(local_model, "_euclid", step)
    return patch


def _double_pivot(pivot):
    # a column step of determinant 2: it doubles L's new diagonal entry
    return [2 * x for x in pivot]


def _change_oracle_diagonal_input(change):
    # ``change(M)`` edits the matrix the oracle hands to its Smith diagonal,
    # after Y = L*R was checked and the index read off L's diagonal
    def patch(monkeypatch):
        real = local_model.smith_diagonal
        monkeypatch.setattr(local_model, "smith_diagonal", lambda a: real(change(a)))
    return patch


def _unit_diagonal(a):
    # each diagonal entry replaced by its sign
    return tuple(tuple((x > 0) - (x < 0) if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def _change_oracle_diagonal(change):
    # ``change(diag)`` edits the Smith diagonal of M, unchecked
    def patch(monkeypatch):
        real = local_model.smith_diagonal
        monkeypatch.setattr(local_model, "smith_diagonal", lambda a: change(real(a)))
    return patch


def _double_diagonal(diag):
    return tuple(2 * d for d in diag)


def _break_walk_pivots(change):
    # ``change(cols, basis)`` edits every dictionary the walk pivots to once
    # its basis holds facets only, unchecked; ``cols[c][r]`` is entry c of
    # row r, and the last column holds the slacks and then ``num``
    def patch(monkeypatch):
        real = polytope._pivot

        def patched(dictionary, col, i):
            d, basis, cols = real(dictionary, col, i)
            if None not in basis:
                cols = [list(column) for column in cols]
                change(cols, basis)
            return d, basis, cols

        monkeypatch.setattr(polytope, "_pivot", patched)
    return patch


def _raise_first_basis_slack(cols, basis):
    cols[-1][basis[0]] += 1


def _raise_last_num(cols, basis):
    cols[-1][-1] += 1


def _misread_determinants(monkeypatch):
    # the walk reports basis determinant 1 at every vertex, unchecked
    real = polytope._walk

    def patched(dim, hs):
        *walked, determinants = real(dim, hs)
        return *walked, (1,) * len(determinants)

    monkeypatch.setattr(polytope, "_walk", patched)


def _no_generic_direction(monkeypatch):
    monkeypatch.setattr(morse, "is_generic", lambda p, xi: False)


@pytest.mark.parametrize("patch, argv, message", [
    # L's first column doubled: Y = L*R leaves R = (1, 0) / 2 for face [0]
    (_change_oracle_echelon(_double_pivot), ["stabilizers", "w2"],
     "column echelon over face [0] broke the identity Y = L*R: row 0 of R is "
     "not integral"),
    # the labeled 3-cube, the step broken at the edge face [0, 3] alone: its
    # parent [0] and every face before it pass, and the edge's own row
    # R = (0, -1, 0) / -2 fails before any vertex below it is reached
    (_change_oracle_echelon(_double_pivot, at=(0, 3)), ["stabilizers", "cube_labeled"],
     "column echelon over face [0, 3] broke the identity Y = L*R: row 1 of R is "
     "not integral"),
    # broken at the facet [2] alone: the facet's own row fails, not a child's
    (_change_oracle_echelon(_double_pivot, at=(2,)), ["verify", "cube_labeled"],
     "column echelon over face [2] broke the identity Y = L*R: row 0 of R is "
     "not integral"),
    # M built from an L with unit diagonal: the saturation index 2 of the
    # normals (1, 0), (-1, -2), read off the checked L, no longer matches
    (_change_oracle_diagonal_input(_unit_diagonal), ["stabilizers", "w2"],
     "structure group over face [0, 2] has order 1, not the labels' product "
     "times the saturation index, 2"),
    # the Smith diagonal runs on faces of index above 1 only: w2's facets
    # and its other vertices take the labels' merge, and the first face the
    # doubling reaches is the vertex (0, 1), of index 2
    (_change_oracle_diagonal(_double_diagonal), ["verify", "w2"],
     "structure group over face [0, 2] has order 8, not the labels' product "
     "times the saturation index, 2"),
    (_break_walk_pivots(_raise_first_basis_slack), ["validate", "w2"],
     "vertex walk: row 0 of the dictionary at basis (0, 1) is not d * e_0"),
    # the closed form's premise: w2's vertex (0, 1) has |det Y_v| = 2; read
    # as determinant 1, it fails face_groups' Y * E = I certificate
    (_misread_determinants, ["structure-groups", "w2"],
     "Y * E != I at vertex (0, 1), of basis determinant 1"),
    (_break_walk_pivots(_raise_last_num), ["vertices", "w2"],
     "vertex walk: the basic solution at basis (0, 1) misses facet 1"),
    (_no_generic_direction, ["betti", "square"],
     f"could not find a generic direction in dimension 2 for 4 vertices "
     f"(last bound tried {9 * 2 ** 99})"),
], ids=["oracle_echelon_identity", "oracle_echelon_at_an_edge", "oracle_echelon_at_a_facet",
        "oracle_index_diagonal", "oracle_index_certificate", "walk_basis_row",
        "closed_form_premise", "walk_basic_solution", "morse"])
def test_exit_3_names_the_operand(files, capsys, monkeypatch, patch, argv, message):
    patch(monkeypatch)
    command, name = argv
    for flags in ([], ["--json"]):
        assert run(capsys, command, files[name], *flags) == (
            3, "", f"internal error: {message}\n")


@pytest.mark.parametrize("block", ["U", "V", "D"])
@pytest.mark.parametrize("argv, message", [
    (["structure-groups", "w2"],
     "face [0, 2]: diagonal reduction broke the identity U*A*V = D on the 2x2 matrix "
     "with largest entry bit-length 2"),
    # the projection's diagonal form, which delzant and verify take first
    (["delzant", "w2"],
     "projection: diagonal reduction broke the identity U*A*V = D on the 2x3 matrix "
     "with largest entry bit-length 2"),
    (["verify", "w2"],
     "projection: diagonal reduction broke the identity U*A*V = D on the 2x3 matrix "
     "with largest entry bit-length 2"),
], ids=["smith", "projection_delzant", "projection_verify"])
def test_broken_diagonal_form_exits_3_naming_the_operand(files, capsys, monkeypatch,
                                                         argv, message, block):
    # one entry of U, V or D off by one once the elimination has run
    doctor_elimination(monkeypatch, raise_first_entry(block))
    command, name = argv
    for flags in ([], ["--json"]):
        assert run(capsys, command, files[name], *flags) == (
            3, "", f"internal error: {message}\n")


def test_oracle_wrong_split_exits_3_naming_the_face(files, capsys, monkeypatch):
    # Z/8 in place of Z/2 x Z/4 at the vertex face [0, 2] of w2 with all
    # labels 2 (index 2, M = diag(2, 2) * L = ((2, 0), (-2, -4)) there): the
    # order is right, so the index certificate and the divisibility chain
    # pass, and only the comparison with face_groups can see it
    real = local_model.smith_diagonal
    monkeypatch.setattr(local_model, "smith_diagonal", lambda a: (
        (1, 8) if tuple(map(tuple, a)) == ((2, 0), (-2, -4)) else real(a)))
    obj = polytope_to_json(w2())
    for h in obj["halfspaces"]:
        h["label"] = 2
    path = files["write"]("w2_label2.json", obj)
    code, out, err = run(capsys, "stabilizers", path)
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert [line for line in lines if line.endswith("DISAGREE")] == [
        "face [0, 2] vertex (0, 1): reduction Z/2 x Z/4, local Z/8, DISAGREE"]
    assert len(lines) == 7 and lines[-1] == "verdict: ORACLE DISAGREEMENT"

    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (3, "")
    assert out.splitlines()[2] == (
        "FAIL: stabilizer/structure-group agreement at a regular level (6 faces, "
        "independent scaled normals on each) (face [0, 2]: Z/2 x Z/4 vs Z/8)")
    assert out.endswith("verify: FAIL\n")


def _unit_pivot_entry(pivot):
    # the pivot's entry of Y * T read as its sign, its column of T kept: L's
    # new diagonal entry reads +-1, so the running index does too
    return [(pivot[0] > 0) - (pivot[0] < 0), *pivot[1:]]


def test_oracle_closed_form_on_a_misread_index_exits_3(files, capsys, monkeypatch):
    # w2's vertex face [0, 2] has index 2; with its pivot entry read as -1,
    # R's row (0, -2) / -1 is still integral and M = diag(1, 1) * L has
    # determinant 1 = the labels' product times the misread index, so only
    # the comparison with face_groups sees the trivial group the labels'
    # merge gives there
    _change_oracle_echelon(_unit_pivot_entry, at=(0, 2))(monkeypatch)
    code, out, err = run(capsys, "stabilizers", files["w2"])
    assert (code, err) == (3, "")
    assert [line for line in out.splitlines() if line.endswith("DISAGREE")] == [
        "face [0, 2] vertex (0, 1): reduction Z/2, local trivial, DISAGREE"]
    assert out.endswith("verdict: ORACLE DISAGREEMENT\n")

    code, out, err = run(capsys, "stabilizers", files["w2"], "--json")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert [(f["active"], f["local"]) for f in report["faces"] if not f["agree"]] == [
        ([0, 2], {"invariant_factors": [], "order": 1})]
    assert report["oracles_agree"] is False

    row = ("stabilizer/structure-group agreement at a regular level (6 faces, "
           "independent scaled normals on each)")
    code, out, err = run(capsys, "verify", files["w2"])
    assert (code, err) == (3, "")
    assert f"FAIL: {row} (face [0, 2]: Z/2 vs trivial)" in out.splitlines()
    assert out.endswith("verify: FAIL\n")

    code, out, err = run(capsys, "verify", files["w2"], "--json")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert [c for c in report["checks"] if not c["passed"]] == [
        {"name": row, "passed": False, "detail": "face [0, 2]: Z/2 vs trivial"}]
    assert report["passed"] is False


def test_non_palindromic_betti_numbers_fail_verify(files, capsys, monkeypatch):
    # draws that agree with each other and with the h-vector still fail when
    # h_k != h_(n-k) (Dehn-Sommerville), as an incomplete face lattice gives
    monkeypatch.setattr(morse, "h_vector", lambda p: (1, 2, 0))
    monkeypatch.setattr(morse, "poincare_polynomial", lambda p, xi: (1, 0, 2, 0, 0))
    code, out, _ = run(capsys, "verify", files["square"])
    assert code == 3
    assert ("FAIL: Betti numbers independent of direction (5 draws) "
            "(saw [(1, 0, 2, 0, 0)], h-vector [1, 2, 0])") in out.splitlines()
    assert out.endswith("verify: FAIL\n")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_importing_the_cli_builds_no_parser():
    # the benchmark times this import in a fresh interpreter: the parser is
    # built by the first call to main, not at import
    done = _fresh_python(
        "import labpoly.cli; print(labpoly.cli.build_parser.cache_info().currsize)", timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_a_narrow_first_call_leaves_later_help_unchanged(capsys, monkeypatch, tmp_path):
    # argparse reads the terminal width when it formats text, not when the
    # parser is built, so the cached parser keeps no width of its own
    build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "20")
    with pytest.raises(SystemExit):
        main(["compare", "-h"])
    narrow = capsys.readouterr().out
    assert build_parser.cache_info().currsize == 1
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert narrow != golden["compare -h"]["stdout"]
    monkeypatch.chdir(tmp_path)
    for key in ("compare -h", "compare t1.json"):
        assert run_job(key.split()) == golden[key]


def test_betti_xi_does_not_carry_over_to_the_next_call(files, capsys):
    seeded = morse.random_generic_direction(t1(), random.Random(5))
    assert seeded != (1, 2)
    code, out, _ = run(capsys, "betti", files["t1"], "--xi", "1,2")
    assert (code, out.splitlines()[0]) == (0, "xi = (1, 2)")
    code, out, _ = run(capsys, "betti", files["t1"], "--seed", "5")
    assert (code, out.splitlines()[0]) == (0, f"xi = {seeded}")
    assert build_parser() is build_parser()
