"""Tests for face cones, the face-lattice certificate and fan comparison."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labpoly.cli
from labpoly.cli import main
from labpoly.fan import build_fan, face_lattice_failure, vertex_cones
from labpoly.lattice import dot
from labpoly.polytope import Face, validate

from corpus import (
    cube,
    generated_family,
    identity,
    interval,
    labeled_polygon_products,
    labeled_simplex_products,
    polytope_to_json,
    reference_fan,
    square,
    standard_corpus,
    t1,
    transformed,
    w2,
)


def fraction_duality_holds(p, face, cone):
    """The per-face check with Fraction dot products (the reference for the
    table of minimizing vertices that ``reference_fan`` computes once)."""
    lows = [min(dot(g, v) for v in p.vertices) for g in cone]
    on_face = set(face.vertices)
    for vi, v in enumerate(p.vertices):
        at_min = all(dot(g, v) == lo for g, lo in zip(cone, lows))
        if vi in on_face:
            if not at_min:
                return False
        elif at_min and cone:
            return False
    return True


def rays(fan):
    """The sorted generators of every cone, as ``labpoly fan`` lists them."""
    return tuple(sorted({g for c in fan for g in c}))


def cone_of(p, face):
    return tuple(sorted(p.halfspaces[i].normal for i in face.active))


def doctored(p, k, face):
    """A copy of p whose face lattice is p's with face k read as ``face``: the
    copy's cached ``faces`` entry is set, so it is never derived from the edges."""
    q = copy.copy(p)
    vars(q)["faces"] = p.faces[:k] + (face,) + p.faces[k + 1:]
    return q


def fan_failure(p):
    """build_fan's refusal message, or None if it passes."""
    try:
        build_fan(p)
    except RuntimeError as exc:
        assert str(exc) == face_lattice_failure(p)
        return str(exc)
    return None


def reference_passes(p):
    try:
        reference_fan(p)
    except RuntimeError as exc:
        assert str(exc).endswith(" fails the minimization characterization")
        return False
    return True


CASES = standard_corpus() + generated_family()


def test_t1_fan_contents():
    p = t1()
    f = build_fan(p)
    assert type(f) is frozenset
    assert all(len(g) == p.dim == 2 for c in f for g in c)
    assert rays(f) == ((-1, -1), (0, 1), (1, 0))
    sizes = sorted(len(c) for c in f)
    assert sizes == [0, 1, 1, 1, 2, 2, 2]  # zero cone, three rays, three 2-cones


def test_w2_fan_rays():
    f = build_fan(w2())
    assert set(rays(f)) == {(1, 0), (0, 1), (-1, -2)}


def test_fan_forgets_labels_and_offsets():
    p1 = t1()
    p2 = t1((1, 1, 2))
    p3 = validate(2, [((1, 0), 1, 1), ((0, 1), -2, 5), ((-1, -1), -4, 3)])
    fan1 = build_fan(p1)
    assert fan1 == build_fan(p2)
    assert fan1 == build_fan(p3)
    assert vertex_cones(p1) == vertex_cones(p2) == vertex_cones(p3)


def test_different_shapes_different_fans():
    assert build_fan(t1()) != build_fan(w2())
    assert build_fan(t1()) != build_fan(square())
    assert vertex_cones(t1()) != vertex_cones(w2())


def write_polytope(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(json.dumps(polytope_to_json(p)))
    return str(path)


def test_dimension_mismatch(tmp_path, capsys):
    # compare checks the dimensions before either comparison, so fans of
    # different dimensions are never compared as sets
    a = write_polytope(tmp_path, "t1.json", t1())
    b = write_polytope(tmp_path, "interval.json", interval(1, 1))
    for flags in ([], ["--biholomorphic"], ["--symplectic"], ["--json"]):
        assert main(["compare", a, b, *flags]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: dimension mismatch\n")


def test_cone_count_matches_face_count():
    for name, p in standard_corpus()[:25]:
        f = build_fan(p)
        assert len(f) == len(p.faces), name
        assert vertex_cones(p) == {c for c in f if len(c) == p.dim}, name


def test_face_listing_every_vertex_is_refused():
    # facet 0 of the triangle recorded with every vertex on it: the vertex
    # off that facet misses the generator's minimum
    p = t1()
    bad = Face(active=(0,), vertices=tuple(range(len(p.vertices))))
    assert not fraction_duality_holds(p, bad, cone_of(p, bad))
    q = doctored(p, p.faces.index(next(f for f in p.faces if f.active == (0,))), bad)
    with pytest.raises(RuntimeError, match=r"^face \[0\] lists vertex \(1, 0\), "
                                           r"which is not on facets \[0\]$"):
        build_fan(q)
    assert not reference_passes(q)


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_certificate_refuses_every_doctored_face(name, p):
    # each face in turn with vertex 0 toggled, and read as the next face's
    # tight set over its own vertices: the certificate refuses every such
    # lattice and names the doctored face, while the per-face reference
    # refuses only those whose doctored face has a nonzero cone
    cones = [cone_of(p, f) for f in p.faces]
    assert build_fan(p) == reference_fan(p) == frozenset(cones)
    verdicts = set()
    for k, face in enumerate(p.faces):
        assert fraction_duality_holds(p, face, cones[k])
        toggled = Face(face.active, tuple(sorted(set(face.vertices) ^ {0})))
        shifted = Face(p.faces[(k + 1) % len(p.faces)].active, face.vertices)
        for f in (toggled, shifted):
            q = doctored(p, k, f)
            assert fan_failure(q).startswith(f"face {list(f.active)}"), f
            verdict = reference_passes(q)
            assert verdict == fraction_duality_holds(p, f, cone_of(p, f)) == (not f.active), f
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,p", CASES[:40], ids=[name for name, _ in CASES[:40]])
def test_permuted_facets_give_an_equal_fan_of_sorted_tuples(name, p):
    # reversed, every face lists its normals in the opposite order, so the
    # fans agree only if each cone is put in one canonical order
    hs = [(h.normal, h.offset, h.label) for h in p.halfspaces]
    f = build_fan(p)
    for order in (hs[::-1], hs[1:] + hs[:1]):
        q = validate(p.dim, order)
        assert build_fan(q) == f
        assert vertex_cones(q) == vertex_cones(p)
    for c in f:
        assert type(c) is tuple and all(type(y) is tuple for y in c)
        assert list(c) == sorted(set(c))
    assert f == frozenset(cone_of(p, face) for face in p.faces)


def test_fan_json_is_deterministic(tmp_path, capsys):
    path = write_polytope(tmp_path, "w2.json", w2())
    reports = []
    for _ in range(2):
        assert main(["fan", path, "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    obj = json.loads(reports[0])
    assert obj["ambient_dim"] == 2
    assert obj["cones"][0] == []  # zero cone sorts first
    assert [[-1, -2]] in obj["cones"]
    # by (length, generators): the zero cone, the rays, then the 2-cones
    assert obj["cones"] == sorted(obj["cones"], key=lambda c: (len(c), c))
    assert [len(c) for c in obj["cones"]] == [0, 1, 1, 1, 2, 2, 2]


# ---------------------------------------------------------------------------
# the generated property: vertex cones decide fan equality
# ---------------------------------------------------------------------------

@st.composite
def fan_pairs(draw):
    """A generated polytope and a second one: a translated, relabeled and
    facet-permuted copy (the same fan), or another draw of the same family
    (mostly another fan)."""
    shapes = draw(st.sampled_from((labeled_polygon_products(), labeled_simplex_products())))
    p = draw(shapes)
    if not draw(st.booleans()):
        return p, draw(shapes)
    shift = tuple(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))) for _ in range(p.dim))
    labels = draw(st.lists(st.integers(1, 6), min_size=len(p.halfspaces),
                           max_size=len(p.halfspaces)))
    q = transformed(p, identity(p.dim), shift, labels=labels)
    hs = draw(st.permutations([(h.normal, h.offset, h.label) for h in q.halfspaces]))
    return p, validate(p.dim, hs)


# 80 examples take 0.7-0.9 s (Python 3.11.7, one core)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(fan_pairs())
def test_vertex_cones_decide_fan_equality(pair):
    p, q = pair
    fan_p, fan_q = reference_fan(p), reference_fan(q)
    assert build_fan(p) == fan_p and build_fan(q) == fan_q
    assert (vertex_cones(p) == vertex_cones(q)) == (fan_p == fan_q)


# ---------------------------------------------------------------------------
# exit 3 from a doctored lattice or vertex, in text and --json
# ---------------------------------------------------------------------------

def run_on(capsys, monkeypatch, q, *argv):
    """``main(argv)`` with every input file loaded as q."""
    monkeypatch.setattr(labpoly.cli, "load_polytope", lambda path: q)
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def face_x0(p):
    """The index and face of the unit cube's facet x_1 = 0, vertices 0 to 3."""
    return next((k, f) for k, f in enumerate(p.faces) if f.active == (0,))


def missing_vertex():
    p = cube()
    k, f = face_x0(p)
    return doctored(p, k, Face(f.active, f.vertices[:-1])), "face [0] misses vertex (0, 1, 1)"


def extra_vertex():
    p = cube()
    k, f = face_x0(p)
    return (doctored(p, k, Face(f.active, f.vertices + (4,))),
            "face [0] lists vertex (1, 0, 0), which is not on facets [0]")


def swapped_vertices():
    # vertices 0 and 7 trade coordinates and keep their tight sets
    p = cube()
    den, points = p.scaled_vertices
    return (p._replace(scaled_vertices=(den, (points[7],) + points[1:7] + (points[0],))),
            "vertex (1, 1, 1) minimizes the normals of facets [1, 3, 5], "
            "but its tight set is [0, 2, 4]")


@pytest.mark.parametrize("active, face, message", [
    ((0,), Face((0,), (0, 1, 2, 2)), "face [0]: its vertices are not strictly increasing"),
    ((0,), Face((0,), ()), "face [0] lists no vertex"),
    ((0, 2), Face((2, 0), (0, 1)), "face [2, 0]: its facets are not strictly increasing"),
], ids=["vertex_twice", "no_vertex", "facets_unordered"])
def test_certificate_refuses_a_list_out_of_order(active, face, message):
    # vertex 2 twice in place of vertex 3 keeps the count and every mask test
    p = cube()
    k = next(k for k, f in enumerate(p.faces) if f.active == active)
    assert fan_failure(doctored(p, k, face)) == message


LATTICE_ROW = ("face lattice (27 faces listing 64 vertices; "
               "each vertex minimizes exactly its tight facets)")


@pytest.mark.parametrize("doctor", [missing_vertex, extra_vertex, swapped_vertices])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_fan_names_the_failing_face_or_vertex(doctor, flags, capsys, monkeypatch):
    q, message = doctor()
    assert run_on(capsys, monkeypatch, q, "fan", "q.json", *flags) == (
        3, "", f"internal error: {message}\n")


@pytest.mark.parametrize("flags", [[], ["--json"], ["--biholomorphic"]])
def test_compare_names_a_vertex_off_its_tight_set(flags, capsys, monkeypatch):
    q, message = swapped_vertices()
    assert run_on(capsys, monkeypatch, q, "compare", "q.json", "q.json", *flags) == (
        3, "", f"internal error: {message}\n")


def test_compare_passes_a_doctored_lattice_it_never_reads(capsys, monkeypatch):
    q, _ = missing_vertex()
    assert run_on(capsys, monkeypatch, q, "compare", "q.json", "q.json") == (
        0, "symplectomorphic (translation by (0, 0, 0))\nfans equal: biholomorphic\n", "")


@pytest.mark.parametrize("doctor", [missing_vertex, extra_vertex, swapped_vertices])
def test_verify_row_names_the_failing_face_or_vertex(doctor, capsys, monkeypatch):
    q, message = doctor()
    code, out, err = run_on(capsys, monkeypatch, q, "verify", "q.json")
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert f"FAIL: {LATTICE_ROW} ({message})" in lines
    assert lines[-1] == "verify: FAIL"
    code, out, err = run_on(capsys, monkeypatch, q, "verify", "q.json", "--json")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert {"name": LATTICE_ROW, "passed": False, "detail": message} in report["checks"]
    assert report["passed"] is False


def test_verify_row_passes_on_the_cube(capsys, monkeypatch):
    code, out, _ = run_on(capsys, monkeypatch, cube(), "verify", "q.json")
    assert code == 0
    assert f"PASS: {LATTICE_ROW}" in out.splitlines()
