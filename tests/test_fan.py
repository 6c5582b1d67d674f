"""Tests for face cones and fan comparison."""

import copy
import json

import pytest

from labpoly.cli import main
from labpoly.fan import build_fan
from labpoly.lattice import dot
from labpoly.polytope import Face, validate

from corpus import (
    generated_family,
    interval,
    polytope_to_json,
    square,
    standard_corpus,
    t1,
    w2,
)


def fraction_duality_holds(p, face, cone):
    """The per-face check with Fraction dot products (the reference for the
    table of minimizing vertices that build_fan computes once)."""
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


def with_faces(p, faces):
    """A copy of p whose face lattice reads ``faces``: the copy's cached
    ``faces`` entry is set, so the lattice is never derived from its edges."""
    q = copy.copy(p)
    vars(q)["faces"] = faces
    return q


def fan_verdict(p, face):
    """Whether build_fan passes a copy of p whose face lattice is just ``face``."""
    try:
        build_fan(with_faces(p, (face,)))
    except RuntimeError as exc:
        assert str(exc) == (f"cone of face {list(face.active)} fails "
                            f"the minimization characterization")
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


def test_different_shapes_different_fans():
    assert build_fan(t1()) != build_fan(w2())
    assert build_fan(t1()) != build_fan(square())


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


def test_failing_duality_check_raises():
    # facet 0 of the triangle recorded with every vertex on it: the vertex
    # off that facet misses the generator's minimum
    p = t1()
    bad = Face(active=(0,), vertices=tuple(range(len(p.vertices))))
    assert not fraction_duality_holds(p, bad, cone_of(p, bad))
    with pytest.raises(RuntimeError, match=r"cone of face \[0\] fails"):
        build_fan(with_faces(p, (bad,)))


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_duality_table_matches_fraction_reference(name, p):
    cones = [cone_of(p, f) for f in p.faces]
    assert build_fan(p) == frozenset(cones)
    verdicts = set()
    for k, face in enumerate(p.faces):
        assert fraction_duality_holds(p, face, cones[k])
        # the face's vertex set with vertex 0 toggled, and the next face's
        # tight set over this face's vertices
        toggled = Face(face.active, tuple(sorted(set(face.vertices) ^ {0})))
        shifted = Face(p.faces[(k + 1) % len(p.faces)].active, face.vertices)
        for f in (toggled, shifted):
            verdict = fan_verdict(p, f)
            assert verdict == fraction_duality_holds(p, f, cone_of(p, f)), f
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,p", CASES[:40], ids=[name for name, _ in CASES[:40]])
def test_permuted_facets_give_an_equal_fan_of_sorted_tuples(name, p):
    # reversed, every face lists its normals in the opposite order, so the
    # fans agree only if each cone is put in one canonical order
    hs = [(h.normal, h.offset, h.label) for h in p.halfspaces]
    f = build_fan(p)
    for order in (hs[::-1], hs[1:] + hs[:1]):
        g = build_fan(validate(p.dim, order))
        assert g == f
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
