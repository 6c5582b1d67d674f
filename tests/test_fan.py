"""Tests for face cones and fan comparison."""

import pytest

from labpoly.fan import (
    build_fan,
    cone_vertex_duality_holds,
    dual_cone,
    fan_to_json,
    fans_equal,
    make_cone,
)
from labpoly.polytope import Face, validate

from corpus import interval, square, standard_corpus, t1, w2


def test_t1_fan_contents():
    p = t1()
    f = build_fan(p)
    assert f.ambient_dim == 2
    assert f.rays() == ((-1, -1), (0, 1), (1, 0))
    sizes = sorted(len(c.generators) for c in f.cones)
    assert sizes == [0, 1, 1, 1, 2, 2, 2]  # zero cone, three rays, three 2-cones


def test_w2_fan_rays():
    f = build_fan(w2())
    assert set(f.rays()) == {(1, 0), (0, 1), (-1, -2)}


def test_fan_forgets_labels_and_offsets():
    p1 = t1()
    p2 = t1((1, 1, 2))
    p3 = validate(2, [((1, 0), 1, 1), ((0, 1), -2, 5), ((-1, -1), -4, 3)])
    fan1 = build_fan(p1)
    assert fans_equal(fan1, build_fan(p2))
    assert fans_equal(fan1, build_fan(p3))


def test_different_shapes_different_fans():
    assert not fans_equal(build_fan(t1()), build_fan(w2()))
    assert not fans_equal(build_fan(t1()), build_fan(square()))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fans_equal(build_fan(t1()), build_fan(interval(1, 1)))


def test_cone_count_matches_face_count():
    for name, p in standard_corpus()[:25]:
        f = build_fan(p)
        assert len(f.cones) == len(p.faces), name


def test_duality_characterization_everywhere():
    for name, p in standard_corpus()[:25]:
        for face in p.faces:
            c = dual_cone(p, face)
            assert cone_vertex_duality_holds(p, face, c), (name, face.active)


def test_failing_duality_check_raises():
    # facet 0 of the triangle recorded with every vertex on it: the vertex
    # off that facet misses the generator's minimum
    p = t1()
    bad = Face(active=(0,), vertices=tuple(range(len(p.vertices))))
    assert not cone_vertex_duality_holds(p, bad, make_cone([p.halfspaces[0].normal]))
    with pytest.raises(RuntimeError, match=r"cone of face \[0\] fails"):
        dual_cone(p, bad)


def test_face_inclusion_reverses_cone_inclusion():
    for name, p in standard_corpus()[:15]:
        for f in p.faces:
            cf = set(dual_cone(p, f).generators)
            for g in p.faces:
                if set(g.active) <= set(f.active):
                    cg = set(dual_cone(p, g).generators)
                    assert cg <= cf, (name, f.active, g.active)


def test_make_cone_canonicalizes():
    assert make_cone([(1, 0), (0, 1)]) == make_cone([(0, 1), (1, 0), (1, 0)])


def test_fan_json_is_deterministic():
    p = w2()
    assert fan_to_json(build_fan(p)) == fan_to_json(build_fan(w2()))
    obj = fan_to_json(build_fan(p))
    assert obj["cones"][0] == []  # zero cone sorts first
    assert [[-1, -2]] in obj["cones"]
