"""Tests for face isotropy data, structure groups, slice weights, local cones."""

from fractions import Fraction
from math import gcd

import pytest

from labpoly.lattice import dot, primitive_vector, rational_rank, saturate
from labpoly.local_model import (
    isotropy_data,
    local_cone,
    slice_weights,
    structure_group,
)
from labpoly.polytope import edge_directions

from corpus import (
    contains,
    cube,
    generated_family,
    interval,
    lattices_equal,
    reference_saturate,
    square,
    standard_corpus,
    t1,
    w2,
)


def face_of(p, *active):
    return p.face_by_active(tuple(active))


# ---------------------------------------------------------------------------
# structure groups
# ---------------------------------------------------------------------------

def test_facet_group_is_cyclic_of_label_order():
    p = interval(3, 5)
    assert structure_group(p, face_of(p, 0)).invariant_factors == (3,)
    assert structure_group(p, face_of(p, 1)).invariant_factors == (5,)


def test_facet_groups_across_corpus():
    for name, p in standard_corpus()[:30]:
        for f in p.faces:
            if f.codim != 1:
                continue
            m = p.halfspaces[f.active[0]].label
            g = structure_group(p, f)
            want = (m,) if m > 1 else ()
            assert g.invariant_factors == want, (name, f.active)


def test_whole_polytope_is_trivial():
    p = t1()
    assert structure_group(p, face_of(p)).is_trivial


def test_w2_vertex_group():
    p = w2()
    v = p.face_by_active((0, 2))  # vertex (0, 1): x = 0 and -x - 2y = -2
    assert p.vertices[v.vertices[0]] == (0, 1)
    assert structure_group(p, v).invariant_factors == (2,)
    # the other two vertices are smooth points
    for act in [(0, 1), (1, 2)]:
        assert structure_group(p, p.face_by_active(act)).is_trivial


def test_unit_simplices_are_smooth():
    for p in [t1(), square(), cube()]:
        for f in p.proper_faces():
            assert structure_group(p, f).is_trivial


def test_labels_scale_vertex_groups():
    # unit square corner with labels a, b gives Z/a x Z/b up to invariant factors
    p = square(1, [2, 1, 4, 1])
    v = p.face_by_active((0, 2))  # corner (0, 0), labels 2 and 4
    assert structure_group(p, v).invariant_factors == (2, 4)


def test_nested_faces_have_divisible_orders():
    # the group at a bigger face embeds in the group at a vertex of it
    for name, p in standard_corpus()[:25]:
        for f in p.proper_faces():
            of = structure_group(p, f).order
            for g in p.faces:
                if set(g.active) >= set(f.active) and g.codim > f.codim:
                    og = structure_group(p, g).order
                    assert og % of == 0, (name, f.active, g.active)


def test_isotropy_data_shapes():
    p = w2()
    full = face_of(p)
    d = isotropy_data(p, full)
    assert d.normals == () and d.scaled == () and d.isotropy_lattice == ()
    facet = face_of(p, 2)
    d = isotropy_data(p, facet)
    assert d.normals == ((-1, -2),)
    assert d.scaled == ((-1, -2),)
    assert lattices_equal(d.isotropy_lattice, ((1, 2),))


def test_isotropy_lattice_is_saturated():
    for name, p in standard_corpus()[:20]:
        for f in p.proper_faces():
            d = isotropy_data(p, f)
            assert rational_rank(d.isotropy_lattice) == len(d.normals), name
            # saturation: every normal has integer, content-1 coordinates
            assert d.isotropy_lattice == saturate(d.isotropy_lattice)


def test_saturate_matches_reference_on_every_face():
    # the normals and the scaled normals of every face, against the route
    # that inverts the Smith transform with a second Hermite reduction
    for name, p in standard_corpus() + generated_family():
        for f in p.proper_faces():
            d = isotropy_data(p, f)
            assert d.isotropy_lattice == reference_saturate(d.normals), (name, f.active)
            assert saturate(d.scaled) == reference_saturate(d.scaled), (name, f.active)


# ---------------------------------------------------------------------------
# slice weights
# ---------------------------------------------------------------------------

def test_slice_weights_are_dual_basis():
    for name, p in standard_corpus()[:20]:
        for f in p.vertex_faces():
            sw = slice_weights(p, f)
            data = isotropy_data(p, f)
            for i, w in enumerate(sw.weights):
                for j, e in enumerate(data.scaled):
                    assert dot(w, e) == (1 if i == j else 0), (name, f.active)


def test_slice_weights_w2():
    p = w2()
    f = p.face_by_active((0, 2))  # vertex (0, 1), scaled normals (1,0), (-1,-2)
    sw = slice_weights(p, f)
    assert sw.vertex == (0, 1)
    assert sw.weights == ((Fraction(1), Fraction(-1, 2)),
                          (Fraction(0), Fraction(-1, 2)))


def test_slice_weights_span_the_edge_cone():
    # each dual vector is positively proportional to an edge direction
    for name, p in standard_corpus()[:20]:
        for f in p.vertex_faces():
            vi = f.vertices[0]
            dirs = {d for _, d in edge_directions(p, vi)}
            sw = slice_weights(p, f)
            rays = set()
            for w in sw.weights:
                denom_lcm = 1
                for x in w:
                    denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
                rays.add(primitive_vector([x * denom_lcm for x in w]))
            assert rays == dirs, (name, f.active)


def test_slice_weights_rejects_nonvertex():
    p = t1()
    with pytest.raises(ValueError, match="only at vertices"):
        slice_weights(p, p.face_by_active((0,)))


# ---------------------------------------------------------------------------
# local cones
# ---------------------------------------------------------------------------

def test_local_cone_at_vertex():
    p = t1()
    f = p.face_by_active((1, 2))  # vertex (1, 0)
    lc = local_cone(p, f)
    assert lc.apex == (1, 0)
    assert lc.span_directions == ()
    assert lc.generators == ((-1, 1), (-1, 0))  # ordered by dropped facet 1, 2


def test_local_cone_at_facet():
    p = square()
    f = p.face_by_active((0,))  # facet x = 0
    lc = local_cone(p, f)
    assert lc.apex == (0, Fraction(1, 2))
    assert lc.span_directions == ((0, 1),)
    assert lc.generators == ((1, 0),)


def test_local_cone_full_face():
    p = t1()
    lc = local_cone(p, p.face_by_active(()))
    assert lc.generators == ()
    assert lattices_equal(lc.span_directions, ((1, 0), (0, 1)))
    assert contains(p, lc.apex)


def test_local_cone_apex_on_face():
    for name, p in standard_corpus()[:15]:
        for f in p.proper_faces():
            lc = local_cone(p, f)
            for i in f.active:
                h = p.halfspaces[i]
                assert dot(lc.apex, h.normal) == h.offset, (name, f.active)
            # generators leave the face into the polytope: strict on dropped facet
            for j, d in zip(f.active, lc.generators):
                assert dot(p.halfspaces[j].normal, d) > 0
