"""Tests for structure groups and the saturation of face normals."""

import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labpoly import lattice, local_model
from labpoly.delzant import face_groups
from labpoly.lattice import echelon
from labpoly.local_model import structure_group, structure_groups
from labpoly.polytope import Face

from corpus import (
    _first_fractional_row,
    box,
    cube,
    face_by_active,
    generated_family,
    interval,
    labeled_polygon_products,
    labeled_simplex_products,
    per_face_structure_group,
    random_unimodular,
    rational_rank,
    reference_saturate,
    reference_smith_normal_form,
    reference_structure_group,
    saturate,
    square,
    standard_corpus,
    t1,
    transformed,
    two_smith_structure_group,
    w2,
)


def groups_by_active(p):
    """The oracle's group of every proper face, keyed by its tight set."""
    return {f.active: g for f, g in structure_groups(p)}


def test_facet_group_is_cyclic_of_label_order():
    groups = groups_by_active(interval(3, 5))
    assert groups[(0,)].invariant_factors == (3,)
    assert groups[(1,)].invariant_factors == (5,)


def test_facet_groups_across_corpus():
    for name, p in standard_corpus()[:30]:
        for f, g in structure_groups(p):
            if f.codim != 1:
                continue
            m = p.halfspaces[f.active[0]].label
            want = (m,) if m > 1 else ()
            assert g.invariant_factors == want, (name, f.active)


def test_whole_polytope_is_trivial():
    p = t1()
    assert structure_group(p, face_by_active(p, ())).is_trivial


def test_one_face_takes_the_steps_along_its_prefixes():
    for name, p in standard_corpus() + generated_family():
        for f, g in structure_groups(p):
            assert structure_group(p, f) == g, (name, f.active)


def with_faces(p, extra):
    """``p`` with the faces ``extra`` added to its face list, in face order."""
    faces = sorted({*p.faces, *extra}, key=lambda f: (f.codim, f.active))
    p.__dict__["faces"] = tuple(faces)
    return p


def test_dependent_tight_normals_raise():
    # opposite facets of the square, and three facets in the plane: listed
    # as faces, their last normal meets no live column
    for active in [(0, 1), (0, 2, 3)]:
        p = with_faces(square(), [Face(active, ())])
        with pytest.raises(ValueError, match="rows are linearly dependent"):
            structure_groups(p)
        with pytest.raises(ValueError, match="rows are linearly dependent"):
            structure_group(square(), Face(active, ()))


def test_w2_vertex_group():
    p = w2()
    v = face_by_active(p, (0, 2))  # vertex (0, 1): x = 0 and -x - 2y = -2
    assert p.vertices[v.vertices[0]] == (0, 1)
    groups = groups_by_active(p)
    assert groups[(0, 2)].invariant_factors == (2,)
    # the other two vertices are smooth points
    for act in [(0, 1), (1, 2)]:
        assert groups[act].is_trivial


def test_unit_simplices_are_smooth():
    for p in [t1(), square(), cube()]:
        assert all(g.is_trivial for _, g in structure_groups(p))


def test_labels_scale_vertex_groups():
    # unit square corner with labels a, b gives Z/a x Z/b up to invariant factors
    p = square(1, [2, 1, 4, 1])
    # corner (0, 0), labels 2 and 4
    assert groups_by_active(p)[(0, 2)].invariant_factors == (2, 4)


def test_nested_faces_have_divisible_orders():
    # the group at a bigger face embeds in the group at a vertex of it
    for name, p in standard_corpus()[:25]:
        groups = groups_by_active(p)
        for f, g in groups.items():
            for h, gh in groups.items():
                if set(h) >= set(f) and len(h) > len(f):
                    assert gh.order % g.order == 0, (name, f, h)


def normals_of(p, f):
    """The tight normals y_i and scaled normals m_i * y_i of a face."""
    normals = tuple(p.halfspaces[i].normal for i in f.active)
    scaled = tuple(tuple(p.halfspaces[i].label * x for x in p.halfspaces[i].normal)
                   for i in f.active)
    return normals, scaled


def test_isotropy_lattice_is_saturated():
    for name, p in standard_corpus()[:20]:
        for f in p.proper_faces():
            normals, _ = normals_of(p, f)
            lattice = saturate(normals)
            assert rational_rank(lattice) == len(normals), name
            # saturation: every normal has integer, content-1 coordinates
            assert lattice == saturate(lattice)


def test_saturate_matches_reference_on_every_face():
    # the normals and the scaled normals of every face, against the route
    # that inverts the Smith transform with a second Hermite reduction
    for name, p in standard_corpus() + generated_family():
        for f in p.proper_faces():
            normals, scaled = normals_of(p, f)
            assert saturate(normals) == reference_saturate(normals), (name, f.active)
            assert saturate(scaled) == reference_saturate(scaled), (name, f.active)


# ---------------------------------------------------------------------------
# the oracle against the saturation route and against face_groups
# ---------------------------------------------------------------------------

def assert_oracles_agree(name, p):
    """On every proper face: the column echelon and the index certificate,
    the two Smith forms the oracle took before it, l / l-hat from a basis of
    the saturation l, and the groups the CLI prints give the same group."""
    for (f, printed), (face, got) in zip(face_groups(p), structure_groups(p), strict=True):
        assert face == f
        assert got == two_smith_structure_group(p, f) == printed, (name, f.active)
        assert got == reference_structure_group(p, f), (name, f.active)


def test_oracle_matches_the_saturation_route_on_the_corpus():
    for name, p in standard_corpus() + generated_family():
        assert_oracles_agree(name, p)


def test_oracle_matches_the_saturation_route_on_a_labeled_7_cube():
    p = box([1] * 7, [2, 3, 1, 4, 6, 5, 1, 2, 9, 3, 4, 8, 7, 1])
    assert len(p.proper_faces()) == 3 ** 7 - 1
    assert_oracles_agree("7-cube", p)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(labeled_polygon_products())
def test_oracle_matches_the_saturation_route_on_generated_polytopes(p):
    assert_oracles_agree("generated", p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(labeled_simplex_products())
def test_oracle_matches_the_saturation_route_on_simplices_and_their_products(p):
    assert_oracles_agree("generated", p)


@functools.cache
def named_inputs():
    return [p for _, p in standard_corpus() + generated_family()]


@st.composite
def moved_inputs(draw):
    """A corpus or generated-family polytope, or a drawn labeled polygon
    product, simplex or simplex product, moved by a seeded unimodular map."""
    p = draw(st.one_of(st.sampled_from(named_inputs()), labeled_polygon_products(),
                       labeled_simplex_products()))
    return transformed(p, random_unimodular(random.Random(draw(st.integers(0, 9999))), p.dim))


def unimodular_off_diagonal(p, f):
    """Whether the face's L, of Y * T = [L | 0], has index 1 and an entry
    off its diagonal, so that M = diag(m) * L is not diag(m)."""
    lower = lower_factor([p.halfspaces[i].normal for i in f.active])
    return (math.prod(abs(r[i]) for i, r in enumerate(lower)) == 1
            and any(x for i, r in enumerate(lower) for x in r[:i]))


# 60 examples take about 1.5 s (Python 3.11, shared 2-vCPU host)
def test_each_face_extends_its_parent_to_the_per_face_echelon():
    # the state a face takes from its parent gives the group that one column
    # echelon of all its tight normals gives; the draws include faces of
    # index 1 whose L is not diagonal, where the oracle takes the labels'
    # merge for the group of Z^k / Z^k M with M != diag(m)
    seen = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(moved_inputs())
    def check(p):
        for f, got in structure_groups(p):
            assert got == per_face_structure_group(p, f) == reference_structure_group(p, f), \
                f.active
            if not seen and unimodular_off_diagonal(p, f):
                seen.append(f)

    check()
    assert seen


def smith_diagonal_calls(monkeypatch, p):
    """The tight sets of the faces on which the oracle runs its Smith diagonal."""
    calls, real = [], lattice.smith_diagonal

    def spy(a):
        calls.append(sys._getframe(1).f_locals["active"])
        return real(a)

    monkeypatch.setattr(local_model, "smith_diagonal", spy)
    structure_groups(p)
    return calls


def test_smith_diagonal_runs_on_faces_of_index_above_1_only(monkeypatch):
    # L = I on every face of the labeled 3-cube
    assert smith_diagonal_calls(monkeypatch, cube(1, [2, 3, 4, 2, 3, 4])) == []
    # a unimodular image of a labeled box: index 1 on every face, L != I on some
    p = transformed(box([1, 2, 3], [2, 3, 4, 2, 3, 4]), ((1, 0, 0), (1, 1, 0), (0, 2, 1)))
    assert any(unimodular_off_diagonal(p, f) for f in p.proper_faces())
    assert smith_diagonal_calls(monkeypatch, p) == []
    # w2: the diagonal runs on the faces whose normals have invariant factors
    # of product above 1, the vertex (0, 1) alone
    p = w2()
    assert smith_diagonal_calls(monkeypatch, p) == [
        f.active for f in p.proper_faces()
        if math.prod(reference_smith_normal_form(normals_of(p, f)[0]).diagonal) > 1] == [(0, 2)]


# ---------------------------------------------------------------------------
# the column echelon
# ---------------------------------------------------------------------------

@st.composite
def short_rows(draw):
    """k <= n integer rows, entries in [-6, 6]."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    entries = st.tuples(*[st.integers(-6, 6)] * n)
    return draw(st.lists(entries, min_size=k, max_size=k))


def lower_factor(rows):
    """L of Y * T = [L | 0], as the oracle reads it: the rows of the echelon
    of Y's columns are L's columns."""
    return tuple(zip(*echelon(zip(*rows))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(short_rows())
def test_echelon_is_a_triangular_left_factor_with_the_saturation_index(rows):
    smith = reference_smith_normal_form(rows).diagonal
    k = len(rows)
    # fewer than k pivots is the oracle's test for dependent normals
    if 0 in smith:
        assert len(echelon(zip(*rows))) < k
        return
    lower = lower_factor(rows)
    assert len(lower) == k
    assert all(lower[i][j] == 0 for i in range(k) for j in range(i + 1, k))
    assert _first_fractional_row(rows, lower) is None
    # |L_11 ... L_kk| is [l : Z Y], the product of Y's invariant factors
    assert math.prod(abs(lower[i][i]) for i in range(k)) == math.prod(smith)


def test_first_fractional_row_is_the_first_row_with_a_remainder():
    rows = [(1, 0), (-1, -2)]
    lower = lower_factor(rows)
    assert lower == ((1, 0), (-1, -2))
    assert _first_fractional_row(rows, lower) is None
    assert _first_fractional_row(rows, ((2, 0), (-1, -2))) == 0
    assert _first_fractional_row(rows, ((1, 0), (-1, -4))) == 1
    assert _first_fractional_row(rows, ((1, 0), (-1, 0))) == 1
