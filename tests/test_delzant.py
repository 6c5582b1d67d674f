"""Tests for the reduction construction: projection, kernel, level,
stabilizers, and the membership of the two independent group computations."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from labpoly import delzant
from labpoly.delzant import (
    build_construction,
    face_groups,
    face_stabilizer,
    verify_reduction_invariants,
)
from labpoly.lattice import FiniteAbelianGroup, dot
from labpoly.local_model import structure_groups
from labpoly.polytope import format_point

from corpus import (
    box,
    convex_combinations,
    cube,
    det_rational,
    face_by_active,
    generated_family,
    interval,
    labeled_polygon_products,
    labeled_simplex_products,
    mat_vec,
    reference_kernel_basis,
    reference_smith_normal_form,
    square,
    standard_corpus,
    t1,
    w2,
)


def test_t1_construction():
    d = build_construction(t1())
    assert d.projection == ((1, 0, -1), (0, 1, -1))
    assert d.scaled_offsets == (0, 0, -1)
    assert d.kernel_rows == ((1, 1, 1),)
    assert d.level == (1,)


def test_football_construction():
    d = build_construction(interval(2, 1))
    assert d.projection == ((2, -1),)
    assert d.kernel_rows == ((1, 2),)
    assert d.level == (2,)


def test_kernel_rows_annihilate_projection():
    for name, p in standard_corpus()[:30]:
        d = build_construction(p)
        for row in d.kernel_rows:
            assert mat_vec(d.projection, row) == tuple(0 for _ in range(p.dim)), name
        assert len(d.kernel_rows) == len(p.halfspaces) - p.dim


def test_level_is_constant_across_the_polytope():
    # the vertex check, and the Fraction pairing at points between the vertices
    for name, p in standard_corpus()[:20]:
        d = build_construction(p)
        assert verify_reduction_invariants(d, p) is None, name
        for beta in convex_combinations(p, 10, seed=5):
            s = [dot(beta, e) - c for e, c in zip(zip(*d.projection), d.scaled_offsets)]
            assert tuple(dot(row, s) for row in d.kernel_rows) == d.level, name


def test_slacks_scale_with_labels():
    p = t1((1, 1, 2))
    d = build_construction(p)
    # the slacks at the origin are -c: the third one is doubled by the label
    assert d.scaled_offsets == (0, 0, -2)
    assert d.level == (2,)
    assert verify_reduction_invariants(d, p) is None


def test_kernel_group_values():
    # component group = cokernel of the projection
    assert build_construction(interval(1, 1)).component_group.is_trivial
    assert build_construction(interval(2, 1)).component_group.is_trivial
    p = interval(2, 2)
    d = build_construction(p)
    assert d.component_group.invariant_factors == (2,)
    assert len(d.kernel_rows) == len(p.halfspaces) - p.dim == 1
    assert build_construction(t1()).component_group.is_trivial
    assert build_construction(w2()).component_group.is_trivial
    p = cube()
    d = build_construction(p)
    assert len(d.kernel_rows) == len(p.halfspaces) - p.dim == 3
    g64 = build_construction(interval(6, 4)).component_group
    assert g64.invariant_factors == (2,)


def test_face_stabilizers_footballs():
    for n, m in [(1, 1), (2, 3), (4, 6)]:
        p = interval(n, m)
        left = face_by_active(p, (0,))
        right = face_by_active(p, (1,))
        want_left = (n,) if n > 1 else ()
        want_right = (m,) if m > 1 else ()
        assert face_stabilizer(p, left).invariant_factors == want_left
        assert face_stabilizer(p, right).invariant_factors == want_right


def test_stabilizer_rejects_improper_face():
    p = t1()
    with pytest.raises(ValueError):
        face_stabilizer(p, face_by_active(p, ()))


def test_stabilizers_match_structure_groups_everywhere():
    # the central cross-check: the once-computed printed groups against the
    # oracle's echelon and index certificate, two routes to the same groups
    for name, p in standard_corpus() + generated_family():
        groups = face_groups(p)
        assert [f for f, _ in groups] == list(p.proper_faces()), name
        for (f, g), (_, h) in zip(groups, structure_groups(p), strict=True):
            a, b = g.invariant_factors, h.invariant_factors
            assert a == b, (name, f.active, a, b)


def assert_closed_form_exactly_through_determinant_1(p):
    # the walk's determinant at each vertex is |det Y_v| by Fraction
    # elimination; the diagonal form runs on exactly the faces of codimension
    # > 1 with no vertex of determinant 1, the others take the labels' sum,
    # one merge step from their prefix face's, which must be the whole merge
    # of their labels; every group equals the diagonal form's
    for vi, edges in enumerate(p.edges):
        normals = [p.halfspaces[j].normal for j, _ in edges]
        assert p.determinants[vi] == abs(det_rational(normals)), (vi, normals)
    smooth = {vi for vi, d in enumerate(p.determinants) if d == 1}
    with mock.patch.object(delzant, "face_stabilizer", wraps=face_stabilizer) as diagonal:
        groups = face_groups(p)
    assert [args[1] for args, _ in diagonal.call_args_list] == [
        f for f, _ in groups if f.codim > 1 and smooth.isdisjoint(f.vertices)]
    for f, g in groups:
        assert g == face_stabilizer(p, f), (f.active, str(g))
        if f.codim == 1 or not smooth.isdisjoint(f.vertices):
            labels = [p.halfspaces[i].label for i in f.active]
            assert g == FiniteAbelianGroup.from_orders(labels), (f.active, str(g))


CASES = standard_corpus() + generated_family()


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_closed_form_groups_equal_the_smith_route(name, p):
    assert_closed_form_exactly_through_determinant_1(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(labeled_polygon_products())
def test_walk_determinants_decide_the_closed_form_on_polygon_products(p):
    assert_closed_form_exactly_through_determinant_1(p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(labeled_simplex_products())
def test_walk_determinants_decide_the_closed_form_on_simplex_products(p):
    assert_closed_form_exactly_through_determinant_1(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(labeled_polygon_products().filter(lambda p: 1 not in p.determinants))
def test_face_groups_equal_the_reference_smith_route_off_determinant_1(p):
    # no vertex of determinant 1, so every face of codimension 2 or more
    # takes face_stabilizer's checked elimination; the reference reduces the
    # same columns m_i * y_i with its own elimination and divisibility fold
    for f, g in face_groups(p):
        columns = [[p.halfspaces[i].label * x for x in p.halfspaces[i].normal]
                   for i in f.active]
        diagonal = reference_smith_normal_form(tuple(zip(*columns))).diagonal
        assert g.invariant_factors == tuple(d for d in diagonal if d > 1), f.active


def assert_construction_matches_the_references(p):
    # the projection's columns m_i * y_i, its Hermite kernel read off the
    # reference Smith transform, and the reference Smith diagonal (with its
    # divisibility fold) for the component group
    d = build_construction(p)
    projection = tuple(zip(*[[h.label * x for x in h.normal] for h in p.halfspaces]))
    assert d.projection == projection
    assert d.kernel_rows == reference_kernel_basis(projection, len(p.halfspaces))
    diagonal = reference_smith_normal_form(projection).diagonal
    assert d.component_group.invariant_factors == tuple(x for x in diagonal if x > 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(labeled_polygon_products())
def test_construction_matches_the_references_on_polygon_products(p):
    assert_construction_matches_the_references(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(labeled_simplex_products())
def test_construction_matches_the_references_on_simplex_products(p):
    assert_construction_matches_the_references(p)


def test_closed_form_groups_on_a_labeled_7_cube():
    # every vertex has determinant 1, so all 2186 proper faces take the labels' route
    assert_closed_form_exactly_through_determinant_1(
        box([1] * 7, [2, 3, 1, 4, 6, 5, 1, 2, 9, 3, 4, 8, 7, 1]))


MISREAD = [(name, p, next(vi for vi, d in enumerate(p.determinants) if d > 1))
           for name, p in CASES if max(p.determinants) > 1]


@pytest.mark.parametrize("name,p,vi", MISREAD, ids=[name for name, *_ in MISREAD])
def test_determinant_misread_as_1_raises_naming_the_vertex(name, p, vi):
    # the walk's checks do not pin d; a vertex of |det Y_v| > 1 stored with
    # d = 1 must fail face_groups' Y * E = I certificate, not print Z/m_i
    misread = p._replace(determinants=p.determinants[:vi] + (1,) + p.determinants[vi + 1:])
    with pytest.raises(RuntimeError) as exc:
        face_groups(misread)
    assert str(exc.value) == (
        f"Y * E != I at vertex {format_point(p.vertices[vi])}, of basis determinant 1")


def test_labeled_box_takes_no_smith_form(monkeypatch):
    def no_smith(a):
        raise AssertionError(f"diagonal form taken of {a}")

    monkeypatch.setattr(delzant, "_diagonal_rows", no_smith)
    p = box([1, 2, 3], [2, 3, 1, 4, 6, 5])
    groups = dict(face_groups(p))
    assert len(groups) == 26
    for active, want in [((0,), (2,)), ((0, 2, 4), (2, 6)), ((1, 3, 5), (60,)),
                         ((3, 4), (2, 12)), ((2,), ())]:
        assert groups[face_by_active(p, active)].invariant_factors == want
    assert groups == dict(structure_groups(p))


def test_w2_takes_one_smith_form_at_its_order_2_vertex(monkeypatch):
    real = delzant._diagonal_rows
    taken = []
    monkeypatch.setattr(delzant, "_diagonal_rows",
                        lambda a: taken.append(a) or real(a))
    p = w2()
    groups = dict(face_groups(p))
    # the rows m_i * y_i of facets 0 and 2, tight at the vertex (0, 1), as
    # p.scaled_normals stores them
    assert taken == [[(1, 0), (-1, -2)]]
    assert str(groups[face_by_active(p, (0, 2))]) == "Z/2"
    assert all(g.is_trivial for f, g in groups.items() if f.active != (0, 2))


def test_projection_takes_one_smith_form(monkeypatch):
    # one checked elimination gives the kernel and the component group
    real = delzant._diagonal_rows
    taken = []
    monkeypatch.setattr(delzant, "_diagonal_rows",
                        lambda a: taken.append(a) or real(a))
    d = build_construction(interval(6, 4))
    assert taken == [d.projection]
    assert d.kernel_rows == ((2, 3),)
    assert d.component_group.invariant_factors == (2,)


def test_reduction_invariants_pass():
    for name, p in [("t1", t1()), ("w2", w2()), ("square", square(2, [1, 2, 1, 3]))]:
        assert verify_reduction_invariants(build_construction(p), p) is None, name


def test_reduction_invariants_reject_outside_point():
    # offsets of the triangle x + y <= 1/2: its vertices (1, 0) and (0, 1) lie
    # outside, and the level -B c is recomputed so only the slacks show it
    p = t1()
    d = build_construction(p)
    c = d.scaled_offsets[:2] + (Fraction(-1, 2),)
    bad = d._replace(scaled_offsets=c, level=tuple(-dot(row, c) for row in d.kernel_rows))
    assert verify_reduction_invariants(bad, p) == "vertex (0, 1) has negative slack on facet 2"
