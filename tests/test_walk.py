"""The vertex walk in ``validate`` against the subset scan it replaced.

``_scan`` tries every facet subset and is the reference: on valid inputs the
walk must find the same vertices, tight sets and face lattice, and every
rejected input must get the message the scan gives.  Both solve a basis with
the same integer formula, so each vertex is also checked against a Fraction
Gauss-Jordan solve of its tight facets.  Edge directions are checked against
a kernel basis per dropped facet.
"""

import random
from fractions import Fraction

import pytest

from labpoly.lattice import dot, kernel_basis, vec_neg
from labpoly.polytope import (
    HalfSpace,
    ValidationError,
    _face_lattice,
    _scan,
    edge_directions,
    validate,
)

from corpus import generated_family, solve_rational, standard_corpus


def kernel_edge_directions(p, vi):
    """Edge directions at a vertex from the integer kernel of the other tight normals."""
    v = p.vertices[vi]
    act = [i for i, h in enumerate(p.halfspaces) if dot(v, h.normal) == h.offset]
    out = []
    for j in act:
        (d,) = kernel_basis([p.halfspaces[i].normal for i in act if i != j], p.dim)
        if dot(p.halfspaces[j].normal, d) < 0:
            d = vec_neg(d)
        out.append((j, d))
    return tuple(out)


CASES = standard_corpus() + generated_family()


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_walk_matches_subset_scan(name, p):
    vertices, active_sets = _scan(p.dim, list(p.halfspaces))
    assert p.vertices == vertices
    assert tuple(p.vertex_active(vi) for vi in range(len(vertices))) == active_sets
    assert p.faces == _face_lattice(p.dim, active_sets)
    for v, act in zip(vertices, active_sets):
        hs = [p.halfspaces[i] for i in act]
        assert solve_rational([h.normal for h in hs], [h.offset for h in hs]) == v


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_stored_edges_match_kernel_route(name, p):
    for vi in range(len(p.vertices)):
        assert p.edges[vi] == edge_directions(p, vi) == kernel_edge_directions(p, vi)


def scan_message(dim, triples):
    with pytest.raises(ValidationError) as info:
        _scan(dim, [HalfSpace(tuple(y), Fraction(eta), m) for y, eta, m in triples])
    return str(info.value)


REJECTED = {
    "pyramid": (3, [((0, 0, 1), 0, 1), ((-1, 0, -1), -1, 1), ((1, 0, -1), -1, 1),
                    ((0, -1, -1), -1, 1), ((0, 1, -1), -1, 1)],
                "not simple at vertex (0, 0, 1)"),
    # the first three facets meet at the apex, so the walk starts there
    "pyramid_apex_first": (3, [((-1, 0, -1), -1, 1), ((1, 0, -1), -1, 1),
                               ((0, -1, -1), -1, 1), ((0, 1, -1), -1, 1),
                               ((0, 0, 1), 0, 1)],
                           "not simple at vertex (0, 0, 1)"),
    "tangent": (2, [((1, 0), 0, 1), ((-1, 0), -1, 1), ((0, 1), 0, 1),
                    ((0, -1), -1, 1), ((-1, -1), -2, 1)],
                "not simple at vertex (1, 1)"),
    "redundant": (2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1),
                      ((-1, -2), -10, 1)],
                  "redundant halfspace 3"),
    "slab": (2, [((1, 0), 0, 1), ((-1, 0), -1, 1), ((0, 1), 0, 1)],
             "unbounded in direction (0, 1)"),
    "ray": (2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((1, 1), 1, 1)],
            "unbounded in direction (0, 1)"),
    "empty": (1, [((1,), 2, 1), ((-1,), 0, 1)],
              "not full-dimensional: the polytope is empty"),
    "segment": (2, [((1, 0), 0, 1), ((-1, 0), 0, 1), ((0, 1), 0, 1), ((0, -1), -1, 1)],
                "not full-dimensional"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejections_match_subset_scan(name):
    dim, triples, message = REJECTED[name]
    with pytest.raises(ValidationError) as info:
        validate(dim, triples)
    assert str(info.value) == message == scan_message(dim, triples)


def test_random_inputs_agree_with_subset_scan():
    """Random small systems, mostly invalid: same polytope or same message."""
    rng = random.Random(5)
    valid = 0
    for _ in range(300):
        dim = rng.choice((2, 2, 3))
        count = rng.randint(dim + 1, dim + 4)
        normals = []
        while len(normals) < count:
            y = tuple(rng.randint(-2, 2) for _ in range(dim))
            if 1 in map(abs, y) and y not in normals:  # primitive, distinct
                normals.append(y)
        triples = [(y, Fraction(rng.randint(-4, 1), rng.randint(1, 2)), 1) for y in normals]
        try:
            p = validate(dim, triples)
        except ValidationError as exc:
            if str(exc) != "unbounded":
                assert str(exc) == scan_message(dim, triples), triples
            continue
        valid += 1
        vertices, active_sets = _scan(dim, list(p.halfspaces))
        assert (p.vertices, p.faces) == (vertices, _face_lattice(dim, active_sets))
    assert valid >= 20
