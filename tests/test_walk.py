"""The vertex walk in ``validate`` against a brute-force subset scan.

``corpus.subset_scan`` solves every facet subset by its own fraction-free
Gauss-Jordan elimination and keeps the feasible solutions, so it shares no
vertex arithmetic with the walk's dictionaries and pivots.  It is the
reference: on valid inputs the walk must find the same vertices, tight sets
and face lattice, and every rejected input must get the message the scan
gives; an unbounded one may name another ray, which must be primitive and
lie in the recession cone.  Rejected inputs include non-simple and flat
ones, which the walk finishes by lexicographic pivoting, empty ones, a
seeded random sweep whose small entries make ratio-test ties common, and
generated polytopes with shuffled facets and a cut through a vertex or past
the polytope.  The bases phase 1 ends at and the walk pivots into are
checked against the lex-feasible ones found with a small rational epsilon,
its pivot count on a non-simple pyramid is pinned, and so is its count of
ratio tests on unit cubes and k-gons, none on the edge back to a parent basis.  Edge directions
are checked against a kernel basis per dropped facet, and the
full-dimension verdict (some facet tight at every vertex) against the rank
of the vertex differences.  Large empty and unbounded inputs are rejected
with no facet subset scanned.  Edge directions are primitive tuples of plain
ints and determinants plain ints, and ``validate``, ``betti`` and ``verify``
succeed with the boundary helpers ``primitive_vector`` and ``dot`` made to
raise in :mod:`labpoly.polytope`.  The walk's integer vertex table is the
scan's Fraction vertices over the lcm of their denominators, ``validate``
of the labeled 7-cube forms no Fraction per vertex coordinate, and the face
lattice built one codimension at a time keeps the order of one sort.
"""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labpoly import polytope
from labpoly.cli import main
from labpoly.lattice import dot, primitive_vector
from labpoly.polytope import Face, HalfSpace, ValidationError, _face_lattice, validate

from corpus import (
    generated_family,
    labeled_polygon_products,
    polygon,
    product,
    polytope_to_json,
    pyramid,
    rational_rank,
    reference_kernel_basis,
    scaled_table,
    solve_rational,
    standard_corpus,
    subset_scan,
    vec_neg,
)


def kernel_edge_directions(p, vi):
    """Edge directions at a vertex from the integer kernel of the other tight normals."""
    v = p.vertices[vi]
    act = [i for i, h in enumerate(p.halfspaces) if dot(v, h.normal) == h.offset]
    out = []
    for j in act:
        (d,) = reference_kernel_basis([p.halfspaces[i].normal for i in act if i != j], p.dim)
        if dot(p.halfspaces[j].normal, d) < 0:
            d = vec_neg(d)
        out.append((j, d))
    return tuple(out)


def flat_verdicts(dim, vertices, active_sets):
    """(some facet tight at every vertex, vertex differences of rank < dim)."""
    diffs = [tuple(a - b for a, b in zip(v, vertices[0])) for v in vertices[1:]]
    return bool(set.intersection(*map(set, active_sets))), rational_rank(diffs) < dim


CASES = standard_corpus() + generated_family()


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_walk_matches_subset_scan(name, p):
    vertices, active_sets = subset_scan(p.dim, list(p.halfspaces))
    assert p.vertices == vertices
    assert p.scaled_vertices == scaled_table(vertices)
    assert tuple(tuple(j for j, _ in edges) for edges in p.edges) == active_sets
    assert p.faces == _face_lattice(p.dim, active_sets)
    assert flat_verdicts(p.dim, vertices, active_sets) == (False, False)


def one_sort_face_lattice(dim, active_sets):
    """The face lattice by one sort on (codimension, tight set) over every face."""
    face_map = {}
    for vi, act in enumerate(active_sets):
        for r in range(dim + 1):
            for sub in combinations(act, r):
                face_map.setdefault(sub, []).append(vi)
    return tuple(Face(active=key, vertices=tuple(vs))
                 for key, vs in sorted(face_map.items(), key=lambda kv: (len(kv[0]), kv[0])))


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_face_lattice_by_codimension_keeps_the_one_sort_order(name, p):
    assert p.faces == one_sort_face_lattice(p.dim, [tuple(j for j, _ in e) for e in p.edges])


def test_validate_forms_no_fraction_per_vertex_coordinate():
    """``validate`` of the labeled 7-cube, its offsets given as strings, forms
    one Fraction per offset (``parse_rational``) and none for its 896 vertex
    coordinates, which the walk keeps as one integer table; ``p.vertices``
    is formed on its first read."""
    n = 7
    triples = [(y, str(eta), 2 + k % 3) for k, (y, eta, _) in enumerate(unit_cube(n))]
    new, formed = Fraction.__new__.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            formed[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        p = validate(n, triples)
    finally:
        sys.setprofile(previous)
    assert formed[0] <= len(triples)
    assert "vertices" not in vars(p)
    assert len(p.scaled_vertices[1]) == len(p.vertices) == 2 ** n


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_stored_edges_match_kernel_route(name, p):
    for vi in range(len(p.vertices)):
        assert p.edges[vi] == kernel_edge_directions(p, vi)


def assert_plain_ints(p):
    """Every edge direction is a primitive tuple of ints and every determinant
    an int: not a bool or a Fraction, which compare equal to ints under ``==``.
    The walk divides its own columns by their gcd with no boundary check, so
    this is what the Morse pairings and the structure groups rely on."""
    for edges in p.edges:
        for _, direction in edges:
            assert type(direction) is tuple and all(type(x) is int for x in direction), direction
            assert math.gcd(*direction) == 1, direction
    assert all(type(d) is int for d in p.determinants), p.determinants


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_walk_outputs_are_plain_ints(name, p):
    assert_plain_ints(p)


def test_no_boundary_helper_runs_per_basis(monkeypatch, tmp_path, capsys):
    """``validate``, ``betti`` and ``verify`` run with ``primitive_vector`` and
    ``dot`` unreachable from :mod:`labpoly.polytope`: the walk reads its own
    integers, and the helpers are left to the recession ray and
    ``isomorphism_report``."""
    def boundary_helper(*args):
        raise AssertionError("a boundary helper ran on the walk's own integers")

    monkeypatch.setattr(polytope, "primitive_vector", boundary_helper)
    monkeypatch.setattr(polytope, "dot", boundary_helper)
    for _, p in CASES:
        q = validate(p.dim, p.halfspaces)
        assert (q.vertices, q.edges, q.determinants) == (p.vertices, p.edges, p.determinants)
    for name, p in standard_corpus():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(polytope_to_json(p)))
        for command in ("betti", "verify"):
            assert main([command, str(path)]) == 0, (name, command, capsys.readouterr())


def scan_message(dim, triples):
    with pytest.raises(ValidationError) as info:
        subset_scan(dim, [HalfSpace(tuple(y), Fraction(eta), m) for y, eta, m in triples])
    return str(info.value)


RAY = "unbounded in direction "


def assert_same_verdict(message, scan, normals):
    """``validate``'s message equals the scan's, except that an unbounded verdict
    may name another ray: nonzero, primitive and in the recession cone."""
    if not (message.startswith(RAY) and scan.startswith(RAY)):
        assert message == scan
        return
    ray = tuple(int(x) for x in message[len(RAY) + 1:-1].split(", "))
    assert any(ray) and math.gcd(*ray) == 1, message
    assert all(dot(y, ray) >= 0 for y in normals), message


def polygon16_squared():
    return [(h.normal, h.offset, h.label) for h in product(polygon(16), polygon(16)).halfspaces]


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
            "unbounded in direction (1, 0)"),
    "empty": (1, [((1,), 2, 1), ((-1,), 0, 1)],
              "not full-dimensional: the polytope is empty"),
    "segment": (2, [((1, 0), 0, 1), ((-1, 0), 0, 1), ((0, 1), 0, 1), ((0, -1), -1, 1)],
                "not full-dimensional"),
    # a 33rd facet through the vertex of polygon(16) x polygon(16) that minimizes it
    "polygon16_squared_cut": (4, polygon16_squared() + [((1, 1, 1, 1), 0, 1)],
                              "not simple at vertex (0, 0, 0, 0)"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_full_dimension_verdict_matches_vertex_rank(name):
    # the walk finishes flat and non-simple inputs; unbounded ones raise
    # there, and an empty one has no vertex for either route to judge
    dim, triples, message = REJECTED[name]
    hs = [HalfSpace(tuple(y), Fraction(eta), m) for y, eta, m in triples]
    if message.startswith("unbounded"):
        with pytest.raises(ValidationError, match="^unbounded in direction"):
            polytope._walk(dim, hs)
        return
    walked = polytope._walk(dim, hs)
    if message.endswith("empty"):
        assert walked is None
        return
    flat = message == "not full-dimensional"
    # the walk's numerators over one denominator D: their differences have the rank of D v's
    (_, points), active_sets, *_ = walked
    assert flat_verdicts(dim, points, active_sets) == (flat, flat)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejections_match_subset_scan(name):
    dim, triples, message = REJECTED[name]
    with pytest.raises(ValidationError) as info:
        validate(dim, triples)
    assert str(info.value) == message
    assert_same_verdict(message, scan_message(dim, triples), [y for y, _, _ in triples])


def test_random_inputs_agree_with_subset_scan():
    """Random small systems, mostly invalid: same polytope or same verdict
    (:func:`assert_same_verdict`), and the same full-dimension verdict from
    both routes wherever the walk finds vertices.

    Normal entries in {-1, 0, 1, 2} and offsets in {0, -1, -2} put many
    facets through one point, so ratio-test ties and degenerate vertices are
    common.
    """
    rng = random.Random(5)
    valid = non_simple = flat = unbounded = 0
    for _ in range(400):
        dim = rng.choice((2, 3, 4))
        count = rng.randint(dim + 1, dim + 4)
        normals = []
        while len(normals) < count:
            y = tuple(rng.choice((-1, 0, 1, 2)) for _ in range(dim))
            if 1 in map(abs, y) and y not in normals:  # primitive, distinct
                normals.append(y)
        triples = [(y, rng.choice((0, -1, -2)), 1) for y in normals]
        try:
            walked = polytope._walk(dim, [HalfSpace(y, Fraction(eta), 1) for y, eta, _ in triples])
        except ValidationError:  # unbounded
            walked = None
        if walked is not None:
            (_, points), active_sets, *_ = walked
            tight_verdict, rank_verdict = flat_verdicts(dim, points, active_sets)
            assert tight_verdict == rank_verdict, triples
            flat += tight_verdict
        try:
            p = validate(dim, triples)
        except ValidationError as exc:
            if str(exc) != "unbounded":
                assert_same_verdict(str(exc), scan_message(dim, triples), normals)
            non_simple += str(exc).startswith("not simple")
            unbounded += str(exc).startswith(RAY)
            continue
        valid += 1
        vertices, active_sets = subset_scan(dim, list(p.halfspaces))
        assert (p.vertices, p.faces) == (vertices, _face_lattice(dim, active_sets))
    assert valid >= 20 and non_simple >= 20 and flat >= 5 and unbounded >= 20, (
        valid, non_simple, flat, unbounded)


@st.composite
def shuffled_with_a_cut(draw):
    """(dim, halfspaces) of a generated polytope with at most 11 facets, in a
    drawn order, often with one more halfspace at a drawn place: one that
    leaves nothing (beyond the maximum of a drawn functional) or one through
    a drawn vertex, so that n + 1 facets meet there."""
    p = draw(labeled_polygon_products().filter(lambda p: len(p.halfspaces) < 12))
    hs = draw(st.permutations(p.halfspaces))
    u = primitive_vector(draw(st.lists(st.integers(-3, 3), min_size=p.dim, max_size=p.dim)))
    cut = draw(st.sampled_from(("vertex", "empty", "none")))
    if cut == "none" or not any(u) or u in [h.normal for h in hs]:
        return p.dim, hs
    if cut == "empty":
        offset = max(dot(u, v) for v in p.vertices) + 1
    else:
        offset = dot(u, draw(st.sampled_from(p.vertices)))
    hs.insert(draw(st.integers(0, len(hs))), HalfSpace(u, offset, 1))
    return p.dim, hs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_with_a_cut())
def test_walk_matches_subset_scan_on_generated_inputs(case):
    """Same vertices, tight sets and faces as the scan, or the same verdict;
    and the kernel route's edges."""
    dim, hs = case
    try:
        p = validate(dim, hs)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            subset_scan(dim, hs)
        assert_same_verdict(str(exc), str(info.value), [h.normal for h in hs])
        return
    vertices, active_sets = subset_scan(dim, hs)
    assert p.vertices == vertices
    assert tuple(tuple(j for j, _ in edges) for edges in p.edges) == active_sets
    assert p.faces == _face_lattice(dim, active_sets)
    for vi in range(len(p.vertices)):
        assert p.edges[vi] == kernel_edge_directions(p, vi)
    assert_plain_ints(p)


def test_pyramid_rejection_is_output_sensitive(monkeypatch):
    """The 10-gon pyramid is rejected from its 18 lex-feasible bases, not C(11, 3):
    3 pivots pick the start's facets, phase 1 adds a few at most, and the walk
    one per further lex-feasible basis (20 in all now)."""
    calls = []

    def counting_pivot(dictionary, col, i):
        calls.append(i)
        return pivot(dictionary, col, i)

    triples = pyramid(10)
    pivot = polytope._pivot
    monkeypatch.setattr(polytope, "_pivot", counting_pivot)
    with pytest.raises(ValidationError, match=r"^not simple at vertex \(1, 2, 1\)$"):
        validate(3, triples)
    assert len(calls) < 3 * 10


def lex_feasible(triples, basis, eps=Fraction(1, 10**6)):
    """Whether ``basis`` is a vertex once each offset eta_i is lowered by eps^(i+1).

    For the few small entries of the inputs here, this eps stands in for an
    arbitrarily small one.
    """
    offsets = [Fraction(eta) - eps ** (i + 1) for i, (_, eta, _) in enumerate(triples)]
    v = solve_rational([triples[i][0] for i in basis], [offsets[i] for i in basis])
    return v is not None and all(dot(v, y) > b for i, ((y, _, _), b)
                                 in enumerate(zip(triples, offsets)) if i not in basis)


LEX_CASES = {name: REJECTED[name][:2] for name in
             ("pyramid", "pyramid_apex_first", "tangent", "redundant", "segment", "empty")}
LEX_CASES.update((f"pyramid5_shuffled{s}", (3, random.Random(s).sample(pyramid(5), 6)))
                 for s in range(20))


@pytest.mark.parametrize("name", sorted(LEX_CASES))
def test_walk_solves_exactly_the_lex_feasible_bases(name, monkeypatch):
    """Phase 1 ends at a lex-feasible basis (or finds none exactly when there
    is none), and the walk then pivots into every other lex-feasible basis
    once and into no other.  ``_walk`` is driven alone, so no other phase 1
    (the recession check in ``validate``) is recorded."""
    dim, triples = LEX_CASES[name]
    feasible = [b for b in combinations(range(len(triples)), dim) if lex_feasible(triples, b)]
    walked = []
    pivot, phase_one = polytope._pivot, polytope._phase_one

    def recording_phase_one(dictionary):
        start = phase_one(dictionary)
        walked.append(None if start is None else tuple(sorted(start[1])))
        return start

    def recording_pivot(dictionary, col, i):
        result = pivot(dictionary, col, i)
        if walked:  # past phase 1
            walked.append(tuple(sorted(result[1])))
        return result

    monkeypatch.setattr(polytope, "_phase_one", recording_phase_one)
    monkeypatch.setattr(polytope, "_pivot", recording_pivot)
    polytope._walk(dim, [HalfSpace(tuple(y), Fraction(eta), m) for y, eta, m in triples])
    if not feasible:
        assert walked == [None]
        return
    assert walked[0] in feasible
    assert sorted(walked) == feasible


def test_unblocked_edge_without_ray_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(polytope, "_check_bounded", lambda normals, dim: None)
    dim, triples, _ = REJECTED["slab"]
    with pytest.raises(RuntimeError, match="no facet blocks the edge leaving facet .* at basis"):
        validate(dim, triples)


def test_a_ray_outside_the_recession_cone_is_an_internal_error(monkeypatch):
    # phase 1 on the recession system, with the sign of its basic solution flipped
    phase_one = polytope._phase_one

    def reflected_phase_one(dictionary):
        d, basis, cols = phase_one(dictionary)
        n_facets = len(cols[0]) - len(basis)
        num = cols[-1]
        return d, basis, cols[:-1] + [num[:n_facets] + [-x for x in num[n_facets:]]]

    monkeypatch.setattr(polytope, "_phase_one", reflected_phase_one)
    with pytest.raises(RuntimeError, match=r"^recession phase 1: the basic solution "
                                           r"\(-1, 0\) is not a recession ray$"):
        polytope._check_bounded([(1, 0), (0, 1), (1, 1)], 2)


def unit_cube(n):
    return [(tuple(s * (j == i) for j in range(n)), 0 if s > 0 else -1, 1)
            for i in range(n) for s in (1, -1)]


def labeled_gon(k):
    """The k-gon with vertices (t, t^2), t = 0, ..., k - 1, labels 2-6 in turn."""
    hs = [((-(2 * t + 1), 1), -t * (t + 1)) for t in range(k - 1)] + [((k - 1, -1), 0)]
    return [(y, eta, 2 + i % 5) for i, (y, eta) in enumerate(hs)]


@pytest.mark.parametrize("dim, triples, vertices",
                         [(n, unit_cube(n), 2 ** n) for n in (1, 2, 3, 6)]
                         + [(2, labeled_gon(k), k) for k in (3, 16, 64)],
                         ids=[f"cube{n}" for n in (1, 2, 3, 6)] + [f"gon{k}" for k in (3, 16, 64)])
def test_walk_runs_no_ratio_test_on_the_edge_back(dim, triples, vertices, monkeypatch):
    """After phase 1, n ratio tests at the start basis and n - 1 at each other:
    at a basis reached by pivoting facet i in for j, the edge that leaves i
    leads back to the parent basis, already seen.  These inputs are simple
    with no degenerate vertex, so there is one basis per vertex."""
    tests = []
    phase_one, ratio_test = polytope._phase_one, polytope._ratio_test

    def recording_phase_one(dictionary):
        start = phase_one(dictionary)
        tests.append(0)
        return start

    def counting_ratio_test(dictionary, col, blockers):
        if tests:
            tests[-1] += 1
        return ratio_test(dictionary, col, blockers)

    monkeypatch.setattr(polytope, "_phase_one", recording_phase_one)
    monkeypatch.setattr(polytope, "_ratio_test", counting_ratio_test)
    assert len(validate(dim, triples).vertices) == vertices
    assert tests == [dim + (vertices - 1) * (dim - 1)]


def polygon20_squared():
    return [(h.normal, h.offset, h.label) for h in product(polygon(20), polygon(20)).halfspaces]


def test_rejections_scan_no_facet_subsets(monkeypatch):
    """Emptiness and boundedness are decided by phase 1, with no C(N, n - 1)
    scan: rejected inputs never reach ``_face_lattice``, so no ``combinations``
    call may run."""
    cases = [(n, unit_cube(n) + [((-1, -1) + (0,) * (n - 2), 5, 1)],
              "not full-dimensional: the polytope is empty") for n in (5, 6, 7)]
    cases += [(n, unit_cube(n)[:-1], f"unbounded in direction ({'0, ' * (n - 1)}1)")
              for n in (8, 10)]
    cases.append((4, polygon20_squared() + [((-1, 0, 0, 0), 1000, 1)],
                  "not full-dimensional: the polytope is empty"))

    def no_scan(*args):
        raise AssertionError("combinations called during a rejection")

    monkeypatch.setattr(polytope, "combinations", no_scan)
    for dim, triples, message in cases:
        with pytest.raises(ValidationError) as info:
            validate(dim, triples)
        assert str(info.value) == message
