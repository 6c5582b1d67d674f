"""Tests for polytope validation, vertex/face enumeration, and isomorphism."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labpoly import polytope
from labpoly.lattice import dot
from labpoly.polytope import (
    FormatError,
    ValidationError,
    isomorphism_report,
    load_polytope,
    polytope_from_json,
    validate,
)

from corpus import (
    contains,
    cube,
    face_by_active,
    interval,
    labeled_polygon_products,
    labeled_simplex_products,
    polytope_to_json,
    solve_rational,
    square,
    standard_corpus,
    standard_simplex,
    t1,
    w2,
)


# ---------------------------------------------------------------------------
# oracle: convex-hull membership by Caratheodory enumeration
# ---------------------------------------------------------------------------

def in_convex_hull(point, points, dim):
    """Exact test whether point lies in conv(points).

    Any point of the hull lies in a simplex spanned by at most dim+1 of the
    points, so enumerate those and solve the barycentric system exactly.
    """
    pts = list(points)
    for k in range(1, dim + 2):
        for sub in combinations(pts, k):
            # rows: coordinates plus the affine constraint sum lambda = 1
            rows = [[Fraction(sub[i][j]) for i in range(k)] for j in range(dim)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(x) for x in point] + [Fraction(1)]
            lam = solve_rational(rows, rhs)
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


# ---------------------------------------------------------------------------
# validation of good inputs
# ---------------------------------------------------------------------------

def test_t1_vertices_and_faces():
    p = t1()
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert len(p.faces) == 7  # 1 full + 3 facets + 3 vertices
    codims = sorted(f.codim for f in p.faces)
    assert codims == [0, 1, 1, 1, 2, 2, 2]
    full = face_by_active(p, ())
    assert set(full.vertices) == {0, 1, 2}


def test_square_vertices():
    p = square()
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(p.faces) == 1 + 4 + 4


def test_cube_counts():
    p = cube()
    assert len(p.vertices) == 8
    by_codim = {}
    for f in p.faces:
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert by_codim == {0: 1, 1: 6, 2: 12, 3: 8}


def test_interval():
    p = interval(3, 5)
    assert p.vertices == ((Fraction(0),), (Fraction(1),))
    assert [h.label for h in p.halfspaces] == [3, 5]


def test_face_vertices_are_exactly_the_tight_ones():
    for name, p in standard_corpus()[:20]:
        for f in p.faces:
            for vi, v in enumerate(p.vertices):
                on_face = all(dot(v, p.halfspaces[i].normal) == p.halfspaces[i].offset
                              for i in f.active)
                assert (vi in f.vertices) == on_face, (name, f.active)


def test_every_vertex_is_extreme():
    for name, p in [("t1", t1()), ("square", square()), ("w2", w2())]:
        for vi, v in enumerate(p.vertices):
            others = [u for ui, u in enumerate(p.vertices) if ui != vi]
            assert not in_convex_hull(v, others, p.dim), (name, v)


def test_vertices_are_inside():
    for name, p in standard_corpus()[:10]:
        for v in p.vertices:
            assert contains(p, v)
        # the barycenter is strictly inside: the polytope is full-dimensional
        center = tuple(sum(c) / Fraction(len(p.vertices)) for c in zip(*p.vertices))
        assert all(dot(center, h.normal) > h.offset for h in p.halfspaces), name


# ---------------------------------------------------------------------------
# validation failures
# ---------------------------------------------------------------------------

def test_unbounded_quadrant():
    with pytest.raises(ValidationError, match="unbounded"):
        validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1)])


def test_unbounded_slab():
    with pytest.raises(ValidationError, match="unbounded"):
        validate(2, [((1, 0), 0, 1), ((-1, 0), -1, 1), ((0, 1), 0, 1)])


def test_not_simple_pyramid():
    # square pyramid over [-1,1]^2: four side facets meet at the apex (0, 0, 1)
    with pytest.raises(ValidationError, match="not simple at vertex \\(0, 0, 1\\)"):
        validate(3, [
            ((0, 0, 1), 0, 1),
            ((-1, 0, -1), -1, 1),
            ((1, 0, -1), -1, 1),
            ((0, -1, -1), -1, 1),
            ((0, 1, -1), -1, 1),
        ])


def test_redundant_halfspace():
    with pytest.raises(ValidationError, match="redundant halfspace 3"):
        validate(2, [
            ((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1),
            ((-1, -2), -10, 1),
        ])


def test_duplicate_normal():
    with pytest.raises(ValidationError, match="redundant halfspace 3"):
        validate(2, [
            ((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1),
            ((1, 0), -1, 1),
        ])


def test_bad_labels():
    with pytest.raises(ValidationError, match="label < 1 on facet 1"):
        validate(1, [((1,), 0, 1), ((-1,), -1, 0)])
    with pytest.raises(ValidationError, match="label < 1"):
        validate(1, [((1,), 0, -3), ((-1,), -1, 1)])


def test_empty_polytope():
    with pytest.raises(ValidationError, match="not full-dimensional"):
        validate(1, [((1,), 2, 1), ((-1,), 0, 1)])  # x >= 2 and x <= 0


def test_offset_string_with_an_exponent_is_refused():
    # validate reads a string offset as parse_rational does
    with pytest.raises(ValueError, match="^not a rational number: '-1e100000000'$"):
        validate(1, [((1,), "0", 1), ((-1,), "-1e100000000", 1)])
    assert validate(1, [((1,), "0", 1), ((-1,), "-1/2", 1)]).vertices == ((0,), (Fraction(1, 2),))


def test_zero_normal():
    with pytest.raises(ValidationError, match="zero normal on facet 0"):
        validate(2, [((0, 0), 0, 1), ((1, 0), 0, 1), ((0, 1), 0, 1)])


def test_nonprimitive_normal_warns_and_rescales():
    with pytest.warns(UserWarning, match="facet 2"):
        p = validate(2, [
            ((1, 0), 0, 1), ((0, 1), 0, 1), ((-2, -2), -2, 1),
        ])
    assert p.halfspaces[2].normal == (-1, -1)
    assert p.halfspaces[2].offset == Fraction(-1)
    assert set(p.vertices) == set(t1().vertices)


def test_nonprimitive_normal_past_the_digit_limit_warns_and_validates():
    # the unit interval with a normal 2 * 10^5000 times too long: the
    # warning prints the normal and the gcd, 5001 digits each
    g = 2 * 10**5000
    with pytest.warns(UserWarning) as caught:
        p = validate(1, [((g,), 0, 1), ((-1,), -1, 1)])
    digits = "2" + "0" * 5000
    assert [str(w.message) for w in caught] == [
        f"facet 0: normal ({digits}) is not primitive, dividing by {digits}"]
    assert p.halfspaces[0].normal == (1,)
    assert p.vertices == ((0,), (1,))


def test_halfspace_records_and_triples_give_equal_polytopes():
    # a HalfSpace unpacks as its (normal, offset, label) triple
    for name, p in standard_corpus()[:20]:
        triples = [(h.normal, h.offset, h.label) for h in p.halfspaces]
        assert validate(p.dim, p.halfspaces) == validate(p.dim, triples) == p, name


def test_non_integer_normal_is_rejected():
    # int(1.7) would silently turn the normal into (1, 0); a Fraction of
    # denominator 1 is an integer entry, a float, bool or fraction is not
    for bad in (1.7, 1.0, True, Fraction(1, 2)):
        with pytest.raises(ValidationError,
                           match="^normal of facet 0 must have integer entries$"):
            validate(2, [((bad, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1)])
    p = validate(2, [((Fraction(1), 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1)])
    assert p.halfspaces[0].normal == (1, 0) and type(p.halfspaces[0].normal[0]) is int


def test_dimension_must_be_a_positive_int():
    # int() would turn 2.7 into 2, True into 1 and "2" into 2
    triangle = [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), -1, 1)]
    for dim in (2.7, True, "2", 0, -1):
        with pytest.raises(ValidationError, match="dimension must be a positive integer"):
            validate(dim, triangle)
    assert validate(2, triangle).dim == 2


def test_float_offset_is_rejected():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValidationError, match="offset of facet 2 must be exact"):
        validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), 0.1, 1)])
    p = validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -1), "-1/10", 1)])
    assert p.halfspaces[2].offset == Fraction(-1, 10)


def test_tangent_halfspace_is_rejected():
    # x + y <= 2 touches the square only at the corner (1, 1): the corner
    # stops being simple, which is how tangency surfaces
    with pytest.raises(ValidationError, match="not simple at vertex \\(1, 1\\)"):
        validate(2, [
            ((1, 0), 0, 1), ((-1, 0), -1, 1),
            ((0, 1), 0, 1), ((0, -1), -1, 1),
            ((-1, -1), -2, 1),
        ])


# ---------------------------------------------------------------------------
# edge directions
# ---------------------------------------------------------------------------

def test_edge_directions_t1():
    p = t1()
    vi = p.vertices.index((1, 0))
    dirs = dict(p.edges[vi])
    # tight facets at (1,0): x>=0 is not tight; facets 1 (y>=0) and 2 (x+y<=1)
    assert dirs == {1: (-1, 1), 2: (-1, 0)}


def test_edge_directions_w2():
    p = w2()
    vi = p.vertices.index((0, 1))
    dirs = dict(p.edges[vi])
    assert set(dirs.values()) == {(0, -1), (2, -1)}


def test_edge_count_and_primitivity():
    from math import gcd
    for name, p in standard_corpus()[:25]:
        for vi in range(len(p.vertices)):
            dirs = p.edges[vi]
            assert len(dirs) == p.dim, name
            for _, d in dirs:
                assert gcd(*[abs(e) for e in d]) == 1 or p.dim == 1


def test_edges_pair_up_with_negated_directions():
    for name, p in standard_corpus()[:25]:
        for f in p.faces:
            if f.codim != p.dim - 1 or p.dim < 2:
                continue
            assert len(f.vertices) == 2, (name, f.active)
            u_i, v_i = f.vertices
            u, v = p.vertices[u_i], p.vertices[v_i]
            # direction at u that stays tight on f.active = drops the one extra facet
            extra_u = ({j for j, _ in p.edges[u_i]} - set(f.active)).pop()
            extra_v = ({j for j, _ in p.edges[v_i]} - set(f.active)).pop()
            d_u = dict(p.edges[u_i])[extra_u]
            d_v = dict(p.edges[v_i])[extra_v]
            assert d_u == tuple(-x for x in d_v), (name, f.active)
            # d_u points from u toward v
            diff = tuple(a - b for a, b in zip(v, u))
            ratios = {Fraction(a) / b for a, b in zip(diff, d_u) if b != 0}
            assert len(ratios) == 1 and ratios.pop() > 0


def test_edge_directions_1d():
    p = interval(1, 1)
    assert dict(p.edges[0]) == {0: (1,)}
    assert dict(p.edges[1]) == {1: (-1,)}


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_translation_detected():
    p = t1()
    q = validate(2, [
        ((1, 0), 2, 1), ((0, 1), -1, 1), ((-1, -1), -2, 1),
    ])  # p translated by (2, -1)
    assert isomorphism_report(p, q)[0] == (Fraction(2), Fraction(-1))
    assert isomorphism_report(q, p)[0] == (Fraction(-2), Fraction(1))


def test_translation_at_a_vertex_0_of_determinant_above_1():
    # x + 2y >= 0, x - 2y >= 0, x <= 4: vertex 0 is the apex (0, 0), where the
    # tight normals have |det| 4; c is read off the two vertex tables there
    p = validate(2, [((1, 2), 0, 1), ((1, -2), 0, 2), ((-1, 0), -4, 3)])
    assert p.vertices[0] == (0, 0) and p.determinants[0] == 4
    c = (Fraction(1, 3), Fraction(-5, 7))
    q = validate(2, [(h.normal, h.offset + dot(c, h.normal), h.label) for h in p.halfspaces])
    assert isomorphism_report(p, q) == ((Fraction(1, 3), Fraction(-5, 7)), "translation")
    assert isomorphism_report(q, p) == ((Fraction(-1, 3), Fraction(5, 7)), "translation")


def test_labels_break_isomorphism():
    p, q = t1(), t1((1, 1, 2))
    trans, reason = isomorphism_report(p, q)
    assert trans is None and "labels differ" in reason


def test_labels_differ_reason_prints_a_normal_of_any_size():
    # the normal reads as str() of its tuple would: (-1,) in dimension 1, and
    # every digit of the triangle x, y >= 0, x + 10^5000 y <= 1's last normal
    assert isomorphism_report(interval(3, 5), interval(3, 7)) == (
        None, "labels differ on the facet with normal (-1,)")
    big = 10**5000
    p, q = (validate(2, [((1, 0), 0, 1), ((0, 1), 0, 1), ((-1, -big), -1, m)]) for m in (1, 2))
    assert isomorphism_report(p, q) == (
        None, f"labels differ on the facet with normal (-1, -1{'0' * 5000})")


def test_shape_difference_detected():
    p = t1()
    q = standard_simplex(2, 2)  # scaled, same normals, offsets not a translation
    trans, reason = isomorphism_report(p, q)
    assert trans is None and "translation" in reason
    r = w2()
    trans, reason = isomorphism_report(p, r)
    assert trans is None and reason == "facet normal sets differ"


def test_isomorphic_ignores_facet_order():
    p = t1()
    q = validate(2, [
        ((-1, -1), -1, 1), ((1, 0), 0, 1), ((0, 1), 0, 1),
    ])
    assert isomorphism_report(p, q)[0] == (0, 0)


def test_isomorphism_is_an_equivalence():
    rng = random.Random(3)
    base = [t1(), w2(), square()]
    for p in base:
        assert isomorphism_report(p, p)[0] == tuple([0] * p.dim)  # reflexive
    for p in base:
        t = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(p.dim))
        q = validate(p.dim, [(h.normal, h.offset + dot(t, h.normal), h.label)
                             for h in p.halfspaces])
        c1 = isomorphism_report(p, q)[0]
        c2 = isomorphism_report(q, p)[0]
        assert c1 == t
        assert c2 == tuple(-x for x in t)  # symmetric (inverse translation)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(labeled_polygon_products(), labeled_simplex_products()), st.data())
def test_isomorphism_report_reads_back_a_drawn_translation(p, data):
    # q = p + c facet-wise: the report returns exactly c, and -c the other
    # way; one facet relabeled on q makes it return None naming that facet
    c = data.draw(st.tuples(*[st.fractions(-10, 10, max_denominator=12)] * p.dim))
    moved = [(h.normal, h.offset + dot(c, h.normal), h.label) for h in p.halfspaces]
    assert isomorphism_report(p, validate(p.dim, moved)) == (c, "translation")
    assert isomorphism_report(validate(p.dim, moved), p) == (
        tuple(-x for x in c), "translation")
    i = data.draw(st.integers(0, len(moved) - 1))
    normal, offset, label = moved[i]
    relabeled = validate(p.dim, moved[:i] + [(normal, offset, label + 1)] + moved[i + 1:])
    assert isomorphism_report(p, relabeled) == (
        None, f"labels differ on the facet with normal {normal}")


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        isomorphism_report(t1(), interval(1, 1))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_json_round_trip(tmp_path):
    p = validate(2, [
        ((1, 0), Fraction(1, 2), 2), ((0, 1), 0, 3), ((-1, -1), -2, 1),
    ])
    obj = polytope_to_json(p)
    assert obj["halfspaces"][0]["offset"] == "1/2"
    q = polytope_from_json(json.loads(json.dumps(obj)))
    assert q == p
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert load_polytope(path) == p


def test_load_polytope_parses_each_offset_once(tmp_path, monkeypatch):
    # polytope_from_json parses every offset, string or JSON integer, and
    # validate takes the resulting Fraction as it is
    real, calls = polytope.parse_rational, []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(polytope, "parse_rational", counting)
    obj = polytope_to_json(cube(2, [1, 2, 3, 1, 2, 5]))
    obj["halfspaces"][0]["offset"] = 0
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(obj))
    p = load_polytope(path)
    assert calls == [0, "-2", "0", "-2", "0", "-2"]
    assert p == cube(2, [1, 2, 3, 1, 2, 5])
    assert all(type(h.offset) is Fraction for h in p.halfspaces)


def test_validate_takes_an_int_or_fraction_offset_as_it_is(monkeypatch):
    def refuse(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(polytope, "parse_rational", refuse)
    with pytest.warns(UserWarning, match="facet 1"):
        p = validate(1, [((1,), Fraction(1, 2), 1), ((-2,), -3, 1)])
    assert p.vertices == ((Fraction(1, 2),), (Fraction(3, 2),))
    assert all(type(h.offset) is Fraction for h in p.halfspaces)


def test_json_schema_errors():
    with pytest.raises(FormatError):
        polytope_from_json([1, 2])
    with pytest.raises(FormatError, match="missing key"):
        polytope_from_json({"dim": 2})
    with pytest.raises(FormatError, match="normal must be a list of integers"):
        polytope_from_json({"dim": 1, "halfspaces": [
            {"normal": [1.5], "offset": "0", "label": 1}]})
    with pytest.raises(FormatError, match="bad offset"):
        polytope_from_json({"dim": 1, "halfspaces": [
            {"normal": [1], "offset": "a/b", "label": 1},
            {"normal": [-1], "offset": "-1", "label": 1}]})


def test_json_integer_offsets_accepted():
    p = polytope_from_json({"dim": 1, "halfspaces": [
        {"normal": [1], "offset": 0, "label": 1},
        {"normal": [-1], "offset": -1, "label": 2}]})
    assert p.halfspaces[1].offset == Fraction(-1)


# ---------------------------------------------------------------------------
# corpus sanity
# ---------------------------------------------------------------------------

def test_named_accessors():
    p = t1()
    assert p.vertices == ((0, 0), (0, 1), (1, 0))
    assert [f.active for f in p.faces] == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for f in p.faces:
        assert face_by_active(p, f.active) is f
        assert face_by_active(p, reversed(f.active)) is f
    with pytest.raises(KeyError, match="no face with active set"):
        face_by_active(p, (0, 1, 2))


def test_corpus_size_and_validity():
    corpus = standard_corpus()
    assert len(corpus) >= 50
    names = [n for n, _ in corpus]
    assert len(set(names)) == len(names)
    for name, p in corpus:
        assert len(p.vertices) >= p.dim + 1 or p.dim == 1
