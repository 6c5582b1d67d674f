"""Labeled rational simple polytopes.

A labeled polytope is a full-dimensional compact convex polytope cut out by
halfspaces <beta, y_i> >= eta_i with primitive integer inward normals y_i,
rational offsets eta_i, and a positive integer label m_i attached to each
facet.  "Simple" means exactly n facets meet at every vertex.

:func:`validate` is the only constructor that should be used: it checks all
of the above exactly (no floating point), enumerates the vertices, and builds
the face lattice.  Faces are identified by the sorted tuple of facet indices
that are tight on them; the facet order of the input is preserved as the
canonical indexing everywhere.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .lattice import (
    adjugate,
    dot,
    format_rational,
    kernel_basis,
    mat_vec,
    matrix,
    parse_rational,
    primitive_vector,
    rational_rank,
    vec_neg,
    vec_sub,
)


class ValidationError(ValueError):
    """The input fails to be a labeled rational simple polytope."""


class FormatError(ValueError):
    """The input file or object does not match the polytope JSON schema."""


@dataclass(frozen=True)
class HalfSpace:
    """One labeled facet inequality <beta, normal> >= offset."""

    normal: tuple
    offset: Fraction
    label: int


@dataclass(frozen=True)
class Face:
    """A face, recorded by the facets tight on it and the vertices in it.

    ``active`` is the sorted tuple of facet indices; its length is the
    codimension.  The empty tuple is the polytope itself.
    """

    active: tuple
    vertices: tuple

    @property
    def codim(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class LabeledPolytope:
    """A validated labeled polytope; build it with :func:`validate`.

    ``edges[vi]`` holds one ``(facet, direction)`` pair per facet tight at
    vertex ``vi``, ordered by facet index: the primitive integer direction of
    the edge that leaves that facet and stays on the others.
    """

    dim: int
    halfspaces: tuple
    vertices: tuple
    faces: tuple
    edges: tuple

    def vertex_active(self, vi: int) -> tuple:
        """Indices of the facets tight at vertex ``vi``."""
        return tuple(j for j, _ in self.edges[vi])

    def face_by_active(self, active) -> Face:
        key = tuple(sorted(active))
        try:
            return self._faces_by_active[key]
        except KeyError:
            raise KeyError(f"no face with active set {key}") from None

    @cached_property
    def _faces_by_active(self) -> dict:
        return {f.active: f for f in self.faces}

    @cached_property
    def scaled_vertices(self) -> tuple:
        """``(D, numerators)``: each vertex is its integer numerator tuple over D.

        D is the lcm of every vertex coordinate denominator, so the pairings
        and convex combinations that read these tables stay in integers.
        """
        scale = math.lcm(*(x.denominator for v in self.vertices for x in v))
        return scale, tuple(tuple(x.numerator * (scale // x.denominator) for x in v)
                            for v in self.vertices)

    def proper_faces(self) -> tuple:
        return tuple(f for f in self.faces if f.codim > 0)

    def vertex_faces(self) -> tuple:
        return tuple(f for f in self.faces if f.codim == self.dim)

    def contains(self, point) -> bool:
        return all(dot(point, h.normal) >= h.offset for h in self.halfspaces)

    def interior_point(self) -> tuple:
        """Barycenter of the vertices; interior since the polytope is full-dim."""
        n = len(self.vertices)
        return tuple(sum(v[j] for v in self.vertices) / Fraction(n)
                     for j in range(self.dim))

    def vertex_index(self, point) -> int:
        target = tuple(Fraction(x) for x in point)
        for i, v in enumerate(self.vertices):
            if v == target:
                return i
        raise KeyError(f"no vertex at {point}")


def format_point(point) -> str:
    return "(" + ", ".join(format_rational(x) for x in point) + ")"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(dim, halfspaces) -> LabeledPolytope:
    """Check the data and build a LabeledPolytope, or raise ValidationError.

    ``halfspaces`` is an iterable of HalfSpace or (normal, offset, label)
    triples.  Normals must have integer entries and offsets must be exact
    (int, Fraction or a rational string; a float is rejected).  Non-primitive
    normals are divided down (with the offset scaled to keep the same
    halfspace) and a warning is issued.  Checks, in order: labels >= 1,
    nonzero integer normals, no duplicate normals, boundedness, nonempty
    full-dimensional, simple at every vertex, no redundant facet.

    Vertices and edges come from a walk over the vertex graph (:func:`_walk`);
    an input the walk cannot finish is invalid, and :func:`_scan` then finds
    which check it fails.
    """
    dim = int(dim)
    if dim < 1:
        raise ValidationError("dimension must be a positive integer")

    hs = []
    for i, raw in enumerate(halfspaces):
        if isinstance(raw, HalfSpace):
            normal, offset, label = raw.normal, raw.offset, raw.label
        else:
            normal, offset, label = raw
        if not isinstance(label, int) or isinstance(label, bool):
            raise ValidationError(f"label must be an integer on facet {i}")
        if label < 1:
            raise ValidationError(f"label < 1 on facet {i}")
        try:
            (normal,) = matrix((normal,))
        except ValueError:
            raise ValidationError(f"normal of facet {i} must have integer entries") from None
        if len(normal) != dim:
            raise ValidationError(f"normal of facet {i} has length {len(normal)}, expected {dim}")
        if not any(normal):
            raise ValidationError(f"zero normal on facet {i}")
        if isinstance(offset, (float, bool)):
            raise ValidationError(
                f"offset of facet {i} must be exact (int, Fraction or 'p/q'), "
                f"got {offset!r}")
        offset = Fraction(offset)
        g = math.gcd(*normal)
        if g > 1:
            warnings.warn(f"facet {i}: normal {normal} is not primitive, dividing by {g}")
            offset = offset / g
            normal = tuple(e // g for e in normal)
        hs.append(HalfSpace(normal, offset, label))

    seen = {}
    for i, h in enumerate(hs):
        if h.normal in seen:
            raise ValidationError(
                f"redundant halfspace {i}: same normal as facet {seen[h.normal]}")
        seen[h.normal] = i

    if len(hs) < dim + 1 or rational_rank(tuple(h.normal for h in hs)) < dim:
        raise ValidationError("unbounded")
    walked = _walk(dim, hs)
    if walked is None:
        _scan(dim, hs)
        raise RuntimeError("the vertex walk failed on a polytope the subset scan accepts")
    vertices, active_sets, edges = walked
    _check_vertices(dim, len(hs), vertices, active_sets)
    return LabeledPolytope(dim=dim, halfspaces=tuple(hs), vertices=vertices,
                           faces=_face_lattice(dim, active_sets), edges=edges)


def _walk(dim, hs):
    """(vertices, tight sets, edges) by pivoting over the vertex graph, or None.

    Start at the first facet subset, in ``combinations`` order, whose basic
    solution is feasible.  At a vertex with tight set T, the adjugate of the
    tight normals (rows) gives every edge at once: column j of ``sign(det) *
    adj`` is zero on T - {j} and positive on facet j, so it points along the
    edge that leaves facet j.  An exact ratio test finds the facet i that
    blocks the edge, and the neighbour has tight set T - {j} + {i}.  Offsets
    are scaled to a common denominator once, so all of this, the start
    search included, runs on integers (see :func:`_basic_solution`).

    Returns None as soon as the walk meets what a labeled simple polytope
    cannot produce: no feasible basis, a vertex with more than ``dim`` tight
    facets, or an edge no facet blocks.  (A tie in a ratio test needs no check
    of its own: the facets that tie are all tight at the neighbour, which
    fails the tight-facet count when it is visited.)  Otherwise the
    normals have rank ``dim``, every visited vertex is simple and every edge
    at it is blocked, and that proves the polytope bounded (the simplex-method
    argument): the edges at a simple vertex span its tangent cone, so for a
    functional unbounded above some edge increases it; that edge is blocked,
    so it ends at a visited vertex with a strictly larger value (simple means
    the step is positive), and finitely many vertices cannot go on forever.
    The same path, for a functional maximized at a single vertex only, shows
    that the walk reaches every vertex.
    """
    normals = [h.normal for h in hs]
    scale, offsets = _common_denominator([h.offset for h in hs])
    for start in combinations(range(len(hs)), dim):
        try:
            if min(_basic_solution(normals, offsets, start)[3]) >= 0:
                break
        except ValueError:  # singular basis
            continue
    else:
        return None

    found = []
    seen = {start}
    todo = [start]
    while todo:
        basis = todo.pop()
        d, adj, num, slack = _basic_solution(normals, offsets, basis)
        if slack.count(0) != dim:
            return None
        sign = 1 if d > 0 else -1
        edges = []
        for col, j in enumerate(basis):
            direction = primitive_vector(tuple(sign * row[col] for row in adj))
            best, best_rate = None, 0
            for i, y in enumerate(normals):
                rate = -dot(y, direction)
                # facet i is hit after slack[i] / rate; compare by cross-multiplying
                if rate > 0 and (best is None or slack[i] * best_rate < slack[best] * rate):
                    best, best_rate = i, rate
            if best is None:
                return None
            edges.append((j, direction))
            neighbour = tuple(sorted(set(basis) - {j} | {best}))
            if neighbour not in seen:
                seen.add(neighbour)
                todo.append(neighbour)
        vertex = tuple(Fraction(x, d * scale) for x in num)
        found.append((vertex, basis, tuple(edges)))
    found.sort()
    return (tuple(v for v, _, _ in found), tuple(t for _, t, _ in found),
            tuple(e for _, _, e in found))


def _common_denominator(values):
    """``(scale, numerators)``: Fractions as integers over their common denominator."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _basic_solution(normals, offsets, basis):
    """``(d, adj, num, slack)`` of the vertex where the facets in ``basis`` are tight.

    ``d`` and ``adj`` are the determinant and adjugate of the basis normals
    (rows), the vertex is ``num / (d * scale)`` with ``offsets`` the integer
    offsets times ``scale``, and ``slack[i]`` is ``<y_i, v> - eta_i`` times
    ``|d| * scale``, an integer.  Raises ValueError on a singular basis.
    """
    d, adj = adjugate(tuple(normals[i] for i in basis))
    sign = 1 if d > 0 else -1
    num = mat_vec(adj, tuple(offsets[i] for i in basis))
    return d, adj, num, [sign * (dot(y, num) - d * b) for y, b in zip(normals, offsets)]


def _scan(dim, hs):
    """(vertices, tight sets) by trying every facet subset; raises if invalid.

    The brute-force route: a recession ray search over (dim-1)-subsets, then
    the basic solution of every nonsingular dim-subset (:func:`_basic_solution`,
    in integers), kept when no slack is negative; its tight set is where the
    slack is zero.  :func:`validate` runs it only on an input the walk rejects,
    so that it reports the first check that fails.
    """
    normals = tuple(h.normal for h in hs)
    ray = _recession_direction(normals, dim)
    if ray is not None:
        raise ValidationError(f"unbounded in direction {ray}")

    scale, offsets = _common_denominator([h.offset for h in hs])
    found = {}
    for subset in combinations(range(len(hs)), dim):
        try:
            d, _, num, slack = _basic_solution(normals, offsets, subset)
        except ValueError:  # singular subset
            continue
        if min(slack) >= 0:
            vertex = tuple(Fraction(x, d * scale) for x in num)
            found[vertex] = tuple(i for i, s in enumerate(slack) if s == 0)
    if not found:
        raise ValidationError("not full-dimensional: the polytope is empty")
    vertices = tuple(sorted(found))
    active_sets = tuple(found[v] for v in vertices)
    _check_vertices(dim, len(hs), vertices, active_sets)
    return vertices, active_sets


def _check_vertices(dim, n_facets, vertices, active_sets):
    """Full dimension, simplicity and irredundancy, given every vertex."""
    if len(vertices) > 1:
        diffs = tuple(vec_sub(v, vertices[0]) for v in vertices[1:])
        if rational_rank(diffs) < dim:
            raise ValidationError("not full-dimensional")
    else:
        raise ValidationError("not full-dimensional")

    for v, act in zip(vertices, active_sets):
        if len(act) != dim:
            raise ValidationError(f"not simple at vertex {format_point(v)}")

    tight_somewhere = set().union(*active_sets)
    for i in range(n_facets):
        if i not in tight_somewhere:
            raise ValidationError(f"redundant halfspace {i}")


def _face_lattice(dim, active_sets):
    """Faces sorted by (codimension, tight set), from the vertices' tight sets."""
    face_map = {}
    for vi, act in enumerate(active_sets):
        for r in range(dim + 1):
            for sub in combinations(act, r):
                face_map.setdefault(sub, []).append(vi)
    return tuple(Face(active=key, vertices=tuple(vs))
                 for key, vs in sorted(face_map.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _recession_direction(normals, dim):
    """A nonzero integer direction d with <y_i, d> >= 0 for all i, if one exists.

    The recession cone of a polyhedron with inward normals y_i is
    {d : <y_i, d> >= 0}; it is nontrivial exactly when some extreme ray
    survives, and every extreme ray lies on dim-1 of the hyperplanes
    <y_i, .> = 0, so scanning (dim-1)-subsets finds one.
    """
    for subset in combinations(range(len(normals)), dim - 1):
        rows = tuple(normals[i] for i in subset)
        if rational_rank(rows) != dim - 1:
            continue
        kb = kernel_basis(rows, dim)
        if len(kb) != 1:
            continue
        d = kb[0]
        for cand in (d, vec_neg(d)):
            if all(dot(y, cand) >= 0 for y in normals):
                return cand
    return None


# ---------------------------------------------------------------------------
# derived geometry
# ---------------------------------------------------------------------------

def edge_directions(p: LabeledPolytope, vi: int) -> tuple:
    """Primitive edge directions leaving vertex ``vi``.

    Returns one (dropped_facet, direction) pair per facet through the vertex:
    dropping facet j and staying tight on the rest moves along the unique edge
    whose primitive integer direction d satisfies <y_j, d> > 0 (inward).
    Pairs are ordered by dropped facet index.  They are found once, by the
    vertex walk in :func:`validate`.
    """
    return p.edges[vi]


# ---------------------------------------------------------------------------
# isomorphism (translation preserving normals, offsets pattern, labels)
# ---------------------------------------------------------------------------

def isomorphism_report(p: LabeledPolytope, q: LabeledPolytope):
    """(translation, reason) if q = p + c facet-wise with equal labels.

    The translation is the unique candidate solving the offset equations on
    one vertex's normal basis; returns (None, reason) when the polytopes are
    not isomorphic.  Facets are matched by their primitive normal vector,
    which is well-defined because duplicate normals are rejected upstream.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    pmap = {h.normal: i for i, h in enumerate(p.halfspaces)}
    qmap = {h.normal: i for i, h in enumerate(q.halfspaces)}
    if set(pmap) != set(qmap):
        return None, "facet normal sets differ"
    act = p.vertex_active(0)
    try:
        d, adj = adjugate(tuple(p.halfspaces[i].normal for i in act))
    except ValueError:
        raise RuntimeError("vertex normals failed to determine a translation") from None
    # <c, y_i> is the offset difference on each tight facet i, so c = adj * diff / d
    scale, diff = _common_denominator(
        [q.halfspaces[qmap[p.halfspaces[i].normal]].offset - p.halfspaces[i].offset
         for i in act])
    c = tuple(Fraction(x, d * scale) for x in mat_vec(adj, diff))
    for i, h in enumerate(p.halfspaces):
        j = qmap[h.normal]
        if q.halfspaces[j].offset != h.offset + dot(c, h.normal):
            return None, "offsets do not differ by a translation"
    for i, h in enumerate(p.halfspaces):
        j = qmap[h.normal]
        if q.halfspaces[j].label != h.label:
            return None, f"labels differ on the facet with normal {h.normal}"
    return c, "translation"


def is_isomorphic(p: LabeledPolytope, q: LabeledPolytope) -> Optional[tuple]:
    """The translation carrying p onto q with matching labels, or None."""
    return isomorphism_report(p, q)[0]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def polytope_from_json(obj) -> LabeledPolytope:
    """Build and validate a polytope from the JSON object format.

    Expected shape::

        {"dim": n,
         "halfspaces": [{"normal": [..ints..], "offset": "p/q", "label": m}, ...]}

    Offsets may be JSON integers or rational strings.  Schema problems raise
    FormatError; geometric problems raise ValidationError.
    """
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    try:
        dim = obj["dim"]
        raw_list = obj["halfspaces"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FormatError('"dim" must be an integer')
    if not isinstance(raw_list, list):
        raise FormatError('"halfspaces" must be a list')
    triples = []
    for i, entry in enumerate(raw_list):
        if not isinstance(entry, dict):
            raise FormatError(f"halfspace {i} must be an object")
        try:
            normal = entry["normal"]
            offset = entry["offset"]
            label = entry["label"]
        except KeyError as exc:
            raise FormatError(f"halfspace {i}: missing key {exc}") from exc
        if not isinstance(normal, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in normal):
            raise FormatError(f"halfspace {i}: normal must be a list of integers")
        if not isinstance(label, int) or isinstance(label, bool):
            raise FormatError(f"halfspace {i}: label must be an integer")
        try:
            offset = parse_rational(offset)
        except ValueError as exc:
            raise FormatError(f"halfspace {i}: bad offset: {exc}") from exc
        triples.append((tuple(normal), offset, label))
    return validate(dim, triples)


def polytope_to_json(p: LabeledPolytope) -> dict:
    return {
        "dim": p.dim,
        "halfspaces": [
            {"normal": list(h.normal),
             "offset": format_rational(h.offset),
             "label": h.label}
            for h in p.halfspaces
        ],
    }


def load_polytope(path) -> LabeledPolytope:
    """Read and validate a polytope JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return polytope_from_json(obj)
