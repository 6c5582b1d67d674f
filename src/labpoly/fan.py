"""Fans of labeled polytopes.

Each face contributes the cone spanned by the primitive inward normals of the
facets tight on it; the set of these cones over all faces is the fan.  A cone
is the sorted tuple of its generators, so two descriptions of the same
simplicial cone compare equal, and the zero cone is the empty tuple.  Labels
and offsets are forgotten, so distinct labeled polytopes can share a fan: two
polytopes of one dimension are biholomorphic exactly when their fans are
equal sets, the comparison of the ``compare`` command.

The polytope is simple, so its faces are the subsets of the vertices' tight
sets T(v) and its fan is the set of faces of its vertex cones: two fans are
equal exactly when their sets of vertex cones are (:func:`vertex_cones`).
The face lattice is certified in time linear in its size by (a) each vertex
minimizes the normals of exactly the facets in T(v), and (b) the faces' tight
sets S are distinct, each face's vertices strictly increase and have S in
their T(v), and the faces list V * 2^n vertices, one per pair (S, v) with S
in T(v) (:func:`face_lattice_failure`).  By (b) a face lists exactly the v
with S in T(v), by (a) the vertices minimizing every normal of S: the
duality characterization of the face's cone.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, lt, mul

from .polytope import LabeledPolytope


def _tight_masks(p: LabeledPolytope) -> list:
    """Each vertex's tight set T(v) from the walk's edges, as a bitmask of facets."""
    return [sum(1 << j for j, _ in e) for e in p.edges]


def _facets(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _vertex_failure(p: LabeledPolytope, tight: list):
    """(a): the first vertex whose minimized facets are not its tight set, or None.

    The facets whose normal y a vertex minimizes come from the integer
    pairings <y, D v> with the walk's table :attr:`LabeledPolytope.scaled_vertices`
    (D the lcm of every vertex denominator).
    """
    _, points = p.scaled_vertices
    minimized = [0] * len(points)
    for i, h in enumerate(p.halfspaces):
        y, bit = h.normal, 1 << i
        values = [sum(map(mul, y, w)) for w in points]
        low = min(values)
        for vi, x in enumerate(values):
            if x == low:
                minimized[vi] |= bit
    for vi, (got, want) in enumerate(zip(minimized, tight)):
        if got != want:
            return (f"vertex {p.format_vertex(vi)} minimizes the normals of "
                    f"facets {_facets(got)}, but its tight set is {_facets(want)}")
    return None


def _increasing(seq, stop) -> bool:
    """Whether ``seq`` is strictly increasing within range(stop)."""
    return not seq or 0 <= seq[0] and seq[-1] < stop and all(map(lt, seq, seq[1:]))


def _lattice_failure(p: LabeledPolytope, tight: list):
    """(b): the first face the lattice certificate refuses, named, or None."""
    n_facets, n_vertices = len(p.halfspaces), len(p.scaled_vertices[1])
    faces = {}
    total = 0
    for f in p.faces:
        active, vs = f.active, f.vertices
        if not _increasing(active, n_facets):
            return f"face {list(active)}: its facets are not strictly increasing"
        mask = sum(1 << i for i in active)
        if mask in faces:
            return f"face {list(active)} is listed twice"
        faces[mask] = f
        if not vs:
            return f"face {list(active)} lists no vertex"
        if not _increasing(vs, n_vertices):
            return f"face {list(active)}: its vertices are not strictly increasing"
        if mask & ~reduce(and_, map(tight.__getitem__, vs)):
            vi = next(vi for vi in vs if mask & ~tight[vi])
            return (f"face {list(active)} lists vertex {p.format_vertex(vi)}, "
                    f"which is not on facets {_facets(mask & ~tight[vi])}")
        total += len(vs)
    if total == n_vertices << p.dim:
        return None
    # every entry is one of the V * 2^n pairs (S, v) with S in T(v), so some
    # such pair is missing: a vertex and a subset of its tight set name it
    for vi, t in enumerate(tight):
        mask = t
        while True:  # every subset of t, t first
            f = faces.get(mask)
            if f is None:
                return (f"face {_facets(mask)} is missing; it holds vertex "
                        f"{p.format_vertex(vi)}")
            if vi not in f.vertices:
                return f"face {list(f.active)} misses vertex {p.format_vertex(vi)}"
            if not mask:
                break
            mask = (mask - 1) & t
    return f"the faces list {total} vertices in all, not V * 2^n = {n_vertices << p.dim}"


def face_lattice_failure(p: LabeledPolytope):
    """The first failure of (a) or (b), naming its vertex or face, or None."""
    tight = _tight_masks(p)
    return _vertex_failure(p, tight) or _lattice_failure(p, tight)


def _certified(failure):
    if failure is not None:
        raise RuntimeError(failure)


def vertex_cones(p: LabeledPolytope) -> frozenset:
    """The fan's maximal cones, one per vertex: the sorted normals of its tight
    set, after (a) has checked each tight set (RuntimeError naming the vertex)."""
    _certified(_vertex_failure(p, _tight_masks(p)))
    return frozenset(tuple(sorted(p.halfspaces[j].normal for j, _ in e)) for e in p.edges)


def build_fan(p: LabeledPolytope) -> frozenset:
    """The fan: the frozenset of all face cones (labels and offsets are dropped),
    after (a) and (b) have certified the face lattice (RuntimeError naming the
    vertex or the face)."""
    _certified(face_lattice_failure(p))
    normals = [h.normal for h in p.halfspaces]
    return frozenset(tuple(sorted(map(normals.__getitem__, f.active))) for f in p.faces)
