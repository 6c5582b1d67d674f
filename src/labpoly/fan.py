"""Fans of labeled polytopes.

Each face contributes the cone spanned by the primitive inward normals of the
facets tight on it; the set of these cones over all faces is the fan.  A cone
is the sorted tuple of its generators, so two descriptions of the same
simplicial cone compare equal, and the zero cone is the empty tuple.  Labels
and offsets are forgotten, so distinct labeled polytopes can share a fan: two
polytopes of one dimension are biholomorphic exactly when their fans are
equal sets, the comparison of the ``compare`` command.
"""

from __future__ import annotations

from .lattice import dot
from .polytope import Face, LabeledPolytope


def _checked_cone(face: Face, generators, minimizers) -> tuple:
    """The face's cone; the vertices minimizing all its generators must be
    exactly the face's vertices, or RuntimeError names the face."""
    if generators and set.intersection(
            *(minimizers[g] for g in generators)) != set(face.vertices):
        raise RuntimeError(
            f"cone of face {list(face.active)} fails the minimization characterization")
    return tuple(sorted(generators))


def build_fan(p: LabeledPolytope) -> frozenset:
    """The fan: the frozenset of all face cones (labels and offsets are dropped).

    The vertices on which each facet normal y is smallest are found once, from
    the integer pairings <y, D v> (D the lcm of every vertex denominator, see
    :attr:`LabeledPolytope.scaled_vertices`), and every face's cone is checked
    against them.
    """
    normals = [h.normal for h in p.halfspaces]
    _, points = p.scaled_vertices
    minimizers = {}
    for y in normals:
        values = [dot(y, w) for w in points]
        low = min(values)
        minimizers[y] = {vi for vi, x in enumerate(values) if x == low}
    return frozenset(
        _checked_cone(f, [normals[i] for i in f.active], minimizers) for f in p.faces)
