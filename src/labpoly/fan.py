"""Fans of labeled polytopes.

Each face contributes the cone spanned by the primitive inward normals of the
facets tight on it; the collection over all faces is the fan.  A cone is the
sorted tuple of its generators, so two descriptions of the same simplicial
cone compare equal, and the zero cone is the empty tuple.  Labels and
offsets are forgotten, so distinct labeled polytopes can share a fan: fan
equality is exactly the complex-structure comparison used by the ``compare``
command.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import dot
from .polytope import Face, LabeledPolytope


class Fan(namedtuple("Fan", "ambient_dim cones")):
    """``cones`` is a frozenset of sorted tuples of generators."""

    __slots__ = ()

    def sorted_cones(self) -> tuple:
        return tuple(sorted(self.cones, key=lambda c: (len(c), c)))

    def rays(self) -> tuple:
        return tuple(sorted({g for c in self.cones for g in c}))


def _checked_cone(face: Face, generators, minimizers) -> tuple:
    """The face's cone; the vertices minimizing all its generators must be
    exactly the face's vertices, or RuntimeError names the face."""
    if generators and set.intersection(
            *(minimizers[g] for g in generators)) != set(face.vertices):
        raise RuntimeError(
            f"cone of face {list(face.active)} fails the minimization characterization")
    return tuple(sorted(generators))


def build_fan(p: LabeledPolytope) -> Fan:
    """The fan of all face cones (labels and offsets are dropped).

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
    return Fan(ambient_dim=p.dim, cones=frozenset(
        _checked_cone(f, [normals[i] for i in f.active], minimizers) for f in p.faces))


def fans_equal(f1: Fan, f2: Fan) -> bool:
    """Set equality of cones; raises on ambient dimension mismatch."""
    if f1.ambient_dim != f2.ambient_dim:
        raise ValueError("dimension mismatch")
    return f1.cones == f2.cones


def fan_to_json(f: Fan) -> dict:
    return {
        "ambient_dim": f.ambient_dim,
        "cones": [[list(g) for g in c] for c in f.sorted_cones()],
    }
