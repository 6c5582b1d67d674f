"""Fans of labeled polytopes.

Each face contributes the cone spanned by the primitive inward normals of the
facets tight on it; the collection over all faces is the fan.  Labels and
offsets are forgotten, so distinct labeled polytopes can share a fan: fan
equality is exactly the complex-structure comparison used by the ``compare``
command.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import dot
from .polytope import Face, LabeledPolytope


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone recorded by its primitive generators.

    Generators are stored sorted so two descriptions of the same simplicial
    cone compare equal.  The zero cone has no generators.
    """

    generators: tuple


def make_cone(generators) -> Cone:
    return Cone(generators=tuple(sorted(set(tuple(g) for g in generators))))


@dataclass(frozen=True)
class Fan:
    ambient_dim: int
    cones: frozenset

    def sorted_cones(self) -> tuple:
        return tuple(sorted(self.cones, key=lambda c: (len(c.generators), c.generators)))

    def rays(self) -> tuple:
        return tuple(sorted({g for c in self.cones for g in c.generators}))


def dual_cone(p: LabeledPolytope, face: Face) -> Cone:
    """Cone of the face: nonnegative span of its tight facet normals.

    Equivalently (and this is what makes it the right dual object) it is the
    set of linear functionals minimized over the polytope exactly on the face;
    that characterization is checked on the vertices, and a failure raises
    RuntimeError naming the face.
    """
    gens = [p.halfspaces[i].normal for i in face.active]
    return _checked_cone(face, gens, _minimizers(p, gens))


def cone_vertex_duality_holds(p: LabeledPolytope, face: Face, cone: Cone) -> bool:
    """Each generator attains its minimum over the vertices on the face.

    Inward normals satisfy <y, beta> >= eta with equality on the facet, so on
    every face vertex each generator must hit the minimum of <y, .> over all
    vertices, and for the face's own normals the minimum is attained only on
    the face's vertices: a vertex off the face must miss the minimum of some
    generator.
    """
    return _attains_minima(face, cone.generators, _minimizers(p, cone.generators))


def _minimizers(p: LabeledPolytope, generators) -> dict:
    """generator -> set of the vertices on which <generator, .> is smallest.

    The pairings <y, D v> are integers, with D the lcm of every vertex
    denominator (:attr:`LabeledPolytope.scaled_vertices`), and they are
    formed once for all generators and vertices.
    """
    _, points = p.scaled_vertices
    table = {}
    for g in generators:
        values = [dot(g, w) for w in points]
        low = min(values)
        table[g] = {vi for vi, x in enumerate(values) if x == low}
    return table


def _attains_minima(face: Face, generators, minimizers) -> bool:
    """The vertices minimizing every generator are exactly the face's vertices."""
    if not generators:
        return True
    return set.intersection(*(minimizers[g] for g in generators)) == set(face.vertices)


def _checked_cone(face: Face, generators, minimizers) -> Cone:
    cone = make_cone(generators)
    if not _attains_minima(face, cone.generators, minimizers):
        raise RuntimeError(
            f"cone of face {list(face.active)} fails the minimization characterization")
    return cone


def build_fan(p: LabeledPolytope) -> Fan:
    """The fan of all face cones (labels and offsets are dropped).

    Each facet's minimizing vertices are found once, and every face's cone
    is checked against them.
    """
    normals = [h.normal for h in p.halfspaces]
    minimizers = _minimizers(p, normals)
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
        "cones": [[list(g) for g in c.generators] for c in f.sorted_cones()],
    }
