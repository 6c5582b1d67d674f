"""Local orbifold data attached to the faces of a labeled polytope.

For a face with tight facet set S the relevant sublattices of Z^n are

    l      = (rational span of the normals y_i, i in S) intersect Z^n
    l-hat  = integer span of the scaled normals e_i = m_i * y_i, i in S

and the structure group of the face is the finite quotient l / l-hat.  For a
facet this is cyclic of order equal to the label.  At a vertex the scaled
normals form a rational basis and the slice weights are the dual basis
vectors f_i, characterized by <f_i, e_j> = delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    TRIVIAL_GROUP,
    FiniteAbelianGroup,
    adjugate,
    kernel_basis,
    quotient_group,
    saturate,
    transpose,
    vec_scale,
)
from .polytope import Face, LabeledPolytope, edge_directions


@dataclass(frozen=True)
class IsotropyData:
    """Normals data of the facets through a face.

    ``normals`` are the primitive inward normals y_i, ``scaled`` the label
    multiples e_i = m_i * y_i (both ordered by facet index), and
    ``isotropy_lattice`` is a basis of their saturated span l.
    """

    face: Face
    normals: tuple
    scaled: tuple
    isotropy_lattice: tuple


@dataclass(frozen=True)
class SliceWeights:
    """Dual basis rows f_i at a vertex: <f_i, e_j> = delta_ij."""

    vertex: tuple
    weights: tuple


@dataclass(frozen=True)
class LocalCone:
    """Affine local model of the polytope near a face.

    ``apex`` is a point in the relative interior of the face (the barycenter
    of its vertices), ``span_directions`` a lattice basis of the directions
    along the face, and ``generators`` the primitive edge directions leaving
    the face transversally at its first vertex.
    """

    apex: tuple
    span_directions: tuple
    generators: tuple


def isotropy_data(p: LabeledPolytope, face: Face) -> IsotropyData:
    """Collect normals, scaled normals, and the saturated span for a face."""
    normals = tuple(p.halfspaces[i].normal for i in face.active)
    scaled = tuple(vec_scale(p.halfspaces[i].label, p.halfspaces[i].normal)
                   for i in face.active)
    lattice = saturate(normals) if normals else ()
    return IsotropyData(face=face, normals=normals, scaled=scaled,
                        isotropy_lattice=lattice)


def structure_group(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """The finite abelian group l / l-hat of a face.

    Trivial for the whole polytope (empty tight set).  For a facet with label
    m the result is cyclic of order m; for deeper faces it is computed as a
    lattice quotient in invariant-factor form.
    """
    data = isotropy_data(p, face)
    if not data.normals:
        return TRIVIAL_GROUP
    return quotient_group(data.isotropy_lattice, data.scaled)


def slice_weights(p: LabeledPolytope, face: Face) -> SliceWeights:
    """Dual basis of the scaled normals at a vertex.

    Only defined at vertices, where the scaled normals e_i form a rational
    basis of the ambient space.  Row i of the result is the unique vector
    f_i with <f_i, e_j> = delta_ij; the f_i positively span the local model
    of the polytope at the vertex.
    """
    if face.codim != p.dim:
        raise ValueError("slice weights are defined only at vertices "
                         f"(got a face of codimension {face.codim})")
    scaled = tuple(vec_scale(p.halfspaces[i].label, p.halfspaces[i].normal)
                   for i in face.active)
    d, adj = adjugate(transpose(scaled))
    weights = tuple(tuple(Fraction(x, d) for x in row) for row in adj)
    vertex = p.vertices[face.vertices[0]]
    return SliceWeights(vertex=vertex, weights=weights)


def local_cone(p: LabeledPolytope, face: Face) -> LocalCone:
    """Affine cone approximating the polytope near the face.

    The apex is the barycenter of the face.  ``span_directions`` is a basis
    of the saturated lattice of directions in which the face extends (empty
    at a vertex, everything for the whole polytope).  ``generators`` are the
    primitive directions of the edges leaving the face at its first vertex,
    one for each tight facet; together with the span directions they generate
    the polytope's local model at the face.
    """
    verts = [p.vertices[vi] for vi in face.vertices]
    apex = tuple(sum(v[j] for v in verts) / Fraction(len(verts))
                 for j in range(p.dim))
    normals = tuple(p.halfspaces[i].normal for i in face.active)
    span = kernel_basis(normals, p.dim)
    if face.active:
        v0 = min(face.vertices)
        dirs = dict(edge_directions(p, v0))
        generators = tuple(dirs[j] for j in face.active)
    else:
        generators = ()
    return LocalCone(apex=apex, span_directions=span, generators=generators)
