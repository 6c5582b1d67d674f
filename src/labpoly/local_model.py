"""The structure group of a face, by saturation: the independent oracle.

For a face with tight facet set S the relevant sublattices of Z^n are

    l      = (rational span of the normals y_i, i in S) intersect Z^n
    l-hat  = integer span of the scaled normals e_i = m_i * y_i, i in S

and the structure group of the face is the finite quotient l / l-hat.  For a
facet this is cyclic of order equal to the label.  :func:`structure_group`
forms l and the quotient directly; the groups the CLI prints come from
:func:`labpoly.delzant.face_groups` by another route, and ``stabilizers`` and
``verify`` compare the two on every proper face.
"""

from __future__ import annotations

from .lattice import (
    TRIVIAL_GROUP,
    FiniteAbelianGroup,
    quotient_group,
    saturate,
    vec_scale,
)
from .polytope import Face, LabeledPolytope


def structure_group(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """The finite abelian group l / l-hat of a face.

    Trivial for the whole polytope (empty tight set).  For a facet with label
    m the result is cyclic of order m; for deeper faces it is computed as a
    lattice quotient in invariant-factor form.
    """
    normals = tuple(p.halfspaces[i].normal for i in face.active)
    if not normals:
        return TRIVIAL_GROUP
    scaled = tuple(vec_scale(p.halfspaces[i].label, p.halfspaces[i].normal)
                   for i in face.active)
    return quotient_group(saturate(normals), scaled)
