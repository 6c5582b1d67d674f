"""The structure group of a face, from one Smith form of the tight normals and
the index certificate: the independent oracle.

For a face with tight facet set S (k facets) the relevant sublattices of Z^n
are

    l      = (rational span of the normals y_i, i in S) intersect Z^n
    l-hat  = integer span of the scaled normals e_i = m_i * y_i, i in S

and the structure group of the face is the finite quotient l / l-hat.

Take the Smith form U * Y * V = D of the k x n matrix Y of tight normals
(verified by :func:`labpoly.lattice.smith_normal_form`), with invariant
factors d_1, ..., d_k.  Then Y * V = U^-1 * [D 0]: the columns of Y * V past
k are zero, so the first k columns C are the coordinates of the y_i in the
basis of l formed by the first k rows of V^-1.  The scaled normals have
coordinates M = diag(m_S) * C, so l / l-hat = Z^k / Z^k M, whose invariant
factors are the entries > 1 of the Smith diagonal of M.

The index certificate: |det C| = |det D_k| / |det U| = d_1 ... d_k, the index
[l : Z Y] of the normals' span in its saturation, so

    |l / l-hat| = |det M| = (m_1 ... m_k) * [l : Z Y].

The product of M's Smith diagonal must equal the labels' product times the
product of Y's invariant factors, or the oracle raises RuntimeError naming the
face.  :func:`labpoly.delzant.face_groups`, which the CLI prints, reads the
group off the labels or off one Smith form of the scaled normals and never
computes that index, so this route stays independent of it; ``stabilizers``
and ``verify`` compare the two on every proper face.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul

from .lattice import (
    TRIVIAL_GROUP,
    FiniteAbelianGroup,
    format_rational,
    smith_normal_form,
)
from .polytope import Face, LabeledPolytope


def structure_group(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """The finite abelian group l / l-hat of a face, in invariant-factor form.

    Trivial for the whole polytope (empty tight set).  Dependent tight
    normals (a zero on their Smith diagonal) raise ValueError; a group order
    that fails the index certificate raises RuntimeError.
    """
    if not face.active:
        return TRIVIAL_GROUP
    tight = [p.halfspaces[i] for i in face.active]
    smith = smith_normal_form(tuple(h.normal for h in tight))
    index = smith.diagonal
    if len(index) != len(tight) or 0 in index:
        raise ValueError("rows are linearly dependent")
    # the first k columns of V; V is n x n and each normal has n entries
    columns = list(islice(zip(*smith.V), len(tight)))
    coords = tuple([tuple([h.label * sum(map(mul, h.normal, col)) for col in columns])
                    for h in tight])
    diag = smith_normal_form(coords).diagonal
    order = math.prod(diag)
    want = math.prod(h.label for h in tight) * math.prod(index)
    if order != want:
        raise RuntimeError(
            f"structure group over face {list(face.active)} has order "
            f"{format_rational(order)}, not the labels' product times the "
            f"saturation index, {format_rational(want)}")
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))
