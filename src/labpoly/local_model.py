"""The structure group of a face, from a column echelon of the tight normals,
one transform-free Smith diagonal and the index certificate: the independent
oracle.

For a face with tight facet set S (k facets) the relevant sublattices of Z^n
are

    l      = (rational span of the normals y_i, i in S) intersect Z^n
    l-hat  = integer span of the scaled normals e_i = m_i * y_i, i in S

and the structure group of the face is the finite quotient l / l-hat.

Column operations of determinant +-1 (a swap of two columns, or a multiple of
one column subtracted from another) reduce the k x n matrix Y of tight
normals to [L | 0] with L lower triangular: the rows of
:func:`labpoly.lattice.echelon` of Y's columns are the columns of L.  So
Y = L * R, where R is the first k rows of the inverse of the accumulated
column transform: R is a basis of the saturation l, and row i of L holds the
coordinates of y_i in that basis.  The scaled normals have coordinates
M = diag(m_S) * L, so l / l-hat = Z^k / Z^k M, whose invariant factors are the
entries > 1 of the Smith diagonal of M.  L is triangular, so the index of the
normals' span in its saturation is [l : Z Y] = |L_11 ... L_kk|, and

    |l / l-hat| = |det M| = (m_1 ... m_k) * [l : Z Y].

The Smith diagonal of M comes from :func:`labpoly.lattice.smith_diagonal`,
with no U * M * V = D identity, merged by :func:`labpoly.lattice._merge`.
What each runtime check catches:

- fewer than k echelon rows mean the normals are dependent: ValueError;
- Y = L * R is re-read by forward substitution, each division exact, so an
  echelon whose L is not a left factor of Y with integral R raises
  RuntimeError naming the face (:func:`_first_fractional_row`);
- the index certificate: the product of M's Smith diagonal must equal the
  labels' product times |L_11 ... L_kk|, or RuntimeError names the face.  It
  catches a wrong step of the elimination that changes the diagonal's
  product, and an M formed from anything but the checked L;
- the merge keeps the diagonal's product or raises RuntimeError, raised again
  naming the face.

That R is a basis of l, and not of a sublattice of it, rests on every column
step having determinant +-1, which holds by construction.
:func:`labpoly.delzant.face_groups`, which the CLI prints, reads the group off
the labels or off one checked diagonal form of the scaled normals and never
computes L or the index.  The two routes share the merge and the elimination
loop :func:`labpoly.lattice._eliminate`: ``face_stabilizer`` runs it through
``lattice._diagonal_rows``, whose exact U * A * V = D check guards it there,
and this oracle through ``smith_diagonal``, guarded here by the index
certificate.
``stabilizers`` and ``verify`` compare them on every proper face and exit 3
on a mismatch, which catches a diagonal of the right order but the wrong
split (diag(1, 4) for diag(2, 2)); where the printed group comes from the
labels, the comparison checks the oracle's diagonal against them.  A merge
of the wrong split but the right product passes both routes alike: only the
tests catch it, against a Smith elimination with a divisibility fold.
"""

from __future__ import annotations

import math

from .lattice import (
    TRIVIAL_GROUP,
    FiniteAbelianGroup,
    echelon,
    format_rational,
    smith_diagonal,
)
from .polytope import Face, LabeledPolytope


def structure_group(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """The finite abelian group l / l-hat of a face, in invariant-factor form.

    Trivial for the whole polytope (empty tight set).  Dependent tight
    normals (fewer than k echelon rows) raise ValueError; an echelon that
    fails Y = L * R, a merge that loses the diagonal's product, or a group
    order that fails the index certificate, raises RuntimeError naming the
    face.
    """
    if not face.active:
        return TRIVIAL_GROUP
    tight = [p.halfspaces[i] for i in face.active]
    normals = [h.normal for h in tight]
    # Y * T = [L | 0] is the echelon of Y's columns: its rows are L's columns
    columns = echelon(zip(*normals))
    if len(columns) < len(normals):
        raise ValueError("rows are linearly dependent")
    lower = tuple(zip(*columns))
    row = _first_fractional_row(normals, lower)
    if row is not None:
        raise RuntimeError(
            f"column echelon over face {list(face.active)} broke the identity "
            f"Y = L*R: row {row} of R is not integral")
    try:
        diag = smith_diagonal([[h.label * x for x in r] for h, r in zip(tight, lower)])
    except RuntimeError as exc:
        raise RuntimeError(f"face {list(face.active)}: {exc}") from exc
    order = math.prod(diag)
    want = (math.prod(h.label for h in tight)
            * math.prod(abs(r[i]) for i, r in enumerate(lower)))
    if order != want:
        raise RuntimeError(
            f"structure group over face {list(face.active)} has order "
            f"{format_rational(order)}, not the labels' product times the "
            f"saturation index, {format_rational(want)}")
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def _first_fractional_row(rows, lower):
    """The first row of R with Y = L * R that is not integral, or None.

    R is found by forward substitution on the lower triangular L; a row is
    integral when its division by L's diagonal entry is exact.
    """
    solved = []
    for i, (y, l) in enumerate(zip(rows, lower)):
        acc = y
        for c, r in zip(l, solved):  # the i entries left of the diagonal
            if c:
                acc = [a - c * b for a, b in zip(acc, r)]
        d = l[i]
        if d == -1:
            acc = [-a for a in acc]
        elif d != 1:
            if not d or any(a % d for a in acc):
                return i
            acc = [a // d for a in acc]
        solved.append(acc)
    return None
