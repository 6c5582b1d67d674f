"""The structure group of every face, l / l-hat, from a column echelon of
the tight normals that each face extends from its parent's by one row, and
on a face of index above 1 a transform-free Smith diagonal and the index
certificate: the independent oracle.  For a face with tight facet set S
(k facets), l is the rational span of the normals y_i (i in S) intersected
with Z^n, and l-hat the integer span of the scaled normals m_i * y_i.

Column operations of determinant +-1 reduce the k x n matrix Y of tight
normals row by row to Y * T = [L | 0], L lower triangular: at row r the
columns of T not yet pivoted and nonzero in row r of Y * T go through
:func:`labpoly.lattice._euclid`, the step of :func:`labpoly.lattice.echelon`,
and the one it leaves is the pivot.  So Y = L * R, R the first k rows of
T's inverse: a basis of l, in which row i of L holds y_i.  With
M = diag(m_S) * L, l / l-hat = Z^k / Z^k M, of order |det M| =
(m_1 ... m_k) * |L_11 ... L_kk|, the labels' product times the index
[l : Z Y].  At index 1, L is unimodular, x -> x * L^-1 maps Z^k M onto
Z^k diag(m_S), and the group is the labels' merge; above 1 it is read off
the Smith diagonal of M (:func:`labpoly.lattice.smith_diagonal`, merged by
``lattice._merge``).  The step at row r reads only row r, so S's echelon
extends that of S minus its last facet, a face one codimension earlier:
:func:`structure_groups` keeps T, the rows of R and M, the index and the
invariant factors for the faces of one codimension and extends each face's
parent by one step.  The index only grows from parent to child, so a face
of index 1 has a parent of index 1, and its factors are the parent's with
its last label merged in by one ``lattice._merge_step``.
Its checks, each raising on the first face in face order that fails:

- a row with no live column means dependent normals: ValueError;
- each new row of R comes by forward substitution, every division exact, or
  RuntimeError names the face (a step of determinant other than +-1);
- at index above 1, the index certificate: the product of M's Smith
  diagonal must be the labels' product times the index, or RuntimeError
  names the face (a wrong elimination step, or an M not built from the
  checked L); at index 1 there is no diagonal to certify;
- each merge step keeps its product, or its RuntimeError is raised again
  naming the face.

That R is a basis of l, not of a sublattice, rests on every step having
determinant +-1, by construction.  :func:`labpoly.delzant.face_groups`, the
printed route, reads the groups off the labels where the vertex walk finds
determinant 1 and Y * E = I, or one checked diagonal form of the scaled
normals, never L or the index; the routes share only the merge step and
the elimination loop ``lattice._eliminate``, guarded there by U * A * V = D and
here by the index certificate.  ``stabilizers`` and ``verify`` compare them
on every proper face and exit 3 on a mismatch, which catches a diagonal of
the right order but the wrong split (Z/8 for Z/2 x Z/4) and an index misread
as 1.  A merge of the wrong split but the right product passes both routes
alike: only the tests catch it.
"""

from __future__ import annotations

import math
from operator import mul

from .lattice import FiniteAbelianGroup, _euclid, _merge_step, format_rational, smith_diagonal
from .polytope import Face, LabeledPolytope


def structure_groups(p: LabeledPolytope) -> tuple:
    """``(face, l / l-hat)`` for every proper face, in face order, each group
    in invariant-factor form; equal groups are one object.  A face list out
    of order raises RuntimeError naming a face and its prefix."""
    level, codim, prefix, groups, out = {(): _start(p.dim)}, 0, None, {}, []
    for f in p.proper_faces():
        if f.codim > codim:  # the faces of one codimension are done
            codim, parents, level = f.codim, level, {}
        if f.active[:-1] != prefix:  # and so are the children of the last prefix
            prefix = f.active[:-1]
            if prefix not in parents:  # absent, or its children are not contiguous
                raise RuntimeError(f"face {list(f.active)}: its prefix face {list(prefix)} "
                                   f"is missing or out of order")
            state = parents.pop(prefix)
        level[f.active] = child = _extend(p, f.active, state)
        factors = child[1]
        if factors not in groups:
            groups[factors] = FiniteAbelianGroup(factors)
        out.append((f, groups[factors]))
    return tuple(out)


def structure_group(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """The group of one face, by the steps of :func:`structure_groups` along
    the prefixes of its tight set; trivial for the whole polytope."""
    state = _start(p.dim)
    for k in range(1, face.codim + 1):
        state = _extend(p, face.active[:k], state)
    return FiniteAbelianGroup(state[1])


def _start(n) -> tuple:
    """The state of the empty tight set: index 1, no invariant factors, T = I, no rows."""
    return 1, (), tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def _extend(p, active, state) -> tuple:
    """The state of tight set ``active`` from that of ``active[:-1]``, its
    group's invariant factors second: at index 1 the parent's (index 1 too,
    as the index only grows) merged with the new label, else the Smith
    diagonal of M, certified by the index."""
    # T's columns, its k pivot columns first; row i holds R's row i, then M's to its diagonal
    index, factors, columns, *rows = state
    k, n = len(rows), len(columns)
    h = p.halfspaces[active[-1]]
    y = h.normal
    live, zero = [], []  # working columns t, as [<y, t>, *t] where <y, t> != 0
    for t in columns[k:]:
        e = sum(map(mul, y, t))
        if e:
            live.append([e, *t])
        else:
            zero.append(t)
    if not live:
        raise ValueError("rows are linearly dependent")
    pivot, zeroed = _euclid(live, 0)
    row = [sum(map(mul, y, t)) for t in columns[:k]]  # L's new row, left of the diagonal
    d = pivot[0]
    acc = y  # R's new row: y minus the rows above, over d
    for c, r in zip(row, rows):
        if c:
            acc = [a - c * b for a, b in zip(acc, r)]  # zip stops at R's row
    if d == -1:
        acc = [-a for a in acc]
    elif d != 1:
        if not d or any(a % d for a in acc):
            raise RuntimeError(
                f"column echelon over face {list(active)} broke the identity "
                f"Y = L*R: row {k} of R is not integral")
        acc = [a // d for a in acc]
    m = h.label
    rows.append((*acc, *[m * x for x in row], m * d))
    columns = (*columns[:k], tuple(pivot[1:]), *zero, *[tuple(c[1:]) for c in zeroed])
    index *= abs(d)
    try:
        if index == 1:  # L unimodular: x -> x * L^-1 maps Z^k M onto Z^k diag(m)
            return (index, _merge_step(factors, m), columns, *rows)
        diag = smith_diagonal([r[n:] + (0,) * (k - i) for i, r in enumerate(rows)])
    except RuntimeError as exc:
        raise RuntimeError(f"face {list(active)}: {exc}") from exc
    order, want = math.prod(diag), index * math.prod(p.halfspaces[i].label for i in active)
    if order != want:
        raise RuntimeError(
            f"structure group over face {list(active)} has order "
            f"{format_rational(order)}, not the labels' product times the "
            f"saturation index, {format_rational(want)}")
    return (index, tuple([x for x in diag if x > 1]), columns, *rows)
