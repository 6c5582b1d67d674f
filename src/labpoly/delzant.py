"""Reduction presentation of a labeled polytope.

The construction packages the combinatorics of Delzant's quotient recipe in
exact arithmetic.  With facets 1..N in R^n, the projection matrix has columns
e_i = m_i * y_i (label times primitive inward normal).  Its integer kernel
cuts out the subtorus one reduces by; the reduction happens at the level

    kappa = j*(s(beta_0))

where s(beta)_i = <beta, e_i> - c_i are the facet slacks (c_i = m_i * eta_i)
and j* pairs a vector with the kernel basis rows.  The kernel basis is the
Hermite basis of :func:`labpoly.lattice.kernel_basis`, and every build
certifies that it spans the whole saturated kernel by the kernel index
identity (:func:`build_construction`).  The identity also requires N - n
kernel rows, so their number is the dimension of the reduced torus.  The
level does not depend on the chosen interior point beta_0, because the
kernel rows annihilate the projection (certified exactly on every build);
the slacks embed the polytope as the nonnegativity locus, and each vertex
hits zero slack exactly on its tight facets.

The slacks are affine in beta, so the identities that hold at every vertex
hold at every convex combination of the vertices, that is on all of P:
:func:`verify_reduction_invariants` checks them at the vertices only, in
integers.  With the offsets over their common denominator q (c_i = C_i / q)
and the vertices over theirs (v = V / D), s_i(v) = S_i / (D * q) with
S_i = q <V, e_i> - D * C_i; a kernel row h pairs with S as
q <A h, V> - D <h, C>, which is compared with the level by cross-multiplication.

Two finite groups live here: the component group of the kernel subgroup
(from the diagonal form of the projection that gives the kernel; the kernel
index identity certifies its order, not its split), and the
stabilizer of a face, computed once per polytope (:func:`face_groups`) and
printed by every command as a structure group: the labels' sum on a facet
or on a face through a vertex of basis determinant 1 (read off the walk,
certified by Y * E = I), one merge step ``lattice._merge_step`` from its
prefix face's, elsewhere the diagonal of one elimination of the face's rows
of ``p.scaled_normals``, merged by
:meth:`labpoly.lattice.FiniteAbelianGroup.from_orders`.
:func:`labpoly.local_model.structure_groups` is a route to the same groups
that shares with :func:`face_groups` only that merge step and the elimination
loop of :mod:`labpoly.lattice` (guarded here by the U * A * V = D check of
``lattice._diagonal_rows``, there by the index certificate), and the two are
cross-checked in the tests and by the ``stabilizers`` and ``verify`` commands.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .lattice import (
    FiniteAbelianGroup,
    _diagonal_rows,
    _merge_step,
    common_denominator,
    dot,
    format_rational,
    kernel_basis,
    smith_diagonal,
)
from .polytope import Face, LabeledPolytope


class DelzantData(namedtuple(
        "DelzantData", "projection scaled_offsets kernel_rows level component_group")):
    """Exact data of the reduction presentation.

    ``projection`` is the n x N matrix with columns m_i * y_i,
    ``scaled_offsets`` the vector c with c_i = m_i * eta_i, ``kernel_rows``
    a Hermite-normalized basis of the integer kernel of the projection (one
    row per reduced circle factor, N - n in all), ``level`` the value of j*
    shared by every point of the polytope, and ``component_group`` the
    cokernel of the projection, the component group of the reduced subgroup.
    """

    __slots__ = ()


def build_construction(p: LabeledPolytope) -> DelzantData:
    """Assemble projection, kernel, level and component group.

    One diagonal form U * A * V = D of the projection A, the rows of
    ``lattice._diagonal_rows``, gives the component group, read off the
    diagonal in the first n rows, and the kernel, read off V's rows at rank
    n (:func:`labpoly.lattice.kernel_basis`); a failed U * A * V = D check,
    or a merge that loses the product, is raised again naming the
    projection, and a zero on its diagonal raises.  The level is the closed
    form -B c (B the kernel basis): j*(s(beta)) = B (A^T beta - c) = -B c for
    every beta exactly when B annihilates A, which is certified by exact
    multiplication; a failing kernel row raises, naming the row.  The level
    is formed in integers over the offsets' common denominator.

    That B spans all of the saturated kernel is certified by the kernel index
    identity: B has N - n rows with distinct pivot columns P (the first
    nonzero entry of each row), and |prod of B's pivots| * g(A) =
    |det A[:, not P]|, with g(A) the product of D's diagonal.  By
    Pluecker duality the left side is t times the right when B spans a
    sublattice of index t in the kernel, so the identity holds exactly when
    t = 1; it also fails when the diagonal's product is not g(A), the
    order of the component group.  A failure raises naming both sides.
    """
    projection = tuple(zip(*p.scaled_normals))
    offsets = tuple(Fraction(h.label) * h.offset for h in p.halfspaces)
    n = len(projection)
    try:
        w = _diagonal_rows(projection)
    except RuntimeError as exc:
        raise RuntimeError(f"projection: {exc}") from exc
    diagonal = [w[i][i] for i in range(n)]
    if 0 in diagonal:
        raise RuntimeError(f"projection is not surjective over the rationals: its "
                           f"diagonal is zero at position {diagonal.index(0)}")
    kernel = kernel_basis(w[n:], n)
    for k, row in enumerate(kernel):
        if any(dot(r, row) for r in projection):
            raise RuntimeError(f"projection does not annihilate kernel row {k}")
    _certify_kernel_index(projection, kernel, diagonal)
    try:
        component_group = FiniteAbelianGroup.from_orders(diagonal)
    except RuntimeError as exc:
        raise RuntimeError(f"projection: {exc}") from exc
    q, numerators = common_denominator(offsets)
    return DelzantData(projection=projection, scaled_offsets=offsets, kernel_rows=kernel,
                       level=tuple(Fraction(-dot(row, numerators), q) for row in kernel),
                       component_group=component_group)


def _certify_kernel_index(projection, kernel, diagonal) -> None:
    """The kernel index identity of :func:`build_construction`; raises
    RuntimeError naming both sides unless it holds, and raises the merge's
    RuntimeError again naming the projection."""
    n, facets = len(projection), len(projection[0])
    cols = [next((j for j, x in enumerate(row) if x), facets) for row in kernel]
    free = sorted(set(range(facets)).difference(cols))
    if len(kernel) != facets - n or len(free) != n:
        raise RuntimeError(f"kernel rows: {len(kernel)}, distinct pivot columns: "
                           f"{facets - len(free)}; both must be N - n = {facets - n}")
    pivots = abs(math.prod(row[j] for row, j in zip(kernel, cols))) * math.prod(diagonal)
    try:
        minor = math.prod(smith_diagonal([[row[j] for j in free] for row in projection]))
    except RuntimeError as exc:
        raise RuntimeError(f"projection: {exc}") from exc
    if pivots != minor:
        raise RuntimeError(
            f"kernel index identity fails: the kernel pivots' product times the "
            f"projection's Smith diagonal product is {format_rational(pivots)}, not "
            f"|det| of the projection off the pivot columns, {format_rational(minor)}")


def face_groups(p: LabeledPolytope) -> tuple:
    """``(face, stabilizer)`` for every proper face, in face order.

    A facet, or a face through a vertex whose basis determinant is 1
    (``p.determinants``), has normals y_i that extend to a basis of Z^n, so
    its group is the sum of the Z/m_i: one ``lattice._merge_step`` of its
    last label into the factors of its prefix face (its tight set without
    the last facet), which holds every vertex of the face, so it is the
    improper face or takes the labels' sum too.  A step that loses the
    product, or a prefix face missing before its face, raises naming the
    face.  The walk does not pin d, so each such vertex is certified by
    Y * E = I, its tight normals as rows and the walk's edges as columns (E
    is then an integer inverse of Y); a failure raises naming the vertex.
    Any other face takes one diagonal form (:func:`face_stabilizer`), which
    raises if its scaled normals are dependent: a return means a regular
    level.
    """
    normals = [h.normal for h in p.halfspaces]
    labels = [h.label for h in p.halfspaces]
    unimodular = {vi for vi, d in enumerate(p.determinants) if d == 1}
    for vi in sorted(unimodular):
        edges = p.edges[vi]
        if any(sum(map(mul, normals[i], e)) != (i == j) for i, _ in edges for j, e in edges):
            raise RuntimeError(f"Y * E != I at vertex {p.format_vertex(vi)}, "
                               f"of basis determinant 1")
    # the factors of the label-route faces of this codimension and the one before
    level, codim, groups, out = {(): ()}, 0, {}, []
    for f in p.proper_faces():
        if f.codim > codim:
            codim, parents, level = f.codim, level, {}
        if codim > 1 and unimodular.isdisjoint(f.vertices):
            out.append((f, face_stabilizer(p, f)))
            continue
        try:
            factors = level[f.active] = _merge_step(parents[f.active[:-1]], labels[f.active[-1]])
        except KeyError:  # a face list out of order
            raise RuntimeError(f"face {list(f.active)}: its prefix face {list(f.active[:-1])} "
                               f"is missing or out of order") from None
        except RuntimeError as exc:
            raise RuntimeError(f"face {list(f.active)}: {exc}") from exc
        if factors not in groups:
            groups[factors] = FiniteAbelianGroup(factors)
        out.append((f, groups[factors]))
    return tuple(out)


def face_stabilizer(p: LabeledPolytope, face: Face) -> FiniteAbelianGroup:
    """Stabilizer group of the points above a proper face.

    The quotient of the preimage of the integer lattice by the coordinate
    lattice of the face's tight facets: the sum of the Z/d over the diagonal
    of their rows m_i * y_i of ``p.scaled_normals``, read off the rows of
    ``lattice._diagonal_rows`` (checked by U * A * V = D) and merged by
    :meth:`FiniteAbelianGroup.from_orders`.  This route never looks at the
    saturated normal span, so it is independent of
    :func:`labpoly.local_model.structure_groups` up to that merge and the
    elimination loop both run.  A failed U * A * V = D check, or a merge
    that loses the product, is raised again naming the face.
    """
    if not face.active:
        raise ValueError("the improper face has no stabilizer attached")
    rows = p.scaled_normals
    k = len(face.active)
    try:
        w = _diagonal_rows([rows[i] for i in face.active])
        diag = [w[i][i] for i in range(min(k, p.dim))]
        if 0 not in diag and len(diag) == k:
            return FiniteAbelianGroup.from_orders(diag)
    except RuntimeError as exc:
        raise RuntimeError(f"face {list(face.active)}: {exc}") from exc
    raise RuntimeError(f"dependent facet normals over face {list(face.active)}")


def verify_reduction_invariants(d: DelzantData, p: LabeledPolytope) -> str | None:
    """Check the defining identities of the construction at every vertex.

    At each vertex the slacks are nonnegative, vanish exactly on its tight
    facets (those of its edges), and pair with each kernel row to the level,
    all in integers (see the module docstring).  Returns a message naming the
    first failing vertex in vertex order, or None when every check passes.
    A h and <h, C> are formed once per kernel row h, over the entries of h
    that meet a slack.
    """
    q, offsets = common_denominator(d.scaled_offsets)
    columns = tuple(zip(*d.projection))
    level = [(a.numerator, a.denominator) for a in map(Fraction, d.level)]
    width = min(len(columns), len(offsets))  # the number of slacks
    pairings = [([sum(map(mul, r, row[:width])) for r in d.projection],
                 sum(map(mul, row[:width], offsets)), a, b)
                for row, (a, b) in zip(d.kernel_rows, level)]
    den, numerators = p.scaled_vertices
    for vi, edges in enumerate(p.edges):
        tight = tuple(j for j, _ in edges)
        s = [q * sum(map(mul, numerators[vi], e)) - den * c for e, c in zip(columns, offsets)]
        negative = [i for i, si in enumerate(s) if si < 0]
        zero_set = tuple(i for i, si in enumerate(s) if si == 0)
        if negative:
            failure = f"has negative slack on facet {negative[0]}"
        elif zero_set != tight:
            failure = f"has zero slacks {list(zero_set)}, tight facets {list(tight)}"
        elif not (len(level) == len(d.kernel_rows)
                  and all((q * sum(map(mul, numerators[vi], ah)) - den * hc) * b == a * den * q
                          for ah, hc, a, b in pairings)):
            failure = "does not pair to the level"
        else:
            continue
        return f"vertex {p.format_vertex(vi)} {failure}"
    return None
