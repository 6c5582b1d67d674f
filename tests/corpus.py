"""Shared polytope corpus for the test suite.

Builders return validated LabeledPolytope objects.  ``standard_corpus()``
yields a deterministic list of named examples (footballs, simplices, cubes,
a weighted triangle, products, and unimodular/translated/relabeled variants)
that the cross-checking suites iterate over.  ``lattices_equal`` is a
lattice comparison the tests share, ``solve_rational``/``invert_rational``/
``det_rational`` are Fraction Gauss-Jordan references, ``adjugate`` and
``det`` integer Bareiss ones, ``rational_rank`` a Bareiss echelon
(``_echelon``), ``reference_smith_normal_form`` the Smith elimination written
with one helper per row or column operation, which folds a row into the
pivot row until each pivot divides the rest, and ``reference_diagonal_form``
the same elimination stopped at a diagonal, whose (U, D, V) the package's
in-place elimination must reproduce exactly (``diagonal_form`` reads them
off the rows of ``lattice._diagonal_rows`` as a ``DiagonalForm``);
every other reference here takes its Smith forms from
``reference_smith_normal_form``, not from the package's elimination;
``hermite_normal_form`` is the row Hermite form with its transform U and its
U * A = H check, and ``reference_kernel_basis`` the integer kernel route
built on it that :func:`labpoly.lattice.kernel_basis` replaced (the other
oracles here that need a kernel take it, not the package's route),
``unimodular_inverse`` inverts a unimodular matrix by one
Hermite reduction, ``saturate`` and ``quotient_group`` form the structure
group of a face the long way (``reference_structure_group``), as l / l-hat
from a basis of the saturation l, ``two_smith_structure_group`` is the
structure-group oracle as two Smith forms, of the tight normals and of their
scaled coordinates, and ``reference_saturate`` is the
saturation route that inverts the Smith transform with
``unimodular_inverse``, ``contains`` tests a point against every facet
inequality, ``convex_combinations`` draws seeded points of a polytope from
its vertices, ``face_by_active`` looks a face up by its tight set,
``reference_fan`` is the fan with the per-face duality check of each cone,
``polytope_to_json`` writes the file format that ``polytope_from_json``
reads, ``subset_scan`` is the brute-force reference for the vertex walk and
``ray_scan`` its recession ray search over C(N, n - 1) facet subsets, and
``labeled_polygon_products`` is a ``hypothesis`` strategy for generated
labeled polytopes; ``identity``, ``transpose``, ``matrix``, ``mat_mul`` and
``mat_vec`` build the matrices the tests compare with, ``TRIVIAL_GROUP`` is
the trivial group the references return, and ``doctor_elimination`` with
``raise_first_entry`` edits what the elimination leaves before its
U * A * V = D check.
"""

import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple, Optional

from hypothesis import strategies as st

from labpoly import lattice
from labpoly.lattice import (
    FiniteAbelianGroup,
    Mat,
    _describe,
    common_denominator,
    dot,
    echelon,
    format_rational,
    smith_diagonal,
)
from labpoly.polytope import ValidationError, _check_vertices, format_point, validate

TRIVIAL_GROUP = FiniteAbelianGroup(())


class DiagonalForm(namedtuple("DiagonalForm", "U D V")):
    """U * A * V = D with U, V unimodular and D diagonal."""

    __slots__ = ()

    @property
    def diagonal(self) -> tuple:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k))


def diagonal_form(a) -> DiagonalForm:
    """(U, D, V) read off the rows [D | U] above V that
    ``lattice._diagonal_rows`` leaves once it has checked U * A * V = D."""
    a = matrix(a)
    m = len(a)
    n = len(a[0]) if m else 0
    w = lattice._diagonal_rows(a)
    return DiagonalForm(tuple(tuple(row[n:]) for row in w[:m]),
                        tuple(tuple(row[:n]) for row in w[:m]), tuple(map(tuple, w[m:])))


def matrix(rows) -> Mat:
    """Rows of one length, each coerced to ints by ``lattice._ints``: a float,
    a bool or a fractional Fraction raises ValueError, and so do ragged rows."""
    out = tuple(lattice._ints(r) for r in rows)
    if len({len(r) for r in out}) > 1:
        raise ValueError("ragged matrix")
    return out


def mat_vec(a, v):
    return tuple(dot(row, v) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    """The product A * B; raises ValueError unless every row of A has len(B)
    entries and every row of B the same number."""
    try:
        bt = tuple(zip(*b, strict=True))
    except ValueError:
        raise ValueError("length mismatch") from None
    for row in a:
        if len(row) != len(b):
            raise ValueError("length mismatch")
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def doctor_elimination(monkeypatch, change):
    """Make ``change(w, m, n)`` edit the rows [D | U] above V (D and U in the
    first m, for an m x n matrix A) that each elimination with transforms
    leaves, before U * A * V = D is checked; the transform-free elimination
    of ``smith_diagonal`` is left as it is."""
    real = lattice._eliminate

    def patched(w, m, n):
        real(w, m, n)
        if sys._getframe(1).f_code.co_name == "_diagonal_rows":
            change(w, m, n)

    monkeypatch.setattr(lattice, "_eliminate", patched)


def raise_first_entry(block):
    """A ``change`` for :func:`doctor_elimination` that adds 1 to the first
    entry of ``block``, "U", "V" or "D"."""
    def change(w, m, n):
        i, j = {"U": (0, n), "V": (m, 0), "D": (0, 0)}[block]
        w[i][j] += 1
    return change


def lattices_equal(a, b) -> bool:
    """Whether two row bases span the same sublattice (mutual HNF compare)."""
    ha = tuple(r for r in hermite_normal_form(a).H if any(r))
    hb = tuple(r for r in hermite_normal_form(b).H if any(r))
    return ha == hb


def solve_rational(a_rows, b) -> Optional[tuple]:
    """Unique exact solution x of ``A x = b`` over the rationals, if any.

    Returns a tuple of Fractions when the system has exactly one solution,
    and None when it is inconsistent or underdetermined.  A may be any shape.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if len(b) != m:
        raise ValueError("shape mismatch")
    aug = [[Fraction(e) for e in row] + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    pivots = []  # (row, col)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    # inconsistent row: 0 = nonzero
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivots) < n:
        return None  # underdetermined
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return tuple(x)


def invert_rational(rows):
    """Exact inverse of a square matrix with int or Fraction entries."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [[Fraction(e) for e in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def det_rational(rows):
    """Determinant of a square int or Fraction matrix by Fraction elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    work = [[Fraction(e) for e in row] for row in rows]
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            result = -result
        pv = work[c][c]
        result *= pv
        for i in range(c + 1, n):
            f = work[i][c] / pv
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def vec_neg(u):
    return tuple(-x for x in u)


def rational_rank(rows) -> int:
    """Rank over the rationals of a matrix with int or Fraction entries."""
    return len(_echelon(rows))


def _echelon(rows) -> tuple:
    """Pivot columns of a row echelon form of an int or Fraction matrix.

    Fraction-free (Bareiss) elimination: a row with Fraction entries is first
    scaled by the lcm of its denominators, and every later division is exact.
    The pivots are linearly independent columns, as many as the rank.
    """
    work = [common_denominator(r)[1] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        pv = top[c]
        for i in range(r + 1, len(work)):
            row, f = work[i], work[i][c]
            work[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return tuple(pivots)


class HermiteDecomposition(NamedTuple):
    """U * A = H with U unimodular and H in row Hermite normal form."""

    H: Mat
    U: Mat


def hermite_normal_form(a) -> HermiteDecomposition:
    """Row-style Hermite normal form: U * A = H.

    H is in row echelon form with positive pivots, and every entry above a
    pivot is reduced into [0, pivot).  U is unimodular.  The identity
    U * A == H is verified by exact multiplication before returning.
    """
    a = matrix(a)
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(r) for r in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_add(dst, src, q):
        h[dst] = [x + q * y for x, y in zip(h[dst], h[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def row_swap(i, j):
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        h[i] = [-x for x in h[i]]
        u[i] = [-x for x in u[i]]

    r = 0
    for c in range(n):
        if r == m:
            break
        if all(h[i][c] == 0 for i in range(r, m)):
            continue
        while True:
            i0 = min((i for i in range(r, m) if h[i][c] != 0),
                     key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                row_swap(r, i0)
            if h[r][c] < 0:
                row_negate(r)
            p = h[r][c]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // p
                    if q:
                        row_add(i, r, -q)
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                row_add(i, r, -q)
        r += 1

    H = tuple(tuple(row) for row in h)
    U = tuple(tuple(row) for row in u)
    if mat_mul(U, a) != H:
        raise RuntimeError(f"Hermite reduction broke the identity U*A = H on the {_describe(a)}")
    return HermiteDecomposition(H, U)


def reference_kernel_basis(a, ncols):
    """The integer kernel basis as ``kernel_basis`` took it before its
    transform-free echelon: the last columns of the Smith transform V, reduced
    by :func:`hermite_normal_form`."""
    a = matrix(a)
    if not a:
        return identity(ncols)
    s = reference_smith_normal_form(a)
    r = len(s.diagonal) - s.diagonal.count(0)
    gens = [tuple(s.V[i][j] for i in range(ncols)) for j in range(r, ncols)]
    if not gens:
        return ()
    return tuple(row for row in hermite_normal_form(gens).H if any(row))


def unimodular_inverse(m_rows):
    """Exact integer inverse of a unimodular matrix.

    Raises ValueError if the matrix is not square with determinant +-1.
    """
    m_rows = matrix(m_rows)
    n = len(m_rows)
    if any(len(r) != n for r in m_rows):
        raise ValueError("matrix is not square")
    hnf = hermite_normal_form(m_rows)
    if hnf.H != identity(n):
        raise ValueError("matrix is not unimodular")
    return hnf.U


def reference_saturate(b):
    """Saturation of the row lattice of independent rows ``b``, the long way.

    A separate rank check, then the Smith form ``U * b * V = D``; the first
    k rows of ``V^-1`` (inverted by a second Hermite reduction) span the
    saturation, normalized to Hermite form.  :func:`saturate` reads the rank
    and the generators off the same Smith form instead.
    """
    b = matrix(b)
    if not b:
        return ()
    if rational_rank(b) != len(b):
        raise ValueError("rows are linearly dependent")
    gens = unimodular_inverse(reference_smith_normal_form(b).V)[:len(b)]
    return tuple(row for row in hermite_normal_form(gens).H if any(row))


def adjugate(a) -> tuple:
    """``(det(A), adj(A))`` of a nonsingular square integer matrix.

    Fraction-free Gauss-Jordan (Bareiss) on ``[A | I]``: every division is
    exact, and the left block ends as ``det(PA) * I`` for the row permutation
    P, so the right block is ``det(PA) * A^-1``.  ``A * adj(A) == det(A) * I``.
    Raises ValueError if A is singular.
    """
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    m = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                raise ValueError("matrix is singular")
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(n):
            if i != k:
                row, f = m[i], m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, row_k)]
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in m)


def det(a) -> int:
    """Determinant of a square integer matrix: :func:`adjugate`'s, or 0 when
    it is singular.  A non-integer entry raises ValueError."""
    a = matrix(a)
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix is not square")
    try:
        return adjugate(a)[0]
    except ValueError:  # singular
        return 0


def reference_smith_normal_form(a) -> DiagonalForm:
    """Smith normal form of an integer matrix, with transforms.

    The diagonal of D is nonnegative, each entry divides the next, and
    U * A * V == D exactly (verified before returning).  Pivots are chosen
    by smallest nonzero absolute value, ties broken by lowest (row, col),
    which makes the reduction deterministic.
    """
    return _reference_elimination(a, fold=True)


def reference_diagonal_form(a) -> DiagonalForm:
    """:func:`reference_smith_normal_form` without its divisibility fold:
    D is diagonal and nonnegative with its zeros trailing, and its entries
    need not divide each other."""
    return _reference_elimination(a, fold=False)


def _reference_elimination(a, fold) -> DiagonalForm:
    a = matrix(a)
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(r) for r in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(dst, src, q):  # row dst += q * row src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def col_add(dst, src, q):  # col dst += q * col src
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def select_pivot(k):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    if e in (1, -1):  # nothing later can beat it
                        return i, j
                    best = (abs(e), i, j)
        return None if best is None else (best[1], best[2])

    k = 0
    while k < min(m, n):
        pivot = select_pivot(k)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != k:
                row_swap(k, i0)
            if j0 != k:
                col_swap(k, j0)
            if d[k][k] < 0:
                row_negate(k)
            p = d[k][k]
            clear = True
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    q = d[i][k] // p
                    if q:
                        row_add(i, k, -q)
                    if d[i][k] != 0:
                        clear = False
            for j in range(k + 1, n):
                if d[k][j] != 0:
                    q = d[k][j] // p
                    if q:
                        col_add(j, k, -q)
                    if d[k][j] != 0:
                        clear = False
            if clear:
                break
            pivot = select_pivot(k)
        # with ``fold``, the pivot must divide every remaining entry; if not,
        # fold the offending row into row k and reduce again (the pivot
        # strictly shrinks)
        p = d[k][k]
        offender = None
        if fold:
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is None:
            k += 1
        else:
            row_add(k, offender, 1)

    U = tuple(tuple(r) for r in u)
    D = tuple(tuple(r) for r in d)
    V = tuple(tuple(r) for r in v)
    if mat_mul(mat_mul(U, a), V) != D:
        raise RuntimeError(f"reduction broke the identity U*A*V = D on the {_describe(a)}")
    return DiagonalForm(U, D, V)


def saturate(b):
    """Basis of the saturation of the row lattice of ``b``.

    The saturation is (rational span of the rows) intersected with the integer
    lattice.  Rows must be linearly independent over the rationals: the rank
    is read off the Smith diagonal.  From ``U * b * V = D`` follows
    ``U * b = D * V^-1``, so row i of ``U * b`` divided by the invariant factor
    d_i is row i of ``V^-1``.  Those k rows lie in the rational span of ``b``
    (U is nonsingular), and when ``|det V| == 1`` they are rows of a unimodular
    matrix, hence a basis of the saturation.  That determinant and the
    exactness of every division are checked, and a failure raises
    RuntimeError.  The basis returned is Hermite-normalized, hence canonical
    for the lattice.
    """
    b = matrix(b)
    if not b:
        return ()
    k = len(b)
    s = reference_smith_normal_form(b)
    diag = s.diagonal
    if len(diag) != k or 0 in diag:
        raise ValueError("rows are linearly dependent")
    if abs(det(s.V)) != 1:
        raise RuntimeError(f"Smith transform V is not unimodular for the rows {b}")
    gens = []
    for i, (d_i, row) in enumerate(zip(diag, mat_mul(s.U, b))):
        if any(x % d_i for x in row):
            raise RuntimeError(f"row {i} of U*b is not divisible by its invariant factor "
                               f"for the rows {b}")
        gens.append(tuple(x // d_i for x in row))
    return tuple(row for row in hermite_normal_form(gens).H if any(row))


def quotient_group(lattice_rows, sub_rows):
    """The finite quotient L / S of a lattice by a finite-index sublattice.

    ``lattice_rows`` is a basis of L (rows independent); ``sub_rows`` generate
    S, which must lie inside L and have the same rank.  The result is the
    invariant-factor decomposition read off the Smith normal form of the
    coordinate matrix of S in the basis of L.
    """
    L = matrix(lattice_rows)
    S = matrix(sub_rows)
    k = len(L)
    if k == 0 and len(S) == 0:
        return TRIVIAL_GROUP
    if S and L and len(S[0]) != len(L[0]):
        raise ValueError("ambient dimension mismatch")
    cols = _echelon(L)
    if len(cols) != k:
        raise ValueError("lattice basis rows are linearly dependent")
    if len(S) != k:
        raise ValueError(f"rank mismatch: lattice has rank {k}, got {len(S)} generators")
    # x * L = s on k independent columns J reads x * L_J = s_J, so
    # det(L_J) * x = s_J * adj(L_J); the identity on every column is then checked.
    det_j, adj = adjugate(tuple(tuple(row[j] for j in cols) for row in L))
    adj_cols = transpose(adj)
    l_cols = transpose(L)
    coords = []
    for srow in S:
        s_j = tuple(srow[j] for j in cols)
        num = tuple(dot(s_j, col) for col in adj_cols)
        if any(dot(num, col) != det_j * e for col, e in zip(l_cols, srow)):
            raise ValueError("not a sublattice: generator outside the rational span")
        if any(x % det_j != 0 for x in num):
            raise ValueError("not a sublattice: generator has fractional coordinates")
        coords.append(tuple(x // det_j for x in num))
    diag = reference_smith_normal_form(coords).diagonal
    if any(d == 0 for d in diag):
        raise ValueError("rank mismatch: sublattice has lower rank")
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def reference_structure_group(p, face):
    """The structure group of a face as ``quotient_group(saturate(Y_S), scaled)``."""
    normals = tuple(p.halfspaces[i].normal for i in face.active)
    if not normals:
        return TRIVIAL_GROUP
    scaled = tuple(tuple(p.halfspaces[i].label * x for x in p.halfspaces[i].normal)
                   for i in face.active)
    return quotient_group(saturate(normals), scaled)


def per_face_structure_group(p, face):
    """The finite abelian group l / l-hat of a face, in invariant-factor form,
    from a column echelon of all its tight normals: the per-face oracle that
    :func:`labpoly.local_model.structure_groups` replaced.

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


def two_smith_structure_group(p, face):
    """The structure group of a face from two Smith forms, as the package's
    oracle took it before its column echelon.

    ``U * Y * V = D`` of the k x n tight normals Y: the first k columns C of
    Y * V are the normals' coordinates in a basis of the saturation l, and
    the index [l : Z Y] is the product of Y's invariant factors.  The group is
    read off the Smith diagonal of M = diag(m_S) * C, whose product must be
    the labels' product times that index.
    """
    if not face.active:
        return TRIVIAL_GROUP
    tight = [p.halfspaces[i] for i in face.active]
    smith = reference_smith_normal_form(tuple(h.normal for h in tight))
    index = smith.diagonal
    if len(index) != len(tight) or 0 in index:
        raise ValueError("rows are linearly dependent")
    columns = list(zip(*smith.V))[:len(tight)]
    coords = tuple(tuple(h.label * dot(h.normal, col) for col in columns) for h in tight)
    diag = reference_smith_normal_form(coords).diagonal
    if math.prod(diag) != math.prod(h.label for h in tight) * math.prod(index):
        raise RuntimeError(f"index certificate failed over face {list(face.active)}")
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def contains(p, point) -> bool:
    """Whether ``point`` satisfies every facet inequality of ``p``."""
    return all(dot(point, h.normal) >= h.offset for h in p.halfspaces)


def convex_combinations(p, count, seed) -> list:
    """``count`` seeded points of ``p``: vertex combinations with weights 1..9."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        weights = [rng.randint(1, 9) for _ in p.vertices]
        out.append(tuple(sum(w * v[j] for w, v in zip(weights, p.vertices)) / Fraction(sum(weights))
                         for j in range(p.dim)))
    return out


def face_by_active(p, active):
    """The face of ``p`` whose tight set is ``active``, in any order."""
    key = tuple(sorted(active))
    for f in p.faces:
        if f.active == key:
            return f
    raise KeyError(f"no face with active set {key}")


def reference_fan(p) -> frozenset:
    """The fan by the per-face duality check that :func:`labpoly.fan.build_fan`
    replaced: the vertices on which each facet normal is smallest, found once
    from the integer pairings, must be, intersected over a face's normals,
    exactly the face's vertices, or RuntimeError names the face."""
    normals = [h.normal for h in p.halfspaces]
    _, points = p.scaled_vertices
    minimizers = {}
    for y in normals:
        values = [dot(y, w) for w in points]
        low = min(values)
        minimizers[y] = {vi for vi, x in enumerate(values) if x == low}
    cones = []
    for f in p.faces:
        generators = [normals[i] for i in f.active]
        if generators and set.intersection(
                *(minimizers[g] for g in generators)) != set(f.vertices):
            raise RuntimeError(
                f"cone of face {list(f.active)} fails the minimization characterization")
        cones.append(tuple(sorted(generators)))
    return frozenset(cones)


def polytope_to_json(p) -> dict:
    return {
        "dim": p.dim,
        "halfspaces": [
            {"normal": list(h.normal),
             "offset": format_rational(h.offset),
             "label": h.label}
            for h in p.halfspaces
        ],
    }


def ray_scan(normals, dim):
    """Raise "unbounded in direction d" for a nonzero integer d with all <y_i, d> >= 0.

    The recession cone {d : <y_i, d> >= 0} is nontrivial exactly when some
    extreme ray survives, and every extreme ray lies on dim-1 of the
    hyperplanes <y_i, .> = 0, so scanning the C(N, dim-1) subsets, one kernel
    basis each, finds one.  Unlike ``validate``'s phase 1 on the recession
    system, it needs no rank check first.
    """
    for subset in combinations(range(len(normals)), dim - 1):
        kb = reference_kernel_basis(tuple(normals[i] for i in subset), dim)
        if len(kb) != 1:  # the dim-1 rows are dependent
            continue
        d = kb[0]
        for cand in (d, vec_neg(d)):
            if all(dot(y, cand) >= 0 for y in normals):
                raise ValidationError(f"unbounded in direction {format_point(cand)}")


def subset_scan(dim, hs):
    """(vertices, tight sets) of a list of HalfSpace by trying every facet subset.

    Raises ValidationError with the message ``validate`` gives when the input
    is invalid, except that a ray may differ: both are recession rays, but
    :func:`ray_scan` finds its own.  That search comes first; then every
    ``dim``-subset of facets is solved by :func:`adjugate`, with the
    offsets over one common denominator, and its solution kept when it
    satisfies every inequality, with the facets where equality holds as its
    tight set.  None of this is the vertex walk's dictionary or pivots, so the
    two can check each other.
    """
    ray_scan([h.normal for h in hs], dim)
    scale = math.lcm(*(h.offset.denominator for h in hs))
    offsets = [h.offset.numerator * (scale // h.offset.denominator) for h in hs]
    normals = [h.normal for h in hs]
    found = {}
    for subset in combinations(range(len(hs)), dim):
        try:
            d, adj = adjugate(tuple(normals[i] for i in subset))
        except ValueError:  # singular
            continue
        num = mat_vec(adj, tuple(offsets[i] for i in subset))
        if d < 0:
            d, num = -d, [-x for x in num]
        if all(dot(y, num) >= d * eta for y, eta in zip(normals, offsets)):
            v = tuple(Fraction(x, d * scale) for x in num)
            found[v] = tuple(i for i, (y, eta) in enumerate(zip(normals, offsets))
                             if dot(y, num) == d * eta)
    if not found:
        raise ValidationError("not full-dimensional: the polytope is empty")
    vertices = tuple(sorted(found))
    active_sets = tuple(found[v] for v in vertices)
    _check_vertices(dim, len(hs), scaled_table(vertices), active_sets)
    return vertices, active_sets


def scaled_table(vertices):
    """``(D, numerators)``: Fraction vertices as integer numerators over the lcm
    D of their denominators, formed from the Fractions; the walk's
    ``LabeledPolytope.scaled_vertices`` must be this table."""
    scale, flat = common_denominator(x for v in vertices for x in v)
    dim = len(vertices[0])
    return scale, tuple(tuple(flat[k:k + dim]) for k in range(0, len(flat), dim))


def interval(n, m, length=1, left=0):
    """Labeled interval [left, left+length] with labels n (left end), m (right)."""
    return validate(1, [
        ((1,), Fraction(left), n),
        ((-1,), Fraction(-(left + length)), m),
    ])


def standard_simplex(dim, scale=1, labels=None):
    """x_i >= 0, sum x_i <= scale."""
    labels = labels or [1] * (dim + 1)
    hs = []
    for i in range(dim):
        normal = tuple(1 if j == i else 0 for j in range(dim))
        hs.append((normal, Fraction(0), labels[i]))
    hs.append((tuple(-1 for _ in range(dim)), Fraction(-scale), labels[dim]))
    return validate(dim, hs)


def t1(labels=(1, 1, 1)):
    """Unit triangle x >= 0, y >= 0, x + y <= 1."""
    return standard_simplex(2, 1, list(labels))


def w2():
    """Triangle with normals (1,0), (0,1), (-1,-2): one order-2 vertex."""
    return validate(2, [
        ((1, 0), Fraction(0), 1),
        ((0, 1), Fraction(0), 1),
        ((-1, -2), Fraction(-2), 1),
    ])


def box(dims, labels=None):
    """Axis-aligned box [0, d_1] x ... x [0, d_n]."""
    n = len(dims)
    labels = labels or [1] * (2 * n)
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        hs.append((e, Fraction(0), labels[2 * i]))
        hs.append((tuple(-x for x in e), Fraction(-dims[i]), labels[2 * i + 1]))
    return validate(n, hs)


def polygon(k, labels=None):
    """Lattice k-gon with vertices (i, i^2), i < k: k - 1 edges on the
    parabola and one closing edge back to the origin."""
    labels = labels or [1] * k
    hs = [((-(2 * i + 1), 1), Fraction(-i * (i + 1)), labels[i]) for i in range(k - 1)]
    hs.append(((k - 1, -1), Fraction(0), labels[k - 1]))
    return validate(2, hs)


def pyramid(k):
    """Halfspace triples of the height-1 pyramid over ``polygon(k)``, k >= 4.

    The apex (1, 2, 1) lies over an interior lattice point of the base and on
    all k side facets, so ``validate`` rejects the input as not simple there.
    """
    hs = [((0, 0, 1), Fraction(0), 1)]
    for h in polygon(k).halfspaces:
        side = h.offset - dot(h.normal, (1, 2))  # the side facet passes through the apex
        hs.append((h.normal + (int(side),), h.offset, 1))
    return hs


def square(side=1, labels=None):
    return box([side, side], labels)


def cube(side=1, labels=None):
    return box([side, side, side], labels)


def product(p, q):
    """Cartesian product of two labeled polytopes."""
    n, m = p.dim, q.dim
    hs = []
    for h in p.halfspaces:
        hs.append((h.normal + (0,) * m, h.offset, h.label))
    for h in q.halfspaces:
        hs.append(((0,) * n + h.normal, h.offset, h.label))
    return validate(n + m, hs)


def random_unimodular(rng, n, steps=6):
    """Product of random elementary integer row operations."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif op == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif op == 2:
            a[i] = [-x for x in a[i]]
    return tuple(tuple(r) for r in a)


def transformed(p, unimod, translation=None, scale=1, labels=None):
    """Image of p under beta -> scale * (A beta + t) with A unimodular.

    The halfspace <beta, y> >= eta maps to normal (A^{-T}) y with offset
    scale * (eta + <t', y>) suitably adjusted; worked out below so the image
    is again a valid labeled polytope with primitive normals.
    """
    n = p.dim
    ainv = unimodular_inverse(unimod)
    translation = translation or tuple(Fraction(0) for _ in range(n))
    hs = []
    for i, h in enumerate(p.halfspaces):
        # beta' = scale*(A beta + t)  <=>  beta = A^{-1}(beta'/scale - t)
        # <beta, y> >= eta  <=>  <beta', A^{-T} y> >= scale*(eta + <t, A^{-T} y>)
        new_normal = mat_vec(transpose(ainv), h.normal)
        new_offset = Fraction(scale) * (h.offset + dot(translation, new_normal))
        lab = h.label if labels is None else labels[i]
        hs.append((new_normal, new_offset, lab))
    return validate(n, hs)


def random_variant(p, seed):
    """Deterministic unimodular + translate + dilate + relabel variant of p."""
    rng = random.Random(seed)
    u = random_unimodular(rng, p.dim)
    t = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p.dim))
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    labels = [rng.randint(1, 4) for _ in p.halfspaces]
    return transformed(p, u, t, scale, labels)


def standard_corpus():
    """Deterministic list of (name, polytope) pairs, at least 50 entries."""
    out = []
    for n in range(1, 7):
        for m in range(1, 7):
            out.append((f"interval_{n}_{m}", interval(n, m)))
    out.append(("t1", t1()))
    out.append(("t1_label2", t1((1, 1, 2))))
    out.append(("t1_scaled", standard_simplex(2, 3, [2, 3, 4])))
    out.append(("w2", w2()))
    out.append(("square", square()))
    out.append(("square_labeled", square(2, [1, 2, 3, 4])))
    out.append(("cube", cube()))
    out.append(("simplex3", standard_simplex(3)))
    out.append(("simplex3_labeled", standard_simplex(3, 2, [1, 2, 2, 4])))
    out.append(("prism", product(t1(), interval(1, 1))))
    out.append(("prism_labeled", product(t1((2, 1, 3)), interval(2, 2))))
    base_names = ["t1", "w2", "square", "cube", "simplex3", "prism"]
    bases = dict(out)
    for k, name in enumerate(base_names):
        for s in range(2):
            seed = 100 + 10 * k + s
            out.append((f"{name}_variant{s}", random_variant(bases[name], seed)))
    return out


def generated_family():
    """Larger generated (name, polytope) pairs: k-gons, simplices, prisms,
    polygon products, a box, and a unimodular variant of each."""
    out = [(f"polygon{k}", polygon(k)) for k in range(3, 13)]
    out += [(f"simplex{n}", standard_simplex(n, 2)) for n in range(1, 6)]
    out += [(f"prism{k}", product(polygon(k), interval(1, 2))) for k in (4, 7)]
    out += [("polygon4xpolygon5", product(polygon(4), polygon(5))),
            ("polygon6xpolygon6", product(polygon(6), polygon(6))),
            ("box4", box([1, 2, 1, 3]))]
    out += [(f"{name}_variant", random_variant(p, 7 + i))
            for i, (name, p) in enumerate(list(out))]
    return out


# pairwise coprime, three of them past 2^30, so that the index certificate
# and the invariant factors run on large products
COPRIME_LABELS = (1, 2, 3, 5, 2 ** 31 - 1, 10 ** 9 + 7, 2 ** 61 - 1)


@st.composite
def labeled_polygon_products(draw):
    """A lattice polygon or a product of two, moved by a unimodular map drawn
    as integer row additions, with labels from ``COPRIME_LABELS``."""
    ks = draw(st.lists(st.integers(3, 6), min_size=1, max_size=2))
    p = polygon(ks[0]) if len(ks) == 1 else product(polygon(ks[0]), polygon(ks[1]))
    return _moved_and_labeled(draw, p, st.sampled_from(COPRIME_LABELS))


@st.composite
def labeled_simplex_products(draw):
    """A simplex of dimension 3 to 6, or a product of two simplices of total
    dimension 3 to 6 (the shapes of the benchmark's deep workload), moved by a
    unimodular map drawn as integer row additions, with labels 1 to 12."""
    dim = draw(st.integers(3, 6))
    first = draw(st.integers(1, dim))
    p = standard_simplex(first, draw(st.integers(1, 3)))
    if first < dim:
        p = product(p, standard_simplex(dim - first, draw(st.integers(1, 3))))
    return _moved_and_labeled(draw, p, st.integers(1, 12))


def _moved_and_labeled(draw, p, labels):
    """p moved by up to six drawn row additions, each facet given a drawn label."""
    n = p.dim
    a = [list(row) for row in identity(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from((-2, -1, 1, 2))), max_size=6)):
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    labels = draw(st.lists(labels, min_size=len(p.halfspaces), max_size=len(p.halfspaces)))
    return transformed(p, a, labels=labels)
