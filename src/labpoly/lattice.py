"""Exact linear algebra over the integers and rationals.

Everything in this module works with arbitrary-precision Python ``int`` and
``fractions.Fraction``; floating point is never used.  Matrices are immutable
tuples of row tuples, vectors are plain tuples.  All functions are pure.

Callers scale rational data to integers over a common denominator first
(:func:`common_denominator`).  No rank test, square solve or inverse is
formed here: the vertex walk in :mod:`labpoly.polytope` keeps one integer
simplex dictionary per basis and moves it by fraction-free pivots, and its
first n pivots decide whether the normals have full rank.

The Smith normal form returns the unimodular transforms alongside the
reduced matrix and re-verifies the defining identity by exact multiplication
before returning, so a silent arithmetic bug cannot leak a wrong
decomposition downstream.  That check runs on every call of
:func:`smith_normal_form`.  The Smith
elimination (:func:`_eliminate`) works in place on one list of rows, [D | U]
above V, so that on the small matrices the callers pass (at most 6 x 6 in
practice) the check's two products cost about as much as the elimination;
they stay cheap because :func:`mat_mul` checks B's shape while transposing it
and A's in one pass over its rows, and :func:`matrix` passes rows of plain
ints through unconverted.  The identity check catches a wrong step of the
elimination.  It does not prove the transforms unimodular: a U or V of
determinant other than +-1 with a D that agrees with it passes, so that rests
on construction (every step is a swap, a negation or the addition of a
multiple of one row or column to another).

:func:`smith_diagonal` runs the same elimination on the rows of A alone and
returns the diagonal, and :func:`echelon` reduces rows to a row echelon form
by Euclid's algorithm.  Neither keeps a transform or checks an identity, so
their callers certify what they read.  The structure-group oracle
(:mod:`labpoly.local_model`) takes the echelon of the tight normals' columns,
re-reads it by forward substitution, and checks the Smith diagonal of the
normals' scaled coordinates against the index certificate.
:func:`kernel_basis` turns the echelon of the kernel generators into the
Hermite basis, and :func:`labpoly.delzant.build_construction` certifies that
basis with the kernel index identity, which takes one more Smith diagonal.
Saturations and lattice quotients are not formed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

Vec = tuple  # integer row vector
Mat = tuple  # tuple of integer row vectors


# ---------------------------------------------------------------------------
# rational text encoding
# ---------------------------------------------------------------------------

def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (or an int) into a Fraction.

    A bool or a float raises ValueError: a float is not an exact input.
    """
    if isinstance(text, (bool, float)):
        raise ValueError(f"not a rational number: {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x) -> str:
    """Inverse of :func:`parse_rational`: ``p/q`` with q > 0, or ``p``, of any size."""
    if type(x) is int:
        return _decimal(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


def _decimal(n: int) -> str:
    """``str(n)``, split in halves past ``sys.get_int_max_str_digits()`` (left as set)."""
    try:
        return str(n)
    except ValueError:  # more digits than the interpreter converts at once
        k = n.bit_length() * 3 // 20  # log10(2) > 3/10: at most half the digits
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _decimal(high) + _decimal(low).zfill(k)


# ---------------------------------------------------------------------------
# small vector/matrix helpers
# ---------------------------------------------------------------------------

def matrix(rows) -> Mat:
    """Coerce to an immutable integer matrix, checking shape and integrality.

    A row of plain ints passes through as a tuple; any other row is coerced
    entry by entry (:func:`_as_int`).
    """
    out = []
    width = None
    for r in rows:
        row = tuple(r)
        if not all(type(e) is int for e in row):
            row = tuple(_as_int(e) for e in row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        out.append(row)
    return tuple(out)


def _as_int(e) -> int:
    if isinstance(e, bool):
        raise ValueError(f"not an integer entry: {e!r}")
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return e.numerator
    raise ValueError(f"not an integer entry: {e!r}")


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a) -> Mat:
    return tuple(zip(*a)) if a else ()


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(map(mul, u, v))


def vec_scale(c, u):
    return tuple(c * x for x in u)


def mat_vec(a, v):
    return tuple(dot(row, v) for row in a)


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


def _describe(a) -> str:
    """Shape and largest entry bit-length of a matrix, for error messages."""
    bits = max((abs(x).bit_length() for row in a for x in row), default=0)
    return f"{len(a)}x{len(a[0]) if a else 0} matrix with largest entry bit-length {bits}"


def common_denominator(values) -> tuple:
    """``(scale, numerators)``: ints or Fractions as integers over their lcm denominator."""
    values = tuple(values)
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def primitive_vector(v) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    The zero vector is returned unchanged.  Sign is preserved, so the result
    points the same way as the input.
    """
    v = tuple(v)
    if not all(type(e) is int for e in v):
        v = tuple(_as_int(e) for e in v)
    g = math.gcd(*v)
    if g <= 1:
        return v
    return tuple(e // g for e in v)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithDecomposition(NamedTuple):
    """U * A * V = D with U, V unimodular and D in Smith normal form."""

    U: Mat
    D: Mat
    V: Mat

    @property
    def diagonal(self) -> tuple:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k))

    @property
    def nonzero_diagonal(self) -> tuple:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(a) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with transforms.

    The diagonal of D is nonnegative, each entry divides the next, and
    U * A * V == D exactly (verified before returning).  The reduction is
    :func:`_eliminate`'s, and deterministic.
    """
    a = matrix(a)
    m = len(a)
    n = len(a[0]) if m else 0
    # one elimination in place: rows 0..m-1 are [D | U] and rows m..m+n-1
    # are V, so the row operations carry U and the column operations V
    w = []
    for i, row in enumerate(a):
        w.append([*row, *[0] * m])
        w[i][n + i] = 1
    for i in range(n):
        w.append([0] * n)
        w[m + i][i] = 1
    _eliminate(w, m, n)
    U = tuple([tuple(row[n:]) for row in w[:m]])
    D = tuple([tuple(row[:n]) for row in w[:m]])
    V = tuple(map(tuple, w[m:]))
    if mat_mul(mat_mul(U, a), V) != D:
        raise RuntimeError(f"Smith reduction broke the identity U*A*V = D on the {_describe(a)}")
    return SmithDecomposition(U, D, V)


def smith_diagonal(a) -> tuple:
    """The diagonal of ``smith_normal_form(a).D``, by the same elimination
    (:func:`_eliminate`) on the rows of A alone: no U or V, and so no
    U * A * V = D check.  The entries are nonnegative and each divides the
    next; a caller that needs them certified checks them itself.  The rows
    must be rows of ints of one length, which are not re-checked: both
    callers pass rows the package built."""
    w = [list(row) for row in a]
    m = len(w)
    n = len(w[0]) if m else 0
    _eliminate(w, m, n)
    return tuple([w[i][i] for i in range(min(m, n))])


def _eliminate(w, m, n) -> None:
    """Reduce the m x n block at the top left of the rows ``w`` to Smith form
    in place.  A row operation is one list comprehension over the whole of a
    row among the first m, a column operation (on a column j < n) one loop
    over every row of ``w``, so columns past n carry U and rows past m carry V.

    Pivots are chosen by smallest nonzero absolute value, ties broken by
    lowest (row, col), which makes the reduction deterministic.
    """
    k = 0
    while k < min(m, n):
        best = 0  # smallest |entry| of the block k.., k.. so far; 1 ends the search
        for i in range(k, m):
            row = w[i]
            for j in range(k, n):
                e = row[j]
                if e and (not best or abs(e) < best):
                    best, i0, j0 = abs(e), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if i0 != k:
            w[k], w[i0] = w[i0], w[k]
        if j0 != k:
            for row in w:
                row[k], row[j0] = row[j0], row[k]
        pk = w[k]
        if pk[k] < 0:
            pk = w[k] = [-x for x in pk]
        p = pk[k]
        clear = True  # no remainder left in row k or column k
        for i in range(k + 1, m):
            row = w[i]
            if row[k]:
                q = row[k] // p
                if q:
                    row = w[i] = [x - q * y for x, y in zip(row, pk)]
                clear = clear and not row[k]
        for j in range(k + 1, n):
            if pk[j]:
                q = pk[j] // p
                if q:
                    for row in w:
                        row[j] -= q * row[k]
                clear = clear and not pk[j]
        if p != 1:  # a unit leaves no remainder and divides every entry
            if not clear:  # a nonzero remainder is smaller than p: pivot again
                continue
            # p must divide every remaining entry; if not, fold the first
            # offending row into row k and reduce again (the pivot shrinks)
            offender = next((i for i in range(k + 1, m)
                             if any(x % p for x in w[i][k + 1:n])), None)
            if offender is not None:
                w[k] = [x + y for x, y in zip(pk, w[offender])]
                continue
        k += 1


# ---------------------------------------------------------------------------
# row echelon form and kernels
# ---------------------------------------------------------------------------

def echelon(rows) -> list:
    """The nonzero rows of a row echelon form of integer rows, in pivot order.

    Column by column, Euclid's algorithm runs on the rows not yet pivoted
    that are nonzero there: the one with the smallest |entry| in the column
    is subtracted from each other one as often as that entry goes into
    theirs, until one row is left nonzero there; it is the pivot row.  A
    column where no such row is left has no pivot.  Every step is a
    subtraction of a multiple of one row from another, so the rows span the
    lattice of the input, their pivot columns strictly increase and there
    are as many as the rank.  No transform is kept.  A pivot row is a tuple
    of the input or a list.
    """
    rest = list(rows)
    done = []
    for r in range(len(rest[0]) if rest else 0):
        live, zero = [], []
        for c in rest:
            (live if c[r] else zero).append(c)
        rest = zero
        if not live:
            continue
        while len(live) > 1:
            pivot = min(live, key=lambda c: abs(c[r]))
            p = pivot[r]
            left = [pivot]
            for c in live:
                if c is not pivot:
                    q = c[r] // p
                    c = [x - q * y for x, y in zip(c, pivot)]
                    (left if c[r] else rest).append(c)
            live = left
        done.append(live[0])
    return done


def kernel_basis(a, ncols: int, snf=None) -> Mat:
    """Basis rows of the integer kernel {x : A x = 0} of an m x ncols matrix.

    The kernel is spanned by the last columns of V in U * A * V = D, those
    past D's rank.  Their :func:`echelon` with positive pivots and each entry
    above a pivot reduced into [0, pivot) is the row Hermite normal form,
    unique for the lattice, so equal kernels get identical bases.  The
    result is saturated (ker over the rationals meets the integer lattice).
    ``ncols`` is explicit so that no rows still have an ambient dimension;
    ``snf`` is ``smith_normal_form(A)`` when the caller already took it.
    """
    a = matrix(a)
    if a and len(a[0]) != ncols:
        raise ValueError("ncols disagrees with the rows")
    if not a:
        return identity(ncols)
    s = smith_normal_form(a) if snf is None else snf
    r = len(s.nonzero_diagonal)
    h = echelon(zip(*(row[r:] for row in s.V)))
    c = 0
    for k, row in enumerate(h):
        while not row[c]:
            c += 1
        if row[c] < 0:
            row = [-x for x in row]
        h[k] = row
        p = row[c]
        for i in range(k):
            q = h[i][c] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], row)]
    return tuple(map(tuple, h))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form.

    ``invariant_factors`` is a tuple (d_1, ..., d_k) with each d_i >= 2 and
    d_i dividing d_{i+1}; the empty tuple is the trivial group.  A tuple of
    plain ints is kept as it is; any other sequence is coerced entry by entry,
    and a factor that is not an integer (a float, bool, str or fractional
    Fraction) raises ValueError.  The bound and the divisibility chain are
    checked on every group.
    """

    invariant_factors: tuple

    def __post_init__(self):
        fs = self.invariant_factors
        if type(fs) is not tuple or not all(type(d) is int for d in fs):
            fs = tuple(_as_int(d) for d in fs)
            object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for x, y in zip(fs, fs[1:]):
            if y % x != 0:
                raise ValueError(f"broken divisibility chain: {x} does not divide {y}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{_decimal(d)}" for d in self.invariant_factors)


TRIVIAL_GROUP = FiniteAbelianGroup(())
