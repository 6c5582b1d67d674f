"""Exact linear algebra over the integers and rationals.

Everything in this module works with arbitrary-precision Python ``int`` and
``fractions.Fraction``; floating point is never used.  Matrices are immutable
tuples of row tuples, vectors are plain tuples.  All functions are pure.

Callers scale rational data to integers over a common denominator first
(:func:`common_denominator`).  No rank test, square solve or inverse is
formed here: the vertex walk in :mod:`labpoly.polytope` keeps one integer
simplex dictionary per basis and moves it by fraction-free pivots, and its
first n pivots decide whether the normals have full rank.

:func:`_diagonal_rows` reduces the rows [A | I] above I in place
(:func:`_eliminate`) to [D | U] above V with U * A * V = D and D diagonal,
and re-verifies that identity by exact multiplication on every call, so a
silent arithmetic bug cannot leak a wrong decomposition downstream.  The
check does not prove U and V unimodular (one of determinant other than +-1
with a D that agrees with it passes): that rests on construction, every step
being a swap, a negation or the addition of a multiple of one row or column
to another.  Its callers read the diagonal off the first rows, and
:func:`kernel_basis` reads the kernel off V's rows and the rank.

The elimination stops at a diagonal whose entries need not divide each
other.  :func:`_merge_step` merges one cyclic order into invariant factors by
Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) and checks the product: it is the
package's one merge loop, and every group the package prints is read
through it.  :func:`_merge`, behind :meth:`FiniteAbelianGroup.from_orders`,
folds it over a list of orders; both structure-group routes take one step
per face from its parent face's factors.
:func:`smith_diagonal` runs the elimination on the rows of A alone and
merges the diagonal, and :func:`echelon` reduces rows to a row echelon form
by :func:`_euclid`, the package's one Euclid loop, which the structure-group
oracle runs on its own columns too.  Neither keeps a transform or checks an
identity, so their callers certify what they read: the structure-group oracle
(:mod:`labpoly.local_model`) by forward substitution and the index
certificate, and :func:`labpoly.delzant.build_construction` the Hermite
basis of :func:`kernel_basis` by the kernel index identity.  Saturations and
lattice quotients are not formed here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import mul

Mat = tuple  # tuple of integer row vectors


# ---------------------------------------------------------------------------
# rational text encoding
# ---------------------------------------------------------------------------

def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (or a decimal like ``"0.5"``, or an int) into a Fraction.

    A bool, a float or a string with an exponent or an underscore raises
    ValueError: a float is not exact, Fraction expands an exponent in full
    (``"1e10000000"``), and it reads digit-group underscores (``"1_000"``)
    from Python 3.11 on only.  A string ``-?digits[/digits]`` is read by
    ``int`` with no regex, and refused as any other: past the digit limit,
    or at a zero denominator, it raises the same ValueError.
    """
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    s = str(text).lower()
    if isinstance(text, (bool, float)) or "e" in s or "_" in s:
        raise ValueError(f"not a rational number: {text!r}")
    num, slash, den = s.partition("/")
    try:
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den or 1))
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(x, den=1) -> str:
    """Inverse of :func:`parse_rational`: ``p/q`` with q > 0, or ``p``, of any size.

    ``x`` must be an int that is not a bool, or a Fraction; anything else
    (a float, a bool, a string) raises ValueError.  An int x is printed over
    ``den``, an int > 0, in lowest terms by one gcd, with no Fraction formed.
    """
    if type(x) is int:
        if den == 1:
            return _decimal(x)
        g = math.gcd(x, den)
        return _decimal(x // g) if g == den else f"{_decimal(x // g)}/{_decimal(den // g)}"
    if not isinstance(x, Fraction):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"not an exact rational: {x!r}")
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
# small vector helpers
# ---------------------------------------------------------------------------

def _ints(v) -> tuple:
    """``v`` as a tuple of ints: plain ints pass as they are, any other entry
    is coerced by :func:`_as_int`, which raises ValueError.

    For data entering the package: parsed normals, ``--xi``, the factors
    handed to :class:`FiniteAbelianGroup`.  The vertex walk's and Morse's
    per-edge loops read integers the walk made and do not pass them through
    here."""
    v = tuple(v)
    if all(type(e) is int for e in v):
        return v
    return tuple(_as_int(e) for e in v)


def _as_int(e) -> int:
    if isinstance(e, int) and not isinstance(e, bool):
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return e.numerator
    raise ValueError(f"not an integer entry: {e!r}")


def dot(u, v):
    """<u, v>; vectors of different lengths raise ValueError.

    For pairings at the package's boundary, once per input or per report:
    the recession ray's check, :func:`labpoly.polytope.isomorphism_report`,
    :func:`labpoly.delzant.build_construction`.  The vertex walk's
    :func:`labpoly.polytope._certify` and Morse's per-edge pairings read
    vectors the walk built at length n and form ``sum(map(mul, u, v))``."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(map(mul, u, v))


def _describe(a) -> str:
    """Shape and largest entry bit-length of a matrix, for error messages."""
    bits = max((abs(x).bit_length() for row in a for x in row), default=0)
    return f"{len(a)}x{len(a[0]) if a else 0} matrix with largest entry bit-length {bits}"


def common_denominator(values) -> tuple:
    """``(scale, numerators)``: ints or Fractions as integers over their lcm denominator."""
    values = tuple(values)
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


# ---------------------------------------------------------------------------
# diagonal form
# ---------------------------------------------------------------------------

def _diagonal_rows(a) -> list:
    """The rows [D | U] above V of a diagonal form U * A * V = D of the m x n
    matrix A, by :func:`_eliminate`: D's diagonal is nonnegative with its zeros
    trailing.  ``a`` is m rows of ints of one length (unchecked).  Each row u
    of U is multiplied into A once, and (u * A) * V must be D's row, or
    RuntimeError names A's shape and size."""
    m = len(a)
    n = len(a[0]) if m else 0
    # one elimination in place: the row operations carry U, the column ones V
    w = [[*row, *[0] * i, 1, *[0] * (m - i - 1)] for i, row in enumerate(a)]
    w += [[*[0] * i, 1, *[0] * (n - i - 1)] for i in range(n)]
    _eliminate(w, m, n)
    columns = tuple(zip(*a))
    v_columns = tuple(zip(*w[m:]))
    for row in w[:m]:
        ua = [sum(map(mul, row[n:], c)) for c in columns]
        if [sum(map(mul, ua, c)) for c in v_columns] != row[:n]:
            raise RuntimeError(
                f"diagonal reduction broke the identity U*A*V = D on the {_describe(a)}")
    return w


def smith_diagonal(a) -> tuple:
    """The Smith diagonal of A: :func:`_eliminate`'s diagonal of the rows of A
    alone (no U, V or U * A * V = D check), merged by :func:`_merge` and
    padded with 1s and 0s.  Both callers pass rows of ints of one length,
    unchecked, and certify the result."""
    w = [list(row) for row in a]
    m = len(w)
    n = len(w[0]) if m else 0
    _eliminate(w, m, n)
    diag = [w[i][i] for i in range(min(m, n))]
    rank = len(diag) - diag.count(0)
    factors = _merge(diag[:rank])
    return (1,) * (rank - len(factors)) + factors + (0,) * (len(diag) - rank)


def _eliminate(w, m, n) -> None:
    """Reduce the m x n block at the top left of the rows ``w`` to a diagonal
    in place, its entries nonnegative and its nonzero ones first.  A row
    operation is one list comprehension over the whole of a row among the
    first m, a column operation (on a column j < n) one loop over every row
    of ``w``, so columns past n carry U and rows past m carry V.

    Pivots are chosen by smallest nonzero absolute value, ties broken by
    lowest (row, col), which makes the reduction deterministic; a remainder
    left in the pivot's row or column is a smaller pivot, so the loop ends.
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
        if clear:
            k += 1


# ---------------------------------------------------------------------------
# row echelon form and kernels
# ---------------------------------------------------------------------------

def echelon(rows) -> list:
    """The nonzero rows of a row echelon form of integer rows, in pivot order.

    Column by column, the rows not yet pivoted that are nonzero there go
    through :func:`_euclid`; the one it leaves nonzero there is the pivot
    row, and a column with no such row has none.  Every step subtracts a
    multiple of one row from another, so the rows span the lattice of the
    input, their pivot columns strictly increase and there are as many as
    the rank.  A pivot row is a tuple of the input or a list.
    """
    rest = list(rows)
    done = []
    for r in range(len(rest[0]) if rest else 0):
        live, zero = [], []
        for c in rest:
            (live if c[r] else zero).append(c)
        rest = zero
        if live:
            pivot, zeroed = _euclid(live, r)
            done.append(pivot)
            rest += zeroed
    return done


def _euclid(live, r) -> tuple:
    """Euclid's algorithm on vectors nonzero at index r: the one with the
    smallest |entry| there is subtracted from each other one as often as that
    entry goes into theirs, until one is left nonzero there.  Returns it and
    the others, lists zero at r, in the order they became zero."""
    zeroed = []
    while len(live) > 1:
        pivot = min(live, key=lambda c: abs(c[r]))
        p = pivot[r]
        left = [pivot]
        for c in live:
            if c is not pivot:
                q = c[r] // p
                c = [x - q * y for x, y in zip(c, pivot)]
                (left if c[r] else zeroed).append(c)
        live = left
    return live[0], zeroed


def kernel_basis(v, r) -> Mat:
    """Basis rows of the integer kernel {x : A x = 0}, read off the rows ``v``
    of V of a checked diagonal form U * A * V = D of A with rank r
    (:func:`_diagonal_rows`).

    The kernel is spanned by the columns of V past r.  Their :func:`echelon`
    with positive pivots and each entry above a pivot reduced into
    [0, pivot) is the row Hermite normal form, unique for the lattice, so
    equal kernels get identical bases.  The result is saturated (ker over
    the rationals meets the integer lattice).
    """
    h = echelon(zip(*(row[r:] for row in v)))
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


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "invariant_factors")):
    """Finite abelian group in invariant-factor form.

    ``invariant_factors`` is a tuple (d_1, ..., d_k) with each d_i >= 2 and
    d_i dividing d_{i+1}; the empty tuple is the trivial group.  A tuple of
    plain ints is kept as it is; any other sequence is coerced entry by entry,
    and a factor that is not an integer (a float, bool, str or fractional
    Fraction) raises ValueError.  The bound and the divisibility chain are
    checked on every group, also one built by ``_make`` or ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors):
        fs = _ints(invariant_factors)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {_decimal(d)} < 2")
        for x, y in zip(fs, fs[1:]):
            if y % x != 0:
                raise ValueError(f"broken divisibility chain: {_decimal(x)} does not "
                                 f"divide {_decimal(y)}")
        return super().__new__(cls, fs)

    @classmethod
    def _make(cls, iterable):
        """namedtuple's ``_make``, which ``_replace`` also calls, routed through the checks."""
        return cls(*iterable)

    @classmethod
    def from_orders(cls, orders) -> FiniteAbelianGroup:
        """The sum of the cyclic groups Z/m over a sequence of ``orders``
        (ints >= 1), put in invariant-factor form by :func:`_merge`."""
        return cls(_merge(orders))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return "Z/" + " x Z/".join(map(_decimal, self.invariant_factors))


def _merge(orders) -> tuple:
    """The invariant factors of the sum of the Z/m over a sequence of ints m:
    :func:`_merge_step` folded over the orders from the trivial group, in
    O(k * r) gcd steps for k orders and rank r.  Each step keeps its product
    or raises RuntimeError; an order below 1 raises ValueError."""
    return reduce(_merge_step, orders, ())


def _merge_step(factors, order) -> tuple:
    """The invariant factors of Z/d_1 + ... + Z/d_r + Z/order, for invariant
    factors ``factors`` (a tuple) and an int ``order``: the order joins the
    factors from the largest down, by Z/d + Z/m = Z/lcm(d, m) + Z/gcd(d, m),
    the gcd carried on.  A result whose product is not the factors' product
    times the order raises RuntimeError; an order below 1 raises ValueError.
    This is the package's one merge loop."""
    fs = list(factors)
    m, j = order, len(fs)
    while m > 1 and j:
        j -= 1
        g = math.gcd(fs[j], m)
        fs[j] = fs[j] // g * m
        m = g
    if m > 1:
        fs.insert(0, m)
    elif m < 1:
        raise ValueError(f"cyclic order {_decimal(m)} < 1")
    if math.prod(fs) != math.prod(factors) * order:
        raise RuntimeError(
            f"invariant factors [{', '.join(map(_decimal, fs))}] of the cyclic "
            f"orders [{', '.join(map(_decimal, (*factors, order)))}] lost their product")
    return tuple(fs)
