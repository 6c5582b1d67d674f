"""Tests for the exact lattice linear algebra layer.

The expensive claims (saturation, quotient groups) are checked against slow
brute-force oracles that enumerate lattice points and cosets directly, so the
normal-form implementations never certify themselves.  ``saturate``,
``quotient_group``, ``det``, ``adjugate`` and ``rational_rank`` are the
reference routes kept in ``tests/corpus.py``; the structure-group oracle in
the package no longer forms a saturation or a quotient, and the vertex walk
no longer takes an adjugate or a separate rank, but the tests still compare
them with their references.  ``hermite_normal_form`` and
``reference_kernel_basis`` there are the Hermite form with its transform and
the kernel route built on it, against which the package's transform-free
:func:`labpoly.lattice.echelon` and kernel basis are checked.
``reference_diagonal_form`` there is the elimination with one helper per
row or column operation, stopped at a diagonal; the (U, D, V) triple that
``diagonal_form`` there reads off the rows of the package's in-place
``lattice._diagonal_rows`` must be exactly its triple, and
:func:`labpoly.lattice.kernel_basis` reads the kernel off those rows' V as
:func:`labpoly.delzant.build_construction` does (:func:`kernel_of`).
``reference_smith_normal_form`` is the same elimination with its
divisibility fold, and ``smith_diagonal``, the package's elimination run
without transforms and merged by ``lattice._merge``, the merge of
``FiniteAbelianGroup.from_orders``, must return its diagonal.
"""

import math
import random
import re
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from labpoly import lattice
from labpoly.lattice import (
    FiniteAbelianGroup,
    echelon,
    format_rational,
    kernel_basis,
    parse_rational,
    primitive_vector,
    smith_diagonal,
)

import corpus
from corpus import (
    DiagonalForm,
    adjugate,
    det,
    det_rational,
    diagonal_form,
    doctor_elimination,
    invert_rational,
    lattices_equal,
    quotient_group,
    raise_first_entry,
    generated_family,
    hermite_normal_form,
    identity,
    mat_mul,
    mat_vec,
    matrix,
    rational_rank,
    reference_diagonal_form,
    reference_kernel_basis,
    reference_saturate,
    reference_smith_normal_form,
    saturate,
    solve_rational,
    standard_corpus,
    transpose,
    unimodular_inverse,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_gcd(values):
    """Largest common divisor found by scanning every candidate."""
    vals = [abs(v) for v in values if v != 0]
    if not vals:
        return 0
    best = 1
    for d in range(1, max(vals) + 1):
        if all(v % d == 0 for v in vals):
            best = d
    return best


def oracle_saturation(rows):
    """Saturation by enumerating integer points in the fundamental cell.

    Integer points x in {sum t_i b_i : 0 <= t_i < 1} are coset representatives
    of the row lattice inside its saturation; adjoining them to the rows
    generates the saturation.  Only usable for small entries.
    """
    rows = matrix(rows)
    k = len(rows)
    n = len(rows[0])
    bound = sum(max(abs(e) for e in r) for r in rows) + 1
    found = list(rows)
    bt = transpose(rows)
    for point in product(range(-bound, bound + 1), repeat=n):
        t = solve_in_span(rows, point)
        if t is not None and all(0 <= ti < 1 for ti in t):
            found.append(point)
    # reduce the generating set to a basis via Hermite form
    h = hermite_normal_form(found).H
    return tuple(r for r in h if any(r))


def solve_in_span(rows, target):
    """Rational coordinates of target in the row span, or None."""
    return solve_rational(transpose(rows), target)


def oracle_quotient_order(lattice_rows, sub_rows):
    """Count cosets of S in L by breadth-first closure over L's generators."""
    def canonical(p):
        t = solve_in_span(sub_rows, p)
        assert t is not None
        frac = [ti - math.floor(ti) for ti in t]
        rep = tuple(sum(frac[i] * sub_rows[i][j] for i in range(len(sub_rows)))
                    for j in range(len(p)))
        return rep

    zero = tuple(0 for _ in lattice_rows[0])
    seen = {canonical(zero)}
    frontier = [zero]
    while frontier:
        p = frontier.pop()
        for g in lattice_rows:
            for s in (1, -1):
                q = tuple(pi + s * gi for pi, gi in zip(p, g))
                key = canonical(q)
                if key not in seen:
                    seen.add(key)
                    frontier.append(q)
    return len(seen)


def oracle_element_order(element, sub_rows, limit=10_000):
    """Smallest k >= 1 with k*element in the sublattice."""
    for k in range(1, limit + 1):
        scaled = tuple(k * e for e in element)
        t = solve_in_span(sub_rows, scaled)
        if t is not None and all(ti.denominator == 1 for ti in t):
            return k
    raise AssertionError("element order exceeds limit")


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fractions (the reference for Bareiss)."""
    work = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def solve_route_quotient(lattice_rows, sub_rows):
    """L / S with coordinates from Fraction solves (the reference for the
    adjugate route); same checks and messages, in the same order."""
    L, S = matrix(lattice_rows), matrix(sub_rows)
    k = len(L)
    if k == 0 and len(S) == 0:
        return FiniteAbelianGroup(())
    if S and L and len(S[0]) != len(L[0]):
        raise ValueError("ambient dimension mismatch")
    if fraction_rank(L) != k:
        raise ValueError("lattice basis rows are linearly dependent")
    if len(S) != k:
        raise ValueError(f"rank mismatch: lattice has rank {k}, got {len(S)} generators")
    coords = []
    for srow in S:
        x = solve_rational(transpose(L), srow)
        if x is None:
            raise ValueError("not a sublattice: generator outside the rational span")
        if any(xi.denominator != 1 for xi in x):
            raise ValueError("not a sublattice: generator has fractional coordinates")
        coords.append(tuple(int(xi) for xi in x))
    diag = reference_smith_normal_form(coords).diagonal
    if any(d == 0 for d in diag):
        raise ValueError("rank mismatch: sublattice has lower rank")
    return FiniteAbelianGroup(tuple(d for d in diag if d > 1))


def outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def is_diagonal_shape(d_mat):
    """Whether D is diagonal and nonnegative with its zeros trailing."""
    m = len(d_mat)
    n = len(d_mat[0]) if m else 0
    diag = [d_mat[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j and d_mat[i][j] != 0:
                return False
    if any(x < 0 for x in diag):
        return False
    nz = [x for x in diag if x != 0]
    return diag[:len(nz)] == nz  # zeros must trail


def is_smith_diagonal(diag):
    """Whether a diagonal is nonnegative, its zeros trailing, and each
    nonzero entry divides the next."""
    nz = [x for x in diag if x != 0]
    return (all(x >= 0 for x in diag) and list(diag[:len(nz)]) == nz
            and all(y % x == 0 for x, y in zip(nz, nz[1:])))


# ---------------------------------------------------------------------------
# primitive vectors
# ---------------------------------------------------------------------------

def test_primitive_vector_frozen_example():
    assert primitive_vector((0, -8)) == (0, -1)


def test_primitive_vector_keeps_direction_and_zero():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, 0, 0)) == (0, 0, 0)
    assert primitive_vector((-5,)) == (-1,)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
def test_primitive_vector_against_gcd_scan(v):
    p = primitive_vector(tuple(v))
    g = oracle_gcd(v)
    if g == 0:
        assert p == tuple(v)
    else:
        assert p == tuple(e // g for e in v)
        assert oracle_gcd(p) == 1


# ---------------------------------------------------------------------------
# diagonal form and Smith diagonal
# ---------------------------------------------------------------------------

def test_smith_frozen_example():
    d = diagonal_form(((2, 4), (6, 8))).D
    assert d == ((2, 0), (0, 4))
    # the elimination stops at a diagonal; the merge reads Z/2 + Z/3 as Z/6
    assert diagonal_form(((2, 0), (0, 3))).D == ((2, 0), (0, 3))
    assert smith_diagonal(((2, 0), (0, 3))) == (1, 6)


def test_smith_identity_and_unimodularity_by_hand():
    a = matrix(((2, 4), (6, 8)))
    s = diagonal_form(a)
    assert mat_mul(mat_mul(s.U, a), s.V) == s.D
    assert abs(det(s.U)) == 1
    assert abs(det(s.V)) == 1


def test_smith_zero_and_empty():
    s = diagonal_form(((0, 0), (0, 0)))
    assert s.D == ((0, 0), (0, 0))
    assert diagonal_form(()).D == ()
    assert smith_diagonal(((0, 0), (0, 0))) == (0, 0)
    assert smith_diagonal(()) == ()


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_smith_properties_random(rows):
    a = matrix(rows)
    s = diagonal_form(a)
    assert mat_mul(mat_mul(s.U, a), s.V) == s.D
    assert abs(det(s.U)) == 1
    assert abs(det(s.V)) == 1
    assert is_diagonal_shape(s.D)
    diag = smith_diagonal(a)
    assert is_smith_diagonal(diag)
    # D and A are equivalent, so they have one Smith diagonal
    assert smith_diagonal(s.D) == diag == reference_smith_normal_form(a).diagonal


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_smith_diagonal_gcd_invariant(rows):
    # d_1 equals the gcd of all entries: an independent characterization
    a = matrix(rows)
    diag = smith_diagonal(a)
    g = oracle_gcd([e for row in a for e in row])
    if g == 0:
        assert all(d == 0 for d in diag)
    else:
        assert diag[0] == g


def _spurious_row(monkeypatch):
    """Make every product in ``tests/corpus.py`` come out with an extra zero row."""
    real = corpus.mat_mul

    def wrong(a, b):
        return real(a, b) + ((0,) * len(b[0]),)

    monkeypatch.setattr(corpus, "mat_mul", wrong)


@pytest.mark.parametrize("block", ["U", "V", "D"])
def test_smith_checks_its_identity_on_every_call(monkeypatch, block):
    doctor_elimination(monkeypatch, raise_first_entry(block))
    with pytest.raises(RuntimeError, match=r"^diagonal reduction broke the identity "
                       r"U\*A\*V = D on the 2x2 matrix with largest entry bit-length 4$"):
        diagonal_form(((2, 4), (6, 8)))


def test_smith_is_deterministic():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        assert diagonal_form(rows) == diagonal_form(rows)
        assert smith_diagonal(rows) == smith_diagonal(rows)


@st.composite
def smith_inputs(draw):
    """An m x n integer matrix, 0 <= m, n <= 6 (a 0 x n matrix is ``()``),
    entries either small, so that pivots tie and units occur, or up to
    +-2^61, with some rows and columns zeroed."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 61, 2 ** 61))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=3))
    return tuple(tuple(0 if i in zero_rows or j in zero_cols else e for j, e in enumerate(row))
                 for i, row in enumerate(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(smith_inputs())
def test_smith_matches_reference_elimination(a):
    # the in-place elimination makes the reference's row and column
    # operations in the reference's order, so the whole triple agrees; the
    # merge of its diagonal is the diagonal of the reference with the fold
    s = diagonal_form(a)
    assert s == reference_diagonal_form(a)
    assert smith_diagonal(a) == reference_smith_normal_form(a).diagonal


@st.composite
def full_column_rank_inputs(draw):
    """An n x k integer matrix of rank k, 1 <= k <= n <= 6, with entries up to
    +-2^64: the shape of a face's scaled normals taken as columns."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    entries = st.integers(-2 ** 64, 2 ** 64)
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    assume(rational_rank(rows) == k)
    return tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(full_column_rank_inputs())
def test_full_column_rank_forms_pass_the_check_and_match_the_reference(a):
    # a return means the U*A*V = D check passed, row by row of U
    s = diagonal_form(a)
    assert s == reference_diagonal_form(a)
    assert 0 not in s.diagonal


@st.composite
def diagonal_inputs(draw):
    """An m x n integer matrix, 1 <= m, n <= 6: entries in [-20, 20] with some
    rows and columns zeroed; or of rank below min(m, n), as the product of an
    m x r and an r x n matrix with entries in [-2, 2]; or k x k lower
    triangular with a nonzero diagonal, the shape of the oracle's M."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))

    def block(rows, cols, entries):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    shape = draw(st.sampled_from(("free", "low_rank", "triangular")))
    if shape == "low_rank":
        r = draw(st.integers(0, min(m, n) - 1))
        b, c = block(m, r, st.integers(-2, 2)), block(r, n, st.integers(-2, 2))
        return mat_mul(b, c) if r else ((0,) * n,) * m
    if shape == "triangular":
        rows = block(m, m, st.integers(-20, 20))
        diag = draw(st.lists(st.integers(-20, 20).filter(bool), min_size=m, max_size=m))
        return tuple(tuple(diag[i] if i == j else x * (j < i) for j, x in enumerate(row))
                     for i, row in enumerate(rows))
    rows = block(m, n, st.integers(-20, 20))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return tuple(tuple(0 if i in zero_rows or j in zero_cols else e for j, e in enumerate(row))
                 for i, row in enumerate(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(diagonal_inputs())
def test_smith_diagonal_is_the_checked_diagonal(a):
    # one elimination loop: without U and V it leaves the diagonal of the
    # checked D, which the merge turns into the reference's Smith diagonal
    checked = diagonal_form(a).D
    want = reference_smith_normal_form(a).diagonal
    assert smith_diagonal(a) == smith_diagonal(checked) == want


def test_smith_matches_reference_on_every_face():
    # the tight normals of every proper face, plain and label-scaled: the
    # matrices the structure-group oracle and face_groups reduce
    seen = set()
    for _, p in standard_corpus() + generated_family():
        for f in p.proper_faces():
            tight = [p.halfspaces[i] for i in f.active]
            seen.add(tuple(h.normal for h in tight))
            seen.add(tuple(tuple(h.label * x for x in h.normal) for h in tight))
    assert len(seen) > 1000
    for a in seen:
        assert diagonal_form(a) == reference_diagonal_form(a), a
        assert smith_diagonal(a) == reference_smith_normal_form(a).diagonal, a


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def test_hermite_frozen_example():
    h = hermite_normal_form(((2, 4), (6, 8))).H
    assert h == ((2, 0), (0, 4))


def is_row_hnf(h):
    m = len(h)
    n = len(h[0]) if m else 0
    pivots = []
    last = -1
    for i in range(m):
        nz = [j for j in range(n) if h[i][j] != 0]
        if not nz:
            # all later rows must be zero too
            assert all(not any(h[k]) for k in range(i, m))
            break
        j = nz[0]
        if j <= last:
            return False
        if h[i][j] <= 0:
            return False
        for k in range(i):
            if not (0 <= h[k][j] < h[i][j]):
                return False
        last = j
        pivots.append(j)
    return True


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_hermite_properties_random(rows):
    a = matrix(rows)
    h, u = hermite_normal_form(a)
    assert mat_mul(u, a) == h
    assert abs(det(u)) == 1
    assert is_row_hnf(h)


def test_hermite_checks_its_identity_on_every_call(monkeypatch):
    # the reference Hermite form in tests/corpus.py keeps its U * A = H check
    _spurious_row(monkeypatch)
    with pytest.raises(RuntimeError, match=r"U\*A = H"):
        hermite_normal_form(((2, 4), (6, 8)))


def test_unimodular_inverse_round_trip():
    m = ((2, 5), (1, 3))  # det 1
    inv = unimodular_inverse(m)
    assert mat_mul(inv, m) == identity(2)
    assert mat_mul(m, inv) == identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(((2, 0), (0, 1)))


# ---------------------------------------------------------------------------
# kernels and saturation
# ---------------------------------------------------------------------------

def kernel_of(a):
    """:func:`kernel_basis` of V's rows and the rank of one checked form of A."""
    s = diagonal_form(a)
    return kernel_basis(s.V, len(s.diagonal) - s.diagonal.count(0))


def test_kernel_basis_simple():
    kb = kernel_of(((1, 0, -1), (0, 1, -1)))
    assert kb == ((1, 1, 1),)


def test_kernel_basis_empty_and_full():
    # the kernel of a zero row is everything, of a full-rank square nothing
    assert kernel_of(((0, 0, 0),)) == identity(3)
    assert kernel_of(((1, 0), (0, 1))) == ()


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(rows):
    a = matrix(rows)
    n = len(a[0])
    kb = kernel_of(a)
    for v in kb:
        assert mat_vec(a, v) == tuple(0 for _ in a)
    assert len(kb) == n - rational_rank(a)


def test_kernel_is_saturated():
    # (2, -2) spans the kernel rationally but (1, -1) is the lattice generator
    kb = kernel_of(((2, 2),))
    assert kb == ((1, -1),)


# ---------------------------------------------------------------------------
# the transform-free echelon and the kernel's Hermite basis
# ---------------------------------------------------------------------------

@st.composite
def echelon_inputs(draw):
    """An m x n integer matrix, m, n <= 7: random, rank-deficient (each row
    an integer combination of fewer rows), or wide (n > m); entries small, so
    that pivots tie, or up to +-2^40."""
    shape = draw(st.sampled_from(["random", "deficient", "wide"]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m + 1, 7) if shape == "wide" else st.integers(1, 7))
    entries = st.one_of(st.integers(-4, 4), st.integers(-2 ** 40, 2 ** 40))
    if shape != "deficient":
        return tuple(draw(st.lists(st.tuples(*[entries] * n), min_size=m, max_size=m)))
    r = draw(st.integers(0, min(m, n) - 1))
    basis = draw(st.lists(st.tuples(*[entries] * n), min_size=r, max_size=r))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=m, max_size=m))
    return tuple(tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n))
                 for cs in coeffs)


def _pivot_column(row):
    return next(j for j, x in enumerate(row) if x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(echelon_inputs())
def test_echelon_pivots_increase_and_count_the_rank(a):
    cols = [_pivot_column(row) for row in echelon(a)]
    assert cols == sorted(set(cols))
    assert len(cols) == rational_rank(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(echelon_inputs())
def test_echelon_rows_span_the_input_lattice(a):
    # equal Hermite bases under the reference: the same row lattice
    def basis(rows):
        return tuple(row for row in hermite_normal_form(rows).H if any(row))
    assert basis(echelon(a)) == basis(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(echelon_inputs())
def test_kernel_basis_matches_the_reference_route(a):
    assert kernel_of(a) == reference_kernel_basis(a, len(a[0]))


def test_saturate_frozen_examples():
    assert saturate(((3, 6),)) == ((1, 2),)
    assert lattices_equal(saturate(((1, 1), (1, -1))), identity(2))


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError):
        saturate(((1, 2), (2, 4)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=1, max_size=2))
def test_saturate_against_fundamental_cell(rows):
    rows = matrix(rows)
    if rational_rank(rows) != len(rows):
        return
    got = saturate(rows)
    want = oracle_saturation(rows)
    assert lattices_equal(got, want)


@st.composite
def independent_rows(draw):
    """k x n integer rows, k <= n, independent over the rationals."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    assume(rational_rank(rows) == k)
    return rows


@settings(max_examples=200, deadline=None)
@given(independent_rows())
def test_saturate_matches_the_transform_inverting_route(rows):
    assert saturate(rows) == reference_saturate(rows)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_saturate_rejects_what_the_rank_check_rejects(rows):
    assert outcome(saturate, rows) == outcome(reference_saturate, rows)


def test_saturate_rejects_a_non_unimodular_transform(monkeypatch):
    # U * b * V = D holds, but det V = 2, so the rows of V^-1 need not be
    # integral: the generators read off U * b cannot be trusted
    fake = DiagonalForm(((1,),), ((2, 0),), ((1, 0), (0, 2)))
    monkeypatch.setattr(corpus, "reference_smith_normal_form", lambda a: fake)
    with pytest.raises(RuntimeError, match="not unimodular"):
        saturate(((2, 0),))


def test_saturate_rejects_an_inexact_division(monkeypatch):
    # V is unimodular but the diagonal disagrees with U * b: 2 / 4 is not exact
    fake = DiagonalForm(((1,),), ((4, 0),), identity(2))
    monkeypatch.setattr(corpus, "reference_smith_normal_form", lambda a: fake)
    with pytest.raises(RuntimeError, match="not divisible"):
        saturate(((2, 0),))


def test_saturate_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(2)]
        if rational_rank(rows) != 2:
            continue
        s1 = saturate(rows)
        assert saturate(s1) == s1


# ---------------------------------------------------------------------------
# quotient groups
# ---------------------------------------------------------------------------

def test_quotient_frozen_example():
    g = quotient_group(identity(2), ((1, 0), (-1, -2)))
    assert g.invariant_factors == (2,)
    assert str(g) == "Z/2"


def test_quotient_trivial_and_cyclic():
    assert quotient_group(identity(2), identity(2)).is_trivial
    g = quotient_group(((1, 0),), ((4, 0),))
    assert g.invariant_factors == (4,)


def test_quotient_errors():
    with pytest.raises(ValueError, match="not a sublattice"):
        quotient_group(((2, 0), (0, 1)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="rank mismatch"):
        quotient_group(identity(2), ((1, 0),))
    with pytest.raises(ValueError, match="rank mismatch"):
        quotient_group(identity(2), ((1, 0), (2, 0)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_quotient_against_coset_count(c_rows):
    # sublattice of Z^2 given by integer combinations C of the standard basis
    c = matrix(c_rows)
    if det(c) == 0:
        return
    g = quotient_group(identity(2), c)
    assert g.order == oracle_quotient_order(identity(2), c) == abs(det(c))
    if g.invariant_factors:
        # the largest invariant factor is the group exponent
        exponent = g.invariant_factors[-1]
        orders = [oracle_element_order(e, c) for e in identity(2)]
        assert exponent == math.lcm(*orders)


def test_quotient_errors_come_in_generator_order():
    lat = ((2, 0, 0), (0, 1, 0))
    fractional, outside = (1, 0, 0), (0, 0, 1)
    for sub, message in [((fractional, outside), "fractional coordinates"),
                         ((outside, fractional), "outside the rational span")]:
        with pytest.raises(ValueError, match=message):
            quotient_group(lat, sub)
        assert outcome(quotient_group, lat, sub) == outcome(solve_route_quotient, lat, sub)


@st.composite
def lattice_and_generators(draw):
    """A k x n lattice basis (sometimes dependent) and k generators, each an
    integer combination of the basis or an arbitrary vector."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    entries = st.integers(-3, 3)
    lat = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    sub = []
    for _ in range(draw(st.sampled_from((k, k, k, max(k - 1, 0))))):
        if lat and draw(st.booleans()):
            c = draw(st.lists(entries, min_size=k, max_size=k))
            sub.append([sum(ci * row[j] for ci, row in zip(c, lat)) for j in range(n)])
        else:
            sub.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return lat, sub


@settings(max_examples=300, deadline=None)
@given(lattice_and_generators())
def test_quotient_adjugate_route_matches_solve_route(case):
    lat, sub = case
    assert outcome(quotient_group, lat, sub) == outcome(solve_route_quotient, lat, sub)


def test_group_rejects_non_integer_factors():
    for bad in ((2.7, 4.0), ("3",), (True,), (Fraction(5, 2),)):
        with pytest.raises(ValueError, match="not an integer entry"):
            FiniteAbelianGroup(bad)
    assert FiniteAbelianGroup((Fraction(2), 4)).invariant_factors == (2, 4)


def test_group_coerces_all_but_a_tuple_of_plain_ints():
    # a tuple of plain ints is kept as it is; a bad factor anywhere in the
    # tuple still raises, and so does any other sequence holding one
    plain = (2, 4)
    assert FiniteAbelianGroup(plain).invariant_factors is plain
    for bad in (True, 2.0, "2", Fraction(5, 2)):
        for factors in ((2, bad), (bad, 4), [2, bad]):
            with pytest.raises(ValueError, match="not an integer entry"):
                FiniteAbelianGroup(factors)
    assert FiniteAbelianGroup([2, Fraction(4)]).invariant_factors == (2, 4)
    for factors in ((2, 1), (4, 6), [3, 2]):
        with pytest.raises(ValueError):
            FiniteAbelianGroup(factors)


def test_group_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8 and len(g.invariant_factors) > 1
    assert str(g) == "Z/2 x Z/4"
    assert str(FiniteAbelianGroup(())) == "trivial"


@pytest.mark.parametrize("build", [
    FiniteAbelianGroup,
    lambda fs: FiniteAbelianGroup._make([fs]),
    lambda fs: FiniteAbelianGroup((2,))._replace(invariant_factors=fs),
], ids=["call", "make", "replace"])
def test_group_checks_run_on_every_construction_path(build):
    # namedtuple's _make, which _replace calls, would build the tuple
    # without __new__ and so without its checks
    for bad, message in (((4, 2), "broken divisibility chain"), ((1,), "invariant factor 1 < 2"),
                         ((2.0,), "not an integer entry")):
        with pytest.raises(ValueError, match=message):
            build(bad)
    g = build([2, Fraction(4)])
    assert type(g) is FiniteAbelianGroup and g.invariant_factors == (2, 4)


def test_group_messages_print_factors_past_the_digit_limit():
    # 5001-digit factors, past the interpreter's default limit for str(int):
    # the message prints them instead of failing to
    ones = "1" + "0" * 4999
    with pytest.raises(ValueError) as exc:
        FiniteAbelianGroup((10**5000 + 1, 10**5000 + 3))
    assert str(exc.value) == f"broken divisibility chain: {ones}1 does not divide {ones}3"
    with pytest.raises(ValueError) as exc:
        FiniteAbelianGroup((-10**5000,))
    assert str(exc.value) == f"invariant factor -1{'0' * 5000} < 2"


# ---------------------------------------------------------------------------
# the merge from cyclic orders to invariant factors
# ---------------------------------------------------------------------------

def pairwise_merge(orders):
    """Invariant factors of the sum of Z/m by (gcd, lcm) merging of every pair."""
    fs = list(orders)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = math.gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] * fs[j] // g
    return tuple(x for x in fs if x > 1)


def diagonal_matrix(entries):
    return tuple(tuple(x if i == j else 0 for j in range(len(entries)))
                 for i, x in enumerate(entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 60), max_size=8))
def test_merge_matches_the_pairwise_merge(orders):
    # from_orders, and the merge step folded by hand as both group routes take
    # it, one label per face
    factors = ()
    for m in orders:
        factors = lattice._merge_step(factors, m)
    assert factors == FiniteAbelianGroup.from_orders(orders).invariant_factors
    assert factors == pairwise_merge(orders)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 60), max_size=6), st.integers(-10 ** 12, 0),
       st.lists(st.integers(-5, 60), max_size=3))
def test_merge_step_refuses_an_order_below_1_as_the_merge_does(before, bad, after):
    factors = lattice._merge(before)
    with pytest.raises(ValueError) as step:
        for m in [bad, *after]:
            factors = lattice._merge_step(factors, m)
    with pytest.raises(ValueError) as merge:
        lattice._merge([*before, bad, *after])
    assert str(step.value) == str(merge.value) == f"cyclic order {bad} < 1"


# multisets of orders: small ones repeat, 1s included, and a few large ones
orders_lists = st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10 ** 12)), max_size=9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(orders_lists)
def test_merge_is_the_smith_diagonal_of_the_diagonal_matrix(orders):
    want = reference_smith_normal_form(diagonal_matrix(orders)).diagonal
    group = FiniteAbelianGroup.from_orders(orders)
    assert group.invariant_factors == tuple(d for d in want if d > 1)
    assert group.order == math.prod(orders)


@st.composite
def monomial_matrices(draw):
    """A signed permutation of a diagonal matrix, zeros allowed on the diagonal."""
    entries = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=9))
    perm = draw(st.permutations(range(len(entries))))
    return tuple(tuple(entries[i] if perm[i] == j else 0 for j in range(len(entries)))
                 for i in range(len(entries)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monomial_matrices())
def test_smith_diagonal_of_monomial_matrices(a):
    assert smith_diagonal(a) == reference_smith_normal_form(a).diagonal


def test_smith_diagonal_of_the_labeled_cube_vertices():
    # M at a vertex of the labeled 9-cube, labels 2, 3, 4 in turn, with the
    # signs of its normals: entries that do not divide each other
    for entries in ((2, 3, 4) * 3, (-2, 3, -4) * 3, (2, 3, 4, 2, 3, 4, 2, 3)):
        a = diagonal_matrix(entries)
        assert smith_diagonal(a) == reference_smith_normal_form(a).diagonal
        # the pivots are the smallest entries left, so D sorts them
        assert diagonal_form(a).diagonal == tuple(sorted(map(abs, entries)))
    assert smith_diagonal(diagonal_matrix((2, 3, 4) * 3)) == (1, 1, 1, 2, 2, 2, 12, 12, 12)


def test_merge_rejects_orders_below_one():
    for orders in ((0,), (2, -3)):
        with pytest.raises(ValueError, match="< 1"):
            FiniteAbelianGroup.from_orders(orders)
    assert FiniteAbelianGroup.from_orders(()).is_trivial
    assert FiniteAbelianGroup.from_orders((1, 1)).is_trivial


def _doubled_gcd(monkeypatch):
    # every gcd above 1 in the merge comes out doubled: 2 // 4 * 2 drops a factor
    real = math.gcd
    monkeypatch.setattr(lattice, "math", SimpleNamespace(
        **{**vars(math), "gcd": lambda *xs: real(*xs) * (1 + (real(*xs) > 1))}))


def test_merge_checks_its_product_on_every_call(monkeypatch):
    _doubled_gcd(monkeypatch)
    with pytest.raises(RuntimeError, match=r"cyclic orders \[2, 2\] lost their product"):
        FiniteAbelianGroup.from_orders((2, 2))
    with pytest.raises(RuntimeError, match="lost their product"):
        smith_diagonal(((2, 0), (0, 2)))


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def test_rational_text_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(5) == 5
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-3)) == "-3"
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("value", [
    10**4400, -(10**4400) - 1, 10**700 + 1, Fraction(7**6000, 10**4400 + 3),
    Fraction(-(10**3000), 3**9001), 2**30000 - 1],
    ids=["power", "negative", "zeros", "fraction", "negative_fraction", "mersenne"])
def test_format_rational_past_the_digit_limit(value):
    # the digits of a number past the interpreter's limit, in halves, with
    # zeros kept at the join; the limit itself is left as it was
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no integer digit limit")
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        want = str(Fraction(value))
    finally:
        sys.set_int_max_str_digits(640)
    try:
        got = format_rational(value)
        assert get_limit() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert parse_rational(got[:600]) == Fraction(want[:600])


def test_format_rational_formats_only_exact_values():
    # Fraction(0.1) and Fraction(True) would print values that
    # parse_rational, the inverse, refuses
    for bad in (0.1, 2.0, True, False, "1/2", None):
        with pytest.raises(ValueError, match="not an exact rational"):
            format_rational(bad)
    assert format_rational(-7) == "-7"
    assert format_rational(Fraction(1, 10)) == "1/10"


def test_parse_rational_rejects_floats_and_bools():
    for bad in (1.5, -2.5, 2.0, True):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(bad)


def test_parse_rational_rejects_underscores_on_every_version():
    # Fraction reads digit-group underscores from Python 3.11 on, so "1_000"
    # would be 1000 there and refused on 3.10
    for bad in ("1_000", "-1_0/3", "1/1_0", "0.2_5", "_1", "1_"):
        with pytest.raises(ValueError, match=f"^not a rational number: '{bad}'$"):
            parse_rational(bad)
    assert parse_rational("1000") == 1000


def test_parse_rational_rejects_exponents_and_keeps_decimals():
    # Fraction expands an exponent in full: "1e10000000" took seconds and
    # gave a 33-million-bit integer; a decimal is bounded by its text
    for bad in ("1e10000000", "-1e100000000", "1E5", "2.5e-3", "1/2e3", "e"):
        with pytest.raises(ValueError, match=f"^not a rational number: '{bad}'$"):
            parse_rational(bad)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("-1.25") == Fraction(-5, 4)
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


def regex_route(text):
    """parse_rational with every string read by Fraction's regex parser, as
    it was before ``-?digits[/digits]`` took ``int``: the reference."""
    s = str(text).lower()
    if isinstance(text, (bool, float)) or "e" in s or "_" in s:
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_outcome(parse, text):
    """(Fraction, value) or (exception type, message)."""
    try:
        value = parse(text)
    except Exception as exc:  # any type: the types are compared
        return type(exc), str(exc)
    return type(value), value


# past the interpreter's digit limit (Python 3.10 before 3.10.7 has none)
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
PAST_LIMIT = ["9" * (_LIMIT + 1), "1" + "0" * _LIMIT]
DIGITS = st.one_of(st.text(st.sampled_from("0123456789\u0663\u0664\u00b2"), max_size=5),
                   st.sampled_from(["0", "00", "000", *PAST_LIMIT]))


@st.composite
def rational_texts(draw):
    """A sign or whitespace, digits (ASCII, Arabic-Indic, a superscript), and
    often a slash and more digits, or a short string over the same symbols."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from("01-+/ .e_\u0663\u00b2"), max_size=6))
    text = draw(st.sampled_from(["", "-", "+", "--", " ", " -", "\t+"])) + draw(DIGITS)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["/", " / ", "/-", "/+", "//"])) + draw(DIGITS)
    return text + draw(st.sampled_from(["", " ", "\n"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rational_texts())
@example("\u0663/\u0664")
@example("5/0")
@example("1/00")
@example("-0")
@example("+7")
@example(" 3/4 ")
@example("1/" + PAST_LIMIT[0])
@example("-" + PAST_LIMIT[1])
def test_parse_rational_matches_the_regex_route(text):
    # the same Fraction, or the same exception type and message
    assert parse_outcome(parse_rational, text) == parse_outcome(regex_route, text)


def test_parse_rational_reads_digits_without_the_regex(monkeypatch):
    class Refusing:
        def match(self, text):
            raise AssertionError(f"the regex read {text!r}")

    fractions = sys.modules["fractions"]
    if not hasattr(fractions, "_RATIONAL_FORMAT"):
        pytest.skip("this Python's Fraction parses strings another way")
    monkeypatch.setattr(fractions, "_RATIONAL_FORMAT", Refusing())
    assert [parse_rational(t) for t in ("12", "-12/8", "0/5", "\u0663")] == [
        12, Fraction(-3, 2), 0, 3]
    for bad in ("5/0", "-1/00", "1/" + PAST_LIMIT[0]):  # refused as by the regex route
        with pytest.raises(ValueError, match=f"^not a rational number: '{bad}'$"):
            parse_rational(bad)
    with pytest.raises(AssertionError, match="the regex read"):  # every other string
        parse_rational(" 12")


def test_matrix_coerces_and_rejects():
    m = matrix([[1, Fraction(2, 1)], (3, 4)])
    assert m == ((1, 2), (3, 4))
    assert all(type(e) is int for row in m for e in row)
    for bad in ([[True, 1]], [[Fraction(1, 2), 1]], [[1.0]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            matrix(bad)


def test_ints_coerces_and_rejects():
    # the one coercion behind validate's normals, morse's xi,
    # primitive_vector, FiniteAbelianGroup and the tests' matrix
    v = lattice._ints([1, Fraction(2, 1), Fraction(-6, 3)])
    assert v == (1, 2, -2)
    assert all(type(e) is int for e in v)
    ints = (3, 4)
    assert lattice._ints(ints) is ints
    for bad in ([True, 1], [Fraction(1, 2), 1], [1.0], ["3", 2]):
        with pytest.raises(ValueError, match=re.escape(f"not an integer entry: {bad[0]!r}")):
            lattice._ints(bad)
    assert primitive_vector([Fraction(4), 6]) == (2, 3)
    with pytest.raises(ValueError, match="^not an integer entry: 1.0$"):
        FiniteAbelianGroup([2, 1.0])


def test_mat_mul_checks_shapes():
    assert mat_mul(((1, 2),), ((3,), (4,))) == ((11,),)
    with pytest.raises(ValueError, match="length mismatch"):
        mat_mul(((1, 2),), ((1, 0),))
    with pytest.raises(ValueError, match="length mismatch"):
        mat_mul(((1, 2), (3,)), ((1,), (1,)))
    with pytest.raises(ValueError, match="length mismatch"):
        mat_mul(((1, 1),), ((1, 2), (3,)))


@pytest.mark.parametrize("a, b", [
    (((1, 1),), ((1,), (2, 3))),
    (((1, 1, 1),), ((1, 2), (3, 4), (5,))),
    (((1, 2), (3, 4, 5)), ((1,), (1,))),
    (((1, 2), (3,)), ((1,), (1,))),
    (((1,),), ()),
    ((), ((1, 2), (3,))),
], ids=["ragged_b_short_first_row", "ragged_b_short_last_row", "a_second_row_long",
        "a_second_row_short", "empty_b", "empty_a_ragged_b"])
def test_mat_mul_length_mismatch(a, b):
    with pytest.raises(ValueError, match="^length mismatch$"):
        mat_mul(a, b)


def test_mat_mul_empty_operands():
    # an empty A has no rows to form; an empty B gives rows with no entries
    assert mat_mul((), ((1, 2), (3, 4))) == ()
    assert mat_mul((), ()) == ()
    assert mat_mul(((), ()), ()) == ((), ())
    assert mat_mul(((1, 2),), ((), ())) == ((),)


@st.composite
def rank_deficient_rows(draw):
    """m x n products A * B of inner size r, rows divided by random denominators."""
    m, n, r = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                      min_size=r, max_size=r))
    rows = []
    for row in a:
        q = draw(st.integers(1, 6))
        rows.append([Fraction(sum(x * b[t][j] for t, x in enumerate(row)), q) if q > 1
                     else sum(x * b[t][j] for t, x in enumerate(row)) for j in range(n)])
    return rows


@settings(max_examples=300, deadline=None)
@given(rank_deficient_rows())
def test_rational_rank_against_fraction_elimination(rows):
    assert rational_rank(rows) == fraction_rank(rows)


def test_rational_rank_examples():
    assert rational_rank(()) == 0
    assert rational_rank(((0, 0), (0, 0))) == 0
    assert rational_rank(((1, 2), (2, 4))) == 1
    assert rational_rank(((Fraction(1, 2), Fraction(1, 3)), (3, 2))) == 1
    assert rational_rank(((0, 1, 2), (0, 2, 5), (1, 0, 0))) == 3


def test_solve_rational_cases():
    assert solve_rational(((1, 0), (0, 2)), (3, 4)) == (Fraction(3), Fraction(2))
    assert solve_rational(((1, 1), (2, 2)), (1, 3)) is None  # inconsistent
    assert solve_rational(((1, 1),), (1,)) is None  # underdetermined
    # overdetermined but consistent
    assert solve_rational(((1, 0), (0, 1), (1, 1)), (2, 3, 5)) == (2, 3)


def test_invert_rational():
    inv = invert_rational(((1, 0), (-1, -2)))
    assert inv == ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        invert_rational(((1, 2), (2, 4)))


def test_det_examples():
    assert det(((2, 4), (6, 8))) == -8
    assert det(()) == 1
    assert det(((0, 1), (1, 0))) == -1
    with pytest.raises(ValueError, match="not an integer entry"):
        det(((Fraction(1, 2), 0), (0, 1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_multiplicative(rows):
    a = matrix(rows)
    b = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    assert det(mat_mul(a, b)) == det(a) * det(b)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_adjugate_against_inverse_and_det(rows):
    a = matrix(rows)
    n = len(a)
    d = det_rational(a)
    if d == 0:
        with pytest.raises(ValueError, match="singular"):
            adjugate(a)
        return
    d_adj, adj = adjugate(a)
    assert d_adj == d
    inv = invert_rational(a)
    assert adj == tuple(tuple(d * x for x in row) for row in inv)
    assert mat_mul(a, adj) == tuple(tuple(d if i == j else 0 for j in range(n))
                                    for i in range(n))


def test_adjugate_examples():
    assert adjugate(((2, 4), (6, 8))) == (-8, ((8, -4), (-6, 2)))
    assert adjugate(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))  # needs a row swap
    assert adjugate(((5,),)) == (5, ((1,),))


def test_elementary_divisors():
    assert smith_diagonal(((2, 0), (0, 3))) == (1, 6)
    assert diagonal_form(((2, 0), (0, 3))).diagonal == (2, 3)
    assert smith_diagonal(((0, 0),)) == (0,)
    assert diagonal_form(((0, 0),)).diagonal == (0,)
