"""Tests for Morse indices and Poincare coefficients."""

import random
from fractions import Fraction

import pytest

from labpoly.morse import (
    is_generic,
    morse_report,
    poincare_polynomial,
    random_generic_direction,
)

from corpus import cube, interval, square, standard_corpus, t1, w2


def test_t1_poincare():
    p = t1()
    assert poincare_polynomial(p, (1, 2)) == (1, 0, 1, 0, 1)


def test_t1_indices():
    p = t1()
    rep = morse_report(p, (1, 2))
    by_vertex = dict(zip(p.vertices, rep.vertex_indices))
    assert by_vertex == {(0, 0): 0, (1, 0): 2, (0, 1): 4}


def test_square_poincare():
    assert poincare_polynomial(square(), (1, 2)) == (1, 0, 2, 0, 1)


def test_interval_poincare():
    assert poincare_polynomial(interval(3, 5), (1,)) == (1, 0, 1)


def test_cube_poincare():
    assert poincare_polynomial(cube(), (1, 2, 4)) == (1, 0, 3, 0, 3, 0, 1)


def test_genericity_detection():
    p = square()
    assert not is_generic(p, (1, 0))  # constant along horizontal edges
    assert not is_generic(p, (0, 1))
    assert is_generic(p, (1, 2))
    with pytest.raises(ValueError, match="nonzero"):
        is_generic(p, (0, 0))


def test_non_generic_direction_raises():
    p = square()
    with pytest.raises(ValueError, match="not generic"):
        poincare_polynomial(p, (1, 0))
    with pytest.raises(ValueError, match="not generic"):
        morse_report(p, (0, 1))
    # a 5001-digit entry, past the interpreter's default limit for str(int)
    with pytest.raises(ValueError) as exc:
        morse_report(p, (10**5000, 0))
    assert str(exc.value) == f"xi = (1{'0' * 5000}, 0) is not generic for this polytope"


def test_unique_min_and_max():
    # a generic direction has exactly one index-0 and one top-index vertex
    for name, p in standard_corpus()[:25]:
        rng = random.Random(17)
        xi = random_generic_direction(p, rng)
        coeffs = poincare_polynomial(p, xi)
        assert coeffs[0] == 1, name
        assert coeffs[-1] == 1, name


def test_xi_independence_and_shape():
    for name, p in standard_corpus()[:25]:
        rng = random.Random(23)
        baseline = None
        for _ in range(12):
            xi = random_generic_direction(p, rng)
            coeffs = poincare_polynomial(p, xi)
            if baseline is None:
                baseline = coeffs
            assert coeffs == baseline, (name, xi)
        assert sum(baseline) == len(p.vertices), name
        assert all(c == 0 for c in baseline[1::2]), name  # odd degrees vanish
        assert baseline == baseline[::-1], name  # palindromic


def test_reversing_xi_flips_indices():
    p = w2()
    xi = (1, 3)
    rep = morse_report(p, xi)
    rep_neg = morse_report(p, tuple(-x for x in xi))
    top = 2 * p.dim
    assert rep_neg.vertex_indices == tuple(top - k for k in rep.vertex_indices)


def test_is_generic_rejects_non_integer_xi():
    p = square()
    with pytest.raises(ValueError, match="integer entries"):
        is_generic(p, (1.5, 0.25))
    with pytest.raises(ValueError, match="integer entries"):
        is_generic(p, (True, 2))


def test_xi_of_another_length_raises():
    # xi is checked once, then paired with each edge unchecked
    p = square()
    for xi in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError, match="^length mismatch$"):
            is_generic(p, xi)
        with pytest.raises(ValueError, match="^length mismatch$"):
            morse_report(p, xi)


def test_morse_report_rejects_non_integer_xi():
    p = square()
    with pytest.raises(ValueError, match="integer entries"):
        morse_report(p, (1.5, 0.25))
    assert morse_report(p, (Fraction(1), 2)) == morse_report(p, (1, 2))
