"""Betti numbers of the space above a labeled polytope, Morse-style.

A generic direction xi (one pairing nonzero with every edge direction) turns
the vertex set into critical points; the index of a vertex is twice the
number of its edges on which xi decreases.  Counting vertices by index gives
the Poincare coefficients directly, in every case even degrees only.  xi must
have integer entries; anything else raises ValueError.

:func:`h_vector` reads the same numbers off the face lattice alone, and
``verify`` compares the two.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import comb
from operator import mul

from .lattice import _ints
from .polytope import LabeledPolytope, format_point


# vertex_indices: the index (an even integer) per vertex, in vertex order;
# poincare: the coefficient list, degree 0 .. 2*dim.
MorseReport = namedtuple("MorseReport", "vertex_indices poincare")


def _direction(xi, dim) -> tuple:
    """xi as a tuple of ``dim`` ints; a float, bool or fractional entry, xi = 0
    or a length other than ``dim`` raises.  The callers then pair xi with the
    walk's edge directions, ints of length ``dim``, with no further check."""
    try:
        xi = _ints(xi)
    except ValueError as exc:
        raise ValueError(f"xi must have integer entries ({exc})") from None
    if not any(xi):
        raise ValueError("xi must be nonzero")
    if len(xi) != dim:
        raise ValueError("length mismatch")
    return xi


def is_generic(p: LabeledPolytope, xi) -> bool:
    """Whether xi pairs nonzero with every edge direction at every vertex."""
    xi = _direction(xi, p.dim)
    for edges in p.edges:
        for _, d in edges:
            if sum(map(mul, xi, d)) == 0:
                return False
    return True


def poincare_polynomial(p: LabeledPolytope, xi) -> tuple:
    """Even Betti numbers as a coefficient tuple of length 2*dim + 1.

    Entry k is the number of vertices of index k (odd entries are zero).
    The result is independent of the choice of generic xi.
    """
    return morse_report(p, xi).poincare


def morse_report(p: LabeledPolytope, xi) -> MorseReport:
    """Index of every vertex and the Poincare coefficients for a generic xi.

    Each edge is paired with xi once; a zero pairing means xi is not generic
    and raises ValueError.
    """
    xi = _direction(xi, p.dim)
    indices = []
    for edges in p.edges:
        pairings = [sum(map(mul, xi, d)) for _, d in edges]
        if 0 in pairings:
            raise ValueError(f"xi = {format_point(xi)} is not generic for this polytope")
        indices.append(2 * sum(1 for x in pairings if x < 0))
    coeffs = [0] * (2 * p.dim + 1)
    for k in indices:
        coeffs[k] += 1
    return MorseReport(vertex_indices=tuple(indices), poincare=tuple(coeffs))


def h_vector(p: LabeledPolytope) -> tuple:
    """h_k = sum_{j >= k} (-1)^(j-k) C(j, k) f_j (f_j the number of j-faces),
    which for a simple polytope is the Betti number in degree 2k."""
    f = [0] * (p.dim + 1)
    for face in p.faces:
        f[p.dim - face.codim] += 1
    return tuple(sum((-1) ** (j - k) * comb(j, k) * f[j] for j in range(k, p.dim + 1))
                 for k in range(p.dim + 1))


def random_generic_direction(p: LabeledPolytope, rng: random.Random) -> tuple:
    """Draw a generic integer direction; widens the range until one is found."""
    bound = 9
    for attempt in range(10_000):
        if attempt and attempt % 100 == 0:
            bound *= 2
        xi = tuple(rng.randint(-bound, bound) for _ in range(p.dim))
        if any(xi) and is_generic(p, xi):
            return xi
    raise RuntimeError(f"could not find a generic direction in dimension {p.dim} for "
                       f"{len(p.scaled_vertices[1])} vertices (last bound tried {bound})")
