"""Betti numbers of the space above a labeled polytope, Morse-style.

A generic direction xi (one pairing nonzero with every edge direction) turns
the vertex set into critical points; the index of a vertex is twice the
number of its edges on which xi decreases.  Counting vertices by index gives
the Poincare coefficients directly, in every case even degrees only.  xi must
have integer entries; anything else raises ValueError.

:func:`h_vector` reads the same numbers off the face lattice alone.

``morse_inequality_check`` implements the classical comparison between a
Morse counting polynomial M and a Poincare polynomial P: the pair is
consistent exactly when M - P = (1 + x) Q with Q having nonnegative integer
coefficients, and the function returns Q or None.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .lattice import dot, matrix
from .polytope import LabeledPolytope, edge_directions


@dataclass(frozen=True)
class MorseReport:
    xi: tuple
    vertex_indices: tuple  # index (an even integer) per vertex, vertex order
    poincare: tuple        # coefficient list, degree 0 .. 2*dim


def _direction(xi) -> tuple:
    """xi as a tuple of ints; a float, bool or fractional entry, or xi = 0, raises."""
    try:
        (xi,) = matrix((tuple(xi),))
    except ValueError as exc:
        raise ValueError(f"xi must have integer entries ({exc})") from None
    if not any(xi):
        raise ValueError("xi must be nonzero")
    return xi


def is_generic(p: LabeledPolytope, xi) -> bool:
    """Whether xi pairs nonzero with every edge direction at every vertex."""
    xi = _direction(xi)
    for vi in range(len(p.vertices)):
        for _, d in edge_directions(p, vi):
            if dot(xi, d) == 0:
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
    xi = _direction(xi)
    indices = []
    for vi in range(len(p.vertices)):
        pairings = [dot(xi, d) for _, d in edge_directions(p, vi)]
        if 0 in pairings:
            raise ValueError(f"xi = {xi} is not generic for this polytope")
        indices.append(2 * sum(1 for x in pairings if x < 0))
    coeffs = [0] * (2 * p.dim + 1)
    for k in indices:
        coeffs[k] += 1
    return MorseReport(xi=xi, vertex_indices=tuple(indices), poincare=tuple(coeffs))


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
        xi = tuple(rng.randint(-bound, bound) for _ in range(p.dim))
        if any(xi) and is_generic(p, xi):
            return xi
        if attempt % 100 == 99:
            bound *= 2
    raise RuntimeError("could not find a generic direction")


def morse_inequality_check(m_coeffs, p_coeffs):
    """Quotient Q of (M - P) by (1 + x) if it exists with Q >= 0, else None.

    M dominates P in the Morse sense exactly when the difference is divisible
    by 1 + x with nonnegative coefficients.  Zero difference returns ().
    """
    m = list(m_coeffs)
    p = list(p_coeffs)
    size = max(len(m), len(p))
    m += [0] * (size - len(m))
    p += [0] * (size - len(p))
    r = [a - b for a, b in zip(m, p)]
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return ()
    if len(r) == 1:
        return None  # nonzero constant is not divisible by 1 + x
    q = []
    carry = 0
    for i in range(len(r) - 1):
        coeff = r[i] - carry
        q.append(coeff)
        carry = coeff
    if carry != r[-1]:
        return None  # remainder: not divisible
    if any(c < 0 for c in q):
        return None
    while q and q[-1] == 0:
        q.pop()
    return tuple(q)
