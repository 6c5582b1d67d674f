"""Certificates for the printed face groups and Betti numbers.

Neither certificate calls a Smith or Hermite form, a saturation or a
quotient, so neither shares code with the routes it checks:

* **Divisibility.**  At a vertex v of a face F the tight normals are
  independent, so l_F meets the span of the scaled normals m_i y_i tight at v
  in exactly l-hat_F, and the group of F embeds in Z^n / <m_i y_i>.  Hence
  |Gamma_F| divides |det(m_i y_i : i tight at v)|, computed here by Fraction
  elimination.
* **h-vector.**  The even Betti numbers of the orbifold are the h-vector of
  the simple polytope, h_k = sum_{j >= k} (-1)^(j-k) C(j, k) f_j with f_j
  the number of j-dimensional faces (:func:`labpoly.morse.h_vector`, which
  ``verify`` also runs), and the h-vector is palindromic (Dehn-Sommerville).
"""

import random

import pytest

from labpoly.delzant import face_groups
from labpoly.morse import h_vector, morse_report, random_generic_direction

from corpus import det_rational, generated_family, standard_corpus

CASES = standard_corpus() + generated_family()
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("name,p", CASES, ids=IDS)
def test_face_group_orders_divide_vertex_determinants(name, p):
    dets = {}
    for v in (f for f in p.faces if f.codim == p.dim):
        rows = [tuple(p.halfspaces[i].label * y for y in p.halfspaces[i].normal)
                for i in v.active]
        dets[v.vertices[0]] = abs(det_rational(rows))
    assert all(dets.values())  # every order divides 0
    for face, group in face_groups(p):
        for vi in face.vertices:
            assert dets[vi] % group.order == 0, (face.active, vi, str(group))


@pytest.mark.parametrize("name,p", CASES, ids=IDS)
def test_h_vector_is_the_even_poincare_coefficients(name, p):
    h = h_vector(p)
    assert h == h[::-1]
    xi = random_generic_direction(p, random.Random(name))
    assert h == morse_report(p, xi).poincare[0::2]
