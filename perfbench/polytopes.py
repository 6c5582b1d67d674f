"""Seeded polytope generators that carry their own closed-form answers.

Every generator builds the halfspaces *and* the expected vertices, f-vector,
Poincare coefficients and vertex groups from the construction itself, never
from labpoly, so the benchmark can check the program's output against an
independent oracle.  Only exact integers and Fractions are used.

Closed forms used:

* k-gon: k vertices, f = (k, k, 1), Poincare (1, k-2, 1);
* simplex: f_i = C(n+1, i+1), Poincare all ones;
* interval: f = (2, 1), Poincare (1, 1);
* product: vertices are pairs, f-polynomials and Poincare polynomials
  multiply (convolution), vertex groups are direct sums;
* unimodular + translate + dilate variant with the same labels: the same
  f-vector, Poincare coefficients and groups as its base;
* facet group Z/m; vertex group Z^n / span(m_i y_i), which is Z/gcd x Z/(det/gcd)
  for a polygon vertex and the invariant factors of diag(m) at a vertex whose
  normals form a lattice basis (boxes, simplices and their products).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian


@dataclass(frozen=True)
class Spec:
    """A generated labeled polytope and what labpoly must report for it.

    ``halfspaces`` are (normal, offset, label) triples in facet order;
    ``vertex_cyclic`` maps each vertex to a list of cyclic orders whose direct
    sum is the vertex's structure group (normalized by :func:`invariant_factors`).
    """

    name: str
    dim: int
    halfspaces: tuple
    vertices: tuple           # sorted Fraction tuples
    fvector: tuple            # f_0 .. f_dim (f_dim = 1, the polytope itself)
    betti: tuple              # b_0, b_2, ..., b_2dim
    vertex_cyclic: dict       # vertex -> tuple of cyclic orders

    @property
    def labels(self) -> list:
        return [h[2] for h in self.halfspaces]

    @property
    def poincare(self) -> list:
        out = [0] * (2 * self.dim + 1)
        for k, b in enumerate(self.betti):
            out[2 * k] = b
        return out

    def active(self, v) -> tuple:
        return tuple(i for i, (y, eta, _) in enumerate(self.halfspaces)
                     if _dot(y, v) == eta)

    def vertex_group(self, v) -> tuple:
        return invariant_factors(self.vertex_cyclic[v])

    def facet_group(self, i) -> tuple:
        return invariant_factors((self.halfspaces[i][2],))

    def max_vertex_order(self) -> int:
        return max(math.prod(self.vertex_group(v)) for v in self.vertices)

    def to_json(self) -> dict:
        return {"dim": self.dim, "halfspaces": [
            {"normal": list(y), "offset": str(eta), "label": m}
            for y, eta, m in self.halfspaces]}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def invariant_factors(orders) -> tuple:
    """Invariant factors (each >= 2, dividing the next) of a sum of cyclic groups."""
    fs = [d for d in orders if d > 1]
    # Repeatedly replace a pair (a, b) by (gcd, lcm) until the chain divides.
    changed = True
    while changed:
        changed = False
        fs.sort()
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                a, b = fs[i], fs[j]
                if b % a:
                    g = math.gcd(a, b)
                    fs[i], fs[j] = g, a * b // g
                    changed = True
        fs = [d for d in fs if d > 1]
    return tuple(sorted(fs))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _primitive_int(vec):
    """Primitive integer vector on the ray of a rational vector."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * den) for x in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _spec(name, dim, halfspaces, vertices, fvector, betti, vertex_cyclic):
    return Spec(name, dim, tuple(halfspaces), tuple(sorted(vertices)),
                tuple(fvector), tuple(betti), dict(vertex_cyclic))


# ---------------------------------------------------------------------------
# base shapes
# ---------------------------------------------------------------------------

def polygon(k, labels, t0=0):
    """Convex k-gon with integer vertices (t, t^2), t = t0 .. t0+k-1.

    The points lie on a parabola, so all k are vertices and every edge is a
    facet; halfspaces are listed in the cyclic order of the edges.
    """
    pts = [(Fraction(t), Fraction(t * t)) for t in range(t0, t0 + k)]
    centroid = tuple(sum(p[j] for p in pts) / k for j in range(2))
    hs = []
    for j in range(k):
        a, b = pts[j], pts[(j + 1) % k]
        d = _primitive_int((b[0] - a[0], b[1] - a[1]))
        y = (-d[1], d[0])
        if _dot(y, centroid) < _dot(y, a):
            y = (d[1], -d[0])
        hs.append((y, _dot(y, a), labels[j]))
    cyclic = {}
    for j in range(k):
        v = pts[(j + 1) % k]
        (y1, _, m1), (y2, _, m2) = hs[j], hs[(j + 1) % k]
        rows = [[m1 * e for e in y1], [m2 * e for e in y2]]
        g = math.gcd(*rows[0], *rows[1])
        det = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
        cyclic[v] = (g, det // g)
    return _spec(f"polygon{k}", 2, hs, pts, (k, k, 1), (1, k - 2, 1), cyclic)


def interval(length, labels):
    lo, hi = Fraction(0), Fraction(length)
    hs = [((1,), lo, labels[0]), ((-1,), -hi, labels[1])]
    return _spec("interval", 1, hs, [(lo,), (hi,)], (2, 1), (1, 1),
                 {(lo,): (labels[0],), (hi,): (labels[1],)})


def simplex(n, scale, labels):
    """x_i >= 0, sum x_i <= scale; every vertex cone is unimodular."""
    hs = [(tuple(int(i == j) for j in range(n)), Fraction(0), labels[i])
          for i in range(n)]
    hs.append((tuple(-1 for _ in range(n)), Fraction(-scale), labels[n]))
    origin = tuple(Fraction(0) for _ in range(n))
    verts = [origin] + [tuple(Fraction(scale) * (i == j) for j in range(n))
                        for i in range(n)]
    fvec = tuple(math.comb(n + 1, i + 1) for i in range(n + 1))
    spec = _spec(f"simplex{n}", n, hs, verts, fvec, (1,) * (n + 1), {})
    for v in verts:
        spec.vertex_cyclic[v] = tuple(hs[i][2] for i in spec.active(v))
    return spec


def product(p, q):
    """Cartesian product; facets of p first, then those of q."""
    n, m = p.dim, q.dim
    hs = [(y + (0,) * m, eta, lab) for y, eta, lab in p.halfspaces]
    hs += [((0,) * n + y, eta, lab) for y, eta, lab in q.halfspaces]
    verts = [a + b for a, b in cartesian(p.vertices, q.vertices)]
    cyclic = {a + b: p.vertex_cyclic[a] + q.vertex_cyclic[b]
              for a, b in cartesian(p.vertices, q.vertices)}
    return _spec(f"{p.name}x{q.name}", n + m, hs, verts,
                 _convolve(p.fvector, q.fvector), _convolve(p.betti, q.betti),
                 cyclic)


def box(lengths, labels):
    """Product of intervals [0, l_i], facets (lower_i, upper_i) per axis."""
    spec = interval(lengths[0], labels[0:2])
    for i in range(1, len(lengths)):
        spec = product(spec, interval(lengths[i], labels[2 * i:2 * i + 2]))
    return Spec(f"box{len(lengths)}", spec.dim, spec.halfspaces, spec.vertices,
                spec.fvector, spec.betti, spec.vertex_cyclic)


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def variant(p, rng):
    """Image of p under x -> s D (U x + t), labels kept.

    U = I + the superdiagonal is a fixed shear, t_k = (k+2)/3, s = 3/2, and
    D is a diagonal matrix of signs drawn from ``rng``.  Flipping the sign of
    a coordinate changes no size of any number and no pivot of an
    elimination, so the seed does not change the work; a coordinate
    permutation would, by up to a fifth on the 4-D input of ``wide``.
    With A = D U,
    <y, x> >= eta becomes <A^-T y, x'> >= s (eta + <A^-T y, D t>).
    """
    n = p.dim
    d = [rng.choice((-1, 1)) for _ in range(n)]
    a = [[d[i] * int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    # A^-1 = U^-1 D with (U^-1)_ij = (-1)^(j-i) for j >= i
    ainv = [[(-1) ** (j - i) * d[j] if j >= i else 0 for j in range(n)]
            for i in range(n)]
    t = [d[k] * Fraction(k + 2, 3) for k in range(n)]
    s = Fraction(3, 2)
    hs = []
    for y, eta, lab in p.halfspaces:
        y2 = tuple(sum(ainv[i][k] * y[i] for i in range(n)) for k in range(n))
        hs.append((y2, s * (eta + _dot(y2, t)), lab))

    def image(v):
        return tuple(s * (sum(a[k][i] * v[i] for i in range(n)) + t[k])
                     for k in range(n))

    cyclic = {image(v): c for v, c in p.vertex_cyclic.items()}
    return _spec(f"{p.name}~", n, hs, [image(v) for v in p.vertices],
                 p.fvector, p.betti, cyclic)


def translate(p, t):
    """p + t; compare must report exactly this translation.

    Only used as the second file of ``compare``, so no groups are recorded.
    """
    hs = [(y, eta + _dot(y, t), lab) for y, eta, lab in p.halfspaces]
    verts = [tuple(x + c for x, c in zip(v, t)) for v in p.vertices]
    return _spec(p.name + "+t", p.dim, hs, verts, p.fvector, p.betti, {})


def relabel(p, labels):
    """Same shape and fan, other labels: not symplectomorphic to p.

    Only used as the second file of ``compare``, so no groups are recorded.
    """
    hs = [(y, eta, lab) for (y, eta, _), lab in zip(p.halfspaces, labels)]
    return _spec(p.name + "@", p.dim, hs, p.vertices, p.fvector, p.betti, {})


# ---------------------------------------------------------------------------
# rejected inputs: (json object or raw text, exit code, stderr prefix)
# ---------------------------------------------------------------------------

def pyramid(k, labels):
    """Pyramid of height 1 over ``polygon(k, labels)``, k >= 4.

    The apex sits over the interior lattice point (1, 2) of the base, so all
    normals are integral; the apex lies on all k side facets and validation
    fails with "not simple" there.
    """
    base = polygon(k, labels)
    c = (1, 2)
    hs = [{"normal": [0, 0, 1], "offset": "0", "label": 1}]
    for y, eta, lab in base.halfspaces:
        a = eta - _dot(y, c)           # facet through the apex (c, 1)
        hs.append({"normal": [y[0], y[1], int(a)], "offset": str(eta),
                   "label": lab})
    return {"dim": 3, "halfspaces": hs}


def with_redundant(p, normal):
    """p plus a halfspace slack at every vertex (a new, primitive normal)."""
    lo = min(_dot(normal, v) for v in p.vertices) - 1
    obj = p.to_json()
    obj["halfspaces"].append({"normal": list(normal), "offset": str(lo),
                              "label": 1})
    return obj


MALFORMED = (
    ("bad_json", '{"dim": 2, "halfspaces": [', 2, "error: invalid JSON"),
    ("missing_dim", {"halfspaces": []}, 2, "error: missing key 'dim'"),
    ("non_integer_normal",
     {"dim": 1, "halfspaces": [{"normal": [0.5], "offset": "0", "label": 1}]},
     2, "error: halfspace 0: normal must be a list of integers"),
    ("bad_offset",
     {"dim": 1, "halfspaces": [{"normal": [1], "offset": "x/y", "label": 1},
                               {"normal": [-1], "offset": "-1", "label": 1}]},
     2, "error: halfspace 0: bad offset"),
    ("too_few_facets",
     {"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": "0", "label": 1},
                               {"normal": [0, 1], "offset": "0", "label": 1}]},
     1, "error: unbounded"),
    ("unbounded_ray",
     {"dim": 2, "halfspaces": [{"normal": [1, 0], "offset": "0", "label": 1},
                               {"normal": [0, 1], "offset": "0", "label": 1},
                               {"normal": [1, -1], "offset": "-1", "label": 1}]},
     1, "error: unbounded in direction"),
    ("empty",
     {"dim": 1, "halfspaces": [{"normal": [1], "offset": "1", "label": 1},
                               {"normal": [-1], "offset": "0", "label": 1}]},
     1, "error: not full-dimensional: the polytope is empty"),
    ("zero_label",
     {"dim": 1, "halfspaces": [{"normal": [1], "offset": "0", "label": 0},
                               {"normal": [-1], "offset": "-1", "label": 1}]},
     1, "error: label < 1 on facet 0"),
)
