"""Labeled rational simple polytopes.

A labeled polytope is a full-dimensional compact convex polytope cut out by
halfspaces <beta, y_i> >= eta_i with primitive integer inward normals y_i,
rational offsets eta_i, and a positive integer label m_i attached to each
facet.  "Simple" means exactly n facets meet at every vertex.

:func:`validate` is the only constructor that should be used: it checks all
of the above exactly (no floating point) and keeps the walk's integer vertex
table, edges and basis determinants; the face lattice is built on first read.
Faces are named by the sorted tuple of facet indices tight on them; the
facet order of the input is preserved as the canonical indexing everywhere.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import mul

from .lattice import (
    _ints,
    common_denominator,
    dot,
    format_rational,
    parse_rational,
    primitive_vector,
)


class ValidationError(ValueError):
    """The input fails to be a labeled rational simple polytope."""


class FormatError(ValueError):
    """The input file or object does not match the polytope JSON schema."""


class HalfSpace(namedtuple("HalfSpace", "normal offset label")):
    """One labeled facet inequality <beta, normal> >= offset."""

    __slots__ = ()


class Face(namedtuple("Face", "active vertices")):
    """A face, recorded by the facets tight on it and the vertices in it.

    ``active`` is the sorted tuple of facet indices; its length is the
    codimension.  The empty tuple is the polytope itself.
    """

    __slots__ = ()

    @property
    def codim(self) -> int:
        return len(self.active)


class LabeledPolytope(namedtuple("LabeledPolytope",
                                 "dim halfspaces scaled_vertices edges determinants")):
    """A validated labeled polytope, holding what the vertex walk proved; build
    it with :func:`validate`.  ``scaled_vertices`` is ``(D, numerators)``:
    vertex ``vi`` is the int tuple ``numerators[vi]`` over D, the lcm of all
    coordinate denominators (printed by :meth:`format_vertex`).  ``edges[vi]``
    holds one ``(facet, direction)`` pair per facet tight at vertex ``vi``, by
    facet index (so the tight facets are ``tuple(j for j, _ in edges[vi])``):
    the primitive integer direction of the edge that leaves that facet and
    stays on the others (so <y_j, d> > 0).  ``determinants[vi]`` is |det Y_v|
    for the tight normals Y_v: the scale d that the walk's fraction-free
    pivots keep for the dictionary there.  The walk does not certify d
    (:func:`_certify`); :func:`labpoly.delzant.face_groups` certifies each
    d = 1 it reads.  :attr:`faces`, :attr:`scaled_normals` and the Fraction
    tuples :attr:`vertices`, read by no command, are built on first read, so
    this class keeps a ``__dict__`` for its cached properties.
    """

    @cached_property
    def faces(self) -> tuple:
        """Every face, by (codimension, tight set); validate checked these tight sets."""
        return _face_lattice(self.dim, [tuple(j for j, _ in e) for e in self.edges])

    @cached_property
    def vertices(self) -> tuple:
        """Each vertex as a tuple of Fractions, formed from :attr:`scaled_vertices`."""
        den, points = self.scaled_vertices
        return tuple(tuple(Fraction(x, den) for x in w) for w in points)

    @cached_property
    def scaled_normals(self) -> tuple:
        """The rows m_i * y_i, one per facet, for :mod:`labpoly.delzant`."""
        return tuple(tuple(h.label * x for x in h.normal) for h in self.halfspaces)

    def proper_faces(self) -> tuple:
        """Every face but the polytope itself, which :attr:`faces` lists first."""
        return self.faces[1:]

    def format_vertex(self, vi) -> str:
        """:func:`format_point` of vertex ``vi``, read off the integer table."""
        return format_point(self.scaled_vertices[1][vi], self.scaled_vertices[0])


def format_point(point, den=1) -> str:
    """``(x, ...)``, each x by :func:`format_rational` (an int over ``den``)."""
    return "(" + ", ".join(format_rational(x, den) for x in point) + ")"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(dim, halfspaces) -> LabeledPolytope:
    """Check the data and build a LabeledPolytope, or raise ValidationError.

    ``halfspaces`` is an iterable of HalfSpace or (normal, offset, label)
    triples.  Normals must have integer entries and offsets must be exact
    (int, Fraction or a rational string; a float is rejected): an int or a
    Fraction is taken as it is, and only any other offset is parsed, by
    :func:`labpoly.lattice.parse_rational`.  Non-primitive
    normals are divided down (with the offset scaled to keep the same
    halfspace) and a warning is issued.  Checks, in order: labels >= 1,
    nonzero integer normals, no duplicate normals; at least n + 1 facets and
    normals of rank n (the walk's first pivots), else "unbounded"; a
    recession ray, sought when phase 1 proves P empty or the walk meets an
    unblocked edge (:func:`_check_bounded`); nonempty; full-dimensional,
    simple at every vertex, no redundant facet.

    It keeps the walk's integer vertex table and edges (:func:`_walk`), no faces.
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError("dimension must be a positive integer")

    hs = []
    for i, (normal, offset, label) in enumerate(halfspaces):
        if not isinstance(label, int) or isinstance(label, bool):
            raise ValidationError(f"label must be an integer on facet {i}")
        if label < 1:
            raise ValidationError(f"label < 1 on facet {i}")
        try:
            normal = _ints(normal)
        except ValueError:
            raise ValidationError(f"normal of facet {i} must have integer entries") from None
        if len(normal) != dim:
            raise ValidationError(f"normal of facet {i} has length {len(normal)}, expected {dim}")
        if not any(normal):
            raise ValidationError(f"zero normal on facet {i}")
        if isinstance(offset, (float, bool)):
            raise ValidationError(
                f"offset of facet {i} must be exact (int, Fraction or 'p/q'), "
                f"got {offset!r}")
        if not isinstance(offset, Fraction):
            offset = Fraction(offset) if isinstance(offset, int) else parse_rational(offset)
        g = math.gcd(*normal)
        if g > 1:
            warnings.warn(f"facet {i}: normal {format_point(normal)} is not primitive, "
                          f"dividing by {format_rational(g)}")
            offset = offset / g
            normal = tuple(e // g for e in normal)
        hs.append(HalfSpace(normal, offset, label))

    seen = {}
    for i, h in enumerate(hs):
        if h.normal in seen:
            raise ValidationError(
                f"redundant halfspace {i}: same normal as facet {seen[h.normal]}")
        seen[h.normal] = i

    if len(hs) < dim + 1:
        raise ValidationError("unbounded")
    walked = _walk(dim, hs)
    if walked is None:
        _check_bounded([h.normal for h in hs], dim)
        raise ValidationError("not full-dimensional: the polytope is empty")
    scaled_vertices, active_sets, edges, determinants = walked
    _check_vertices(dim, len(hs), scaled_vertices, active_sets)
    return LabeledPolytope(dim, tuple(hs), scaled_vertices, edges, determinants)


def _walk(dim, hs):
    """(vertex table, tight sets, edges, determinants) by pivoting over the vertex graph, or None.

    Lexicographic pivoting: offset eta_i is read as eta_i - eps^(i+1) for a
    tiny eps > 0.  The perturbed polytope contains P, has its recession cone
    and is simple; its vertices are the lex-feasible bases, the dim-subsets B
    whose basic solution leaves each other facet a lexicographically positive
    slack row (:func:`_perturbed_row`).  Each is a vertex of P at eps = 0, and
    every vertex of P is one (minimize a functional that P minimizes only
    there).  Offsets are scaled to a common denominator once, so everything
    runs on integers, in one dictionary per basis that a single
    fraction-free :func:`_pivot` carries to the next.  The dictionary is kept
    by columns, so each step below reads one column: the slacks and tight
    set, an edge's rates and direction, the vertex numerators.

    The start: :func:`_eliminate` pivots n independent facets into the basis,
    and :func:`_phase_one` moves from there to a lex-feasible basis, or
    returns None when there is none, that is when P is empty.  At a basis,
    the column of the dictionary's ``adj`` for facet j of B keeps the rest of
    B tight and raises facet j's slack: the edge that leaves facet j, with
    every facet's rate along it in the same column.  An exact ratio test,
    ties broken on the slack rows, finds the facet i that blocks it, and
    B - {j} + {i} is lex-feasible again; its dictionary is one pivot from
    this one, made when it is taken off the stack.  At a basis reached by
    pivoting facet i in for facet j, the edge that leaves i goes back to that
    parent basis, already seen: the lexicographic pivot is reversible, so
    the ratio test there would name j, and it is not run; the edge's
    direction is still kept: ``adj``'s column over its gcd, with no boundary
    check (:func:`labpoly.lattice._ints`) on the ints the pivots made.  Each
    dictionary is checked against the input (:func:`_certify`).  Each vertex
    of P is kept once, with all facets of zero slack as its tight set (for
    :func:`_check_vertices`) and d = |det Y_B| (:func:`_pivot`).  It is
    ``num / (d * scale)``: the sorted table ``(D, numerators)`` holds each
    ``num`` times lcm(d) / d over lcm(d) * scale, all over their gcd.

    An unblocked edge is a recession direction, so :func:`_check_bounded`,
    phase 1 on the recession cone, must then name a ray; RuntimeError if it
    does not.  If every edge is blocked, the perturbed polytope is bounded,
    by the simplex-method argument: the edges at a simple vertex span its
    tangent cone, so for a functional unbounded above some edge increases
    it; that edge ends at a visited vertex with a strictly larger value (no
    perturbed step is zero), and finitely many vertices cannot go on
    forever.  So P, with the same recession cone, is bounded, and the same
    path for a functional maximized at one perturbed vertex only shows that
    the walk reaches every perturbed vertex.
    """
    normals = [h.normal for h in hs]
    scale, offsets = common_denominator(h.offset for h in hs)
    start = _phase_one(_eliminate(dim, normals, offsets))
    if start is None:
        return None

    n_facets = len(hs)
    found = {}
    seen = {frozenset(start[1])}
    todo = [(start, None, None)]
    while todo:
        dictionary, arrival, entering = todo.pop()
        if arrival is not None:
            dictionary = _pivot(dictionary, arrival, entering)
        _certify(dictionary, normals, offsets)
        d, basis, cols = dictionary
        here = frozenset(basis)
        edges = []
        for col in sorted(range(dim), key=basis.__getitem__):
            j = basis[col]
            rates = cols[col]
            direction = rates[n_facets:]
            g = math.gcd(*direction)
            edges.append((j, tuple(direction) if g <= 1 else tuple([x // g for x in direction])))
            if col == arrival:  # the edge back to the parent basis
                continue
            best = _ratio_test(dictionary, col, [i for i in range(n_facets) if rates[i] < 0])
            if best is None:
                _check_bounded(normals, dim)
                raise RuntimeError(f"vertex walk: no facet blocks the edge leaving facet {j} "
                                   f"at basis {tuple(sorted(basis))}, yet no recession ray "
                                   f"was found")
            neighbour = here - {j} | {best}
            if neighbour not in seen:
                seen.add(neighbour)
                todo.append((dictionary, col, best))
        slacks = cols[dim]
        tight = tuple([i for i in range(n_facets) if slacks[i] == 0])
        if tight not in found:  # a degenerate vertex is reached from several bases
            found[tight] = (d, slacks[n_facets:], tight, tuple(edges))

    # each vertex's numerators times one quotient lcm // d, over one denominator;
    # distinct vertices, so the sort never compares past the numerators
    lcm = math.lcm(*(d for d, *_ in found.values()))
    nums, tight_sets, vertex_edges, determinants = zip(*sorted(
        (list(map((lcm // d).__mul__, num)), tight, edges, d)
        for d, num, tight, edges in found.values()))
    g = math.gcd(lcm * scale, *(x for num in nums for x in num))
    points = tuple(tuple(num) if g == 1 else tuple([x // g for x in num]) for num in nums)
    return (lcm * scale // g, points), tight_sets, vertex_edges, determinants


def _pivot(dictionary, col, i):
    """The dictionary with facet i in place of ``basis[col]``: one fraction-free pivot.

    A dictionary is ``(d, basis, cols)``, the exact simplex dictionary of a
    basis in integers.  ``basis[c]`` is the facet tight in column c (None for
    a coordinate row during :func:`_eliminate`).  With A the basis normals as
    rows, ``d > 0`` and b the offsets times ``scale``, ``adj = d * A^-1`` and
    ``num = adj * b_B``, so the basic solution is ``v = num / (d * scale)``.
    Read by rows, it holds one row per facet i, ``y_i * adj`` followed by the
    slack ``<y_i, num> - d * b_i = d * scale * (<y_i, v> - eta_i)``, and then
    the n rows of ``[adj | num]``: N + n rows of n + 1 integers.  It is kept
    as its n + 1 columns of N + n integers, ``cols[c][r]`` being entry c of
    row r, so that a pivot is n + 1 passes over whole columns.

    Row i of the old dictionary is W.  The new determinant is ``|W[col]|``;
    column ``col`` keeps its entries, and an entry x in column b != col of a
    row whose entry in column ``col`` is x_col becomes
    ``(W[col] * x - x_col * W[b]) / d``, an exact division (both are minors of
    integer matrices); all of it negated if W[col] < 0, so that d stays
    positive.  At d = 1 the division is skipped, and the product by W[col]
    as well when W[col] = 1 too, as at every pivot between bases of
    determinant 1.  The slack and ``num`` column is updated as the others
    are: it is the dictionary's column of the homogenized system.
    O((N + n) * n).
    """
    d, basis, cols = dictionary
    pivot_col = cols[col]
    p = pivot_col[i]
    sign = 1 if p > 0 else -1
    p *= sign
    new_cols = []
    for b, column in enumerate(cols):
        w = sign * column[i]
        if b == col:
            new_cols.append(column if sign > 0 else [-x for x in column])
        elif not w:
            new_cols.append(column if p == d else
                            [p * x // d for x in column] if d > 1 else [p * x for x in column])
        elif d > 1:
            new_cols.append([(p * x - x_col * w) // d for x, x_col in zip(column, pivot_col)])
        elif p > 1:
            new_cols.append([p * x - x_col * w for x, x_col in zip(column, pivot_col)])
        else:
            new_cols.append([x - x_col * w for x, x_col in zip(column, pivot_col)])
    return p, basis[:col] + (i,) + basis[col + 1:], new_cols


def _eliminate(dim, normals, offsets):
    """A dictionary of n independent facets, by pivoting them in for the coordinate rows.

    It starts from x = 0 with the coordinate hyperplanes as the basis (A = I,
    d = 1, each facet row ``[y_i | -b_i]``).  Column c takes the first facet
    with a nonzero entry there; if there is none, every normal lies in the span
    of the other n - 1 basis rows, so the normals have rank < n and the input
    is unbounded.
    """
    cols = ([[y[c] for y in normals] + [int(r == c) for r in range(dim)] for c in range(dim)]
            + [[-b for b in offsets] + [0] * dim])
    dictionary = 1, (None,) * dim, cols
    for col in range(dim):
        column = dictionary[2][col]
        i = next((i for i in range(len(normals)) if column[i]), None)
        if i is None:
            raise ValidationError("unbounded")
        dictionary = _pivot(dictionary, col, i)
    return dictionary


def _phase_one(dictionary):
    """A lex-feasible dictionary reached from ``dictionary`` by pivoting, or None if P is empty.

    Lexicographic phase 1 (Dantzig, Orden & Wolfe): let S be the facets whose
    perturbed slack is lexicographically >= 0, and k the first one outside S.
    The basis is a vertex of the perturbed polyhedron P_S cut out by S.  An
    edge along which <y_k, .> grows is followed to the first facet of S or to
    k itself, whichever it meets first, and pivoted in; S only grows, and k
    joins it after finitely many steps, since no perturbed step is zero and
    <y_k, .> rises with each.  Such an edge always ends (facet k blocks it).
    If no edge raises <y_k, .>, the vertex maximizes it over P_S (the edges
    span the tangent cone), with a negative slack on k: P_S misses facet k's
    halfspace, so the perturbed polyhedron, and the P inside it, is empty.
    P is the input polytope, or the recession system of :func:`_check_bounded`.
    """
    n_facets = len(dictionary[2][0]) - len(dictionary[1])
    zero = [0] * (n_facets + 1)
    while True:
        _, basis, cols = dictionary
        slacks = cols[-1]
        outside = [i for i in range(n_facets) if slacks[i] < 0 or (
            slacks[i] == 0 and i not in basis
            and _perturbed_row(dictionary, i) < zero)]
        if not outside:
            return dictionary
        k = outside[0]
        col = next((c for c in range(len(basis)) if cols[c][k] > 0), None)
        if col is None:
            return None
        rates = cols[col]
        blockers = [i for i in range(n_facets) if rates[i] < 0 and i not in outside]
        dictionary = _pivot(dictionary, col, _ratio_test(dictionary, col, blockers + [k]))


def _ratio_test(dictionary, col, blockers):
    """The facet among ``blockers`` whose perturbed slack first reaches zero along column ``col``.

    As the edge leaving ``basis[col]`` is followed, facet i's slack changes
    at the rate ``cols[col][i]``: each blocker is a facet whose slack is
    lexicographically >= 0 and falls, or < 0 and rises (phase 1's target).
    It reaches zero after ``|slack / rate|``: compared by cross-multiplying,
    and a tie by the perturbed slack rows, which no two facets share.  None
    if ``blockers`` is empty.
    """
    cols = dictionary[2]
    rates, slacks = cols[col], cols[-1]
    best = best_rate = best_sign = None
    for i in blockers:
        rate = rates[i]
        sign = 1 if rate < 0 else -1
        rate *= -sign
        if best is not None:
            gap = sign * slacks[i] * best_rate - best_sign * slacks[best] * rate
            if gap > 0 or (gap == 0 and (
                    [sign * x * best_rate for x in _perturbed_row(dictionary, i)]
                    > [best_sign * x * rate for x in _perturbed_row(dictionary, best)])):
                continue
        best, best_rate, best_sign = i, rate, sign
    return best


def _perturbed_row(dictionary, i):
    """Facet i's slack, with offsets eta_k read as eta_k - eps^(k+1).

    Coefficients of 1, eps, eps^2, ... in the units of the dictionary's slack
    column, read off its row i with no product: lowering eta_k adds
    ``d * eps^(k+1)`` on facet k and, for k in the basis, moves the vertex by
    ``-eps^(k+1)`` times its edge column, which changes facet i's slack by
    ``-cols[column of k][i] * eps^(k+1)``.  Small slacks compare as the rows
    do lexicographically; a basic facet's row is zero.
    """
    d, basis, cols = dictionary
    n = len(basis)
    row = [cols[n][i]] + [0] * (len(cols[n]) - n)
    row[i + 1] = d
    for k, column in zip(basis, cols):
        row[k + 1] -= column[i]
    return row


def _certify(dictionary, normals, offsets):
    """Check a basis's dictionary against the input, exactly, in O(n^2).

    Each basis row must read ``d * e_c`` with zero slack, and the basic
    solution must satisfy ``Y_B * num = d * b_B``.  :func:`_pivot` maps
    every row by one linear map, so facet j's row stays ``y_j * adj`` with
    its slack, and the first check is ``Y_B * adj = d * I``, read off those
    rows: the input normals never meet adj, so d is not pinned.  Each
    <y_j, num> pairs two vectors of length n, a validated normal and the
    walk's own column, so no length check runs per basis.  Raises
    RuntimeError naming the basis; an ``assert`` would vanish under
    ``python -O``.
    """
    d, basis, cols = dictionary
    num = cols[-1][len(normals):]
    unit = [0] * len(cols)
    for c, j in enumerate(basis):
        unit[c] = d
        if [column[j] for column in cols] != unit:
            raise RuntimeError(f"vertex walk: row {j} of the dictionary at basis "
                               f"{tuple(sorted(basis))} is not d * e_{c}")
        unit[c] = 0
        if sum(map(mul, normals[j], num)) != d * offsets[j]:
            raise RuntimeError(f"vertex walk: the basic solution at basis "
                               f"{tuple(sorted(basis))} misses facet {j}")


def _check_vertices(dim, n_facets, scaled_vertices, active_sets):
    """Full dimension, simplicity and irredundancy, given the vertex table.  P
    is bounded and nonempty here, so it is flat exactly when some facet
    inequality is an implicit equality: tight at every vertex."""
    if set.intersection(*map(set, active_sets)):
        raise ValidationError("not full-dimensional")

    for w, act in zip(scaled_vertices[1], active_sets):
        if len(act) != dim:
            raise ValidationError(f"not simple at vertex {format_point(w, scaled_vertices[0])}")

    tight_somewhere = set().union(*active_sets)
    for i in range(n_facets):
        if i not in tight_somewhere:
            raise ValidationError(f"redundant halfspace {i}")


def _face_lattice(dim, active_sets):
    """Faces by (codimension, tight set) from the vertices' tight sets: a dict per codimension."""
    by_codim = [{} for _ in range(dim + 1)]
    for vi, act in enumerate(active_sets):
        for r, faces in enumerate(by_codim):
            for sub in combinations(act, r):
                faces.setdefault(sub, []).append(vi)
    return tuple(Face(key, tuple(vs)) for faces in by_codim for key, vs in sorted(faces.items()))


def _check_bounded(normals, dim):
    """Raise "unbounded in direction d" for a nonzero integer d with all <y_i, d> >= 0.

    The normals have rank n here (:func:`_eliminate` has pivoted n of them
    in), so a nonzero d with every <y_i, d> >= 0 has <s, d> > 0 for
    s = sum_i y_i.  The recession cone {d : <y_i, d> >= 0} is therefore
    nontrivial exactly when {d : <y_i, d> >= 0, <s, d> >= 1} is nonempty, and
    :func:`_phase_one` decides that on the dictionary of this system; the
    basic solution it ends at is a ray, checked exactly against every normal
    (RuntimeError if it fails).
    """
    s = tuple(map(sum, zip(*normals)))
    dictionary = _phase_one(_eliminate(dim, [*normals, s], [0] * len(normals) + [1]))
    if dictionary is None:
        return
    ray = primitive_vector(dictionary[2][dim][-dim:])
    if not any(ray) or any(dot(y, ray) < 0 for y in normals):
        raise RuntimeError(f"recession phase 1: the basic solution {format_point(ray)} "
                           f"is not a recession ray")
    raise ValidationError(f"unbounded in direction {format_point(ray)}")


# ---------------------------------------------------------------------------
# isomorphism (translation preserving normals, offsets pattern, labels)
# ---------------------------------------------------------------------------

def isomorphism_report(p: LabeledPolytope, q: LabeledPolytope):
    """(translation, reason) if q = p + c facet-wise with equal labels.

    The translation c solves <c, y_j> = Delta eta_j on the facets tight at
    vertex 0; the walk's edges e_j there have <y_i, e_j> = 0 for i != j, so
    c = sum_j (Delta eta_j / <y_j, e_j>) e_j.  Returns (None, reason) when the
    polytopes are not isomorphic.  Facets are matched by their primitive
    normal, which is well-defined because duplicate normals are rejected.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    pmap = {h.normal: i for i, h in enumerate(p.halfspaces)}
    qmap = {h.normal: i for i, h in enumerate(q.halfspaces)}
    if set(pmap) != set(qmap):
        return None, "facet normal sets differ"
    steps = [(q.halfspaces[qmap[p.halfspaces[j].normal]].offset - p.halfspaces[j].offset,
              dot(p.halfspaces[j].normal, e), e) for j, e in p.edges[0]]
    c = tuple(sum(delta / rate * e[k] for delta, rate, e in steps) for k in range(p.dim))
    for i, h in enumerate(p.halfspaces):
        j = qmap[h.normal]
        if q.halfspaces[j].offset != h.offset + dot(c, h.normal):
            return None, "offsets do not differ by a translation"
    for i, h in enumerate(p.halfspaces):
        j = qmap[h.normal]
        if q.halfspaces[j].label != h.label:
            # str(h.normal) at any size: a 1-D normal reads (1,)
            normal = ", ".join(map(format_rational, h.normal)) + "," * (p.dim == 1)
            return None, f"labels differ on the facet with normal ({normal})"
    return c, "translation"


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def polytope_from_json(obj) -> LabeledPolytope:
    """Build and validate a polytope from the JSON object format.

    Expected shape::

        {"dim": n,
         "halfspaces": [{"normal": [..ints..], "offset": "p/q", "label": m}, ...]}

    Offsets may be JSON integers or rational strings.  Schema problems raise
    FormatError; geometric problems raise ValidationError.
    """
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON value must be an object")
    try:
        dim = obj["dim"]
        raw_list = obj["halfspaces"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FormatError('"dim" must be an integer')
    if not isinstance(raw_list, list):
        raise FormatError('"halfspaces" must be a list')
    triples = []
    for i, entry in enumerate(raw_list):
        if not isinstance(entry, dict):
            raise FormatError(f"halfspace {i} must be an object")
        try:
            normal = entry["normal"]
            offset = entry["offset"]
            label = entry["label"]
        except KeyError as exc:
            raise FormatError(f"halfspace {i}: missing key {exc}") from exc
        if not isinstance(normal, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in normal):
            raise FormatError(f"halfspace {i}: normal must be a list of integers")
        if not isinstance(label, int) or isinstance(label, bool):
            raise FormatError(f"halfspace {i}: label must be an integer")
        try:
            offset = parse_rational(offset)
        except ValueError as exc:
            raise FormatError(f"halfspace {i}: bad offset: {exc}") from exc
        triples.append((tuple(normal), offset, label))
    return validate(dim, triples)


def load_polytope(path) -> LabeledPolytope:
    """Read and validate a polytope JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # a ValueError, but a parse error here
            raise FormatError(f"file is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    return polytope_from_json(obj)
