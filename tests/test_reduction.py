"""The integer vertex check of the reduction identities against a Fraction reference.

``reference_verify`` is the same check in Fractions: slacks summed column by
column, j* as a Fraction dot product.  The integer route in
:mod:`labpoly.delzant` must agree with it on every polytope of the corpus and
the generated family, intact and corrupted: the same verdicts and the same
messages.  The Fraction pairing also runs at points that are not vertices,
the barycenter and seeded convex combinations of the vertices: the slacks are
affine, so the level that holds at the vertices must hold there too.
"""

from fractions import Fraction

import pytest

from labpoly.delzant import build_construction, verify_reduction_invariants
from labpoly.lattice import dot
from labpoly.polytope import format_point

from corpus import convex_combinations, generated_family, standard_corpus

POLYTOPES = standard_corpus() + generated_family()
IDS = [name for name, _ in POLYTOPES]


def reference_slacks(d, beta):
    return tuple(
        sum(d.projection[r][i] * Fraction(beta[r]) for r in range(len(d.projection)))
        - d.scaled_offsets[i]
        for i in range(len(d.projection[0])))


def reference_level(d, slacks):
    return tuple(dot(row, slacks) for row in d.kernel_rows)


def reference_verify(d, p):
    for v, edges in zip(p.vertices, p.edges):
        tight = tuple(j for j, _ in edges)
        s = reference_slacks(d, v)
        negative = [i for i, si in enumerate(s) if si < 0]
        zero_set = tuple(i for i, si in enumerate(s) if si == 0)
        if negative:
            return f"vertex {format_point(v)} has negative slack on facet {negative[0]}"
        if zero_set != tight:
            return (f"vertex {format_point(v)} has zero slacks {list(zero_set)}, "
                    f"tight facets {list(tight)}")
        if reference_level(d, s) != d.level:
            return f"vertex {format_point(v)} does not pair to the level"
    return None


def with_offset(d, i, shift):
    """``d`` with c_i moved by ``shift`` and the level recomputed from the new
    offsets, so that only the slacks at the vertices can show the change."""
    c = d.scaled_offsets[:i] + (d.scaled_offsets[i] + shift,) + d.scaled_offsets[i + 1:]
    return d._replace(scaled_offsets=c, level=tuple(-dot(row, c) for row in d.kernel_rows))


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_samples_and_report_match_reference(p):
    # the report on intact data; the samples are the barycenter and five
    # seeded convex combinations, where only the Fraction pairing runs
    d = build_construction(p)
    assert verify_reduction_invariants(d, p) is None
    assert reference_verify(d, p) is None
    center = tuple(sum(c) / Fraction(len(p.vertices)) for c in zip(*p.vertices))
    for beta in [center] + convex_combinations(p, 5, len(p.vertices)):
        s = reference_slacks(d, beta)
        assert min(s) >= 0
        assert reference_level(d, s) == d.level


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_outside_point_error_matches_reference(p):
    # raising c_i by less than any positive slack on facet i cuts exactly the
    # vertices on facet i off the polytope d describes
    d = build_construction(p)
    slacks = [reference_slacks(d, v) for v in p.vertices]
    for i in range(len(p.halfspaces)):
        bad = with_offset(d, i, min(s[i] for s in slacks if s[i] > 0) / 2)
        failure = verify_reduction_invariants(bad, p)
        assert failure == reference_verify(bad, p)
        assert failure.endswith(f" has negative slack on facet {i}")


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_corrupted_level_matches_reference(p):
    d = build_construction(p)
    last = len(d.level) - 1
    first = p.vertices[0]  # the vertices are checked in order
    for wrong in (d.level[last] + Fraction(1, 3), d.level[last] / 7,
                  d.level[last] + 1):
        bad = d._replace(level=d.level[:last] + (wrong,))
        failure = verify_reduction_invariants(bad, p)
        assert failure == reference_verify(bad, p)
        assert failure == f"vertex {format_point(first)} does not pair to the level"
    short = d._replace(level=d.level[:last])
    assert verify_reduction_invariants(short, p) == reference_verify(short, p) is not None


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_corrupted_offset_matches_reference(p):
    d = build_construction(p)
    for i in range(len(p.halfspaces)):
        # lowering c_i lifts every vertex on facet i off it
        looser = with_offset(d, i, -Fraction(1, 2))
        failure = verify_reduction_invariants(looser, p)
        assert failure == reference_verify(looser, p)
        assert " has zero slacks " in failure
        # the same offsets with the built level: whichever check sees it first
        for shift in (Fraction(-1, 2), Fraction(1, 2)):
            bad = with_offset(d, i, shift)._replace(level=d.level)
            assert verify_reduction_invariants(bad, p) == reference_verify(bad, p) is not None
