"""The integer reduction-identity check against the Fraction reference.

``reference_*`` below is the Fraction route the check used to take: slacks
summed column by column in Fractions, j* as a Fraction dot product, and the
sample points as Fraction sums over the vertices.  The integer route in
:mod:`labpoly.delzant` must agree with it on every polytope of the corpus and
the generated family: the same points, the same reports, the same errors.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from labpoly.delzant import (
    ReductionReport,
    build_construction,
    convex_samples,
    verify_reduction_invariants,
)
from labpoly.lattice import dot
from labpoly.polytope import format_point

from corpus import generated_family, standard_corpus

SAMPLES = 25

POLYTOPES = standard_corpus() + generated_family()
IDS = [name for name, _ in POLYTOPES]


def reference_sample_point(d, beta):
    beta = tuple(Fraction(x) for x in beta)
    s = tuple(
        sum(d.projection[r][i] * beta[r] for r in range(len(d.projection)))
        - d.scaled_offsets[i]
        for i in range(d.num_facets))
    for i, si in enumerate(s):
        if si < 0:
            raise ValueError(
                f"point {format_point(beta)} is outside the polytope: "
                f"violates facet {i}")
    return s


def reference_moment_level(d, slacks):
    return tuple(dot(row, slacks) for row in d.kernel_rows)


def reference_verify(d, p, samples):
    count = 0
    for beta in samples:
        s = reference_sample_point(d, beta)
        if reference_moment_level(d, s) != d.level:
            return ReductionReport(
                passed=False, samples_checked=count,
                failure=f"moment level mismatch at sample {format_point(beta)}")
        count += 1
    for f in p.vertex_faces():
        v = p.vertices[f.vertices[0]]
        s = reference_sample_point(d, v)
        zero_set = tuple(i for i, si in enumerate(s) if si == 0)
        if zero_set != f.active:
            return ReductionReport(
                passed=False, samples_checked=count,
                failure=f"vertex {format_point(v)} has zero slacks "
                        f"{list(zero_set)}, tight facets {list(f.active)}")
    return ReductionReport(passed=True, samples_checked=count, failure=None)


def reference_convex_samples(p, count, seed):
    rng = random.Random(seed)
    out = []
    nv = len(p.vertices)
    for _ in range(count):
        weights = [rng.randint(0, 9) for _ in range(nv)]
        total = sum(weights)
        if total == 0:
            weights[rng.randrange(nv)] = 1
            total = 1
        out.append(tuple(
            sum(Fraction(w) * v[j] for w, v in zip(weights, p.vertices)) / total
            for j in range(p.dim)))
    return out


def outcome(check, *args):
    """A check's return value, or the type and text of the error it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_samples_and_report_match_reference(p):
    d = build_construction(p)
    seed = len(p.vertices)
    samples = convex_samples(p, SAMPLES, seed)
    assert samples == reference_convex_samples(p, SAMPLES, seed)
    assert all(isinstance(x, Fraction) for beta in samples for x in beta)
    rep = verify_reduction_invariants(d, p, samples)
    assert rep == reference_verify(d, p, samples)
    assert rep.passed and rep.samples_checked == SAMPLES
    # at the barycenter too: pairing its slacks is the route the kernel
    # certificate in build_construction replaced
    center = tuple(sum(c) / Fraction(len(p.vertices)) for c in zip(*p.vertices))
    for beta in samples[:5] + list(p.vertices) + [center]:
        assert reference_moment_level(d, reference_sample_point(d, beta)) == d.level
        rep = verify_reduction_invariants(d, p, [beta])
        assert rep == reference_verify(d, p, [beta]) and rep.passed


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_outside_point_error_matches_reference(p):
    d = build_construction(p)
    for f in p.vertex_faces()[:3]:
        v = p.vertices[f.vertices[0]]
        for i in f.active:
            out = tuple(x - y for x, y in zip(v, p.halfspaces[i].normal))
            want = outcome(reference_sample_point, d, out)
            assert want[0] is ValueError
            assert outcome(verify_reduction_invariants, d, p, [out]) == want
            samples = [p.vertices[0], out]
            assert outcome(verify_reduction_invariants, d, p, samples) == want


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_corrupted_level_matches_reference(p):
    d = build_construction(p)
    samples = convex_samples(p, 3, 1)
    last = len(d.level) - 1
    for wrong in (d.level[last] + Fraction(1, 3), d.level[last] / 7,
                  d.level[last] + 1):
        bad = replace(d, level=d.level[:last] + (wrong,))
        rep = verify_reduction_invariants(bad, p, samples)
        assert rep == reference_verify(bad, p, samples)
        assert not rep.passed
        assert rep.failure.startswith("moment level mismatch at sample ")
    short = replace(d, level=d.level[:last])
    assert verify_reduction_invariants(short, p, samples) == reference_verify(
        short, p, samples)


@pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=IDS)
def test_corrupted_offset_matches_reference(p):
    d = build_construction(p)
    samples = convex_samples(p, 3, 2)
    c = d.scaled_offsets
    looser = replace(d, scaled_offsets=(c[0] - Fraction(1, 2),) + c[1:])
    tighter = replace(d, scaled_offsets=(c[0] + Fraction(1, 2),) + c[1:])
    # no samples: only the vertex check can see the corruption
    rep = verify_reduction_invariants(looser, p, [])
    assert rep == reference_verify(looser, p, [])
    assert not rep.passed and "has zero slacks" in rep.failure
    want = outcome(reference_verify, tighter, p, [])
    assert want[0] is ValueError and "is outside the polytope" in want[1]
    assert outcome(verify_reduction_invariants, tighter, p, []) == want
    for bad in (looser, tighter):
        assert outcome(verify_reduction_invariants, bad, p, samples) == outcome(
            reference_verify, bad, p, samples)
