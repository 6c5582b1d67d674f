"""Acceptance gate: the eight binding criteria, all in exact arithmetic.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` or execute
this file directly to see them).  Every comparison is exact: there are no
tolerances anywhere.
"""

import json
import random
import sys
from fractions import Fraction

from labpoly.cli import main as cli_main
from labpoly.delzant import (
    build_construction,
    face_stabilizer,
    verify_reduction_invariants,
)
from labpoly.fan import build_fan
from labpoly.lattice import dot, smith_diagonal
from labpoly.local_model import structure_groups
from labpoly.morse import h_vector, poincare_polynomial, random_generic_direction

from corpus import (
    convex_combinations,
    cube,
    det,
    diagonal_form,
    face_by_active,
    interval,
    mat_mul,
    polytope_to_json,
    product,
    reference_smith_normal_form,
    square,
    standard_corpus,
    standard_simplex,
    t1,
    w2,
)

CRITERIA = []


def criterion(num, name):
    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")
        runner.__name__ = fn.__name__
        CRITERIA.append(runner)
        return runner
    return wrap


@criterion(1, "football facet structure groups")
def test_criterion_1_football_structure_groups():
    for n in range(1, 7):
        for m in range(1, 7):
            groups = {f.active: g for f, g in structure_groups(interval(n, m))}
            left, right = groups[(0,)], groups[(1,)]
            assert left.invariant_factors == ((n,) if n > 1 else ())
            assert right.invariant_factors == ((m,) if m > 1 else ())


@criterion(2, "stabilizer oracle equals structure group on the corpus")
def test_criterion_2_oracle_equivalence():
    corpus = standard_corpus()
    assert len(corpus) >= 50
    checked = 0
    for name, p in corpus:
        for f, g in structure_groups(p):
            a = face_stabilizer(p, f).invariant_factors
            b = g.invariant_factors
            assert a == b, (name, f.active, a, b)
            checked += 1
    assert checked > 200  # plenty of faces actually compared


@criterion(3, "manifold case: trivial groups and hand kernel components")
def test_criterion_3_manifold_case():
    smooth = [t1(), square(), cube(), standard_simplex(3),
              product(t1(), interval(1, 1))]
    for p in smooth:
        assert all(g.is_trivial for _, g in structure_groups(p))
        d = build_construction(p)
        assert d.component_group.is_trivial
    # hand-computed component groups of the kernel subgroup
    expectations = [
        (interval(1, 1), ()),
        (interval(2, 1), ()),
        (interval(2, 2), (2,)),
        (interval(6, 4), (2,)),
        (interval(6, 3), (3,)),
        (w2(), ()),
    ]
    for p, want in expectations:
        got = build_construction(p).component_group.invariant_factors
        assert got == want, (p.halfspaces, got, want)


@criterion(4, "weighted triangle: Z/2 vertex and fan rays")
def test_criterion_4_w2():
    p = w2()
    singular = face_by_active(p, (0, 2))
    assert p.vertices[singular.vertices[0]] == (0, 1)
    for f, g in structure_groups(p):
        assert g.invariant_factors == ((2,) if f == singular else ()), f.active
    assert {g for c in build_fan(p) for g in c} == {(1, 0), (0, 1), (-1, -2)}


@criterion(5, "label twin: not symplectomorphic, fans equal")
def test_criterion_5_label_twin():
    import tempfile
    from pathlib import Path

    import io
    from contextlib import redirect_stdout

    def run_cli(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        f1 = Path(tmp) / "t1.json"
        f2 = Path(tmp) / "t1_label2.json"
        f1.write_text(json.dumps(polytope_to_json(t1())))
        f2.write_text(json.dumps(polytope_to_json(t1((1, 1, 2)))))

        code, out = run_cli(["compare", "--symplectic", str(f1), str(f2)])
        assert code == 0
        assert "NOT symplectomorphic" in out and "labels differ" in out

        code, out = run_cli(["compare", "--biholomorphic", str(f1), str(f2)])
        assert code == 0
        assert "fans equal: biholomorphic" in out

        code, out = run_cli(["compare", str(f1), str(f2)])
        assert code == 0
        assert "NOT symplectomorphic" in out
        assert "fans equal: biholomorphic" in out

    # and the library agrees with the CLI
    from labpoly.polytope import isomorphism_report
    assert isomorphism_report(t1(), t1((1, 1, 2)))[0] is None
    assert build_fan(t1()) == build_fan(t1((1, 1, 2)))


@criterion(6, "reduction identity at every vertex, level at 100 seeded points")
def test_criterion_6_reduction_identity():
    for name, p in standard_corpus():
        d = build_construction(p)
        failure = verify_reduction_invariants(d, p)
        assert failure is None, (name, failure)
        # the slacks are affine, so the level holds between the vertices too
        for beta in convex_combinations(p, 100, seed=42):
            assert all(isinstance(x, Fraction) for x in beta)
            s = [dot(beta, e) - c for e, c in zip(zip(*d.projection), d.scaled_offsets)]
            assert min(s) >= 0, name
            assert tuple(dot(row, s) for row in d.kernel_rows) == d.level, name


@criterion(7, "Morse suite: direction independence and named values")
def test_criterion_7_morse():
    for name, p in standard_corpus():
        rng = random.Random(1234)
        seen = set()
        for _ in range(20):
            xi = random_generic_direction(p, rng)
            seen.add(poincare_polynomial(p, xi))
        assert len(seen) == 1, (name, seen)
        coeffs = seen.pop()
        assert coeffs == coeffs[::-1], name            # palindromic
        assert all(c == 0 for c in coeffs[1::2]), name  # odd degrees vanish
        assert sum(coeffs) == len(p.vertices), name
        assert coeffs[0::2] == h_vector(p), name       # the face lattice's h-vector
    assert poincare_polynomial(t1(), (1, 2)) == (1, 0, 1, 0, 1)
    assert poincare_polynomial(square(), (1, 2)) == (1, 0, 2, 0, 1)
    assert poincare_polynomial(interval(3, 5), (1,)) == (1, 0, 1)


@criterion(8, "Smith normal form fuzz: 1000 random matrices")
def test_criterion_8_snf_fuzz():
    rng = random.Random(2024)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = tuple(tuple(rng.randint(-20, 20) for _ in range(cols))
                  for _ in range(rows))
        s = diagonal_form(a)
        assert mat_mul(mat_mul(s.U, a), s.V) == s.D
        assert abs(det(s.U)) == 1
        assert abs(det(s.V)) == 1
        diag = s.diagonal
        assert all(x >= 0 for x in diag)
        nz = [x for x in diag if x != 0]
        assert list(diag[:len(nz)]) == nz  # zeros trail
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s.D[i][j] == 0
        # the merged diagonal is the Smith diagonal: a divisibility chain,
        # equal to the diagonal of the Smith elimination with its fold
        smith = smith_diagonal(a)
        nz = [x for x in smith if x != 0]
        assert all(y % x == 0 for x, y in zip(nz, nz[1:]))
        assert smith == reference_smith_normal_form(a).diagonal


if __name__ == "__main__":
    failures = 0
    for run in CRITERIA:
        try:
            run()
        except BaseException as exc:  # line already printed by the wrapper
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
