"""Tests of the benchmark itself: oracles, tracer, failure accounting.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import polytopes as P  # noqa: E402
import workloads  # noqa: E402
from run import Bench, end_to_end  # noqa: E402
from tracer import Tracer  # noqa: E402

from labpoly import cli, local_model, morse, polytope  # noqa: E402


def _small_specs():
    rng = random.Random(7)
    specs = [
        P.polygon(5, [1, 2, 3, 1, 2], t0=-1),
        P.polygon(7, [2] * 7),
        P.interval(3, [2, 5]),
        P.box([1, 2], [1, 2, 3, 4]),
        P.box([1, 1, 2], [2, 3, 4, 6, 1, 5]),
        P.simplex(3, 2, [1, 2, 4, 3]),
        P.product(P.polygon(4, [1, 2, 1, 3]), P.interval(1, [2, 2])),
        P.product(P.simplex(2, 1, [2, 3, 1]), P.simplex(2, 3, [1, 1, 4])),
    ]
    specs += [P.variant(s, rng) for s in specs]
    return specs


@pytest.mark.parametrize("spec", _small_specs(), ids=lambda s: s.name)
def test_generators_match_closed_forms(spec):
    p = polytope.validate(spec.dim, spec.halfspaces)
    assert p.vertices == spec.vertices
    fvec = Counter(spec.dim - f.codim for f in p.faces)
    assert tuple(fvec[i] for i in range(spec.dim + 1)) == spec.fvector
    xi = morse.random_generic_direction(p, random.Random(0))
    assert list(morse.poincare_polynomial(p, xi)) == spec.poincare
    for f in p.proper_faces():
        group = local_model.structure_group(p, f).invariant_factors
        if f.codim == 1:
            assert group == spec.facet_group(f.active[0])
        if f.codim == spec.dim:
            assert group == spec.vertex_group(p.vertices[f.vertices[0]])


def test_invariant_factors():
    assert P.invariant_factors((2, 3)) == (6,)
    assert P.invariant_factors((4, 6, 1)) == (2, 12)
    assert P.invariant_factors((2, 2, 4)) == (2, 2, 4)
    assert P.invariant_factors((1, 1)) == ()


def test_rejected_inputs_fail_as_expected(tmp_path):
    b = workloads.Builder(str(tmp_path), as_json=False)
    b.rejected(P.pyramid(6, [1] * 6), ("validate",), 1, "error: not simple at vertex")
    b.rejected(P.with_redundant(P.box([1, 1], [1] * 4), (1, 1)), ("faces",),
               1, "error: redundant halfspace")
    for _, obj, code, prefix in P.MALFORMED:
        b.rejected(obj, ("validate", "compare"), code, prefix)
    bench = Bench(b.jobs, cli.main)
    bench.warm_up()
    assert bench.wrong == {}


def _cube_path(tmp_path):
    b = workloads.Builder(str(tmp_path), as_json=False)
    return b.write(P.box([1, 1, 1], [1] * 6).to_json())


def test_tracer_counts_cube_solves_exactly(tmp_path):
    path = _cube_path(tmp_path)
    original = polytope.solve_rational
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            assert polytope.solve_rational is not original
            assert cli.main(["validate", path]) == 0
        counts.append({k: v[0] for k, v in tracer.stats.items()})
    # C(6, 3) facet triples of the 3-cube, each one exact solve
    assert counts[0]["lattice.solve_rational"] == 20
    assert tracer.edges[("polytope.validate", "lattice.solve_rational")] == 20
    assert counts[0] == counts[1]
    assert polytope.solve_rational is original


def test_tracer_self_time_is_total_minus_children(tmp_path):
    path = _cube_path(tmp_path)
    tracer = Tracer()
    with tracer:
        cli.main(["structure-groups", path])
    total, self_time = tracer.stats["local_model.structure_group"][1:]
    children = sum(tracer.stats[k][1] for (parent, k) in tracer.edges
                   if parent == "local_model.structure_group")
    assert self_time == pytest.approx(total - children, abs=1e-3)
    assert tracer.values["lattice.max_bits"] >= 1


def test_wrong_expectation_counts_as_failure(tmp_path):
    spec = P.box([1, 2], [1, 2, 3, 4])
    wrong = P.Spec(spec.name, spec.dim, spec.halfspaces, spec.vertices,
                   (4, 4, 2), spec.betti, spec.vertex_cyclic)   # f_2 should be 1
    b = workloads.Builder(str(tmp_path), as_json=False)
    b.valid(wrong, ("faces", "validate"), random.Random(0))
    b.jobs.append(workloads.Job(("validate", b.write(spec.to_json())),
                                lambda code, out, err: 1 / 0))
    bench = Bench(b.jobs, cli.main)
    bench.warm_up()
    bench.round(0, False)
    assert set(bench.wrong) == {0, 2}
    assert "ZeroDivisionError" in bench.wrong[2]
    assert (bench.attempted, bench.failed) == (6, 4)


def test_workloads_are_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 3, str(tmp_path / f"{name}a"))
        b = workloads.build(name, 3, str(tmp_path / f"{name}b"))
        assert [j.argv[0] for j in a] == [j.argv[0] for j in b]
        files_a = sorted((tmp_path / f"{name}a").iterdir())
        files_b = sorted((tmp_path / f"{name}b").iterdir())
        assert [f.read_text() for f in files_a] == [f.read_text() for f in files_b]
        assert {j.command for j in a} == set(workloads.COMMANDS)


def test_corpus_workload_passes_its_checks(tmp_path):
    bench = Bench(workloads.build("corpus", 1, str(tmp_path)), cli.main)
    bench.warm_up()
    assert bench.wrong == {}


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", str(HERE / "run.py"), "--workload", "wide",
         "--seed", "1", "--seconds", "1"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1"], capture_output=True, text=True,
        cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    b = workloads.Builder(str(tmp_path), as_json=False)
    b.valid(P.box([1, 1], [2, 3, 1, 1]), workloads.COMMANDS, random.Random(0))
    bench = Bench(b.jobs, cli.main, Tracer())
    bench.warm_up()
    plain, traced = bench.round(0, False), bench.round(1, True)
    e2e = end_to_end(bench, [plain])
    assert {m["name"] for m in spec["end_to_end"]} == {*e2e, "setup_s", "peak_rss_mb"}
    per_layer = layers.summarize([traced], e2e["wall_s"][0])
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in per_layer.items()}
