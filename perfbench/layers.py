"""Per-layer metrics from the tracer's aggregates.

Which end-to-end metric each layer metric should move, and on which
workload, is written down in ``perfbench/README.md``.  Times are summed over
a round's jobs after calibration and reported as the median over traced
rounds; counts are those of the first traced round (they repeat exactly for
a given seed); ratios are formed from the summed counts.
"""

from __future__ import annotations

import statistics

# metric -> (tracer key, "total" or "self"), summed over jobs.
TIMES = {
    "polytope.validate_s": ("polytope.validate", "self"),
    "polytope.edge_directions_s": ("polytope.edge_directions", "total"),
    "polytope.isomorphism_s": ("polytope.isomorphism_report", "total"),
    "lattice.solve_rational_s": ("lattice.solve_rational", "total"),
    "lattice.rational_rank_s": ("lattice.rational_rank", "total"),
    "lattice.snf_s": ("lattice.smith_normal_form", "total"),
    "lattice.hnf_s": ("lattice.hermite_normal_form", "total"),
    "local_model.structure_group_s": ("local_model.structure_group", "total"),
    "delzant.build_construction_s": ("delzant.build_construction", "total"),
    "delzant.face_stabilizer_s": ("delzant.face_stabilizer", "total"),
    "fan.build_fan_s": ("fan.build_fan", "total"),
    "fan.dual_cone_s": ("fan.dual_cone", "total"),
    "morse.is_generic_s": ("morse.is_generic", "total"),
    "morse.report_s": ("morse.morse_report", "total"),
}

# metric -> tracer key whose call count it reports.
CALLS = {
    "polytope.edge_directions_calls": "polytope.edge_directions",
    "lattice.solve_rational_calls": "lattice.solve_rational",
    "lattice.rational_rank_calls": "lattice.rational_rank",
    "lattice.snf_calls": "lattice.smith_normal_form",
    "lattice.hnf_calls": "lattice.hermite_normal_form",
    "lattice.kernel_basis_calls": "lattice.kernel_basis",
    "lattice.saturate_calls": "lattice.saturate",
    "lattice.quotient_group_calls": "lattice.quotient_group",
    "local_model.structure_group_calls": "local_model.structure_group",
    "delzant.face_stabilizer_calls": "delzant.face_stabilizer",
    "fan.dual_cone_calls": "fan.dual_cone",
    "morse.is_generic_calls": "morse.is_generic",
}

RATIOS = {   # metric -> (numerator count, denominator count)
    "polytope.vertex_yield": ("vertices", "polytope.subsets_tried"),
    "polytope.edge_calls_per_vertex": ("polytope.edge_directions_calls",
                                       "edge_job_vertices"),
    "morse.generic_draw_yield": ("draws", "draw_attempts"),
}

COUNTS = ("polytope.subsets_tried", *CALLS, "lattice.max_bits")


def job_values(tracer, job_seconds):
    """(times, counts) of one traced job; times are raw seconds."""
    times = {name: (tracer.total(key) if kind == "total" else tracer.self_time(key))
             for name, (key, kind) in TIMES.items()}
    times["lattice.self_s"] = sum(
        st[2] for key, st in tracer.stats.items() if key.startswith("lattice."))
    times["delzant.reduction_check_s"] = (
        tracer.total("delzant.verify_reduction_invariants")
        + tracer.total("delzant.verify_regular_level"))
    # Reading, JSON parsing and schema checks: loading minus validation.
    times["cli.load_s"] = (tracer.self_time("polytope.load_polytope")
                           + tracer.self_time("polytope.polytope_from_json"))
    times["cli.self_s"] = job_seconds - tracer.top_level

    counts = {name: tracer.calls(key) for name, key in CALLS.items()}
    # Every vertex candidate is one solve of an n-subset of the facets.
    counts["polytope.subsets_tried"] = tracer.edges[
        ("polytope.validate", "lattice.solve_rational")]
    counts["lattice.max_bits"] = tracer.values["lattice.max_bits"]
    counts["vertices"] = tracer.values["polytope.vertices"]
    counts["edge_job_vertices"] = (counts["vertices"]
                                   if counts["polytope.edge_directions_calls"] else 0)
    counts["draws"] = tracer.calls("morse.random_generic_direction")
    counts["draw_attempts"] = tracer.edges[
        ("morse.random_generic_direction", "morse.is_generic")]
    return times, counts


def _round_totals(rows):
    times, counts = {}, {}
    for _, factor, (job_times, job_counts) in rows:
        for name, value in job_times.items():
            times[name] = times.get(name, 0.0) + value * factor
        for name, value in job_counts.items():
            if name == "lattice.max_bits":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    return times, counts


def summarize(traced_rounds, untraced_wall):
    """name -> (value, unit) for every per-layer metric."""
    totals = [_round_totals(rows) for rows in traced_rounds]
    out = {}
    for name in totals[0][0]:
        out[name] = (statistics.median(t[name] for t, _ in totals), "s")
    first = totals[0][1]
    for name in COUNTS:
        out[name] = (first[name], "bits" if name == "lattice.max_bits" else "count")
    for name, (num, den) in RATIOS.items():
        out[name] = (first[num] / first[den] if first[den] else 0.0, "ratio")
    traced_wall = statistics.median(
        sum(dt * factor for dt, factor, _ in rows) for rows in traced_rounds)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    return out

