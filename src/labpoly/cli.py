"""Command-line interface.

Every subcommand is a view over one (or two) validated polytopes: it works in
exact arithmetic and returns a deterministic report with its exit code; the
same input gives byte-identical output.  ``--json`` makes the report a JSON
object, which :func:`_dumps` writes as ``json.dumps(report, indent=2)`` in one
pass, every int in full.  :func:`main` alone reads the input files, writes
each report to stdout in one write once it is complete, and turns errors into
exit codes, so a command that fails partway writes nothing to stdout.

Exit codes: 0 success, 1 validation failure (the file parses but is not a
labeled rational simple polytope, or an argument like --xi fails a required
property), 2 I/O or parse error, 3 internal invariant violation (the two
independent group computations disagree, or an exact identity fails; this
must never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import warnings
from json.encoder import encode_basestring_ascii as _encode

from . import delzant as dz
from . import local_model as lm
from . import morse as morse_mod
from .fan import build_fan, face_lattice_failure, vertex_cones
from .lattice import _decimal, format_rational
from .polytope import (
    FormatError,
    format_point,
    isomorphism_report,
    load_polytope,
)


def _load(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = load_polytope(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return p


def _face_name(p, f):
    if f.codim == p.dim:
        return f"face {list(f.active)} vertex {p.format_vertex(f.vertices[0])}"
    return f"face {list(f.active)}"


def _int_row(r):
    """``str(list(r))``, also for integers past the interpreter's digit limit."""
    return "[" + ", ".join(format_rational(x) for x in r) + "]"


def _group_json(g):
    return {"invariant_factors": list(g.invariant_factors), "order": g.order}


def _dumps(x, pad="\n"):
    """``json.dumps(x, indent=2)`` in one pass, every int in full, a tuple as a list; keys
    must be strings, and a value of a type no report holds goes through ``json.dumps``."""
    if type(x) is str:
        return _encode(x)
    if type(x) is int:
        return _decimal(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{_encode(k)}: {_dumps(v, inner)}" for k, v in x.items()]
    elif isinstance(x, (list, tuple)):
        items = [_decimal(v) if type(v) is int else _dumps(v, inner) for v in x]
    elif x is None or type(x) is bool:
        return "null" if x is None else "true" if x else "false"
    else:
        return json.dumps(x)
    ends = "{}" if isinstance(x, dict) else "[]"
    return ends[0] + inner + f",{inner}".join(items) + pad + ends[1] if items else ends


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, p):
    labels = [h.label for h in p.halfspaces]
    if args.json:
        return {"valid": True, "dim": p.dim, "facets": len(p.halfspaces),
                "vertices": len(p.scaled_vertices[1]), "labels": labels}, 0
    return [f"valid: dim {p.dim}, {len(p.halfspaces)} facets, "
            f"{len(p.scaled_vertices[1])} vertices, labels {labels}"], 0


def cmd_vertices(args, p):
    den, points = p.scaled_vertices
    if args.json:
        return {"vertices": [[format_rational(x, den) for x in w] for w in points]}, 0
    return [format_point(w, den) for w in points], 0


def cmd_faces(args, p):
    if args.json:
        return {"faces": [{"active": list(f.active), "codim": f.codim,
                           "vertices": list(f.vertices)} for f in p.faces]}, 0
    return [f"codim {f.codim} active {list(f.active)} vertices {list(f.vertices)}"
            for f in p.faces], 0


def cmd_structure_groups(args, p):
    rows = dz.face_groups(p)
    if args.json:
        return {"structure_groups": [
            {"active": list(f.active), "codim": f.codim, **_group_json(g)}
            for f, g in rows]}, 0
    return [f"{_face_name(p, f)}: {g}" for f, g in rows], 0


def cmd_fan(args, p):
    cones = sorted(build_fan(p))
    cones.sort(key=len)  # by (length, generators): the sort is stable
    if args.json:
        return {"ambient_dim": p.dim, "cones": cones}, 0
    rays = {g: _int_row(g) for g in sorted({g for c in cones for g in c})}
    # each ray as str(tuple) would print it, also past the digit limit
    listed = ", ".join(f"({r[1:-1]}{',' * (p.dim == 1)})" for r in rays.values())
    return [f"dim {p.dim}, {len(cones)} cones, rays [{listed}]",
            *(f"cone [{', '.join(map(rays.__getitem__, c))}]" for c in cones)], 0


def cmd_compare(args, p, q):
    """Symplectomorphism by a label-preserving translation, biholomorphism by
    fan equality: two simple polytopes' fans are equal exactly when their sets
    of vertex cones are, the cones whose faces ``fan`` lists, each vertex's
    tight set checked by (a) of :mod:`labpoly.fan`, so no face lattice is built."""
    do_symp = args.symplectic or not args.biholomorphic
    do_biho = args.biholomorphic or not args.symplectic
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    out = {}
    lines = []
    if do_symp:
        translation, reason = isomorphism_report(p, q)
        if translation is not None:
            lines.append(f"symplectomorphic (translation by {format_point(translation)})")
            out.update(symplectomorphic=True,
                       translation=[format_rational(x) for x in translation])
        else:
            lines.append(f"NOT symplectomorphic ({reason})")
            out.update(symplectomorphic=False, reason=reason)
    if do_biho:
        equal = vertex_cones(p) == vertex_cones(q)
        lines.append("fans equal: biholomorphic" if equal
                      else "fans differ: not biholomorphic")
        out["fans_equal"] = equal
    return (out if args.json else lines), 0


def cmd_delzant(args, p):
    d = dz.build_construction(p)
    stab = dz.face_groups(p)
    max_order = max((g.order for _, g in stab), default=1)
    if args.json:
        return {
            "projection": [list(r) for r in d.projection],
            "scaled_offsets": [format_rational(x) for x in d.scaled_offsets],
            "kernel_basis": [list(r) for r in d.kernel_rows],
            "level": [format_rational(x) for x in d.level],
            "torus_dim": len(d.kernel_rows),
            "component_group": _group_json(d.component_group),
            "stabilizers": [
                {"active": list(f.active), **_group_json(g)} for f, g in stab],
            "regular": True,
            "max_stabilizer_order": max_order,
        }, 0
    return [
        "projection:",
        *(f"  {_int_row(r)}" for r in d.projection),
        f"scaled offsets: {[format_rational(x) for x in d.scaled_offsets]}",
        "kernel basis:",
        *(f"  {_int_row(r)}" for r in d.kernel_rows),
        f"level: {[format_rational(x) for x in d.level]}",
        f"torus dim: {len(d.kernel_rows)}",
        f"component group: {d.component_group}",
        "stabilizers:",
        *(f"  {_face_name(p, f)}: {g}" for f, g in stab),
        f"regular level: yes (max stabilizer order {format_rational(max_order)})",
    ], 0


def _oracle_rows(p, groups):
    """``(face, reduction group, local group, agree)`` for every proper face.

    ``groups`` are those of :func:`labpoly.delzant.face_groups`; in the same
    face order :func:`labpoly.local_model.structure_groups` extends each face's
    column echelon from its parent's by one Euclid step, then takes the labels'
    merge at index 1 (L unimodular), else a Smith diagonal and the index check.
    """
    return [(f, a, b, a.invariant_factors == b.invariant_factors)
            for (f, a), (_, b) in zip(groups, lm.structure_groups(p))]


def cmd_stabilizers(args, p):
    rows = _oracle_rows(p, dz.face_groups(p))
    agree = all(same for _, _, _, same in rows)
    code = 0 if agree else 3
    if args.json:
        return {"faces": [
            {"active": list(f.active), "reduction": _group_json(a),
             "local": _group_json(b), "agree": same}
            for f, a, b, same in rows],
            "oracles_agree": agree}, code
    return [
        *(f"{_face_name(p, f)}: reduction {a}, local {b}, "
          f"{'agree' if same else 'DISAGREE'}" for f, a, b, same in rows),
        "verdict: oracles agree on all faces" if agree
        else "verdict: ORACLE DISAGREEMENT",
    ], code


def _parse_xi(text, dim):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != dim:
        raise FormatError(f"--xi needs {dim} comma-separated integers")
    try:
        return tuple(int(s) for s in parts)
    except ValueError as exc:
        raise FormatError(f"--xi must be integers: {exc}") from exc


def cmd_betti(args, p):
    if args.xi is not None:
        xi = _parse_xi(args.xi, p.dim)
    else:
        xi = morse_mod.random_generic_direction(p, random.Random(args.seed))
    rep = morse_mod.morse_report(p, xi)
    den, points = p.scaled_vertices
    if args.json:
        return {"xi": list(xi),
                "vertex_indices": [
                    {"vertex": [format_rational(x, den) for x in w], "index": k}
                    for w, k in zip(points, rep.vertex_indices)],
                "poincare": list(rep.poincare)}, 0
    return [f"xi = {tuple(xi)}",
            *(f"vertex {format_point(w, den)}: index {k}"
              for w, k in zip(points, rep.vertex_indices)),
            f"poincare coefficients: {list(rep.poincare)}"], 0


def cmd_verify(args, p):
    d = dz.build_construction(p)
    groups = dz.face_groups(p)
    checks = []
    n_vertices = len(p.scaled_vertices[1])

    failure = dz.verify_reduction_invariants(d, p)
    checks.append((f"reduction invariants (level and tight facets at {n_vertices} vertices)",
                   failure is None, failure))

    # (b) alone: the reduction row above proves (a), that each vertex
    # minimizes exactly its tight facets (labpoly.fan.face_lattice_failure)
    failure = face_lattice_failure(p)
    checks.append((f"face lattice ({len(p.faces)} faces listing {n_vertices << p.dim} "
                   f"vertices; each face lists exactly the vertices on its facets)",
                   failure is None, failure))

    # face_groups raised above unless every face's scaled normals are
    # independent, that is unless the level is regular
    disagreements = [f"face {list(f.active)}: {a} vs {b}"
                     for f, a, b, same in _oracle_rows(p, groups) if not same]
    checks.append((f"stabilizer/structure-group agreement at a regular level "
                   f"({len(groups)} faces, independent scaled normals on each)",
                   not disagreements,
                   "; ".join(disagreements) or None))

    rng = random.Random(args.seed)
    polys = set()
    for _ in range(5):
        xi = morse_mod.random_generic_direction(p, rng)
        polys.add(morse_mod.poincare_polynomial(p, xi))
    base = next(iter(polys))
    h = morse_mod.h_vector(p)
    # h == h[::-1] is Dehn-Sommerville: it catches an incomplete face lattice
    betti_ok = (len(polys) == 1 and base[0::2] == h and not any(base[1::2])
                and h == h[::-1])
    checks.append(("Betti numbers independent of direction (5 draws)",
                   betti_ok,
                   None if betti_ok else f"saw {sorted(polys)}, h-vector {list(h)}"))

    all_ok = all(ok for _, ok, _ in checks)
    code = 0 if all_ok else 3
    if args.json:
        return {"checks": [{"name": name, "passed": ok, "detail": detail}
                           for name, ok, detail in checks],
                "passed": all_ok}, code
    return [*(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail and not ok else "")
              for name, ok, detail in checks),
            "verify: PASS" if all_ok else "verify: FAIL"], code


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

# Built on first use, not at import: import stays cheap and a process pays for it once.
@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="labpoly",
        description="Exact computations on labeled rational simple polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, two_files=False):
        sp = sub.add_parser(name, help=help_text)
        inputs = ("file1", "file2") if two_files else ("file",)
        for dest in inputs:
            sp.add_argument(dest)
        sp.add_argument("--json", action="store_true",
                        help="machine readable output")
        sp.set_defaults(func=func, inputs=inputs)
        return sp

    add("validate", cmd_validate, "check the file is a labeled simple polytope")
    add("vertices", cmd_vertices, "list the vertices")
    add("faces", cmd_faces, "list the face lattice")
    add("structure-groups", cmd_structure_groups,
        "orbifold structure group of every proper face")
    add("fan", cmd_fan, "print the fan of face cones")
    cp = add("compare", cmd_compare,
             "compare two polytopes up to translation and by fan", two_files=True)
    cp.add_argument("--symplectic", action="store_true",
                    help="only the label-preserving translation check")
    cp.add_argument("--biholomorphic", action="store_true",
                    help="only the fan equality check")
    add("delzant", cmd_delzant, "reduction presentation (projection, kernel, level)")
    add("stabilizers", cmd_stabilizers,
        "cross-check face stabilizers against structure groups")
    bt = add("betti", cmd_betti, "Morse indices and Poincare coefficients")
    bt.add_argument("--xi", help="direction as comma-separated integers")
    bt.add_argument("--seed", type=int, default=0,
                    help="seed for the random generic direction")
    vf = add("verify", cmd_verify, "run the full battery of exact self-checks")
    vf.add_argument("--seed", type=int, default=0,
                    help="seed for the five random directions of the Betti check")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        polytopes = [_load(getattr(args, dest)) for dest in args.inputs]
        report, code = args.func(args, *polytopes)
        sys.stdout.write(_dumps(report) + "\n" if args.json
                         else "".join(f"{line}\n" for line in report))
    except (FormatError, OSError) as exc:  # FormatError first: it is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ValidationError is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
