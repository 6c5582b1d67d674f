"""The three workloads: seeded job lists over generated input files.

A job is one ``labpoly`` command line plus a check of its exit code, stdout
and stderr against the closed forms of :mod:`polytopes`.  The shapes and
sizes of every workload are fixed; the seed only picks labels, unimodular
transforms, translations, dilations and parabola offsets, so the amount of
work barely depends on it.  The program only ever sees the JSON files written
here.

* ``wide``   -- N >> n: many-edged polygons, prisms and 4-D polygon products,
  one input in four rejected (pyramid, redundant halfspace).  The C(N, n)
  Fraction vertex enumeration does most of the work.
* ``deep``   -- dims 4-6 with few facets: labeled boxes, simplices, products
  of simplices and their unimodular variants, labels up to 12.  Smith and
  Hermite forms dominate.
* ``corpus`` -- a couple of hundred small polytopes (dim 1-3, at most 8
  facets) and malformed files, every job with ``--json``.  The fixed cost of
  a call (argparse, JSON, warnings capture, formatting) dominates.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import polytopes as P

COMMANDS = ("validate", "vertices", "faces", "structure-groups", "fan",
            "compare", "delzant", "stabilizers", "betti", "verify")


@dataclass(frozen=True)
class Job:
    """One CLI call; ``check(code, out, err)`` returns None or what is wrong."""

    argv: tuple
    check: Callable[[int, str, str], Optional[str]]

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

_POINT = re.compile(r"\(([^()]*)\)")
_GROUP_LINE = re.compile(r"\s*face \[([\d, ]*)\](?: vertex \([^()]*\))?: (.*)")


def _point(text):
    return tuple(Fraction(x) for x in text.split(", ")) if text else ()


def _ints(text):
    return tuple(int(x) for x in text.split(",")) if text.strip() else ()


def _group(text):
    if text == "trivial":
        return ()
    return tuple(int(part[2:]) for part in text.split(" x "))


def _expected_groups(spec):
    """Group expected at each facet and each vertex, keyed by active set."""
    out = {(i,): spec.facet_group(i) for i in range(len(spec.halfspaces))}
    for v in spec.vertices:
        out[spec.active(v)] = spec.vertex_group(v)
    return out


def _compare_groups(spec, rows):
    """rows: (active tuple, invariant factors) for every proper face."""
    proper = sum(spec.fvector) - 1
    if len(rows) != proper:
        return f"{len(rows)} proper faces, expected {proper}"
    got = dict(rows)
    for active, want in _expected_groups(spec).items():
        if got.get(active) != want:
            return f"group of face {list(active)} is {got.get(active)}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# per-command checks of a valid input (text and --json)
# ---------------------------------------------------------------------------

def _check_validate(spec, out, as_json):
    n, nf, nv = spec.dim, len(spec.halfspaces), len(spec.vertices)
    if as_json:
        want = {"valid": True, "dim": n, "facets": nf, "vertices": nv,
                "labels": spec.labels}
        return None if json.loads(out) == want else f"got {out.strip()}"
    want = f"valid: dim {n}, {nf} facets, {nv} vertices, labels {spec.labels}\n"
    return None if out == want else f"got {out!r}"


def _check_vertices(spec, out, as_json):
    if as_json:
        got = [tuple(Fraction(x) for x in v) for v in json.loads(out)["vertices"]]
    else:
        got = [_point(_POINT.fullmatch(line).group(1)) for line in out.splitlines()]
    return None if got == list(spec.vertices) else "vertex list differs"


def _check_faces(spec, out, as_json):
    if as_json:
        faces = [(tuple(f["active"]), f["codim"], tuple(f["vertices"]))
                 for f in json.loads(out)["faces"]]
    else:
        faces = []
        for line in out.splitlines():
            m = re.fullmatch(r"codim (\d+) active \[([\d, ]*)\] vertices \[([\d, ]*)\]", line)
            faces.append((_ints(m.group(2)), int(m.group(1)), _ints(m.group(3))))
    counts = [0] * (spec.dim + 1)
    for active, codim, verts in faces:
        counts[spec.dim - codim] += 1
        if codim == spec.dim and (len(verts) != 1 or
                                  spec.active(spec.vertices[verts[0]]) != active):
            return f"vertex face {list(active)} lists vertices {list(verts)}"
    return None if tuple(counts) == spec.fvector else f"f-vector {counts}"


def _check_structure_groups(spec, out, as_json):
    if as_json:
        rows = [(tuple(r["active"]), tuple(r["invariant_factors"]))
                for r in json.loads(out)["structure_groups"]]
    else:
        rows = []
        for line in out.splitlines():
            m = _GROUP_LINE.fullmatch(line)
            rows.append((_ints(m.group(1)), _group(m.group(2))))
    return _compare_groups(spec, rows)


def _check_fan(spec, out, as_json):
    rays = sorted({y for y, _, _ in spec.halfspaces})
    faces = sum(spec.fvector)
    if as_json:
        obj = json.loads(out)
        got_rays = sorted({tuple(g) for c in obj["cones"] for g in c})
        ok = (obj["ambient_dim"] == spec.dim and len(obj["cones"]) == faces
              and got_rays == rays)
        return None if ok else "fan differs"
    head, *cones = out.splitlines()
    m = re.fullmatch(r"dim (\d+), (\d+) cones, rays \[(.*)\]", head)
    got_rays = sorted(_ints(g) for g in _POINT.findall(m.group(3)))
    ok = (int(m.group(1)) == spec.dim and int(m.group(2)) == faces == len(cones)
          and got_rays == rays)
    return None if ok else "fan differs"


def _check_delzant(spec, out, as_json):
    torus = len(spec.halfspaces) - spec.dim
    order = spec.max_vertex_order()
    if as_json:
        obj = json.loads(out)
        if (obj["torus_dim"], len(obj["kernel_basis"]), obj["regular"],
                obj["max_stabilizer_order"]) != (torus, torus, True, order):
            return "reduction data differs"
        rows = [(tuple(r["active"]), tuple(r["invariant_factors"]))
                for r in obj["stabilizers"]]
    else:
        lines = out.splitlines()
        if (f"torus dim: {torus}" not in lines or lines[-1] !=
                f"regular level: yes (max stabilizer order {order})"):
            return "reduction data differs"
        start = lines.index("stabilizers:") + 1
        rows = []
        for line in lines[start:-1]:
            m = _GROUP_LINE.fullmatch(line)
            rows.append((_ints(m.group(1)), _group(m.group(2))))
    return _compare_groups(spec, rows)


def _check_stabilizers(spec, out, as_json):
    if as_json:
        obj = json.loads(out)
        if obj["oracles_agree"] is not True:
            return "oracles disagree"
        rows = [(tuple(r["active"]), tuple(r["reduction"]["invariant_factors"]))
                for r in obj["faces"]]
    else:
        *lines, verdict = out.splitlines()
        if verdict != "verdict: oracles agree on all faces":
            return verdict
        rows = []
        for line in lines:
            m = re.fullmatch(r"(face .*): reduction (.*), local (.*), agree", line)
            g = _GROUP_LINE.fullmatch(f"{m.group(1)}: {m.group(2)}")
            rows.append((_ints(g.group(1)), _group(g.group(2))))
    return _compare_groups(spec, rows)


def _check_betti(spec, out, as_json):
    if as_json:
        obj = json.loads(out)
        poincare, indices = obj["poincare"], [r["index"] for r in obj["vertex_indices"]]
    else:
        lines = out.splitlines()
        m = re.fullmatch(r"poincare coefficients: \[([\d, ]*)\]", lines[-1])
        poincare = list(_ints(m.group(1)))
        indices = [int(line.rsplit(" ", 1)[1]) for line in lines[1:-1]]
    counts = [indices.count(k) for k in range(2 * spec.dim + 1)]
    if poincare != spec.poincare or counts != spec.poincare:
        return f"poincare {poincare}, index counts {counts}, expected {spec.poincare}"
    return None


def _check_verify(spec, out, as_json):
    if as_json:
        obj = json.loads(out)
        ok = obj["passed"] is True and all(c["passed"] for c in obj["checks"])
    else:
        lines = out.splitlines()
        ok = lines[-1] == "verify: PASS" and all(
            line.startswith("PASS: ") for line in lines[:-1])
    return None if ok else "verify failed"


def _check_compare(spec, other, translation, both, out, as_json):
    """``other`` is spec + translation, or spec relabeled when translation is None."""
    if as_json:
        obj = json.loads(out)
        if translation is None:
            ok = (obj["symplectomorphic"] is False
                  and obj["reason"].startswith("labels differ"))
        else:
            ok = (obj["symplectomorphic"] is True and
                  [Fraction(x) for x in obj["translation"]] == list(translation))
        ok = ok and obj.get("fans_equal", True) is True
        return None if ok else f"got {obj}"
    lines = out.splitlines()
    if translation is None:
        ok = lines[0].startswith("NOT symplectomorphic (labels differ")
    else:
        m = re.fullmatch(r"symplectomorphic \(translation by \((.*)\)\)", lines[0])
        ok = m is not None and _point(m.group(1)) == tuple(translation)
    if both:
        ok = ok and lines[1:] == ["fans equal: biholomorphic"]
    return None if ok else f"got {lines}"


_CHECKS = {
    "validate": _check_validate, "vertices": _check_vertices,
    "faces": _check_faces, "structure-groups": _check_structure_groups,
    "fan": _check_fan, "delzant": _check_delzant,
    "stabilizers": _check_stabilizers, "betti": _check_betti,
    "verify": _check_verify,
}


def expect_ok(check_output):
    """Wrap an output check: exit code 0 and an empty stderr are required."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if err:
            return f"unexpected stderr {err.strip()!r}"
        return check_output(out)
    return check


def expect_error(code_wanted, prefix):
    def check(code, out, err):
        if code != code_wanted or out or not err.startswith(prefix):
            return f"exit {code}, stderr {err.strip()!r}; expected exit {code_wanted}, {prefix!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# job list construction
# ---------------------------------------------------------------------------

class Builder:
    """Writes input files and collects the jobs that use them."""

    def __init__(self, directory, as_json):
        self.directory = directory
        self.as_json = as_json
        self.jobs = []
        self.count = 0
        self.compares = 0

    def write(self, obj):
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
        return path

    def _argv(self, *args):
        return tuple(args) + (("--json",) if self.as_json else ())

    def valid(self, spec, commands, rng, compare_flags=()):
        """Jobs for ``commands`` on a valid input."""
        path = self.write(spec.to_json())
        for cmd in commands:
            if cmd == "compare":
                self.compare(spec, path, rng, compare_flags)
                continue
            check = _CHECKS[cmd]
            self.jobs.append(Job(self._argv(cmd, path), expect_ok(
                lambda out, c=check: c(spec, out, self.as_json))))

    def compare(self, spec, path, rng, flags):
        self.compares += 1
        if self.compares % 2:
            t = tuple(Fraction(rng.choice((-1, 1)) * (2 * k + 1), 4)
                      for k in range(spec.dim))
            other = P.translate(spec, t)
        else:
            t = None
            other = P.relabel(spec, [m + 1 for m in spec.labels])
        other_path = self.write(other.to_json())
        both = "--symplectic" not in flags
        self.jobs.append(Job(self._argv("compare", path, other_path, *flags),
                             expect_ok(lambda out: _check_compare(
                                 spec, other, t, both, out, self.as_json))))

    def rejected(self, obj, commands, code, prefix):
        path = self.write(obj)
        for cmd in commands:
            argv = (cmd, path, path) if cmd == "compare" else (cmd, path)
            self.jobs.append(Job(self._argv(*argv), expect_error(code, prefix)))


def _labels(rng, n, top):
    """A seeded order of a fixed list of labels in 1..top."""
    labels = [1 + 5 * i % top for i in range(n)]
    rng.shuffle(labels)
    return labels


def _simplex(rng, n, top):
    return P.simplex(n, 2, _labels(rng, n + 1, top))


def _polygon(rng, k, top):
    return P.polygon(k, _labels(rng, k, top))


def _lengths(rng, n):
    lengths = list(range(1, n + 1))
    rng.shuffle(lengths)
    return lengths


def wide(b, rng):
    enum_commands = ("validate", "vertices", "faces", "structure-groups",
                     "delzant", "betti", "compare")
    sym = ("--symplectic",)
    for k in (8, 12, 16):
        # fan is cubic in the vertex count; verify samples 100 points
        commands = COMMANDS if k < 16 else tuple(
            c for c in COMMANDS if c != "verify")
        base = _polygon(rng, k, 4)
        b.valid(P.variant(base, rng), commands, rng, sym)
    for k in (8, 12):
        prism = P.product(_polygon(rng, k, 4), P.interval(2, _labels(rng, 2, 4)))
        b.valid(P.variant(prism, rng), enum_commands, rng, sym)
    prod = P.product(_polygon(rng, 5, 4), _polygon(rng, 6, 4))
    b.valid(P.variant(prod, rng), enum_commands, rng, sym)
    rejects = ("validate", "vertices", "faces")
    b.rejected(P.pyramid(10, _labels(rng, 10, 4)), rejects,
               1, "error: not simple at vertex")
    small = P.product(_polygon(rng, 4, 4), _polygon(rng, 5, 4))
    b.rejected(P.with_redundant(small, (1, 1, 1, 1)), rejects,
               1, "error: redundant halfspace")


def deep(b, rng):
    heavy = ("validate", "vertices", "faces", "structure-groups", "delzant",
             "stabilizers", "betti", "verify")
    light = heavy + ("fan", "compare")
    b.valid(P.variant(P.box([1, 2, 1, 3], _labels(rng, 8, 12)), rng), heavy, rng)
    b.valid(_simplex(rng, 5, 12), light, rng)
    b.valid(_simplex(rng, 6, 12), heavy, rng)
    b.valid(P.product(_simplex(rng, 1, 12), _simplex(rng, 3, 12)), light, rng)
    b.valid(P.variant(P.product(_simplex(rng, 2, 12), _simplex(rng, 2, 12)), rng),
            light, rng)
    b.valid(P.variant(P.product(_simplex(rng, 2, 12), _simplex(rng, 3, 12)), rng),
            heavy, rng)


CORPUS_SIZE = 200


def _small_shape(i, rng):
    """The i-th corpus polytope: dimension 1-3, at most 8 facets."""
    kind = i % 8
    if kind == 0:
        spec = P.interval(3, _labels(rng, 2, 6))
    elif kind == 1:
        spec = _simplex(rng, 2, 6)
    elif kind == 2:
        spec = P.box(_lengths(rng, 2), _labels(rng, 4, 6))
    elif kind == 3:
        k = 5 + (i // 8) % 4
        spec = _polygon(rng, k, 6)
    elif kind == 4:
        spec = _simplex(rng, 3, 6)
    elif kind == 5:
        spec = P.box(_lengths(rng, 3), _labels(rng, 6, 6))
    elif kind == 6:
        spec = P.product(_simplex(rng, 2, 6), P.interval(1, _labels(rng, 2, 6)))
    else:
        k = 4 + (i // 8) % 3
        spec = P.product(_polygon(rng, k, 6), P.interval(1, _labels(rng, 2, 6)))
    return P.variant(spec, rng) if (i // 8) % 2 else spec


def corpus(b, rng):
    for i in range(CORPUS_SIZE):
        b.valid(_small_shape(i, rng), (COMMANDS[i % len(COMMANDS)],), rng)
    for i, (_, obj, code, prefix) in enumerate(P.MALFORMED):
        pair = (COMMANDS[2 * i % len(COMMANDS)], COMMANDS[(2 * i + 1) % len(COMMANDS)])
        b.rejected(obj, pair, code, prefix)
    b.rejected(P.pyramid(4, _labels(rng, 4, 6)),
               ("validate", "betti"), 1, "error: not simple at vertex")


WORKLOADS = {"wide": (wide, False), "deep": (deep, False), "corpus": (corpus, True)}


def build(name, seed, directory):
    """Write the inputs of workload ``name`` into ``directory``; return its jobs."""
    make, as_json = WORKLOADS[name]
    os.makedirs(directory, exist_ok=True)
    b = Builder(directory, as_json)
    make(b, random.Random(f"{name}:{seed}"))
    return b.jobs
