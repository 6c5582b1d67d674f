"""Benchmark of the labpoly command line, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from the seed, times a fresh interpreter
importing ``labpoly.cli`` (``setup_s``), runs the job list once to check every
output against its closed form, then repeats the job list through
``labpoly.cli.main`` in this process, one job at a time, until ``--seconds``
have passed.  Every job time is calibrated against the kernel of
:mod:`calibration`.  With ``--trace 1`` untraced and traced rounds alternate
and the per-layer figures of the traced rounds are reported instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of every job (raw and calibrated
seconds, and per-layer aggregates when traced) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_PASS = 2


def _metric_name(command):
    return command.replace("-", "_") + "_s"


def _median(values):
    return statistics.median(values) if values else 0.0


def environment_stamp(args):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit, "seed": args.seed, "workload": args.workload,
            "optimize": sys.flags.optimize, "trace": args.trace,
            "k_ref": calibration.K_REF}


# A fresh interpreter times its own import of the CLI, then calibrates that
# time with kernels run in the same process.  Timing the whole child from
# here would add process creation, which is the operating system's cost and
# made the figure noisy; a kernel timed in the parent does not track the
# child's speed.
_IMPORT_TIMER = """\
import time
t0 = time.perf_counter()
import labpoly.cli
dt = time.perf_counter() - t0
import sys
sys.path.append(sys.argv[1])
import calibration
ks = sorted(calibration.time_kernel() for _ in range(15))
print(repr(dt), repr(dt * calibration.K_REF / ks[7]))
"""


class SetupTimer:
    """Fresh-interpreter imports of labpoly.cli, spread over the run.

    The host's speed changes over seconds, so the samples are taken a few at
    a time between rounds rather than all at once.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.raw, self.calibrated = [], []
        self._run()   # writes the bytecode cache; not counted

    def _run(self):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(HERE)],
                              env=self.env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        return map(float, proc.stdout.split())

    def sample(self, count):
        for _ in range(count):
            raw, calibrated = self._run()
            self.raw.append(raw)
            self.calibrated.append(calibrated)

    def result(self):
        return _median(self.calibrated), _median(self.raw)


class Bench:
    """Runs the job list in rounds and keeps every job's timings."""

    def __init__(self, jobs, main, tracer=None):
        self.jobs = jobs
        self.main = main
        self.tracer = tracer
        self.reference = {}          # job index -> (code, out, err) of the first run
        self.wrong = {}              # job index -> failure reason
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.start = time.perf_counter()

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed job, not a failed benchmark
                code = "raised"
                err.write(traceback.format_exc())
        return time.perf_counter() - t0, (code, out.getvalue(), err.getvalue())

    def warm_up(self):
        """Run every job once and check it against its closed form."""
        for i, job in enumerate(self.jobs):
            _, result = self._call(job.argv)
            self.reference[i] = result
            try:
                reason = job.check(*result)
            except Exception as exc:  # a check that cannot parse the output
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.wrong[i] = reason
            self._count(i, result)

    def _count(self, i, result):
        self.attempted += 1
        if i in self.wrong:
            self.failed += 1
        elif result != self.reference[i]:
            self.wrong[i] = "output differs from the first run of the same job"
            self.failed += 1

    def round(self, number, traced):
        """One round over the job list; returns per-job (raw, factor, layer values)."""
        if not traced:
            return self._round(number, None)
        with self.tracer:
            return self._round(number, self.tracer)

    def _round(self, number, tracer):
        rows = []
        k_before = calibration.time_kernel()
        for i, job in enumerate(self.jobs):
            if tracer:
                tracer.reset()
            t0 = time.perf_counter() - self.start
            dt, result = self._call(job.argv)
            values = layers.job_values(tracer, dt) if tracer else None
            k_after = calibration.time_kernel()
            factor = calibration.K_REF * 2 / (k_before + k_after)
            k_before = k_after
            self._count(i, result)
            rows.append((dt, factor, values))
            span = {"round": number, "job": i, "argv": list(job.argv),
                    "start": t0, "end": t0 + dt, "raw_s": dt,
                    "calibrated_s": dt * factor}
            if tracer:
                span["layers"] = {k: list(v) for k, v in tracer.stats.items()}
            self.spans.append(span)
        return rows


def end_to_end(bench, rounds):
    """Calibrated and raw end-to-end figures from untraced rounds."""
    per_job = defaultdict(list)
    walls, raw_walls = [], []
    for rows in rounds:
        walls.append(sum(dt * f for dt, f, _ in rows))
        raw_walls.append(sum(dt for dt, _, _ in rows))
        for i, (dt, f, _) in enumerate(rows):
            per_job[i].append((dt * f, dt))
    metrics = {"wall_s": (_median(walls), _median(raw_walls))}
    for command in workloads.COMMANDS:
        cal = raw = 0.0
        for i, job in enumerate(bench.jobs):
            if job.command == command:
                cal += _median([c for c, _ in per_job[i]])
                raw += _median([r for _, r in per_job[i]])
        metrics[_metric_name(command)] = (cal, raw)
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: it strips the assert in labpoly.fan, "
              "so it would measure a different program", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import labpoly.cli as cli
    except ImportError as exc:
        print(f"cannot import labpoly from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "labpoly":
        print(f"labpoly imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    stamp = environment_stamp(args)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        jobs = workloads.build(args.workload, args.seed, tmp)
        setup = SetupTimer()
        bench = Bench(jobs, cli.main, Tracer() if args.trace else None)
        t_start = time.perf_counter()
        bench.warm_up()
        plain, traced = [], []
        number = 0
        while (time.perf_counter() - t_start < args.seconds
               or len(plain) < MIN_ROUNDS or (args.trace and len(traced) < MIN_ROUNDS)):
            setup.sample(SETUP_PER_PASS)
            plain.append(bench.round(number, False))
            number += 1
            if args.trace:
                traced.append(bench.round(number, True))
                number += 1

    e2e = end_to_end(bench, plain)
    e2e["setup_s"] = setup.result()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        per_layer = layers.summarize(traced, e2e["wall_s"][0])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer.items()}
    else:
        metrics = {name: {"value": cal, "unit": "s"} for name, (cal, _) in e2e.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    record = {"environment": stamp, "rounds": len(plain) + len(traced),
              "jobs": len(jobs), "end_to_end": {k: {"calibrated": c, "raw": r}
                                                for k, (c, r) in e2e.items()},
              "peak_rss_mb": peak_rss_mb, "metrics": metrics,
              "failures": {str(i): r for i, r in bench.wrong.items()},
              "spans": bench.spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    print("environment " + json.dumps(stamp))
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; {len(jobs)} jobs each")
    for k, (c, r) in sorted(e2e.items()):
        print(f"{k} {c:.6f} s calibrated (raw {r:.6f} s)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_frac {bench.failed / bench.attempted:.6f} "
          f"({bench.failed}/{bench.attempted} jobs)")
    for i, reason in sorted(bench.wrong.items())[:10]:
        print(f"FAILED {' '.join(jobs[i].argv)}: {reason}")
    if args.trace:
        for k, m in metrics.items():
            print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
