"""Benchmark of the gradedbrauer package: seeded workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``classify-sparse``, ``dense``, ``certify`` (in process, warm)
and ``cli`` (fresh ``python -m gradedbrauer.cli`` children, one at a
time); see ``workloads.py`` for what each one exercises and why.

Each run first generates every input from ``--seed``, then repeats the
workload's whole op schedule, at least three times and for about
``--seconds``, checking every answer against ``oracle.py``.  An op's
latency is the fastest of its repeats.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's record (environment, tail
percentile and sample count, per-op-kind timings), also written to
``.bench_out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
schedule untraced for half the time and traced for the other half, and
reports per-op call counts and self times of the package's layers plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import refloop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-sparse", "dense", "certify", "cli")
SETUP_REPEATS = 5
MIN_REPEATS = 3
# How far beyond an op's own length its reference window reaches: enough
# to take in the reference timings right before and right after it.
WINDOW_MARGIN_S = 0.02
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gradedbrauer as g\n"
    "g.bw_class(g.ground_algebra(g.REAL))\n"
    "g.bw_class(g.ground_algebra(g.COMPLEX))\n"
    "print(repr(time.perf_counter() - t))\n")

# Functions whose calls and self time the traced run reports, per op.
TRACED = (
    "clifford.clifford", "algebra.GradedAlgebra.__init__",
    "algebra.graded_tensor", "algebra.end_graded", "algebra.opposite",
    "algebra.m11", "algebra.GradedAlgebra.mul", "algebra.graded_centralizer",
    "algebra.hat_center", "algebra.trace_gram", "algebra.trace_signature",
    "algebra.GradedAlgebra.even_part", "algebra.is_azumaya",
    "algebra.GradedAlgebra.validate", "algebra.GradedAlgebra.to_json",
    "algebra.GradedAlgebra.from_json", "linalg.row_echelon", "linalg.nullspace",
    "linalg.solve", "linalg.in_row_span", "linalg.signature",
    "linalg.rank_mod_prime", "linalg.rank", "invariants.invariant_triple",
    "invariants.bw_class", "invariants.quadratic_descriptor",
    "invariants.ungraded_class", "invariants._calibration",
    "spaces.compute_report", "spaces.circle_reports", "spaces.curve_reports",
    "spaces.surface_reports", "spaces.named_examples", "selftest.run_selftest",
    "cli.main", "groups.invariant_factors", "scalars.parse_rational",
    "scalars.format_rational",
)


def per_layer_names() -> list:
    """Every per-layer metric, as ``(name, unit)``, in report order."""
    names = []
    for fn in TRACED:
        names += [(f"{fn}.calls", "calls/op"), (f"{fn}.self_s", "s/op")]
    names += [("linalg.rank_mod_prime.matrix_bytes", "B/op-computed"),
              ("algebra.is_azumaya.first_prime_ratio", "ratio"),
              ("invariants._calibration.misses", "misses/op"),
              ("cli.import_s", "s/op"), ("cli.json_dump_s", "s/op"),
              ("trace.overhead_ratio", "ratio")]
    return names


# ------------------------------------------------------------ environment

def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def pin_to_one_cpu() -> list:
    """Keep this process and the children it starts on one CPU, so that
    the reference loop and the ops it calibrates run on the same core (on
    a shared host the cores change speed independently).  Returns the
    CPUs now allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "reference_s_start": refloop.reference_s(),
            "commit": git_commit(ROOT)}


def measure_setup(env: dict) -> list:
    """``(seconds, reference_s)`` to import the package and fill the
    calibration cache, each time in a fresh interpreter; the reference
    loop runs here, right before and right after each child.  (Timed in
    the child itself, the loop spread more: a fresh interpreter's loop
    times varied more than a warm one's.)"""
    out = []
    before = refloop.reference_s()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        after = refloop.reference_s()
        out.append((float(proc.stdout.strip().splitlines()[-1]),
                    (before + after) / 2.0))
        before = after
    return out


def at_nominal(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference loop took ``reference``,
    expressed at the loop's nominal speed."""
    return seconds * refloop.NOMINAL_S / reference


# ----------------------------------------------------------------- timing

class Sample(NamedTuple):
    """One timed op: its index in the schedule, its label, its wall-clock
    latency, whether the oracle accepted it, and the reference loop's time
    around it (see ``window_reference``)."""

    slot: int
    label: str
    latency_s: float
    ok: bool
    reference_s: float


def run_repeats(workload, seconds: float, min_repeats: int, tracer=None):
    """Run the workload's whole schedule at least ``min_repeats`` times,
    then again while one more repeat, as long as the last, still ends
    within ``seconds``.

    Returns one ``Sample`` per op run.  Only ``op.run`` is timed; the
    oracle check runs outside the timed region, and the reference loop
    runs between ops.
    """
    runs = []
    refs = [(time.perf_counter(), refloop.reference_s())]
    start = refs[0][0]
    repeats = 0
    while True:
        begun = time.perf_counter()
        for slot, op in enumerate(workload.ops):
            root = tracer.begin("bench.op") if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                t1 = time.perf_counter()
                ok = False
            else:
                t1 = time.perf_counter()
                try:
                    ok = bool(op.check(out))
                except (ValueError, KeyError, TypeError, OSError):
                    ok = False
            finally:
                if tracer:
                    tracer.end(root)
            runs.append((slot, op.label, t0, t1, ok, len(refs) - 1))
            refs.append((time.perf_counter(), refloop.reference_s()))
        repeats += 1
        now = time.perf_counter()
        if repeats >= min_repeats and (now - start) + (now - begun) > seconds:
            break
    return [Sample(slot, label, t1 - t0, ok,
                   window_reference(refs, before, t0, t1))
            for slot, label, t0, t1, ok, before in runs]


def window_reference(refs: list, before: int, t0: float, t1: float) -> float:
    """The mean of the ``(time, reference_s)`` timings in ``refs`` from one
    op-length before ``t0`` to one op-length after ``t1``, and at least of
    ``refs[before]`` and ``refs[before + 1]``, the ones right around the op.
    The machine switches speed within a long op, which the two timings
    around it sample poorly; those around its neighbours sample the same
    stretch of time."""
    reach = (t1 - t0) + WINDOW_MARGIN_S
    lo = min(before, bisect.bisect_left(refs, (t0 - reach,)))
    hi = max(before + 2, bisect.bisect_right(refs, (t1 + reach,)))
    window = [value for _, value in refs[lo:hi]]
    return sum(window) / len(window)


def op_latencies(samples) -> list:
    """Each op's latency at nominal speed, the median over its repeats, in
    schedule order."""
    by_slot = defaultdict(list)
    for s in samples:
        by_slot[s.slot].append(at_nominal(s.latency_s, s.reference_s))
    return [statistics.median(by_slot[slot]) for slot in sorted(by_slot)]


def tail(latencies: list) -> tuple:
    """``(q, value)``: the highest integer percentile ``q`` (nearest rank)
    with at least ten samples above it, but never below the median."""
    n = len(latencies)
    ordered = sorted(latencies)
    q = max(50, 100 * (n - 10) // n) if n > 10 else 50
    rank = max(1, -(-q * n // 100))
    return q, ordered[rank - 1]


def throughput(samples, nominal: bool = True) -> float:
    """Correct ops per second of op time, over every sample; at nominal
    speed unless ``nominal`` is false."""
    busy = sum(at_nominal(s.latency_s, s.reference_s) if nominal else s.latency_s
               for s in samples)
    return sum(s.ok for s in samples) / busy


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(samples, setup: list, children: bool) -> tuple:
    """The end-to-end metrics, times at the reference loop's nominal speed.
    Latencies are per op of the schedule, each the median of its repeats;
    ``ops_per_s`` is the ops of one schedule over the sum of those
    latencies, times the share answered correctly."""
    lat = op_latencies(samples)
    attempted = len(samples)
    ok = sum(s.ok for s in samples)
    q, tail_value = tail(lat)
    metrics = {
        "setup_s": (statistics.median(at_nominal(*run) for run in setup), "s"),
        "ops_per_s": (ok / attempted * len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "op_tail_ms": (tail_value * 1000.0, "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
    }
    detail = {"tail_percentile": q, "samples": len(lat),
              "repeats": attempted // len(lat),
              "error_ratio": (attempted - ok) / attempted,
              "wall_clock": {
                  "setup_s": [run[0] for run in setup],
                  "ops_per_s": throughput(samples, nominal=False),
                  "op_p50_ms": statistics.median(
                      s.latency_s for s in samples) * 1000.0,
                  "reference_s_median": statistics.median(
                      s.reference_s for s in samples)}}
    return metrics, detail


def by_label(samples) -> dict:
    """Per op kind: runs, and median latency at nominal speed and as
    measured."""
    groups = defaultdict(list)
    for s in samples:
        groups[s.label].append(s)
    return {label: {"n": len(v),
                    "median_ms": statistics.median(
                        at_nominal(s.latency_s, s.reference_s) for s in v) * 1000.0,
                    "wall_median_ms": statistics.median(
                        s.latency_s for s in v) * 1000.0}
            for label, v in sorted(groups.items())}


# ----------------------------------------------------------------- traced

def traced_run(workload, seconds: float, out_dir: Path, tag: str) -> tuple:
    import layertrace

    plain = run_repeats(workload, seconds / 2.0, 1)
    if workload.launcher is not None:
        spans_dir = out_dir / f"spans-{tag}"
        spans_dir.mkdir(exist_ok=True)
        for old in spans_dir.glob("*.jsonl"):
            old.unlink()
        workload.launcher.spans_dir = spans_dir
        try:
            traced = run_repeats(workload, seconds / 2.0, 1)
        finally:
            workload.launcher.spans_dir = None
        files = sorted(spans_dir.glob("*.jsonl"))
    else:
        calibration = importlib.import_module("gradedbrauer.invariants")._calibration
        misses_before = calibration.cache_info().misses
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = run_repeats(workload, seconds / 2.0, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.counters["invariants._calibration.misses"] = (
            calibration.cache_info().misses - misses_before)
        path = out_dir / f"spans-{tag}.jsonl"
        tracer.dump(path)
        files = [path]
    totals: dict = defaultdict(lambda: [0, 0.0])
    counters: dict = defaultdict(float)
    for path in files:
        spans, extra = layertrace.read_spans(path)
        for name, (calls, self_s) in layertrace.self_times(spans).items():
            totals[name][0] += calls
            totals[name][1] += self_s
        for key, value in extra.items():
            counters[key] += value
    ops = len(traced)
    azumaya_calls = totals["algebra.is_azumaya"][0]
    special = {
        "linalg.rank_mod_prime.matrix_bytes":
            counters["linalg.rank_mod_prime.matrix_bytes"] / ops,
        "algebra.is_azumaya.first_prime_ratio":
            (counters["algebra.is_azumaya.first_prime_full"] / azumaya_calls
             if azumaya_calls else 0.0),
        "invariants._calibration.misses":
            counters["invariants._calibration.misses"] / ops,
        "cli.import_s": totals["cli.import"][1] / ops,
        "cli.json_dump_s": totals["cli.json_dump"][1] / ops,
        "trace.overhead_ratio": throughput(traced) / throughput(plain),
    }
    metrics = {}
    for name, unit in per_layer_names():
        if name in special:
            value = special[name]
        else:
            fn, _, kind = name.rpartition(".")
            value = totals[fn][0 if kind == "calls" else 1] / ops
        metrics[name] = (value, unit)
    detail = {"untraced_ops": len(plain), "traced_ops": ops,
              "span_files": [str(p.relative_to(ROOT)) for p in files]}
    return plain + traced, metrics, detail


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gradedbrauer" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'gradedbrauer'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    pinned = pin_to_one_cpu()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": {**environment(), "pinned_cpus": pinned}}
    setup = [] if args.trace else measure_setup(workloads.child_env(ROOT))
    if args.workload != "cli":
        import gradedbrauer as g
        g.bw_class(g.ground_algebra(g.REAL))
        g.bw_class(g.ground_algebra(g.COMPLEX))
    t0 = time.perf_counter()
    workload = workloads.make(args.workload, args.seed, ROOT, out_dir)
    record["generate_s"] = time.perf_counter() - t0
    record["why"] = workload.why
    # The inputs live for the whole run; keep the collector from walking
    # them again in every full collection during the timed ops.
    gc.collect()
    gc.freeze()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        samples, metrics, detail = traced_run(workload, args.seconds, out_dir, tag)
    else:
        samples = run_repeats(workload, args.seconds, MIN_REPEATS)
        metrics, detail = end_to_end(samples, setup, workload.launcher is not None)
    record.update(detail)
    record["environment"]["loadavg_end"] = os.getloadavg()
    record["environment"]["reference_s_end"] = refloop.reference_s()
    record["ops"] = by_label(samples)
    (out_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    failed = sum(not s.ok for s in samples)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
