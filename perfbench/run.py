"""galconf benchmark: run one workload, untraced or traced, and report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

The run imports galconf from ``src/`` of the tree it sits in, sets up the
workload's inputs from the seed several times (``setup_s`` is the median),
repeats untimed warm-up passes over the operations for a few seconds, and
then repeats timed passes for ``--seconds``.  While a set-up or a timed
operation runs, a fixed calibration kernel is timed every few milliseconds,
and the time-based end-to-end metrics are in ``cal`` units, multiples of
the kernel's time (see ``calibration.py``); ``setup_s`` is its cost in cal
stated in seconds at ``calibration.NOMINAL_S`` per cal.
Every operation's output is checked and digested; an operation whose digest
differs from the first warm-up pass counts as failed.  With ``--trace 1``
every untraced pass is followed by a traced pass, and the per-layer metrics
and the tracing overhead come from those.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it and ``perfbench/results/`` hold the
environment block and the details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("algebra", "coadjoint", "poisson", "dynamics", "symmetry", "verify", "cli")
SETUP_REPEATS = 25
WARM_UP_SECONDS = 3.0  # the first seconds of work in a process run measurably slower
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify_all", "simulate", "propagate", "algebra_scale"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_galconf() -> SimpleNamespace:
    """Import galconf afresh from SRC, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "galconf" or n.startswith("galconf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("galconf")
    if Path(pkg.__file__).resolve().parent != SRC / "galconf":
        raise ImportError(f"galconf was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"galconf.{m}") for m in MODULES})


def git_commit():
    """HEAD of the enclosing checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, ops_per_pass: int, passes: dict) -> dict:
    import numpy as np
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "galconf").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "ops_per_pass": ops_per_pass,
        "passes": passes,
    }


def set_up(workload: str, seed: int, workdir: Path):
    """Import galconf afresh and build the workload's operations."""
    import workloads
    g = import_galconf()
    return workloads.WORKLOADS[workload](g, seed, workdir)


def attempt(op):
    """Run one operation; returns (result, None) or (None, traceback text)."""
    try:
        return op.run(), None
    except Exception:  # a raising operation fails but stays in the timing
        return None, traceback.format_exc()


def run_pass(ops, sampler=None, tracer=None):
    """Run every operation once; returns [(latency_s, cost_cal, Outcome)].

    With a ``sampler`` each operation runs through it and has a cost in
    ``cal``; without one the cost is None.
    """
    from workloads import Outcome
    records = []
    for op in ops:
        if tracer is not None:
            tracer.run_id += 1
            span = tracer.open(op.span)
        if sampler is None:
            start = perf_counter()
            result, error = attempt(op)
            latency, cost = perf_counter() - start, None
        else:
            (result, error), latency, cost = sampler.call(partial(attempt, op))
        if tracer is not None:
            tracer.close(span)
        if error is None:
            try:
                outcome = op.check(result)
            except Exception:  # an output the check cannot read is a wrong output
                error = traceback.format_exc()
        if error is not None:
            sys.stderr.write(f"operation {op.span} failed:\n{error}")
            outcome = Outcome(ok=False, work=0, digest="error")
        records.append((latency, cost, outcome))
    return records


def typical(passes, field: int) -> list:
    """Each operation's median over the passes of its latency (field 0) or
    cost (field 1)."""
    return [statistics.median(xs) for xs in zip(*([rec[field] for rec in r] for r in passes))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "galconf" / "__init__.py").is_file():
        sys.stderr.write(f"no galconf package under {SRC}; run from a full checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import calibration
    import tracing

    seed = args.seed % 2 ** 32
    workdir = RESULTS / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    sampler = calibration.Sampler()
    setup_times, setup_costs = [], []
    sampler.install()
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            ops, seconds, cost = sampler.call(partial(set_up, args.workload, seed, workdir))
            setup_times.append(seconds)
            setup_costs.append(cost)
    finally:
        sampler.uninstall()

    warm = []
    start = perf_counter()
    while not warm or perf_counter() - start < WARM_UP_SECONDS:
        warm.append(run_pass(ops))
    tracer = tracing.Tracer() if args.trace else None
    timed, traced = [], []
    start = perf_counter()
    last = 0.0  # a pass is started only if one more as long fits in --seconds
    while not timed or perf_counter() - start + last <= args.seconds:
        begun = perf_counter()
        sampler.install()
        try:
            timed.append(run_pass(ops, sampler))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(ops, sampler, tracer))
                finally:
                    tracer.uninstall()
        finally:
            sampler.uninstall()
        last = perf_counter() - begun

    # Determinism: every pass must reproduce the first pass's outputs.
    reference = [o.digest for _, _, o in warm[0]]
    attempted = failed = 0
    for records in warm + timed + traced:
        for (_, _, o), ref in zip(records, reference):
            if o.digest != ref:
                o.ok = False
            failed += not o.ok
        attempted += len(records)

    costs = typical(timed, 1)
    wall_cal = sum(costs)
    latencies = typical(timed, 0)
    wall_s = sum(latencies)
    work = sum(o.work for _, _, o in timed[0])
    all_latencies = sorted(rec[0] for r in timed for rec in r)
    e2e = {
        "wall_cal": (wall_cal, "cal"),
        "work_per_cal": (work / wall_cal, "1/cal"),
        "op_p50_cal": (statistics.median(costs), "cal"),
        "setup_s": (statistics.median(setup_costs) * calibration.NOMINAL_S, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    env = environment(seed, len(ops), {"warm_up": len(warm), "timed": len(timed), "traced": len(traced)})
    # Raw wall-clock figures, for reading only: they move with the host's load.
    cal_s = statistics.fmean(s for _, _, s in sampler.samples)
    raw = {
        "wall_s": (wall_s, "s"),
        "work_per_s": (work / wall_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "cal_ms": (1e3 * cal_s, "ms"),
        "cal_samples": (len(sampler.samples), "count"),
    }
    if len(all_latencies) >= 100:
        raw["op_p90_ms"] = (1e3 * statistics.quantiles(all_latencies, n=10)[-1], "ms")
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {args.workload}: {len(all_latencies)} timed operations, "
             f"{work} work units per pass, {attempted} attempted, {failed} failed "
             f"(failed_ratio {failed / attempted})"]
    lines += [f"{name} {value} {unit} (raw)" for name, (value, unit) in raw.items()]
    lines += [f"{name} {value} {unit}" for name, (value, unit) in e2e.items()]
    result = {"workload": args.workload, "env": env, "end_to_end": e2e, "raw": raw,
              "attempted": attempted, "failed": failed,
              "calibration_s": [s for _, _, s in sampler.samples],
              "op_latencies_s": {"warm_up": [[rec[0] for rec in r] for r in warm],
                                 "timed": [[rec[0] for rec in r] for r in timed]},
              "op_costs_cal": [[rec[1] for rec in r] for r in timed]}
    metrics = e2e

    if tracer is not None:
        # In cal, so that the host's load between the two passes cancels;
        # shown in seconds at the run's mean kernel time.
        overhead = (sum(typical(traced, 1)) - wall_cal) * cal_s
        counts = {}
        for _, _, o in (rec for r in traced for rec in r):
            for key, value in o.counts.items():
                counts[key] = counts.get(key, 0) + value
        stats = tracer.stats(sampler.samples)
        metrics = tracing.layer_metrics(stats, counts, len(traced), overhead)
        table = tracing.self_time_table(stats, len(traced))
        lines += ["self time per traced pass:"] + table
        lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
        result["per_layer"] = metrics
        tracer.write_spans(RESULTS / f"{args.workload}-spans.csv")
        (RESULTS / f"{args.workload}-self-time.txt").write_text("\n".join(table) + "\n")

    (RESULTS / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
