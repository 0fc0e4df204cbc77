"""In-memory span tracer and the per-layer metrics derived from it.

A span is (name, start, end, parent, run id).  The benchmark opens one root
span around each operation it runs; in a traced pass it also replaces the
public functions listed in ``PROBES`` at every binding in a galconf module,
including names imported with ``from .x import y``, so that calls from
``verify`` and ``cli`` into the lower modules get child spans.  A span's
duration leaves out the calibration samples taken inside it (see
``calibration.py``).  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _integrate_label(args, kwargs) -> str:
    method = args[4] if len(args) > 4 else kwargs.get("method", "rk4")
    return f"dynamics.integrate.{method}"


def _steps(args, kwargs, out) -> int:
    return len(out.times) - 1


# "module.function" -> units of work done by one call (None: no count).
PROBES: Dict[str, Optional[Callable]] = {
    "algebra.build_algebra": None,
    "algebra.jacobi_worst": lambda a, k, out: math.comb(len(a[0].generators), 3),
    "coadjoint.coad_generic": None,
    "coadjoint.ctrans": None,
    "coadjoint.casimir_values": None,
    "poisson.generators_at": None,
    "poisson.dual_vector_at": None,
    "poisson.poly_bracket": None,
    "dynamics.integrate": _steps,
    "dynamics.record_values": lambda a, k, out: len(a[0]),
    "dynamics.trajectory_csv_text": lambda a, k, out: len(out),
    "dynamics.verify_motion_order": None,
    "symmetry.integrals_of_motion": None,
    "symmetry.map_trajectory": None,
}

# Span names whose label depends on the arguments.
LABELS = {"dynamics.integrate": _integrate_label}


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    work: int = 0


class Tracer:
    """Collects spans in parallel lists; nothing is written until the run ends."""

    def __init__(self):
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.run: List[int] = []
        self.work: List[int] = []
        self.run_id = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        label = LABELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(label(args, kwargs) if label else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.work[idx] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every galconf binding of the probed functions."""
        wrappers = {}
        for name, work in PROBES.items():
            module, func = name.split(".")
            original = getattr(sys.modules[f"galconf.{module}"], func)
            wrappers[id(original)] = (original, self._wrap(name, original, work))
        for modname, module in list(sys.modules.items()):
            if modname != "galconf" and not modname.startswith("galconf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def stats(self, samples=()) -> Dict[str, SpanStats]:
        """Per-name totals; ``samples`` are the (start, end, _) intervals of
        calibration samples, whose time is taken out of the spans they fall in."""
        starts = [t for t, _, _ in samples]
        busy = [0.0, *itertools.accumulate(e - t for t, e, _ in samples)]

        def duration(i):
            lo = bisect.bisect_left(starts, self.start[i])
            hi = bisect.bisect_left(starts, self.end[i])
            return self.end[i] - self.start[i] - (busy[hi] - busy[lo])

        durations = [duration(i) for i in range(len(self.names))]
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durations[i]
        out: Dict[str, SpanStats] = defaultdict(SpanStats)
        for i, name in enumerate(self.names):
            st = out[name]
            dur = durations[i]
            st.calls += 1
            st.total += dur
            st.self_time += dur - child[i]
            st.work += self.work[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,run,name,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parent[i]},{self.run[i]},{name},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def self_time_table(stats: Dict[str, SpanStats], passes: int) -> List[str]:
    """Rows sorted by self time; totals are per traced pass."""
    grand = sum(st.self_time for st in stats.values()) or 1.0
    rows = [f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_time):
        rows.append(f"{name:<34} {st.calls / passes:>9.0f} {st.total / passes:>10.4f} "
                    f"{st.self_time / passes:>10.4f} {100 * st.self_time / grand:>6.1f}")
    return rows


def _per_call_us(st: SpanStats) -> float:
    return 1e6 * st.total / st.calls if st.calls else 0.0


def _per_work_us(st: SpanStats, attr: str = "total") -> float:
    return 1e6 * getattr(st, attr) / st.work if st.work else 0.0


def layer_metrics(stats: Dict[str, SpanStats], counts: Dict[str, int], passes: int,
                  overhead_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced pass; ``counts`` come from the operations."""
    s = defaultdict(SpanStats, stats)  # a copy: unreached layers add no table rows
    m: Dict[str, Tuple[float, str]] = {}

    def calls(span):
        m[f"{span}.calls"] = (s[span].calls / passes, "count")

    def seconds(span):
        m[f"{span}.s"] = (s[span].total / passes, "s")

    for span in ("algebra.build_algebra", "algebra.jacobi_worst"):
        calls(span)
        seconds(span)
    m["algebra.jacobi.triples"] = (s["algebra.jacobi_worst"].work / passes, "count")
    m["algebra.jacobi.us_per_triple"] = (_per_work_us(s["algebra.jacobi_worst"]), "us")
    tried = counts.get("algebra.mutants.tried", 0)
    m["algebra.mutants.tried"] = (tried / passes, "count")
    detected = counts.get("algebra.mutants.detected", 0)
    # With no flip tried, none was missed.
    m["algebra.mutants.detected_ratio"] = (detected / tried if tried else 1.0, "ratio")
    for span in ("poisson.generators_at", "poisson.dual_vector_at",
                 "coadjoint.casimir_values", "coadjoint.coad_generic",
                 "coadjoint.ctrans", "symmetry.integrals_of_motion"):
        calls(span)
        m[f"{span}.us"] = (_per_call_us(s[span]), "us")
    m["dynamics.record_values.us_per_state"] = (_per_work_us(s["dynamics.record_values"]), "us")
    m["dynamics.rk4.us_per_step"] = (
        _per_work_us(s["dynamics.integrate.rk4"], "self_time"), "us")
    m["dynamics.closed.us_per_sample"] = (
        _per_work_us(s["dynamics.integrate.closed"], "self_time"), "us")
    seconds("dynamics.verify_motion_order")
    seconds("dynamics.trajectory_csv_text")
    m["dynamics.csv_bytes"] = (s["dynamics.trajectory_csv_text"].work / passes, "bytes")
    calls("poisson.poly_bracket")
    seconds("poisson.poly_bracket")
    seconds("symmetry.map_trajectory")
    for suite in ("algebra", "orbit", "poisson", "dynamics", "symmetry"):
        seconds(f"verify.{suite}")
    for key in ("verify.cases", "verify.cases_failed", "cli.exit_nonzero"):
        m[key] = (counts.get(key, 0) / passes, "count")
    seconds("cli.simulate")
    seconds("cli.algebra_check")
    m["trace.spans"] = (sum(st.calls for st in stats.values()) / passes, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
