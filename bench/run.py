"""Benchmark of lbk: exact axiom verdicts on the fixture ladder, and queries.

    python3 bench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; lbk is imported from
the checkout's ``src`` directory, and the ops run in this process, on one
thread.  Set-up is timed in fresh processes (``ready.py``), one at a time,
before the ops start.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``ops_per_s``, ``op_p50_ms``, ``op_p99_ms`` and ``peak_rss_mb``.  ``ladder``
and ``pruned`` decide one pass of models, however long it takes; ``queries``
runs whole passes until ``--seconds`` have been spent in them.  Times are
corrected for the speed of the host, which a timer-driven probe samples.

With ``--trace 1`` the run makes a fixed number of passes untraced, then as
many with every layer traced, and reports the per-layer metrics of the
traced passes plus ``trace.overhead``, the traced passes' op time over the
untraced passes' op time, minus one.

Each run also writes its result, with raw and corrected times per op or the
per-layer totals per op group, to ``bench/out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from time import perf_counter

# Set-ups read lbk and this benchmark from cached bytecode, as an installed
# package would; with PYTHONDONTWRITEBYTECODE set, each would compile afresh.
sys.dont_write_bytecode = False

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# Set-ups per run, each in a fresh process; setup_s is their median.
SET_UPS = 9

# Passes of an untraced run; None runs whole passes until --seconds of op
# time.  A pass of ``ladder`` or ``pruned`` takes longer than the run length
# of BENCHMARK.json, and a fixed pass keeps what a run measures, and the
# count of failed ops in ``pruned``, the same however fast lbk gets.
PASSES = {"ladder": 1, "pruned": 1, "queries": None}

# Passes in each half of a traced run.
TRACE_PASSES = {"ladder": 1, "pruned": 1, "queries": 5}

# Host-speed correction.  On a shared host one and the same op runs at a
# speed that drifts with the load of other tenants: a 1-s lbk op repeated for
# a minute varies by 9-13% (coefficient of variation), while CPU time stays
# 99% of wall time.  A SIGALRM timer runs a small piece of Fraction
# arithmetic, the probe, every PROBE_EVERY_S throughout the run.  Each timed
# interval loses the time of the probes that interrupted it and is scaled by
# PROBE_REF_S over the mean probe time within PROBE_WINDOW_S of it; that cuts
# the variation of the repeated op to about 4%.
PROBE_STEPS = 100
PROBE_REF_S = 0.0008
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25

# A set-up runs in a child process, which this process's timer does not
# interrupt; the child probes the host's speed itself, this many times, as
# soon as its inputs are ready.
PROBES_AFTER_SET_UP = 10


def probe() -> None:
    """PROBE_STEPS steps of small-Fraction arithmetic, with the GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        positive = 0
        for i in range(PROBE_STEPS):
            x = (Fraction(i % 13 - 6, i % 11 + 1) + Fraction(i % 7 + 1, 5)) * Fraction(3, i % 5 + 1)
            positive += x > 0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes the host's speed while in use; corrects timed intervals by it."""

    def __init__(self):
        self.at = array("d")  # when each probe started
        self.took = array("d")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame):
        start = perf_counter()
        probe()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def correct(self, spans) -> list[float]:
        """The length of each interval, net of probes, at the reference speed.

        ``spans`` holds the intervals' starts and ends, interleaved.
        """
        total = list(accumulate(self.took, initial=0.0))
        last = len(self.at) - 1
        out = []
        for start, end in zip(spans[::2], spans[1::2]):
            inside = total[bisect_left(self.at, end)] - total[bisect_left(self.at, start)]
            lo = min(bisect_left(self.at, start - PROBE_WINDOW_S), last)
            hi = max(bisect_right(self.at, end + PROBE_WINDOW_S), lo + 1)
            mean = (total[hi] - total[lo]) / (hi - lo)
            out.append((end - start - inside) * PROBE_REF_S / mean)
        return out


def import_lbk():
    """Import lbk from the checkout's sources."""
    sys.path.insert(0, str(SRC))
    import lbk

    if Path(lbk.__file__).resolve().parent != (SRC / "lbk").resolve():
        raise ImportError(f"lbk was imported from {lbk.__file__}, not from {SRC}")
    return lbk


def timed_set_up(workload: str, seed: int) -> tuple[float, float]:
    """Set up in a fresh process; returns the time from its start to its
    first op, raw and at the reference speed."""
    start = perf_counter()
    child = subprocess.run(
        [sys.executable, str(BENCH / "ready.py"), workload, str(seed)],
        capture_output=True, text=True, check=True,
    )
    ready, probe_s = (float(x) for x in child.stdout.split()[-2:])
    return ready - start, (ready - start) * PROBE_REF_S / probe_s


class Tally:
    """Op times, counts and problems, plus per-group trace totals.

    Op times are kept in an array, so that the benchmark's own memory, which
    ``peak_rss_mb`` includes, hardly grows with the number of ops.
    """

    def __init__(self):
        self.spans = array("d")  # start and end of each op
        self.groups: list[str] = []
        self.op_time = 0.0
        self.failed_ops: list[str] = []
        self.problems: list[str] = []
        self.layers: dict[str, dict] = {}

    def run_pass(self, ops, reference=None, tracer=None):
        """Run every op once.  With a reference (the first pass's results)
        each result must equal it; otherwise each result is checked."""
        results = []
        for i, op in enumerate(ops):
            before = tracer.snapshot() if tracer else None
            start = perf_counter()
            result = op.run()
            end = perf_counter()
            self.spans.extend((start, end))
            self.groups.append(op.group)
            self.op_time += end - start
            if tracer:
                group = self.layers.setdefault(op.group, {"ops": 0})
                group["ops"] += 1
                tracing.accumulate(group, tracing.delta(tracer.snapshot(), before))
            if reference is None:
                failed, problems = op.check(result)
            else:
                failed, problems = reference[i][1], []
                if result != reference[i][0]:
                    problems = ["result differs from the first pass"]
            if failed:
                self.failed_ops.append(op.group)
            self.problems += [f"{op.group}: {p}" for p in problems]
            results.append((result, failed))
        return results

    def run(self, ops, passes=None, seconds=None, tracer=None):
        """Whole passes: a fixed number, or until ``seconds`` of op time.

        Later passes reuse the first pass's inputs, with whatever lbk cached
        in them, and must give its results.
        """
        reference = self.run_pass(ops, tracer=tracer)
        done = 1
        while (done < passes) if passes is not None else (self.op_time < seconds):
            self.run_pass(ops, reference, tracer)
            done += 1

    def raw(self) -> list[float]:
        return [end - start for start, end in zip(self.spans[::2], self.spans[1::2])]


def end_to_end(latencies: list[float], setup_s: float, peak_rss_kb: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        # With the 20 ops of a ladder or pruned pass this lies between the two
        # slowest models; "inclusive" keeps it from extrapolating past them.
        "op_p99_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lbk" / "__init__.py").is_file():
        print(f"bench: no lbk sources at {SRC}", file=sys.stderr)
        return 2
    lbk = import_lbk()
    make_ops = WORKLOADS[args.workload]

    setups_raw, setups = [], []
    for _ in range(0 if args.trace else SET_UPS):
        raw, corrected = timed_set_up(args.workload, args.seed)
        setups_raw.append(raw)
        setups.append(corrected)

    tally = Tally()
    traced = Tally()
    with HostSpeed() as host:
        ops = make_ops(lbk, args.seed)
        if args.trace:
            passes = TRACE_PASSES[args.workload]
            tally.run(ops, passes=passes)
            traced.run(make_ops(lbk, args.seed), passes=passes, tracer=tracing.Tracer(lbk))
        else:
            tally.run(ops, passes=PASSES[args.workload], seconds=args.seconds)
        # Read before the statistics below allocate per-op lists.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        untraced_s = sum(host.correct(tally.spans))
        traced_s = sum(host.correct(traced.spans))
        totals: dict = {}
        for group in traced.layers.values():
            tracing.accumulate(totals, group)
        metrics = tracing.layer_metrics(totals)
        metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
        tallies = [tally, traced]
        record = {"untraced_s": untraced_s, "traced_s": traced_s, "groups": traced.layers}
    else:
        latencies = host.correct(tally.spans)
        metrics = end_to_end(latencies, statistics.median(setups), peak_rss_kb)
        tallies = [tally]
        record = {
            "setups_raw_s": setups_raw,
            "setups_s": setups,
            "probes_s": list(host.took),
            "ops": list(zip(tally.groups, tally.raw(), latencies)),
        }

    problems = [p for t in tallies for p in t.problems]
    failed_ops = [g for t in tallies for g in t.failed_ops]
    for problem in problems[:50]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if failed_ops:
        print(f"bench: failed ops: {', '.join(failed_ops)}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(t.groups) for t in tallies),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    record = {"args": vars(args), **result, "failed_ops": failed_ops, **record}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
