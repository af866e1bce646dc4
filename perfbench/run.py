"""Benchmark for the ucf package.

    python3 perfbench/run.py --workload {grid,wide,search,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run exits non-zero without a result
if it is not there.  Scratch files go to ``.bench_out/`` in the checkout.

``--trace 0`` is the untraced run.  The timed phase repeats the workload's
operations in passes that alternate the thread setting (1, 2, 1, 2, ...),
in whole pairs, for about ``--seconds``; then every output is checked and
set-up is timed in fresh processes.  ``--trace 1`` runs one untraced and one
traced serial pass and reports per-layer metrics.  Details, the layer
predictions and the baseline are in ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, Record  # noqa: E402


def import_ucf():
    """Import the checkout's package, never an installed one."""
    if not (SRC / "ucf" / "__init__.py").is_file():
        sys.exit(f"error: no ucf package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ucf
    import ucf.cli
    if Path(ucf.__file__).resolve().parent != SRC / "ucf":
        sys.exit(f"error: imported ucf from {ucf.__file__}, not from {SRC}")
    return ucf


class Speed:
    """The machine's current speed, from a fixed calibration loop.

    The machines this runs on share cores with other tenants, and each CPU's
    speed switches between states for seconds at a time (the same loop takes
    21 ms or 29 ms).  Each operation's time is rescaled by REFERENCE_S over
    the calibration time measured around it, which is the time the operation
    would take at the reference speed.  The loop mixes interpreted Python
    with a numpy sort, like the package does.  Operations that ask the
    package for two worker processes may run on any CPU, so they are
    rescaled by the mean of the loop's time on each CPU.
    """

    REFERENCE_S = 0.005     # the loop's best time on the baseline machine (README)
    EVERY_S = 0.25

    def __init__(self):
        import numpy
        self._matrix = numpy.random.default_rng(0).integers(0, 2, (250, 512), dtype=numpy.uint8)
        self._unique = numpy.unique
        self._recent = {False: [], True: []}
        self._last = {False: -float("inf"), True: -float("inf")}
        for _ in range(5):      # the first calls of the loop run cold
            self._loop()

    def _loop(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(35000):
            acc += i * i
        self._unique(self._matrix, axis=0)
        return time.perf_counter() - t0

    def _every_cpu(self):
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self._loop())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(times) / len(times)

    def factor(self, all_cpus=False):
        """REFERENCE_S over the median of the last three probes, probing
        again when the newest is older than EVERY_S."""
        if time.perf_counter() - self._last[all_cpus] > self.EVERY_S:
            probe = self._every_cpu() if all_cpus else self._loop()
            self._recent[all_cpus] = self._recent[all_cpus][-2:] + [probe]
            self._last[all_cpus] = time.perf_counter()
        return self.REFERENCE_S / statistics.median(self._recent[all_cpus])


def run_pass(ucf, wl, threads, workdir, index, speed=None, tracer=None):
    """One traversal of the workload's operations at one thread setting.
    Returns (raw seconds, records); with ``speed``, each record's latency is
    rescaled to the reference speed."""
    os.environ["UCF_THREADS"] = str(threads)
    records = []
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.run = i
        path = str(workdir / f"pass{index}-op{i}.json")
        spread = wl.threaded and threads > 1
        before = speed.factor(spread) if speed else 1.0
        t0 = time.perf_counter()
        try:
            output, error = wl.call(ucf, op, threads, path), None
        except Exception as exc:    # an operation's failure is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        after = speed.factor(spread) if speed else 1.0
        records.append(Record(op, threads, elapsed * (before + after) / 2, output, error))
    return time.perf_counter() - start, records


def peak_rss_mb():
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def setup_seconds(workload, speed):
    """Median time, rescaled to the reference speed, of fresh processes that
    start the interpreter, import ucf and run the workload's warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed.factor(True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-probe", workload],
                       check=True, cwd=ROOT)
        times.append((time.perf_counter() - t0) * (before + speed.factor(True)) / 2)
    return statistics.median(times)


def check_all(ucf, wl, records):
    """Run the workload's checks; returns (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    for rec, per_op in zip(records, wl.check(ucf, records)):
        for errors in per_op:
            attempted += 1
            if errors:
                failed += 1
                messages.append(f"{rec.op!r:.60} threads={rec.threads}: {'; '.join(errors)}")
    return attempted, failed, messages


def untraced(ucf, wl, args, workdir):
    wl.warm_up(ucf)
    speed = Speed()
    passes = []          # (threads, raw seconds, records)
    start = time.perf_counter()
    longest_pair = 0.0
    while True:
        pair = 0.0
        for threads in (1, 2):
            seconds, records = run_pass(ucf, wl, threads, workdir, len(passes), speed)
            passes.append((threads, seconds, records))
            pair += seconds
        longest_pair = max(longest_pair, pair)
        if time.perf_counter() - start + longest_pair > args.seconds:
            break
    os.environ.pop("UCF_THREADS", None)
    rss = peak_rss_mb()

    records = [r for _, _, recs in passes for r in recs]
    attempted, failed, messages = check_all(ucf, wl, records)
    setup = setup_seconds(wl.name, speed)

    # Each operation's median rescaled latency over the passes at one thread
    # setting; every time metric is built from these.
    samples = {}
    for threads, _, recs in passes:
        for i, rec in enumerate(recs):
            samples.setdefault((threads, i), []).append(rec.latency_s)
    cell = {key: statistics.median(v) for key, v in samples.items()}
    serial_s = sum(v for (t, _), v in cell.items() if t == 1)
    parallel_s = sum(v for (t, _), v in cell.items() if t == 2)
    latencies = sorted(v * 1e3 for v in cell.values())
    p99 = latencies[-(-99 * len(latencies) // 100) - 1]
    families = sum(r.families for r in passes[0][2])
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (serial_s + parallel_s, "s"),
        "serial_s": (serial_s, "s"),
        "parallel_s": (parallel_s, "s"),
        "parallel_speedup": (serial_s / parallel_s, "x"),
        "cells_per_s": (len(cell) / (serial_s + parallel_s), "1/s"),
        "families_per_s": (families / serial_s, "1/s"),
        "cell_p50_ms": (statistics.median(latencies), "ms"),
        "cell_p99_ms": (p99, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = ["pass seconds, raw (threads): "
             + ", ".join(f"{raw:.3f} ({t})" for t, raw, _ in passes),
             f"latency samples: {len(latencies)} operation medians over "
             f"{len(passes) // 2} passes per setting, "
             f"{sum(x > p99 for x in latencies)} beyond cell_p99_ms"]
    return attempted, failed, messages, metrics, notes


def traced(ucf, wl, args, workdir):
    """Traced set-up, then one untraced and one traced serial pass."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.warm_up(ucf)
    finally:
        tracer.uninstall()
    speed = Speed()
    wall, raw = {}, {}
    records = []
    for label, trace_it in (("untraced", False), ("traced", True)):
        if trace_it:
            tracer.install()
        try:
            raw[label], recs = run_pass(ucf, wl, 1, workdir, len(wall), speed,
                                        tracer if trace_it else None)
        finally:
            tracer.uninstall()
        wall[label] = sum(r.latency_s for r in recs)
        records += recs
    os.environ.pop("UCF_THREADS", None)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (wall["traced"] - wall["untraced"], "s")
    metrics["io.bytes_written"] = (sum(
        os.path.getsize(r.output) for r in records[len(wl.ops):]
        if isinstance(r.output, str) and os.path.exists(r.output)), "bytes")
    share, notes = partition_share(ucf, wl)
    if share is not None:
        metrics["search.partition_max_share"] = (share, "ratio")
    attempted, failed, messages = check_all(ucf, wl, records)
    notes.append(f"pass seconds, rescaled: untraced {wall['untraced']:.3f}, traced "
                 f"{wall['traced']:.3f}; raw (the unit of self_s): untraced "
                 f"{raw['untraced']:.3f}, traced {raw['traced']:.3f}")
    tracer.write(OUT / f"trace-{wl.name}.jsonl", {"workload": wl.name, "seed": args.seed})
    return attempted, failed, messages, metrics, notes


def partition_share(ucf, wl):
    """Largest part's share of the examined families when each search cell
    is cut into the two parts ``threads=2`` would run, scanned in turn."""
    if wl.name != "search":
        return 0.0, []
    scan = getattr(ucf.search, "_scan_cell", None)
    if scan is None:
        return None, ["search._scan_cell is gone: partition share absent"]
    largest = total = 0
    notes = []
    for m, l in wl.ops:
        parts = [scan(wl.n, m, l, part, 2)[2] for part in range(2)]
        largest += max(parts)
        total += sum(parts)
        notes.append(f"partition of (5, {m}, l={l}) at 2 parts: {parts}")
    return largest / total, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ucf = import_ucf()
    if args.setup_probe:
        WORKLOADS[args.setup_probe].warm_up(ucf)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = (traced if args.trace else untraced)(ucf, wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, messages, metrics, notes = result

    import numpy
    report = [f"workload {wl.name}, seed {args.seed}, trace {args.trace}",
              f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
              f"numpy {numpy.__version__}", *notes,
              f"operations: {attempted} attempted, {failed} failed, "
              f"error_rate {failed / attempted if attempted else 0:.4g}"]
    report += [f"FAILED {msg}" for msg in messages[:20]]
    report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
