"""Run one workload in a fresh interpreter and print its raw result as JSON.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``:

    python3 perfbench/worker.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload census --probe   # set-up time only

The loop is closed with one caller: the next item starts when the previous
one returns.  It measures ``--seconds`` of item time and at least
``stats.TAIL_MIN_SAMPLES`` items, so the tail percentile always exists.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback

import stats
import workloads


def _setup(workload):
    """Import what the workload's caller imports and fill the thresholds
    cache.  Returns the package and the seconds it took."""
    t0 = time.perf_counter()
    for name in workload.imports:
        importlib.import_module(name)
    lt = sys.modules["latticetheta"]
    lt.thresholds()
    return lt, time.perf_counter() - t0


def _attempt(workload, lt, inp):
    """Run one item; returns (seconds, output or the exception raised)."""
    t = time.perf_counter()
    try:
        out = workload.run(lt, inp)
    except Exception as exc:  # the item counts as failed; the loop goes on
        out = exc
    return time.perf_counter() - t, out


class Statuses(list):
    """Per-item outcomes: "ok", "raised", or "wrong" when the check failed.
    The first failure's reason goes to stderr."""

    failed = audited = 0

    def record(self, workload, inp, out):
        if isinstance(out, Exception):
            status, reason = "raised", "".join(traceback.format_exception(out))
        else:
            reason = workload.check(inp, out)
            status = "ok" if reason is None else "wrong"
        if status != "ok":
            if not self.failed:
                print(f"first failure ({status}): {reason}", file=sys.stderr)
            self.failed += 1
        elif hasattr(workload, "audit"):
            finding = workload.audit(inp, out)
            if finding is not None:
                if not self.audited:
                    print(f"first audit finding: {finding}", file=sys.stderr)
                self.audited += 1
        self.append(status)


def run_timed(workload, lt, seed, seconds):
    """Closed loop until the items have taken ``seconds``.  Each output is
    checked right after its item, outside the timed region, and dropped, so
    memory does not grow with the number of items."""
    stream = workload.inputs(seed)
    statuses, latencies = Statuses(), []
    busy = 0.0
    while busy < seconds or len(latencies) < stats.TAIL_MIN_SAMPLES:
        inp = next(stream)
        dt, out = _attempt(workload, lt, inp)
        busy += dt
        latencies.append(dt)
        statuses.record(workload, inp, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = stats.tail(latencies)
    return {
        "statuses": statuses,
        "audited": statuses.audited,
        "metrics": {
            "items_per_s": (len(latencies) / busy, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail.value, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "tail": {"percentile": tail.percentile, "samples": tail.samples, "beyond": stats.TAIL_BEYOND},
    }


def run_traced(workload, lt, seed, seconds, spans_path):
    """Alternate one untraced and one traced pass over the same cycle of
    inputs until ``seconds`` have passed; every traced pass is identical,
    so the per-item counts repeat exactly."""
    import tracer

    t = tracer.Tracer()
    cache = sys.modules["latticetheta.functionals"].thresholds.cache_info
    cycle = list(itertools.islice(workload.inputs(seed), workload.cycle))
    statuses = Statuses()
    untraced_s = traced_s = 0.0
    hits = lookups = census_points = traced_items = 0
    begin = time.perf_counter()
    while traced_items == 0 or time.perf_counter() - begin < seconds:
        for inp in cycle:
            dt, out = _attempt(workload, lt, inp)
            untraced_s += dt
            statuses.record(workload, inp, out)
        before = cache()
        t.install()
        for inp in cycle:
            t.current_item = len(statuses)
            dt, out = _attempt(workload, lt, inp)
            traced_s += dt
            traced_items += 1
            census_points += out.count if isinstance(out, lt.CriticalPointReport) else 0
            statuses.record(workload, inp, out)
        t.uninstall()
        after = cache()
        hits += after.hits - before.hits
        lookups += after.hits + after.misses - before.hits - before.misses
    metrics = t.layer_metrics(traced_items, traced_s, untraced_s, hits / lookups if lookups else 0.0, census_points)
    t.save(spans_path)
    return {"statuses": statuses, "audited": statuses.audited, "metrics": metrics, "traced_items": traced_items, "spans": len(t.fn)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="measure set-up only")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    lt, setup_s = _setup(workload)
    src = os.environ.get("LATTICETHETA_SRC")
    if src is None or not os.path.abspath(lt.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"latticetheta was imported from {lt.__file__}, not from the checkout", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.probe:
        if args.trace:
            result.update(run_traced(workload, lt, args.seed, args.seconds, args.spans))
        else:
            result.update(run_timed(workload, lt, args.seed, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
