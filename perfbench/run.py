"""latticetheta benchmark: one workload, every metric, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and record
the seed, the commit and the versions.  The workload runs single-threaded in
a fresh interpreter (``worker.py``); set-up time is the median over the worker
and six more fresh interpreters.  Exit status: 0 when every output is correct, 1
when one is not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402  (benchmark modules next to this file)
import workloads  # noqa: E402

SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _commit(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def _worker(env, *args, timeout):
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="latticetheta benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latticetheta", "__init__.py")):
        return _fail(f"no latticetheta sources under {src}; run from the root of a checkout")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, LATTICETHETA_SRC=src, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    workload = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "params": workload.params,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            spans = os.path.join(out_dir, f"{name}-spans.npz")
            raw = _worker(env, *common, "--trace", "1", "--spans", spans, timeout=WORKER_TIMEOUT_S)
            record["spans"] = {"file": os.path.relpath(spans, root), "count": raw["spans"], "traced_items": raw["traced_items"]}
            metrics = raw["metrics"]
        else:
            # one discarded probe first, so every probe finds the bytecode
            # cached; the others run before and after the workload, so that
            # set-up is sampled at two times of the run
            probe = lambda: _worker(env, *common, "--probe", timeout=PROBE_TIMEOUT_S)["setup_s"]
            setups = [probe() for _ in range(SETUP_PROBES // 2 + 1)][1:]
            raw = _worker(env, *common, "--trace", "0", timeout=WORKER_TIMEOUT_S)
            setups += [raw["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = dict(raw["metrics"], setup_s=(statistics.median(setups), "s"))
            record["setup_samples_s"] = setups
            record["tail"] = raw["tail"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(f"the {args.workload} workload did not complete: {exc}")

    statuses = raw["statuses"]
    attempted, failed = len(statuses), sum(s != "ok" for s in statuses)
    record.update(attempted=attempted, failed=failed, fail_frac=stats.fail_frac(statuses), audited=raw["audited"], metrics=metrics)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value!r:>24} {unit}")
    if not args.trace:
        tail = raw["tail"]
        print(f"{'(latency_tail_ms is p%.2f of %d items, %d beyond)' % (tail['percentile'], tail['samples'], tail['beyond']):44s}")
    print(f"{'fail_frac':44s} {record['fail_frac']!r:>24} ({failed} of {attempted} items)")
    if raw["audited"]:
        print(f"{'(known defect, not a failure)':44s} {raw['audited']:>24} items fail the workload's audit")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
