"""One workload process of the benchmark (started by run.py, one per slot).

Runs a warm-up op, then ops until its share of the run's seconds is used
(at least one timed op), and prints one JSON line with the results. With
``--trace 1`` it alternates untraced and traced ops, keeps spans in
memory and writes them to ``.bench_out/`` at exit.

Before, between and after the phases of every op the worker runs a fixed
pure-Python probe. On a shared host the speed of a core changes by up to
1.8x within seconds (for example while a neighbour loads the sibling
hyperthread); the probe durations give each phase's host speed factor,
which run.py divides out.

    python3 bench/worker.py --workload census --seed 0 --slot 0 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def probe() -> float:
    """Seconds for a fixed computation that uses no splinemart code:
    big-rational sums (as in the exact engine), dict updates and sorting."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3001):
        acc += Fraction(i % 97 + 1, i)
        table[i % 512] = table.get(i % 512, 0) + i
    sorted(str(x) for x in range(3000))
    return time.perf_counter() - t0


def _run(workload, seed, op, references, tracer=None):
    """One op; an exception is a failed op, reported with its traceback."""
    gc.collect()  # start every op from a collected heap
    if tracer is not None:
        tracer.begin_op(op)
        tracer.install()
    try:
        return workloads.run_op(workload, seed, op, references, probe)
    except Exception:
        traceback.print_exc()
        return workloads.OpResult(op, None, {}, [], [traceback.format_exc(limit=1)], "")
    finally:
        if tracer is not None:
            tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slot", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    references = workloads.load_references()
    tracer = tracing.Tracer(args.workload, tracing.load_layers()) if args.trace else None
    first = args.slot * workloads.OPS_PER_SLOT
    ops, stats = [], {}

    def record(result, warmup, traced):
        ops.append({
            "op": result.op, "warmup": warmup, "traced": traced, "op_s": result.op_s,
            "probe_s": result.probe_s, "phases": result.phases, "query_s": result.query_s,
            "problems": result.problems, "digest": result.digest,
        })

    record(_run(args.workload, args.seed, first, references), True, False)
    # set-up ends with the warm-up op; its probes are not set-up work
    t_setup_end = time.monotonic() - sum(ops[0]["probe_s"])
    deadline = time.monotonic() + args.seconds
    for i in range(1, workloads.OPS_PER_SLOT):
        traced = tracer is not None and i % 2 == 0
        result = _run(args.workload, args.seed, first + i, references, tracer if traced else None)
        if traced and not stats and result.seq is not None:
            stats = workloads.construction_stats(result.seq)
        result.seq = None  # free the op's objects before the next op
        record(result, False, traced)
        timed = [o for o in ops if not o["warmup"]]
        enough = any(not o["traced"] for o in timed) and (
            tracer is None or any(o["traced"] for o in timed)
        )
        if enough and time.monotonic() + (result.op_s or 0.0) > deadline:
            break

    out = {
        "t_setup_end": t_setup_end,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "params": workloads.WORKLOADS[args.workload],
        "ops": ops,
    }
    if tracer is not None:
        out["trace"] = {
            "per_op": {str(o["op"]): tracer.op_metrics(o["op"]) for o in ops if o["traced"]},
            "stats": stats,
            "layer_self_time": tracer.self_time_table(),
        }
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
