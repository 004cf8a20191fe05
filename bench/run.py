"""The splinemart benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload census --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run starts WORKERS workload processes one after
another; each sets up (imports, inputs, a warm-up op) and then runs timed
ops for its share of ``--seconds``. With ``--trace 1`` one process
alternates untraced and traced ops and the per-layer metrics come from the
traced ones. Every op passes the correctness gate of ``workloads.py``.

Times are corrected for the host's speed: every phase of an op is
bracketed by two runs of a fixed probe (see worker.py), and its time is
divided by its host factor, the shorter of the two probe durations over
PROBE_REF_S; query times take the factor of the query phase. The metrics
therefore read as seconds on a core that runs the probe in PROBE_REF_S.
The report line also gives every timing uncorrected, with the suffix
``_raw``.

Standard output: one ``{"report": ...}`` line with the run record, every
metric of the workload with its unit and the per-op digests, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics that BENCHMARK.json names. The exit code is 0 when every op
passed the gate, 1 when one did not or a process failed, and 2 when the
checkout holds no splinemart sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKERS = 3  # workload processes per untraced run; setup_s is their median
PROBE_REF_S = 0.015  # probe seconds on an idle core of a 2-core x86-64 host, Python 3.11
TIME_LIMIT_S = 170.0  # the whole command, all processes included
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) >= 2 else median(values)


def spawn(args, slot: int, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--slot", str(slot),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True,
            text=True, timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {slot} exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"worker {slot} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_setup_end"] - t_spawn
    return out


def corrected_phases(op: dict) -> dict:
    """Phase times at reference host speed. Each phase uses the faster of its
    two probes: a probe is short, so a transient stall inflates one probe
    far more than it slows the phase."""
    probes = op["probe_s"]
    return {
        name: t * PROBE_REF_S / min(probes[i], probes[i + 1])
        for i, (name, t) in enumerate(op["phases"].items())
    }


def host_factor(op: dict) -> float:
    """How much slower than the reference core the host ran during this op."""
    return op["op_s"] / sum(corrected_phases(op).values())


def run_record(args, workers: list, load_start) -> dict:
    commit = None  # a checkout without .git has no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": len(workers),
        "params": workers[0]["params"],
        "versions": workers[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "worker_env": WORKER_ENV,
    }


def timing_metrics(ops: list, corrected: bool = True) -> dict:
    """Op, query and phase timings over the given ops, with units."""
    phases = [corrected_phases(o) if corrected else o["phases"] for o in ops]
    query_ms = [
        q * 1e3 * ph["queries_s"] / o["phases"]["queries_s"]
        for o, ph in zip(ops, phases) for q in o["query_s"]
    ]
    out = {
        "op_s": (median([sum(ph.values()) for ph in phases]), "s"),
        "query_ms": (median(query_ms), "ms"),
        "query_ms_p95": (p95(query_ms), "ms"),
    }
    for name in phases[0]:
        out[name] = (median([ph[name] for ph in phases]), "s")
    return out


def layer_metrics(worker: dict, untraced: list, traced: list) -> dict:
    """Per-layer metrics of a traced run: times are medians over traced ops,
    counts come from the first traced op, so they repeat exactly."""
    per_op = [(worker["trace"]["per_op"][str(o["op"])], host_factor(o)) for o in traced]
    out = {}
    for name in {n for op, _ in per_op for n in op}:
        for key in ("s", "self_s"):
            times = [op.get(name, {}).get(key, 0.0) / factor for op, factor in per_op]
            out[f"{name}.{key}"] = (median(times), "s")
        out[f"{name}.calls"] = (per_op[0][0].get(name, {}).get("calls", 0), "count")
        out[f"{name}.points"] = (per_op[0][0].get(name, {}).get("points", 0), "count")
    units = {"construction.max_level": "level", "construction.max_den_bits": "bits",
             "construction.rows_per_signature": "ratio"}
    for name, value in worker["trace"]["stats"].items():
        out[name] = (value, units.get(name, "count"))
    for name, (value, unit) in timing_metrics(untraced).items():
        if unit == "s" and name != "op_s":
            out[f"phase.{name}"] = (value, unit)
    out["trace.overhead_ratio"] = (
        timing_metrics(traced)["op_s"][0] / timing_metrics(untraced)["op_s"][0], "ratio"
    )
    return out


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    spec = json.loads(bench_file.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "splinemart" / "__init__.py").is_file():
        print(f"error: no splinemart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            workers = [spawn(args, 0, args.seconds, deadline)]
        else:
            workers = [spawn(args, slot, args.seconds / WORKERS, deadline) for slot in range(WORKERS)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [o for w in workers for o in w["ops"]]
    failed = [o for o in ops if o["problems"]]
    timed = [o for o in ops if not o["warmup"] and o["op_s"] is not None]
    untraced = [o for o in timed if not o["traced"]]
    traced = [o for o in timed if o["traced"]]
    warmed_up = all(w["ops"][0]["op_s"] is not None for w in workers)
    if not (warmed_up and untraced) or (args.trace and not traced):
        print("error: a warm-up op failed or no timed op completed", file=sys.stderr)
        return 1

    metrics = timing_metrics(untraced)
    for name, (value, unit) in timing_metrics(untraced, corrected=False).items():
        metrics[f"{name}_raw"] = (value, unit)
    metrics["setup_s"] = (median([w["setup_s"] / host_factor(w["ops"][0]) for w in workers]), "s")
    metrics["setup_s_raw"] = (median([w["setup_s"] for w in workers]), "s")
    metrics["host_factor"] = (median([host_factor(o) for o in untraced]), "ratio")
    metrics["timed_ops"] = (len(untraced), "count")
    metrics["query_samples"] = (sum(len(o["query_s"]) for o in untraced), "count")
    metrics["peak_rss_mb"] = (median([w["rss_mb"] for w in workers]), "MB")
    metrics["ops_failed_frac"] = (len(failed) / len(ops), "fraction")
    if args.trace:
        metrics.update(layer_metrics(workers[0], untraced, traced))

    report = {
        "record": run_record(args, workers, load_start),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "ops": [
            {k: o[k] for k in ("op", "warmup", "traced", "op_s", "probe_s", "problems", "digest")}
            for o in ops
        ],
    }
    if args.trace:
        report["layer_self_time"] = workers[0]["trace"]["layer_self_time"]
    print(json.dumps({"report": report}))
    # a per-layer metric absent from the trace is a layer the workload never calls: 0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], (0, m["unit"]))[0], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
