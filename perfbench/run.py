"""spdmark benchmark entry point.

    python3 perfbench/run.py --workload {toy,forensics,calibrate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The untraced run (--trace 0) reports the
end-to-end metrics; the traced run (--trace 1) reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans, results and temporary files go to
.bench_out/ in the checkout.  See perfbench/README.md.
"""

import argparse
import json
import math
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import scale, speed_probe

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")

# Milliseconds per operation that size a run: a run performs --seconds
# worth of operations at these costs, so two runs with one seed do identical
# work and print identical digests.  Forensics and calibrate use their wall
# time at this commit on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1).  Toy uses less than its wall time (about
# 1000 ms) so that a 20-second run holds 25 operations: its long operations
# see more machine drift, and more of them steady its medians.
NOMINAL_MS = {"toy": 800.0, "forensics": 21.0, "calibrate": 41.0}
# At least 100 operations on the fast workloads puts ten samples beyond
# latency_p90_ms; toy runs whole cycles of its five-attack suite.
MIN_OPS = {"toy": 5, "forensics": 100, "calibrate": 100}
OPS_MULTIPLE = {"toy": 5, "forensics": 1, "calibrate": 1}

SETUP_SAMPLES = 9  # set-up is timed in this many processes; the median is reported
DEADLINE_S = 170.0


def operation_count(workload: str, seconds: int) -> int:
    ops = max(MIN_OPS[workload], math.ceil(seconds * 1000.0 / NOMINAL_MS[workload]))
    step = OPS_MULTIPLE[workload]
    return math.ceil(ops / step) * step


def timings(seconds: list) -> dict:
    """Throughput and latency percentiles of one pass, closed loop.  The
    90th percentile is given only when ten samples lie beyond it."""
    ms = sorted(1000.0 * s for s in seconds)
    out = {"ops_per_s": len(seconds) / sum(seconds), "latency_p50_ms": statistics.median(ms)}
    if len(ms) >= 100:
        out["latency_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return out


def normalised(result: dict) -> list:
    """Operation times at reference speed; the probe taken before and the
    one taken after each operation give the machine's speed during it."""
    probes = result["probes_s"]
    return [
        scale(s, (probes[i] + probes[i + 1]) / 2)
        for i, s in enumerate(result["latencies_s"])
    ]


def run_worker(args, ops: int, workdir: Path, deadline: float, *extra) -> tuple:
    """Run one worker.py process; return (process start through set-up in
    seconds, its result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--ops", str(ops), "--workdir", str(workdir), *extra,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - started
        if line.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else {}


def end_to_end(args, ops, workdir, deadline) -> tuple:
    setup, raw_setup = [], []
    for sample in range(SETUP_SAMPLES):
        probe_s = speed_probe()
        if sample < SETUP_SAMPLES - 1:
            ready_s, _ = run_worker(args, ops, workdir, deadline, "--setup-only")
        else:
            ready_s, result = run_worker(args, ops, workdir, deadline)
        raw_setup.append(ready_s)
        setup.append(scale(ready_s, probe_s))
    timed = timings(normalised(result))
    metrics = {
        "ops_per_s": (timed.pop("ops_per_s"), "1/s"),
        "latency_p50_ms": (timed.pop("latency_p50_ms"), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    result["extra"] = timed
    result["raw"] = dict(timings(result["latencies_s"]), setup_s=statistics.median(raw_setup))
    return metrics, result


def traced(args, ops, workdir, deadline) -> tuple:
    """An untraced pass and a traced pass over the same operations, in
    separate processes; their throughput difference is the overhead."""
    _, plain = run_worker(args, ops, workdir, deadline)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    _, result = run_worker(args, ops, workdir, deadline, "--trace-out", str(trace_path))
    if plain["digest"] != result["digest"]:
        raise RuntimeError("the traced run produced other outputs than the untraced run")
    base = timings(normalised(plain))["ops_per_s"]
    overhead = base - timings(normalised(result))["ops_per_s"]
    metrics = {name: tuple(pair) for name, pair in result["per_layer"].items()}
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
    metrics["trace.overhead_share"] = (100.0 * overhead / base, "%")
    result["untraced_failures"] = plain["failures"]
    result["untraced_attempted"] = plain["attempted"]
    result["trace_file"] = str(trace_path)
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_MS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path("src") / "spdmark" / "__init__.py").is_file():
        print("run from the root of an spdmark checkout: src/spdmark is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + DEADLINE_S
    ops = operation_count(args.workload, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            metrics, result = traced(args, ops, workdir, deadline)
        else:
            metrics, result = end_to_end(args, ops, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(result["failures"]) + len(result.get("untraced_failures", []))
    attempted = result["attempted"] + result.get("untraced_attempted", 0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations": ops, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "digest": result["digest"],
        "machine": result["machine"], "failures": result["failures"][:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    for key in ("extra", "raw", "trace_file"):
        if key in result:
            record[key] = result[key]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  operations {ops}  "
          f"error_rate {record['error_rate']:g}")
    print(f"digest {result['digest']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for failure in result["failures"][:5]:
        print(f"failure {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    for name, value in result.get("extra", {}).items():
        print(f"{name + ' (not gated)':48s} {value:14.6f}")
    for name, value in result.get("raw", {}).items():
        print(f"{'raw wall-clock ' + name:48s} {value:14.6f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
