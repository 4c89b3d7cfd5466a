"""One benchmark process: set up a workload, run its operations, report.

Started by run.py, never by hand.  It imports spdmark from `src/` of the
checkout it runs in, builds the workload's inputs, prints READY (run.py
times set-up up to that line), runs one untimed warm-up operation and then
the measured ones, and prints one JSON line with latencies, failures, the
determinism digest, peak RSS and machine facts.  With --trace it first
installs the timing wrappers of `TRACE_POINTS` and adds per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from probe import speed_probe
from tracer import COUNTS, TraceGuardError, Tracer
from workloads import WORKLOADS, CheckFailure

# (module, class or None, attribute, span name, work counter).  Each entry is
# the attribute the caller looks the function up by.
TRACE_POINTS = (
    ("spdmark.cli", None, "random_key", "keyspace.random_key", None),
    ("spdmark.cli", None, "derive_frame_messages", "keyspace.derive_frame_messages",
     lambda args, result: {"frames": len(result)}),
    ("spdmark.cli", None, "generate_video", "spd_core.generate_video",
     lambda args, result: {"frames": len(result)}),
    ("spdmark.cli", None, "write_video", "spd_core.write_video",
     lambda args, result: {"bytes": args[0].tell()}),
    ("spdmark.cli", None, "fit_extractor", "objective.fit_extractor",
     lambda args, result: {"rows": sum(len(video) for video in args[0])}),
    ("spdmark.objective", "LinearExtractor", "decode", "objective.decode", None),
    ("spdmark.cli", None, "loss_report", "objective.loss_report", None),
    ("spdmark.cli", None, "apply_attack", "channel_attacks.apply_attack", None),
    ("spdmark.cli", None, "channel_extract", "channel_attacks.channel_extract",
     lambda args, result: {"bits": len(result.messages) * result.message_bits}),
    ("spdmark.cli", None, "verify", "verifier.verify", None),
    ("spdmark.verifier", None, "similarity_matrix", "verifier.similarity_matrix", None),
    ("spdmark.verifier", None, "hungarian_match", "verifier.hungarian_match", None),
    ("spdmark.verifier", None, "linear_sum_assignment", "verifier.lsa", None),
    ("spdmark.cli", None, "diagnose_tampering", "verifier.diagnose_tampering", None),
)

# Layers each workload is predicted to keep busy.  A traced run in which
# one of them records no call fails instead of reporting a zero.
BUSY = {
    "toy": (
        "keyspace.random_key", "keyspace.derive_frame_messages",
        "spd_core.generate_video", "spd_core.write_video",
        "objective.fit_extractor", "objective.decode", "objective.loss_report",
        "channel_attacks.apply_attack", "verifier.verify",
        "verifier.similarity_matrix", "verifier.hungarian_match", "verifier.lsa",
        "verifier.diagnose_tampering",
    ),
    "forensics": (
        "keyspace.random_key", "keyspace.derive_frame_messages",
        "channel_attacks.apply_attack", "channel_attacks.channel_extract",
        "verifier.verify", "verifier.similarity_matrix", "verifier.hungarian_match",
        "verifier.lsa", "verifier.diagnose_tampering",
    ),
    "calibrate": ("verifier.hungarian_match", "verifier.lsa"),
}


def import_program(checkout: Path):
    """Import spdmark from the checkout's src/ and nowhere else."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import spdmark
    import spdmark.cli
    import spdmark.spd_core
    import spdmark.verifier

    if Path(spdmark.__file__).resolve().parent != (src / "spdmark").resolve():
        raise ImportError(f"spdmark was imported from {spdmark.__file__}, not {src}")
    return spdmark


def install(tracer: Tracer) -> None:
    for module, owner, attr, name, count in TRACE_POINTS:
        target = sys.modules[module]
        if owner is not None:
            target = getattr(target, owner, None)
            if target is None:
                raise TraceGuardError(f"{module}.{owner} no longer exists")
        tracer.wrap(target, attr, name, count)


def per_layer(summary: dict, ops: int, workload: str) -> dict:
    """Per-operation layer metrics from a traced run's span summary."""
    idle = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}}
    missing = [name for name in BUSY[workload] if summary.get(name, idle)["calls"] == 0]
    if missing:
        raise TraceGuardError(f"{workload}: layers predicted busy recorded no call: {missing}")

    def layer(name):
        return summary.get(name, idle)

    def per_op_ms(name):
        return 1000.0 * layer(name)["self_s"] / ops

    def count(name, key):
        return layer(name)["counts"].get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    generate = layer("spd_core.generate_video")
    frames = count("spd_core.generate_video", "frames")
    matches = layer("verifier.hungarian_match")["calls"]
    values = {
        "spd_core.generate_video.self_ms_per_op": per_op_ms("spd_core.generate_video"),
        "spd_core.generate_video.frames_per_op": frames / ops,
        "spd_core.frames_per_busy_s": ratio(frames, generate["busy_s"]),
        "spd_core.matmuls_per_frame": ratio(count("op", "products"), frames),
        "spd_core.matmul_flops_per_frame": ratio(count("op", "flops"), frames),
        "spd_core.write_video.self_ms_per_op": per_op_ms("spd_core.write_video"),
        "spd_core.write_video.bytes_per_op": count("spd_core.write_video", "bytes") / ops,
        "objective.fit_extractor.self_ms_per_op": per_op_ms("objective.fit_extractor"),
        "objective.fit_extractor.rows_per_op": count("objective.fit_extractor", "rows") / ops,
        "objective.decode.calls_per_op": layer("objective.decode")["calls"] / ops,
        "objective.decode.self_ms_per_op": per_op_ms("objective.decode"),
        "objective.loss_report.self_ms_per_op": per_op_ms("objective.loss_report"),
        "keyspace.random_key.self_ms_per_op": per_op_ms("keyspace.random_key"),
        "keyspace.derive_frame_messages.self_ms_per_op":
            per_op_ms("keyspace.derive_frame_messages"),
        "keyspace.derive_frame_messages.frames_per_op":
            count("keyspace.derive_frame_messages", "frames") / ops,
        "channel_attacks.apply_attack.self_ms_per_op": per_op_ms("channel_attacks.apply_attack"),
        "channel_attacks.channel_extract.self_ms_per_op":
            per_op_ms("channel_attacks.channel_extract"),
        "channel_attacks.channel_extract.bits_per_op":
            count("channel_attacks.channel_extract", "bits") / ops,
        "verifier.similarity_matrix.self_ms_per_op": per_op_ms("verifier.similarity_matrix"),
        "verifier.verify.self_ms_per_op": per_op_ms("verifier.verify"),
        "verifier.diagnose_tampering.self_ms_per_op": per_op_ms("verifier.diagnose_tampering"),
        "verifier.hungarian_match.self_ms_per_op": per_op_ms("verifier.hungarian_match"),
        "verifier.hungarian_match.calls_per_op": matches / ops,
        "verifier.lsa.calls_per_match": ratio(layer("verifier.lsa")["calls"], matches),
        "verifier.lsa.ms_per_op": 1000.0 * layer("verifier.lsa")["busy_s"] / ops,
        "cli.self_ms_per_op": per_op_ms("op"),
    }
    return {name: [value, unit_of(name)] for name, value in values.items()}


def unit_of(metric: str) -> str:
    for suffix, unit in (("ms_per_op", "ms"), ("bytes_per_op", "bytes"),
                         ("bits_per_op", "bits"), ("per_busy_s", "1/s"),
                         ("flops_per_frame", "flop-computed")):
        if metric.endswith(suffix):
            return unit
    return "count"


def product_counts(log) -> dict:
    """Products and computed flops (2*m*k*n) from record_products shapes."""
    flops = 0
    for lhs, rhs in log:
        m = 1
        for size in lhs[:-1]:
            m *= size
        n = rhs[-1] if len(rhs) > 1 else 1
        flops += 2 * m * lhs[-1] * n
    return {"products": len(log), "flops": flops}


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="trace the run and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sm = import_program(Path.cwd())
    workload = WORKLOADS[args.workload](sm, args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    latencies, probes, failures = [], [], []
    try:
        workload.finish(-1, workload.run(-1))
    except Exception as exc:  # the untimed warm-up counts like any operation
        failures.append(f"warm-up: {type(exc).__name__}: {exc}")
    digest = hashlib.sha256()
    for i in range(args.ops):
        probes.append(speed_probe())
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(i)
            elif args.workload == "toy":
                with tracer.operation(i) as span, sm.spd_core.record_products() as log:
                    output = workload.run(i)
                span[COUNTS] = product_counts(log)
            else:
                with tracer.operation(i):
                    output = workload.run(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            data = workload.finish(i, output)
        except CheckFailure as exc:
            failures.append(f"op {i}: check failed: {exc}")
            continue
        digest.update(i.to_bytes(8, "big") + len(data).to_bytes(8, "big") + data)
    probes.append(speed_probe())

    result = {
        "attempted": args.ops + 1,
        "latencies_s": latencies,
        "probes_s": probes,
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = per_layer(tracer.summary(), args.ops, args.workload)
        tracer.write_jsonl(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceGuardError as exc:
        print(f"trace guard: {exc}", file=sys.stderr)
        sys.exit(3)
