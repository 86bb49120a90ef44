#!/usr/bin/env python3
"""Benchmark entry point for reramdl (see BENCH.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner from the repository's sources into .bench_build/ (first
run only), runs one workload in its own process, checks its outputs and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end set, with --trace 1 the per-layer set.

The host context of the run (nproc, pool width, load average, source
commit/digest, calibration-loop time) is printed on the line before it,
prefixed with "context: ".
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("train_insitu", "serve_maint", "chip_imagenet")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_us_per_item": "sim_us",
    "sim_uj_per_item": "sim_uJ",
    "virt_e2e_p50_us": "virt_us",
    "virt_e2e_p99_us": "virt_us",
    "ok_frac": "ratio",
    "table1_err_pct": "%",
}

NETS = ("lenet", "alexnet", "vgga")
ENERGY = ("morph", "buffer", "memory", "compute", "update", "noc")


def _per_layer():
    names = {
        "bench.unattributed_ms": "ms",
        "obs.unattributed_pct": "%",
        "obs.trace_overhead_pct": "%",
        "workload.data_ms": "ms",
        "workload.warmup_ms": "ms",
        "nn.init_ms": "ms",
        "nn.forward_ms": "ms",
        "nn.backward_ms": "ms",
        "nn.loss_ms": "ms",
        "nn.optimizer_ms": "ms",
    }
    for i in range(10):
        names[f"nn.layer{i}.fwd_ms"] = "ms"
        names[f"nn.layer{i}.bwd_ms"] = "ms"
    names.update({
        "core.program_ms": "ms",
        "core.reprogram_ms": "ms",
        "core.table1_ms": "ms",
        "circuit.programmed_cells": "count",
        "circuit.mvm_ops": "count",
        "circuit.input_spikes": "count",
        "circuit.ns_per_mvm": "ns",
        "device.inject_ms": "ms",
        "tensor.arena_growth": "count",
        "serving.trace_ms": "ms",
        "serving.submit_ms": "ms",
        "serving.submit_us": "us",
        "serving.advance_ms": "ms",
        "serving.collect_ms": "ms",
        "serving.batches": "count",
        "serving.batch_size_mean": "count",
        "serving.queue_us_p50": "virt_us",
        "serving.queue_us_p99": "virt_us",
        "serving.service_us_p50": "virt_us",
        "serving.shed": "count",
        "serving.rejected": "count",
        "maint.setup_ms": "ms",
        "maint.refreshes": "count",
        "maint.scrub_repairs": "count",
        "maint.cells_programmed": "count",
        "maint.busy_us": "virt_us",
        "maint.demand_delay_us": "virt_us",
        "maint.deadline_misses": "count",
        "mapping.plan_ms": "ms",
        "arch.place_ms": "ms",
        "arch.lower_ms": "ms",
        "arch.run_ms": "ms",
        "noc.simulate_ms": "ms",
    })
    for net in NETS:
        p = f"arch.{net}."
        names[p + "critical_bank_ns"] = "sim_ns"
        names[p + "noc_ns"] = "sim_ns"
        names[p + "instructions"] = "count"
        names[p + "banks_used"] = "count"
        for c in ENERGY:
            names[f"{p}energy.{c}_pj"] = "sim_pJ"
        names[f"noc.{net}.queue_ns"] = "sim_ns"
        names[f"noc.{net}.max_link_util"] = "ratio"
        names[f"noc.{net}.smart_segments"] = "count"
    return names


PER_LAYER = _per_layer()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no reramdl sources under {ROOT}/src; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = os.path.join(BUILD_DIR, "tmp")  # keep compiler temporaries inside
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env,
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], env=env,
                   check=True, stdout=sys.stderr, timeout=840)


def calibration_s():
    """Wall time of a fixed interpreter loop: a machine-speed witness."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return time.perf_counter() - t0


def source_id():
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return commit, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: a seconds-long smoke run")
    args = ap.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within [0, 60]")

    build()

    nproc = os.cpu_count() or 1
    threads = max(1, min(2, nproc // 2))
    commit, digest = source_id()
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "pool_threads": threads,
        "loadavg_start": os.getloadavg()[0],
        "commit": commit, "source_digest": digest,
        "calibration_s_start": calibration_s(),
    }

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RERAMDL_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--size", args.size]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans_{args.workload}_{args.seed}.json")]
    budget = 165.0
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {budget:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"runner exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed no result")
    result = json.loads(lines[-1])
    context["calibration_s_end"] = calibration_s()
    context["steps"] = result["steps"]
    context["pool_settle_s"] = result["pool_settle_s"]
    context["state_digest"] = result["state_digest"]
    context["checks"] = result["checks"]

    emitted = result["metrics"]
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    failed = result["failed"]
    for name, unit in wanted.items():
        m = emitted.get(name)
        if m is None and not args.trace:
            print(f"perfbench: missing metric {name}", file=sys.stderr)
            failed += 1
            continue
        # Per-layer rows a workload does not exercise read 0.
        metrics[name] = {"value": 0.0 if m is None else m, "unit": unit}
    unknown = sorted(set(emitted) - set(wanted))
    if unknown:
        print(f"perfbench: unlisted metrics {unknown}", file=sys.stderr)
        failed += 1

    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
