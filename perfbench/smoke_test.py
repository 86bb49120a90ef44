#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, traced and
untraced, checking the result line and that every metric BENCHMARK.json
names is emitted with its unit. Also checks that the benchmark refuses to
run, without printing a result, where the sources are missing.

    python3 perfbench/smoke_test.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own metric tables)


def result_of(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout else []
    return proc.returncode, last, proc.stderr


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py tables")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, last, err = result_of(
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
            tag = f"{workload} --trace {trace}"
            if code != 0 or not last:
                problems.append(f"{tag}: exit {code}\n{err[-2000:]}")
                continue
            res = json.loads(last[0])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append(f"{tag}: not correct\n{err[-2000:]}")
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                problems.append(f"{tag}: missing {missing} extra {extra}")
            print(f"ok  {tag}: {res.get('attempted')} operations")

    # Only BENCHMARK.json and perfbench/: must fail without a result line.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, last, _ = result_of("--workload", "chip_imagenet", "--seed",
                                  "1", "--seconds", "1", "--trace", "0",
                                  cwd=tmp)
        if code == 0 or (last and last[0].startswith("{")):
            problems.append("ran without sources")
        else:
            print("ok  refuses to run without sources")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
