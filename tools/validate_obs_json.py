#!/usr/bin/env python3
"""Schema checks for the observability JSON artifacts.

Usage: validate_obs_json.py FILE...

Each FILE is classified by its content and validated accordingly:
  - Chrome trace-event files ({"traceEvents": [...]}): every event needs a
    "ph" and "pid"; complete events ("ph" == "X") additionally need numeric
    "ts", "dur", and "tid", and the file must contain spans from the
    thread-pool, crossbar, and chip-sim scopes plus at least one virtual
    (simulated-timeline) process. Pass --structural-only to skip the
    required-span check for traces from binaries that don't exercise every
    scope (e.g. examples that never touch the chip simulator).
  - Metrics dumps ("kind" == "reramdl_metrics"): counters are non-negative
    integers, gauges numbers, histograms carry consistent count/sum/buckets
    plus ordered p50/p90/p99 percentiles, and the embedded "timeseries"
    section holds tick-ordered snapshots with monotone counters.
  - Run reports ("kind" == "reramdl_run_report"): the attribution tree must
    reconcile — every node's emitted total equals self + the sum of its
    children's totals, and the top-level totals equal the root rollups, both
    to 1e-6 relative — with a derived-ratio cross-check, percentile-bearing
    histograms, and a non-empty timeseries.
  - Run-report benches ("bench" == "run_report"): totals/timeseries summary
    plus the bench's self-check booleans, all of which must be true.
  - Fault campaigns ("bench" == "fault_campaign"): modes x rates accuracy
    grid, transient-injection section, and the campaign contract checks
    (fault-free bit-identity, thread reproducibility, recovery target).
  - Serving benches ("bench" == "serving"): percentile-ordered latency
    summaries per mode, per-tenant request conservation (submitted ==
    completed + rejected + shed, nothing queued), non-empty per-tenant
    attribution, and the deterministic contract booleans (reproducible
    replay, >= 2x virtual batching speedup) all true.
  - NoC benches ("bench" == "noc"): placement x noc-model variant grid per
    workload with per-link utilization in [0, 1], bit-exact legacy noc_ns
    (default-params ChipSimulator == closed-form sum), and the contract
    booleans (optimized+SMART beats snake baseline, thread invariance) all
    true.
  - BENCH_*.json ("bench" key): schema_version, kernels with parallel
    time/speedup arrays.

Exits non-zero with a message on the first violation. Used by CI after the
traced bench_parallel_scaling --quick run, and handy locally:

  RERAMDL_TRACE=trace.json ./bench/bench_parallel_scaling --quick
  python3 tools/validate_obs_json.py trace.json
"""

import json
import numbers
import sys


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def require(cond, path, msg):
    if not cond:
        fail(path, msg)


def is_num(x):
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def validate_trace(path, doc, structural_only=False):
    events = doc["traceEvents"]
    require(isinstance(events, list) and events, path, "traceEvents empty")
    span_names = set()
    process_names = set()
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        require(isinstance(e, dict), path, f"{where} not an object")
        require("ph" in e, path, f"{where} missing ph")
        require("pid" in e and is_num(e["pid"]), path, f"{where} bad pid")
        if e["ph"] == "X":
            for k in ("ts", "dur", "tid"):
                require(k in e and is_num(e[k]), path, f"{where} bad {k}")
            require(e["dur"] >= 0, path, f"{where} negative dur")
            require(isinstance(e.get("name"), str), path, f"{where} bad name")
            span_names.add(e["name"])
        elif e["ph"] == "M":
            args = e.get("args", {})
            require(isinstance(args, dict), path, f"{where} bad args")
            if e.get("name") == "process_name":
                process_names.add(args.get("name"))
    if not structural_only:
        for needed in ("pool.parallel_for", "xbar.compute", "chip.run"):
            require(needed in span_names, path, f"missing span {needed!r}")
        require("chip_sim" in process_names, path,
                "missing simulated chip_sim process")
    print(f"{path}: trace ok ({len(events)} events, "
          f"{len(span_names)} span names, {len(process_names)} processes)")


def check_percentiles(path, name, h):
    """Histogram percentile block: present and ordered whenever non-empty."""
    if h.get("count", 0) <= 0:
        return
    for key in ("p50", "p90", "p99"):
        require(is_num(h.get(key)), path, f"hist {name} missing {key}")
    require(h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"], path,
            f"hist {name} percentiles out of order")


def check_instruments(path, doc):
    """Shared counters/gauges/histograms sections (metrics dump + report)."""
    for name, v in doc["counters"].items():
        require(isinstance(v, int) and v >= 0, path, f"counter {name} bad")
    for name, v in doc["gauges"].items():
        require(is_num(v), path, f"gauge {name} bad")
    for name, h in doc["histograms"].items():
        require(isinstance(h.get("count"), int), path, f"hist {name} count")
        require(is_num(h.get("sum")), path, f"hist {name} sum")
        bucket_total = 0
        for b in h["buckets"]:
            require(is_num(b.get("le")) and isinstance(b.get("count"), int),
                    path, f"hist {name} bucket malformed")
            bucket_total += b["count"]
        require(bucket_total == h["count"], path,
                f"hist {name} bucket counts {bucket_total} != {h['count']}")
        if h["count"] > 0:
            require(h["min"] <= h["mean"] <= h["max"], path,
                    f"hist {name} min/mean/max inconsistent")
        check_percentiles(path, name, h)


def check_timeseries(path, ts, require_nonempty=False):
    require(isinstance(ts, dict), path, "timeseries not an object")
    for key in ("capacity", "stride", "ticks"):
        require(isinstance(ts.get(key), int) and ts[key] >= 0, path,
                f"timeseries bad {key}")
    require(ts["stride"] >= 1, path, "timeseries stride < 1")
    samples = ts.get("samples")
    require(isinstance(samples, list), path, "timeseries missing samples")
    require(len(samples) <= ts["capacity"], path,
            "timeseries samples exceed capacity")
    if require_nonempty:
        require(samples, path, "timeseries empty")
    prev_tick = -1
    prev_counters = {}
    for i, s in enumerate(samples):
        where = f"timeseries samples[{i}]"
        require(isinstance(s.get("tick"), int) and s["tick"] > prev_tick,
                path, f"{where} ticks not increasing")
        require(s["tick"] % ts["stride"] == 0, path,
                f"{where} tick off the retained stride")
        prev_tick = s["tick"]
        require(is_num(s.get("wall_ns")), path, f"{where} bad wall_ns")
        for section in ("counters", "gauges"):
            vals = s.get(section)
            require(isinstance(vals, dict), path, f"{where} bad {section}")
            require(all(is_num(v) for v in vals.values()), path,
                    f"{where} non-numeric {section} value")
        # Counters only move up: later samples dominate earlier ones.
        for name, v in s["counters"].items():
            require(v >= prev_counters.get(name, 0), path,
                    f"{where} counter {name} decreased")
            prev_counters[name] = v


def validate_metrics(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    check_instruments(path, doc)
    if "timeseries" in doc:
        check_timeseries(path, doc["timeseries"])
    print(f"{path}: metrics ok ({len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms, "
          f"{len(doc.get('timeseries', {}).get('samples', []))} snapshots)")


# Reconciliation tolerance: write-time rollups are double sums over the same
# addends the validator re-adds, so only association error separates them.
REL_TOL = 1e-6


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_attribution_node(path, node, where):
    require(isinstance(node.get("name"), str), path, f"{where} missing name")
    where = f"{where}/{node['name']}"
    for section in ("self", "total"):
        vals = node.get(section)
        require(isinstance(vals, dict), path, f"{where} bad {section}")
        require(all(is_num(v) for v in vals.values()), path,
                f"{where} non-numeric {section} value")
    children = node.get("children")
    require(isinstance(children, list), path, f"{where} bad children")
    # Reconciliation: total == self + sum(children totals), key by key.
    recomputed = dict(node["self"])
    for child in children:
        for k, v in check_attribution_node(path, child, where).items():
            recomputed[k] = recomputed.get(k, 0.0) + v
    require(set(recomputed) == set(node["total"]), path,
            f"{where} total keys differ from self+children")
    for k, v in recomputed.items():
        require(close(v, node["total"][k]), path,
                f"{where} total[{k}] {node['total'][k]} != "
                f"self+children {v}")
    # The derived ratio is re-derivable from the emitted totals.
    if "utilization" in node:
        require(node["total"].get("roofline_flops", 0) > 0, path,
                f"{where} utilization without roofline_flops")
        require(close(node["utilization"] * node["total"]["roofline_flops"],
                      node["total"].get("flops", 0.0)), path,
                f"{where} utilization inconsistent")
    return node["total"]


def validate_run_report(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    totals = doc.get("totals")
    require(isinstance(totals, dict), path, "missing totals")
    for key in ("latency_ns", "energy_pj", "flops"):
        require(is_num(totals.get(key)), path, f"bad totals.{key}")
    tree = doc.get("attribution")
    require(isinstance(tree, list) and tree, path, "attribution empty")
    root = {}
    for top in tree:
        for k, v in check_attribution_node(path, top, "").items():
            root[k] = root.get(k, 0.0) + v
    # Top-level totals are the whole-tree rollups.
    for key in ("latency_ns", "energy_pj", "flops"):
        require(close(root.get(key, 0.0), totals[key]), path,
                f"totals.{key} {totals[key]} != tree rollup "
                f"{root.get(key, 0.0)}")
    check_instruments(path, doc)
    check_timeseries(path, doc["timeseries"], require_nonempty=True)
    print(f"{path}: run report ok ({len(tree)} top-level nodes, "
          f"latency {totals['latency_ns']:.0f} ns reconciled, "
          f"{len(doc['timeseries']['samples'])} snapshots)")


def validate_run_report_bench(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("workload"), str), path, "missing workload")
    totals = doc.get("totals")
    require(isinstance(totals, dict), path, "missing totals")
    for key in ("latency_ns", "energy_pj", "flops"):
        require(is_num(totals.get(key)) and totals[key] > 0, path,
                f"bad totals.{key}")
    for key in ("accuracy_faulty", "accuracy_post_transient"):
        require(is_num(doc.get(key)) and 0.0 <= doc[key] <= 1.0, path,
                f"bad {key}")
    ts = doc.get("timeseries")
    require(isinstance(ts, dict), path, "missing timeseries summary")
    require(isinstance(ts.get("samples"), int) and ts["samples"] > 0, path,
            "empty timeseries")
    checks = doc.get("checks")
    require(isinstance(checks, dict) and checks, path, "missing checks")
    require(all(v is True for v in checks.values()), path,
            "report contract violated: " + ", ".join(
                k for k, v in checks.items() if v is not True))
    print(f"{path}: run_report bench ok ({len(checks)} checks, "
          f"{ts['samples']} snapshots)")


def check_sample_summary(path, where, s):
    require(isinstance(s, dict), path, f"{where} not an object")
    require(isinstance(s.get("count"), int) and s["count"] > 0, path,
            f"{where} bad count")
    for key in ("min", "max", "mean", "p50", "p90", "p99"):
        require(is_num(s.get(key)), path, f"{where} missing {key}")
    require(s["min"] <= s["p50"] <= s["p90"] <= s["p99"] <= s["max"], path,
            f"{where} percentiles out of order")


def validate_fault_campaign(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("workload"), str), path, "missing workload")
    for key in ("float_acc", "fault_free_acc", "sigma", "recovery_bar"):
        require(is_num(doc.get(key)), path, f"bad {key}")
    rates = doc.get("rates")
    require(isinstance(rates, list) and rates, path, "missing rates")
    require(all(is_num(r) and r > 0 for r in rates), path, "bad rate value")
    modes = doc.get("modes")
    require(isinstance(modes, list) and modes, path, "missing modes")
    for m in modes:
        name = m.get("name")
        require(isinstance(name, str), path, "mode missing name")
        require(isinstance(m.get("write_verify"), bool), path,
                f"mode {name} bad write_verify")
        require(isinstance(m.get("spare_cols"), int), path,
                f"mode {name} bad spare_cols")
        cells = m.get("cells")
        require(isinstance(cells, list) and len(cells) == len(rates), path,
                f"mode {name} cells/rates mismatch")
        for c in cells:
            for key in ("rate", "accuracy", "recovery"):
                require(is_num(c.get(key)), path, f"mode {name} bad {key}")
            require(0.0 <= c["accuracy"] <= 1.0, path,
                    f"mode {name} accuracy out of range")
            for key in ("stuck_cells", "verify_retries", "defective_cells",
                        "cells_remapped", "spare_cols_used"):
                require(isinstance(c.get(key), int) and c[key] >= 0, path,
                        f"mode {name} bad {key}")
    transient = doc.get("transient")
    require(isinstance(transient, dict), path, "missing transient section")
    require(isinstance(transient.get("flips"), int), path, "bad transient flips")
    for key in ("acc_before", "acc_after"):
        require(is_num(transient.get(key)), path, f"bad transient {key}")
    checks = doc.get("checks")
    require(isinstance(checks, dict), path, "missing checks")
    for key in ("fault_free_bit_identical", "reproducible_across_threads",
                "recovery_target_met"):
        require(isinstance(checks.get(key), bool), path, f"bad check {key}")
    require(all(checks.values()), path,
            "campaign contract violated: " + ", ".join(
                k for k, v in checks.items() if not v))
    print(f"{path}: fault campaign ok ({len(modes)} modes x "
          f"{len(rates)} rates, recovery bar {doc['recovery_bar']})")


def validate_maintenance(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("workload"), str), path, "missing workload")
    require(isinstance(doc.get("quick"), bool), path, "bad quick flag")
    for key in ("float_acc", "fresh_acc", "retention_bar", "cost_bar"):
        require(is_num(doc.get(key)), path, f"bad {key}")
    life = doc.get("lifetime")
    require(isinstance(life, dict), path, "missing lifetime section")
    for key in ("epochs", "epoch_us"):
        require(isinstance(life.get(key), int) and life[key] > 0, path,
                f"bad lifetime {key}")
    for key in ("seconds_per_us", "drift_nu", "t0_seconds", "flip_rate",
                "stuck_rate"):
        require(is_num(life.get(key)) and life[key] > 0, path,
                f"bad lifetime {key}")
    configs = doc.get("configs")
    require(isinstance(configs, list) and len(configs) >= 2, path,
            "missing configs")
    names = [c.get("name") for c in configs]
    require(names[0] == "off", path, "first config must be 'off'")
    off_retained = None
    for c in configs:
        name = c.get("name")
        require(isinstance(name, str), path, "config missing name")
        require(isinstance(c.get("maintenance"), bool), path,
                f"config {name} bad maintenance flag")
        for key in ("fresh_acc", "final_acc", "retained", "cost_fraction"):
            require(is_num(c.get(key)), path, f"config {name} bad {key}")
        require(0.0 <= c["final_acc"] <= 1.0, path,
                f"config {name} final_acc out of range")
        acc = c.get("acc_by_epoch")
        require(isinstance(acc, list) and len(acc) == life["epochs"], path,
                f"config {name} acc_by_epoch length mismatch")
        require(all(is_num(a) and 0.0 <= a <= 1.0 for a in acc), path,
                f"config {name} bad acc_by_epoch value")
        for key in ("flips", "refreshes", "scrub_detected", "scrub_repairs",
                    "rotations", "migrated_tiles", "cells_programmed",
                    "maint_busy_us", "demand_delay_us", "deadline_misses",
                    "deferred", "demand_makespan_us", "action_digest",
                    "output_digest"):
            require(isinstance(c.get(key), int) and c[key] >= 0, path,
                    f"config {name} bad {key}")
        health = c.get("health")
        require(isinstance(health, dict), path, f"config {name} missing health")
        for key in ("stuck_cells", "spare_cols_used", "spares_remaining",
                    "program_passes"):
            require(isinstance(health.get(key), int) and health[key] >= 0,
                    path, f"config {name} bad health {key}")
        for key in ("max_age_s", "min_cumulative_drift"):
            require(is_num(health.get(key)), path,
                    f"config {name} bad health {key}")
        # Re-derive the two headline contracts from the raw numbers rather
        # than trusting the bench's own checks object.
        if name == "off":
            off_retained = c["retained"]
            require(c["demand_delay_us"] == 0, path,
                    "off config cannot delay demand")
        else:
            require(c["retained"] >= doc["retention_bar"], path,
                    f"config {name} retained {c['retained']:.4f} below bar")
            require(c["cost_fraction"] <= doc["cost_bar"], path,
                    f"config {name} cost {c['cost_fraction']:.4f} above bar")
            if name == "idle_only":
                require(c["demand_delay_us"] == 0, path,
                        "idle_only delayed demand")
    require(off_retained is not None and off_retained < doc["retention_bar"],
            path, "maintenance-off run did not collapse below the bar")
    checks = doc.get("checks")
    require(isinstance(checks, dict), path, "missing checks")
    for key in ("off_collapses", "policies_retain", "cost_bounded",
                "reproducible_across_threads"):
        require(isinstance(checks.get(key), bool), path, f"bad check {key}")
    require(all(checks.values()), path,
            "maintenance contract violated: " + ", ".join(
                k for k, v in checks.items() if not v))
    print(f"{path}: maintenance ok ({len(configs)} configs x "
          f"{life['epochs']} epochs, off retained {off_retained:.3f})")


def validate_serving(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("workload"), str), path, "missing workload")
    require(isinstance(doc.get("quick"), bool), path, "bad quick flag")
    for key in ("tenants", "trace_requests", "duration_us"):
        require(isinstance(doc.get(key), int) and doc[key] > 0, path,
                f"bad {key}")
    threads = doc.get("threads")
    require(isinstance(threads, list) and threads, path, "missing threads")
    for key in ("speedup_dynamic_over_serial_virtual",
                "speedup_dynamic_over_serial_wall"):
        require(is_num(doc.get(key)) and doc[key] > 0, path, f"bad {key}")
    # Deterministic contract gates: replay reproducibility, accounting
    # conservation, admission-control coverage, and the virtual >= 2x
    # batching target are all pure functions of (trace, config).
    for key in ("replay_reproducible", "accounting_conserved",
                "admission_exercised", "throughput_target_met"):
        require(doc.get(key) is True, path, f"contract violated: {key}")
    modes = doc.get("modes")
    require(isinstance(modes, list) and modes, path, "missing modes")
    for m in modes:
        name = m.get("name")
        require(isinstance(name, str), path, "mode missing name")
        for key in ("max_batch", "completed", "rejected", "shed", "batches",
                    "virtual_makespan_us"):
            require(isinstance(m.get(key), int) and m[key] >= 0, path,
                    f"mode {name} bad {key}")
        for key in ("wall_ms", "virtual_throughput_rps",
                    "wall_throughput_rps"):
            require(is_num(m.get(key)) and m[key] >= 0, path,
                    f"mode {name} bad {key}")
        require(m.get("accounting_conserved") is True, path,
                f"mode {name} accounting not conserved")
        for key in ("queue_us", "service_us", "e2e_us", "batch_size"):
            check_sample_summary(path, f"mode {name} {key}", m.get(key))
        tenants = m.get("tenants")
        require(isinstance(tenants, list) and
                len(tenants) == doc["tenants"], path,
                f"mode {name} tenants mismatch")
        completed = 0
        for t in tenants:
            who = f"mode {name} tenant {t.get('tenant')}"
            for key in ("submitted", "completed", "rejected", "shed",
                        "batches", "queued"):
                require(isinstance(t.get(key), int) and t[key] >= 0, path,
                        f"{who} bad {key}")
            # Per-tenant conservation: every request that came in is
            # accounted for, and nothing is still queued after drain.
            require(t["queued"] == 0, path, f"{who} left requests queued")
            require(t["submitted"] ==
                    t["completed"] + t["rejected"] + t["shed"], path,
                    f"{who} requests not conserved")
            completed += t["completed"]
        require(completed == m["completed"], path,
                f"mode {name} per-tenant completed sum mismatch")
    hists = doc.get("histograms")
    require(isinstance(hists, dict) and hists, path, "missing histograms")
    for name, h in hists.items():
        require(isinstance(h.get("count"), int) and h["count"] >= 0, path,
                f"hist {name} bad count")
        if h["count"] > 0:
            require(h["p50"] <= h["p90"] <= h["p99"], path,
                    f"hist {name} percentiles out of order")
    attribution = doc.get("attribution")
    require(isinstance(attribution, list) and
            len(attribution) == doc["tenants"], path, "bad attribution")
    for a in attribution:
        require(isinstance(a.get("path"), str) and
                a["path"].startswith("serving/tenant"), path,
                "attribution node bad path")
        require(is_num(a.get("requests")) and a["requests"] > 0, path,
                f"attribution {a.get('path')} no requests booked")
        require(is_num(a.get("service_us")) and a["service_us"] > 0, path,
                f"attribution {a.get('path')} no service time booked")
    print(f"{path}: serving ok ({doc['tenants']} tenants, "
          f"{doc['trace_requests']} requests, {len(modes)} modes, "
          f"{doc['speedup_dynamic_over_serial_virtual']:.2f}x virtual)")


def validate_noc(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("quick"), bool), path, "bad quick flag")
    for key in ("pipeline_samples", "search_iterations"):
        require(isinstance(doc.get(key), int) and doc[key] > 0, path,
                f"bad {key}")
    threads = doc.get("threads")
    require(isinstance(threads, list) and threads, path, "missing threads")
    # Contract gates: the search win, legacy bit-exactness, physically sane
    # link loads, and thread-count invariance are all deterministic.
    for key in ("optimized_smart_beats_snake_baseline", "legacy_bit_exact",
                "utilization_bounded", "thread_invariant"):
        require(doc.get(key) is True, path, f"contract violated: {key}")
    workloads = doc.get("workloads")
    require(isinstance(workloads, list) and workloads, path,
            "missing workloads")
    placements = {"scattered", "snake", "optimized"}
    models = {"baseline", "contention", "contention_smart"}
    for w in workloads:
        name = w.get("name")
        require(isinstance(name, str), path, "workload missing name")
        require(isinstance(w.get("spilled_layers"), int) and
                w["spilled_layers"] >= 0, path, f"{name} bad spilled_layers")
        for key in ("snake_baseline_ns", "optimized_smart_ns",
                    "chip_noc_ns_default", "chip_noc_ns_expected"):
            require(is_num(w.get(key)) and w[key] > 0, path,
                    f"{name} bad {key}")
        require(w["optimized_smart_ns"] < w["snake_baseline_ns"], path,
                f"{name} optimized+SMART not below snake baseline")
        # The default-params ChipSimulator must reproduce the pre-event-model
        # closed-form sum to the last bit.
        require(w["chip_noc_ns_default"] == w["chip_noc_ns_expected"], path,
                f"{name} legacy noc_ns not bit-exact")
        require(w.get("legacy_bit_exact") is True, path,
                f"{name} legacy_bit_exact not set")
        variants = w.get("variants")
        require(isinstance(variants, list) and
                len(variants) == len(placements) * len(models), path,
                f"{name} expected {len(placements) * len(models)} variants")
        for v in variants:
            who = f"{name} {v.get('placement')}/{v.get('noc_model')}"
            require(v.get("placement") in placements, path,
                    f"{who} unknown placement")
            require(v.get("noc_model") in models, path,
                    f"{who} unknown noc model")
            require(is_num(v.get("per_sample_ns")) and v["per_sample_ns"] > 0,
                    path, f"{who} bad per_sample_ns")
            require(is_num(v.get("queue_ns")) and v["queue_ns"] >= 0, path,
                    f"{who} bad queue_ns")
            util = v.get("max_link_utilization")
            require(is_num(util) and 0.0 <= util <= 1.0 + 1e-12, path,
                    f"{who} link utilization out of [0, 1]")
            require(isinstance(v.get("smart_segments"), int) and
                    v["smart_segments"] >= 0, path,
                    f"{who} bad smart_segments")
            if v["noc_model"] == "baseline":
                require(v["queue_ns"] == 0 and util == 0, path,
                        f"{who} baseline must be uncontended")
            if v["noc_model"] != "contention_smart":
                require(v["smart_segments"] == 0, path,
                        f"{who} smart segments without SMART enabled")
    print(f"{path}: noc ok ({len(workloads)} workloads, "
          f"{len(workloads[0]['variants'])} variants each)")


def validate_bench(path, doc):
    require(doc.get("schema_version") == 1, path, "bad schema_version")
    require(isinstance(doc.get("bench"), str), path, "missing bench name")
    threads = doc.get("threads")
    require(isinstance(threads, list) and threads, path, "missing threads")
    kernels = doc.get("kernels")
    require(isinstance(kernels, list) and kernels, path, "missing kernels")
    for k in kernels:
        require(isinstance(k.get("name"), str), path, "kernel missing name")
        for key in ("time_ms", "speedup_vs_1t"):
            arr = k.get(key)
            require(isinstance(arr, list) and len(arr) == len(threads),
                    path, f"kernel {k.get('name')} bad {key}")
            require(all(is_num(x) and x >= 0 for x in arr), path,
                    f"kernel {k.get('name')} non-numeric {key}")
        # Benches migrated onto obs::SampleSummary also emit a per-thread
        # percentile summary next to the best-of-reps arrays.
        if "step_ms_summary" in k:
            arr = k["step_ms_summary"]
            require(isinstance(arr, list) and len(arr) == len(threads),
                    path, f"kernel {k.get('name')} bad step_ms_summary")
            for t, summary in enumerate(arr):
                check_sample_summary(
                    path, f"kernel {k.get('name')} step_ms_summary[{t}]",
                    summary)
    print(f"{path}: bench ok ({len(kernels)} kernels)")


def main(argv):
    structural_only = "--structural-only" in argv
    argv = [a for a in argv if a != "--structural-only"]
    if len(argv) < 2:
        sys.exit(__doc__)
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, f"unreadable or invalid JSON: {e}")
        if "traceEvents" in doc:
            validate_trace(path, doc, structural_only)
        elif doc.get("kind") == "reramdl_metrics":
            validate_metrics(path, doc)
        elif doc.get("kind") == "reramdl_run_report":
            validate_run_report(path, doc)
        elif doc.get("bench") == "run_report":
            validate_run_report_bench(path, doc)
        elif doc.get("bench") == "fault_campaign":
            validate_fault_campaign(path, doc)
        elif doc.get("bench") == "maintenance":
            validate_maintenance(path, doc)
        elif doc.get("bench") == "serving":
            validate_serving(path, doc)
        elif doc.get("bench") == "noc":
            validate_noc(path, doc)
        elif "bench" in doc:
            validate_bench(path, doc)
        else:
            fail(path, "unrecognized artifact (no traceEvents/kind/bench)")


if __name__ == "__main__":
    main(sys.argv)
