#!/usr/bin/env python3
"""Render or diff reramdl run reports (RERAMDL_REPORT -> run_report.json).

Summary mode prints the attribution tree (latency / energy / flops /
utilization per node), the percentile view of every
histogram, and the time-series coverage:

    tools/report.py run_report.json [--depth=N]

Diff mode compares two reports for regression triage — per-node attribution
totals, histogram p50/p99, and counters — and lists every relative change
above the threshold (default 5%). Exits 1 when any metric regressed (grew)
beyond the threshold, so it can gate CI:

    tools/report.py --diff old.json new.json [--threshold=0.05]

stdlib only.
"""

import argparse
import json
import sys

LAT = "latency_ns"
ENE = "energy_pj"
FLOPS = "flops"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("kind") != "reramdl_run_report":
        sys.exit(f"{path}: not a reramdl run report (kind={doc.get('kind')!r})")
    return doc


def fmt_si(value, unit=""):
    if value is None:
        return "-"
    for scale, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.2f}{suffix}{unit}"
    return f"{value:.2f}{unit}"


def node_cells(node):
    total = node.get("total", {})
    cells = [
        fmt_si(total.get(LAT), "ns") if LAT in total else "-",
        fmt_si(total.get(ENE), "pJ") if ENE in total else "-",
        fmt_si(total.get(FLOPS)) if FLOPS in total else "-",
        f"{node['utilization'] * 100:.1f}%" if "utilization" in node else "-",
    ]
    return cells


def print_table(headers, rows, out=sys.stdout):
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line, file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def summarize(doc, depth):
    totals = doc.get("totals", {})
    print("run report summary")
    print(
        f"  totals: latency {fmt_si(totals.get(LAT), 'ns')}, "
        f"energy {fmt_si(totals.get(ENE), 'pJ')}, "
        f"flops {fmt_si(totals.get(FLOPS))}"
    )
    ts = doc.get("timeseries", {})
    print(
        f"  timeseries: {len(ts.get('samples', []))} samples, "
        f"{ts.get('ticks', 0)} ticks, stride {ts.get('stride', 1)}"
    )
    print()

    rows = []

    def walk(node, path, level):
        if level > depth:
            return
        rows.append(["  " * level + node["name"]] + node_cells(node))
        for child in node.get("children", []):
            walk(child, path + "/" + child["name"], level + 1)

    for top in doc.get("attribution", []):
        walk(top, top["name"], 0)
    print("attribution (rollup totals per node)")
    print_table(
        ["node", "latency", "energy", "flops", "util"], rows
    )
    print()

    hrows = []
    for name, h in sorted(doc.get("histograms", {}).items()):
        hrows.append(
            [
                name,
                str(h.get("count", 0)),
                fmt_si(h.get("mean")),
                fmt_si(h.get("p50")),
                fmt_si(h.get("p90")),
                fmt_si(h.get("p99")),
                fmt_si(h.get("max")),
            ]
        )
    if hrows:
        print("histograms")
        print_table(
            ["histogram", "count", "mean", "p50", "p90", "p99", "max"], hrows
        )


def flatten_tree(doc):
    """path -> total-metrics dict for every attribution node."""
    flat = {}

    def walk(node, prefix):
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        flat[path] = node.get("total", {})
        for child in node.get("children", []):
            walk(child, path)

    for top in doc.get("attribution", []):
        walk(top, "")
    return flat


def rel_delta(old, new):
    if old == new:
        return 0.0
    base = max(abs(old), abs(new), 1e-300)
    return (new - old) / base


def diff(old_doc, new_doc, threshold):
    changes = []  # (kind, name, metric, old, new, delta)

    def compare(kind, name, metric, old, new):
        if old is None or new is None:
            if old != new:
                changes.append((kind, name, metric, old, new, None))
            return
        d = rel_delta(old, new)
        if abs(d) > threshold:
            changes.append((kind, name, metric, old, new, d))

    for metric in (LAT, ENE, FLOPS):
        compare(
            "totals",
            "totals",
            metric,
            old_doc.get("totals", {}).get(metric),
            new_doc.get("totals", {}).get(metric),
        )

    old_flat, new_flat = flatten_tree(old_doc), flatten_tree(new_doc)
    for path in sorted(set(old_flat) | set(new_flat)):
        o, n = old_flat.get(path), new_flat.get(path)
        if o is None or n is None:
            changes.append(
                ("node", path, "presence", None if o is None else "present",
                 None if n is None else "present", None)
            )
            continue
        for metric in sorted(set(o) | set(n)):
            compare("node", path, metric, o.get(metric), n.get(metric))

    oh = old_doc.get("histograms", {})
    nh = new_doc.get("histograms", {})
    for name in sorted(set(oh) & set(nh)):
        for metric in ("p50", "p99"):
            compare("hist", name, metric, oh[name].get(metric),
                    nh[name].get(metric))

    oc = old_doc.get("counters", {})
    nc = new_doc.get("counters", {})
    for name in sorted(set(oc) & set(nc)):
        compare("counter", name, "value", oc.get(name), nc.get(name))

    if not changes:
        print(f"no changes above {threshold * 100:.1f}%")
        return 0

    rows = []
    regressed = False
    for kind, name, metric, old, new, d in changes:
        if d is not None and d > 0:
            regressed = True
        rows.append(
            [
                kind,
                name,
                metric,
                fmt_si(old) if isinstance(old, (int, float)) else str(old),
                fmt_si(new) if isinstance(new, (int, float)) else str(new),
                f"{d * 100:+.1f}%" if d is not None else "added/removed",
            ]
        )
    print(f"{len(changes)} change(s) above {threshold * 100:.1f}%")
    print_table(["kind", "name", "metric", "old", "new", "delta"], rows)
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", help="run_report.json path(s)")
    ap.add_argument("--diff", action="store_true",
                    help="diff two reports (old new)")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="relative-change threshold for --diff (default 0.05)")
    ap.add_argument("--depth", type=int, default=3,
                    help="attribution tree depth to print (default 3)")
    args = ap.parse_args()

    if args.diff:
        if len(args.reports) != 2:
            ap.error("--diff takes exactly two reports: old new")
        return diff(load(args.reports[0]), load(args.reports[1]),
                    args.threshold)
    if len(args.reports) != 1:
        ap.error("summary mode takes exactly one report")
    summarize(load(args.reports[0]), args.depth)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
