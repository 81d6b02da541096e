"""Metric definitions and the arithmetic that turns driver trials into them.

Kept apart from run.py so the self-tests can check the accounting rules
(percentiles, failures, self time) without building anything.
"""

import hashlib
import json
import math
import os
import statistics

WORKLOADS = ("many_objects", "hot_object", "churn")

# name -> (unit, better). The end-to-end set is printed with --trace 0.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "visible_p50_ms": ("ms", "lower"),
    "visible_p99_ms": ("ms", "lower"),
    "msgs_per_op": ("count", "lower"),
    "kb_per_op": ("KB", "lower"),
}

# Wire message types broken out per op. Types that never appear on any
# workload fold into msg.other; traffic sent by the naming, membership
# and placement services (which report to no MetricsSink) is the
# difference between the wire total and the endpoints' per-type sum.
MSG_TYPES = (
    "invoke_request", "invoke_reply", "update", "notify", "fetch_request",
    "fetch_reply", "subscribe", "subscribe_ack", "membership_join",
    "membership_heartbeat", "membership_watch", "view_fetch_request",
    "snapshot_delta_request", "snapshot_delta_reply",
)
BACKGROUND_TYPES = ("notify", "membership_heartbeat", "stability_horizon")

PER_LAYER = {
    "sim.events_per_op": ("count", "lower"),
    "sim.drive_s": ("s", "lower"),
    "sim.net.dropped_per_op": ("count", "lower"),
}
for _t in MSG_TYPES + ("other", "service_sent"):
    PER_LAYER[f"msg.{_t}.per_op"] = ("count", "lower")
    PER_LAYER[f"msg.{_t}.kb_per_op"] = ("KB", "lower")
PER_LAYER.update({
    "msg.background_share": ("ratio", "lower"),
    "setup.stores_s": ("s", "lower"),
    "setup.seed_s": ("s", "lower"),
    "setup.clients_s": ("s", "lower"),
    "setup.settle_s": ("s", "lower"),
    "placement.place_s": ("s", "lower"),
    "replication.client.issue_us": ("us", "lower"),
    "replication.client.queue_wait_ms": ("ms", "lower"),
    "replication.client.rebinds": ("count", "lower"),
    "replication.client.demands": ("count", "lower"),
    "replication.client.waits": ("count", "lower"),
    "replication.client.failed_frac": ("ratio", "lower"),
    "replication.client.stale_read_frac": ("ratio", "lower"),
    "replication.store.applies_per_write": ("count", "lower"),
    "replication.store.resubscribes": ("count", "lower"),
    "replication.write_log.retained_mb": ("MB", "lower"),
    "replication.write_log.compactions": ("count", "lower"),
    "web.delta_transfers": ("count", "higher"),
    "web.full_transfers": ("count", "lower"),
    "web.snapshot_pages": ("count", "lower"),
    "membership.view_changes": ("count", "lower"),
    "membership.evictions": ("count", "lower"),
    "membership.rejoins": ("count", "lower"),
    "membership.horizon_advances": ("count", "higher"),
    "fault.crashes": ("count", "higher"),
    "fault.partitions": ("count", "higher"),
    "coherence.events_per_op": ("count", "lower"),
    "coherence.verify_s": ("s", "lower"),
    "coherence.converge_s": ("s", "lower"),
    "coherence.check_model_s": ("s", "lower"),
    "coherence.check_sessions_s": ("s", "lower"),
    "metrics.oracle_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.generator_late_ms": ("ms", "lower"),
    "obs.prop_first_p50_ms": ("ms", "lower"),
    "obs.prop_last_p99_ms": ("ms", "lower"),
    "obs.tracing_overhead_pct": ("%", "lower"),
})

# Span name -> per-layer metric its self time feeds (seconds per trial).
SPAN_METRICS = {
    "sim.drive": "sim.drive_s",
    "setup.stores": "setup.stores_s",
    "setup.seed": "setup.seed_s",
    "setup.clients": "setup.clients_s",
    "setup.settle": "setup.settle_s",
    "placement.place": "placement.place_s",
    "coherence.converge": "coherence.converge_s",
    "coherence.check_model": "coherence.check_model_s",
    "coherence.check_sessions": "coherence.check_sessions_s",
    "metrics.oracle.score": "metrics.oracle_s",
    "metrics.oracle.commit": "metrics.oracle_s",
    "testbed.setup": "harness.self_s",
    "workload.run": "harness.self_s",
    "verify": "harness.self_s",
    "harness.visibility": "harness.self_s",
}
ISSUE_SPANS = ("replication.client.read", "replication.client.write")

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def units(traced):
    table = PER_LAYER if traced else END_TO_END
    return {name: unit for name, (unit, _) in table.items()}


def sub_seed(seed, i):
    """Sub-seed of trial i of a run with --seed `seed`."""
    return seed * 1000 + i + 1


def percentile(samples, p):
    """Nearest-rank percentile (as metrics::Histogram computes it) with the
    number of samples strictly beyond its rank. None sorts as +inf: a
    failed op misses every latency limit."""
    vals = sorted(math.inf if v is None else v for v in samples)
    n = len(vals)
    if n == 0:
        return math.nan, 0
    rank = min(n, max(1, math.ceil(p / 100.0 * n)))
    return vals[rank - 1], n - rank


def latency_samples(trials, kind):
    """Pooled due->done samples in ms; failed ops (-1) become None."""
    out = []
    for t in trials:
        out.extend(None if v < 0 else v / 1000.0 for v in t["lat_us"][kind])
    return out


def ops_per_s(trial):
    """Completed ops per wall second of the trial's measured phase."""
    return (trial["ops"]["attempted"] - trial["ops"]["failed"]) / \
        trial["wall"]["drive_s"]


def median_wall(trials, name):
    return statistics.median(t["wall"][name] for t in trials)


def end_to_end(trials, firsts):
    """End-to-end metrics: wall ones are medians over every trial,
    simulated-time ones are pooled over `firsts`."""
    v = {}
    notes = []
    v["ops_per_s"] = statistics.median(ops_per_s(t) for t in trials)
    for name in ("setup_s", "peak_rss_mb"):
        v[name] = median_wall(trials, name)
    for kind in ("read", "write", "visible"):
        samples = latency_samples(firsts, kind)
        for p in (50, 99):
            name = f"{kind}_p{p}_ms"
            value, beyond = percentile(samples, p)
            if beyond < MIN_BEYOND or not math.isfinite(value):
                notes.append(f"{name}: {len(samples)} samples, {beyond} "
                             f"beyond p{p} (needs {MIN_BEYOND}, finite)")
                finite = [s for s in samples if s is not None]
                value = max(finite) if finite else 0.0
            v[name] = value
    ops = sum(t["ops"]["attempted"] for t in firsts)
    v["msgs_per_op"] = sum(t["traffic"]["net_msgs"] for t in firsts) / ops
    v["kb_per_op"] = sum(t["traffic"]["net_bytes"] for t in firsts) / 1024 / ops
    return v, notes


def self_times(path):
    """Reduces a span file to {name: [self_us_total, count]}: each span's
    duration minus the time its direct children cover."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    out = {}
    for e in events:
        acc = out.setdefault(e["name"], [0.0, 0])
        acc[0] += e["dur"] - child_us.get(e["args"]["id"], 0.0)
        acc[1] += 1
    return out


def per_layer(untraced, traced, firsts):
    """Per-layer metrics: counters pooled over `firsts` (untraced), span
    self times and propagation latencies from the `traced` trials."""
    v = {name: 0.0 for name in PER_LAYER}
    k = len(firsts)
    ops = sum(t["ops"]["attempted"] for t in firsts)
    counts = {c: sum(t["counts"][c] for t in firsts) for c in firsts[0]["counts"]}
    traffic = [t["traffic"] for t in firsts]
    net_msgs = sum(t["net_msgs"] for t in traffic)

    v["sim.events_per_op"] = counts["sim_events"] / ops
    v["sim.net.dropped_per_op"] = sum(t["net_dropped"] for t in traffic) / ops
    background = 0
    for t in traffic:
        for name, (msgs, nbytes) in t["by_type"].items():
            key = name if name in MSG_TYPES else "other"
            v[f"msg.{key}.per_op"] += msgs / ops
            v[f"msg.{key}.kb_per_op"] += nbytes / 1024 / ops
            if name in BACKGROUND_TYPES:
                background += msgs
        v["msg.service_sent.per_op"] += (t["net_msgs"] - t["sink_msgs"]) / ops
        v["msg.service_sent.kb_per_op"] += \
            (t["net_bytes"] - t["sink_bytes"]) / 1024 / ops
    v["msg.background_share"] = background / net_msgs if net_msgs else 0.0

    # Due->reply minus the binding's own send->reply: time spent queued
    # behind the same client's earlier ops.
    waits = []
    for t in firsts:
        for kind in ("read", "write"):
            ok = [x for x in t["lat_us"][kind] if x >= 0]
            if ok:
                waits.append((len(ok), sum(ok) / len(ok) - t["sink_mean_us"][kind]))
    n_ok = sum(n for n, _ in waits)
    v["replication.client.queue_wait_ms"] = \
        sum(n * w for n, w in waits) / n_ok / 1000 if n_ok else 0.0
    for name, key in (("replication.client.rebinds", "rebinds"),
                      ("replication.client.demands", "demands"),
                      ("replication.client.waits", "waits"),
                      ("replication.store.resubscribes", "resubscribes"),
                      ("replication.write_log.compactions", "log_compactions"),
                      ("web.delta_transfers", "delta_transfers"),
                      ("web.full_transfers", "full_transfers"),
                      ("web.snapshot_pages", "snapshot_pages"),
                      ("membership.view_changes", "view_changes"),
                      ("membership.evictions", "evictions"),
                      ("membership.rejoins", "rejoins"),
                      ("membership.horizon_advances", "horizon_advances"),
                      ("fault.crashes", "crashes"),
                      ("fault.partitions", "partitions")):
        v[name] = counts[key] / k  # per trial
    v["replication.write_log.retained_mb"] = \
        counts["log_retained_bytes"] / k / (1 << 20)
    v["replication.client.failed_frac"] = \
        sum(t["ops"]["failed"] for t in firsts) / ops
    scored = sum(t["ops"]["scored_reads"] for t in firsts)
    v["replication.client.stale_read_frac"] = \
        sum(t["ops"]["stale_reads"] for t in firsts) / scored if scored else 0.0
    writes_ok = sum(sum(1 for x in t["lat_us"]["write"] if x >= 0)
                    for t in firsts)
    v["replication.store.applies_per_write"] = \
        counts["applies"] / writes_ok if writes_ok else 0.0
    v["coherence.events_per_op"] = counts["history_events"] / ops
    v["coherence.verify_s"] = median_wall(untraced, "verify_s")
    v["harness.generator_late_ms"] = \
        max(t["ops"]["generator_late_us"] for t in firsts) / 1000

    # Span self times: seconds per trial, median over the traced trials.
    per_trial = []
    for t in traced:
        acc = {}
        for span, (self_us, _) in t["spans_self_us"].items():
            metric = SPAN_METRICS.get(span)
            if metric:
                acc[metric] = acc.get(metric, 0.0) + self_us / 1e6
        per_trial.append(acc)
    for metric in set(SPAN_METRICS.values()):
        v[metric] = statistics.median(a.get(metric, 0.0) for a in per_trial)
    issue_us = sum(t["spans_self_us"].get(s, [0, 0])[0]
                   for t in traced for s in ISSUE_SPANS)
    issue_n = sum(t["spans_self_us"].get(s, [0, 0])[1]
                  for t in traced for s in ISSUE_SPANS)
    v["replication.client.issue_us"] = issue_us / issue_n if issue_n else 0.0
    v["obs.prop_first_p50_ms"] = statistics.median(
        t["prop"]["first_p50_us"] for t in traced) / 1000
    v["obs.prop_last_p99_ms"] = statistics.median(
        t["prop"]["last_p99_us"] for t in traced) / 1000
    plain = statistics.median(ops_per_s(t) for t in untraced)
    with_tracing = statistics.median(ops_per_s(t) for t in traced)
    v["obs.tracing_overhead_pct"] = (plain - with_tracing) / plain * 100
    return v


def workload_checks(workload, firsts):
    """Facts every trial of a workload must show for its numbers to count."""
    problems = []
    if workload == "churn":
        for t in firsts:
            c = t["counts"]
            for key in ("crashes", "evictions", "rebinds"):
                if c[key] <= 0:
                    problems.append(f"churn trial seed {t['seed']}: "
                                    f"{key} = 0, faults did not bite")
    return problems


def sample_report(firsts):
    out = {}
    for kind in ("read", "write", "visible"):
        samples = latency_samples(firsts, kind)
        for p in (50, 99):
            _, beyond = percentile(samples, p)
            out[f"{kind}_p{p}_ms"] = {"samples": len(samples),
                                      "beyond": beyond}
    return out


def render_table(result, details):
    samples = details["samples"]
    lines = []
    for name, m in result["metrics"].items():
        extra = ""
        if name in samples:
            s = samples[name]
            extra = f"  (n={s['samples']}, {s['beyond']} beyond)"
        lines.append(f"{name:40s} {m['value']:14.4f} {m['unit']}{extra}")
    return lines


def source_digest(root):
    """sha256 over the library sources, root build file and perfbench."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths.extend(os.path.join(d, f) for f in sorted(files))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()
