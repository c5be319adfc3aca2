"""Arithmetic of the us3d benchmark: raw records in, metrics out.

The C++ load generator (us3d_perfbench.cpp) only records timestamps, counts and
spans; every percentile, ratio and self time is computed here so that
test_benchmath.py can pin the arithmetic. Times in the raw document are
integer nanoseconds on one steady clock.

Ratio bases, stated once:
  setup_s             median of the set-up times, one per fresh process
  voxels_per_s        delivered voxels (a compounded volume counts once)
                      per wall second, median over the ~1 s slices of the
                      timed window (after warm-up)
  cpu_s_per_mvoxel    process user+sys CPU seconds per million of those
                      delivered voxels, median over the same slices
  latency_p50_ms      per priority class, the median over the same slices
                      of each slice's median latency (frames due in it);
                      the geometric mean of those when a workload runs
                      several classes (see class_p50)
  delivered_ratio     insonifications delivered with correct bits per
                      submit attempted, over the whole run
  *.ns_per_voxel      layer time per beamformed voxel (one voxel of one
                      insonification) in the single-thread split
  *.cpu_share         share of process CPU per beamformed voxel
  service.shed_ratio  shed submits per submit attempted, per class
  host.steal_share    ticks the hypervisor stole per vCPU tick that was
                      busy or stolen, machine-wide, over the timed window
"""

import math
import statistics

NS_PER_MS = 1e6
SLICE_NS = 1_000_000_000

# Delivered (bits equal the oracle), wrong bits, shed/refused at submit,
# accepted but never delivered. Mirrors enum Status in us3d_perfbench.cpp.
DELIVERED, WRONG, SHED, LOST = 0, 1, 2, 3

# Percentiles a tail may be taken at, highest first.
# Sparse on purpose: a run whose sample count drifts a little must not flip
# between neighbouring percentiles.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(n, p):
    # p * n / 100 is often an integer that floating point lands just above
    # (99.9 * 10000 / 100 = 9990.000000000002); round that away first.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p):
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th value."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n, p):
    """Samples ranked strictly after the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least min_beyond samples beyond it,
    or None when the sample is too small for any."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def tail(values):
    """(percentile, value, sample count) of the supported tail."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        raise ValueError(f"{len(ordered)} samples support no tail percentile")
    return p, nearest_rank(ordered, p), len(ordered)


def due_latencies_ms(records, start_ns, end_ns, cls=None):
    """Submit-to-delivery latency, timed from when each frame was due, of
    the correctly delivered frames due inside [start_ns, end_ns).

    A record is [class, due_ns, sent_ns, delivered_ns, status]. In the open
    loop a frame is due on its schedule whether or not the generator sent
    it on time, so a stall is charged to every frame it delayed."""
    return [
        (r[3] - r[1]) / NS_PER_MS
        for r in records
        if r[4] == DELIVERED and start_ns <= r[1] < end_ns
        and (cls is None or r[0] == cls)
    ]


def lateness_ms(records, start_ns, end_ns):
    """How late the generator sent each frame due inside the window."""
    return [(r[2] - r[1]) / NS_PER_MS for r in records
            if start_ns <= r[1] < end_ns]


def window_voxels(deliveries, start_ns, end_ns):
    """(delivered voxels, beamformed voxels) of the deliveries made inside
    [start_ns, end_ns). A delivery is [t_ns, voxels, insonifications]."""
    delivered = beamformed = 0
    for t, voxels, shots in deliveries:
        if start_ns <= t < end_ns:
            delivered += voxels
            beamformed += voxels * shots
    return delivered, beamformed


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. A span is [name, start_ns, end_ns, parent_index]."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = union_length(
            [(max(start, spans[c][1]), min(end, spans[c][2]))
             for c in children[i] if spans[c][1] < end and spans[c][2] > start])
        out.append(end - start - covered)
    return out


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def slices(marks, start_ns, end_ns, slice_ns=SLICE_NS):
    """Consecutive slices of [start_ns, end_ns] bounded by marks (one per
    stats tick: [t_ns, process_cpu_s, steal, idle, total] with the last
    three /proc/stat tick counters summed over the vCPUs). Each slice runs
    from one mark to the first mark at least slice_ns later. Returns
    (t0, t1, cpu_s, stolen): the process CPU seconds spent in the slice and
    the share of the vCPUs' busy time the hypervisor stole."""
    inside = [m for m in marks if start_ns <= m[0] <= end_ns]
    out = []
    first = 0
    for i in range(1, len(inside)):
        a, b = inside[first], inside[i]
        if b[0] - a[0] >= slice_ns:
            steal = b[2] - a[2]
            busy_or_stolen = (b[4] - a[4]) - (b[3] - a[3])
            out.append((a[0], b[0], b[1] - a[1],
                        steal / busy_or_stolen if busy_or_stolen else 0.0))
            first = i
    return out


def sliced(raw, start, end):
    """Per slice: (voxels/s, CPU s per Mvoxel, [median latency ms of each
    class, None where a class delivered nothing due in the slice]), all as
    measured on the wall clock and the process CPU clock."""
    out = []
    for t0, t1, cpu_s, _ in slices(raw["cpu_marks"], start, end):
        delivered, _ = window_voxels(raw["deliveries"], t0, t1)
        p50s = []
        for cls in range(len(raw["classes"])):
            latencies = due_latencies_ms(raw["records"], t0, t1, cls)
            p50s.append(statistics.median(latencies) if latencies else None)
        out.append((delivered / ((t1 - t0) / 1e9),
                    cpu_s / (delivered / 1e6), p50s))
    return out


def class_p50(slice_p50s):
    """One latency figure from the slices' per-class medians: per class the
    median over its slices, then the geometric mean over the classes that
    delivered anything.

    Not the median over every frame: in a mix the classes' latencies form
    separate clusters (a compounded bulk shot waits for the rest of its
    group), so the all-class median sits in a gap between two of them and
    jumps from one to the other when the host's speed changes a little.
    Each class's median moves smoothly; the geometric mean weighs a
    relative change in any class the same."""
    per_class = []
    for cls in range(len(slice_p50s[0])):
        values = [p[cls] for p in slice_p50s if p[cls] is not None]
        if values:
            per_class.append(statistics.median(values))
    return statistics.geometric_mean(per_class)


def steal_share(marks, start_ns, end_ns):
    """Share of the vCPUs' busy time the hypervisor stole between the first
    and last marks inside [start_ns, end_ns]: time the machine's threads
    were runnable but not running. Reported, never applied to a metric."""
    inside = [m for m in marks if start_ns <= m[0] <= end_ns]
    return slices([inside[0], inside[-1]], start_ns, end_ns, slice_ns=0)[0][3]


def correctness(raw):
    """(correct, attempted, failed) of a run."""
    records = raw["records"]
    attempted = len(records)
    delivered = sum(1 for r in records if r[4] == DELIVERED)
    sessions = raw["sessions"]
    correct = (attempted == raw["attempted"]
               and raw["mismatches"] == 0
               and raw["stats_unbounded"] == 0
               and all(r[4] != WRONG for r in records)
               and all(s["reconciles"] and not s["failed"] for s in sessions)
               and sum(s["delivered_insonifications"] for s in sessions)
               == delivered)
    return correct, attempted, attempted - delivered


def end_to_end(raw):
    """The user-facing metrics of an untraced run."""
    start, end = raw["window_start_ns"], raw["window_end_ns"]
    records = raw["records"]
    rate, cost, p50 = zip(*sliced(raw, start, end))
    ok = sum(1 for r in records if r[4] == DELIVERED)
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "voxels_per_s": (statistics.median(rate), "voxel/s"),
        "latency_p50_ms": (class_p50(p50), "ms"),
        "delivered_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "cpu_s_per_mvoxel": (statistics.median(cost), "s/Mvoxel"),
    }


def tails(raw):
    """The latency tails, all classes and interactive only, with the
    percentile each was taken at and its sample count. Report-only: in the
    closed loops they follow host preemption, not the program (see
    perfbench/README.md)."""
    start, end = raw["window_start_ns"], raw["window_end_ns"]
    interactive = raw["classes"].index("interactive")
    out = {}
    for prefix, cls in (("latency", None), ("latency.interactive", interactive)):
        p, value, n = tail(due_latencies_ms(raw["records"], start, end, cls))
        out[f"{prefix}.tail_ms"] = (value, "ms")
        out[f"{prefix}.tail_percentile"] = (p, "percentile")
        out[f"{prefix}.tail_samples"] = (n, "count")
    return out


def _decile(values, last):
    k = max(1, len(values) // 10)
    return statistics.median(values[-k:] if last else values[:k])


def scenario_of(spans):
    """For every span, the ordinal of the top-level "attribution" span it
    sits under (one per session plan, in plan order), else None. Parents
    are always recorded before their children."""
    ordinal = {}
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out.append(out[parent])
        else:
            if name == "attribution":
                ordinal[i] = len(ordinal)
            out.append(ordinal.get(i))
    return out


def weighted(weights, values):
    return sum(w * v for w, v in zip(weights, values))


def per_layer(raw):
    """The layer split of a traced run (see us3d_perfbench.cpp, phases C1
    and C2, and the traced second half of the timed window). Each session
    plan is split on its own; a workload's figure weights the plans by
    their share of the insonifications delivered in the timed window."""
    spans = raw["spans"]
    own = self_times(spans)
    scen = scenario_of(spans)
    plans = len(raw["frame_voxels"])

    def durations(name, i=None):
        return [s[2] - s[1] for k, s in enumerate(spans)
                if s[0] == name and (i is None or scen[k] == i)]

    def total(name, i):
        return sum(durations(name, i))

    start, end = raw["window_start_ns"], raw["window_end_ns"]
    delivered = [r for r in raw["records"]
                 if r[4] == DELIVERED and start <= r[1] < end]
    weights = [sum(1 for r in delivered if r[0] == i) / len(delivered)
               for i in range(plans)]

    delay, das, scatter, sweep, single_frame_ms, sweep_ms, efficiency, \
        queue_wait = ([] for _ in range(8))
    for i in range(plans):
        frames = len(durations("layer.sweep", i))
        voxels = frames * raw["frame_voxels"][i]
        # The sweep minus its children (delay, and the plane copy the split
        # itself adds) is the DAS kernel plus normalise + scatter.
        sweep_self = sum(own[k] for k, s in enumerate(spans)
                         if s[0] == "layer.sweep" and scen[k] == i)
        swept = total("layer.sweep", i) - total("layer.capture", i)
        delay.append(total("layer.delay", i) / voxels)
        das.append(total("layer.das", i) / voxels)
        scatter.append((sweep_self - total("layer.das", i)) / voxels)
        sweep.append(swept / voxels)
        single_frame_ms.append(swept / frames / NS_PER_MS)
        sweep_ms.append(
            statistics.median(durations("runtime.sweep", i)) / NS_PER_MS)
        efficiency.append(single_frame_ms[i]
                          / (sweep_ms[i] * raw["c2_workers"][i]))
        replay = [(r[3] - r[1]) / NS_PER_MS for r in raw["async_records"]
                  if r[4] == DELIVERED and r[0] == i]
        queue_wait.append(statistics.median(replay) - sweep_ms[i])
    delay_ns = weighted(weights, delay)
    das_ns = weighted(weights, das)
    scatter_ns = weighted(weights, scatter)

    mid = raw["trace_from_ns"]
    _, beam_untraced = window_voxels(raw["deliveries"], start, mid)
    _, beam_traced = window_voxels(raw["deliveries"], mid, end)
    cpu_untraced = (raw["cpu_trace_from_s"] - raw["cpu_window_start_s"]) \
        / beam_untraced * 1e9
    cpu_traced = (raw["cpu_window_end_s"] - raw["cpu_trace_from_s"]) \
        / beam_traced * 1e9

    service_p50 = statistics.median(
        due_latencies_ms(raw["records"], start, end))
    async_p50 = statistics.median(
        [(r[3] - r[1]) / NS_PER_MS for r in raw["async_records"]
         if r[4] == DELIVERED])
    late = lateness_ms(raw["records"], start, end)

    def selfs(name):
        return [own[k] for k, s in enumerate(spans) if s[0] == name]

    metrics = {
        "delay.ns_per_voxel": (delay_ns, "ns"),
        "delay.share": (delay_ns / weighted(weights, sweep), "ratio"),
        "das.ns_per_voxel": (das_ns, "ns"),
        "scatter.ns_per_voxel": (scatter_ns, "ns"),
        "runtime.sweep_ms": (weighted(weights, sweep_ms), "ms"),
        "runtime.parallel_efficiency": (weighted(weights, efficiency),
                                        "ratio"),
        "runtime.queue_wait_ms": (weighted(weights, queue_wait), "ms"),
        "runtime.non_sweep_cpu_share": (
            1.0 - (delay_ns + das_ns) / cpu_untraced, "ratio"),
        "runtime.session_rss_mb": (raw["session_rss_mb"], "MB"),
        "residual.cpu_share": (
            1.0 - (delay_ns + das_ns + scatter_ns) / cpu_untraced, "ratio"),
        "service.submit_us": (statistics.median(selfs("service.submit")) / 1e3,
                              "us"),
        "service.poll_us": (statistics.median(selfs("service.poll")) / 1e3,
                            "us"),
        "service.overhead_ms": (service_p50 - async_p50, "ms"),
        "service.open_session_ms": (statistics.median(
            raw["open_session_ms"]), "ms"),
        "service.close_session_ms": (statistics.median(
            raw["close_session_ms"]), "ms"),
        "service.stats_ms.first_decile": (_decile(raw["stats_ms"], False),
                                          "ms"),
        "service.stats_ms.last_decile": (_decile(raw["stats_ms"], True), "ms"),
        "service.threads_peak": (raw["threads_peak"], "count"),
        "service.backlog_max": (raw["backlog_max"], "count"),
        "generator.lateness_p50_ms": (statistics.median(late), "ms"),
        "generator.lateness_max_ms": (max(late), "ms"),
        "trace.overhead": (cpu_traced / cpu_untraced - 1.0, "ratio"),
        "host.steal_share": (steal_share(raw["cpu_marks"], start, end),
                             "ratio"),
    }
    metrics.update(tails(raw))
    for name in ("interactive", "routine", "bulk"):
        cls = raw["classes"].index(name) if name in raw["classes"] else None
        tried = [r for r in raw["records"] if r[0] == cls]
        shed = sum(1 for r in tried if r[4] == SHED)
        metrics[f"service.shed_ratio.{name}"] = (
            shed / len(tried) if tried else 0.0, "ratio")
    return metrics
