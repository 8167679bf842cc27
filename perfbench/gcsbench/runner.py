"""One benchmark run: set up, measure a wall-clock window, drain, check.

An untraced run reports the end-to-end metrics.  A traced run first
measures the same workload untraced (for the tracing overhead), then
installs the span wrappers, builds a fresh cluster and measures again,
and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time

from gcsbench import RunFailed, stats
from gcsbench.instrument import LAYERS, Instrumentation
from gcsbench.tracer import ROOT, Tracer
from gcsbench.workload_udp import UdpFifo
from gcsbench.workloads_sim import SIM_WORKLOADS

WORKLOADS = dict(SIM_WORKLOADS, udp_fifo=UdpFifo)

#: an untraced run times set-ups of its workload for at least this many
#: wall seconds, and at least MIN_SETUPS of them; setup_s is their
#: median.  A set-up of a few milliseconds timed five times would sample
#: the shared host's speed over a few milliseconds only
SETUP_SPAN_S = 3.0
MIN_SETUPS = 5
#: the tail percentile reported next to the median
TAIL_Q = 0.90
#: directory, under the current one, that receives the span traces
TRACE_DIR = ".perfbench_out"

#: end-to-end metric name -> unit
END_TO_END_UNITS = {
    "ops_per_protocol_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
}
#: host-speed figures of an untraced window -> unit.  Identical simulated
#: work moves them by +-20% over minutes on a shared host, more than any
#: regression bound, so they are reported but gate nothing: printed by
#: every untraced run and carried as ``untraced.*`` by the traced run
WALL_UNITS = {
    "ops_per_wall_s": "1/s",
    "cpu_us_per_op": "us/op",
    "peak_rss_mb": "MB",
}


class Window:
    """What one measured window produced."""

    def __init__(self, workload, wall, cpu, rusage_cpu, before, after,
                 violations):
        self.workload = workload
        self.wall = wall
        self.cpu = cpu
        self.rusage_cpu = rusage_cpu
        self.before = before
        self.after = after
        self.violations = violations

    @property
    def ops(self):
        return self.workload.ops

    def delta(self, key):
        return self.after.get(key, 0) - self.before.get(key, 0)


def _rusage_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _build(workload_cls, seed):
    workload = workload_cls()
    start = time.perf_counter()
    workload.setup(seed)
    return workload, time.perf_counter() - start


def _measure(workload, seconds, tracer=None):
    before = workload.counters()
    # the set-up object graph is frozen out of the cyclic collector for
    # the window, as benchmarks/harness.py's steady_state_gc does: a full
    # collection rescanning it is host noise, not protocol cost (objects
    # the window allocates are still collected as usual)
    gc.collect()
    gc.freeze()
    workload.open_window()
    rusage0 = _rusage_cpu()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is not None:
        tracer.start()
    while time.perf_counter() - wall0 < seconds:
        workload.step()
    if tracer is not None:
        tracer.stop()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rusage = _rusage_cpu() - rusage0
    workload.close_window()
    gc.unfreeze()
    after = workload.counters()
    workload.drain()
    violations = workload.check()
    if workload.ops <= 0:
        raise RunFailed("%s completed no operation in its window"
                        % workload.name)
    return Window(workload, wall, cpu, rusage, before, after, violations)


def _latency_ms(samples, q):
    return stats.percentile(samples, q) * 1000.0


def _wall_figures(window):
    return {
        "ops_per_wall_s": window.ops / window.wall,
        "cpu_us_per_op": window.cpu * 1e6 / window.ops,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }


# ----------------------------------------------------------------------
def _time_setups(workload_cls, seed):
    took = []
    start = time.perf_counter()
    while len(took) < MIN_SETUPS \
            or time.perf_counter() - start < SETUP_SPAN_S:
        workload, seconds = _build(workload_cls, seed)
        workload.teardown()
        gc.collect()
        took.append(seconds)
    return took


def run_untraced(name, seed, seconds):
    """Returns ``(result, notes)``: the result dict and readable lines."""
    workload_cls = WORKLOADS[name]
    setups = _time_setups(workload_cls, seed)
    workload, _ = _build(workload_cls, seed)
    try:
        window = _measure(workload, seconds)
    finally:
        workload.teardown()
    samples = workload.latencies
    values = {
        "ops_per_protocol_s": window.ops / workload.protocol_s,
        "latency_p50_ms": _latency_ms(samples, 0.50),
        "latency_p90_ms": _latency_ms(samples, TAIL_Q),
        "setup_s": statistics.median(setups),
    }
    notes = ["workload %s seed %d: %d ops in %.3f wall s (%.4f protocol s); "
             "attempted %d, failed %d"
             % (name, seed, window.ops, window.wall, workload.protocol_s,
                workload.attempted, workload.failed),
             "latency samples: %d (p50 and p%d each have >= %d beyond)"
             % (len(samples), round(TAIL_Q * 100), stats.MIN_BEYOND),
             "set-ups: %d, %.4f to %.4f s"
             % (len(setups), min(setups), max(setups))]
    notes += ["(host speed, gates nothing) %s %.4f %s"
              % (key, value, WALL_UNITS[key])
              for key, value in _wall_figures(window).items()]
    notes += ["VIOLATION: %s" % v for v in window.violations]
    metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
               for key, value in values.items()}
    return _result(window, workload, metrics), notes


def _result(window, workload, metrics):
    return {"correct": not window.violations,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": metrics}


# ----------------------------------------------------------------------
def run_traced(name, seed, seconds):
    """The per-layer run; returns ``(result, notes)``."""
    workload_cls = WORKLOADS[name]
    workload, _ = _build(workload_cls, seed)
    try:
        plain = _measure(workload, seconds)
    finally:
        workload.teardown()
    untraced = _wall_figures(plain)
    gc.collect()

    tracer = Tracer()
    holder = {}
    instrumentation = Instrumentation(
        tracer, faulty=lambda: holder["workload"].faulty())
    instrumentation.install()
    try:
        workload, _ = _build(workload_cls, seed)
        holder["workload"] = workload
        try:
            window = _measure(workload, seconds, tracer=tracer)
        finally:
            workload.teardown()
    finally:
        instrumentation.uninstall()

    values, checks = layer_metrics(name, window, tracer, instrumentation,
                                   untraced)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.jsonl" % (name, seed))
    tracer.write(path)
    notes = ["traced %s seed %d: %d ops, %d spans (first %d written to %s)"
             % (name, seed, window.ops, tracer.next_id, len(tracer.spans),
                path)]
    checks += ["untraced window: %s" % v for v in plain.violations]
    notes += ["VIOLATION: %s" % v for v in window.violations]
    notes += ["CHECK FAILED: %s" % c for c in checks]
    metrics = {key: {"value": value, "unit": unit}
               for key, (value, unit) in values.items()}
    result = _result(window, workload, metrics)
    result["correct"] = result["correct"] and not checks
    return result, notes


# ----------------------------------------------------------------------
#: workloads on which each layer must stay idle (the bypass assertions)
BYPASS = {
    "ordering.calls_per_op": ("ring_sym", "churn", "udp_fifo"),
    "membership.view_changes": ("ring_sym", "order_open", "udp_fifo"),
    "wire.calls_per_op": ("ring_sym", "order_open", "churn"),
    "wire.bytes_per_op": ("ring_sym", "order_open", "churn"),
}
#: the layer self times plus unattributed must match the independently
#: measured process CPU of the traced window within this share
CPU_CHECK_TOLERANCE = 0.02


def layer_metrics(name, window, tracer, instrumentation, untraced):
    """Per-layer metrics of a traced window: ``({name: (value, unit)},
    [failed check, ...])``; ``untraced`` holds the host-speed figures of
    the untraced window measured before it."""
    ops = window.ops
    counts = tracer.counts
    delta = window.delta
    per_op = 1.0 / ops
    values = {}
    for layer in LAYERS:
        values[layer + ".self_us_per_op"] = (
            tracer.self_ns.get(layer, 0) / 1000.0 * per_op, "us/op")
        values[layer + ".calls_per_op"] = (
            tracer.calls.get(layer, 0) * per_op, "calls/op")
    # ordering sits in every stack: its calls that only passed their
    # message on are counted apart from those that did ordering work
    forwards = tracer.passive.get("ordering", 0)
    values["ordering.calls_per_op"] = (
        (tracer.calls.get("ordering", 0) - forwards) * per_op, "calls/op")
    values["ordering.forward_calls_per_op"] = (forwards * per_op,
                                               "calls/op")
    values["unattributed.self_us_per_op"] = (
        tracer.self_ns.get(ROOT, 0) / 1000.0 * per_op, "us/op")

    # sim: scheduler, network, and the simulated CPU charged per layer
    charged = instrumentation.charged
    values["sim.events_per_op"] = (delta("sim.events") * per_op, "events/op")
    values["sim.datagrams_per_op"] = (delta("sim.datagrams") * per_op,
                                      "dgrams/op")
    nic_s = delta("sim.nic_busy_s")
    nics = window.after.get("sim.nics", 0)
    protocol_s = window.workload.protocol_s
    values["sim.nic_busy_frac"] = (
        stats.ratio(nic_s, nics * protocol_s) if nics else 0.0, "frac")
    values["sim.charged_us_per_op"] = (
        sum(charged.values()) * 1e6 * per_op, "us/op")
    for layer in ("bottom", "reliable"):
        values["sim.charged_us_per_op." + layer] = (
            charged.get(layer, 0.0) * 1e6 * per_op, "us/op")
    values["sim.charged_us_per_op.other"] = (
        sum(v for k, v in charged.items() if k not in ("bottom", "reliable"))
        * 1e6 * per_op, "us/op")

    # crypto and bottom
    values["crypto.macs_per_op"] = (counts.get("crypto.macs", 0) * per_op,
                                    "macs/op")
    batches = counts.get("crypto.verify_batches", 0)
    values["crypto.verify_batch_size"] = (
        stats.ratio(counts.get("crypto.batch_items", 0), batches), "items")
    for reason in ("bad_signature", "wrong_view", "wrong_group",
                   "impersonation", "stale_incarnation", "undecodable"):
        values["bottom.drops_per_op." + reason] = (
            delta("bottom.drop." + reason) * per_op, "drops/op")

    # reliable
    values["reliable.dup_ratio"] = (
        stats.ratio(delta("reliable.duplicates"),
                    counts.get("reliable.handle_up", 0)), "ratio")
    values["reliable.naks_per_op"] = (delta("reliable.naks_sent") * per_op,
                                      "naks/op")
    values["reliable.retransmissions_per_op"] = (
        delta("reliable.retransmissions") * per_op, "retrans/op")

    # ordering
    fast = delta("ordering.fast_decides")
    values["ordering.casts_per_decide"] = (
        stats.ratio(delta("ordering.messages_ordered"),
                    delta("ordering.batches_decided")), "casts")
    values["ordering.fast_ratio"] = (
        stats.ratio(fast, fast + delta("ordering.fast_fallbacks")), "ratio")
    values["ordering.decides_per_protocol_s"] = (
        delta("ordering.decides_member0") / protocol_s, "1/s")

    # membership
    view_changes = delta("membership.view_changes")
    values["membership.view_changes"] = (view_changes, "count")
    values["membership.msgs_per_view_change"] = (
        stats.ratio(counts.get("membership.msgs", 0), view_changes), "msgs")
    values["membership.reruns"] = (counts.get("membership.reruns", 0),
                                   "count")

    # detectors
    values["detectors.suspicions"] = (
        counts.get("detectors.suspicions", 0), "count")
    values["detectors.false_suspicions"] = (
        counts.get("detectors.false_suspicions", 0), "count")

    # wire and transport
    values["wire.encode_calls_per_op"] = (
        counts.get("wire.encode", 0) * per_op, "calls/op")
    values["wire.decode_calls_per_op"] = (
        counts.get("wire.decode", 0) * per_op, "calls/op")
    values["wire.bytes_per_op"] = (delta("transport.bytes_out") * per_op,
                                   "B/op")
    values["transport.frames_per_datagram"] = (
        stats.ratio(delta("transport.frames"),
                    delta("transport.datagrams")), "frames")
    values["transport.encode_cache_hit_ratio"] = (
        stats.ratio(delta("transport.encode_cache_hits"),
                    delta("transport.frames")), "ratio")
    values["transport.drops"] = (delta("transport.drops"), "count")

    # the driver and the trace itself
    workload = window.workload
    values["driver.max_lateness_ms"] = (
        getattr(workload, "max_lateness", 0.0) * 1000.0, "ms")
    values["driver.failed_frac"] = (
        stats.failed_frac(workload.attempted, workload.failed), "frac")
    values["driver.latency_samples"] = (len(workload.latencies), "count")
    for key, value in untraced.items():
        values["untraced." + key] = (value, WALL_UNITS[key])
    traced_us_per_op = window.cpu * 1e6 / ops
    values["trace.overhead_frac"] = (
        traced_us_per_op / untraced["cpu_us_per_op"] - 1.0, "frac")
    values["trace.cpu_us_per_op"] = (traced_us_per_op, "us/op")
    values["trace.spans_per_op"] = (tracer.next_id * per_op, "spans/op")
    attributed_ns = sum(tracer.self_ns.values())
    rusage_ns = window.rusage_cpu * 1e9
    cpu_gap = stats.ratio(abs(attributed_ns - rusage_ns), rusage_ns)
    values["trace.cpu_check_frac"] = (cpu_gap, "frac")

    checks = []
    if attributed_ns != tracer.root_ns:
        checks.append("layer self times sum to %d ns, the window to %d ns"
                      % (attributed_ns, tracer.root_ns))
    if cpu_gap > CPU_CHECK_TOLERANCE:
        checks.append("layer self times plus unattributed (%.1f ms) miss "
                      "the traced CPU (%.1f ms) by %.1f%%"
                      % (attributed_ns / 1e6, rusage_ns / 1e6,
                         cpu_gap * 100))
    for metric, workloads in BYPASS.items():
        if name in workloads and values[metric][0] != 0:
            checks.append("bypass: %s is %r on %s, expected 0"
                          % (metric, values[metric][0], name))
    if name in BYPASS["membership.view_changes"] \
            and delta("membership.view_changes_all"):
        checks.append("bypass: some member changed view on %s" % name)
    return values, checks
