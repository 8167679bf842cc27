"""The benchmark's own tests: span arithmetic, the percentile rule,
failed-op accounting, the output checkers and the span wrappers.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from gcsbench import stats  # noqa: E402
from gcsbench.checks import (check_fifo_exactly_once,  # noqa: E402
                             check_total_order, undelivered)
from gcsbench.instrument import layer_of_module  # noqa: E402
from gcsbench.tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def tick(ns):
        clock.now += ns

    def crypto():
        tick(5)

    def bottom():
        tick(10)
        tracer.call("crypto", "sign", crypto, ())
        tick(3)

    def reliable():
        tick(7)
        tracer.call("bottom", "handle_down", bottom, ())
        tick(2)
        tracer.call("bottom", "handle_down", bottom, ())

    tracer.start()
    tick(100)                                 # nothing wrapped covers it
    tracer.call("reliable", "handle_down", reliable, ())
    tick(1)
    tracer.stop()

    self_ns = tracer.layer_self_ns()
    assert self_ns["crypto"] == 10            # two sign calls of 5
    assert self_ns["bottom"] == 26            # 2 x (10 + 3)
    assert self_ns["reliable"] == 9
    assert self_ns[ROOT_SPAN] == 101
    assert tracer.root_ns == 146
    assert sum(self_ns.values()) == tracer.root_ns
    assert tracer.calls == {"reliable": 1, "bottom": 2, "crypto": 2}
    # parents link every span to the one that caused it
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, layer, _name, start, end, _msg in tracer.spans:
        assert start <= end
        if parent:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    layers = {span[0]: span[2] for span in tracer.spans}
    assert {layers[span[1]] for span in tracer.spans
            if span[2] == "crypto"} == {"bottom"}


def test_reentry_into_the_same_layer_is_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 4

    def outer():
        clock.now += 6
        tracer.call("top", "handle_down", inner, ())

    tracer.start()
    tracer.call("top", "handle_down", outer, ())
    tracer.stop()
    assert tracer.calls == {"top": 1}
    assert tracer.layer_self_ns() == {"top": 10, ROOT_SPAN: 0}


def test_calls_pass_through_when_recording_is_off():
    tracer = Tracer(clock=FakeClock())
    assert tracer.call("top", "f", lambda x: x + 1, (1,)) == 2
    assert tracer.calls == {} and tracer.spans == []


def test_exceptions_still_close_their_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 3
        raise KeyError("x")

    tracer.start()
    with pytest.raises(KeyError):
        tracer.call("bottom", "f", boom, ())
    tracer.stop()
    assert tracer.layer_self_ns()["bottom"] == 3
    assert tracer.stack == []


def test_passive_spans_only_pass_their_message_on():
    tracer = Tracer(clock=FakeClock())
    msg, other = object(), object()

    def neighbour(m):
        tracer.call("top", "handle_up", lambda: None, (), msg=m)

    def forward():
        neighbour(msg)

    def emit():
        neighbour(other)

    def forward_and_arm_a_timer():
        tracer.note_child()
        neighbour(msg)

    tracer.start()
    tracer.call("ordering", "handle_up", forward, (), msg=msg)   # passive
    tracer.call("ordering", "on_view", lambda: None, ())         # passive
    tracer.call("ordering", "handle_up", lambda: None, (), msg=msg)  # held
    tracer.call("ordering", "handle_up", emit, (), msg=msg)
    tracer.call("ordering", "handle_up", forward_and_arm_a_timer, (),
                msg=msg)
    tracer.call("ordering", "tick", tracer.note_child, ())
    tracer.stop()
    assert tracer.calls["ordering"] == 6
    assert tracer.passive["ordering"] == 2


def test_module_to_layer_map():
    assert layer_of_module("repro.layers.reliable") == "reliable"
    assert layer_of_module("repro.layers.flow") == "top"
    assert layer_of_module("repro.layers.heartbeat") == "detectors"
    assert layer_of_module("repro.sim.network") == "sim"
    assert layer_of_module("repro.runtime.wire") == "wire"
    # consensus runs for whichever layer called it
    assert layer_of_module("repro.consensus.vector") is None
    assert layer_of_module(None) is None


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 0.90) == 10
    assert stats.supports(100, 0.90)
    assert not stats.supports(99, 0.90)
    assert stats.supports(20, 0.50)
    assert not stats.supports(19, 0.50)
    assert stats.percentile(list(range(1, 101)), 0.90) == 90
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 0.90)
    with pytest.raises(ValueError):
        stats.percentile([], 0.50)


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5, 1, 4, 2, 3] * 10
    assert stats.percentile(samples, 0.50) == 3
    assert stats.percentile(sorted(samples), 0.50) == 3


# ----------------------------------------------------------------------
# failed-op accounting
# ----------------------------------------------------------------------
def test_failed_frac():
    assert stats.failed_frac(200, 0) == 0.0
    assert stats.failed_frac(200, 5) == 0.025
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(10, 11)


def test_undelivered_counts_casts_missing_anywhere():
    delivered_at = {"a": {0, 1, 2}, "b": {0, 2}}
    assert undelivered(delivered_at, {"a", "b", "c"}, (0, 1, 2)) \
        in (["b", "c"], ["c", "b"])
    assert undelivered(delivered_at, {"a"}, (0, 1, 2)) == []


# ----------------------------------------------------------------------
# output checkers reject an injected duplicate, reorder or hole
# ----------------------------------------------------------------------
def _fifo_run():
    return {m: [(o, k) for k in (1, 2, 3) for o in (0, 1)] for m in (0, 1)}


def test_fifo_checker_accepts_a_clean_run():
    assert check_fifo_exactly_once(_fifo_run(), {0: 3, 1: 3}) == []
    # delivering beyond what is required is fine when gap-free
    assert check_fifo_exactly_once(_fifo_run(), {0: 2, 1: 1}) == []


@pytest.mark.parametrize("defect", ["duplicate", "reorder", "hole"])
def test_fifo_checker_rejects(defect):
    run = _fifo_run()
    seq = run[1]
    if defect == "duplicate":
        seq.insert(2, (0, 1))
    elif defect == "reorder":
        i, j = seq.index((0, 1)), seq.index((0, 2))
        seq[i], seq[j] = seq[j], seq[i]
    else:
        seq.remove((1, 2))
    violations = check_fifo_exactly_once(run, {0: 3, 1: 3})
    assert violations and all("member 1" in v for v in violations)


def test_fifo_checker_rejects_a_missing_required_cast():
    run = _fifo_run()
    run[0] = run[0][:-1]          # member 0 lacks origin 1's third cast
    assert check_fifo_exactly_once(run, {0: 3, 1: 3})


def _order_run():
    ids = [(0, 1), (1, 1), (0, 2), (1, 2)]
    return {m: list(ids) for m in range(3)}, set(ids)


def test_total_order_checker_accepts_a_clean_run():
    sequences, cast_ids = _order_run()
    assert check_total_order(sequences, cast_ids) == []


@pytest.mark.parametrize("defect", ["duplicate", "reorder", "hole"])
def test_total_order_checker_rejects(defect):
    sequences, cast_ids = _order_run()
    seq = sequences[2]
    if defect == "duplicate":
        seq.append((0, 1))
    elif defect == "reorder":
        seq[1], seq[2] = seq[2], seq[1]
    else:
        del seq[1]
    assert check_total_order(sequences, cast_ids)


# ----------------------------------------------------------------------
# the wrappers, end to end on a small cluster
# ----------------------------------------------------------------------
@pytest.mark.parametrize("total_order", [False, True])
def test_instrumentation_attributes_a_sim_run_and_uninstalls_cleanly(
        total_order):
    from repro import Group, StackConfig
    from repro.layers.bottom import BottomLayer
    from repro.layers.ordering import OrderingLayer
    from repro.runtime import transport, wire
    from repro.sim.scheduler import Simulator

    from gcsbench.instrument import Instrumentation

    originals = (BottomLayer.handle_down, OrderingLayer.handle_up,
                 Simulator.schedule_at, wire.encode_frame,
                 transport.encode_frame)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        group = Group.bootstrap(
            4, config=StackConfig.byz(crypto="sym", total_order=total_order),
            seed=3)
        group.run(0.01)
        tracer.start()
        for endpoint in group.endpoints.values():
            endpoint.cast("x", size=16)
        group.run(0.05)
        tracer.stop()
        group.stop()
    finally:
        instrumentation.uninstall()
    assert (BottomLayer.handle_down, OrderingLayer.handle_up,
            Simulator.schedule_at, wire.encode_frame,
            transport.encode_frame) == originals
    self_ns = tracer.layer_self_ns()
    assert sum(self_ns.values()) == tracer.root_ns
    for layer in ("sim", "crypto", "bottom", "reliable", "top", "driver"):
        assert tracer.calls.get(layer), layer
    # the ordering layer is in every stack; with total order off it only
    # passed messages on, with it on it did work of its own
    forwards = tracer.passive.get("ordering", 0)
    if total_order:
        assert tracer.calls["ordering"] > forwards
    else:
        assert tracer.calls["ordering"] == forwards > 0
    assert "wire" not in tracer.calls
    assert tracer.counts["crypto.macs"] > 0
    assert sum(instrumentation.charged.values()) > 0
