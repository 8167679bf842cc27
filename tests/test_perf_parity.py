"""Perf-optimization parity: the hot-path rewrites must be invisible.

The PR that introduced memoized canonical encoding, digest-based MACs and
the incremental ack vector (docs/PERFORMANCE.md) claims they are pure
wall-clock optimizations: same seed, byte-identical simulated history,
identical metric exports.  These tests prove it by running the fuzzer's
scenario machinery with each optimization switched back to its reference
implementation and comparing full per-node histories and the complete
metrics export.

Switches under test:

* ``Message.auth_cache_enabled`` -- off = re-encode/re-hash per call;
* ``Message.auth_token_mode`` -- ``"content"`` = MAC over the full
  canonical byte string (the pre-optimization MAC input) instead of its
  SHA-256 digest;
* ``ReliableLayer.incremental_ack_vector`` -- off = rebuild + repr-sort
  the delivered vector from scratch on every drain, and feed the full
  vector (not the delta) to the stability tracker;
* ``ReliableLayer.ack_vector_memo`` -- off = every received ack is
  re-validated and re-merged even when it is the identical memoized
  tuple the sender already sent;
* ``Simulator.serial_queues`` -- off = every CPU-completion event sits
  in the global heap instead of the per-node serial-queue k-way merge;
* ``BottomLayer.batch_verify`` -- off = packed datagrams verify each
  inner message through the per-message reference path instead of one
  ``verify_batch`` call per drain.

Total ordering is covered by the golden corpus instead
(``tests/test_golden_ordering.py``): seed-pinned fingerprints of
total-order runs with the ``ordering_fast_path`` knob off and on.
"""

from contextlib import contextmanager

from repro import StackConfig
from repro.core.message import Message
from repro.layers.bottom import BottomLayer
from repro.layers.reliable import ReliableLayer
from repro.sim.scheduler import Simulator
from repro.tools.fuzzer import ScenarioFuzzer


@contextmanager
def switches(cache=True, token_mode="digest", incremental=True,
             ack_memo=True, serial=True, batch=True):
    saved = (Message.auth_cache_enabled, Message.auth_token_mode,
             ReliableLayer.incremental_ack_vector,
             ReliableLayer.ack_vector_memo,
             Simulator.serial_queues, BottomLayer.batch_verify)
    Message.auth_cache_enabled = cache
    Message.auth_token_mode = token_mode
    ReliableLayer.incremental_ack_vector = incremental
    ReliableLayer.ack_vector_memo = ack_memo
    Simulator.serial_queues = serial
    BottomLayer.batch_verify = batch
    try:
        yield
    finally:
        (Message.auth_cache_enabled, Message.auth_token_mode,
         ReliableLayer.incremental_ack_vector,
         ReliableLayer.ack_vector_memo,
         Simulator.serial_queues, BottomLayer.batch_verify) = saved


def run_scenario(seed, config, **fuzz_kw):
    """One fuzzer scenario; returns (history fingerprint, metrics export)."""
    fuzz_kw.setdefault("ops", 8)
    fuzzer = ScenarioFuzzer(seed, config=config, obs=True,
                            **fuzz_kw).execute()
    group = fuzzer.group
    fingerprint = []
    for node in sorted(group.processes, key=repr):
        history = group.processes[node].history
        fingerprint.append((node, tuple(map(repr, history.events))))
    export = tuple(map(repr, group.metrics.rows()))
    events = group.sim.events_processed
    group.stop()
    return tuple(fingerprint), export, events


VARIANTS = {
    "no-cache": dict(cache=False),
    "content-macs": dict(token_mode="content"),
    "full-ack-vector": dict(incremental=False),
    "no-ack-memo": dict(ack_memo=False),
    "heap-schedule": dict(serial=False),
    "per-frame-verify": dict(batch=False),
    "all-reference": dict(cache=False, token_mode="content",
                          incremental=False, ack_memo=False,
                          serial=False, batch=False),
}


def assert_parity(seed, config, **fuzz_kw):
    with switches():
        optimized = run_scenario(seed, config, **fuzz_kw)
    for name, kw in VARIANTS.items():
        with switches(**kw):
            reference = run_scenario(seed, config, **fuzz_kw)
        assert reference[0] == optimized[0], \
            "histories diverge under %s (seed %d)" % (name, seed)
        assert reference[1] == optimized[1], \
            "metric exports diverge under %s (seed %d)" % (name, seed)
        assert reference[2] == optimized[2], \
            "event counts diverge under %s (seed %d)" % (name, seed)


def test_parity_sym_crypto():
    # the fig5 sym-crypto shape: the workload the digest-MAC optimization
    # targets; TwoFacedCaster (drawn by some seeds) exercises the
    # re-sign-after-mutation path against the memoized digest
    assert_parity(101, StackConfig.byz(crypto="sym"))


def test_parity_pub_crypto():
    assert_parity(202, StackConfig.byz(crypto="pub"))


def test_parity_packing():
    # packing + sym crypto: the batched pack-flush path plus per-receiver
    # MAC vectors
    assert_parity(303, StackConfig.byz(crypto="sym", packing=True))


def test_parity_gossip_acks():
    # gossip acks route the *full* delivered vector through the stability
    # matrix -- the path where incremental bookkeeping must agree with the
    # reference rebuild exactly.  Traffic-only script: gossip fault
    # schedules converge slowly regardless of these optimizations.
    assert_parity(404, StackConfig.byz(crypto="sym", ack_mode="gossip"),
                  n=6, ops=5, allow=("cast_burst", "run"))


def test_parity_wire_knobs():
    """The wire-path coalescing knobs live strictly below the ``network``
    seam: the simulator never reads them, so any combination must leave
    the simulated history byte-identical per seed."""
    base = run_scenario(505, StackConfig.byz(crypto="sym"))
    for overrides in (dict(wire_coalesce=False),
                      dict(wire_mtu=1000, wire_coalesce_delay=0.1),
                      dict(wire_coalesce=False, wire_mtu=64000)):
        variant = run_scenario(
            505, StackConfig.byz(crypto="sym").clone(**overrides))
        assert variant == base, \
            "sim history depends on wire knobs %r" % (overrides,)


def test_switches_restore():
    with switches(cache=False, token_mode="content", incremental=False,
                  ack_memo=False, serial=False, batch=False):
        assert Message.auth_cache_enabled is False
        assert Message.auth_token_mode == "content"
        assert ReliableLayer.incremental_ack_vector is False
        assert ReliableLayer.ack_vector_memo is False
        assert Simulator.serial_queues is False
        assert BottomLayer.batch_verify is False
    assert Message.auth_cache_enabled is True
    assert Message.auth_token_mode == "digest"
    assert ReliableLayer.incremental_ack_vector is True
    assert ReliableLayer.ack_vector_memo is True
    assert Simulator.serial_queues is True
    assert BottomLayer.batch_verify is True
