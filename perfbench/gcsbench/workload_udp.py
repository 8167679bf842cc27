"""``udp_fifo``: real datagrams over the loopback interface.

Four nodes share this one process and one asyncio loop, one UDP socket
each, the way :mod:`repro.shard.netplane` hosts them: every node is a
full :class:`~repro.runtime.backend_asyncio.AsyncioRuntime` running the
unmodified stack, and every cast crosses the kernel's loopback device
through the wire codec and the coalescing transport.  One process, not
one per node, keeps the load on a two-core host from being scheduler
noise.

The load is open loop: casts fall due at a fixed rate, round-robin over
the members, and each is timed from when it was due, so a stall counts
against every cast that waited behind it.  Latencies are wall seconds.
"""

from __future__ import annotations

import asyncio
import random

from repro import StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.runtime.backend_asyncio import AsyncioRuntime, net_profile
from repro.runtime.driver import free_udp_ports

from gcsbench import RunFailed
from gcsbench.checks import check_fifo_exactly_once, undelivered
from gcsbench.counters import stack_counters

#: wall seconds the set-up may wait for the first cast to reach everyone
SETUP_TIMEOUT = 5.0
#: wall seconds the drain may take before undelivered casts count failed
DRAIN_TIMEOUT = 3.0
#: drain poll period, wall seconds
POLL_S = 0.01
#: how long before a cast falls due the generator wakes and starts polling
#: the loop for it: a timer alone fires up to a few ms late here (epoll
#: rounds its timeout up to whole ms, and an idle virtual CPU is slow to
#: wake), which would be counted as latency of the program
WAKE_EARLY_S = 0.003


class UdpFifo:
    name = "udp_fifo"
    n = 4
    rate = 100.0           # casts per wall second, all members together
    msg_size = 16
    step_s = 0.05

    def __init__(self):
        self.loop = None
        self.runtimes = {}
        self.processes = {}
        self.endpoints = {}
        self.measuring = False
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.max_lateness = 0.0

    def _run_for(self, seconds):
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def setup(self, seed):
        loop = self.loop = asyncio.new_event_loop()
        self.due = {}               # msg_id -> loop time it fell due
        self.window_ids = set()
        self.delivered = {node: [] for node in range(self.n)}
        self.delivered_at = {}
        self.casts = {node: 0 for node in range(self.n)}
        self.stopped = False
        config = net_profile(StackConfig.byz(crypto="sym"))
        ports = free_udp_ports(self.n)
        addresses = {node: ("127.0.0.1", ports[node])
                     for node in range(self.n)}
        for node in range(self.n):
            runtime = AsyncioRuntime(node, addresses, seed=seed + node,
                                     loop=loop)
            loop.run_until_complete(runtime.open())
            view = runtime.initial_view(range(self.n), established=True)
            process = runtime.spawn_process(config, initial_view=view)
            endpoint = GroupEndpoint(process)
            endpoint.record_events = False
            endpoint.on_cast = self._on_cast_at(node)
            self.runtimes[node] = runtime
            self.processes[node] = process
            self.endpoints[node] = endpoint
        for process in self.processes.values():
            process.start()
        # the load starts now, the seed picking which member casts first;
        # the set-up ends when that first cast has reached every member
        self.first_delivered = loop.create_future()
        self._next = random.Random(seed).randrange(self.n)
        self._k = 0
        self._t0 = loop.time()
        self._fire()
        try:
            loop.run_until_complete(
                asyncio.wait_for(self.first_delivered, SETUP_TIMEOUT))
        except asyncio.TimeoutError:
            raise RunFailed("udp_fifo: the first cast did not reach every "
                            "member within %.0f s" % SETUP_TIMEOUT)

    def _fire(self):
        if self.stopped:
            return
        loop = self.loop
        due = self._t0 + self._k / self.rate
        if loop.time() < due:
            # not yet: let the loop run its ready I/O, then look again
            loop.call_soon(self._fire)
            return
        self.max_lateness = max(self.max_lateness, loop.time() - due)
        node = (self._next + self._k) % self.n
        msg_id = self.endpoints[node].cast(("udp", self._k),
                                           size=self.msg_size)
        self.casts[node] += 1
        self.due[msg_id] = due
        if self.measuring:
            self.window_ids.add(msg_id)
        self._k += 1
        loop.call_at(self._t0 + self._k / self.rate - WAKE_EARLY_S,
                     self._fire)

    def _on_cast_at(self, node):
        delivered = self.delivered[node]

        def on_cast(event):
            msg_id = event.msg_id
            delivered.append((event.origin, msg_id[1]))
            reached = self.delivered_at.setdefault(msg_id, set())
            reached.add(node)
            if len(reached) == self.n and not self.first_delivered.done():
                self.first_delivered.set_result(None)
            if msg_id in self.window_ids:
                self.latencies.append(self.loop.time() - self.due[msg_id])
        return on_cast

    # ------------------------------------------------------------------
    def open_window(self):
        self.measuring = True
        self.max_lateness = 0.0
        self.window_start = self.loop.time()

    def close_window(self):
        self.measuring = False
        self.window_stop = self.loop.time()

    @property
    def protocol_s(self):
        """Length of the window on the protocol's clock (wall)."""
        return self.window_stop - self.window_start

    def step(self):
        self._run_for(self.step_s)

    def faulty(self):
        return ()

    def drain(self):
        self.stopped = True
        members = list(range(self.n))
        cast_ids = set(self.due)
        deadline = self.loop.time() + DRAIN_TIMEOUT
        while (undelivered(self.delivered_at, cast_ids, members)
               and self.loop.time() < deadline):
            self._run_for(POLL_S)
        missing = undelivered(self.delivered_at, self.window_ids, members)
        self.attempted = len(self.window_ids)
        self.failed = len(missing)
        self.ops = self.attempted - self.failed

    def check(self):
        violations = check_fifo_exactly_once(self.delivered, self.casts)
        for node, process in sorted(self.processes.items()):
            if process.membership.view_changes or process.view.n != self.n:
                violations.append("udp_fifo: member %d changed view (now "
                                  "%r)" % (node, process.view.mbrs))
        return violations

    def teardown(self):
        if self.loop is None:
            return
        self.stopped = True
        for process in self.processes.values():
            process.stop()
        for runtime in self.runtimes.values():
            runtime.close()
        self._run_for(0)
        self.loop.close()
        self.loop = None

    # ------------------------------------------------------------------
    def counters(self):
        totals = stack_counters(self.processes.values(), self.processes[0])

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        for runtime in self.runtimes.values():
            add("sim.events", runtime.clock.events_processed)
            wire = runtime.transport.counters()
            add("transport.datagrams", wire["datagrams_sent"])
            add("transport.frames", wire["frames_sent"])
            add("transport.bytes_out", wire["bytes_out"])
            add("transport.encode_cache_hits", wire["encode_cache_hits"])
            add("transport.drops", wire["datagrams_dropped"]
                + wire["frames_dropped"] + wire["gossip_drops"]
                + wire["oversize_drops"] + wire["undecodable"])
        return totals
