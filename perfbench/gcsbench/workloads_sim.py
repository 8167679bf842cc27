"""The three workloads on the deterministic simulator.

Each workload builds its cluster from the seed alone, warms it up, and
then advances in small steps while the runner's wall-clock window is
open.  Latencies are in simulated seconds (they repeat exactly for a
given seed and amount of simulated work); the runner converts them to
milliseconds.
"""

from __future__ import annotations

import random

from repro import Group, StackConfig
from repro.apps.ring import RingDemo
from repro.chaos.engine import ChaosEngine

from gcsbench.checks import (check_fifo_exactly_once, check_total_order,
                             undelivered)
from gcsbench.counters import stack_counters

#: how long the drain may run, in simulated seconds, before undelivered
#: casts count as failed ops
DRAIN_TIMEOUT = 3.0
#: simulated seconds between two evaluations of a wait condition
POLL_S = 0.001


def run_until(group, predicate, timeout):
    """Run ``group`` until ``predicate()`` holds or ``timeout`` simulated
    seconds pass; the condition is polled every :data:`POLL_S`, not after
    every event, so the benchmark's own checking stays off the profile."""
    deadline = group.sim.now + timeout
    while not predicate():
        if group.sim.now >= deadline:
            return False
        group.run(POLL_S)
    return True


class SimWorkload:
    """Shared window, counter and teardown logic of the sim workloads."""

    name = None
    #: simulated seconds advanced per step
    step_s = 0.002

    def __init__(self):
        self.group = None
        self.all_processes = []
        self.measuring = False
        self.window_start = None
        self.window_stop = None
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.latencies = []

    # ------------------------------------------------------------------
    def _track(self):
        for process in self.group.processes.values():
            if process not in self.all_processes:
                self.all_processes.append(process)

    def open_window(self):
        self.measuring = True
        self.window_start = self.group.sim.now

    def close_window(self):
        self.measuring = False
        self.window_stop = self.group.sim.now

    @property
    def protocol_s(self):
        """Length of the window on the protocol's clock (simulated)."""
        return self.window_stop - self.window_start

    def step(self):
        self.group.run(self.step_s)

    def teardown(self):
        if self.group is not None:
            self.group.stop()
        self.group = None
        self.all_processes = []

    def faulty(self):
        return ()

    # ------------------------------------------------------------------
    def counters(self):
        """Cumulative counters read from the program's public fields."""
        self._track()
        totals = stack_counters(self.all_processes,
                                self.group.processes[0])
        sim = self.group.sim
        network = self.group.network
        totals["sim.events"] = sim.events_processed
        totals["sim.datagrams"] = network.datagrams_sent
        nics = {id(nic): nic for nic in
                (network.nic_of(node) for node in self.group.processes)}
        nics = list(nics.values())
        totals["sim.nic_busy_s"] = sum(nic.bytes_sent * 8.0
                                       / nic.bandwidth_bps for nic in nics)
        totals["sim.nics"] = len(nics)
        return totals


# ----------------------------------------------------------------------
class RingSym(SimWorkload):
    """The paper's Ring demo in a closed loop (Fig. 5 saturation).

    The load is the program's own :class:`~repro.apps.ring.RingDemo`;
    the benchmark only wraps each delivery callback the demo installed,
    to record per-origin delivery order and the cast-to-deliver latency
    and to count broadcasts delivered to every member.
    """

    name = "ring_sym"
    n = 16
    burst = 16
    msg_size = 16
    warm_s = 0.05

    def setup(self, seed):
        self.group = Group.bootstrap(
            self.n, config=StackConfig.byz(crypto="sym"), seed=seed)
        self._track()
        self.ring = RingDemo(self.group, burst=self.burst,
                             msg_size=self.msg_size)
        self.got = {}               # msg_id -> deliveries so far
        self.delivered = {node: [] for node in self.group.endpoints}
        for node, endpoint in self.group.endpoints.items():
            endpoint.on_cast = self._recording(node, endpoint.on_cast)
        self.ring.start()
        self.group.run(self.warm_s)

    def _recording(self, node, ring_on_cast):
        n = self.n
        got = self.got
        delivered = self.delivered[node]
        cast_times = self.ring._cast_times

        def on_cast(event):
            msg_id = event.msg_id
            delivered.append((event.origin, msg_id[1]))
            count = got[msg_id] = got.get(msg_id, 0) + 1
            if count == n and self.measuring:
                self.ops += 1
            if self.measuring:
                self.latencies.append(event.time - cast_times[msg_id])
            ring_on_cast(event)
        return on_cast

    def _window_casts(self):
        start, stop = self.window_start, self.window_stop
        return [msg_id for msg_id, at in self.ring._cast_times.items()
                if start <= at < stop]

    def drain(self):
        # the ring keeps running; the drain waits for the window's casts
        got, n = self.got, self.n
        window = self._window_casts()
        missing = [msg_id for msg_id in window if got.get(msg_id, 0) < n]

        def delivered_everywhere():
            missing[:] = [msg_id for msg_id in missing
                          if got.get(msg_id, 0) < n]
            return not missing
        run_until(self.group, delivered_everywhere, DRAIN_TIMEOUT)
        self.attempted = len(window)
        self.failed = len(missing)

    def check(self):
        completed = self.ring.min_rounds_completed()
        required = {node: completed * self.burst
                    for node in self.group.endpoints}
        return check_fifo_exactly_once(self.delivered, required)


# ----------------------------------------------------------------------
class OrderOpen(SimWorkload):
    """Open-loop total-order load: four casters, 16 B each 3.3 ms."""

    name = "order_open"
    n = 8
    casters = 4
    interval = 0.0033
    msg_size = 16
    warm_s = 0.05

    def setup(self, seed):
        self.group = Group.bootstrap(
            self.n, config=StackConfig.byz(crypto="sym", total_order=True),
            seed=seed)
        self._track()
        self.stopped = False
        self.cast_at = {}
        self.window_ids = set()
        self.sequences = {node: [] for node in self.group.endpoints}
        self.delivered_at = {}      # msg_id -> set of members
        for node, endpoint in self.group.endpoints.items():
            endpoint.record_events = False
            endpoint.on_cast = self._on_cast_at(node)
        # casters 1.1 ms apart, off the 2 ms ordering tick; the seed
        # shifts them all together, keeping how arrivals batch the same
        shift = random.Random(seed).uniform(0.0, 0.001)
        sim = self.group.sim
        for caster in range(self.casters):
            sim.schedule(shift + 0.0011 * (caster + 1), self._cast, caster)
        self.group.run(self.warm_s)

    def _cast(self, caster):
        if self.stopped:
            return
        sim = self.group.sim
        msg_id = self.group.endpoints[caster].cast(("load", caster),
                                                   size=self.msg_size)
        self.cast_at[msg_id] = sim.now
        if self.measuring:
            self.window_ids.add(msg_id)
        sim.schedule(self.interval, self._cast, caster)

    def _on_cast_at(self, node):
        sequence = self.sequences[node]

        def on_cast(event):
            msg_id = event.msg_id
            sequence.append(msg_id)
            self.delivered_at.setdefault(msg_id, set()).add(node)
            if msg_id in self.window_ids:
                self.latencies.append(event.time - self.cast_at[msg_id])
        return on_cast

    def drain(self):
        self.stopped = True
        members = list(self.group.endpoints)
        cast_ids = set(self.cast_at)
        run_until(self.group,
                  lambda: not undelivered(self.delivered_at, cast_ids,
                                          members),
                  DRAIN_TIMEOUT)
        missing = undelivered(self.delivered_at, self.window_ids, members)
        self.attempted = len(self.window_ids)
        self.failed = len(missing)
        self.ops = self.attempted - self.failed

    def check(self):
        return check_total_order(self.sequences, set(self.cast_at))


# ----------------------------------------------------------------------
class Churn(SimWorkload):
    """Continuous membership churn: leave/rejoin, crash/restart and a
    Byzantine episode, in rotation, under a light anchor cast load."""

    name = "churn"
    n = 16
    anchors = (0, 1)
    kinds = ("leave", "crash", "byzantine")
    cast_interval = 0.0033
    msg_size = 16
    warm_s = 0.1
    #: simulated seconds a cycle phase may take before the cycle fails
    phase_timeout = 5.0

    def setup(self, seed):
        self.group = Group.bootstrap(self.n,
                                     config=StackConfig.byz(crypto="sym"),
                                     seed=seed)
        self._track()
        self.engine = ChaosEngine.attached(self.group)
        self.rng = random.Random(seed)
        pool = [node for node in range(self.n) if node not in self.anchors]
        self.rng.shuffle(pool)
        self.victims = pool
        self.cycle = 0
        self.victim = None
        self.window_cycles = 0
        self.failed_cycles = 0
        self.stopped = False
        self.cast_at = {}
        self.window_ids = set()
        self.delivered_at = {}
        self.anchor_sequences = {anchor: [] for anchor in self.anchors}
        self.installs = 0
        for node, endpoint in self.group.endpoints.items():
            self._hook(node, endpoint)
        sim = self.group.sim
        for anchor in self.anchors:
            sim.schedule(self.rng.uniform(0.001, self.cast_interval),
                         self._cast, anchor)
        self.group.run(self.warm_s)

    def faulty(self):
        return () if self.victim is None else (self.victim,)

    def _hook(self, node, endpoint):
        endpoint.record_events = False
        endpoint.on_view = self._on_view_at(node)
        if node in self.anchors:
            endpoint.on_cast = self._on_cast_at(node)

    def _cast(self, anchor):
        if self.stopped:
            return
        sim = self.group.sim
        msg_id = self.group.endpoints[anchor].cast(("anchor", anchor),
                                                   size=self.msg_size)
        self.cast_at[msg_id] = sim.now
        if self.measuring:
            self.window_ids.add(msg_id)
        sim.schedule(self.cast_interval, self._cast, anchor)

    def _on_cast_at(self, node):
        sequence = self.anchor_sequences[node]

        def on_cast(event):
            sequence.append((event.origin, event.msg_id[1]))
            self.delivered_at.setdefault(event.msg_id, set()).add(node)
        return on_cast

    def _on_view_at(self, node):
        def on_view(event):
            if node == self.victim:
                return
            process = self.group.processes[node]
            if node == self.anchors[0] and self.measuring:
                self.installs += 1
            duration = process.membership.last_change_duration
            if duration is None:
                return
            # consumed: the next install sets it afresh
            process.membership.last_change_duration = None
            if self.measuring:
                self.latencies.append(duration)
        return on_view

    # ------------------------------------------------------------------
    def _excluded(self, victim):
        return all(victim not in p.view.mbrs
                   for node, p in self.group.processes.items()
                   if node != victim and not p.stopped)

    def _rejoined(self):
        live = [p for p in self.group.processes.values() if not p.stopped]
        views = {(p.view.vid, p.view.mbrs) for p in live}
        return len(views) == 1 and len(live) == self.n \
            and live[0].view.n == self.n

    def _restart(self, victim):
        if victim not in self.engine.crashed:
            # a departed member reboots like a crashed one
            self.group.crash(victim)
            self.engine.crashed.add(victim)
        self.engine.apply(["restart", victim])
        self._track()
        self._hook(victim, self.group.endpoints[victim])

    def step(self):
        """One churn cycle: take a member out, bring it back, settle."""
        group = self.group
        kind = self.kinds[self.cycle % len(self.kinds)]
        victim = self.victims[self.cycle % len(self.victims)]
        self.cycle += 1
        self.victim = victim
        if self.measuring:
            self.window_cycles += 1
        if kind == "leave":
            # the engine's leave op ignores a member that left before
            group.endpoints[victim].leave()
            self.engine.left.add(victim)
        elif kind == "crash":
            self.engine.apply(["crash", victim])
        else:
            self.engine.apply(["byzantine_at", victim, "VerboseNode",
                               {"start_at": 0.0, "interval": 0.002}])
        ok = run_until(group, lambda: self._excluded(victim),
                       self.phase_timeout)
        self._restart(victim)
        ok = run_until(group, self._rejoined, self.phase_timeout) and ok
        self.victim = None
        if not ok and self.measuring:
            self.failed_cycles += 1
        group.run(self.rng.uniform(0.01, 0.03))

    def drain(self):
        self.stopped = True
        cast_ids = set(self.cast_at)
        run_until(self.group,
                  lambda: not undelivered(self.delivered_at, cast_ids,
                                          self.anchors),
                  DRAIN_TIMEOUT)
        missing = undelivered(self.delivered_at, self.window_ids,
                              self.anchors)
        self.ops = self.installs
        self.attempted = self.window_cycles + len(self.window_ids)
        self.failed = self.failed_cycles + len(missing)

    def check(self):
        violations = list(self.engine.check())
        if not self._rejoined():
            violations.append("churn: the group did not end in one agreed "
                              "view of all %d members" % self.n)
        # the anchors never leave: their casts obey per-origin FIFO
        violations += check_fifo_exactly_once(
            self.anchor_sequences, {anchor: 0 for anchor in self.anchors})
        return violations


SIM_WORKLOADS = {cls.name: cls for cls in (RingSym, OrderOpen, Churn)}
