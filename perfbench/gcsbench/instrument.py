"""Wrap the program's public entry points so each call becomes a span.

Everything here patches classes and module attributes from outside; the
program under test is unchanged and carries no tracing code.  Call
:meth:`Instrumentation.install` *before* the cluster is built (the layer
stack binds its neighbours' handlers at construction) and
:meth:`Instrumentation.uninstall` after the run.

What becomes a span, and of which layer:

* layer ``handle_up``/``handle_down``/``on_view``/``on_control`` of every
  layer class, plus ``BottomLayer.on_datagram``, ``HeartbeatLayer.
  on_gossip``, ``TopLayer.submit_cast`` and the ordering and uniform-
  delivery layers' ``flush``/``freeze_for_flush``;
* every timer callback, by wrapping the callback when it is scheduled
  (``Simulator.schedule_at``/``schedule_serial`` and ``AsyncioClock.
  schedule_at``): its layer is the module that defined the callback, or,
  for modules without a layer of their own (``repro.consensus``), the
  layer that scheduled it -- so the vector consensus run by membership is
  charged to membership and the one run by ordering to ordering;
* the public methods of the stability tracker and the fuzzy detectors;
* ``Authenticator.sign``/``verify``/``verify_batch`` (crypto);
* ``Network.send``/``gossip_cast`` and ``Cpu.charge`` (sim);
* ``AsyncioTransport.send``/``gossip_cast``/``flush_pending`` and the
  socket's ``datagram_received`` (transport);
* the wire codec's ``encode_*``/``decode_*`` functions, both in
  :mod:`repro.runtime.wire` and where :mod:`repro.runtime.transport`
  imported them (wire);
* the application callbacks ``GroupEndpoint.dispatch_*`` and the
  real-network load generator (driver).

The ordering and uniform-delivery layers sit in every stack and, when
their feature is off, pass messages on untouched.  Their calls are spans
whether the feature is on or not, so their CPU is always theirs; the
tracer tells the passive ones (a message passed on, nothing else
visible: no other message, no timer) from those that did work.
"""

from __future__ import annotations

import functools

from repro.core import message as mk
from repro.core.endpoint import GroupEndpoint
from repro.crypto import auth as auth_module
from repro.detectors.fuzzy import FuzzyLevels
from repro.detectors.mute import FuzzyMuteDetector
from repro.detectors.verbose import FuzzyVerboseDetector
from repro.layers.bottom import BottomLayer
from repro.layers.flow import FlowLayer
from repro.layers.fragment import FragmentLayer
from repro.layers.heartbeat import HeartbeatLayer
from repro.layers.membership import MembershipLayer
from repro.layers.ordering import OrderingLayer
from repro.layers.reliable import ReliableLayer
from repro.layers.stability import StabilityTracker
from repro.layers.state_transfer import KIND_STATE, StateTransferLayer
from repro.layers.suspicion import SuspicionLayer
from repro.layers.top import TopLayer
from repro.layers.uniform_delivery import UniformDeliveryLayer
from repro.runtime import transport as transport_module
from repro.runtime import wire as wire_module
from repro.runtime.clock import AsyncioClock
from repro.sim.network import Cpu, Network
from repro.sim.scheduler import Simulator

from gcsbench.tracer import ROOT
from gcsbench.workload_udp import UdpFifo

#: the layers of the per-layer split, in report order
LAYERS = ("sim", "crypto", "bottom", "reliable", "stability", "top",
          "ordering", "membership", "detectors", "wire", "transport",
          "driver")

#: module prefix -> layer, first match wins; a module that matches none
#: (repro.consensus, repro.core.process, ...) takes the caller's layer
MODULE_LAYERS = (
    ("repro.sim.", "sim"),
    ("repro.runtime.clock", "transport"),
    ("repro.runtime.transport", "transport"),
    ("repro.runtime.wire", "wire"),
    ("repro.crypto.", "crypto"),
    ("repro.layers.bottom", "bottom"),
    ("repro.layers.reliable", "reliable"),
    ("repro.layers.stability", "stability"),
    ("repro.layers.top", "top"),
    ("repro.layers.flow", "top"),
    ("repro.layers.fragment", "top"),
    ("repro.layers.ordering", "ordering"),
    ("repro.layers.uniform_delivery", "ordering"),
    ("repro.layers.membership", "membership"),
    ("repro.layers.state_transfer", "membership"),
    ("repro.broadcast.", "membership"),
    ("repro.detectors.", "detectors"),
    ("repro.layers.suspicion", "detectors"),
    ("repro.layers.heartbeat", "detectors"),
    ("repro.core.endpoint", "driver"),
    ("repro.byzantine.", "driver"),
    ("gcsbench.", "driver"),
)

#: message kinds that belong to view changes (membership traffic)
MEMBERSHIP_KINDS = frozenset({
    mk.KIND_CONSENSUS, mk.KIND_UB, mk.KIND_SYNC, mk.KIND_NEWVIEW,
    mk.KIND_LEAVE, mk.KIND_MERGE, mk.KIND_MANNOUNCE, KIND_STATE})

LAYER_CLASSES = (
    (BottomLayer, "bottom", ("on_datagram",)),
    (ReliableLayer, "reliable", ()),
    (FragmentLayer, "top", ()),
    (FlowLayer, "top", ()),
    (HeartbeatLayer, "detectors", ("on_gossip",)),
    (SuspicionLayer, "detectors", ()),
    (MembershipLayer, "membership", ()),
    (StateTransferLayer, "membership", ()),
    (OrderingLayer, "ordering", ("freeze_for_flush", "flush")),
    (UniformDeliveryLayer, "ordering", ("flush",)),
    (TopLayer, "top", ("submit_cast",)),
)

LAYER_METHODS = ("handle_up", "handle_down", "on_view", "on_control")

WIRE_FUNCTIONS = tuple(name for name in dir(wire_module)
                       if name.startswith(("encode_", "decode_"))
                       and callable(getattr(wire_module, name)))


def layer_of_module(module):
    """The layer a module's code belongs to, or None to inherit."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
    return None


def _public_functions(cls):
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (staticmethod, classmethod, type))]


class Instrumentation:
    """Installs and removes the wrappers around one :class:`Tracer`.

    ``faulty`` is a callable returning the node ids currently faulty
    (crashed, departed or Byzantine); a local suspicion of any other
    node is counted as a false suspicion.
    """

    def __init__(self, tracer, faulty=lambda: ()):
        self.tracer = tracer
        self.faulty = faulty
        self.charged = {}            # layer -> simulated CPU seconds
        self._saved = []             # (owner, name, had_own, original)

    # ------------------------------------------------------------------
    def _patch(self, owner, name, replacement):
        had_own = name in vars(owner)
        self._saved.append((owner, name, had_own, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def uninstall(self):
        for owner, name, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    def _span(self, owner, name, layer, before=None):
        """Patch ``owner.name`` into a span of ``layer``."""
        original = getattr(owner, name)
        tracer = self.tracer
        label = "%s.%s" % (owner.__name__, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            msg = args[1] if len(args) > 1 \
                and isinstance(args[1], mk.Message) else None
            return tracer.call(layer, label, original, args, kwargs, msg)
        self._patch(owner, name, wrapper)

    def _counter(self, owner, name, key):
        """Patch ``owner.name`` to count its calls without a span."""
        original = getattr(owner, name)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.count(key)
            return original(*args, **kwargs)
        self._patch(owner, name, wrapper)

    # ------------------------------------------------------------------
    def install(self):
        tracer = self.tracer
        count = tracer.count
        # layers
        for cls, layer, extra in LAYER_CLASSES:
            for name in LAYER_METHODS + extra:
                before = None
                if cls is BottomLayer and name == "handle_down":
                    before = self._count_membership_msg
                elif cls is ReliableLayer and name == "handle_up":
                    def before(args):
                        count("reliable.handle_up")
                self._span(cls, name, layer, before=before)
        self._span(SuspicionLayer, "suspect_locally", "detectors",
                   before=self._count_suspicion)
        self._counter(MembershipLayer, "_restart_at", "membership.reruns")
        # helpers outside the stack
        for cls, layer in ((StabilityTracker, "stability"),
                           (FuzzyLevels, "detectors"),
                           (FuzzyMuteDetector, "detectors"),
                           (FuzzyVerboseDetector, "detectors")):
            for name in _public_functions(cls):
                self._span(cls, name, layer)
        for cls in (auth_module.NullAuth, auth_module.PairwiseSymmetricAuth,
                    auth_module.PublicKeyAuth):
            for name in ("sign", "verify", "verify_batch"):
                self._span(cls, name, "crypto", before=self._mac_counter(
                    cls, name))
        # simulator and real transport
        self._span(Network, "send", "sim")
        self._span(Network, "gossip_cast", "sim")
        self._span(Cpu, "charge", "sim", before=self._note_charge)
        for name in ("send", "gossip_cast", "flush_pending"):
            self._span(transport_module.AsyncioTransport, name, "transport")
        self._span(transport_module._UdpProtocol, "datagram_received",
                   "transport")
        for name in ("dispatch_cast", "dispatch_view", "dispatch_send"):
            self._span(GroupEndpoint, name, "driver")
        # the real-network load generator runs off the loop's own timers
        self._span(UdpFifo, "_fire", "driver")
        self._wrap_wire()
        self._wrap_scheduling()
        return self

    # ------------------------------------------------------------------
    def _count_membership_msg(self, args):
        if getattr(args[1], "kind", None) in MEMBERSHIP_KINDS:
            self.tracer.count("membership.msgs")

    def _count_suspicion(self, args):
        self.tracer.count("detectors.suspicions")
        if args[1] not in set(self.faulty()):
            self.tracer.count("detectors.false_suspicions")

    def _mac_counter(self, cls, name):
        if cls is not auth_module.PairwiseSymmetricAuth:
            return None
        count = self.tracer.count
        if name == "sign":
            return lambda args: count("crypto.macs", len(args[2]))
        if name == "verify":
            return lambda args: count("crypto.macs")

        def batch(args):
            count("crypto.macs", len(args[2]))
            count("crypto.batch_items", len(args[2]))
            count("crypto.verify_batches")
        return batch

    def _note_charge(self, args):
        layer = self.tracer.current() or ROOT
        self.charged[layer] = self.charged.get(layer, 0.0) + args[1]

    def _wrap_wire(self):
        tracer = self.tracer
        for name in WIRE_FUNCTIONS:
            original = getattr(wire_module, name)
            key = "wire.encode" if name.startswith("encode_") \
                else "wire.decode"

            def wrapper(*args, _original=original, _key=key, _name=name,
                        **kwargs):
                if tracer.on and tracer.current() != "wire":
                    tracer.count(_key)
                    return tracer.call("wire", _name, _original, args, kwargs)
                return _original(*args, **kwargs)
            functools.update_wrapper(wrapper, original)
            self._patch(wire_module, name, wrapper)
            if hasattr(transport_module, name):
                self._patch(transport_module, name, wrapper)

    def _wrap_scheduling(self):
        tracer = self.tracer

        def as_span(callback):
            layer = (layer_of_module(getattr(callback, "__module__", None))
                     or tracer.current() or ROOT)
            name = getattr(callback, "__qualname__", repr(callback))

            def fire(*args):
                return tracer.call(layer, name, callback, args)
            return fire

        def patch(owner, name, callback_index):
            original = getattr(owner, name)

            @functools.wraps(original)
            def wrapper(*args):
                if tracer.on:
                    tracer.note_child()
                args = list(args)
                args[callback_index] = as_span(args[callback_index])
                return original(*args)
            self._patch(owner, name, wrapper)

        # (self, deadline, callback, *args) and (self, queue, deadline,
        # callback, *args); Simulator.schedule and AsyncioClock.schedule
        # and schedule_serial all funnel into these
        patch(Simulator, "schedule_at", 2)
        patch(Simulator, "schedule_serial", 3)
        patch(AsyncioClock, "schedule_at", 2)
