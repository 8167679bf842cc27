"""Span recorder for the traced run.

The recorder knows nothing about the program: :mod:`gcsbench.instrument`
wraps the program's public entry points so that each call becomes a
span here.  A span has a layer, a name, a start and an end (process CPU
nanoseconds), a parent span and, when the call carries a message, the
message id.  A layer's *self time* is its spans' duration minus the part
covered by child spans; a call into the layer that is already innermost
is folded into the open span, so self time and call counts describe
calls *into* a layer from outside it.

The measured window itself is the root span, named ``unattributed``: its
self time is the CPU no wrapped call covers (the simulator's event loop,
asyncio's select loop, the benchmark's own bookkeeping), and by
construction the self times of all layers plus ``unattributed`` add up
to the root span's duration.

A span is *passive* when all it did that the rest of the program could
see was pass its own message on: a message-carrying call that opened
exactly one child span, carrying that same message, or a call without a
message that opened no child span; scheduling a timer counts as a child.
Passive spans are counted per layer, so a layer that only forwards can
be told from one that works.
"""

from __future__ import annotations

import json
import time

ROOT = "unattributed"
#: spans retained for the written trace (the first ones); self times,
#: counts and passive spans cover every span regardless
KEEP_SPANS = 50000

# an open span: [layer, start, child_ns, id, parent, msg, kids, passed]
_LAYER, _START, _CHILD_NS, _ID, _PARENT, _MSG, _KIDS, _PASSED = range(8)


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, clock=time.process_time_ns):
        self.clock = clock
        self.on = False
        self.stack = []          # open frames, innermost last
        self.self_ns = {}        # layer -> exclusive nanoseconds
        self.calls = {}          # layer -> spans opened
        self.passive = {}        # layer -> passive spans
        self.counts = {}         # free-form event counters
        self.spans = []          # (id, parent, layer, name, start, end, msg)
        self.next_id = 0
        self.root_ns = 0

    # ------------------------------------------------------------------
    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self):
        """The innermost open span's layer, or None."""
        return self.stack[-1][_LAYER] if self.stack else None

    def note_child(self):
        """Something other than a span happened inside the innermost
        span that the program can see (a timer was scheduled)."""
        if self.stack:
            self.stack[-1][_KIDS] += 1

    def _open(self, layer, msg):
        self.next_id += 1
        stack = self.stack
        parent = 0
        if stack:
            top = stack[-1]
            parent = top[_ID]
            top[_KIDS] += 1
            if msg is not None and msg is top[_MSG]:
                top[_PASSED] = True
        frame = [layer, self.clock(), 0, self.next_id, parent, msg, 0, False]
        stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack corrupted: closing %r inside %r"
                               % (frame[_LAYER], popped[_LAYER]))
        layer = frame[_LAYER]
        duration = end - frame[_START]
        self.self_ns[layer] = (self.self_ns.get(layer, 0) + duration
                               - frame[_CHILD_NS])
        if self.stack:
            self.stack[-1][_CHILD_NS] += duration
        kids = frame[_KIDS]
        if (kids == 1 and frame[_PASSED]) or \
                (kids == 0 and frame[_MSG] is None):
            self.passive[layer] = self.passive.get(layer, 0) + 1
        if frame[_ID] <= KEEP_SPANS:
            self.spans.append((frame[_ID], frame[_PARENT], layer, name,
                               frame[_START], end,
                               getattr(frame[_MSG], "msg_id", None)))
        return duration

    def call(self, layer, name, fn, args, kwargs=None, msg=None):
        """Run ``fn(*args, **kwargs)`` as a span of ``layer``; ``msg`` is
        the message the call handles, if any."""
        stack = self.stack
        if not self.on or (stack and stack[-1][_LAYER] == layer):
            return fn(*args, **(kwargs or {}))
        self.calls[layer] = self.calls.get(layer, 0) + 1
        frame = self._open(layer, msg)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._close(frame, name)

    # ------------------------------------------------------------------
    def start(self):
        """Open the root span and start recording."""
        if self.stack:
            raise RuntimeError("tracer already started")
        self.on = True
        self._root = self._open(ROOT, None)

    def stop(self):
        """Close the root span; returns its duration in nanoseconds."""
        self.root_ns = self._close(self._root, ROOT)
        self.on = False
        return self.root_ns

    def layer_self_ns(self):
        """Self nanoseconds per layer, ``unattributed`` included."""
        return dict(self.self_ns)

    def write(self, path):
        """Write the retained spans and the totals as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps({"root_ns": self.root_ns,
                                  "self_ns": self.self_ns,
                                  "calls": self.calls,
                                  "passive": self.passive,
                                  "counts": self.counts,
                                  "spans_total": self.next_id,
                                  "spans_written": len(self.spans)},
                                 sort_keys=True) + "\n")
            for span in self.spans:
                span_id, parent, layer, name, start, end, msg_id = span
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "layer": layer,
                     "name": name, "start_ns": start, "end_ns": end,
                     "msg": None if msg_id is None else repr(msg_id)})
                    + "\n")
