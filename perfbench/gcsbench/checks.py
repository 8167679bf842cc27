"""Output checks.  A violation fails the run; it is never a metric.

Each checker takes what the members delivered, as recorded by the
workload's delivery callbacks, and returns a list of violation strings
(empty when the outputs are correct).
"""

from __future__ import annotations

#: how many violations a checker lists before summarising the rest
_MAX_LISTED = 20


def _capped(violations):
    if len(violations) > _MAX_LISTED:
        extra = len(violations) - _MAX_LISTED
        violations = violations[:_MAX_LISTED]
        violations.append("... and %d more" % extra)
    return violations


def check_fifo_exactly_once(delivered, required):
    """Each member delivers each origin's casts exactly once, in FIFO.

    ``delivered`` is ``{member: [(origin, k), ...]}`` in delivery order,
    where ``k`` numbers each origin's casts 1, 2, 3, ...; ``required`` is
    ``{origin: count}``, the casts every member must have delivered.  A
    member may deliver more than that, but always a gap-free 1, 2, 3, ...
    run per origin: a duplicate, a reorder and a hole all break it.
    """
    violations = []
    for member in sorted(delivered, key=repr):
        next_k = {origin: 1 for origin in required}
        for origin, k in delivered[member]:
            expected = next_k.get(origin)
            if expected is None:
                violations.append("member %r delivered a cast of unknown "
                                  "origin %r" % (member, origin))
                continue
            if k != expected:
                kind = ("duplicate" if k < expected else "hole/reorder")
                violations.append("member %r: %s from origin %r: got #%d, "
                                  "expected #%d" % (member, kind, origin, k,
                                                    expected))
                # resynchronise so one fault is reported once
                next_k[origin] = max(expected, k + 1)
                continue
            next_k[origin] = k + 1
        for origin, count in required.items():
            if next_k[origin] <= count:
                violations.append("member %r: casts #%d..#%d of origin %r "
                                  "never delivered" % (member, next_k[origin],
                                                       count, origin))
    return _capped(violations)


def check_total_order(sequences, cast_ids):
    """Every member delivers one identical sequence with no holes.

    ``sequences`` is ``{member: [msg_id, ...]}`` in delivery order and
    ``cast_ids`` the set of every msg id cast.  Each sequence must hold
    every cast exactly once, and all sequences must be equal.
    """
    violations = []
    reference_member = None
    reference = None
    for member in sorted(sequences, key=repr):
        sequence = sequences[member]
        seen = set()
        for msg_id in sequence:
            if msg_id in seen:
                violations.append("member %r delivered %r twice"
                                  % (member, msg_id))
            elif msg_id not in cast_ids:
                violations.append("member %r delivered %r, which nobody "
                                  "cast" % (member, msg_id))
            seen.add(msg_id)
        missing = len(cast_ids - seen)
        if missing:
            violations.append("member %r: %d casts never delivered (hole)"
                              % (member, missing))
        if reference is None:
            reference_member, reference = member, sequence
            continue
        if sequence != reference:
            at = next((i for i, (a, b) in enumerate(zip(sequence, reference))
                       if a != b), min(len(sequence), len(reference)))
            violations.append("members %r and %r diverge at position %d"
                              % (reference_member, member, at))
    return _capped(violations)


def undelivered(delivered_at, cast_ids, members):
    """Casts of ``cast_ids`` that some member of ``members`` lacks.

    ``delivered_at`` is ``{msg_id: set of members that delivered it}``.
    """
    members = set(members)
    return [msg_id for msg_id in cast_ids
            if not members <= delivered_at.get(msg_id, set())]
