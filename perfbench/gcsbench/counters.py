"""Cumulative counters read from the stack's public fields.

The runner reads them when the measured window opens and when it
closes; the per-layer metrics use the difference.
"""

from __future__ import annotations

DROP_REASONS = ("bad_signature", "wrong_view", "wrong_group",
                "impersonation", "stale_incarnation", "undecodable")


def stack_counters(processes, member0):
    """Sums over ``processes`` (every process object the run ever had:
    each one's counters only grow) plus member 0's own counts."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for process in processes:
        bottom = process.bottom
        for reason in DROP_REASONS:
            add("bottom.drop." + reason, getattr(bottom, "dropped_" + reason))
        reliable = process.reliable
        add("reliable.duplicates", reliable.duplicates)
        add("reliable.naks_sent", reliable.naks_sent)
        add("reliable.retransmissions", reliable.retransmissions_served)
        ordering = process.ordering
        add("ordering.batches_decided", ordering.batches_decided)
        add("ordering.messages_ordered", ordering.messages_ordered)
        add("ordering.fast_decides", ordering.fast_decides)
        add("ordering.fast_fallbacks", ordering.fast_fallbacks)
        add("membership.view_changes_all", process.membership.view_changes)
    totals["membership.view_changes"] = member0.membership.view_changes
    totals["ordering.decides_member0"] = member0.ordering.batches_decided
    return totals
