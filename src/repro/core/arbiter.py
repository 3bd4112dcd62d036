"""Round-robin arbitration primitives for the SRF port (paper §4.4).

Arbitration for the single SRF port is a two-stage process: *global*
arbitration selects either one sequential stream or all indexed streams;
*local* arbitration in each lane then picks which indexed accesses
proceed, subject to sub-array conflicts. Section 5.4 notes that a simple
round-robin scheme is within 10% of complex stall-aware arbiters, so
round-robin is what both stages use here. The per-bank local stage keeps
one pointer per bank inside the SRF's grant loop
(:meth:`repro.core.srf.StreamRegisterFile._grant_indexed`): each cycle it
scans the bank's heads from the pointer (modulo their count) and then
moves the pointer on by one.
"""

from __future__ import annotations


class RoundRobinArbiter:
    """Fair pick among a dynamic set of requesters.

    :meth:`pick` returns the first requester at or after the rotating
    pointer for which ``predicate`` holds, then advances the pointer past
    the winner.
    """

    def __init__(self):
        self._pointer = 0

    def pick(self, candidates, predicate):
        """Select the next eligible candidate, or None.

        ``candidates`` is an indexable sequence; ``predicate`` maps a
        candidate to bool. The rotation pointer is interpreted modulo the
        current candidate count, so the candidate list may change size
        between calls.
        """
        count = len(candidates)
        if count == 0:
            return None
        start = self._pointer % count
        for step in range(count):
            position = (start + step) % count
            candidate = candidates[position]
            if predicate(candidate):
                self._pointer = position + 1
                return candidate
        return None
