"""Common interface for the queue organizations the paper compares.

A queue structure only manages *entry allocation and reclamation* — the
payload lives with the caller, keyed by the entry index (or stable
handle for the collapsible queue).  The three organizations (§2.1,
Figure 1):

* **SHIFT** (collapsible): compacts on every removal; positional order
  equals age order; capacity-efficient but O(m·n) shifts per compaction.
* **CIRC** (circular): head/tail FIFO; removals in the middle leave
  gaps that are reclaimed only when the head passes them — capacity
  inefficiency under out-of-order removal.
* **RAND** (random/free-list): any free entry may be allocated, any
  entry freed — capacity-efficient but positions carry no age
  information, hence the age matrix.
"""

from __future__ import annotations

import abc
from typing import List, Optional


class QueueStructure(abc.ABC):
    """Entry allocator for an instruction queue / ROB / LQ."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("queue size must be positive")
        self.size = size
        #: how many entries could be allocated right now, kept by
        #: :meth:`allocate` and :meth:`free`.  For CIRC this is less
        #: than ``size - occupancy()`` when gaps exist — that
        #: difference *is* the capacity inefficiency the paper talks
        #: about.  Zero means full.
        self.allocatable = size
        #: cumulative count of allocations that failed due to capacity
        self.alloc_failures = 0

    @abc.abstractmethod
    def allocate(self) -> Optional[int]:
        """Claim an entry; return its index or None when full."""

    @abc.abstractmethod
    def free(self, entry: int) -> None:
        """Release an entry previously returned by :meth:`allocate`."""

    @abc.abstractmethod
    def occupancy(self) -> int:
        """Number of live entries."""

    def allocate_block(self, count: int) -> List[int]:
        """Allocate up to ``count`` entries; returns those obtained."""
        entries = []
        for _ in range(count):
            entry = self.allocate()
            if entry is None:
                break
            entries.append(entry)
        return entries
