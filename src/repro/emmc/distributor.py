"""The HPS request distributor (Section V-A).

"The request distributor splits a request into multiple pages. ... For
example, when the size of a write request is 20 KB, it will be divided into
two 8-KB sub-requests and one 4-KB sub-request."  On a pure 8 KB device the
same 20 KB write needs three 8 KB pages (24 KB of flash), wasting 4 KB --
the space-utilization loss Fig. 9 quantifies.

The split policy is derived from the page kinds the device geometry offers:

* only 4 KB blocks  -> every logical page gets its own 4 KB page (4PS);
* only 8 KB blocks  -> logical pages are paired into 8 KB pages, an odd
  trailing page padding half of its 8 KB page (8PS);
* both              -> pairs go to 8 KB pages, the odd trailing page to a
  4 KB page, so no padding is ever written (HPS).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.trace import Request, SECTOR

from .geometry import PageKind
from .ops import WriteGroup


class RequestDistributor:
    """Splits host requests into per-physical-page write groups."""

    def __init__(self, kinds: Sequence[PageKind]) -> None:
        if not kinds:
            raise ValueError("at least one page kind is required")
        self._kinds = sorted(kinds, key=lambda kind: kind.bytes)

    @property
    def smallest(self) -> PageKind:
        """Smallest page kind available."""
        return self._kinds[0]

    @property
    def largest(self) -> PageKind:
        """Largest page kind available."""
        return self._kinds[-1]

    @property
    def hybrid(self) -> bool:
        """True when both small and large pages are available (HPS)."""
        return len(self._kinds) > 1

    def lpns_of(self, request: Request) -> List[int]:
        """Logical 4 KB page numbers the request touches."""
        first = request.lba // SECTOR
        return list(range(first, first + request.pages))

    def split_write(self, request: Request) -> List[WriteGroup]:
        """Distribute a write request over physical pages."""
        if not request.is_write:
            raise ValueError("split_write needs a write request")
        return self.pack(self.lpns_of(request))

    def pack(self, lpns: Sequence[int]) -> List[WriteGroup]:
        """Pack logical pages, in order, into per-physical-page write groups.

        Full large pages first; the tail goes to small pages on a hybrid
        device (no padding) and pads one last large page otherwise.  Host
        writes, RAM-buffer flushes and the replay planner's FTL fallback
        all pack through here.
        """
        large = self.largest
        slots = large.slots
        if slots == 1:
            # Pure small-page device: one group per logical page.
            return [WriteGroup(large, (lpn,)) for lpn in lpns]
        full = len(lpns) - len(lpns) % slots
        groups = [
            WriteGroup(large, tuple(lpns[index : index + slots]))
            for index in range(0, full, slots)
        ]
        remainder = lpns[full:]
        if remainder:
            if self.hybrid:
                # HPS: the odd tail goes to small pages -- no padding.
                groups.extend(WriteGroup(self.smallest, (lpn,)) for lpn in remainder)
            else:
                # Pure large-page device: pad the last page.
                padded = tuple(remainder) + (None,) * (slots - len(remainder))
                groups.append(WriteGroup(large, padded))
        return groups

    def flash_bytes_for(self, request: Request) -> int:
        """Flash space the write consumes (Fig. 9's denominator)."""
        return sum(group.kind.bytes for group in self.split_write(request))
