"""Next-line prefetcher (simplest baseline)."""

from __future__ import annotations

from typing import List

from repro.memsys.request import MemoryRequest
from repro.prefetch.base import Prefetcher, clamp_to_page


class NextLinePrefetcher(Prefetcher):
    """On every demand access, prefetch the next :attr:`DEGREE` lines."""

    name = "next_line"
    DEGREE = 1

    def operate(self, req: MemoryRequest, hit: bool) -> List[int]:
        line = req.line_addr
        candidates = [line + d for d in range(1, self.DEGREE + 1)]
        return self._count(clamp_to_page(line, candidates))
