"""Head-of-ROB stall attribution (the paper's central metric, Figs 1 & 16).

When the instruction at the head of the ROB is an incomplete load, every
cycle until its data arrives is a *head-of-ROB stall*.  For a load whose
translation missed the STLB the stall splits into two intervals:

* while the page-table walk is still pending  -> **translation** stall;
* after the walk, while the data is pending   -> **replay** stall.

Loads that hit the STLB charge their stall to **non_replay**.  No other
instruction stalls the head: each completes one cycle after dispatch,
never later than its earliest retire slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class StallCategory(enum.Enum):
    TRANSLATION = "translation"
    REPLAY = "replay"
    NON_REPLAY = "non_replay"


@dataclass
class _CategoryStats:
    total_cycles: int = 0
    events: int = 0
    max_cycles: int = 0

    def add(self, cycles: int) -> None:
        if cycles <= 0:
            return
        self.total_cycles += cycles
        self.events += 1
        if cycles > self.max_cycles:
            self.max_cycles = cycles

    @property
    def avg_cycles(self) -> float:
        return self.total_cycles / self.events if self.events else 0.0


class StallAccounting:
    """Accumulates head-of-ROB stall cycles per category."""

    def __init__(self):
        self.by_category: Dict[StallCategory, _CategoryStats] = {
            cat: _CategoryStats() for cat in StallCategory}

    def record_load_stall(self, stall: int, is_replay: bool,
                          translation_pending: int) -> None:
        """Attribute one load's head-of-ROB stall.

        ``translation_pending`` is the portion of the stall window during
        which the page-table walk had not yet completed (0 for STLB hits).
        """
        if stall <= 0:
            return
        if is_replay:
            translation_part = max(0, min(translation_pending, stall))
            replay_part = stall - translation_part
            self.by_category[StallCategory.TRANSLATION].add(translation_part)
            self.by_category[StallCategory.REPLAY].add(replay_part)
        else:
            self.by_category[StallCategory.NON_REPLAY].add(stall)

    # -- reporting ----------------------------------------------------
    def total(self, category: StallCategory) -> int:
        return self.by_category[category].total_cycles

    def total_stall_cycles(self) -> int:
        return sum(s.total_cycles for s in self.by_category.values())

    def translation_plus_replay(self) -> int:
        """The stall cycles the paper's mechanisms target (Fig 16)."""
        return (self.total(StallCategory.TRANSLATION)
                + self.total(StallCategory.REPLAY))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {cat.value: {"total": s.total_cycles, "events": s.events,
                            "avg": s.avg_cycles, "max": s.max_cycles}
                for cat, s in self.by_category.items()}
