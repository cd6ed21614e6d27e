"""The multi-stream scheduler.

:func:`interleave` runs several instruction streams in (approximate)
global time order on :class:`~repro.core.ooo_core.OOOCore` slices: SMT
threads sharing one core, and cores sharing an LLC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    from repro.core.ooo_core import CoreResult, OOOCore


def interleave(cores: Sequence[OOOCore], traces: Sequence,
               warmup: int = 0) -> List[CoreResult]:
    """Run ``traces[k]`` on ``cores[k]`` to completion; per-core results.

    The stream whose dispatch clock is furthest behind runs next (the
    first listed, on a tie) for one slice, which ends when another
    stream would win that pick.  Every instruction therefore issues in
    the order an instruction-at-a-time scheduler would pick it, which
    keeps memory system state transitions ordered across streams.

    Each stream opens its region of interest at instruction ``warmup``.
    The statistics of every hierarchy reset once every stream has
    executed instruction ``warmup`` or finished.
    """
    from repro.core.ooo_core import UNBOUNDED
    for core, trace in zip(cores, traces):
        core.start(trace, warmup)
    hierarchies = dict.fromkeys(core.hierarchy for core in cores)
    reset_done = warmup == 0
    while True:
        runnable = [core for core in cores if core.index < core.total]
        if not runnable:
            break
        core = min(runnable, key=lambda c: c.dispatch_cycle)
        at = runnable.index(core)
        # Streams listed after this one lose a tie, so this one keeps
        # running until its clock passes theirs, or reaches the clock of
        # a stream listed before it.
        bound = min((other.dispatch_cycle + (k > at)
                     for k, other in enumerate(runnable) if k != at),
                    default=UNBOUNDED)
        if not core.counting and core.index == warmup:
            core.begin_roi()
        stop = core.total
        if not reset_done and core.index <= warmup:
            # Hand control back at the warmup edge, where the stream opens
            # its ROI, and right after it, where the reset may follow.
            stop = warmup if core.index < warmup else warmup + 1
        core.run_slice(stop, bound)
        if not reset_done and all(c.index > warmup or c.index >= c.total
                                  for c in cores):
            for hierarchy in hierarchies:
                hierarchy.reset_stats()
            reset_done = True
    return [core.result() for core in cores]
