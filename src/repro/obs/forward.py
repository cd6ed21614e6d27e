"""Worker-side progress forwarding: interval sampler → service bridge.

A service-submitted run is a black box between SUBMITTED and DONE unless
the worker tells the parent what the simulator is doing.  This module is
that bridge: a :class:`ProgressForwarder` is the ``forward`` callable of
an :class:`~repro.obs.sampler.IntervalSampler`
(``IntervalSampler(hierarchy, interval, forward=forwarder.on_interval)``).
It condenses each interval into one small ``job-progress`` row (cycle,
IPC, L2/LLC MPKI, walk cycles, % complete against the instruction
budget) and hands it to a sink callable -- in the sweep service that
sink is a ``multiprocessing`` queue back to the parent (pool workers) or
a direct callback (inline mode), and the service re-emits the rows on
the job's :class:`~repro.obs.progress.EventStream`.

Forwarding is strictly observational: the forwarder only *reads* the
interval records the sampler already produces, and a sink failure (queue
gone, parent dead) silently stops forwarding rather than killing the run
-- simulation results stay bit-identical whether rows reach anyone or
not.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL


def progress_row(interval: Dict, retired: int,
                 total_instructions: Optional[int]) -> Dict:
    """Condense one sampler interval record into a forwardable row.

    ``retired`` is the cumulative ROI instruction count including this
    interval; ``total_instructions`` is the run's budget (drives
    ``pct``; unknown → ``pct`` is 0.0).
    """
    kilo = max(interval["instructions"], 1) / 1000.0
    l2 = sum(interval["levels"]["l2c"]["misses"].values())
    llc = sum(interval["levels"]["llc"]["misses"].values())
    pct = 0.0
    if total_instructions:
        pct = min(1.0, retired / total_instructions)
    return {
        "interval": interval["index"],
        "instructions": retired,
        "cycle": interval["cycle_end"],
        "ipc": round(interval["ipc"], 6),
        "l2_mpki": round(l2 / kilo, 4),
        "llc_mpki": round(llc / kilo, 4),
        "walk_cycles": interval["walks"]["walk_cycles"],
        "pct": round(pct, 6),
    }


class ProgressForwarder:
    """Turns interval records into rows and pushes them at a sink.

    ``sink(row)`` is called once per interval; the first sink failure
    disables forwarding for the rest of the run (the simulation must
    never die because nobody is listening).
    """

    def __init__(self, sink: Callable[[Dict], None],
                 total_instructions: Optional[int] = None,
                 interval: int = DEFAULT_SAMPLE_INTERVAL):
        self.sink = sink
        self.total_instructions = total_instructions
        self.interval = interval
        self.rows_sent = 0
        self._retired = 0
        self._broken = False

    def on_interval(self, record: Dict) -> None:
        self._retired += record["instructions"]
        if self._broken:
            return
        row = progress_row(record, self._retired, self.total_instructions)
        try:
            self.sink(row)
            self.rows_sent += 1
        except Exception:
            self._broken = True

