"""Instruction trace container.

A trace is three parallel numpy arrays: instruction pointers, instruction
kinds and (for memory ops) virtual addresses.  This is the Python analogue
of a ChampSim trace file.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

KIND_NONMEM = 0
KIND_LOAD = 1
KIND_STORE = 2


class Trace:
    """Immutable instruction trace.

    ``deps`` marks loads that consume the previous *dependent-chain*
    load's value (pointer chasing): the core cannot issue them until the
    chain's previous load completes.  Zero-filled when absent.
    """

    def __init__(self, ips: np.ndarray, kinds: np.ndarray,
                 addrs: np.ndarray, name: str = "", deps=None):
        if not (len(ips) == len(kinds) == len(addrs)):
            raise ValueError("trace arrays must have equal length")
        self.ips = np.asarray(ips, dtype=np.int64)
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        if deps is None:
            self.deps = np.zeros(len(self.ips), dtype=np.int8)
        else:
            self.deps = np.asarray(deps, dtype=np.int8)
            if len(self.deps) != len(self.ips):
                raise ValueError("deps must match the trace length")
        self.name = name

    def __len__(self) -> int:
        return len(self.ips)

    def __getitem__(self, sl: slice) -> "Trace":
        if not isinstance(sl, slice):
            raise TypeError("traces support slicing only")
        return Trace(self.ips[sl], self.kinds[sl], self.addrs[sl],
                     self.name, deps=self.deps[sl])

    def window(self, lo: int, hi: int
               ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Instructions ``[lo, hi)`` as four plain lists of native ints:
        ``(ips, kinds, addrs, deps)``.

        The cores read a trace one window at a time, so a run holds
        list copies of one window rather than of every column; list
        indexing is much faster than numpy scalar extraction, and native
        ints keep numpy scalars out of cycle arithmetic and JSON
        exports."""
        return (self.ips[lo:hi].tolist(), self.kinds[lo:hi].tolist(),
                self.addrs[lo:hi].tolist(), self.deps[lo:hi].tolist())

    # -- summary properties --------------------------------------------
    @property
    def num_loads(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_LOAD))

    def loads_per_kilo(self) -> float:
        return 1000.0 * self.num_loads / len(self) if len(self) else 0.0

    @staticmethod
    def concatenate(traces, name: str = "") -> "Trace":
        return Trace(np.concatenate([t.ips for t in traces]),
                     np.concatenate([t.kinds for t in traces]),
                     np.concatenate([t.addrs for t in traces]),
                     name or "+".join(t.name for t in traces),
                     deps=np.concatenate([t.deps for t in traces]))
