"""Memory request type shared by every level of the hierarchy.

A request is classified along the axes the paper cares about:

* **translation** -- a page-table-walker read of a PTE line.  Leaf-level
  translations (``pt_level == 1``) carry the information ATP needs to
  prefetch the corresponding replay line (``replay_line_addr``).
* **replay load** -- a demand load whose address translation missed the STLB
  and walked the page table (terminology from TEMPO).
* **non-replay load** -- a demand load whose translation hit the DTLB/STLB.

``MemoryRequest`` is deliberately *not* a dataclass: one is constructed
per cache probe on the innermost simulation path, so it is a ``__slots__``
class whose classification (line address, category, leaf-ness) is computed
once at construction instead of per property read.  The classifying inputs
(``address``, ``access_type``, ``is_replay``, ``pt_level``, ``leaf_walk``)
must not be mutated afterwards; the hierarchy only ever mutates ``cycle``,
``dropped``, ``served_by`` and ``evict_priority``.

Short-lived internal requests (writebacks, prefetch probes) can come from
the module-level free-list pool (:func:`acquire` / :func:`release`) to
avoid allocator churn; pooled requests must not escape the call that
acquired them.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.params import LINE_SHIFT


class AccessType(enum.Enum):
    """Demand class of a request, used for statistics and policy decisions.

    A non-demand member's value doubles as its statistics category."""

    LOAD = "load"
    STORE = "store"
    TRANSLATION = "translation"
    PREFETCH = "prefetch"
    WRITEBACK = "writeback"


# Members bound once: a class-attribute read on an Enum, and an Enum used
# as a dict key (its ``__hash__`` is Python code), each cost a Python-level
# call per request.  Categories are read from ``_value_`` for the same
# reason.
_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_TRANSLATION = AccessType.TRANSLATION


class MemoryRequest:
    """One memory access travelling through the cache hierarchy.

    ``cycle`` is the time the request is issued to the level currently
    processing it; levels advance it as the request descends.
    """

    __slots__ = ("address", "cycle", "ip", "access_type", "cpu", "is_replay",
                 "pt_level", "leaf_walk", "replay_line_addr",
                 "evict_priority", "dropped", "served_by",
                 "line_addr", "is_translation", "is_leaf_translation",
                 "is_demand_data", "_category")

    def __init__(self, address: int, cycle: int, ip: int = 0,
                 access_type: AccessType = _LOAD, cpu: int = 0,
                 is_replay: bool = False, pt_level: int = 0,
                 leaf_walk: bool = False,
                 replay_line_addr: Optional[int] = None,
                 evict_priority: bool = False):
        self.address = address
        self.cycle = cycle
        self.ip = ip
        self.access_type = access_type
        self.cpu = cpu
        #: True when the corresponding address translation missed the STLB.
        self.is_replay = is_replay
        #: Page-table level being read (5..1); 1 is the leaf.  0 for data.
        self.pt_level = pt_level
        #: True when this PTE read is the walk's leaf level.  Level 1 is
        #: always a leaf; 2MB huge-page walks terminate at level 2.
        self.leaf_walk = leaf_walk
        #: For leaf translations: the physical line address of the replay
        #: load the translated page will be accessed with (PTW carries the
        #: upper six bits of the page offset, per Section IV of the paper).
        self.replay_line_addr = replay_line_addr
        #: ATP/TEMPO prefetch fills are demoted to highest eviction priority.
        self.evict_priority = evict_priority
        #: Set by a level that drops a prefetch (flooded prefetch queue): no
        #: data ever returns, so upstream levels must not install the line.
        self.dropped = False
        #: Filled by the hierarchy: name of the level that served the request.
        self.served_by = ""
        # -- derived classification, computed once --------------------------
        self.line_addr = address >> LINE_SHIFT
        if access_type is _LOAD or access_type is _STORE:
            self.is_demand_data = True
            self.is_translation = False
            self.is_leaf_translation = False
            self._category = "replay" if is_replay else "non_replay"
        else:
            self.is_demand_data = False
            is_translation = access_type is _TRANSLATION
            self.is_translation = is_translation
            self.is_leaf_translation = (
                is_translation and (pt_level == 1 or leaf_walk))
            self._category = access_type._value_

    def category(self) -> str:
        """Statistics bucket: ``translation`` / ``replay`` / ``non_replay`` /
        ``prefetch`` / ``writeback``."""
        return self._category

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MemoryRequest(address={self.address:#x}, "
                f"cycle={self.cycle}, type={self.access_type.value}, "
                f"category={self._category})")


#: Free list for short-lived internal requests (writebacks, prefetch
#: probes).  Bounded so a pathological burst cannot pin memory.
_POOL: List[MemoryRequest] = []
_POOL_LIMIT = 64


def acquire(address: int, cycle: int, ip: int = 0,
            access_type: AccessType = _LOAD,
            is_replay: bool = False, pt_level: int = 0,
            leaf_walk: bool = False,
            replay_line_addr: Optional[int] = None,
            evict_priority: bool = False) -> MemoryRequest:
    """A pooled request for traffic whose lifetime ends with the access
    call that created it.  Callers must :func:`release` it afterwards and
    must not retain references."""
    if _POOL:
        req = _POOL.pop()
        req.address = address
        req.cycle = cycle
        req.ip = ip
        req.access_type = access_type
        req.cpu = 0
        req.is_replay = is_replay
        req.pt_level = pt_level
        req.leaf_walk = leaf_walk
        req.replay_line_addr = replay_line_addr
        req.evict_priority = evict_priority
        req.dropped = False
        req.served_by = ""
        req.line_addr = address >> LINE_SHIFT
        if access_type is _LOAD or access_type is _STORE:
            req.is_demand_data = True
            req.is_translation = False
            req.is_leaf_translation = False
            req._category = "replay" if is_replay else "non_replay"
        else:
            req.is_demand_data = False
            is_translation = access_type is _TRANSLATION
            req.is_translation = is_translation
            req.is_leaf_translation = (
                is_translation and (pt_level == 1 or leaf_walk))
            req._category = access_type._value_
        return req
    return MemoryRequest(address, cycle, ip, access_type, 0, is_replay,
                         pt_level, leaf_walk, replay_line_addr,
                         evict_priority)


def release(req: MemoryRequest) -> None:
    """Return a request obtained from :func:`acquire` to the pool."""
    if len(_POOL) < _POOL_LIMIT:
        _POOL.append(req)
