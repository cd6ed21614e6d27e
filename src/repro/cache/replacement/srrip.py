"""SRRIP (Jaleel et al., ISCA'10).

SRRIP inserts every block with a *long* re-reference prediction
(RRPV = max-1), :class:`RRIPBase`'s default insertion.
"""

from __future__ import annotations

from repro.cache.replacement.base import RRIPBase


class SRRIPPolicy(RRIPBase):
    """Static RRIP: insert at RRPV = max-1, promote to 0 on hit."""

    name = "srrip"
    rrpv_bits = 2
