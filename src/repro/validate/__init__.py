"""Runtime validation subsystem: invariant checkers, a differential
functional oracle, and a deterministic fuzz driver.

Checking is off by default and costs nothing when off -- the hierarchy and
core call :func:`maybe_attach` / :func:`maybe_attach_core`, which return
``None`` unless checking was requested, and instrumentation works by
shadowing bound methods on individual instances (never by patching
classes), so unchecked runs execute the exact original code paths.

Enable with the ``--check`` CLI flag or the ``REPRO_CHECK=1`` environment
variable (inherited by parallel worker processes).  See
``docs/validation.md``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.validate.invariants import HierarchyChecker, ROBChecker

__all__ = ["checking_enabled", "maybe_attach", "maybe_attach_core"]


def checking_enabled() -> bool:
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def maybe_attach(hierarchy) -> Optional[HierarchyChecker]:
    """Attach the full checker stack to ``hierarchy`` iff checking is
    enabled.  Called from ``MemoryHierarchy.__init__``."""
    if not checking_enabled():
        return None
    from repro.validate.invariants import HierarchyChecker
    return HierarchyChecker(hierarchy)


def maybe_attach_core(core) -> Optional[ROBChecker]:
    """Attach a ROB checker to ``core`` iff its hierarchy carries a
    checker (i.e. checking was enabled when the hierarchy was built)."""
    checker = getattr(core.hierarchy, "checker", None)
    if checker is None:
        return None
    from repro.validate.invariants import ROBChecker
    rob = ROBChecker(core.rob_entries, checker.ctx)
    checker.rob_checkers.append(rob)
    return rob
