"""The sweep service's store is
:class:`~repro.experiments.parallel.ResultCache`; ``JobStore`` is a
second name for it.  Run and scenario payloads are ``RunSummary`` dicts
under their ``RunKey`` digest, other kinds' documents under the spec's.
"""

from __future__ import annotations

import contextlib
import tempfile

from repro.experiments.parallel import MANIFEST_SCHEMA, ResultCache

JobStore = ResultCache

__all__ = ["JobStore", "MANIFEST_SCHEMA", "ResultCache", "temporary_store"]


@contextlib.contextmanager
def temporary_store(enabled: bool):
    """A store in a temporary directory that is removed on exit -- what
    ``--no-cache`` and ``--check`` run against -- or, when not
    ``enabled``, ``None`` (the default store)."""
    if not enabled:
        yield None
        return
    with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
        yield ResultCache(root=root)
