"""Sharded, content-addressed on-disk job store.

Grown from :class:`~repro.experiments.parallel.ResultCache` (which now
shards its entries by digest prefix): the service stores every
completed job payload as one JSON document at
``<root>/v<schema>-<code>/<digest[:2]>/<digest>.json``.  Run and
scenario payloads are :class:`~repro.experiments.parallel.RunSummary`
dicts addressed by their :class:`RunKey` digest -- byte-compatible with
what the parallel runner memoises, so a figure batch warmed through
``--jobs``/``ResultCache`` and a sweep submitted to the service share
results.  Coarse kinds (figure/trace) store their own documents under
the spec digest.

The store is the dedupe horizon across service restarts: a resubmitted
digest is served from disk (a *store hit*) without executing anything,
and a resumed partial sweep skips every digest already present.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.parallel import (CACHE_SCHEMA_VERSION, ResultCache,
                                        SHARD_WIDTH)

#: Schema tag of the manifest document (``GET /store``).
MANIFEST_SCHEMA = "repro.service.store/v1"


class JobStore(ResultCache):
    """A :class:`ResultCache` with digest-level access and a manifest.

    The base class provides sharded atomic reads/writes keyed by
    ``RunKey`` *or* raw digest (``get_raw``/``put_raw``/``contains``);
    this adds the service-facing surface: payload storage with a kind
    envelope and the manifest the smoke test and CI artifact use.
    """

    def get_payload(self, digest: str) -> Optional[Dict]:
        """The stored payload for a digest (``None`` when absent)."""
        return self.get_raw(digest)

    def put_payload(self, digest: str, payload: Dict) -> bool:
        """Store a payload; whether it was written (see ``put_raw``)."""
        return self.put_raw(digest, payload)

    def manifest(self) -> Dict:
        """Store inventory + counters (uploaded as a CI artifact)."""
        digests: List[str] = self.digests()
        return {
            "schema": MANIFEST_SCHEMA,
            "root": str(self.root),
            "dir": str(self.dir),
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "code_fingerprint": self.fingerprint,
            "shard_width": SHARD_WIDTH,
            "entries": len(digests),
            "digests": digests,
            "counters": {"hits": self.hits, "misses": self.misses,
                         "stores": self.stores,
                         "write_errors": self.write_errors,
                         "read_errors": self.read_errors},
        }
