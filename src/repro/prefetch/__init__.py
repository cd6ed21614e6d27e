"""Hardware prefetchers: state-of-the-art baselines (IPCP, SPP, Bingo, ISB)
and the paper's proposals (ATP, TEMPO)."""

import importlib

#: Cache-level prefetcher name -> (defining module, class name); the
#: module is imported only when that prefetcher is requested.
_L2C_REGISTRY = {
    "next_line": ("repro.prefetch.next_line", "NextLinePrefetcher"),
    "spp": ("repro.prefetch.spp", "SPPPrefetcher"),
    "bingo": ("repro.prefetch.bingo", "BingoPrefetcher"),
    "isb": ("repro.prefetch.isb", "ISBPrefetcher"),
}


def make_l2c_prefetcher(name: str):
    """Instantiate a cache-level (physical-address) prefetcher by name."""
    if name in (None, "", "none"):
        return None
    try:
        module, cls = _L2C_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown L2C prefetcher {name!r}; "
                         f"available: {sorted(_L2C_REGISTRY)}") from None
    return getattr(importlib.import_module(module), cls)()
