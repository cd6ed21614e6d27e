"""Decorator-based figure registry: one source of truth for "what can be
regenerated".

Figure/table harnesses register themselves at definition time.  A
harness is a generator: it yields its grid of points once, receives
their summaries and returns its :class:`FigureResult`::

    @registry.figure("fig14", title="Performance of the proposed stack")
    def fig14_performance(benchmarks=None, ...):
        runs = yield {label: RunKey(...), ...}  # {label: RunSummary}
        return FigureResult(...)

The decorated name is a plain function that runs the grid through
``run_many``; a ``figure`` job of the sweep service drives the same
generator on its loop, each point a child ``run`` job.  Every
consumer -- the CLI's ``figure`` subcommand, ``repro.api``,
``make figures*``, the ``benchmarks/`` suite and the docs -- resolves
names through :func:`get` / :func:`names`, so the lists cannot drift
(``tests/test_figure_registry.py`` enforces the benchmark-suite side).

Registration is lazy: the defining modules are imported on the first
lookup, not at ``import repro`` time.
"""

from __future__ import annotations

import functools
import importlib
import re
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Tuple

from repro.experiments.parallel import run_many

#: Modules whose import registers figures.  Order is irrelevant (display
#: order is the natural sort of the names); membership matters.
_FIGURE_MODULES = (
    "repro.experiments.figures",
    "repro.experiments.mixes",
    "repro.experiments.sweeps",
    "repro.experiments.ablations",
    "repro.experiments.accuracy",
    "repro.experiments.comparison",
    "repro.experiments.extensions",
    "repro.experiments.atp_scope",
)


@dataclass(frozen=True)
class FigureSpec:
    """One registered figure/table harness."""

    name: str
    #: Runs the grid through ``run_many`` and returns the result.
    fn: Callable
    #: The generator function (see the module docstring).
    harness: Callable[..., Generator]
    title: str
    #: Defining module (for ``repro list`` and the docs).
    source: str
    #: Reproduces a figure/table of the paper (False: a beyond-the-paper
    #: study).
    paper: bool = True
    #: Accepts the ``benchmarks=[...]`` narrowing kwarg (the SMT/multicore
    #: studies take workload *mixes* instead).
    takes_benchmarks: bool = True

    def __call__(self, **kwargs):
        return self.fn(**kwargs)


_REGISTRY: Dict[str, FigureSpec] = {}


def figure(name: str, *, title: str = "", paper: bool = True,
           takes_benchmarks: bool = True) -> Callable:
    """Decorator that registers a figure harness under ``name`` and
    returns the function that runs it through ``run_many``.

    ``title`` defaults to the first line of the function's docstring.
    Duplicate names are a programming error and raise immediately.
    """
    def decorate(harness: Callable[..., Generator]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"figure {name!r} registered twice "
                             f"({_REGISTRY[name].source} and "
                             f"{harness.__module__})")

        @functools.wraps(harness)
        def fn(*args, **kwargs):
            points = harness(*args, **kwargs)
            grid = next(points)
            return finish(points, grid, run_many(grid.values()))

        doc_title = (harness.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = FigureSpec(
            name=name, fn=fn, harness=harness,
            title=title or (doc_title[0] if doc_title else name),
            source=harness.__module__, paper=paper,
            takes_benchmarks=takes_benchmarks)
        return fn
    return decorate


def finish(points: Generator, grid: Dict, results: Dict):
    """Send a harness the summaries of the ``grid`` it yielded
    (``results`` maps each key to its summary); returns its result."""
    try:
        points.send({label: results[key] for label, key in grid.items()})
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("a figure harness yields its grid once")


def ensure_loaded() -> None:
    """Import every figure-defining module (idempotent)."""
    for module in _FIGURE_MODULES:
        importlib.import_module(module)


def _sort_key(name: str) -> Tuple:
    """fig1 < fig2 < ... < fig21 < table2 < everything else, humanely."""
    match = re.fullmatch(r"fig(\d+)", name)
    if match:
        return (0, int(match.group(1)), name)
    if name.startswith("table"):
        return (1, 0, name)
    return (2, 0, name)


def names() -> Tuple[str, ...]:
    """Every registered figure name, naturally sorted."""
    ensure_loaded()
    return tuple(sorted(_REGISTRY, key=_sort_key))


def get(name: str) -> FigureSpec:
    """Resolve one registered figure; raises ``KeyError`` with the valid
    names on a miss."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; known: "
                       f"{' '.join(names())}") from None


def specs() -> Tuple[FigureSpec, ...]:
    """Every registered spec, in display order."""
    return tuple(_REGISTRY[name] for name in names())
