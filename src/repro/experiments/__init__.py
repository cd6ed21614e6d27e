"""Experiment harness: one generator per figure/table of the paper.

Every harness yields its grid of points once and reduces their
summaries (:mod:`repro.experiments.registry`).  A ``figure`` job of the
sweep service -- what ``repro figure`` submits -- drives the harness on
the service loop, each point a memoised, deduplicated child ``run``
job.  Called directly, the registry runs the grid through
:func:`repro.experiments.parallel.run_many`: serially in-process, or as
``run`` jobs of a service that ``serving()`` binds it to.
"""
