"""Experiment harness: one generator per figure/table of the paper.

Every harness yields its grid of points once and reduces their
summaries (:mod:`repro.experiments.registry`).  The registry runs the
grid through :func:`repro.experiments.parallel.run_many`: serially
in-process, or -- under ``repro figure`` -- as memoised, deduplicated
``run`` jobs of the sweep service, whose ``figure`` jobs submit the
same points as child ``run`` jobs.
"""
