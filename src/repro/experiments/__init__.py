"""Experiment harness: one function per figure/table of the paper.

Every harness asks for its points through
:func:`repro.experiments.parallel.run_many`: serially in-process, or --
under ``repro figure`` and in the sweep service's ``figure`` jobs -- as
memoised, deduplicated ``run`` jobs of the service.
"""
