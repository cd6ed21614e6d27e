"""Experiment harness: one function per figure/table of the paper.

Figure regeneration routes through :mod:`repro.experiments.parallel`,
which memoises completed runs on disk and fans independent simulations
out over worker processes (see ``ParallelRunner`` / ``ResultCache``).
"""
