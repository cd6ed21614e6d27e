"""Statistics collection: per-level counters, recall-distance tracking and
report formatting for the paper's figures and tables."""
