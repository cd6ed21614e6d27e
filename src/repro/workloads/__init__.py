"""Workload generation: synthetic traces modelling the paper's nine
irregular memory-intensive benchmarks (SPEC CPU2017, PARSEC, Ligra)."""
