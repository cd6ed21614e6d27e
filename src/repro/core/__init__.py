"""Core models: single-thread OOO core with ROB-stall attribution, 2-way
SMT, and multi-core with shared LLC/DRAM."""
