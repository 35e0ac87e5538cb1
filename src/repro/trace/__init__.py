"""Value-stream capture and replay.

One architectural run per (program, pipeline fingerprint) is recorded as
a compact trace — the dynamic block sequence plus the result values of
traced operations — and every downstream consumer (block/value
profiling, the dual-engine program simulation, all sweep points of an
ablation) reads that trace; none of them interprets the program.
"""
