"""Design-space exploration over declarative machine specs.

The :mod:`repro.explore` subsystem sweeps machine/speculation axes
(issue width, FU counts, latencies, buffer capacities, predictor
geometry, speculation threshold, ...) over the paper's evaluation
pipeline and reduces each point to a (hardware cost, speedup) pair
plus the resulting Pareto frontier.  ``repro-explore`` is the CLI.
"""
