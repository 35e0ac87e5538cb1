"""Synthetic SPEC95-like workloads with controlled value predictability."""
