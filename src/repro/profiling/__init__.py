"""Architectural execution and profiling (block frequency, value profiles)."""
