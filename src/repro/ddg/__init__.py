"""Data-dependence graphs and critical-path analysis."""
