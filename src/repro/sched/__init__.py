"""Resource-constrained list scheduling for VLIW blocks."""
