"""Benchmark of the TCSC serving runtime; see README.md."""
