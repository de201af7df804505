"""Benchmark of the LMFAO engine at 1.1M fact rows: see README.md."""
