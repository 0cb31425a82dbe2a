"""Benchmark harness for the repro hypercube package (see README.md)."""
