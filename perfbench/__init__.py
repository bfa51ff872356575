"""Benchmark of hybridtherm; see README.md in this directory."""
