"""Workloads, tracing and statistics for the hometwin benchmark (see ../README.md)."""
