"""Benchmark of the cache-synchronization simulator (see README.md)."""
