"""Benchmark of the ingest -> seal -> forecast -> detect -> archive path.

Run ``python3 perfbench/run.py --help``; see :mod:`perfbench.run`.
"""
