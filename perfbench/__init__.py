"""Benchmark of the mwetag pipeline; run it with ``python3 perfbench/run.py``."""
