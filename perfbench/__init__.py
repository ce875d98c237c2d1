"""Benchmark of the ``shardsim`` package; run it with ``python3 perfbench/run.py``."""
