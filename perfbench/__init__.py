"""End-to-end and per-layer benchmark of synchk; run it as ``python3 perfbench/run.py``."""
