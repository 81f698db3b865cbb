"""The repository benchmark: four workloads, end-to-end metrics, and a
traced per-layer breakdown.  Run it with ``python3 perfbench/run.py``;
see ``perfbench/README.md``."""
