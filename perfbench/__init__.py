"""The repository benchmark: two served workloads measured end to end,
plus a traced in-process replay for per-layer numbers.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
