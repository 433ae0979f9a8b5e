"""Fault-tolerant sharded bulk loading.

The pipeline package parallelises the paper's General Algorithm across
worker processes without changing a single output byte: shards are
STR's own top-level slabs, workers replay the serial per-slab
recursion, and assembly reuses the serial upper-level packer.  Around
that determinism it adds the production machinery — staged inputs,
CRC-verified shard runs whose done records are their checkpoints,
heartbeat supervision with capped retries, typed :class:`PoisonShard`
failures, and ``resume`` that re-runs only the shards that do not
verify.

Entry points: :func:`parallel_bulk_load` (library) and
``python -m repro build`` (CLI).
"""

from .orchestrator import (
    PipelineError,
    PipelineReport,
    PoisonShard,
    parallel_bulk_load,
)
from .plan import BuildPlan, ResumeMismatch, make_plan
from .staging import StagingDir, StagingError
from .worker import InjectedWorkerFault

__all__ = [
    "BuildPlan",
    "InjectedWorkerFault",
    "ResumeMismatch",
    "PipelineError",
    "PipelineReport",
    "PoisonShard",
    "StagingDir",
    "StagingError",
    "make_plan",
    "parallel_bulk_load",
]
