"""Seeded inputs of every workload: the dataset, the op streams, the sizes.

Everything here is a pure function of ``(workload, seed, seconds)``; the
program under test only ever sees what these functions generate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: ``repro build`` defaults: 100 000 uniform points, capacity 100.
DATASET_SIZE = 100_000
#: Side of the paper's 1% region query.
WINDOW_SIDE = 0.1
#: Warm-up window: the whole square, so it touches every page.
WARMUP_WINDOW = ((0.0, 0.0), (1.0, 1.0))

#: Per-request deadline the client asks for.  The server default (1 s)
#: is close to read p99 during a merge; a run must not fail on it.
DEADLINE_S = 30.0

#: Measured ops per second of ``--seconds``, fixed per workload: a run
#: sends a fixed op count, not ops for a fixed duration, so every run
#: does identical work.  At 10 s and the parent commit's speed:
#: read_pool sends 2 400 windows over two connections, about 9 s.
#: ingest_mixed's two merges take about 20 s together and slow the
#: foreground while they run; its 1 260 ops run on for about 15 s
#: after them, so only about a fifth of its reads overlap a merge and
#: the merges' varying length is a smaller share of the window.
OPS_PER_SECOND = {"read_pool": 240, "ingest_mixed": 126}

#: ingest_mixed op shares per block of 20 ops, shuffled within the block.
INGEST_BLOCK = (("search", 10), ("insert", 4), ("upsert", 3), ("delete", 3))
#: ingest_mixed requests a merge after every tenth of its writes is
#: acked, twice: the second queues behind the first, so the two merges
#: run back to back while foreground traffic continues.
MERGES = 2

WORKLOADS = tuple(OPS_PER_SECOND)

_TAG_WINDOWS, _TAG_INGEST = 1, 2


@dataclass(frozen=True)
class Op:
    """One client operation.  ``kind`` is ``search``, ``insert`` (new id or
    upsert) or ``delete``; ``rect`` is ``((lo...), (hi...))``."""

    kind: str
    rect: tuple | None = None
    data_id: int | None = None


@dataclass(frozen=True)
class Stream:
    """A workload's full input: measured ops, connection count, and the
    merge cadence in acked writes (0 = no merges; otherwise one merge at
    each of the first ``MERGES`` multiples)."""

    workload: str
    seed: int
    ops: tuple[Op, ...]
    connections: int
    merge_every: int = 0


def dataset(seed: int) -> np.ndarray:
    """The ``(n, 2)`` points ``repro build --seed <seed>`` loads, ids 0..n-1."""
    from repro.datasets import uniform_points

    return np.asarray(uniform_points(DATASET_SIZE, seed=seed).los)


def op_count(workload: str, seconds: float) -> int:
    """Measured ops for one run of ``workload`` at ``--seconds``."""
    return max(20, round(OPS_PER_SECOND[workload] * seconds))


def _windows(rng: np.random.Generator, count: int) -> list[Op]:
    """``count`` 1% windows, corners uniform over the unit square."""
    corners = rng.random((count, 2))
    uppers = np.minimum(corners + WINDOW_SIDE, 1.0)
    return [Op("search", (tuple(map(float, c)), tuple(map(float, u))))
            for c, u in zip(corners, uppers)]


def _point_rect(rng: np.random.Generator) -> tuple:
    p = tuple(float(x) for x in rng.random(2))
    return (p, p)


def _ingest_ops(seed: int, count: int) -> list[Op]:
    rng = np.random.default_rng([seed, _TAG_INGEST])
    alive = list(range(DATASET_SIZE))
    next_id = DATASET_SIZE
    block = [kind for kind, n in INGEST_BLOCK for _ in range(n)]
    ops: list[Op] = []
    while len(ops) < count:
        for kind in rng.permutation(block):
            if kind == "search":
                ops.extend(_windows(rng, 1))
            elif kind == "insert":
                ops.append(Op("insert", _point_rect(rng), next_id))
                alive.append(next_id)
                next_id += 1
            elif kind == "upsert":
                target = alive[int(rng.integers(len(alive)))]
                ops.append(Op("insert", _point_rect(rng), target))
            else:
                slot = int(rng.integers(len(alive)))
                alive[slot], alive[-1] = alive[-1], alive[slot]
                ops.append(Op("delete", None, alive.pop()))
    return ops[:count]


def make_stream(workload: str, seed: int, seconds: float) -> Stream:
    """The seeded input of one run."""
    count = op_count(workload, seconds)
    if workload == "read_pool":
        rng = np.random.default_rng([seed, _TAG_WINDOWS])
        return Stream(workload, seed, tuple(_windows(rng, count)),
                      connections=2)
    if workload == "ingest_mixed":
        ops = tuple(_ingest_ops(seed, count))
        writes = sum(op.kind != "search" for op in ops)
        return Stream(workload, seed, ops, connections=2,
                      merge_every=max(1, writes // 10))
    raise ValueError(f"unknown workload {workload!r}; choose one of "
                     f"{', '.join(WORKLOADS)}")
