"""Answer oracle: numpy brute force over the generated records.

Read workloads compare every window answer with a scan of the dataset.
ingest_mixed rebuilds the logical state from the acked writes in stream
order and compares each read with a scan of the state at that point.
Merges do not change the logical state, so their timing cannot change
an expected answer.
"""

from __future__ import annotations

import numpy as np

from .streams import DATASET_SIZE, Op, Stream


class PointSet:
    """Live points by id; ``window`` answers closed-bound window queries
    the way ``RectArray.intersects_rect`` does for degenerate rects."""

    def __init__(self, points: np.ndarray, extra: int = 0):
        n = len(points)
        self.x = np.zeros(n + extra)
        self.y = np.zeros(n + extra)
        self.x[:n], self.y[:n] = points[:, 0], points[:, 1]
        self.alive = np.zeros(n + extra, dtype=bool)
        self.alive[:n] = True

    def window(self, rect: tuple) -> np.ndarray:
        (lx, ly), (hx, hy) = rect
        x, y = self.x, self.y
        mask = self.alive & (x >= lx) & (x <= hx) & (y >= ly) & (y <= hy)
        return np.flatnonzero(mask)

    def apply(self, op: Op) -> None:
        if op.kind == "insert":
            self.x[op.data_id], self.y[op.data_id] = op.rect[0]
            self.alive[op.data_id] = True
        else:
            self.alive[op.data_id] = False

    @property
    def live(self) -> int:
        return int(self.alive.sum())


def check(stream: Stream, points: np.ndarray, answers: list
          ) -> tuple[list[int], int]:
    """Indices of measured ops whose answer is wrong or missing, and the
    live record count after the stream.

    ``answers[i]`` is ``(ok, partial, ids)`` for op ``i`` (``ids`` sorted
    ascending, ``None`` for writes).  An error, a partial read, a wrong
    id set, or an unacked write is a failure; only acked writes enter
    the logical state.
    """
    inserts = sum(op.kind == "insert" and op.data_id >= DATASET_SIZE
                  for op in stream.ops)
    state = PointSet(points, extra=inserts)
    bad = []
    for i, (op, answer) in enumerate(zip(stream.ops, answers)):
        ok, partial, ids = answer
        if op.kind == "search":
            if not ok or partial or ids is None or not np.array_equal(
                    ids, state.window(op.rect)):
                bad.append(i)
        elif ok:
            state.apply(op)
        else:
            bad.append(i)
    return bad, state.live


def cover_count(points: np.ndarray, rect: tuple) -> int:
    """Records in the warm-up window (the warm-up ``count`` answer)."""
    return len(PointSet(points).window(rect))
