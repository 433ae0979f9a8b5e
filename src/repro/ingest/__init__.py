"""Crash-safe streaming ingest: WAL-backed delta tree, packed∪delta
overlay queries, and kill-resumable background re-pack.

The packed trees this repo builds (the paper's STR packing) are
read-only by construction.  This package adds writes without giving
that up: every ``insert``/``delete`` is fsync'd to a write-ahead log
before it is acknowledged (:mod:`~repro.ingest.wal`), applied to a
small in-memory delta layer (:mod:`~repro.ingest.delta`), served as
``packed ∪ delta − tombstones`` (:mod:`~repro.ingest.overlay`), and
eventually re-packed into a fresh generation by a background merge
that survives SIGKILL at every write boundary
(:mod:`~repro.ingest.merge`).  :mod:`~repro.ingest.state` ties the
pieces to the query server.  See ``docs/ingest.md``.
"""

from .delta import DeltaTree
from .merge import (
    GenerationPointer,
    MergeReport,
    generation_path,
    merge_segments,
    read_pointer,
    resolve_current,
    sweep_drained,
)
from .overlay import OverlaySearcher
from .state import DEFAULT_WAL_LIMIT, IngestState
from .wal import (
    WAL_FORMAT,
    IngestError,
    WalCorrupt,
    WalOp,
    WalSegment,
    WriteAheadLog,
    ingest_dir,
    segment_name,
    segment_seq,
)

__all__ = [
    "DEFAULT_WAL_LIMIT",
    "DeltaTree",
    "GenerationPointer",
    "IngestError",
    "IngestState",
    "MergeReport",
    "OverlaySearcher",
    "WAL_FORMAT",
    "WalCorrupt",
    "WalOp",
    "WalSegment",
    "WriteAheadLog",
    "generation_path",
    "ingest_dir",
    "merge_segments",
    "read_pointer",
    "resolve_current",
    "segment_name",
    "segment_seq",
    "sweep_drained",
]
