"""Storage substrate: pages, page stores, buffer pool, I/O accounting,
and the opt-in durability layer (checksums, legacy journal replay, fault
injection, retry with jitter, circuit breaker)."""

from .breaker import CircuitBreaker
from .buffer import BufferPool, ClockPolicy, FIFOPolicy, LRUPolicy, make_policy
from .counters import IOStats
from .faults import (
    CrashPlan,
    FaultInjectingPageStore,
    FaultPlan,
    RetryPolicy,
    TransientIOError,
    flip_bit,
)
from .integrity import ChecksumError, IntegrityError, SuperblockError
from .journal import JournalError, WriteJournal, journal_has_records, journal_path
from .mmap_store import MmapPageStore
from .page import NodePage, decode_node, encode_node, required_page_size
from .store import (
    FilePageStore,
    MemoryPageStore,
    PageStore,
    SimulatedCrash,
    StoreError,
    StoreUnavailable,
)
from .striped import StripedPageStore

__all__ = [
    "BufferPool",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "make_policy",
    "IOStats",
    "NodePage",
    "encode_node",
    "decode_node",
    "required_page_size",
    "PageStore",
    "MemoryPageStore",
    "FilePageStore",
    "MmapPageStore",
    "StripedPageStore",
    "StoreError",
    "StoreUnavailable",
    "SimulatedCrash",
    "CircuitBreaker",
    "IntegrityError",
    "ChecksumError",
    "SuperblockError",
    "JournalError",
    "WriteJournal",
    "journal_path",
    "journal_has_records",
    "CrashPlan",
    "FaultPlan",
    "FaultInjectingPageStore",
    "RetryPolicy",
    "TransientIOError",
    "flip_bit",
]
