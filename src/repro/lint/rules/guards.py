"""Guarded-state annotation maps for the flow-sensitive rules.

RL009 (await-point atomicity) and RL011 (lock discipline) need to know
which attributes a module's concurrency protocol actually protects —
that is a *design* fact, not something inferable from the code.  This
module is the one place it is written down.  Adding an attribute to a
server (or a new mutating entry point on ``IngestState``) means adding
it here, at which point the linter machine-checks every touch point.

Keys are path fragments matched by containment against the
repo-relative file path, same as ``Rule.path_fragments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AWAIT_GUARDS", "AwaitGuard", "LOCK_GUARDS", "LockGuard"]


@dataclass(frozen=True)
class AwaitGuard:
    """RL009: state that must not straddle a suspension point.

    ``attrs`` are ``self.<attr>`` reads/writes that form check-then-act
    pairs; ``mutators`` maps method names that *act on* one of those
    attributes (``ingest.begin_merge()`` mutates ingest state as
    surely as ``self.ingest = x`` does) to the attribute they act on.
    """

    attrs: frozenset[str]
    mutators: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LockGuard:
    """RL011: attributes touched only inside ``with <lock>:``.

    ``lock`` is the unparsed context expression of the guarding lock;
    ``attrs`` are ``self.<attr>`` targets whose writes (and container
    mutations) require it; ``mutators`` maps lock-required method
    names to the ``self.<owner>`` attribute they are called on.
    """

    lock: str
    attrs: frozenset[str]
    mutators: dict[str, str] = field(default_factory=dict)


#: RL009 — per-file guarded state for await-atomicity checking.
AWAIT_GUARDS: dict[str, AwaitGuard] = {
    "repro/serve/server.py": AwaitGuard(
        attrs=frozenset({
            "pool", "ingest", "tree", "searcher", "generation",
            "breaker", "quarantine",
        }),
        # Initiation acts only: begin_merge/apply/write decide to
        # mutate based on previously read state, so a stale read is a
        # lost-update or double-begin.  finish_merge/abort_merge are
        # deliberately absent — they are ordered by the merge they
        # conclude, not by a pre-await read.
        mutators={
            "apply": "ingest",
            "begin_merge": "ingest",
            "_begin_merge_blocking": "ingest",
            "_write_blocking": "ingest",
        },
    ),
    "repro/serve/pool.py": AwaitGuard(
        attrs=frozenset({
            "_workers", "_inflight", "_closing", "_started",
        }),
    ),
}

#: RL011 — per-file lock-guarded attributes.
LOCK_GUARDS: dict[str, LockGuard] = {
    "repro/serve/server.py": LockGuard(
        lock="self._search_lock",
        attrs=frozenset({
            "tree", "searcher", "breaker", "quarantine",
            "quarantined_runtime", "generation", "generation_path",
            "reloads_total",
        }),
        # IngestState's merge lifecycle documents "call under the
        # search lock": readers must never see a half-frozen layer
        # stack or a searcher/layer mismatch.
        mutators={
            "apply": "ingest",
            "begin_merge": "ingest",
            "finish_merge": "ingest",
            "abort_merge": "ingest",
            "layers": "ingest",
        },
    ),
}
