"""Project-specific lint rules.

Importing this package registers every rule with the engine's registry
(:func:`repro.lint.engine.register` runs at class-definition time).
Each module guards one invariant a previous PR introduced; see
``docs/static-analysis.md`` for the rule-by-rule contract.
"""

from __future__ import annotations

from . import (  # noqa: F401  (registration side effects)
    rl001_wallclock,
    rl003_counters,
    rl004_exceptions,
    rl005_async,
    rl006_pickle,
    rl007_sealed_wal,
    rl008_durability,
    rl009_await,
    rl010_resources,
    rl011_locks,
)

__all__ = [
    "rl001_wallclock",
    "rl003_counters",
    "rl004_exceptions",
    "rl005_async",
    "rl006_pickle",
    "rl007_sealed_wal",
    "rl008_durability",
    "rl009_await",
    "rl010_resources",
    "rl011_locks",
]
