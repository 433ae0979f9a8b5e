"""The ``repro-bench-v1`` document schema and its validator.

A bench document is one committed JSON file per host class
(``BENCH_linux-x86_64.json``) holding the full scenario suite of one
``repro bench`` invocation.  The schema is versioned and validated on
every load so a malformed or drifted baseline fails loudly in CI rather
than silently gating nothing.

Document layout::

    {
      "format":      "repro-bench-v1",
      "created_utc": "2026-08-07T12:00:00+00:00",
      "profile":     "quick" | "full",
      "host_class":  "linux-x86_64",
      "environment": {git_sha, python, implementation, platform,
                      machine, cpu_count},
      "config":      {...BenchConfig fields...},
      "scenarios": {
        "<name>": {
          "description":   "...",
          "ops":           2000,
          "elapsed_s":     1.23,
          "queries_per_s": 1626.0,
          "mean_accesses": 4.1,
          "latency_s":     {"mean", "p50", "p95", "p99", "max"},
          "io":            {"pages_read", "bytes_read",
                            "buffer_hits", "buffer_misses"},
          "self_time_s":   {"read", "decode", "walk", "other"},
          "tolerance":     {"queries_per_s_min_ratio",
                            "p99_max_ratio", "pages_read_rel"}
        }, ...
      }
    }

Tolerance bands are carried *in the baseline*: a diff run reads the
baseline's bands, so loosening a band is a reviewable change to the
committed file, not a CI knob.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone

from ..obs.manifest import git_sha

__all__ = [
    "BENCH_FORMAT",
    "BenchSchemaError",
    "host_class",
    "default_bench_name",
    "environment_fingerprint",
    "validate_bench",
    "load_bench",
    "write_bench",
]

BENCH_FORMAT = "repro-bench-v1"

#: Default tolerance bands: generous on wall-clock (CI hosts differ by
#: several x), exact on the deterministic I/O counts.
DEFAULT_TOLERANCE = {
    "queries_per_s_min_ratio": 0.1,
    "p99_max_ratio": 10.0,
    "pages_read_rel": 0.0,
}

#: Required percentile keys of every scenario's ``latency_s`` block.
LATENCY_KEYS = ("mean", "p50", "p95", "p99", "max")

#: Required keys of every scenario's ``io`` block.
IO_KEYS = ("pages_read", "bytes_read", "buffer_hits", "buffer_misses")

#: Required keys of every scenario's ``self_time_s`` block.
SELF_TIME_KEYS = ("read", "decode", "walk", "other")


class BenchSchemaError(ValueError):
    """A bench document failed schema validation."""


def host_class() -> str:
    """Coarse host bucket the baseline file is keyed by.

    OS plus CPU architecture (``linux-x86_64``): fine enough that the
    committed baseline and the CI runner land in the same bucket,
    coarse enough that every x86-64 Linux box shares one file.
    """
    machine = platform.machine().lower() or "unknown"
    return f"{sys.platform}-{machine}"


def default_bench_name() -> str:
    """``BENCH_<host-class>.json`` — the committed baseline's name."""
    return f"BENCH_{host_class()}.json"


def environment_fingerprint() -> dict:
    """Where these numbers came from: code revision + interpreter + box."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def created_utc_now() -> str:
    """ISO-8601 UTC timestamp for a freshly produced document."""
    return datetime.now(timezone.utc).isoformat()


def _require(block: dict, keys, where: str, errors: list[str]) -> None:
    for key in keys:
        if key not in block:
            errors.append(f"{where}: missing key {key!r}")


def _number(block: dict, key: str, where: str, errors: list[str],
            minimum: float | None = 0.0) -> None:
    value = block.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{where}.{key}: not a number ({value!r})")
        return
    if minimum is not None and value < minimum:
        errors.append(f"{where}.{key}: {value} < {minimum}")


def validate_bench(doc: object) -> list[str]:
    """Every schema violation in ``doc`` as human-readable strings.

    An empty list means the document is a valid ``repro-bench-v1``
    record; :func:`load_bench` raises :class:`BenchSchemaError` on any
    finding.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("format") != BENCH_FORMAT:
        errors.append(
            f"format is {doc.get('format')!r}, expected {BENCH_FORMAT!r}"
        )
    _require(doc, ("created_utc", "profile", "host_class", "environment",
                   "config", "scenarios"), "document", errors)
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        errors.append("scenarios: missing, empty, or not an object")
        return errors
    for name, sc in sorted(scenarios.items()):
        where = f"scenarios.{name}"
        if not isinstance(sc, dict):
            errors.append(f"{where}: not an object")
            continue
        _require(sc, ("description", "ops", "elapsed_s", "queries_per_s",
                      "latency_s", "io", "self_time_s", "tolerance"),
                 where, errors)
        if "ops" in sc and (not isinstance(sc["ops"], int)
                            or sc["ops"] < 1):
            errors.append(f"{where}.ops: {sc['ops']!r} is not a "
                          "positive integer")
        if "queries_per_s" in sc:
            _number(sc, "queries_per_s", where, errors)
        for block_name, keys in (("latency_s", LATENCY_KEYS),
                                 ("io", IO_KEYS),
                                 ("self_time_s", SELF_TIME_KEYS)):
            block = sc.get(block_name)
            if block is None:
                continue
            if not isinstance(block, dict):
                errors.append(f"{where}.{block_name}: not an object")
                continue
            _require(block, keys, f"{where}.{block_name}", errors)
            for key in keys:
                if key in block:
                    _number(block, key, f"{where}.{block_name}", errors)
        tolerance = sc.get("tolerance")
        if tolerance is not None and not isinstance(tolerance, dict):
            errors.append(f"{where}.tolerance: not an object")
    return errors


def load_bench(path: str | os.PathLike) -> dict:
    """Read and validate a bench document; raises on schema violations."""
    with open(os.fspath(path)) as f:
        doc = json.load(f)
    errors = validate_bench(doc)
    if errors:
        raise BenchSchemaError(
            f"{path}: invalid {BENCH_FORMAT} document:\n  "
            + "\n  ".join(errors)
        )
    return doc


def write_bench(doc: dict, path: str | os.PathLike) -> str:
    """Validate and write a bench document; returns the path."""
    errors = validate_bench(doc)
    if errors:
        raise BenchSchemaError(
            "refusing to write invalid bench document:\n  "
            + "\n  ".join(errors)
        )
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
