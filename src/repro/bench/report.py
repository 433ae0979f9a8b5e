"""``repro report``: re-render, diff and prune stored run artefacts.

``results/runs/`` is the lab notebook: every profile, fsck, lint, build,
serve and bench invocation files a manifest there.  This module turns
that directory back into reviewable output without re-running anything:

* :func:`list_runs_table` — one row per run stem with its artefacts;
* :func:`render_manifest_text` — the timing-breakdown table, metric
  snapshot and extras of any stored manifest;
* :func:`diff_tables` — a labelled delta table between two manifests or
  two bench documents, with threshold-crossing highlights (bench
  tolerance bands gate CI; manifest diffs highlight ±25% moves);
* :func:`prune_runs` — retention (``--prune --keep N``) that removes
  whole run stems, never tearing one run's files apart.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from ..experiments.report import Table, timing_breakdown_table
from ..obs.export import RUN_EXTENSIONS
from ..obs.manifest import MANIFEST_FORMAT, RunManifest, load_manifest
from .schema import BENCH_FORMAT, BenchSchemaError, load_bench

__all__ = [
    "list_runs_table",
    "resolve_run_manifest",
    "render_manifest_text",
    "diff_tables",
    "prune_runs",
]

#: Manifest-diff highlight threshold: relative moves beyond this get a
#: ``!`` flag (informational — only bench tolerance bands gate CI).
MANIFEST_HIGHLIGHT_REL = 0.25


def _stem_of(filename: str) -> str | None:
    """The run stem of an artefact filename, or ``None`` if unrecognised.

    Longest-extension-first so ``x.trace.jsonl`` maps to stem ``x``,
    not ``x.trace``.
    """
    for ext in sorted(RUN_EXTENSIONS, key=len, reverse=True):
        if filename.endswith(ext):
            return filename[: -len(ext)]
    return None


def _runs_by_stem(run_dir: str | os.PathLike) -> dict[str, list[str]]:
    """Map ``stem -> [artefact paths]`` for every run in the directory."""
    run_dir = os.fspath(run_dir)
    groups: dict[str, list[str]] = {}
    if not os.path.isdir(run_dir):
        return groups
    for name in sorted(os.listdir(run_dir)):
        stem = _stem_of(name)
        if stem is not None:
            groups.setdefault(stem, []).append(
                os.path.join(run_dir, name)
            )
    return groups


def list_runs_table(run_dir: str | os.PathLike) -> Table:
    """One row per run stem: experiment, creation time, artefact kinds."""
    table = Table(
        title=f"runs in {os.fspath(run_dir)}",
        columns=("stem", "experiment", "created_utc", "duration_s",
                 "artefacts"),
    )
    for stem, paths in sorted(_runs_by_stem(run_dir).items()):
        manifest_path = os.path.join(os.fspath(run_dir), f"{stem}.json")
        experiment, created, duration = "?", "?", float("nan")
        if manifest_path in paths:
            try:
                manifest = load_manifest(manifest_path)
                experiment = manifest.experiment
                created = manifest.created_utc
                duration = manifest.duration_s
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                experiment = "(unreadable)"
        kinds = ",".join(sorted(
            os.path.basename(p)[len(stem):].lstrip(".") for p in paths
        ))
        table.add_row(stem, experiment, created, duration, kinds)
    if not table.rows:
        table.notes.append("no runs found")
    return table


def resolve_run_manifest(run_dir: str | os.PathLike,
                         target: str) -> str:
    """The manifest path for a run named by stem or by direct path."""
    if os.path.isfile(target):
        return target
    run_dir = os.fspath(run_dir)
    for candidate in (os.path.join(run_dir, target),
                      os.path.join(run_dir, f"{target}.json")):
        if os.path.isfile(candidate):
            return candidate
    known = ", ".join(sorted(_runs_by_stem(run_dir))) or "(none)"
    raise FileNotFoundError(
        f"no run {target!r} under {run_dir}; known stems: {known}"
    )


# -- manifest re-rendering ---------------------------------------------------


def _flatten_metrics(metrics: dict) -> dict[str, object]:
    """Manifest metrics as flat ``name{labels}[.stat] -> value`` pairs."""
    flat: dict[str, object] = {}
    for name, entries in sorted((metrics or {}).items()):
        for entry in entries:
            labels = entry.get("labels") or {}
            suffix = ("{" + ",".join(f"{k}={v}" for k, v in
                                     sorted(labels.items())) + "}"
                      if labels else "")
            key = f"{name}{suffix}"
            value = entry.get("value")
            if isinstance(value, dict):  # histogram summary
                for stat, v in sorted(value.items()):
                    flat[f"{key}.{stat}"] = v
            else:
                flat[key] = value
    return flat


def _metrics_table(manifest: RunManifest) -> Table:
    """The stored metric snapshot as a two-column table."""
    table = Table(title="Metrics", columns=("metric", "value"))
    for key, value in _flatten_metrics(manifest.metrics).items():
        table.add_row(key, value)
    if not table.rows:
        table.notes.append("no metrics recorded")
    return table


def render_manifest_text(manifest: RunManifest) -> str:
    """Re-render a stored manifest: header, timings, metrics, extras."""
    lines = [
        f"experiment:  {manifest.experiment}",
        f"created:     {manifest.created_utc}",
        f"git sha:     {manifest.git_sha or '(unknown)'}",
        f"duration:    {manifest.duration_s:.3f}s",
    ]
    if manifest.argv:
        lines.append(f"argv:        {' '.join(manifest.argv)}")
    for key, value in sorted((manifest.outputs or {}).items()):
        lines.append(f"output:      {key} = {value}")
    blocks = ["\n".join(lines)]
    if manifest.phases or manifest.spans:
        blocks.append(timing_breakdown_table(
            manifest.phases or {}, manifest.spans or {},
            title="Phase timing breakdown (from stored manifest)",
        ).render())
    if manifest.metrics:
        blocks.append(_metrics_table(manifest).render())
    for key, value in sorted((manifest.extra or {}).items()):
        blocks.append(
            f"extra[{key}]:\n"
            + json.dumps(value, indent=2, sort_keys=True)
        )
    return "\n\n".join(blocks) + "\n"


# -- diffing -----------------------------------------------------------------


def _fmt(value: object) -> object:
    """Round floats for diff-table cells; pass other values through."""
    if isinstance(value, float):
        return round(value, 6)
    return value


def _delta_cells(a: object, b: object) -> tuple[object, str, float | None]:
    """``(delta, pct_string, rel_change)`` for two metric values."""
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)):
        delta = b - a
        if a:
            rel = delta / a
            return _fmt(delta), f"{100.0 * rel:+.1f}%", rel
        return _fmt(delta), "n/a", None
    return "", "n/a", None


def _diff_bench(a: dict, b: dict) -> tuple[Table, list[str]]:
    """Scenario-by-scenario delta table; crossings per A's bands."""
    table = Table(
        title="bench diff (A = baseline, B = current)",
        columns=("scenario", "metric", "A", "B", "delta", "pct", "flag"),
    )
    crossings: list[str] = []
    comparable = (a.get("profile") == b.get("profile")
                  and a.get("config") == b.get("config"))
    if not comparable:
        table.notes.append(
            "profiles/configs differ — deltas are informational only, "
            "tolerance bands not applied"
        )
    metrics = (
        ("queries_per_s", ("queries_per_s",)),
        ("latency p50 s", ("latency_s", "p50")),
        ("latency p99 s", ("latency_s", "p99")),
        ("pages_read", ("io", "pages_read")),
        ("buffer_hits", ("io", "buffer_hits")),
        ("buffer_misses", ("io", "buffer_misses")),
        ("decode self s", ("self_time_s", "decode")),
        ("walk self s", ("self_time_s", "walk")),
    )

    def _get(doc: dict, scenario: str, path: tuple) -> object:
        node: object = doc["scenarios"].get(scenario, {})
        for key in path:
            if not isinstance(node, dict):
                return None
            node = node.get(key)
        return node

    names = sorted(set(a.get("scenarios", {})) | set(b.get("scenarios", {})))
    for name in names:
        in_a = name in a.get("scenarios", {})
        in_b = name in b.get("scenarios", {})
        if not (in_a and in_b):
            table.add_row(name, "(scenario)",
                          "present" if in_a else "missing",
                          "present" if in_b else "missing", "", "n/a",
                          "!")
            if comparable:
                crossings.append(f"{name}: scenario "
                                 + ("missing from B" if in_a
                                    else "new in B"))
            continue
        bands = a["scenarios"][name].get("tolerance") or {}
        for label, path in metrics:
            va, vb = _get(a, name, path), _get(b, name, path)
            delta, pct, rel = _delta_cells(va, vb)
            flag = ""
            if comparable and isinstance(va, (int, float)) \
                    and isinstance(vb, (int, float)):
                if path == ("queries_per_s",):
                    floor = bands.get("queries_per_s_min_ratio")
                    if floor is not None and vb < va * floor:
                        flag = "!"
                        crossings.append(
                            f"{name}: queries_per_s {vb:.1f} below "
                            f"band {va:.1f} x {floor}"
                        )
                elif path == ("latency_s", "p99"):
                    ceil = bands.get("p99_max_ratio")
                    if ceil is not None and va > 0 and vb > va * ceil:
                        flag = "!"
                        crossings.append(
                            f"{name}: p99 {vb:.6f}s above band "
                            f"{va:.6f}s x {ceil}"
                        )
                elif path[0] == "io":
                    # Page reads and buffer hits/misses share the access
                    # band: a walk that requests one page more crosses
                    # it even when the page hits.  |B - A| against
                    # tol * |A|, so a move off a zero baseline crosses
                    # any band.
                    tol = bands.get("pages_read_rel")
                    if tol is not None and abs(vb - va) > tol * abs(va):
                        flag = "!"
                        crossings.append(
                            f"{name}: {label} moved {va} -> {vb} "
                            f"(band ±{tol:.0%}) — access counts are "
                            "deterministic; this is a real change"
                        )
            table.add_row(name, label, _fmt(va), _fmt(vb), delta, pct,
                          flag)
    return table, crossings


def _diff_manifests(a: RunManifest, b: RunManifest
                    ) -> tuple[Table, list[str]]:
    """Phase/metric delta table between two stored run manifests."""
    table = Table(
        title=(f"manifest diff (A = {a.experiment}@{a.created_utc}, "
               f"B = {b.experiment}@{b.created_utc})"),
        columns=("metric", "A", "B", "delta", "pct", "flag"),
    )
    crossings: list[str] = []
    rows: list[tuple[str, object, object]] = [
        ("duration_s", a.duration_s, b.duration_s)
    ]
    phase_names = sorted(set(a.phases or {}) | set(b.phases or {}))
    for phase in phase_names:
        rows.append((
            f"phase.{phase}.wall_s",
            (a.phases or {}).get(phase, {}).get("wall_s"),
            (b.phases or {}).get(phase, {}).get("wall_s"),
        ))
    flat_a = _flatten_metrics(a.metrics)
    flat_b = _flatten_metrics(b.metrics)
    for key in sorted(set(flat_a) | set(flat_b)):
        rows.append((key, flat_a.get(key), flat_b.get(key)))
    for key, va, vb in rows:
        delta, pct, rel = _delta_cells(va, vb)
        flag = "!" if (rel is not None
                       and abs(rel) >= MANIFEST_HIGHLIGHT_REL) else ""
        table.add_row(key, _fmt(va), _fmt(vb), delta, pct, flag)
    table.notes.append(
        f"'!' flags relative moves beyond "
        f"{MANIFEST_HIGHLIGHT_REL:.0%} (informational)"
    )
    return table, crossings


def _load_doc(path: str) -> tuple[str, object]:
    """Classify and load a diffable document by its ``format`` key."""
    with open(path) as f:
        raw = json.load(f)
    fmt = raw.get("format") if isinstance(raw, dict) else None
    if fmt == BENCH_FORMAT:
        return "bench", load_bench(path)
    if fmt == MANIFEST_FORMAT:
        return "manifest", RunManifest.from_dict(raw)
    raise BenchSchemaError(
        f"{path}: format {fmt!r} is neither {BENCH_FORMAT!r} nor "
        f"{MANIFEST_FORMAT!r}"
    )


def diff_tables(path_a: str, path_b: str) -> tuple[Table, list[str]]:
    """Diff two stored documents (both manifests, or both bench docs).

    Returns the rendered delta :class:`Table` and the list of tolerance
    crossings — non-empty only for bench documents whose baseline bands
    were exceeded; CI turns a non-empty list into a failing exit code.
    """
    kind_a, doc_a = _load_doc(path_a)
    kind_b, doc_b = _load_doc(path_b)
    if kind_a != kind_b:
        raise BenchSchemaError(
            f"cannot diff a {kind_a} against a {kind_b} "
            f"({path_a} vs {path_b})"
        )
    if kind_a == "bench":
        return _diff_bench(doc_a, doc_b)
    return _diff_manifests(doc_a, doc_b)


# -- retention ---------------------------------------------------------------


def prune_runs(run_dir: str | os.PathLike, keep: int,
               dry_run: bool = False) -> list[str]:
    """Remove the oldest run stems beyond ``keep``; returns removed paths.

    Whole stems are removed atomically-per-run (every artefact sharing
    the stem goes together), newest-first survival by file modification
    time, so a run's manifest can never outlive its trace or vice versa.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    groups = _runs_by_stem(run_dir)

    def _newest(paths: Sequence[str]) -> float:
        return max(os.path.getmtime(p) for p in paths)

    ordered = sorted(groups.items(), key=lambda kv: _newest(kv[1]),
                     reverse=True)
    removed: list[str] = []
    for _, paths in ordered[keep:]:
        for path in paths:
            if not dry_run:
                os.remove(path)
            removed.append(path)
    return sorted(removed)
