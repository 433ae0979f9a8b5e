"""Offline consistency check for on-disk R-tree files: ``repro fsck``.

``fsck`` answers one question about a tree file: *can every byte of it be
trusted?*  It runs three phases, each strictly weaker failures short-cut:

1. **Open & recover** — locate the superblock (durable stores are
   self-describing), replay any intact records of a legacy write-journal
   sidecar, and refuse precisely when the file cannot be opened at all.
2. **Page scan** — read every committed page raw, verify its checksum
   trailer (durable stores), and decode it with the node codec.  Every
   failure is collected, not just the first.  Verified pages are counted
   per trailer (checksum) version, so an operator can see which files
   still verify on the slow version-1 path.  This is the only pass over
   the file: each page is read, verified and decoded once.
3. **Structural walk** — when all pages are intact, walk the decoded
   pages from the root and check the R-tree invariants (MBR
   containment, level monotonicity, child pointers inside the file,
   reference counts, record counts) plus reachability: a committed page
   the walk never reaches is reported as an orphan.

When the file has a streaming-ingest sidecar directory
(``<path>.ingest/``, see :mod:`repro.ingest`), a fourth phase verifies
it: every WAL segment is parsed record by record (CRC per record, seal
protocol, LSN monotonicity), classified ``sealed``/``active``/``torn``,
and checked against the directory invariant that only the
highest-numbered segment may be unsealed; the generation pointer, when
present, must parse, pass its CRC and name an existing file.  A torn
active tail is *reported but not an error* — it is exactly the un-acked
partial line a crash legally leaves and the next open discards.  Intact
WAL records are counted per format (checksum) version.

The result is an :class:`FsckReport` — renderable for terminals,
JSON-able for run manifests (the CLI embeds it under ``extra.fsck``).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

from .rtree.paged import PagedRTree
from .rtree.validate import iter_paged_violations
from .storage.integrity import (
    ChecksumError,
    IntegrityError,
    looks_like_superblock,
    trailer_info,
    verify_trailer,
)
from .storage.page import NodePage, PageFormatError, decode_node
from .storage.store import FilePageStore, StoreError

__all__ = [
    "FsckReport",
    "fsck",
    "QUARANTINE_FORMAT",
    "write_quarantine",
    "read_quarantine",
]

#: Format tag of the quarantine file ``repro fsck --quarantine`` writes
#: and ``repro serve --quarantine`` consumes.
QUARANTINE_FORMAT = "repro-quarantine-v1"


@dataclass
class FsckReport:
    """Everything ``fsck`` learned about one tree file."""

    path: str
    page_size: int = 0
    checksums: bool = False
    pages_checked: int = 0
    journal_recovered: bool = False
    recovered_pages: int = 0
    checksum_errors: list[str] = field(default_factory=list)
    decode_errors: list[str] = field(default_factory=list)
    structural_errors: list[str] = field(default_factory=list)
    #: Page ids whose bytes cannot be trusted (checksum or decode
    #: failures) — the set :func:`write_quarantine` exports for the
    #: serving layer to skip.
    bad_pages: list[int] = field(default_factory=list)
    #: Set when the file could not be checked at all (unopenable store,
    #: no committed tree).  A fatal report is never clean.
    fatal: str | None = None
    #: The committed tree header, when one exists.
    tree: dict | None = None
    #: Damage found in the ingest sidecar (``<path>.ingest/``): corrupt
    #: WAL records, seal-protocol violations, a bad generation pointer.
    wal_errors: list[str] = field(default_factory=list)
    #: Per-segment ingest summary, when a sidecar directory exists.
    ingest: dict | None = None
    #: Verified pages per trailer version (checksum format).
    trailer_versions: Counter[int] = field(default_factory=Counter)
    #: Intact WAL records per format version, across all segments.
    wal_versions: Counter[int] = field(default_factory=Counter)

    @property
    def error_count(self) -> int:
        return (len(self.checksum_errors) + len(self.decode_errors)
                + len(self.structural_errors) + len(self.wal_errors)
                + (1 if self.fatal else 0))

    @property
    def clean(self) -> bool:
        """True when every phase ran and found nothing wrong."""
        return self.error_count == 0

    def as_dict(self) -> dict:
        """JSON-able form (embedded in run manifests, CI artifacts)."""
        return {
            "path": self.path,
            "page_size": self.page_size,
            "checksums": self.checksums,
            "pages_checked": self.pages_checked,
            "journal_recovered": self.journal_recovered,
            "recovered_pages": self.recovered_pages,
            "checksum_errors": list(self.checksum_errors),
            "decode_errors": list(self.decode_errors),
            "structural_errors": list(self.structural_errors),
            "bad_pages": list(self.bad_pages),
            "fatal": self.fatal,
            "tree": dict(self.tree) if self.tree is not None else None,
            "wal_errors": list(self.wal_errors),
            "ingest": dict(self.ingest) if self.ingest is not None
            else None,
            "trailer_versions": _by_version(self.trailer_versions),
            "wal_versions": _by_version(self.wal_versions),
            "clean": self.clean,
        }

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"fsck {self.path}"]
        if self.fatal is not None:
            lines.append(f"  FATAL: {self.fatal}")
            return "\n".join(lines)
        lines.append(
            f"  page size {self.page_size}, "
            f"durability {'checksums' if self.checksums else 'none'}, "
            f"{self.pages_checked} pages scanned"
        )
        if self.trailer_versions:
            lines.append(
                f"  trailer versions: "
                f"{_render_versions(self.trailer_versions, 'page')}")
        if self.journal_recovered:
            lines.append(
                f"  journal: replayed {self.recovered_pages} page(s)"
            )
        if self.tree is not None:
            lines.append(
                f"  tree: height {self.tree['height']}, "
                f"root page {self.tree['root_page']}, "
                f"{self.tree['size']} records"
            )
        if self.ingest is not None:
            segments = self.ingest.get("segments", [])
            lines.append(
                f"  ingest: {len(segments)} WAL segment(s), "
                f"{self.ingest.get('pending_ops', 0)} pending op(s), "
                f"generation "
                f"{self.ingest.get('generation') or 'unmerged'}"
            )
            for seg in segments:
                lines.append(
                    f"    wal-{seg['seq']:08d}: {seg['state']}, "
                    f"{seg['ops']} op(s), last lsn {seg['last_lsn']}"
                )
            if self.wal_versions:
                lines.append(
                    f"    record versions: "
                    f"{_render_versions(self.wal_versions, 'record')}")
        for title, errors in (("checksum", self.checksum_errors),
                              ("decode", self.decode_errors),
                              ("structural", self.structural_errors),
                              ("wal", self.wal_errors)):
            for message in errors:
                lines.append(f"  {title}: {message}")
        if (self.checksum_errors or self.decode_errors) \
                and not self.structural_errors:
            lines.append("  structural walk skipped (broken pages)")
        lines.append("  clean" if self.clean
                     else f"  {self.error_count} error(s)")
        return "\n".join(lines)


def _by_version(counts: Counter[int]) -> dict[str, int]:
    """JSON form of a per-version count (string keys, sorted)."""
    return {str(version): counts[version] for version in sorted(counts)}


def _render_versions(counts: Counter[int], unit: str) -> str:
    return ", ".join(f"v{version} {counts[version]} {unit}(s)"
                     for version in sorted(counts))


def _load_sidecar(meta_path: str) -> dict:
    """Read a ``PagedRTree.save_meta`` sidecar (raises ValueError)."""
    with open(meta_path) as f:
        meta = json.load(f)
    if meta.get("format") != "repro-rtree-meta-v1":
        raise ValueError(f"{meta_path}: not a repro R-tree meta file")
    return meta


def fsck(path: str | os.PathLike, *, meta_path: str | os.PathLike | None = None,
         page_size: int | None = None) -> FsckReport:
    """Check the tree file at ``path``; never raises for file problems —
    every failure lands in the returned :class:`FsckReport`.

    Durable files (superblock present) need no other input: page size,
    flags and the tree header come from the file, and the intact records
    of a legacy journal sidecar are replayed first (the recovery is
    reported).  Plain page files need a ``meta_path`` sidecar (or an
    explicit ``page_size``) since nothing in the file describes it.

    A streaming-ingest sidecar directory (``<path>.ingest/``) is
    verified whenever one exists — even when the tree file itself is
    damaged, since the WAL may be the only surviving copy of recent
    writes.
    """
    report = _fsck_store(path, meta_path=meta_path, page_size=page_size)
    _check_ingest(os.fspath(path), report)
    return report


def _fsck_store(path: str | os.PathLike, *,
                meta_path: str | os.PathLike | None = None,
                page_size: int | None = None) -> FsckReport:
    """Phases 1-3: the page store and the packed tree inside it."""
    path = os.fspath(path)
    report = FsckReport(path=path)
    if not os.path.exists(path):
        report.fatal = "file does not exist"
        return report

    sidecar: dict | None = None
    if meta_path is not None:
        try:
            sidecar = _load_sidecar(os.fspath(meta_path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            report.fatal = f"cannot read meta sidecar: {exc}"
            return report

    with open(path, "rb") as f:
        durable = looks_like_superblock(f.read(4))

    store: FilePageStore | None = None
    try:
        if durable:
            # Self-describing: superblock supplies the layout, and a
            # legacy journal flag replays any crash-interrupted writes.
            store = FilePageStore.open_existing(path)
        else:
            if page_size is None and sidecar is not None:
                page_size = int(sidecar["page_size"])
            if page_size is None:
                report.fatal = ("no superblock and no page size — pass a "
                                "meta sidecar (--meta) or --page-size")
                return report
            store = FilePageStore(path, page_size)
    except (StoreError, IntegrityError, OSError) as exc:
        report.fatal = f"cannot open store: {exc}"
        return report

    try:
        report.page_size = store.page_size
        report.checksums = store.checksums
        report.journal_recovered = store.recoveries > 0
        report.recovered_pages = store.recovered_pages

        # -- phase 2 of 3: every committed page must verify and decode ----
        nodes: list[NodePage] = []
        for pid in range(store.page_count):
            image = store.raw_read(pid)
            payload = image
            if store.checksums:
                try:
                    payload = verify_trailer(image, pid, source=path)
                except ChecksumError as exc:
                    report.checksum_errors.append(str(exc))
                    report.bad_pages.append(pid)
                    continue
                report.trailer_versions[trailer_info(image)["version"]] += 1
            try:
                nodes.append(decode_node(payload, page_id=pid, source=path))
            except PageFormatError as exc:
                report.decode_errors.append(str(exc))
                report.bad_pages.append(pid)
        report.pages_checked = store.page_count

        # -- phase 3: the pages form a committed, well-shaped tree --------
        meta = store.tree_meta if durable else sidecar
        if meta is None:
            report.fatal = (
                "no tree metadata — the build never committed "
                "(crash before completion?); the file is not a usable tree"
            )
            return report
        report.tree = {k: int(meta[k]) for k in
                       ("height", "root_page", "ndim", "capacity", "size")}
        if report.checksum_errors or report.decode_errors:
            return report  # structural walk would chase broken pages
        if not 0 <= report.tree["root_page"] < store.page_count:
            report.structural_errors.append(
                f"root page {report.tree['root_page']} out of range "
                f"[0, {store.page_count})"
            )
            return report
        tree = PagedRTree(store, report.tree["root_page"],
                          height=report.tree["height"],
                          ndim=report.tree["ndim"],
                          capacity=report.tree["capacity"],
                          size=report.tree["size"])
        # Every page decoded above, so the walk reads nothing; the pages
        # it reaches are the reachable set.
        reached: set[int] = set()
        report.structural_errors.extend(
            iter_paged_violations(tree, nodes=nodes, reached=reached))
        report.structural_errors.extend(
            f"page {pid} is committed but unreachable from the root"
            for pid in range(store.page_count) if pid not in reached)
    except (StoreError, IntegrityError, PageFormatError) as exc:
        report.fatal = f"check aborted: {exc}"
    finally:
        try:
            # A check is read-only: flush (and its superblock commit)
            # only when opening actually replayed legacy journal pages —
            # otherwise the file's bytes stay untouched.
            store.close(flush=store.recoveries > 0)
        except (StoreError, OSError):  # pragma: no cover
            pass
    return report


def _check_ingest(path: str, report: FsckReport) -> None:
    """Phase 4: verify the streaming-ingest sidecar, if present.

    Fills ``report.ingest`` with a per-segment summary and appends to
    ``report.wal_errors`` for every violation: a record failing its
    CRC, damage before the torn tail, a broken seal, an unsealed
    segment below the active one, or an unreadable generation pointer.
    """
    from .ingest.merge import read_pointer
    from .ingest.wal import IngestError, WalCorrupt, WalSegment, \
        ingest_dir, segment_seq

    dir_path = ingest_dir(path)
    if not os.path.isdir(dir_path):
        return

    summary: dict = {"dir": dir_path, "segments": [],
                     "pending_ops": 0, "generation": None,
                     "merged_seq": 0}
    try:
        pointer = read_pointer(dir_path)
    except IngestError as exc:
        report.wal_errors.append(str(exc))
        pointer = None
    if pointer is not None:
        summary["generation"] = pointer.generation
        summary["merged_seq"] = pointer.merged_seq
        if not os.path.exists(pointer.path):
            report.wal_errors.append(
                f"generation pointer names missing file {pointer.path}")

    found: list[tuple[int, str]] = []
    for name in os.listdir(dir_path):
        seq = segment_seq(name)
        if seq is not None:
            found.append((seq, os.path.join(dir_path, name)))
    segments: list = []
    for seq, seg_path in sorted(found):
        try:
            segment = WalSegment.load(seg_path)
        except WalCorrupt as exc:
            report.wal_errors.append(str(exc))
            summary["segments"].append(
                {"seq": seq, "state": "corrupt", "ops": 0,
                 "last_lsn": 0, "bytes": os.path.getsize(seg_path)})
            continue
        segments.append(segment)
        report.wal_versions.update(segment.versions)
        state = ("sealed" if segment.sealed
                 else "active+torn" if segment.torn else "active")
        summary["segments"].append(
            {"seq": segment.seq, "state": state, "ops": len(segment.ops),
             "last_lsn": segment.last_lsn, "bytes": segment.size_bytes})
        if pointer is None or segment.seq > pointer.merged_seq:
            summary["pending_ops"] += len(segment.ops)
    for segment in segments[:-1]:
        if not segment.sealed:
            report.wal_errors.append(
                f"{segment.path}: unsealed segment below the active one "
                f"— the seal protocol was violated")
    report.ingest = summary


def write_quarantine(report: FsckReport, path: str | os.PathLike) -> str:
    """Write the report's untrustworthy page ids as a quarantine file.

    The file is a small JSON document (``repro-quarantine-v1``) the
    serving layer loads at startup (``repro serve --quarantine``): the
    listed subtrees are skipped without any I/O and every affected
    response is flagged ``partial`` — corrupt pages degrade queries
    instead of failing them.  An empty quarantine is valid (and is what
    a clean check writes).
    """
    path = os.fspath(path)
    payload = {
        "format": QUARANTINE_FORMAT,
        "source": report.path,
        "page_size": report.page_size,
        "pages_checked": report.pages_checked,
        "bad_pages": sorted(set(report.bad_pages)),
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def read_quarantine(path: str | os.PathLike) -> set[int]:
    """Load a quarantine file back into the set of bad page ids.

    Raises ``ValueError`` for files that are not quarantine files —
    feeding the server the wrong file must fail loudly, not silently
    skip page 0.
    """
    path = os.fspath(path)
    with open(path) as f:
        payload = json.load(f)
    if (not isinstance(payload, dict)
            or payload.get("format") != QUARANTINE_FORMAT):
        raise ValueError(f"{path}: not a {QUARANTINE_FORMAT} file")
    pages = payload.get("bad_pages")
    if (not isinstance(pages, list)
            or not all(isinstance(p, int) and not isinstance(p, bool)
                       and p >= 0 for p in pages)):
        raise ValueError(f"{path}: bad_pages must be a list of page ids")
    return set(pages)
