"""Command-line interface: regenerate any paper table or figure.

Examples
--------
Run the quick profile of Table 2::

    python -m repro table2 --quick

Paper-exact Table 5 with CSV output::

    python -m repro table5 --csv > table5.csv

Emit the Figure 2-4 SVG plots into a directory::

    python -m repro fig234 --out-dir figures/

Profile an experiment — phase timing breakdown, JSONL span trace and a
run manifest under ``results/runs/``::

    python -m repro profile table2 --quick

Any experiment can also emit telemetry without the breakdown table::

    python -m repro table5 --trace-out t5.trace.jsonl --metrics-out t5.json

Build a durable tree across worker processes, survive a ``kill -9``::

    python -m repro build tree.rt --size 1000000 --workers 8
    python -m repro build tree.rt --size 1000000 --workers 8 --resume

Check a file offline, then serve it with live generation reloads::

    python -m repro fsck tree.rt
    python -m repro serve tree.rt --allow-reload

Statically check the determinism/durability/async contracts::

    python -m repro lint
    python -m repro lint src/repro/serve --format json

Run the pinned performance suite and diff against the committed
baseline (see ``docs/benchmarking.md``)::

    python -m repro bench --quick --out /tmp/bench.json
    python -m repro report --diff BENCH_linux-x86_64.json /tmp/bench.json

Re-render stored runs, export traces, enforce retention::

    python -m repro report
    python -m repro report bench-20260807T104411
    python -m repro report bench-20260807T104411 --chrome-trace out.json
    python -m repro report bench-20260807T104411 --flamegraph out.folded
    python -m repro report --prune --keep 20

List everything available::

    python -m repro list
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from typing import Callable

from . import obs
from .experiments import cfd_tables, gis_tables, synthetic_tables, vlsi_tables
from .experiments.config import DEFAULT_CONFIG, ExperimentConfig
from .experiments.report import Table, series_table, timing_breakdown_table

__all__ = ["main", "EXPERIMENTS"]


# name -> (callable(config) -> Table | list[Series] | dict[str, str], help)
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "table1": (synthetic_tables.table1,
               "percent of R-tree held by buffer (synthetic)"),
    "table2": (synthetic_tables.table2,
               "disk accesses, synthetic data, buffer=10"),
    "table3": (synthetic_tables.table3,
               "disk accesses, synthetic data, buffer=250"),
    "table4": (synthetic_tables.table4,
               "areas and perimeters, synthetic data"),
    "table5": (gis_tables.table5,
               "disk accesses, Long Beach data, buffer sweep"),
    "table6": (gis_tables.table6, "areas and perimeters, Long Beach data"),
    "table7": (vlsi_tables.table7, "disk accesses, VLSI data, buffer sweep"),
    "table8": (vlsi_tables.table8, "areas and perimeters, VLSI data"),
    "table9": (cfd_tables.table9, "disk accesses, CFD data, buffer sweep"),
    "table10": (cfd_tables.table10, "areas and perimeters, CFD data"),
    "fig7": (synthetic_tables.figure7,
             "accesses vs size, point queries, buffer 10"),
    "fig8": (synthetic_tables.figure8,
             "accesses vs size, point queries, buffer 250"),
    "fig9": (synthetic_tables.figure9,
             "accesses vs size, 1% region queries, buffer 10"),
    "fig10": (gis_tables.figure10,
              "accesses vs buffer, point queries, Long Beach"),
    "fig11": (vlsi_tables.figure11,
              "accesses vs buffer, point/region queries, VLSI"),
    "fig12": (cfd_tables.figure12,
              "accesses vs buffer, point queries, CFD"),
    "fig234": (gis_tables.figures_2_3_4,
               "leaf MBR SVG plots, Long Beach, NX/HS/STR"),
    "fig56": (lambda config: cfd_tables.figures_5_6(seed=config.seed),
              "CFD dataset scatter SVGs (full + center zoom)"),
    "ext-warmup": (lambda config: _ext_warmup(config),
                   "extension: LRU warm-up transient curve"),
    "ext-parallel": (lambda config: _ext_parallel(config),
                     "extension: parallel shared-nothing declustering"),
    "ext-dynamic": (lambda config: _ext_dynamic(config),
                    "extension: packed vs Guttman vs R* builds"),
    "ext-costmodel": (lambda config: _ext_costmodel(config),
                      "extension: area/perimeter cost model validation"),
}


def _ext_warmup(config: ExperimentConfig):
    from .datasets import uniform_points
    from .experiments.extensions import warmup_curve
    from .queries import point_queries
    from .rtree.bulk import bulk_load
    from .core.packing.registry import make_algorithm

    points = uniform_points(max(config.sizes), seed=config.seed)
    tree, _ = bulk_load(points, make_algorithm("STR"),
                        capacity=config.capacity)
    workload = point_queries(config.query_count,
                             seed=config.workload_seed("warmup"))
    return [warmup_curve(tree, workload, buffer_pages=100)]


def _ext_parallel(config: ExperimentConfig):
    from .datasets import uniform_points
    from .experiments.extensions import parallel_speedup_table

    points = uniform_points(min(50_000, max(config.sizes)),
                            seed=config.seed)
    return parallel_speedup_table(points, capacity=config.capacity,
                                  query_count=min(config.query_count, 500))


def _ext_dynamic(config: ExperimentConfig):
    from .datasets import uniform_points
    from .experiments.extensions import packed_vs_dynamic_table

    points = uniform_points(min(5_000, max(config.sizes)),
                            seed=config.seed).centers()
    return packed_vs_dynamic_table(points,
                                   query_count=min(config.query_count, 300))


def _ext_costmodel(config: ExperimentConfig):
    from .datasets import uniform_points
    from .experiments.extensions import cost_model_table

    points = uniform_points(min(50_000, max(config.sizes)),
                            seed=config.seed)
    return cost_model_table(points,
                            query_count=min(config.query_count, 400))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="str-repro",
        description=("Reproduce tables/figures from 'STR: A Simple and "
                     "Efficient Algorithm for R-Tree Packing' (ICDE 1997)"),
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["list", "all",
                                                       "profile", "fsck",
                                                       "serve", "build",
                                                       "lint", "bench",
                                                       "report"],
                        help="which table/figure to regenerate, "
                             "'profile <experiment>' for a telemetered run, "
                             "'fsck <tree-file>' to check a page file, "
                             "'serve <tree-file>' to serve queries from it, "
                             "'build <tree-file>' for a parallel, "
                             "resumable bulk load into a durable file, "
                             "'lint [path]' to check the invariant "
                             "contracts statically, "
                             "'bench' to run the pinned performance suite, "
                             "or 'report [run]' to re-render, diff or "
                             "prune stored runs")
    parser.add_argument("target", nargs="?", default=None,
                        help="experiment to profile (with 'profile'), "
                             "tree file (with 'fsck' / 'serve' / 'build'), "
                             "path to check (with 'lint'; default src), "
                             "or run stem / manifest path (with 'report')")
    parser.add_argument("--meta", default=None, metavar="PATH",
                        help="fsck/serve: tree meta sidecar for plain "
                             "page files")
    parser.add_argument("--page-size", type=int, default=None,
                        help="fsck/serve: page size for plain page files "
                             "without a sidecar")
    parser.add_argument("--quarantine", default=None, metavar="PATH",
                        help="fsck: write bad page ids here as a "
                             "quarantine file; serve: load one and skip "
                             "those subtrees (responses become partial)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve: interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9736,
                        help="serve: TCP port (default 9736; 0 = ephemeral)")
    parser.add_argument("--buffer-pages", type=int, default=64,
                        help="serve: buffer-pool size in pages (default 64)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="serve: concurrent queries before queueing "
                             "(default 8)")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="serve: queued queries before shedding with "
                             "Overloaded (default 16)")
    parser.add_argument("--deadline-s", type=float, default=1.0,
                        help="serve: default per-query deadline in seconds "
                             "(default 1.0)")
    parser.add_argument("--allow-reload", action="store_true",
                        help="serve: accept 'reload' admin requests that "
                             "fsck-verify a new tree file and cut over to "
                             "it with zero downtime")
    parser.add_argument("--ingest", action="store_true",
                        help="serve: accept durable insert/delete writes "
                             "(fsync'd WAL in <tree-file>.ingest/, acked "
                             "before visible, packed-union-delta queries) "
                             "and the 'merge' admin op that re-packs the "
                             "WAL into a new generation with zero "
                             "downtime")
    parser.add_argument("--wal-limit-bytes", type=int, default=None,
                        help="serve: with --ingest, un-merged WAL bytes "
                             "before writes shed with IngestOverloaded "
                             "(default 64 MiB)")
    parser.add_argument("--size", type=int, default=100_000,
                        help="build: number of uniform points to load "
                             "(default 100000; deterministic in --seed)")
    parser.add_argument("--capacity", type=int, default=100,
                        help="build: entries per node (default 100)")
    parser.add_argument("--workers", type=int, default=None,
                        help="build: worker processes; 0 runs shards "
                             "inline (default 2). serve/bench: "
                             "crash-isolated query worker processes "
                             "sharing the tree read-only via mmap; 0 "
                             "serves in-process (default 0)")
    parser.add_argument("--staging", default=None, metavar="DIR",
                        help="build: staging directory for shard runs and "
                             "done records (default: <tree-file>.staging)")
    parser.add_argument("--resume", action="store_true",
                        help="build: resume from an existing staging "
                             "directory, re-running only shards whose done "
                             "record or run files do not verify")
    parser.add_argument("--keep-staging", action="store_true",
                        help="build: keep the staging directory after a "
                             "successful build (debugging/CI artifacts)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="build: attempts per shard before the build "
                             "fails with a typed PoisonShard (default 3)")
    parser.add_argument("--worker-deadline-s", type=float, default=30.0,
                        help="build: heartbeat staleness deadline before a "
                             "worker is declared hung (default 30)")
    parser.add_argument("--throttle-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)  # test hook: slow shards
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="lint_format",
                        help="lint: findings as an aligned text report "
                             "(default) or a JSON document")
    parser.add_argument("--rules", default=None, metavar="RL00X[,RL00Y]",
                        help="lint: run only these rule ids (comma-"
                             "separated) — lets CI bisect a slow or "
                             "noisy rule")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="lint: baseline file of grandfathered "
                             "findings (default: lint-baseline.json if "
                             "present; the committed one is empty and "
                             "stays empty)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="lint: rewrite the baseline file to accept "
                             "every current finding, then exit 0")
    parser.add_argument("--manifest", action="store_true",
                        help="lint: record the findings as a run manifest "
                             f"under {obs.DEFAULT_RUN_DIR} so lint results "
                             "live beside benchmark runs")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="bench: write the bench document here "
                             "(default: BENCH_<host-class>.json)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", dest="scenarios",
                        help="bench: run only this scenario (repeatable; "
                             "'build' is always included)")
    parser.add_argument("--diff", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="report: delta table between two bench "
                             "documents or two run manifests; exits 1 on "
                             "tolerance-band crossings")
    parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                        dest="chrome_trace",
                        help="report: convert the run's span trace to "
                             "Chrome trace-event JSON (load in "
                             "chrome://tracing or Perfetto)")
    parser.add_argument("--flamegraph", default=None, metavar="PATH",
                        help="report: convert the run's span trace to "
                             "collapsed-stack format (pipe to "
                             "flamegraph.pl)")
    parser.add_argument("--prune", action="store_true",
                        help="report: delete the oldest run stems beyond "
                             "--keep (whole runs at a time, every sibling "
                             "artefact together)")
    parser.add_argument("--keep", type=int, default=20,
                        help="report --prune: run stems to retain "
                             "(default 20)")
    parser.add_argument("--quick", action="store_true",
                        help="small fast profile (same shapes, smaller "
                             "cells); bench: the CI-sized suite profile")
    parser.add_argument("--queries", type=int, default=None,
                        help="override queries per cell (paper: 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of an aligned table")
    parser.add_argument("--svg", action="store_true",
                        help="render figure series as an SVG line chart "
                             "(figures only; requires --out-dir)")
    parser.add_argument("--out-dir", default=None,
                        help="write output files (SVGs, .txt tables) here")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a JSONL span trace here "
                             "(enables telemetry)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a metrics-registry JSON snapshot here "
                             "(enables telemetry)")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="directory for run manifests/traces "
                             f"(default: {obs.DEFAULT_RUN_DIR})")
    parser.add_argument("--no-manifest", action="store_true",
                        help="suppress the run-manifest JSON")
    return parser


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.quick() if args.quick else DEFAULT_CONFIG
    overrides = {"seed": args.seed}
    if args.queries is not None:
        overrides["query_count"] = args.queries
    return config.scaled(**overrides)


def _emit(name: str, result, args: argparse.Namespace) -> None:
    if isinstance(result, dict):  # SVG bundles
        out_dir = args.out_dir if args.out_dir is not None else "."
        os.makedirs(out_dir, exist_ok=True)
        for key, svg in result.items():
            path = os.path.join(out_dir, f"{name}_{key}.svg")
            with open(path, "w") as f:
                f.write(svg)
            print(f"wrote {path}")
        return
    if isinstance(result, list) and args.svg:
        from .viz.linechart import line_chart_svg

        out_dir = args.out_dir if args.out_dir is not None else "."
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.svg")
        with open(path, "w") as f:
            f.write(line_chart_svg(result, title=name,
                                   x_label="x", y_label="disk accesses"))
        print(f"wrote {path}")
        return
    table = (series_table(name, result) if isinstance(result, list)
             else result)
    text = table.to_csv() if args.csv else table.render()
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        ext = "csv" if args.csv else "txt"
        path = os.path.join(args.out_dir, f"{name}.{ext}")
        with open(path, "w") as f:
            f.write(text)
        print(f"wrote {path}")
    else:
        print(text)


def _emit_telemetry(name: str, tracer, registry, config, args,
                    argv: list[str], duration_s: float,
                    profile_mode: bool) -> None:
    """Profile-mode breakdown table + trace/metrics/manifest files."""
    if profile_mode:
        print(timing_breakdown_table(
            tracer.phase_summary(), tracer.summary(),
            title=f"Phase timing breakdown: {name}",
        ).render())

    run_dir = args.run_dir if args.run_dir is not None else obs.DEFAULT_RUN_DIR
    manifest = obs.RunManifest.collect(
        name, config=config, argv=argv, duration_s=duration_s,
        tracer=tracer, registry=registry,
    )
    # One collision-free stem for all of this run's files, so same-second
    # runs never overwrite each other's trace.
    stem = obs.unique_run_stem(manifest, run_dir)
    trace_path = (args.trace_out if args.trace_out is not None
                  else os.path.join(run_dir, f"{stem}.trace.jsonl"))
    manifest.outputs["trace_jsonl"] = obs.write_trace_jsonl(
        tracer, trace_path
    )
    print(f"wrote {trace_path}")
    if args.metrics_out is not None:
        manifest.outputs["metrics_json"] = obs.write_metrics_json(
            registry, args.metrics_out
        )
        print(f"wrote {args.metrics_out}")
    if not args.no_manifest:
        manifest_path = obs.write_manifest(manifest, run_dir, stem=stem)
        print(f"wrote {manifest_path}")


def _run_fsck(args: argparse.Namespace, argv: list[str]) -> int:
    """``repro fsck <tree-file>``: check the file, print the report, and
    record it as a run manifest (the lab-notebook trail CI archives)."""
    from .fsck import fsck, write_quarantine

    start = time.time()
    report = fsck(args.target, meta_path=args.meta,
                  page_size=args.page_size)
    print(report.render())
    if args.quarantine is not None:
        # Even a clean check writes the (empty) file, so `fsck` then
        # `serve --quarantine` composes unconditionally.
        path = write_quarantine(report, args.quarantine)
        print(f"wrote {path} ({len(set(report.bad_pages))} quarantined "
              f"page(s))")
    if not args.no_manifest:
        run_dir = (args.run_dir if args.run_dir is not None
                   else obs.DEFAULT_RUN_DIR)
        manifest = obs.RunManifest.collect(
            "fsck", argv=argv, duration_s=time.time() - start,
            extra={"fsck": report.as_dict()},
        )
        path = obs.write_manifest(manifest, run_dir)
        print(f"wrote {path}")
    return 0 if report.clean else 1


def _open_tree(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Map the tree at ``args.target`` (durable or sidecar-described)
    read-only for serving; a legacy journal is replayed first."""
    from .rtree.paged import PagedRTree
    from .storage.integrity import looks_like_superblock
    from .storage.mmap_store import MmapPageStore

    with open(args.target, "rb") as f:
        durable = looks_like_superblock(f.read(4))
    if durable:
        store = MmapPageStore.open_existing(args.target)
        return PagedRTree.from_store(store)
    if args.meta is None:
        parser.error(f"{args.target} has no superblock — pass the tree "
                     f"meta sidecar with --meta")
    page_size = args.page_size
    if page_size is None:
        import json as _json
        with open(args.meta) as f:
            page_size = int(_json.load(f)["page_size"])
    store = MmapPageStore(args.target, page_size)
    return PagedRTree.open(store, args.meta)


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser,
               argv: list[str]) -> int:
    """``repro serve <tree-file>``: serve queries until interrupted.

    A graceful shutdown (SIGINT) snapshots the server's ``stats``
    payload into a run manifest under the run directory, so every
    serving session leaves the same lab-notebook record as a benchmark
    or lint run.
    """
    import asyncio

    from .fsck import read_quarantine
    from .serve import QueryServer

    start = time.time()
    ingest_state = None
    if args.ingest:
        # A committed merge may have moved the serving generation into
        # the sidecar directory; serve that file, not the original.
        from .ingest import DEFAULT_WAL_LIMIT, IngestState, resolve_current

        current, _pointer = resolve_current(args.target)
        opened = argparse.Namespace(**vars(args))
        opened.target = current
        tree = _open_tree(opened, parser)
        ingest_state, _base = IngestState.open(
            args.target, ndim=tree.ndim,
            max_wal_bytes=(args.wal_limit_bytes
                           if args.wal_limit_bytes is not None
                           else DEFAULT_WAL_LIMIT))
    else:
        tree = _open_tree(args, parser)
    quarantine = None
    if args.quarantine is not None:
        quarantine = read_quarantine(args.quarantine)
    workers = args.workers if args.workers is not None else 0
    if args.ingest and workers:
        # Pool workers mmap the packed file and cannot see the delta;
        # an ingest server answers in-process so reads never miss
        # unmerged acked writes.
        print("--ingest serves in-process; ignoring --workers",
              file=sys.stderr)
        workers = 0
    server = QueryServer(
        tree,
        buffer_pages=args.buffer_pages,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_s=args.deadline_s,
        quarantine=quarantine,
        allow_reload=args.allow_reload,
        workers=workers,
        ingest=ingest_state,
    )

    async def _serve() -> None:
        host, port = await server.start(args.host, args.port)
        pool_note = ""
        if workers:
            if server.pool is not None:
                pool_note = (f", {server.pool.workers_live}/{workers} "
                             f"worker process(es)")
            else:
                pool_note = (f", in-process fallback "
                             f"({server.pool_start_error})")
        ingest_note = ""
        if ingest_state is not None:
            ingest_note = (f", ingest on (wal lsn "
                           f"{ingest_state.wal.last_lsn}, "
                           f"{len(ingest_state.live)} live delta "
                           f"record(s))")
        print(f"serving {args.target} on {host}:{port} "
              f"({len(tree)} records, height {tree.height}, "
              f"{len(server.quarantine)} quarantined page(s)"
              f"{pool_note}{ingest_note})",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    if not args.no_manifest:
        run_dir = (args.run_dir if args.run_dir is not None
                   else obs.DEFAULT_RUN_DIR)
        manifest = obs.RunManifest.collect(
            "serve", argv=argv, duration_s=time.time() - start,
            extra={"serve": server.stats_snapshot()},
        )
        path = obs.write_manifest(manifest, run_dir)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _run_lint(args: argparse.Namespace, argv: list[str]) -> int:
    """``repro lint [path]``: statically check the invariant contracts.

    Exit codes: 0 clean (every finding suppressed or baselined, and no
    baseline drift), 1 new findings or stale baseline entries, 2 usage
    errors.  ``--manifest`` files the report as a run manifest so a
    directory of runs shows lint verdicts beside benchmark numbers.
    """
    from .lint import Baseline, DEFAULT_BASELINE, LintEngine
    from .lint.engine import all_rules

    start = time.time()
    paths = [args.target if args.target is not None else "src"]
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    baseline = (Baseline.load(baseline_path) if baseline_path
                else Baseline())
    rules = None
    if args.rules:
        wanted = {part.strip().upper() for part in args.rules.split(",")
                  if part.strip()}
        by_id = {rule.id: rule for rule in all_rules()}
        unknown = sorted(wanted - by_id.keys())
        if unknown:
            print(f"repro lint: unknown rule id(s): "
                  f"{', '.join(unknown)} (known: "
                  f"{', '.join(sorted(by_id))})", file=sys.stderr)
            return 2
        rules = [by_id[rule_id] for rule_id in sorted(wanted)]
    engine = LintEngine(rules, baseline=baseline)
    report = engine.run(paths)

    if args.write_baseline:
        out = (args.baseline if args.baseline is not None
               else DEFAULT_BASELINE)
        all_found = report.findings + report.baselined
        stale = len(report.stale_baseline)
        path = Baseline.from_findings(all_found).write(out)
        print(f"wrote {path} ({len(all_found)} finding(s) baselined, "
              f"{stale} stale key(s) pruned)")
        return 0

    if args.lint_format == "json":
        print(report.to_json())
    else:
        print(report.render())
    if args.manifest:
        run_dir = (args.run_dir if args.run_dir is not None
                   else obs.DEFAULT_RUN_DIR)
        manifest = obs.RunManifest.collect(
            "lint", argv=argv, duration_s=time.time() - start,
            extra={"lint": report.as_dict()},
        )
        path = obs.write_manifest(manifest, run_dir)
        print(f"wrote {path}")
    return 0 if report.clean and not report.stale_baseline else 1


def _run_build(args: argparse.Namespace, argv: list[str]) -> int:
    """``repro build <tree-file>``: parallel, resumable bulk load.

    Deterministic in ``--size``/``--seed``/``--capacity``: any worker
    count (and any number of kill/resume cycles) produces the same
    durable file as a serial ``bulk_load`` of the same input.  Exit
    codes: 0 built; 1 the staging directory was refused — a fresh build
    over an existing plan (``PipelineError``), a missing, corrupt or
    foreign plan on ``--resume`` (``ResumeMismatch``) or an unusable
    staged input (``StagingError``); 2 a shard was poisoned
    (``PoisonShard``); 130 (128 + SIGINT) the build was interrupted
    (Ctrl-C) before the tree was published, and ``--resume`` finishes
    it once a plan was staged.  Staging is kept either way, every failure
    prints one ``build failed: ...`` line on stderr, and the target
    file is replaced only by a committed tree: the build writes
    ``<target>.partial`` and publishes it once it is done, so a refused
    or failed build leaves the old tree as it was.
    """
    from .datasets import uniform_points
    from .pipeline import (
        PipelineError,
        PoisonShard,
        ResumeMismatch,
        StagingError,
        parallel_bulk_load,
    )
    from .pipeline.staging import publish_file
    from .storage.integrity import TRAILER_SIZE
    from .storage.journal import journal_path
    from .storage.page import required_page_size
    from .storage.store import FilePageStore

    start = time.time()
    # --workers is shared with serve/bench; the build default is 2.
    if args.workers is None:
        args.workers = 2
    points = uniform_points(args.size, seed=args.seed)
    page_size = required_page_size(args.capacity, points.ndim) + TRAILER_SIZE
    staging = (args.staging if args.staging is not None
               else f"{args.target}.staging")
    # The tree is assembled beside the target; a leftover from a killed
    # earlier run is dead weight.
    partial = f"{args.target}.partial"
    if os.path.exists(partial):
        os.remove(partial)
    store = FilePageStore(partial, page_size, checksums=True)
    try:
        tree, report = parallel_bulk_load(
            points,
            capacity=args.capacity,
            store=store,
            staging_path=staging,
            workers=args.workers,
            resume=args.resume,
            deadline_s=args.worker_deadline_s,
            max_attempts=args.max_attempts,
            throttle_s=args.throttle_s,
            keep_staging=True,
        )
        store.close()
        # Publish before dropping the staging: a kill in between leaves
        # a staging directory that --resume completes from.
        publish_file(partial, args.target)
    except (PipelineError, ResumeMismatch, StagingError) as exc:
        store.close()
        os.remove(partial)
        print(f"build failed: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, PoisonShard) else 1
    except KeyboardInterrupt:
        store.close()
        if os.path.exists(partial):
            os.remove(partial)
        # Only a staged plan can be resumed.
        if os.path.exists(os.path.join(staging, "plan.json")):
            hint = (f"staging kept at {staging}, rerun with --resume to "
                    "finish the build")
        else:
            hint = "no plan was staged yet, rerun the build without --resume"
        print(f"build failed: interrupted; {hint}", file=sys.stderr)
        return 130
    # A journal sidecar an older version left beside the old tree is
    # dead weight.
    legacy_journal = journal_path(args.target)
    if os.path.exists(legacy_journal):
        os.remove(legacy_journal)
    if not args.keep_staging:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"built {args.target}: {args.size} records, "
          f"height {tree.height}, {report.bulk.pages_written} pages "
          f"written, {report.plan.shard_count} shards, "
          f"workers={args.workers}"
          + (f", resumed {len(report.resumed_shards)} shard(s)"
             if report.resumed_shards else "")
          + (f", retries {dict(report.retries)}" if report.retries else ""))
    if not args.no_manifest:
        run_dir = (args.run_dir if args.run_dir is not None
                   else obs.DEFAULT_RUN_DIR)
        manifest = obs.RunManifest.collect(
            "build", argv=argv, duration_s=time.time() - start,
            registry=report.metrics,
            extra={"build": {
                "target": args.target,
                "plan": report.plan.as_dict(),
                "workers": args.workers,
                "resumed_shards": list(report.resumed_shards),
                "retries": dict(report.retries),
                "height": report.bulk.height,
                "pages_written": report.bulk.pages_written,
            }},
        )
        path = obs.write_manifest(manifest, run_dir)
        print(f"wrote {path}")
    return 0


def _run_bench_cmd(args: argparse.Namespace, argv: list[str]) -> int:
    """``repro bench``: run the pinned suite, write the bench document.

    ``--quick`` selects the CI-sized profile (the committed baseline is
    quick-profile so the ``bench-smoke`` diff is like-for-like);
    the default is the full paper-scale suite.  Exit code 0 unless a
    scenario raises.
    """
    from dataclasses import replace

    from .bench import BenchConfig, run_bench

    config = BenchConfig.quick() if args.quick else BenchConfig.full()
    if args.seed:
        config = replace(config, seed=args.seed)
    doc, written = run_bench(
        config,
        out_path=args.out,
        run_dir=args.run_dir,
        write_run_files=not args.no_manifest,
        argv=argv,
        scenario_names=args.scenarios,
        serve_workers=args.workers if args.workers is not None else 0,
        progress=lambda line: print(line, file=sys.stderr, flush=True),
    )
    for key in sorted(written):
        print(f"wrote {written[key]}")
    table = Table(
        title=f"bench [{doc['profile']}] on {doc['host_class']}",
        columns=("scenario", "ops", "qps", "p50 ms", "p99 ms",
                 "pages", "decode s", "walk s"),
    )
    for name, sc in doc["scenarios"].items():
        table.add_row(
            name, sc["ops"], round(sc["queries_per_s"], 1),
            round(sc["latency_s"]["p50"] * 1e3, 3),
            round(sc["latency_s"]["p99"] * 1e3, 3),
            sc["io"]["pages_read"],
            round(sc["self_time_s"]["decode"], 4),
            round(sc["self_time_s"]["walk"], 4),
        )
    print(table.render())
    return 0


def _run_report(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    """``repro report``: the read side of the lab notebook.

    With no target: list runs.  With a run stem or manifest path:
    re-render it (``--chrome-trace``/``--flamegraph`` additionally
    export its span trace).  ``--diff A B`` compares two stored
    documents and exits 1 on tolerance-band crossings.  ``--prune
    --keep N`` enforces retention.
    """
    from .bench import (
        diff_tables,
        list_runs_table,
        prune_runs,
        render_manifest_text,
        resolve_run_manifest,
    )

    run_dir = (args.run_dir if args.run_dir is not None
               else obs.DEFAULT_RUN_DIR)

    if args.diff is not None:
        table, crossings = diff_tables(*args.diff)
        print(table.render())
        for crossing in crossings:
            print(f"CROSSED: {crossing}", file=sys.stderr)
        return 1 if crossings else 0

    if args.prune:
        removed = prune_runs(run_dir, keep=args.keep)
        for path in removed:
            print(f"removed {path}")
        print(f"{len(removed)} file(s) removed, "
              f"{args.keep} newest run stem(s) kept")
        return 0

    if args.target is None:
        print(list_runs_table(run_dir).render())
        return 0

    try:
        manifest_path = resolve_run_manifest(run_dir, args.target)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    manifest = obs.load_manifest(manifest_path)
    print(render_manifest_text(manifest))

    if args.chrome_trace is not None or args.flamegraph is not None:
        trace_path = (manifest.outputs or {}).get("trace_jsonl")
        if not trace_path or not os.path.isfile(trace_path):
            # Fall back to the sibling artefact next to the manifest.
            sibling = manifest_path[: -len(".json")] + ".trace.jsonl"
            trace_path = sibling if os.path.isfile(sibling) else None
        if trace_path is None:
            parser.error(f"{manifest_path} has no span trace to export "
                         "(run was recorded without --trace-out or its "
                         ".trace.jsonl was pruned)")
        spans = obs.read_spans_jsonl(trace_path)
        if args.chrome_trace is not None:
            path = obs.write_chrome_trace(spans, args.chrome_trace)
            print(f"wrote {path}")
        if args.flamegraph is not None:
            path = obs.write_folded(spans, args.flamegraph)
            print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:10s} {EXPERIMENTS[name][1]}")
        return 0
    if args.experiment == "fsck":
        if args.target is None:
            parser.error("fsck needs a tree file to check")
        return _run_fsck(args, raw_argv)
    if args.experiment == "serve":
        if args.target is None:
            parser.error("serve needs a tree file to serve")
        return _run_serve(args, parser, raw_argv)
    if args.experiment == "build":
        if args.target is None:
            parser.error("build needs an output tree file")
        return _run_build(args, raw_argv)
    if args.experiment == "lint":
        return _run_lint(args, raw_argv)
    if args.experiment == "bench":
        if args.target is not None:
            parser.error("bench takes no positional target; use "
                         "--scenario NAME to filter the suite")
        return _run_bench_cmd(args, raw_argv)
    if args.experiment == "report":
        return _run_report(args, parser)

    profile_mode = args.experiment == "profile"
    if profile_mode:
        if args.target not in EXPERIMENTS:
            parser.error(
                f"profile needs an experiment to run, one of "
                f"{', '.join(sorted(EXPERIMENTS))}"
            )
        names = [args.target]
    elif args.target is not None:
        parser.error("a second positional argument is only valid with "
                     "'profile', 'fsck', 'serve', 'build', 'lint' or "
                     "'report'")
    else:
        names = (sorted(EXPERIMENTS) if args.experiment == "all"
                 else [args.experiment])

    if args.trace_out == "":
        parser.error("--trace-out requires a file path")
    if args.metrics_out == "":
        parser.error("--metrics-out requires a file path")
    telemetry_on = (profile_mode or args.trace_out is not None
                    or args.metrics_out is not None)
    config = _config_from(args)
    for name in names:
        runner, _ = EXPERIMENTS[name]
        start = time.time()
        if telemetry_on:
            with obs.telemetry() as (tracer, registry):
                result = runner(config)
            duration = time.time() - start
            _emit(name, result, args)
            _emit_telemetry(name, tracer, registry, config, args,
                            raw_argv, duration, profile_mode)
        else:
            result = runner(config)
            _emit(name, result, args)
        print(f"[{name}: {time.time() - start:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
