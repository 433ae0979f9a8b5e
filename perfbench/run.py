"""Repo benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1 [--artefacts DIR]``.

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of one untraced run; ``--trace 1`` adds the traced in-process
replay and prints the per-layer metrics.  The last stdout line is the
result object; the line before it is the run record (sample counts,
set-up parts, host-drift timings).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __package__ in (None, ""):
    # Run as a script: make ``perfbench`` and the checkout's ``repro``
    # importable, and keep the run from leaving bytecode files behind.
    sys.dont_write_bytecode = True
    sys.path[:0] = [ROOT, SRC]
    __package__ = "perfbench"

import numpy as np  # noqa: E402

from . import e2e, oracle  # noqa: E402
from .streams import (WARMUP_WINDOW, WORKLOADS, dataset,  # noqa: E402
                      make_stream)

#: Pure-Python reference loop timed before and after every run, so host
#: drift can be told apart from a program change.  Not a metric.
_DRIFT_LOOP = 1_500_000


def host_drift_s() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_DRIFT_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def _ms(values) -> float:
    return float(statistics.median(values)) * 1000.0


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1000.0


#: Set-ups per run.  Each is a ``repro build`` into a fresh directory, a
#: ``repro serve`` start and the warm-up; ``setup_s`` is their median and
#: the last set-up's server is the one measured.  Two, not more: a
#: set-up is most of a run's time, and every run of a comparison must
#: fit the time the benchmark is given.
SETUPS = 2


def run_e2e(workload: str, seed: int, seconds: float, tmp: str) -> dict:
    """One untraced end-to-end run; returns metrics, per-layer values read
    off the run, the run record and the failure tally."""
    stream = make_stream(workload, seed, seconds)
    points = dataset(seed)
    env = e2e.child_env(SRC, tmp)
    log = os.path.join(tmp, "program.log")

    parts: list[tuple[float, float, float]] = []
    warmups: list[e2e.Sample] = []
    for k in range(SETUPS):
        measure = k == SETUPS - 1
        tree = os.path.join(tmp, f"setup{k}", "tree.rt")
        os.makedirs(os.path.dirname(tree))
        build_s = e2e.build_tree(tree, seed, env, log)
        server = e2e.Server(e2e.serve_args(workload, tree), env, log)
        try:
            serve_start_s = server.start()
            drive = e2e.drive(stream, server.address, measure)
            if measure:
                pids = [server.proc.pid] + [
                    w["pid"]
                    for w in drive.stats.get("pool", {}).get("workers", ())
                    if w.get("pid")]
                rss_mb = e2e.peak_rss_mb(pids)
        finally:
            server.stop()
        parts.append((build_s, serve_start_s, drive.warmup_s))
        warmups.extend(drive.warmup)
        if not measure:
            shutil.rmtree(os.path.dirname(tree))

    bad, live = oracle.check(stream, points,
                             [s.answer() for s in drive.samples])
    cover = oracle.cover_count(points, WARMUP_WINDOW)
    bad_warmup = sum(not w.ok or w.partial or w.count != cover
                     for w in warmups)
    bad_merges = sum(not m.ok for m in drive.merges)

    reads = [s for op, s in zip(stream.ops, drive.samples)
             if op.kind == "search"]
    writes = [s for op, s in zip(stream.ops, drive.samples)
              if op.kind != "search"]
    done = sum(s.ok for s in drive.samples)
    latencies = [s.latency_s for s in reads]
    answered = [s for s in reads if s.elapsed_s is not None]
    build_s, serve_start_s, warmup_s = (
        statistics.median(column) for column in zip(*parts))
    # Timings at the nominal host speed: as measured, over the host's
    # slowness probed through the window (see hostspeed), which follows
    # the set-ups within seconds.
    slowness = drive.speed.slowness()
    raw = {"setup_s": statistics.median(sum(p) for p in parts),
           "ops_per_s": done / drive.window_s,
           "query_p50_ms": _ms(latencies)}
    metrics = {
        "setup_s": (raw["setup_s"] / slowness, "s"),
        "ops_per_s": (raw["ops_per_s"] * slowness, "1/s"),
        "query_p50_ms": (raw["query_p50_ms"] / slowness, "ms"),
        "server_rss_mb": (rss_mb, "MB"),
        "disk_bytes_per_record": (e2e.disk_bytes(tree) / live, "B"),
    }
    layers = {
        "query_p99_ms": (_percentile_ms(latencies, 99), "ms"),
        "setup.build_s": (build_s, "s"),
        "setup.serve_start_s": (serve_start_s, "s"),
        "setup.warmup_s": (warmup_s, "s"),
        "serve.server_ms": (_ms([s.elapsed_s for s in answered]), "ms"),
        "serve.wire_ms": (_ms([s.latency_s - s.elapsed_s
                               for s in answered]), "ms"),
        "serve.response_bytes": (statistics.fmean(s.nbytes for s in reads),
                                 "B"),
        "serve.errors": (sum(drive.stats.get("errors", {}).values()),
                         "count"),
    }
    pool = drive.stats.get("pool")
    if pool is not None:
        layers["pool.restarts"] = (pool["restarts_total"], "count")
        layers["pool.requeues"] = (pool["requeues_total"], "count")
        layers["pool.fallbacks"] = (pool["fallbacks"], "count")
    if stream.merge_every:
        write_lat = [s.latency_s for s in writes]
        layers["write_p50_ms"] = (_ms(write_lat), "ms")
        layers["write_p99_ms"] = (_percentile_ms(write_lat, 99), "ms")
        layers["ingest.writes_shed"] = (
            drive.stats["ingest"]["writes"]["shed"], "count")
        stall = _merge_stall_ms(reads, drive.merges)
        if stall is not None:
            layers["merge.stall_ms"] = (stall, "ms")

    record = {
        "workload": workload, "seed": seed, "ops": len(stream.ops),
        "reads": len(reads), "writes": len(writes),
        "merges": len(drive.merges), "window_s": drive.window_s,
        "merge_s": [m.latency_s for m in drive.merges],
        "host_slowness": {"window": slowness,
                          "probes": len(drive.speed.samples)},
        "wall_clock": raw,
        "samples": {"query_latency": len(latencies),
                    "write_latency": len(writes)},
        "setups": [{"build_s": b, "serve_start_s": v, "warmup_s": w}
                   for b, v, w in parts],
        "errors_by_code": drive.stats.get("errors", {}),
        "wrong_ops": bad[:20],
    }
    attempted = len(stream.ops) + len(warmups) + len(drive.merges)
    failed = len(bad) + bad_warmup + bad_merges
    return {"metrics": metrics, "layers": layers, "record": record,
            "attempted": attempted, "failed": failed}


def _merge_stall_ms(reads, merges) -> float | None:
    """Median latency of reads overlapping a merge minus that of reads
    that do not; ``None`` when either group is empty."""
    spans = [(m.t0, m.t1) for m in merges]
    inside, outside = [], []
    for s in reads:
        hit = any(s.t0 < end and s.t1 > start for start, end in spans)
        (inside if hit else outside).append(s.latency_s)
    if not inside or not outside:
        return None
    return _ms(inside) - _ms(outside)


def every_layer(layers: dict) -> dict:
    """``layers`` with every per-layer metric of ``BENCHMARK.json``, in
    its order.  A metric whose layer does not run on the workload (the
    pool on ``ingest_mixed``, the WAL on ``read_pool``) is 0: that layer
    did no work."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer"]
    unknown = set(layers) - {m["name"] for m in spec}
    if unknown:
        raise ValueError(f"per-layer metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    return {m["name"]: layers.get(m["name"], (0.0, m["unit"]))
            for m in spec}


def _result(metrics: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _terminate(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--artefacts", default=None, metavar="DIR",
                        help="with --trace 1: write the per-layer JSON and "
                             "the replay's Chrome trace here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              "(run from the root of a full checkout)", file=sys.stderr)
        return 2

    # ``repro serve`` shuts down gracefully on SIGINT, and a process
    # started in the background inherits SIGINT ignored; a handled signal
    # is reset to its default in children.  SIGTERM unwinds through the
    # ``finally`` blocks that stop the server.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    tempfile.tempdir = tmp
    try:
        drift_before = host_drift_s()
        out = run_e2e(args.workload, args.seed, args.seconds, tmp)
        record = out["record"]
        attempted, failed = out["attempted"], out["failed"]
        if args.trace:
            from .traced import run_traced, write_artefacts

            traced = run_traced(args.workload, args.seed, args.seconds,
                                os.path.join(tmp, "replay"),
                                e2e_layers=out["layers"], record=record)
            metrics = every_layer(traced["metrics"])
            attempted += traced["attempted"]
            failed += traced["failed"]
        else:
            metrics = out["metrics"]
        record["host_drift_s"] = {"before": drift_before,
                                  "after": host_drift_s()}
        if args.trace and args.artefacts is not None:
            write_artefacts(args.artefacts, args.workload, args.seed,
                            metrics, record, traced["spans"])
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps(_result(metrics, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
