"""Integration tests for the fault-tolerant parallel bulk loader.

The central property, stated once and checked everywhere: for any
worker count, any injected crash/hang, and any resume, the parallel
pipeline's output store is **byte-for-byte identical** to a serial
:func:`repro.rtree.bulk.bulk_load` of the same input — same root page,
same height, same bytes in the same page ids.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.geometry import GeometryError, RectArray
from repro.core.packing import SortTileRecursive
from repro.obs import runtime as obs
from repro.pipeline import (
    PipelineError,
    PoisonShard,
    ResumeMismatch,
    orchestrator,
    parallel_bulk_load,
)
from repro.pipeline import worker as shard_worker
from repro.rtree.bulk import bulk_load
from repro.storage.page import required_page_size
from repro.storage.store import MemoryPageStore

CAPACITY = 25


def _dataset(rng, n=3000, ndim=2):
    los = rng.uniform(0.0, 1000.0, (n, ndim))
    his = los + rng.uniform(0.0, 10.0, (n, ndim))
    return RectArray(los, his)


def _serial(rects, capacity=CAPACITY):
    tree, _ = bulk_load(rects, SortTileRecursive(), capacity=capacity)
    return tree


def assert_same_store(tree_a, tree_b):
    """Byte-identity: same root/height and every page's exact bytes."""
    assert tree_a.root_page == tree_b.root_page
    assert tree_a.height == tree_b.height
    assert tree_a.store.page_count == tree_b.store.page_count
    for pid in range(tree_a.store.page_count):
        assert tree_a.store.raw_read(pid) == tree_b.store.raw_read(pid), \
            f"page {pid} differs"


@pytest.mark.parametrize("workers", [0, 1, 2, 4, 7])
def test_parallel_is_byte_identical_to_serial(tmp_path, rng, workers):
    rects = _dataset(rng)
    serial = _serial(rects)
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=workers,
        staging_path=tmp_path / "staging",
    )
    assert_same_store(tree, serial)
    assert report.retries == {}
    assert report.resumed_shards == ()
    assert report.plan.shard_count > 1
    assert not (tmp_path / "staging").exists()  # cleaned after success


def test_worker_crash_is_retried_and_output_unchanged(tmp_path, rng):
    rects = _dataset(rng)
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=2,
        staging_path=tmp_path / "staging",
        fault={1: ["crash"]},
    )
    assert report.retries == {1: 1}
    assert_same_store(tree, _serial(rects))


def test_hung_worker_is_reaped_and_retried(tmp_path, rng):
    rects = _dataset(rng)
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=2,
        staging_path=tmp_path / "staging",
        fault={0: ["hang"]},
        heartbeat_s=0.1, deadline_s=0.6,
    )
    assert report.retries == {0: 1}
    assert_same_store(tree, _serial(rects))


@pytest.mark.parametrize("fault, hooks, launched, reaped, retries", [
    (None, {}, 2, 0, {}),
    ({1: ["crash"]}, {}, 3, 0, {1: 1}),
    ({0: ["hang"]}, {"heartbeat_s": 0.1, "deadline_s": 0.6}, 3, 1, {0: 1}),
])
def test_workers_serve_every_shard_and_only_a_lost_one_is_replaced(
        tmp_path, rng, fault, hooks, launched, reaped, retries):
    """Two worker processes run all eleven shards; a worker that
    crashes or is reaped costs one replacement process."""
    rects = _dataset(rng)
    with obs.telemetry() as (_, registry):
        tree, report = parallel_bulk_load(
            rects, capacity=CAPACITY, workers=2,
            staging_path=tmp_path / "staging", fault=fault, **hooks,
        )
    assert report.plan.shard_count == 11
    assert registry.counter("pipeline.workers_launched").value == launched
    assert registry.counter("pipeline.workers_reaped").value == reaped
    assert report.retries == retries
    assert_same_store(tree, _serial(rects))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors in /proc")
@pytest.mark.parametrize("outcome", ["built", "poisoned", "interrupted"])
def test_no_worker_or_pipe_outlives_the_build(tmp_path, rng, monkeypatch,
                                              outcome):
    """Success, PoisonShard and an interrupt mid-build each stop and
    reap every worker and close both ends of its pipes."""
    rects = _dataset(rng)
    kwargs = {"capacity": CAPACITY, "workers": 2,
              "staging_path": tmp_path / "staging"}
    fds = len(os.listdir("/proc/self/fd"))
    if outcome == "built":
        parallel_bulk_load(rects, **kwargs)
    elif outcome == "poisoned":
        with pytest.raises(PoisonShard):
            parallel_bulk_load(rects, fault={2: ["crash"] * 3}, **kwargs)
    else:
        def interrupt(*args, **kw):
            raise KeyboardInterrupt
        # The first wait comes after both workers took a shard.
        monkeypatch.setattr(orchestrator, "wait", interrupt)
        with pytest.raises(KeyboardInterrupt):
            parallel_bulk_load(rects, **kwargs)
    assert multiprocessing.active_children() == []
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                    or not os.path.isdir("/proc/self"),
                    reason="forks a worker and reads its state in /proc")
def test_an_interrupted_idle_worker_exits_quietly(capfd):
    """Ctrl-C reaches the whole process group; a worker waiting for its
    next shard ends with exit code 0 and no traceback."""
    ctx = multiprocessing.get_context("fork")
    tasks_in, tasks = ctx.Pipe(duplex=False)
    results, results_out = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=shard_worker._process_main,
                       args=(tasks_in, results_out))
    proc.start()
    tasks_in.close()
    results_out.close()
    try:
        # Sleeping state: it is blocked waiting for a shard.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with open(f"/proc/{proc.pid}/stat") as f:
                if f.read().rsplit(")", 1)[-1].split()[0] == "S":
                    break
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGINT)
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
        tasks.close()
        results.close()
    assert "Traceback" not in capfd.readouterr().err


def test_poison_shard_is_typed_and_resumable(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    with pytest.raises(PoisonShard) as exc_info:
        parallel_bulk_load(
            rects, capacity=CAPACITY, workers=0,
            staging_path=staging,
            fault={2: ["crash", "crash", "crash"]},
            max_attempts=3,
        )
    poison = exc_info.value
    assert poison.shard == 2
    assert poison.attempts == 3
    # Never silent data loss: staging (with every healthy shard's
    # done record) survives, and the diagnosis is on disk.
    assert staging.exists()
    assert (staging / "poison.json").exists()

    # Fixing the cause (here: no more injected faults) and resuming
    # re-runs only the poisoned shard.
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=0,
        staging_path=staging, resume=True,
    )
    assert len(report.resumed_shards) == report.plan.shard_count - 1
    assert 2 not in report.resumed_shards
    assert_same_store(tree, _serial(rects))
    assert not staging.exists()


def test_resume_without_input_trusts_verified_staging(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    tree_first, _ = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=2,
        staging_path=staging, keep_staging=True,
    )
    # The orchestrator host may not have the input at resume time: the
    # staged arrays are the CRC-verified source of truth.
    tree_resumed, report = parallel_bulk_load(
        capacity=CAPACITY, workers=2,
        staging_path=staging, resume=True,
    )
    assert len(report.resumed_shards) == report.plan.shard_count
    assert_same_store(tree_resumed, tree_first)


def test_resume_rejects_different_input(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    other = _dataset(rng)  # fresh draw from the same rng: different data
    with pytest.raises(ResumeMismatch):
        parallel_bulk_load(other, capacity=CAPACITY, workers=0,
                           staging_path=staging, resume=True)
    with pytest.raises(ResumeMismatch):
        parallel_bulk_load(rects, capacity=CAPACITY + 1, workers=0,
                           staging_path=staging, resume=True)


def test_fresh_build_refuses_to_trample_existing_staging(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    with pytest.raises(PipelineError, match="resume"):
        parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                           staging_path=staging)


def test_damaged_run_file_is_detected_and_rerun(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    # Corrupt one published shard run behind its done record's back.
    run = staging / "shard-0001.run.bin"
    blob = bytearray(run.read_bytes())
    blob[100] ^= 0xFF
    run.write_bytes(blob)
    # Resume must notice (CRC mismatch), re-run that shard, and still
    # produce the identical tree.
    tree, report = parallel_bulk_load(
        capacity=CAPACITY, workers=0, staging_path=staging, resume=True)
    assert 1 not in report.resumed_shards
    assert len(report.resumed_shards) == report.plan.shard_count - 1
    assert_same_store(tree, _serial(rects))


def test_verified_done_records_resume_without_a_log(tmp_path, rng):
    """A shard's done record is its checkpoint: a staging dir whose
    shards all published verified done records resumes every shard,
    whatever else the orchestrator did or did not write."""
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    # A kill after the workers published, before the orchestrator
    # logged anything: only the done records are left.
    (staging / "checkpoint.ndjson").unlink(missing_ok=True)
    tree, report = parallel_bulk_load(
        capacity=CAPACITY, workers=0, staging_path=staging, resume=True)
    assert report.resumed_shards == tuple(range(report.plan.shard_count))
    assert_same_store(tree, _serial(rects))


def test_fresh_build_writes_no_checkpoint_log(tmp_path, rng):
    staging = tmp_path / "staging"
    _, report = parallel_bulk_load(_dataset(rng, n=500), capacity=CAPACITY,
                                   workers=0, staging_path=staging,
                                   keep_staging=True)
    assert not (staging / "checkpoint.ndjson").exists()
    assert len(list(staging.glob("shard-*.done.json"))) \
        == report.plan.shard_count


def test_torn_log_of_an_older_build_does_not_block_resume(tmp_path, rng):
    """Staging from an older version may hold a ``checkpoint.ndjson``
    log whose last line a kill tore.  Resume ignores the log, so a
    resume that stops again (here poisoned) and the resume after it
    both run from the done records and the tree comes out whole."""
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    # Shard 1 poisons; shard 3 has failed twice and is still pending.
    with pytest.raises(PoisonShard):
        parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                           staging_path=staging,
                           fault={1: ["crash"] * 3, 3: ["crash"] * 3})
    with open(staging / "checkpoint.ndjson", "ab") as f:
        f.write(b'{"shard": 1, "pag')  # the torn tail of a killed append
    with pytest.raises(PoisonShard) as exc_info:
        parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                           staging_path=staging, resume=True,
                           fault={3: ["crash"] * 3})
    assert exc_info.value.shard == 3
    tree, report = parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                                      staging_path=staging, resume=True)
    assert report.resumed_shards == tuple(
        s for s in range(report.plan.shard_count) if s != 3)
    assert_same_store(tree, _serial(rects))


def test_plan_that_is_not_an_object_is_resume_mismatch(tmp_path, rng):
    rects = _dataset(rng, n=500)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    (staging / "plan.json").write_text("[]\n")
    with pytest.raises(ResumeMismatch, match="not a JSON object"):
        parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                           staging_path=staging, resume=True)


def test_done_record_that_is_not_an_object_reruns_its_shard(tmp_path, rng):
    rects = _dataset(rng)
    staging = tmp_path / "staging"
    parallel_bulk_load(rects, capacity=CAPACITY, workers=0,
                       staging_path=staging, keep_staging=True)
    (staging / "shard-0002.done.json").write_text("[]\n")
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=0, staging_path=staging,
        resume=True)
    assert 2 not in report.resumed_shards
    assert len(report.resumed_shards) == report.plan.shard_count - 1
    assert_same_store(tree, _serial(rects))


def test_worker_metrics_are_merged_into_report(tmp_path, rng):
    rects = _dataset(rng)
    tree, report = parallel_bulk_load(
        rects, capacity=CAPACITY, workers=2,
        staging_path=tmp_path / "staging",
    )
    m = report.metrics
    assert m.counter("pipeline.records").value == len(rects)
    assert m.counter("pipeline.shards_completed").value \
        == report.plan.shard_count
    assert m.counter("pipeline.leaf_pages").value == report.plan.leaf_pages
    assert m.histogram("pipeline.shard.order_s").count \
        == report.plan.shard_count
    assert m.gauge("pipeline.workers").value == 2


def test_explicit_store_and_ids_roundtrip(tmp_path, rng):
    rects = _dataset(rng, n=500)
    ids = rng.permutation(10_000)[: len(rects)].astype(np.int64)
    store = MemoryPageStore(required_page_size(CAPACITY, rects.ndim))
    serial_store = MemoryPageStore(store.page_size)
    serial_tree, _ = bulk_load(rects, SortTileRecursive(),
                               data_ids=ids, capacity=CAPACITY,
                               store=serial_store)
    tree, _ = parallel_bulk_load(
        rects, data_ids=ids, capacity=CAPACITY, workers=2,
        store=store, staging_path=tmp_path / "staging",
    )
    assert_same_store(tree, serial_tree)
    hits = tree.searcher(buffer_pages=8).search(rects[0])
    assert ids[0] in hits


def test_one_dimensional_input_matches_serial(tmp_path, rng):
    los = rng.uniform(0.0, 100.0, (400, 1))
    rects = RectArray(los, los + 0.5)
    tree, _ = parallel_bulk_load(rects, capacity=8, workers=2,
                                 staging_path=tmp_path / "staging")
    assert_same_store(tree, _serial(rects, capacity=8))


def test_bad_arguments_are_typed(tmp_path, rng):
    rects = _dataset(rng, n=10)
    with pytest.raises(PipelineError):
        parallel_bulk_load(rects, workers=-1,
                           staging_path=tmp_path / "s1")
    with pytest.raises(PipelineError):
        parallel_bulk_load(rects, max_attempts=0,
                           staging_path=tmp_path / "s2")
    with pytest.raises(PipelineError):
        parallel_bulk_load(staging_path=tmp_path / "s3")  # fresh, no rects
    with pytest.raises(GeometryError):
        parallel_bulk_load(RectArray.from_points(np.empty((0, 2))),
                           staging_path=tmp_path / "s4")
