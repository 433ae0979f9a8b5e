"""Unit tests for the pipeline's planning and durability primitives.

Covers the shard plan's STR-alignment invariants and the atomic staging
primitives every pipeline file goes through — the small pieces whose
guarantees the crash tests in ``test_pipeline_build.py`` compose.
"""

import json
import os

import numpy as np
import pytest

from repro.core.geometry import RectArray
from repro.pipeline import ResumeMismatch
from repro.pipeline.plan import (
    INPUT_FILES,
    load_plan,
    load_staged_input,
    make_plan,
    stage_input,
    write_plan,
)
from repro.pipeline.staging import (
    StagingDir,
    atomic_write_bytes,
    check_record_crc,
    file_checksum,
    parse_record,
    record_crc,
    stamp_record,
)


def _rects(rng, n, ndim=2):
    los = rng.uniform(0.0, 100.0, (n, ndim))
    his = los + rng.uniform(0.0, 5.0, (n, ndim))
    return RectArray(los, his)


# -- plan ---------------------------------------------------------------------


def test_plan_shards_are_capacity_aligned_str_slabs(rng):
    rects = _rects(rng, 1234)
    ids = np.arange(1234, dtype=np.int64)
    plan = make_plan(rects, ids, capacity=16, page_size=640)
    assert sum(plan.slab_sizes) == 1234
    # Every slab but the last is a whole number of leaf pages — the
    # property that lets workers encode pages without sharing one.
    for size in plan.slab_sizes[:-1]:
        assert size % 16 == 0
    ranges = plan.shard_ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == 1234
    for (a, b), size in zip(ranges, plan.slab_sizes):
        assert b - a == size
    assert plan.leaf_pages == sum(-(-s // 16) for s in plan.slab_sizes)


def test_plan_fingerprint_sensitive_to_everything(rng):
    rects = _rects(rng, 64)
    ids = np.arange(64, dtype=np.int64)
    base = make_plan(rects, ids, capacity=8, page_size=512).fingerprint
    moved = RectArray(rects.los + 1e-9, rects.his)
    assert make_plan(moved, ids, capacity=8,
                     page_size=512).fingerprint != base
    assert make_plan(rects, ids + 1, capacity=8,
                     page_size=512).fingerprint != base
    assert make_plan(rects, ids, capacity=9,
                     page_size=512).fingerprint != base
    assert make_plan(rects, ids, capacity=8,
                     page_size=513).fingerprint != base


def test_plan_roundtrip_and_staged_input(tmp_path, rng):
    rects = _rects(rng, 200)
    ids = np.arange(200, dtype=np.int64)
    xorder = np.argsort(rects.centers()[:, 0], kind="stable")
    staging = StagingDir(tmp_path / "st", remove_on_success=False)
    plan = make_plan(rects, ids, capacity=10, page_size=512)
    inputs = stage_input(staging, plan, rects, ids, xorder)
    write_plan(staging, plan, inputs)

    loaded = load_plan(staging)
    assert loaded == plan
    los, his, sids, sxorder = load_staged_input(staging)
    np.testing.assert_array_equal(np.asarray(sxorder), xorder)
    np.testing.assert_array_equal(np.asarray(los), rects.los)
    np.testing.assert_array_equal(np.asarray(sids), ids)


def test_plan_load_rejects_corruption(tmp_path, rng):
    rects = _rects(rng, 50)
    ids = np.arange(50, dtype=np.int64)
    xorder = np.argsort(rects.centers()[:, 0], kind="stable")
    staging = StagingDir(tmp_path / "st", remove_on_success=False)
    plan = make_plan(rects, ids, capacity=10, page_size=512)
    write_plan(staging, plan, stage_input(staging, plan, rects, ids, xorder))

    # Flip a byte in a staged input: the CRC table must catch it.
    target = staging.file(INPUT_FILES[0])
    blob = bytearray(open(target, "rb").read())
    blob[-1] ^= 0xFF
    with open(target, "wb") as f:
        f.write(blob)
    with pytest.raises(ResumeMismatch):
        load_plan(staging)

    # Tamper with the plan record itself.
    record = json.load(open(staging.file("plan.json")))
    record["capacity"] = 99
    with open(staging.file("plan.json"), "w") as f:
        json.dump(record, f)
    with pytest.raises(ResumeMismatch):
        load_plan(staging, verify_inputs=False)


# -- staging primitives -------------------------------------------------------


def test_atomic_write_and_record_crc(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"hello durability")
    crc, size = file_checksum(path)
    assert size == 16
    assert not any(".tmp-" in name for name in os.listdir(tmp_path))

    record = {"a": 1, "b": [2, 3]}
    record["crc"] = record_crc(record)
    assert check_record_crc(record)
    record["a"] = 2
    assert not check_record_crc(record)


def test_stamp_and_parse_record():
    record = stamp_record({"a": 1, "crc": 5}, "repro-test-v2")
    assert record["format"] == "repro-test-v2"
    assert check_record_crc(record)
    line = json.dumps(record, sort_keys=True)
    assert parse_record(line, ("repro-test-v2",), "rec") == record
    assert parse_record(line.encode(), ("repro-test-v2",), "rec") == record

    tampered = json.dumps(dict(record, a=2))
    for data, tags, phrase in [
        (line, ("repro-test-v1",), "unsupported format 'repro-test-v2'"),
        (tampered, ("repro-test-v2",), "fails its CRC"),
        ("[]", ("repro-test-v2",), "not a JSON object"),
        ('{"a": ', ("repro-test-v2",), "not JSON"),
        (b"\xff", ("repro-test-v2",), "not JSON"),
    ]:
        with pytest.raises(ResumeMismatch, match=f"^rec .*{phrase}"):
            parse_record(data, tags, "rec", ResumeMismatch)


def test_staging_dir_lifecycle(tmp_path):
    path = tmp_path / "work"
    with StagingDir(path) as staging:
        atomic_write_bytes(staging.file("x"), b"1")
    assert not path.exists()  # removed on clean success

    with pytest.raises(RuntimeError):
        with StagingDir(path) as staging:
            raise RuntimeError("boom")
    assert not path.exists()  # removed on clean exception

    with pytest.raises(RuntimeError):
        with StagingDir(path) as staging:
            staging.keep()
            raise RuntimeError("boom")
    assert path.exists()  # keep() overrides removal

    # sweep_tmp clears only torn tmp litter, not published files.
    staging = StagingDir(path, remove_on_success=False)
    atomic_write_bytes(staging.file("good"), b"ok")
    with open(staging.file("bad.tmp-1234"), "wb") as f:
        f.write(b"torn")
    assert staging.sweep_tmp() == 1
    assert staging.exists("good") and not staging.exists("bad.tmp-1234")

