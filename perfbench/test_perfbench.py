"""Self-tests of the benchmark harness.

Run from the checkout root with ``python -m pytest perfbench -q``.  They
build the default 100 000-point tree many times (about 3 minutes in
all), so they are not part of the ``tests/`` suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src"))
                if p not in sys.path]

from perfbench import e2e, oracle, streams, traced  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

#: Counts the traced replay must repeat for one seed: exactly, except
#: ``merge.bytes_per_op`` (see the test).
COUNTS = ("storage.pages_read_per_query", "rtree.nodes_per_query",
          "buffer.hit_ratio", "mmap.verified_pages", "wal.bytes_per_write",
          "merge.bytes_per_op")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_tiny_run_end_to_end(workload):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0.3",
                "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 20
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    record = json.loads(done.stdout.strip().splitlines()[-2])["run"]
    slowness = record["host_slowness"]
    assert slowness["probes"] >= 2 and slowness["window"] > 0
    assert metrics["ops_per_s"]["value"] == pytest.approx(
        record["wall_clock"]["ops_per_s"] * slowness["window"])


@pytest.mark.parametrize("count", [1, 20, 59, 60, 61, 1260, 2400])
def test_window_chunks_cover_every_op_once(count):
    bounds = e2e.chunk_bounds(count)
    assert len(bounds) == min(count, e2e.CHUNKS)
    assert bounds[0][0] == 0 and bounds[-1][1] == count
    assert all(lo < hi for lo, hi in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


def test_tiny_traced_run_reports_every_layer(tmp_path):
    done = _run("--workload", "read_pool", "--seed", "7", "--seconds",
                "0.3", "--trace", "1", "--artefacts", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["mmap.verified_pages"]["value"] == 1011

    with open(tmp_path / "read_pool-seed7.layers.json") as f:
        saved = json.load(f)
    assert set(saved["layers"]) <= set(result["metrics"])
    assert "host_drift_s" in saved["run"]
    with open(tmp_path / "read_pool-seed7.trace.json") as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events}
    assert {"pipeline.plan", "serve.handle_request", "pool.execute",
            "protocol.encode_response"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = str(tmp_path / "perfbench" / "run.py")
    done = subprocess.run([sys.executable, script, "--workload",
                           "read_pool", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_oracle_flags_altered_responses():
    stream = streams.make_stream("read_pool", 5, 1)
    points = streams.dataset(5)
    truth = oracle.PointSet(points)
    answers = [(True, False, truth.window(op.rect)) for op in stream.ops]
    assert oracle.check(stream, points, answers)[0] == []

    altered = list(answers)
    ok, partial, ids = altered[3]
    altered[3] = (ok, partial, ids[:-1])              # an id dropped
    altered[5] = (True, True, answers[5][2])          # flagged partial
    altered[7] = (False, False, None)                 # an error response
    altered[9] = (True, False, np.append(answers[9][2], 10**6))  # invented
    assert oracle.check(stream, points, altered)[0] == [3, 5, 7, 9]


def test_oracle_follows_acked_writes_only():
    stream = streams.make_stream("ingest_mixed", 5, 1)
    points = streams.dataset(5)
    state = oracle.PointSet(points, extra=len(stream.ops))
    answers = []
    for op in stream.ops:
        if op.kind == "search":
            answers.append((True, False, state.window(op.rect)))
        else:
            state.apply(op)
            answers.append((True, False, None))
    assert oracle.check(stream, points, answers)[0] == []

    # Refusing the first write makes it un-acked: it fails, and every
    # later read that saw its effect no longer matches the oracle.
    first_write = next(i for i, op in enumerate(stream.ops)
                       if op.kind != "search")
    refused = list(answers)
    refused[first_write] = (False, False, None)
    bad, _live = oracle.check(stream, points, refused)
    assert bad[0] == first_write


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Two in-process traced builds of one seed (the pipeline counts)."""
    base = tmp_path_factory.mktemp("built")
    points = streams.dataset(3)
    runs = [traced.build(points, str(base / f"tree{i}.rt"))[0]
            for i in range(2)]
    return str(base / "tree0.rt"), runs


def test_build_bytes_repeat(built):
    _path, (first, second) = built
    # The shards' checkpoint records carry their timing histograms as
    # JSON floats, so the build writes a few bytes more or less from run
    # to run (about 10 in 17 MB); everything else it writes is fixed.
    a = first["build.bytes_per_record"][0]
    b = second["build.bytes_per_record"][0]
    assert abs(a - b) * streams.DATASET_SIZE <= 64


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_count_metrics_repeat_across_traced_replays(built, tmp_path,
                                                    workload):
    path, _runs = built
    stream = streams.make_stream(workload, 3, 0.5)
    points = streams.dataset(3)
    counts, merged = [], []
    for i in range(2):
        copies = []
        for side in ("plain", "traced"):
            copy = tmp_path / f"{side}{i}" / "tree.rt"
            copy.parent.mkdir()
            shutil.copyfile(path, copy)
            copies.append(str(copy))
        run = traced.replay(stream, points, *copies)
        assert run["failed"] == 0
        layers = traced.layer_metrics(stream, run, path)
        assert set(layers) <= {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: v for k, v in layers.items() if k in COUNTS})
        merged.append(sum(ops for _bytes, ops in run["probe"].merges))
    expected = {"storage.pages_read_per_query", "rtree.nodes_per_query",
                "buffer.hit_ratio"}
    if workload == "read_pool":
        expected.add("mmap.verified_pages")
    if workload == "ingest_mixed":
        expected |= {"wal.bytes_per_write", "merge.bytes_per_op"}
    assert set(counts[0]) == set(counts[1]) == expected
    if workload == "ingest_mixed":
        # The process's writes around the merges were seen to differ by
        # one byte in all between two replays of one seed, so the total
        # must agree to within a few bytes, not exactly.
        assert merged[0] == merged[1]
        a = counts[0].pop("merge.bytes_per_op")[0]
        b = counts[1].pop("merge.bytes_per_op")[0]
        assert abs(a - b) * merged[0] <= 8
    assert counts[0] == counts[1]
