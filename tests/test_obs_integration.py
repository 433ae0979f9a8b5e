"""Telemetry integration: wiring, non-perturbation, CLI surface.

The load-bearing guarantee is the *non-perturbation regression*: a
Table-2-style run reports bit-identical ``mean_accesses`` with telemetry
enabled and disabled, because instrumentation only reads experiment
state (spans time things, counters are copied at batch boundaries).
"""

import json

import numpy as np
import pytest

from repro import RectArray, SortTileRecursive, bulk_load, obs
from repro.cli import main
from repro.experiments import synthetic_tables
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_queries
from repro.queries import point_queries

#: Table 2's exact code path, scaled to test size.
TINY = ExperimentConfig.quick().scaled(sizes=(2_000, 5_000), query_count=60)


@pytest.fixture
def telemetry():
    with obs.telemetry() as (tracer, registry):
        yield tracer, registry


class TestWiring:
    def test_bulk_load_emits_spans_and_metrics(self, telemetry):
        tracer, registry = telemetry
        rects = RectArray.from_points(
            np.random.default_rng(0).random((3_000, 2))
        )
        bulk_load(rects, SortTileRecursive(), capacity=50)
        names = {s.name for s in tracer.spans}
        assert {"bulk.load", "pack.order", "bulk.write_level",
                "str.sort"} <= names
        assert registry.counter("build.io.disk_writes",
                                algorithm="STR").value > 0
        assert registry.gauge("tree.height", algorithm="STR").value >= 2

    def test_run_queries_emits_batch_span_and_histograms(self, telemetry):
        tracer, registry = telemetry
        rects = RectArray.from_points(
            np.random.default_rng(1).random((2_000, 2))
        )
        tree, _ = bulk_load(rects, SortTileRecursive(), capacity=50)
        result = run_queries(tree, point_queries(40, seed=2), 10,
                             algorithm="STR")
        names = {s.name for s in tracer.spans}
        assert "query.batch" in names
        assert "query.search" in names
        hist = registry.histogram("query.accesses", algorithm="STR",
                                  workload="point")
        assert hist.count == 40
        # The histogram total is the same number the runner reports.
        assert hist.total == result.total_accesses
        reads = registry.counter("query.io.disk_reads", algorithm="STR",
                                 workload="point")
        assert reads.value == result.total_accesses

    def test_no_spans_when_disabled(self):
        rects = RectArray.from_points(
            np.random.default_rng(2).random((1_000, 2))
        )
        tree, _ = bulk_load(rects, SortTileRecursive(), capacity=50)
        run_queries(tree, point_queries(10, seed=3), 10)
        assert not obs.enabled()


class TestNonPerturbation:
    def test_table2_identical_with_and_without_telemetry(self):
        """The acceptance regression: telemetry must not move the metric."""
        plain = synthetic_tables.table2(TINY).to_csv()
        with obs.telemetry() as (tracer, _):
            traced = synthetic_tables.table2(TINY).to_csv()
        assert traced == plain          # bit-identical cells, incl. means
        assert len(tracer) > 0          # ...and telemetry actually ran

    def test_single_run_identical_accesses(self):
        rects = RectArray.from_points(
            np.random.default_rng(5).random((4_000, 2))
        )
        tree, _ = bulk_load(rects, SortTileRecursive(), capacity=50)
        workload = point_queries(100, seed=6)
        off = run_queries(tree, workload, 10, algorithm="STR")
        with obs.telemetry():
            on = run_queries(tree, workload, 10, algorithm="STR")
        assert on.total_accesses == off.total_accesses
        assert on.mean_accesses == off.mean_accesses


class TestDurabilityNonPerturbation:
    """The durability layer is opt-in and must never move the paper's
    metric: the same build + workload reports bit-identical access counts
    on a memory store, a plain file store, and a fully durable
    (checksums + retry) file store."""

    def _accesses(self, store):
        rects = RectArray.from_points(
            np.random.default_rng(42).random((3_000, 2))
        )
        tree, report = bulk_load(rects, SortTileRecursive(), capacity=50,
                                 store=store)
        searcher = tree.searcher(10)
        per_query = []
        for q in point_queries(80, seed=9):
            before = searcher.disk_accesses
            searcher.search(q)
            per_query.append(searcher.disk_accesses - before)
        return report.pages_written, per_query

    def test_file_and_durable_stores_match_memory(self, tmp_path):
        from repro.storage import FilePageStore, MemoryPageStore, RetryPolicy
        from repro.storage.integrity import TRAILER_SIZE
        from repro.storage.page import required_page_size

        page = required_page_size(50, 2)
        baseline = self._accesses(MemoryPageStore(page))
        plain = FilePageStore(tmp_path / "plain.pages", page)
        durable = FilePageStore(
            tmp_path / "durable.pages", page + TRAILER_SIZE,
            checksums=True, retry=RetryPolicy(sleep=lambda s: None),
        )
        try:
            assert self._accesses(plain) == baseline
            assert self._accesses(durable) == baseline
        finally:
            plain.close()
            durable.close()

    def test_durable_store_with_telemetry_still_matches(self, tmp_path):
        from repro.storage import FilePageStore, MemoryPageStore
        from repro.storage.integrity import TRAILER_SIZE
        from repro.storage.page import required_page_size

        page = required_page_size(50, 2)
        baseline = self._accesses(MemoryPageStore(page))
        with obs.telemetry():
            durable = FilePageStore(tmp_path / "d.pages",
                                    page + TRAILER_SIZE, checksums=True)
            try:
                assert self._accesses(durable) == baseline
            finally:
                durable.close()


class TestProfileCli:
    def run_cli(self, capsys, *args):
        code = main(list(args))
        return code, capsys.readouterr().out

    def test_profile_prints_breakdown_and_writes_artifacts(
            self, tmp_path, capsys):
        code, out = self.run_cli(
            capsys, "profile", "table1", "--quick", "--queries", "20",
            "--run-dir", str(tmp_path),
        )
        assert code == 0
        assert "Phase timing breakdown: table1" in out
        assert "phases (self time)" in out
        manifests = list(tmp_path.glob("table1-*.json"))
        manifests = [p for p in manifests
                     if not p.name.endswith(".metrics.json")]
        traces = list(tmp_path.glob("table1-*.trace.jsonl"))
        assert len(manifests) == 1
        assert len(traces) == 1
        m = json.load(open(manifests[0]))
        assert m["format"] == "repro-run-manifest-v1"
        assert m["experiment"] == "table1"
        assert m["config"]["query_count"] == 20
        assert m["outputs"]["trace_jsonl"] == str(traces[0])
        assert m["phases"]            # timing made it into the manifest
        # The trace is valid JSONL.
        with open(traces[0]) as f:
            for line in f:
                json.loads(line)

    def test_profile_requires_known_target(self):
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["profile", "nope"])

    def test_target_rejected_without_profile(self):
        with pytest.raises(SystemExit):
            main(["table1", "table2"])

    def test_trace_out_flag_on_plain_experiment(self, tmp_path, capsys):
        trace = tmp_path / "t.trace.jsonl"
        metrics = tmp_path / "m.json"
        code, out = self.run_cli(
            capsys, "table1", "--quick", "--queries", "20",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--run-dir", str(tmp_path), "--no-manifest",
        )
        assert code == 0
        assert "Phase timing breakdown" not in out   # profile-mode only
        assert trace.exists() and metrics.exists()
        assert not list(tmp_path.glob("table1-*.json"))  # --no-manifest

    def test_plain_experiment_output_unchanged_by_profile(
            self, tmp_path, capsys):
        """`profile X` prints the same experiment table as `X`."""
        code_a, out_a = self.run_cli(capsys, "table1", "--quick",
                                     "--queries", "20")
        code_b, out_b = self.run_cli(
            capsys, "profile", "table1", "--quick", "--queries", "20",
            "--run-dir", str(tmp_path),
        )
        assert code_a == code_b == 0
        table_text = out_a.split("note:")[0]
        assert table_text in out_b


class TestEmptyTraceGuards:
    """Satellite: QueryTrace statistics fail loudly on empty workloads."""

    def _empty_trace(self):
        from repro.experiments.trace import QueryTrace

        return QueryTrace(
            algorithm="STR", workload="point", buffer_pages=10,
            accesses=np.empty(0, dtype=np.int64),
            results=np.empty(0, dtype=np.int64),
        )

    def test_mean_std_raise(self):
        t = self._empty_trace()
        with pytest.raises(ValueError, match="empty workload"):
            t.mean
        with pytest.raises(ValueError, match="empty workload"):
            t.std

    def test_percentile_and_summary_raise(self):
        t = self._empty_trace()
        with pytest.raises(ValueError, match="empty workload"):
            t.percentile(50)
        with pytest.raises(ValueError, match="empty workload"):
            t.summary()

    def test_paired_comparison_rejects_empty(self):
        from repro.experiments.trace import paired_comparison

        a, b = self._empty_trace(), self._empty_trace()
        with pytest.raises(ValueError, match="empty"):
            paired_comparison(a, b)

    def test_nonempty_still_works(self):
        from repro.experiments.trace import QueryTrace

        t = QueryTrace(algorithm="STR", workload="point", buffer_pages=10,
                       accesses=np.array([1, 2, 3], dtype=np.int64),
                       results=np.array([0, 1, 0], dtype=np.int64))
        assert t.mean == 2.0
        assert t.summary()["max"] == 3.0
