"""Unit tests for the span/tracer layer."""

import json
import time

import pytest

from repro.obs import (
    PHASES,
    Tracer,
    phase_of,
    read_spans_jsonl,
)
from repro.obs import runtime as obs_runtime


class TestSpanBasics:
    def test_records_wall_and_cpu_time(self):
        t = Tracer()
        with t.span("work") as s:
            time.sleep(0.01)
        assert s.finished
        assert s.duration >= 0.01
        assert s.cpu_time >= 0.0
        assert len(t) == 1

    def test_labels_kept(self):
        t = Tracer()
        with t.span("str.sort", dim=1, count=42) as s:
            pass
        assert s.labels == {"dim": 1, "count": 42}

    def test_nesting_depth_and_parent(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("middle"):
                with t.span("inner"):
                    pass
        by_name = {s.name: s for s in t.spans}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None
        assert by_name["middle"].depth == 1
        assert by_name["middle"].parent == "outer"
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent == "middle"

    def test_completion_order_inner_first_but_index_start_order(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                pass
        assert [s.name for s in t.spans] == ["b", "a"]
        assert [s.index for s in sorted(t.spans, key=lambda s: s.index)] \
            == [0, 1]

    def test_span_closed_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert t.open_depth == 0
        assert t.spans[0].finished

    def test_parent_timing_covers_child(self):
        t = Tracer()
        with t.span("parent"):
            with t.span("child"):
                time.sleep(0.005)
        by_name = {s.name: s for s in t.spans}
        assert by_name["parent"].duration >= by_name["child"].duration

    def test_timing_monotonic_nonnegative(self):
        t = Tracer()
        for _ in range(20):
            with t.span("tick"):
                pass
        assert all(s.duration >= 0.0 for s in t.spans)
        assert all(s.cpu_time >= 0.0 for s in t.spans)
        starts = [s.start for s in sorted(t.spans, key=lambda s: s.index)]
        assert starts == sorted(starts)


class TestSummaries:
    def test_summary_aggregates_by_name(self):
        t = Tracer()
        for i in range(3):
            with t.span("str.sort", dim=i):
                pass
        with t.span("query.batch"):
            pass
        summary = t.summary()
        assert summary["str.sort"]["count"] == 3
        assert summary["query.batch"]["count"] == 1
        assert summary["str.sort"]["phase"] == "sort"

    def test_self_time_excludes_children(self):
        t = Tracer()
        with t.span("parent"):
            with t.span("child"):
                time.sleep(0.02)
        selfs = t.self_times()
        by_name = {s.name: s for s in t.spans}
        parent_self = selfs[by_name["parent"].index][0]
        child_self = selfs[by_name["child"].index][0]
        assert child_self >= 0.02
        # Parent's self time is its duration minus the child's ~20ms.
        assert parent_self < by_name["parent"].duration - 0.015

    def test_phase_summary_sums_to_total_traced_time(self):
        t = Tracer()
        with t.span("bulk.load"):          # pack
            with t.span("str.sort"):       # sort
                time.sleep(0.005)
            with t.span("bulk.write_level"):   # pack (nested same phase)
                pass
        with t.span("query.batch"):
            pass
        phases = t.phase_summary()
        total_self = sum(p["wall_s"] for p in phases.values())
        top_level = [s for s in t.spans if s.depth == 0]
        total_wall = sum(s.duration for s in top_level)
        assert total_self == pytest.approx(total_wall, rel=1e-6)
        assert set(phases) <= set(PHASES)

    def test_clear(self):
        t = Tracer()
        with t.span("x"):
            pass
        t.clear()
        assert len(t) == 0


class TestPhaseOf:
    @pytest.mark.parametrize("name,phase", [
        ("str.sort", "sort"),
        ("hs.sort", "sort"),
        ("nx.sort", "sort"),
        ("hs.key", "sort"),
        ("str.tile", "tile"),
        ("bulk.write_level", "pack"),
        ("bulk.load", "pack"),
        ("pack.order", "pack"),
        ("query.search", "query"),
        ("query.batch", "query"),
        ("mystery.thing", "other"),
    ])
    def test_taxonomy(self, name, phase):
        assert phase_of(name) == phase


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        t = Tracer()
        with t.span("a", k=1):
            with t.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert t.to_jsonl(path) == 2
        rows = read_spans_jsonl(path)
        assert len(rows) == 2
        names = {r["name"] for r in rows}
        assert names == {"a", "b"}
        for r in rows:
            assert set(r) >= {"name", "phase", "labels", "start",
                              "duration_s", "cpu_s", "depth", "parent",
                              "index"}
        # Every line is valid standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)


class TestRuntimeSwitch:
    def test_disabled_by_default_is_noop(self):
        assert not obs_runtime.enabled()
        with obs_runtime.span("anything", x=1):
            pass
        obs_runtime.inc("c")
        obs_runtime.observe("h", 1.0)
        obs_runtime.set_gauge("g", 2.0)
        assert obs_runtime.tracer() is None
        assert obs_runtime.registry() is None

    def test_telemetry_context_collects_and_restores(self):
        with obs_runtime.telemetry() as (tracer, registry):
            assert obs_runtime.enabled()
            with obs_runtime.span("x"):
                pass
            obs_runtime.inc("n", 3)
        assert not obs_runtime.enabled()
        assert len(tracer) == 1
        assert registry.counter("n").value == 3

    def test_nested_telemetry_stacks(self):
        with obs_runtime.telemetry() as (outer_tracer, _):
            with obs_runtime.telemetry() as (inner_tracer, _):
                with obs_runtime.span("inner.only"):
                    pass
            with obs_runtime.span("outer.only"):
                pass
        assert [s.name for s in inner_tracer.spans] == ["inner.only"]
        assert [s.name for s in outer_tracer.spans] == ["outer.only"]
