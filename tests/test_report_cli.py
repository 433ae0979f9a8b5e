"""``repro report``: list, re-render, diff, export, prune (CLI level)."""

import copy
import json
import os
import time

import pytest

from repro import obs
from repro.bench import write_bench
from repro.bench.schema import DEFAULT_TOLERANCE
from repro.bench.report import diff_tables, prune_runs
from repro.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def _write_run(run_dir, experiment="profile-x", spans=True,
               created="2026-08-07T10:00:00+00:00"):
    """A synthetic stored run: manifest plus (optionally) a span trace."""
    tracer = obs.Tracer()
    with tracer.span("query.batch"):
        with tracer.span("query.page_decode"):
            time.sleep(0.001)
        with tracer.span("query.node_walk"):
            time.sleep(0.001)
    registry = obs.MetricsRegistry()
    registry.counter("io.disk_reads").inc(42)
    manifest = obs.RunManifest.collect(
        experiment, argv=[experiment], duration_s=0.5,
        tracer=tracer, registry=registry,
    )
    manifest.created_utc = created
    stem = obs.unique_run_stem(manifest, run_dir)
    if spans:
        manifest.outputs["trace_jsonl"] = obs.write_trace_jsonl(
            tracer, os.path.join(run_dir, f"{stem}.trace.jsonl")
        )
    return obs.write_manifest(manifest, run_dir, stem=stem), stem


BENCH_SCENARIO = {
    "description": "synthetic", "ops": 100, "elapsed_s": 1.0,
    "queries_per_s": 100.0, "mean_accesses": 2.0,
    "latency_s": {"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03,
                  "max": 0.05},
    "io": {"pages_read": 200, "bytes_read": 819200, "buffer_hits": 300,
           "buffer_misses": 200},
    "self_time_s": {"read": 0.4, "decode": 0.2, "walk": 0.3,
                    "other": 0.1},
    "tolerance": {"queries_per_s_min_ratio": 0.1, "p99_max_ratio": 10.0,
                  "pages_read_rel": 0.01},
}


def _bench_doc(**scenario_overrides):
    scenario = copy.deepcopy(BENCH_SCENARIO)
    for key, value in scenario_overrides.items():
        node = scenario
        *path, leaf = key.split(".")
        for part in path:
            node = node[part]
        node[leaf] = value
    return {
        "format": "repro-bench-v1",
        "created_utc": "2026-08-07T10:00:00+00:00",
        "profile": "quick", "host_class": "linux-x86_64",
        "environment": {"git_sha": None, "python": "3.x"},
        "config": {"profile": "quick", "seed": 0},
        "scenarios": {"window_1pct": scenario},
    }


class TestListAndRender:
    def test_list_shows_stems_and_artefact_kinds(self, tmp_path, capsys):
        run_dir = str(tmp_path)
        _, stem = _write_run(run_dir)
        code, out = run_cli(capsys, "report", "--run-dir", run_dir)
        assert code == 0
        assert stem in out
        assert "trace.jsonl" in out

    def test_render_has_timings_metrics_and_header(self, tmp_path, capsys):
        run_dir = str(tmp_path)
        _, stem = _write_run(run_dir)
        code, out = run_cli(capsys, "report", stem, "--run-dir", run_dir)
        assert code == 0
        assert "experiment:  profile-x" in out
        assert "Phase timing breakdown" in out
        assert "decode" in out and "walk" in out
        assert "io.disk_reads" in out and "42" in out

    def test_unknown_stem_is_a_cli_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "nope", "--run-dir", str(tmp_path)])


class TestTraceExports:
    def test_chrome_trace_and_flamegraph_written(self, tmp_path, capsys):
        run_dir = str(tmp_path / "runs")
        os.makedirs(run_dir)
        _, stem = _write_run(run_dir)
        chrome = tmp_path / "out.chrome.json"
        folded = tmp_path / "out.folded"
        code, out = run_cli(capsys, "report", stem, "--run-dir", run_dir,
                            "--chrome-trace", str(chrome),
                            "--flamegraph", str(folded))
        assert code == 0
        doc = json.loads(chrome.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == ["query.batch", "query.page_decode",
                         "query.node_walk"]
        lines = folded.read_text().splitlines()
        assert any(line.startswith("query.batch;query.node_walk ")
                   for line in lines)

    def test_export_without_a_trace_is_a_cli_error(self, tmp_path):
        run_dir = str(tmp_path)
        _, stem = _write_run(run_dir, spans=False)
        with pytest.raises(SystemExit):
            main(["report", stem, "--run-dir", run_dir,
                  "--chrome-trace", str(tmp_path / "x.json")])


class TestDiff:
    def test_identical_bench_docs_have_no_crossings(self, tmp_path,
                                                    capsys):
        a = str(tmp_path / "a.json")
        write_bench(_bench_doc(), a)
        code, out = run_cli(capsys, "report", "--diff", a, a)
        assert code == 0
        assert "window_1pct" in out and "pages_read" in out

    def test_pages_read_regression_crosses_the_band(self, tmp_path,
                                                    capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_bench(_bench_doc(), a)
        write_bench(_bench_doc(**{"io.pages_read": 230}), b)
        code, out = run_cli(capsys, "report", "--diff", a, b)
        assert code == 1  # +15% pages_read vs a 1% band

    @pytest.mark.parametrize("before, after", [(200, 201), (0, 1)])
    def test_default_band_pins_pages_read_exactly(self, tmp_path, capsys,
                                                  before, after):
        # One page more, or any move off a zero baseline (the build
        # scenario reads none), is a real change to the access counts.
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        band = dict(DEFAULT_TOLERANCE)
        write_bench(_bench_doc(**{"io.pages_read": before,
                                  "tolerance": band}), a)
        write_bench(_bench_doc(**{"io.pages_read": after,
                                  "tolerance": band}), b)
        assert main(["report", "--diff", a, b]) == 1
        crossed = f"CROSSED: window_1pct: pages_read moved {before} -> {after}"
        assert crossed in capsys.readouterr().err
        assert main(["report", "--diff", a, a]) == 0

    @pytest.mark.parametrize("counter", ["buffer_hits", "buffer_misses"])
    def test_default_band_pins_buffer_counts_exactly(self, tmp_path, capsys,
                                                     counter):
        # An extra page request that hits the buffer leaves pages_read
        # alone but still moves the buffer counts: that crosses too.
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        band = dict(DEFAULT_TOLERANCE)
        write_bench(_bench_doc(tolerance=band), a)
        moved = _bench_doc(tolerance=band)
        before = moved["scenarios"]["window_1pct"]["io"][counter]
        moved["scenarios"]["window_1pct"]["io"][counter] = before + 1
        write_bench(moved, b)
        assert main(["report", "--diff", a, b]) == 1
        crossed = (f"CROSSED: window_1pct: {counter} moved {before} -> "
                   f"{before + 1}")
        assert crossed in capsys.readouterr().err

    def test_generous_wallclock_band_tolerates_slow_hosts(self, tmp_path,
                                                          capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_bench(_bench_doc(), a)
        # 5x slower wall clock stays inside the 10x/0.1x bands.
        write_bench(_bench_doc(**{"queries_per_s": 20.0,
                                  "latency_s.p99": 0.15}), b)
        code, out = run_cli(capsys, "report", "--diff", a, b)
        assert code == 0

    def test_qps_collapse_crosses_the_band(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_bench(_bench_doc(), a)
        write_bench(_bench_doc(**{"queries_per_s": 5.0}), b)
        code, out = run_cli(capsys, "report", "--diff", a, b)
        assert code == 1

    def test_profile_mismatch_disables_gating(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_bench(_bench_doc(), a)
        full = _bench_doc(**{"io.pages_read": 9999})
        full["profile"] = "full"
        write_bench(full, b)
        code, out = run_cli(capsys, "report", "--diff", a, b)
        assert code == 0
        assert "informational" in out

    def test_manifest_diff_highlights_large_moves(self, tmp_path, capsys):
        run_dir = str(tmp_path)
        path_a, _ = _write_run(run_dir, experiment="run-a")
        path_b, _ = _write_run(run_dir, experiment="run-b",
                               created="2026-08-07T11:00:00+00:00")
        code, out = run_cli(capsys, "report", "--diff", path_a, path_b)
        assert code == 0  # manifest diffs never gate
        assert "duration_s" in out
        assert "io.disk_reads" in out

    def test_mixed_kinds_rejected(self, tmp_path):
        bench = str(tmp_path / "a.json")
        write_bench(_bench_doc(), bench)
        manifest_path, _ = _write_run(str(tmp_path / "runs"))
        with pytest.raises(Exception, match="cannot diff"):
            diff_tables(bench, manifest_path)


class TestPrune:
    def test_prune_keeps_newest_whole_stems(self, tmp_path, capsys):
        run_dir = str(tmp_path)
        stems = []
        for i in range(4):
            path, stem = _write_run(run_dir, experiment=f"run-{i}")
            stems.append(stem)
            now = time.time() + i  # strictly increasing mtimes
            for name in os.listdir(run_dir):
                if name.startswith(stem):
                    os.utime(os.path.join(run_dir, name), (now, now))
        code, out = run_cli(capsys, "report", "--prune", "--keep", "2",
                            "--run-dir", run_dir)
        assert code == 0
        left = sorted(os.listdir(run_dir))
        assert all(n.startswith((stems[2], stems[3])) for n in left)
        # Both survivors keep manifest AND trace together.
        for stem in (stems[2], stems[3]):
            assert f"{stem}.json" in left
            assert f"{stem}.trace.jsonl" in left

    def test_dry_run_removes_nothing(self, tmp_path):
        run_dir = str(tmp_path)
        _write_run(run_dir)
        before = sorted(os.listdir(run_dir))
        removed = prune_runs(run_dir, keep=0, dry_run=True)
        assert removed and sorted(os.listdir(run_dir)) == before

    def test_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_runs(str(tmp_path), keep=-1)


class TestBenchCli:
    def test_bench_rejects_positional_target(self):
        with pytest.raises(SystemExit):
            main(["bench", "extra-arg"])

    def test_quick_filtered_bench_writes_doc_and_run_files(
            self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "bench.json")
        run_dir = str(tmp_path / "runs")
        code, stdout = run_cli(capsys, "bench", "--quick",
                               "--scenario", "point",
                               "--out", out, "--run-dir", run_dir)
        assert code == 0
        assert os.path.isfile(out)
        doc = json.load(open(out))
        assert doc["format"] == "repro-bench-v1"
        assert list(doc["scenarios"]) == ["build", "point"]
        kinds = sorted(n.split(".", 1)[1] for n in os.listdir(run_dir))
        assert kinds == ["bench.json", "json", "trace.jsonl"]
        assert "point" in stdout and "qps" in stdout
