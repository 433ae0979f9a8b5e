"""Unit tests for the lint engine machinery.

Rule *behaviour* (what each RL00x flags and permits) lives in
``test_lint_rules.py``; this file covers the engine itself — discovery,
suppression comments, baselines, parse errors, report rendering, the
``repro lint`` CLI entry point — plus the repo-level regression test
that ``src/`` stays clean against the committed (empty) baseline.
"""

import ast
import json
import os

import pytest

from repro.cli import main
from repro.lint import (
    BASELINE_FORMAT,
    Baseline,
    DEFAULT_BASELINE,
    FileContext,
    Finding,
    LintEngine,
    Rule,
    all_rules,
    lint_paths,
)
from repro.lint.engine import PARSE_ERROR_RULE, resolve_call_name

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FlagEveryCall(Rule):
    """Test double: one finding per function call, applies everywhere."""

    id = "RLTEST"
    name = "flag-every-call"
    invariant = "test rule"

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield self.finding(ctx, node, "a call")


def engine_for(tmp_path, **kwargs):
    return LintEngine([FlagEveryCall()], root=tmp_path, **kwargs)


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


# -- registry / rule basics ---------------------------------------------------


def test_all_rules_registers_the_ten_project_rules():
    ids = [r.id for r in all_rules()]
    assert ids == sorted(ids)
    assert {"RL001", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008", "RL009", "RL010", "RL011"} <= set(ids)
    assert "RL002" not in ids  # folded into RL008


def test_every_rule_documents_its_invariant():
    for rule in all_rules():
        assert rule.id and rule.name and rule.invariant


def test_path_fragments_gate_applicability():
    rule = next(r for r in all_rules() if r.id == "RL005")
    assert rule.applies_to("src/repro/serve/server.py")
    assert not rule.applies_to("src/repro/rtree/rtree.py")


# -- alias resolution ---------------------------------------------------------


@pytest.mark.parametrize("source, call, expected", [
    ("import time", "time.time()", "time.time"),
    ("import numpy as np", "np.random.rand(3)", "numpy.random.rand"),
    ("from time import time as now", "now()", "time.time"),
    ("from os import path", "path.join('a')", "os.path.join"),
    ("from . import staging", "staging.publish()", "..staging.publish"),
    ("x = 1", "x.method()", "x.method"),
])
def test_resolve_call_name(source, call, expected):
    ctx = FileContext.parse("m.py", f"{source}\n{call}\n")
    node = ctx.tree.body[-1].value
    assert resolve_call_name(node.func, ctx.aliases) == expected


def test_resolve_call_name_is_none_for_dynamic_targets():
    ctx = FileContext.parse("m.py", "funcs['k']()\n")
    node = ctx.tree.body[0].value
    assert resolve_call_name(node.func, ctx.aliases) is None


# -- discovery ----------------------------------------------------------------


def test_discover_walks_directories_and_skips_pycache(tmp_path):
    write(tmp_path, "pkg/a.py", "x = 1\n")
    write(tmp_path, "pkg/sub/b.py", "y = 2\n")
    write(tmp_path, "pkg/__pycache__/a.cpython-310.pyc", "")
    write(tmp_path, "pkg/notes.txt", "not python")
    files = engine_for(tmp_path).discover(["pkg"])
    assert files == ["pkg/a.py", "pkg/sub/b.py"]


def test_discover_accepts_single_files_and_dedupes(tmp_path):
    write(tmp_path, "a.py", "x = 1\n")
    files = engine_for(tmp_path).discover(["a.py", "a.py", "."])
    assert files == ["a.py"]


# -- suppressions -------------------------------------------------------------


def test_same_line_suppression_counts_and_silences(tmp_path):
    engine = engine_for(tmp_path)
    findings, suppressed = engine.check_source(
        "m.py",
        "print(1)  # repro-lint: disable=RLTEST -- test justification\n"
        "print(2)\n",
    )
    assert suppressed == 1
    assert [f.line for f in findings] == [2]


def test_suppression_only_silences_the_named_rule(tmp_path):
    findings, suppressed = engine_for(tmp_path).check_source(
        "m.py", "print(1)  # repro-lint: disable=RL999\n")
    assert suppressed == 0
    assert len(findings) == 1


def test_disable_all_wildcard(tmp_path):
    findings, suppressed = engine_for(tmp_path).check_source(
        "m.py", "print(1)  # repro-lint: disable=all\n")
    assert suppressed == 1 and not findings


def test_disable_file_directive(tmp_path):
    findings, suppressed = engine_for(tmp_path).check_source(
        "m.py",
        "# repro-lint: disable-file=RLTEST\nprint(1)\nprint(2)\n")
    assert suppressed == 2 and not findings


def test_directive_inside_string_literal_is_ignored(tmp_path):
    findings, suppressed = engine_for(tmp_path).check_source(
        "m.py", 'print("# repro-lint: disable=RLTEST")\n')
    assert suppressed == 0
    assert len(findings) == 1


# -- parse errors -------------------------------------------------------------


def test_unparseable_file_is_a_finding_not_a_crash(tmp_path):
    findings, suppressed = engine_for(tmp_path).check_source(
        "bad.py", "def broken(:\n")
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE
    assert "does not parse" in findings[0].message


# -- baseline -----------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    f = Finding(rule="RLTEST", path="m.py", line=3, col=1, message="a call")
    base = Baseline.from_findings([f, f])
    path = base.write(tmp_path / "base.json")
    data = json.loads((tmp_path / "base.json").read_text())
    assert data["format"] == BASELINE_FORMAT
    assert data["findings"] == {f.key(): 2}
    assert Baseline.load(path).counts == base.counts


def test_baseline_load_rejects_foreign_format(tmp_path):
    (tmp_path / "base.json").write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        Baseline.load(tmp_path / "base.json")


def test_baseline_key_survives_line_moves():
    before = Finding(rule="R", path="m.py", line=3, col=1, message="x")
    after = Finding(rule="R", path="m.py", line=30, col=5, message="x")
    assert before.key() == after.key()


def test_baseline_split_fails_extra_occurrences_of_known_key(tmp_path):
    f = Finding(rule="RLTEST", path="m.py", line=1, col=1, message="a call")
    base = Baseline.from_findings([f])  # one occurrence grandfathered
    engine = engine_for(tmp_path, baseline=base)
    write(tmp_path, "m.py", "print(1)\nprint(2)\n")
    report = engine.run(["m.py"])
    assert len(report.baselined) == 1
    assert len(report.findings) == 1  # the second call is *new*
    assert not report.clean


# -- report -------------------------------------------------------------------


def test_report_shapes_text_and_json(tmp_path):
    write(tmp_path, "m.py", "print(1)\n")
    report = engine_for(tmp_path).run(["m.py"])
    text = report.render()
    assert "m.py:1:1: RLTEST a call" in text
    assert "1 finding(s)" in text
    data = json.loads(report.to_json())
    assert data["clean"] is False
    assert data["files_checked"] == 1
    assert data["findings"][0]["rule"] == "RLTEST"


def test_clean_report(tmp_path):
    write(tmp_path, "m.py", "x = 1\n")
    report = engine_for(tmp_path).run(["m.py"])
    assert report.clean
    assert "repro lint: clean" in report.render()


# -- the repo's own source stays clean ---------------------------------------


def test_src_is_clean_against_the_committed_baseline():
    """The acceptance bar: `repro lint` exits 0 on the repo, and the
    committed baseline grandfathers nothing (fix findings, don't
    baseline them)."""
    baseline = Baseline.load(os.path.join(REPO_ROOT, DEFAULT_BASELINE))
    assert baseline.counts == {}
    report = lint_paths(["src"], root=REPO_ROOT, baseline_path="")
    assert report.findings == [], report.render()
    assert report.files_checked > 50


# -- CLI ----------------------------------------------------------------------


def seed_violation(tmp_path):
    """A repro/storage-shaped file with an RL001 violation."""
    return write(tmp_path, "repro/storage/bad.py",
                 "import time\n\n\ndef stamp():\n    return time.time()\n")


def test_cli_lint_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    write(tmp_path, "src/repro/storage/ok.py", "x = 1\n")
    monkeypatch.chdir(tmp_path)
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "repro lint: clean" in out


def test_cli_lint_seeded_violation_exits_nonzero(tmp_path, monkeypatch,
                                                 capsys):
    seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "repro"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL001" in out and "time.time" in out


def test_cli_lint_json_format(tmp_path, monkeypatch, capsys):
    seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "repro", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["findings"][0]["rule"] == "RL001"


def test_cli_write_baseline_then_lint_is_clean(tmp_path, monkeypatch,
                                               capsys):
    seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "repro", "--write-baseline"]) == 0
    capsys.readouterr()
    code = main(["lint", "repro"])  # picks up lint-baseline.json
    out = capsys.readouterr().out
    assert code == 0
    assert "1 baselined" in out


def test_cli_manifest_records_the_report(tmp_path, monkeypatch, capsys):
    seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "repro", "--manifest",
                 "--run-dir", str(tmp_path / "runs")])
    assert code == 1
    manifests = list((tmp_path / "runs").glob("lint-*.json"))
    assert len(manifests) == 1
    data = json.loads(manifests[0].read_text())
    assert data["experiment"] == "lint"
    assert data["extra"]["lint"]["clean"] is False
    assert data["extra"]["lint"]["findings"][0]["rule"] == "RL001"


# -- stale baseline entries ---------------------------------------------------


def test_baseline_stale_keys_lists_unmatched_entries():
    live = Finding(rule="RLTEST", path="m.py", line=1, col=1,
                   message="a call")
    gone = Finding(rule="RLTEST", path="deleted.py", line=9, col=1,
                   message="a call")
    base = Baseline.from_findings([live, gone])
    assert base.stale_keys([live]) == [gone.key()]
    assert base.stale_keys([live, gone]) == []


def test_run_reports_stale_baseline_and_render_names_the_key(tmp_path):
    gone = Finding(rule="RLTEST", path="deleted.py", line=9, col=1,
                   message="a call")
    engine = engine_for(tmp_path, baseline=Baseline.from_findings([gone]))
    write(tmp_path, "m.py", "x = 1\n")
    report = engine.run(["m.py"])
    assert report.stale_baseline == [gone.key()]
    text = report.render()
    assert "stale baseline entry" in text
    assert gone.key() in text
    assert "1 stale baseline key(s)" in text
    assert json.loads(report.to_json())["stale_baseline"] == [gone.key()]


def test_cli_stale_baseline_exits_nonzero(tmp_path, monkeypatch, capsys):
    write(tmp_path, "src/repro/storage/ok.py", "x = 1\n")
    gone = Finding(rule="RL001", path="deleted.py", line=9, col=1,
                   message="calls time.time")
    Baseline.from_findings([gone]).write(tmp_path / "stale.json")
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "--baseline", "stale.json"])
    out = capsys.readouterr().out
    assert code == 1
    assert "stale baseline entry" in out


def test_cli_write_baseline_prunes_stale_keys(tmp_path, monkeypatch,
                                              capsys):
    seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "repro", "--write-baseline"]) == 0
    out = capsys.readouterr().out
    assert "1 finding(s) baselined" in out
    # fix the violation: the rewrite must drop the now-dead key
    write(tmp_path, "repro/storage/bad.py", "x = 1\n")
    assert main(["lint", "repro", "--write-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s) baselined" in out
    assert "1 stale key(s) pruned" in out
    data = json.loads((tmp_path / DEFAULT_BASELINE).read_text())
    assert data["findings"] == {}


# -- rule selection and timing ------------------------------------------------


def test_cli_rules_filter_runs_only_the_named_rules(tmp_path, monkeypatch,
                                                    capsys):
    seed_violation(tmp_path)  # an RL001 violation
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "repro", "--rules", "RL003"])
    out = capsys.readouterr().out
    assert code == 0  # RL001 never ran
    assert "1 rule(s)" in out
    capsys.readouterr()
    assert main(["lint", "repro", "--rules", "rl001,RL003"]) == 1
    assert "RL001" in capsys.readouterr().out


def test_cli_rules_filter_rejects_unknown_ids(tmp_path, monkeypatch,
                                              capsys):
    write(tmp_path, "src/repro/storage/ok.py", "x = 1\n")
    monkeypatch.chdir(tmp_path)
    code = main(["lint", "--rules", "RL999"])
    err = capsys.readouterr().err
    assert code == 2
    assert "RL999" in err
    assert "RL001" in err  # the known ids are listed


def test_report_records_per_rule_wall_time(tmp_path):
    write(tmp_path, "m.py", "print(1)\n")
    report = engine_for(tmp_path).run(["m.py"])
    assert set(report.rule_seconds) == {"RLTEST"}
    assert report.rule_seconds["RLTEST"] >= 0.0
    data = json.loads(report.to_json())
    assert "RLTEST" in data["rule_seconds"]
