"""``repro build`` refusals: a typed error ends in one ``build failed``
line and a documented exit code, never a traceback, and the tree
already at the target survives it byte for byte.

Run as real subprocesses, because a traceback is what the interpreter
prints for an exception nothing caught.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _repro(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=env, cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=120)


def _build(tmp_path, *extra):
    return _repro(tmp_path, "build", str(tmp_path / "tree.rt"),
                  "--size", "500", "--capacity", "20", "--workers", "0",
                  "--staging", str(tmp_path / "staging"), "--no-manifest",
                  *extra)


def _existing_tree(tmp_path):
    """Build a tree at the target; returns its bytes."""
    proc = _build(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "staging").exists()
    return (tmp_path / "tree.rt").read_bytes()


def _assert_tree_kept(tmp_path, before):
    assert (tmp_path / "tree.rt").read_bytes() == before
    assert not (tmp_path / "tree.rt.partial").exists()
    fsck = _repro(tmp_path, "fsck", str(tmp_path / "tree.rt"),
                  "--no-manifest")
    assert fsck.returncode == 0, fsck.stdout + fsck.stderr


def _assert_refused(proc, *fragments):
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("build failed: ")
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("plan, fragment", [
    ("[]", "not a JSON object"),
    (None, "unreadable plan"),
])
def test_resume_over_a_bad_plan_is_a_one_line_refusal(tmp_path, plan,
                                                      fragment):
    before = _existing_tree(tmp_path)
    (tmp_path / "staging").mkdir()
    if plan is not None:
        (tmp_path / "staging" / "plan.json").write_text(plan)
    proc = _build(tmp_path, "--resume")
    _assert_refused(proc, "plan.json", fragment)
    if plan is not None:  # the refused staging directory is kept
        assert (tmp_path / "staging" / "plan.json").read_text() == plan
    _assert_tree_kept(tmp_path, before)


def test_fresh_build_over_existing_staging_is_a_one_line_refusal(tmp_path):
    before = _existing_tree(tmp_path)
    (tmp_path / "staging").mkdir()
    (tmp_path / "staging" / "plan.json").write_text("{}")
    proc = _build(tmp_path)
    _assert_refused(proc, "already exists", "--resume")
    assert (tmp_path / "staging" / "plan.json").read_text() == "{}"
    _assert_tree_kept(tmp_path, before)


def test_interrupt_before_a_plan_is_staged_says_rerun_fresh(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """Ctrl-C while the input is still being staged leaves nothing to
    resume: the one line says to rerun without --resume, and that
    rerun builds over the half-staged directory."""
    from repro import cli, pipeline

    def interrupted(*args, staging_path, **kwargs):
        os.makedirs(staging_path)
        with open(os.path.join(staging_path, "input.lo.npy"), "wb") as f:
            f.write(b"torn")
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "parallel_bulk_load", interrupted)
    # An interrupt that escaped would stop the whole test session.
    try:
        code = cli.main(["build", str(tmp_path / "tree.rt"),
                         "--size", "500", "--capacity", "20",
                         "--workers", "0", "--staging",
                         str(tmp_path / "staging"), "--no-manifest"])
    except KeyboardInterrupt:
        pytest.fail("repro build let the interrupt escape")
    assert code == 130
    assert capsys.readouterr().err.strip().splitlines() == [
        "build failed: interrupted; no plan was staged yet, rerun the "
        "build without --resume"]
    assert not (tmp_path / "tree.rt.partial").exists()
    monkeypatch.undo()
    proc = _build(tmp_path)
    assert proc.returncode == 0, proc.stderr
