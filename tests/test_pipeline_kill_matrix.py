"""Kill-matrix: SIGKILL real processes mid-build, resume, verify.

These tests drive the actual ``python -m repro build`` CLI in
subprocesses — not in-process fault injection — and deliver real
SIGKILLs to worker processes and to the whole orchestrator process
group, and a SIGINT (Ctrl-C) to the whole group.  The bar is the same
as everywhere else in this suite: after any number of kills and
resumes the durable output file is **byte-for-byte identical**
(whole-file SHA-256, superblock included) to a build that was never
interrupted, and ``repro fsck`` finds it clean.

The CI kill-matrix job runs this file on every push; locally it takes a
few seconds because builds are throttled to open a kill window.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="kill matrix reads /proc and uses process groups",
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZE = "4000"
CAPACITY = "50"


def _build_argv(target, staging, *extra):
    return [
        sys.executable, "-m", "repro", "build", str(target),
        "--size", SIZE, "--capacity", CAPACITY, "--workers", "2",
        "--staging", str(staging), "--no-manifest", *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def _run(argv, **kwargs):
    return subprocess.run(argv, env=_env(), cwd=REPO, capture_output=True,
                          text=True, timeout=300, **kwargs)


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _child_pids(pid):
    """Direct children of ``pid`` (via /proc stat field 4)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # PPID is field 4; field 2 is the comm, which may contain spaces
        # but is parenthesised — split after the closing paren.
        fields = stat.rsplit(")", 1)[-1].split()
        if fields and int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _verify_final(name, target, staging, clean_digest):
    """fsck + digest check; on failure dump everything a debugger needs
    (the file, any staging left behind, both digests, the fsck output)
    to ``$REPRO_KILL_REPORT_DIR`` — CI uploads it as an artifact."""
    fsck = _run([sys.executable, "-m", "repro", "fsck", str(target)])
    digest = _sha256(target) if target.exists() else None
    if fsck.returncode != 0 or digest != clean_digest:
        report_dir = os.environ.get("REPRO_KILL_REPORT_DIR")
        if report_dir:
            dest = os.path.join(report_dir, name)
            os.makedirs(dest, exist_ok=True)
            if target.exists():
                shutil.copy(target, os.path.join(dest, target.name))
            if staging.exists():
                shutil.copytree(staging, os.path.join(dest, "staging"),
                                dirs_exist_ok=True)
            with open(os.path.join(dest, "report.json"), "w") as f:
                json.dump({"digest": digest, "clean_digest": clean_digest,
                           "fsck_returncode": fsck.returncode,
                           "fsck_stdout": fsck.stdout,
                           "fsck_stderr": fsck.stderr}, f, indent=2)
    assert fsck.returncode == 0, fsck.stdout + fsck.stderr
    assert digest == clean_digest


@pytest.fixture(scope="module")
def clean_digest(tmp_path_factory):
    """SHA-256 of an uninterrupted build — the oracle for every kill."""
    base = tmp_path_factory.mktemp("clean")
    target = base / "tree.rt"
    proc = _run(_build_argv(target, base / "staging"))
    assert proc.returncode == 0, proc.stderr
    return _sha256(target)


def _signal_group_then_resume(tmp_path, clean_digest, sig, name):
    """Signal a throttled build's whole process group, resume, verify.

    When the signal landed before the build finished (its staging
    directory was kept), returns the signalled run's exit code, its
    stderr and whether it left ``<target>.partial`` behind; else
    ``None``.
    """
    target = tmp_path / "tree.rt"
    staging = tmp_path / "staging"
    # Throttled workers open a multi-second window; signal the whole
    # process group (orchestrator + workers) inside it.
    proc = subprocess.Popen(
        _build_argv(target, staging, "--throttle-s", "0.4"),
        env=_env(), cwd=REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.5)
    signalled = proc.poll() is None
    if signalled:
        os.killpg(proc.pid, sig)
    _, err = proc.communicate(timeout=30)

    interrupted = None
    if staging.exists():  # the signal landed before completion
        partial = target.with_name(target.name + ".partial")
        interrupted = proc.returncode, err, partial.exists()
        resumed = _run(_build_argv(target, staging, "--resume"))
        assert resumed.returncode == 0, resumed.stderr
        assert not staging.exists()  # consumed by the resume
    else:
        assert not signalled  # build won the race; nothing to resume

    _verify_final(name, target, staging, clean_digest)
    return interrupted


def test_orchestrator_sigkill_then_resume(tmp_path, clean_digest):
    # Like a machine going away.
    _signal_group_then_resume(tmp_path, clean_digest, signal.SIGKILL,
                              "orchestrator-sigkill")


def test_orchestrator_sigint_then_resume(tmp_path, clean_digest):
    """Ctrl-C at the terminal: one line naming the kept staging
    directory and --resume, no traceback, exit code 128 + SIGINT."""
    interrupted = _signal_group_then_resume(
        tmp_path, clean_digest, signal.SIGINT, "orchestrator-sigint")
    if interrupted is not None:
        returncode, err, partial_left = interrupted
        assert "Traceback" not in err, err
        failed = [line for line in err.splitlines()
                  if line.startswith("build failed:")]
        assert len(failed) == 1, err
        assert "interrupted" in failed[0]
        assert str(tmp_path / "staging") in failed[0]
        assert "--resume" in failed[0]
        assert returncode == 130, err
        assert not partial_left


def test_worker_sigkills_are_absorbed_without_resume(tmp_path,
                                                     clean_digest):
    target = tmp_path / "tree.rt"
    staging = tmp_path / "staging"
    proc = subprocess.Popen(
        _build_argv(target, staging, "--throttle-s", "0.3",
                    "--worker-deadline-s", "30", "--max-attempts", "10"),
        env=_env(), cwd=REPO,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # Shoot the first two distinct workers we can catch; the supervisor
    # must retry them in-flight — no resume step at all.
    shot = set()
    deadline = time.monotonic() + 20.0
    while len(shot) < 2 and time.monotonic() < deadline \
            and proc.poll() is None:
        for pid in _child_pids(proc.pid):
            if pid not in shot:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                shot.add(pid)
                break
        time.sleep(0.05)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    if shot:
        assert "retries" in out

    _verify_final("worker-sigkills", target, staging, clean_digest)


def test_double_kill_double_resume(tmp_path, clean_digest):
    """Two orchestrator kills back to back still converge."""
    target = tmp_path / "tree.rt"
    staging = tmp_path / "staging"
    argv = _build_argv(target, staging, "--throttle-s", "0.4")
    for _ in range(2):
        proc = subprocess.Popen(
            argv, env=_env(), cwd=REPO, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        time.sleep(0.9)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        if not staging.exists():  # finished before the kill landed
            break
        argv = _build_argv(target, staging, "--throttle-s", "0.4",
                           "--resume")
    if staging.exists():
        final = _run(_build_argv(target, staging, "--resume"))
        assert final.returncode == 0, final.stderr
    _verify_final("double-kill", target, staging, clean_digest)


def _running(pids):
    """The pids in ``pids`` that are neither gone nor zombies."""
    running = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[-1].split()[0]
        except OSError:
            continue
        if state != "Z":
            running.append(pid)
    return running


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=["SIGTERM", "SIGKILL"])
def test_workers_exit_when_the_orchestrator_alone_dies(tmp_path, sig):
    """An orchestrator killed without its process group (so without
    reaching its cleanup) leaves no worker waiting for a next shard."""
    proc = subprocess.Popen(
        _build_argv(tmp_path / "tree.rt", tmp_path / "staging",
                    "--throttle-s", "0.4"),
        env=_env(), cwd=REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        workers = []
        deadline = time.monotonic() + 20.0
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _child_pids(proc.pid)
            time.sleep(0.05)
        assert len(workers) == 2
        os.kill(proc.pid, sig)
        proc.wait(timeout=30)
        # Each worker finishes the throttled shard it holds, then sees
        # that its orchestrator is gone.
        deadline = time.monotonic() + 10.0
        while _running(workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _running(workers) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
