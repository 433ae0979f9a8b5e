"""Per-rule fixtures: what each RL00x flags, and what it must permit.

Every rule gets true-positive fixtures (the violation it exists to
catch), true-negative fixtures (the sanctioned idioms it must never
flag — injection defaults, seeded RNGs, the staging helpers, failure
counters, executor dispatch), and a suppression check.  Fixtures are
checked as in-memory sources with repo-shaped paths, exactly how the
engine sees real files.
"""

import pytest

from repro.lint import LintEngine, all_rules


@pytest.fixture(scope="module")
def engine():
    return LintEngine(all_rules())


def findings_for(engine, path, source, rule=None):
    found, _ = engine.check_source(path, source)
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# -- RL001 no-wallclock-or-rng ------------------------------------------------

RL001_PATH = "src/repro/rtree/rtree.py"


@pytest.mark.parametrize("source, fragment", [
    ("import time\nt = time.time()\n", "time.time"),
    ("import time\nt = time.time_ns()\n", "time.time_ns"),
    ("from time import time as now\nt = now()\n", "time.time"),
    ("import os\nb = os.urandom(8)\n", "os.urandom"),
    ("import random\nx = random.random()\n", "random.random"),
    ("import random\nrandom.shuffle([1, 2])\n", "random.shuffle"),
    ("import random\nr = random.Random()\n", "random.Random"),
    ("import numpy as np\nx = np.random.rand(3)\n", "numpy.random.rand"),
    ("import numpy as np\nnp.random.seed(0)\n", "numpy.random.seed"),
    ("import numpy as np\nr = np.random.default_rng()\n",
     "numpy.random.default_rng"),
    ("from datetime import datetime\nt = datetime.now()\n",
     "datetime.now"),
    ("import datetime\nt = datetime.datetime.utcnow()\n",
     "datetime.datetime.utcnow"),
])
def test_rl001_flags_ambient_clock_and_rng(engine, source, fragment):
    found = findings_for(engine, RL001_PATH, source, "RL001")
    assert len(found) == 1
    assert fragment in found[0].message


@pytest.mark.parametrize("source", [
    # The injection idiom: banned callables *referenced* as defaults.
    "import time\n\n\ndef f(clock=time.monotonic):\n    return clock()\n",
    "import time\n\n\ndef f(clock=time.time):\n    return clock()\n",
    # Monotonic/CPU clocks are deterministic enough for durations.
    "import time\nt = time.monotonic()\nu = time.perf_counter()\n",
    # Seeded construction.
    "import numpy as np\nr = np.random.default_rng(42)\n",
    "import random\nr = random.Random(42)\n",
    # Methods on an injected generator object are not module-level RNG.
    "def f(rng):\n    return rng.random()\n",
    # Explicit-tz timestamps (manifest metadata).
    "from datetime import datetime, timezone\n"
    "t = datetime.now(timezone.utc)\n",
])
def test_rl001_permits_injection_and_seeded_idioms(engine, source):
    assert findings_for(engine, RL001_PATH, source, "RL001") == []


def test_rl001_only_guards_the_measured_core(engine):
    source = "import time\nt = time.time()\n"
    assert findings_for(engine, "src/repro/obs/spans.py", source, "RL001") \
        == []
    assert findings_for(engine, "src/repro/experiments/runner.py", source,
                        "RL001") == []


def test_rl001_suppression(engine):
    source = ("import time\n"
              "t = time.time()  # repro-lint: disable=RL001 -- calibration\n")
    found, suppressed = engine.check_source(RL001_PATH, source)
    assert suppressed == 1
    assert [f for f in found if f.rule == "RL001"] == []


# -- RL008 rename placement ---------------------------------------------------
# (RL008's flow-sensitive half lives in test_lint_flow_rules.py.)


@pytest.mark.parametrize("source, fn", [
    ("import os\nos.rename('a', 'b')\n", "os.rename"),
    ("import os\nos.replace('a', 'b')\n", "os.replace"),
    ("import os\nos.renames('a', 'b')\n", "os.renames"),
    ("import shutil\nshutil.move('a', 'b')\n", "shutil.move"),
    ("from os import replace\nreplace('a', 'b')\n", "os.replace"),
])
def test_rl008_flags_raw_renames_outside_staging(engine, source, fn):
    found = findings_for(engine, "src/repro/experiments/runner.py",
                         source, "RL008")
    assert len(found) == 1
    assert fn in found[0].message
    assert "repro.pipeline.staging" in found[0].message


def test_rl008_flags_a_rename_in_the_page_store(engine):
    # The store commits by superblock write and renames nothing.
    source = "import os\nos.replace('a.tmp', 'a')\n"
    found = findings_for(engine, "src/repro/storage/store.py", source,
                         "RL008")
    assert len(found) == 1
    assert "os.replace" in found[0].message
    assert "repro.pipeline.staging" in found[0].message


def test_rl008_flags_a_rename_in_the_external_sorter(engine):
    # Spill runs publish through staging.atomic_publish; a hand-written
    # fsync-then-rename there is a second copy of the protocol, flagged
    # even when it is correct.
    source = (
        "import os\n"
        "def spill(path, data):\n"
        "    tmp = path + '.tmp'\n"
        "    with open(tmp, 'wb') as f:\n"
        "        f.write(data)\n"
        "        f.flush()\n"
        "        os.fsync(f.fileno())\n"
        "    os.replace(tmp, path)\n")
    found = findings_for(engine, "src/repro/core/packing/external.py",
                         source, "RL008")
    assert len(found) == 1
    assert "repro.pipeline.staging" in found[0].message
    assert findings_for(engine, "src/repro/pipeline/staging.py", source,
                        "RL008") == []


def test_rl008_flags_a_module_level_rename_in_staging(engine):
    # Only staging's functions get the dominance proof; a rename outside
    # them is unproven, so it is flagged like any other.
    source = "import os\nos.replace('a.tmp', 'a')\n"
    found = findings_for(engine, "src/repro/pipeline/staging.py", source,
                         "RL008")
    assert len(found) == 1
    assert "repro.pipeline.staging" in found[0].message


def test_rl008_ignores_non_rename_os_calls(engine):
    source = "import os\nos.remove('a')\nos.fsync(3)\n"
    assert findings_for(engine, "src/repro/serve/server.py", source,
                        "RL008") == []


# -- RL003 counter-purity -----------------------------------------------------


@pytest.mark.parametrize("source", [
    "from repro.storage.counters import IOStats\n",
    "import repro.storage.counters\n",
    "from ..storage import counters\n",
    "from ..storage.counters import IOStats\n",
])
def test_rl003_obs_must_not_import_storage(engine, source):
    found = findings_for(engine, "src/repro/obs/metrics.py", source,
                         "RL003")
    assert len(found) == 1
    assert "storage -> obs" in found[0].message


def test_rl003_obs_may_import_its_own_package(engine):
    source = "from .spans import Tracer\nfrom . import metrics\n"
    assert findings_for(engine, "src/repro/obs/runtime.py", source,
                        "RL003") == []


def test_rl003_storage_may_import_obs(engine):
    # The arrow's legal direction (counters.py does exactly this).
    source = "from ..obs.metrics import Counter, MetricsRegistry\n"
    assert findings_for(engine, "src/repro/storage/counters.py", source,
                        "RL003") == []


HANDLER_PATH = "src/repro/storage/buffer.py"


@pytest.mark.parametrize("body", [
    "self.stats.disk_reads += 1",
    "stats.buffer_misses += 1",
    'obs.inc("io.disk_reads")',
    'registry.counter("io.disk_reads").inc()',
    "self.stats.disk_reads.inc()",
])
def test_rl003_flags_access_counters_in_except_handlers(engine, body):
    source = (f"try:\n    x = 1\nexcept OSError:\n    {body}\n"
              f"    raise\n")
    found = findings_for(engine, HANDLER_PATH, source, "RL003")
    assert len(found) == 1
    assert "except handler" in found[0].message


@pytest.mark.parametrize("body", [
    # Failure counters are the explicit exception: that's their job.
    'obs.inc("storage.checksum_failures")',
    'obs.inc("storage.retries")',
    # Access counters *outside* handlers are the normal hot path.
])
def test_rl003_permits_failure_counters_in_handlers(engine, body):
    source = f"try:\n    x = 1\nexcept OSError:\n    {body}\n    raise\n"
    assert findings_for(engine, HANDLER_PATH, source, "RL003") == []


def test_rl003_permits_access_counters_outside_handlers(engine):
    source = 'self.stats.disk_reads += 1\nobs.inc("io.buffer_hits")\n'
    assert findings_for(engine, HANDLER_PATH, source, "RL003") == []


# -- RL004 exception-discipline -----------------------------------------------

RL004_PATH = "src/repro/storage/store.py"


def test_rl004_flags_bare_except(engine):
    source = "try:\n    x = 1\nexcept:\n    raise\n"
    found = findings_for(engine, RL004_PATH, source, "RL004")
    assert len(found) == 1
    assert "bare except" in found[0].message


@pytest.mark.parametrize("caught", ["Exception", "BaseException",
                                    "(OSError, Exception)"])
def test_rl004_flags_swallowed_broad_except(engine, caught):
    source = f"try:\n    x = 1\nexcept {caught}:\n    pass\n"
    found = findings_for(engine, RL004_PATH, source, "RL004")
    assert len(found) == 1
    assert "swallows" in found[0].message


@pytest.mark.parametrize("exc", ["Exception", "BaseException"])
def test_rl004_flags_raising_root_classes(engine, exc):
    source = f"raise {exc}('boom')\n"
    found = findings_for(engine, RL004_PATH, source, "RL004")
    assert len(found) == 1
    assert "typed" in found[0].message


@pytest.mark.parametrize("source", [
    # Narrow type + pass: legal best-effort cleanup, intent documented.
    "try:\n    x = 1\nexcept OSError:\n    pass\n",
    # Broad catch that *does* something (records / re-raises) is fine.
    "try:\n    x = 1\nexcept Exception:\n    log(1)\n    raise\n",
    "try:\n    x = 1\nexcept Exception as exc:\n"
    "    raise StoreError('x') from exc\n",
    # Typed taxonomy raises.
    "raise StoreError('torn page')\n",
])
def test_rl004_permits_disciplined_handling(engine, source):
    assert findings_for(engine, RL004_PATH, source, "RL004") == []


def test_rl004_only_guards_durability_packages(engine):
    source = "try:\n    x = 1\nexcept:\n    pass\n"
    assert findings_for(engine, "src/repro/experiments/report.py", source,
                        "RL004") == []


# -- RL005 async-blocking -----------------------------------------------------

RL005_PATH = "src/repro/serve/server.py"


@pytest.mark.parametrize("call, fragment", [
    ("time.sleep(1)", "time.sleep"),
    ("open('f')", "open"),
    ("os.system('ls')", "os.system"),
    ("subprocess.run(['ls'])", "subprocess.run"),
    ("subprocess.check_output(['ls'])", "subprocess.check_output"),
    ("socket.create_connection(('h', 1))", "socket.create_connection"),
])
def test_rl005_flags_blocking_calls_in_coroutines(engine, call, fragment):
    source = (f"import os, socket, subprocess, time\n\n\n"
              f"async def handle(self):\n    {call}\n")
    found = findings_for(engine, RL005_PATH, source, "RL005")
    assert len(found) == 1
    assert fragment in found[0].message
    assert "'handle'" in found[0].message


@pytest.mark.parametrize("source", [
    # Blocking work in a *sync* helper is the sanctioned executor idiom.
    "import time\n\n\ndef _reload_blocking(self):\n    time.sleep(1)\n",
    # ...including a sync def nested inside the coroutine.
    "import time\n\n\nasync def handle(self):\n"
    "    def work():\n        time.sleep(1)\n"
    "    await loop.run_in_executor(None, work)\n",
    # Async-native equivalents.
    "import asyncio\n\n\nasync def handle(self):\n"
    "    await asyncio.sleep(1)\n",
])
def test_rl005_permits_executor_dispatch_and_sync_helpers(engine, source):
    assert findings_for(engine, RL005_PATH, source, "RL005") == []


def test_rl005_only_guards_serve(engine):
    source = "import time\n\n\nasync def f():\n    time.sleep(1)\n"
    assert findings_for(engine, "src/repro/pipeline/orchestrator.py",
                        source, "RL005") == []


# -- RL006 worker-picklability ------------------------------------------------

RL006_PATH = "src/repro/pipeline/worker.py"


@pytest.mark.parametrize("source, label", [
    ("CACHE = {}\n", "CACHE"),
    ("SEEN = []\n", "SEEN"),
    ("IDS = set()\n", "IDS"),
    ("BUF = bytearray(8)\n", "BUF"),
    ("import collections\nQ = collections.deque()\n", "Q"),
    ("import threading\nSTOP = threading.Event()\n", "STOP"),
    ("PAIRS = [(i, i) for i in range(3)]\n", "PAIRS"),
])
def test_rl006_flags_module_global_mutables(engine, source, label):
    found = findings_for(engine, RL006_PATH, source, "RL006")
    assert len(found) == 1
    assert label in found[0].message
    assert "spawn" in found[0].message


def test_rl006_flags_module_level_lambda(engine):
    found = findings_for(engine, RL006_PATH, "key = lambda s: s.index\n",
                         "RL006")
    assert len(found) == 1
    assert "lambda" in found[0].message


@pytest.mark.parametrize("source", [
    'DONE_FORMAT = "repro-shard-done-v1"\n',
    "RETRIES = 3\n",
    "FIELDS = ('a', 'b')\n",
    "NAMES = frozenset({'a'})\n",
    '__all__ = ["run_shard"]\n',
    # Mutables inside function scope are per-attempt state: legal.
    "def run_shard(spec):\n    cache = {}\n    return cache\n",
    # Lambdas inside functions pickle never travel: legal.
    "def f():\n    return sorted([1], key=lambda x: x)\n",
])
def test_rl006_permits_constants_and_function_scope_state(engine, source):
    assert findings_for(engine, RL006_PATH, source, "RL006") == []


def test_rl006_only_guards_the_worker_module(engine):
    assert findings_for(engine, "src/repro/pipeline/orchestrator.py",
                        "CACHE = {}\n", "RL006") == []


@pytest.mark.parametrize("path", [
    "src/repro/serve/pool.py",
    "src/repro/serve/query.py",
    "src/repro/serve/supervisor.py",
])
def test_rl006_guards_the_serving_pool_modules(engine, path):
    # worker_main and TreeSpec cross the spawn boundary exactly like the
    # build-shard worker, so the same no-module-global-mutables rule
    # applies to the serving pool's modules.
    found = findings_for(engine, path, "CACHE = {}\n", "RL006")
    assert len(found) == 1
    assert "spawn" in found[0].message
    assert findings_for(engine, path, "QUERY_OPS = ('search',)\n",
                        "RL006") == []


def test_rl006_guards_the_merge_child_module(engine):
    # run_in_child's entry point runs every merge re-pack and cutover
    # fsck in a child process, under fork or spawn alike.
    path = "src/repro/serve/child.py"
    assert len(findings_for(engine, path, "CACHE = {}\n", "RL006")) == 1
    assert findings_for(engine, path, "ORPHANED_EXIT = 75\n",
                        "RL006") == []


def test_rl005_guards_the_serving_pool_module(engine):
    # pool.py's coroutines run on the server's event loop; a blocking
    # call there stalls every session, so RL005's serve/ scope covers it.
    source = "import time\n\n\nasync def execute(self):\n    time.sleep(1)\n"
    found = findings_for(engine, "src/repro/serve/pool.py", source,
                        "RL005")
    assert len(found) == 1
    assert "time.sleep" in found[0].message
