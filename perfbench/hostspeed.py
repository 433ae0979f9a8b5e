"""Host-speed probe: how fast this machine runs Python code right now.

The host's CPU speed swings on its own, by up to two times, in phases
that last from a fraction of a second to minutes (see the README).  A
run measures it by timing one fixed probe between the chunks of its
measured window and divides its timings by the resulting slowness: the
value reported is the one the run would have read on a host where one
probe takes ``NOMINAL_PROBE_S``.

The probe is the benchmark's own code, never the program's, and runs
only while the server has no request to serve and no merge in flight,
so the program's own work does not compete with it.  It mixes
the kinds of work the program's hot paths do: JSON encoding and decoding
of an id list, a byte-table CRC loop, dict building and lookup.  On a
2-vCPU Xeon guest, block means of this probe followed a served query
mix with a log-log slope of about 1.1 (a pure arithmetic loop: 1.5).
"""

from __future__ import annotations

import json
import random
import statistics
import time

#: Probe time that defines the reported scale.  Fixed for good: changing
#: it rescales every reported time.
NOMINAL_PROBE_S = 0.010

_rng = random.Random(20240613)
_IDS = sorted(_rng.randrange(1 << 30) for _ in range(3000))
_TABLE = [_rng.randrange(1 << 32) for _ in range(256)]
_BLOB = bytes(_rng.randrange(256) for _ in range(4096))
_ROUNDS = 4


def probe_s() -> float:
    """Wall seconds of one fixed probe."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        json.loads(json.dumps({"ok": True, "ids": _IDS}))
        crc = 0xFFFFFFFF
        for byte in _BLOB:
            crc = _TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
        index = {key: i for i, key in enumerate(_IDS)}
        sum(index[key] for key in _IDS)
    return time.perf_counter() - start


class HostSpeed:
    """Probe times gathered through one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(probe_s())

    def slowness(self) -> float:
        """Mean probe time over the nominal one: 2.0 means the host ran
        at half the nominal speed while this phase was measured."""
        return statistics.fmean(self.samples) / NOMINAL_PROBE_S
