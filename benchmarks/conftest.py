"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` regenerates one of the paper's tables or figures.  The
profile is chosen by the ``REPRO_BENCH_PROFILE`` environment variable:

* ``paper`` (default) — the paper's exact protocol: 2,000 queries per
  cell, synthetic sizes 10k-300k, full-size TIGER/CFD stand-ins, VLSI
  scaled to 100k (see DESIGN.md).  A full run takes tens of minutes.
* ``quick`` — the same code over small datasets; minutes, for smoke runs.

Tree caches are session-scoped so tables and figures that share datasets
(e.g. Table 5 and Figure 10) build each tree exactly once per session.
Rendered tables are printed and also written to ``results/`` next to the
repository root for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import cfd_tables, gis_tables, synthetic_tables, vlsi_tables
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.report import Series, Table, series_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    profile = os.environ.get("REPRO_BENCH_PROFILE", "paper").lower()
    if profile == "quick":
        return ExperimentConfig.quick()
    if profile == "paper":
        return DEFAULT_CONFIG
    raise ValueError(f"unknown REPRO_BENCH_PROFILE {profile!r}")


@pytest.fixture(scope="session")
def syn_cache(bench_config):
    return synthetic_tables.synthetic_cache(bench_config)


@pytest.fixture(scope="session")
def gis_cache(bench_config):
    return gis_tables.gis_cache(bench_config)


@pytest.fixture(scope="session")
def vlsi_cache(bench_config):
    return vlsi_tables.vlsi_cache(bench_config)


@pytest.fixture(scope="session")
def cfd_cache(bench_config):
    return cfd_tables.cfd_cache(bench_config)


def emit(name: str, result: Table | list[Series]) -> None:
    """Print the regenerated artefact and persist it under results/."""
    table = series_table(name, result) if isinstance(result, list) else result
    text = table.render()
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)


def series_by_label(series: list[Series]) -> dict[str, Series]:
    return {s.label: s for s in series}
