"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper, prints a
paper-vs-measured report, and writes it under ``benchmarks/reports/``,
which git ignores, so a benchmark run leaves the tree clean.  The
reports archived with the code stay in ``benchmarks/results/``; copy a
fresh report there on purpose to update the archive.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_report(results_dir):
    """Print a report and write it under benchmarks/reports/."""

    def _record(name: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def bench_frames() -> int:
    """Sequence length for tracking benches (override via env)."""
    return int(os.environ.get("REPRO_BENCH_FRAMES", "60"))
