"""One shared provenance stamp for every emitted artifact.

``BENCH_pim.json`` established the attribution contract: every
committed artifact carries the git revision (and whether the tree
had uncommitted changes to tracked files), a timestamp, and the
toolchain versions that produced it, so the PR-over-PR trajectory
stays comparable.  ``BENCH_serve.json``, ``chaos_report.json`` and the
flight-recorder incident bundles reuse the same stamp through
:func:`run_stamp` instead of growing their own variants.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = ["git_sha", "git_dirty", "run_stamp"]


def _git(*args: str) -> Optional[str]:
    """Stdout of a git command run in this checkout, or None when git
    is missing or the package does not sit in a git checkout."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout


def git_sha() -> Optional[str]:
    """Current repository revision, or None outside a git checkout."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def git_dirty() -> Optional[bool]:
    """Whether tracked files differ from ``HEAD``.

    True means the artifact was produced by code that :func:`git_sha`
    does not name.  Untracked files do not count.  None outside a git
    checkout.
    """
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def run_stamp() -> Dict[str, object]:
    """Provenance fields in the ``BENCH_pim.json`` stamp format.

    Keys: ``timestamp`` (local ISO-8601), ``git_sha``, ``git_dirty``,
    ``python``, ``numpy``, ``machine``.
    """
    try:
        import numpy as np
        numpy_version = np.__version__
    except ImportError:                      # pragma: no cover
        numpy_version = None
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
