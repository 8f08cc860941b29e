"""Lint/type gate for the strictly-checked subsystems.

Runs ``ruff check`` and ``mypy`` over the strictly-checked scope
configured in pyproject.toml and checked by the CI lint job — the same
paths, in the same order. Both tools are optional dependencies: when
they are not installed the corresponding test is skipped, so the tier-1
suite stays runnable in minimal environments — the CI lint job
hard-fails on the same commands instead.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_PATHS = [
    "src/repro/staticanalysis",
    "src/repro/core/preinjection.py",
    "src/repro/core/parallel.py",
    "src/repro/core/controller.py",
    "src/repro/core/checkpoint.py",
    "src/repro/core/goldencache.py",
    "src/repro/util/sampling.py",
    "src/repro/observability",
    "src/repro/analysis/intervals.py",
    "src/repro/analysis/stopping.py",
    "src/repro/analysis/heatmap.py",
    "src/repro/analysis/engine.py",
    "src/repro/analysis/diff.py",
]


def _have(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


@pytest.mark.skipif(not _have("ruff"), reason="ruff is not installed")
def test_ruff_clean():
    proc = _run(["ruff", "check", *CHECKED_PATHS])
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}{proc.stderr}"


@pytest.mark.skipif(not _have("mypy"), reason="mypy is not installed")
def test_mypy_clean():
    proc = _run(["mypy", *CHECKED_PATHS])
    assert proc.returncode == 0, f"mypy findings:\n{proc.stdout}{proc.stderr}"
