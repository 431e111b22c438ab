"""Shared test set-up.

Child processes started by the tests import ``sunflows`` from this checkout:
``pythonpath`` in pyproject.toml covers the test process itself; the CLI
tests also run ``python -m sunflows.cli`` in a subprocess, which reads
PYTHONPATH instead.

``run_scenario`` keeps the results of the space-independent checks for the
life of the process; each test starts with none kept, so a test sees the
same checks run whatever ran before it.
"""

import os
from pathlib import Path

import pytest

from sunflows.scenario import SPACE_FREE_RESULTS

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def _no_reused_check_results():
    """Every test starts with no space-independent check result kept from an earlier one."""
    SPACE_FREE_RESULTS.clear()
