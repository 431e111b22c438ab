"""Child processes started by the tests import ``sunflows`` from this checkout.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
tests also run ``python -m sunflows.cli`` in a subprocess, which reads
PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
