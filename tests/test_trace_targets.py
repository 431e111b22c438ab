"""Every function the benchmark tracer wraps by name still exists.

``benchmarks/tracer.py`` refuses to install when a target is missing, but only
the benchmark's own (slow) test runs it; this test reads its target list and
looks the names up without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _spanned() -> dict:
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


def test_every_spanned_target_exists():
    missing = []
    for layer, names in _spanned().items():
        module = importlib.import_module(f"sunflows.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(vars(module).get(qual))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert not missing, missing
