"""Every function the benchmark tracer wraps by name still exists, and wrapping changes no result.

``benchmarks/tracer.py`` refuses to install when a target is missing, but only
the benchmark's own (slow) test runs it; this test reads its target list and
looks the names up without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sunflows import brackets, harness, liecore

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spanned() -> dict:
    return _tracer_module().SPANNED


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


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "moduli"])
def test_traced_word_observables_keep_their_exact_tables(space):
    """The tracer's counting wrapper keeps ``grad_table``, so traced brackets are bit-identical.

    ``functools.update_wrapper`` copies a function's ``__dict__``: a table
    kept anywhere else would be lost and the traced pass would fall back to
    finite differences.
    """
    n = 3
    datum = liecore.build_root_datum(n)
    if space == "moduli":
        h = harness.build_harness("moduli", n, datum, m=2, holes=2,
                                  family={"single": [1], "intervals": [[1, 2]]})
    else:
        h = harness.build_harness(space, n, datum)
    x = h.sample(np.random.default_rng(60))
    probes = h.probes()
    tracer = _tracer_module().Tracer()
    wrapped = [tracer._counted("observables.evals", p) for p in probes]
    assert all(w.grad_table is p.grad_table for w, p in zip(wrapped, probes))
    plain = brackets.bracket_matrix(probes, probes[:4], x)
    traced = brackets.bracket_matrix(wrapped, wrapped[:4], x)
    assert np.array_equal(plain, traced)
    assert tracer.counts["observables.evals"] == 0
