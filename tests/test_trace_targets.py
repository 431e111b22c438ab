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

from sunflows import brackets, decomp, harness, liecore, observables
from sunflows.observables import (AlcoveCoroot, AlcoveCoweight, BorelChamberCoroot,
                                  ChamberCoroot)

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


DOMAIN_BASES = (observables.ClassFunction, observables.AlgebraFunction,
                observables.BorelFunction)


def _subclasses(cls):
    return [sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))]


@pytest.mark.parametrize("base", DOMAIN_BASES, ids=lambda b: b.__name__)
def test_value_and_grad_resolve_where_the_tracer_wraps_them(base):
    """The tracer counts ``value`` and ``grad`` only where a class under a domain base defines
    them, so a function class that inherits them from anywhere else would go uncounted."""
    for cls in _subclasses(base):
        for meth in ("value", "grad"):
            owner = next(k for k in cls.__mro__ if meth in vars(k))
            assert issubclass(owner, base), f"{cls.__name__}.{meth} comes from {owner}"
            assert getattr(cls, meth) is vars(owner)[meth]


def test_each_variable_value_reaches_its_spectra_kernel(monkeypatch):
    """A counting wrapper put on a decomp spectra kernel after import is the one that the
    matching action variable's ``value`` and ``brackets.stack_values`` call."""
    n, rng = 3, np.random.default_rng(61)
    datum = liecore.build_root_datum(n)
    g = liecore.random_group_element(n, rng)
    j_alg = liecore.random_algebra_element(n, rng)
    b = decomp.iwasawa_left(liecore.random_sl_element(n, rng))[1]
    calls = []

    def counting(kernel, original):
        def wrapper(m):
            calls.append(kernel)
            return original(m)
        return wrapper

    for kernel in ("alcove_spectra", "chamber_spectra", "borel_chamber_spectra"):
        monkeypatch.setattr(decomp, kernel, counting(kernel, getattr(decomp, kernel)))
    coroot, coweight = AlcoveCoroot(0, datum), AlcoveCoweight(1, datum)
    for fn, m, kernel in ((coroot, g, "alcove_spectra"), (coweight, g, "alcove_spectra"),
                          (ChamberCoroot(0, datum), j_alg, "chamber_spectra"),
                          (BorelChamberCoroot(1, datum), b, "borel_chamber_spectra")):
        calls.clear()
        fn.value(m)
        assert calls == [kernel], (fn, calls)
    # the variables of one normal form share one spectra call on a stack
    calls.clear()
    stack = np.stack([g, g])
    values = brackets.stack_values([coroot, coweight], stack)
    assert calls == ["alcove_spectra"]
    assert np.array_equal(values, [coroot.value(stack), coweight.value(stack)])
