"""Call tracing for the benchmark's traced passes.

The tracer wraps functions of the ``sunflows`` modules, and the scipy/numpy
matrix kernels they call, from outside the package: nothing under ``src/``
changes.  Cross-module calls go through module attributes and same-module
calls through module globals, so replacing the attribute catches both.  A
name imported by value (``from .spaces import random_cotangent_point``) is
rebound in every ``sunflows`` module that holds the same function object.

Each wrapped call opens a span.  Its self time is its duration minus the
time covered by its child spans.  Spans of the package layers are kept in
memory as (id, name, start, end, parent id, scenario id) and written out at
the end; the ``linalg`` leaves (about 10^5 calls per Heisenberg pass) and the
observable evaluations are kept as counts and busy time only.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import Counter

# layer -> functions that get a span, as "name" (module attribute) or
# "Class.name" (method defined on that class).
SPANNED = {
    "cli": ["main"],
    "scenario": ["run_scenario"],
    "liecore": ["build_root_datum", "special_elements", "random_group_element",
                "random_sl_element"],
    "decomp": ["alcove_diagonalize", "chamber_diagonalize", "iwasawa_decompose",
               "posdef_of_borel", "borel_of_posdef", "dress"],
    "brackets": ["fusion_gradient_tables", "cotangent_gradients",
                 "heisenberg_derivatives_multi", "directional_derivative",
                 "group_gradient_fd", "algebra_gradient_fd", "borel_gradient_fd",
                 "fusion_bracket", "momentum_condition_residual"],
    "flows": ["flow", "torus_action", "cotangent_flow", "heisenberg_flow", "double_flow",
              "cotangent_torus_action", "heisenberg_torus_action", "double_torus_action",
              "rk4_bracket_flow"],
    "probes": ["generator_matrix", "differential_matrix", "rank_of",
               "stabilizer_dimension", "principal_test_point"],
    "moduli": ["permutation_pushforward", "pullback_hamiltonian"],
    "spaces": ["random_cotangent_point", "random_heisenberg_point",
               "FusionSpace.random_point"],
}

# linalg kernel -> module path that the package calls it through
LINALG = {
    "expm": "scipy.linalg", "logm": "scipy.linalg", "schur": "scipy.linalg",
    "solve_triangular": "scipy.linalg",
    "qr": "numpy.linalg", "eigh": "numpy.linalg", "svd": "numpy.linalg",
}

# random-point constructors: a call inside a harness sample() is one draw
DRAW_FUNCTIONS = ("spaces.random_cotangent_point", "spaces.random_heisenberg_point",
                  "spaces.FusionSpace.random_point")

REGULARITY_FUNCTIONS = ("decomp.alcove_diagonalize", "decomp.chamber_diagonalize")


class _CountingHandler(logging.Handler):
    def __init__(self, counter: Counter, key: str):
        super().__init__(logging.WARNING)
        self.counter = counter
        self.key = key

    def emit(self, record):
        if record.getMessage().startswith("unitarity drift"):
            self.counter[self.key] += 1


class Tracer:
    """Wraps the package in place; one tracer per process, installed once."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()  # name -> RegularityViolation count
        self.spans: list[tuple] = []
        self.scenario = -1
        self._stack = [[0, 0.0]]  # [span id, time covered by children]
        self._next_id = 1
        self._sample_depth = 0
        self._regularity_error = None  # set by install()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, keep_span: bool = True, on_call=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            if on_call is not None:
                on_call()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if isinstance(exc, tracer._regularity_error):
                    tracer.raised[name] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt - frame[1]
                stats[2] += dt
                parent[1] += dt
                if keep_span:
                    spans.append((span_id, name, t0, t1, parent[0], tracer.scenario))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _sampling(self, name: str, fn):
        """harness sample(): a span that also marks draws and accepted points."""
        tracer = self
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            tracer._sample_depth += 1
            try:
                out = timed(*args, **kwargs)
            finally:
                tracer._sample_depth -= 1
            tracer.counts["harness.accepts"] += 1
            return out

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count_draw(self):
        if self._sample_depth:
            self.counts["harness.draws"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a missing target raises instead of going silent."""
        modules = {name: importlib.import_module(f"sunflows.{name}")
                   for name in ("cli", "scenario", "liecore", "decomp", "brackets",
                                "flows", "probes", "moduli", "spaces", "harness",
                                "observables")}
        package = [m for key, m in sys.modules.items()
                   if key == "sunflows" or key.startswith("sunflows.")]
        self._regularity_error = importlib.import_module("sunflows.errors").RegularityViolation

        for layer, names in SPANNED.items():
            for qual in names:
                full = f"{layer}.{qual}"
                on_call = self._count_draw if full in DRAW_FUNCTIONS else None
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(modules[layer], cls_name)
                    _require(cls.__dict__, meth, full)
                    setattr(cls, meth, self._timed(full, cls.__dict__[meth], on_call=on_call))
                else:
                    original = _require(vars(modules[layer]), qual, full)
                    _rebind(package, original, self._timed(full, original, on_call=on_call))

        for kernel, path in LINALG.items():
            mod = importlib.import_module(path)
            original = _require(vars(mod), kernel, f"{path}.{kernel}")
            setattr(mod, kernel, self._timed(f"linalg.{kernel}", original, keep_span=False))

        # harness: every sample() override shares one span name
        hm = modules["harness"]
        for cls in _subclasses(hm.Harness):
            if "sample" in cls.__dict__:
                cls.sample = self._sampling("harness.sample", cls.__dict__["sample"])

        # observables: .value/.grad on the concrete function classes, and the
        # closures built by word_observable (rebound wherever it was imported)
        obs = modules["observables"]
        for base in (obs.ClassFunction, obs.AlgebraFunction, obs.BorelFunction):
            for cls in _subclasses(base):
                if "value" in cls.__dict__:
                    cls.value = self._counted("observables.evals", cls.__dict__["value"])
                if "grad" in cls.__dict__:
                    cls.grad = self._counted("observables.grad.calls", cls.__dict__["grad"])
        factory = _require(vars(obs), "word_observable", "observables.word_observable")
        counted = self._counted

        def word_observable(*args, **kwargs):
            return counted("observables.evals", factory(*args, **kwargs))

        functools.update_wrapper(word_observable, factory)
        _rebind(package, factory, word_observable)

        # scenario: each check of the table gets a span named after the check
        sc = modules["scenario"]
        checks_for = _require(vars(sc), "checks_for", "scenario.checks_for")
        timed = self._timed

        def traced_checks_for(cfg):
            return {name: timed(f"scenario.check.{name}", fn)
                    for name, fn in checks_for(cfg).items()}

        functools.update_wrapper(traced_checks_for, checks_for)
        _rebind(package, checks_for, traced_checks_for)
        # every check any space can run reports a time, 0.0 when it did not run
        for space in sc.SPACES:
            for name in checks_for(sc.ScenarioConfig(space=space, m=2, holes=2)):
                self.stats.setdefault(f"scenario.check.{name}", [0, 0.0, 0.0])

        flows_logger = logging.getLogger(modules["flows"].__name__)
        flows_logger.addHandler(_CountingHandler(self.counts, "flows.reprojections"))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <name>.calls, <name>.self_s, counters."""
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in sorted(self.stats.items()):
            if name.startswith("scenario.check."):
                out[f"{name}.s"] = total_s
            else:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        draws = self.counts["harness.draws"]
        accepts = self.counts["harness.accepts"]
        out["harness.draws"] = draws
        out["harness.rejects"] = draws - accepts
        out["harness.accept_ratio"] = accepts / draws if draws else 1.0
        out["observables.evals"] = self.counts["observables.evals"]
        out["observables.grad.calls"] = self.counts["observables.grad.calls"]
        out["flows.reprojections"] = self.counts["flows.reprojections"]
        out["decomp.regularity_rejects"] = sum(self.raised[n] for n in REGULARITY_FUNCTIONS)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,scenario\n")
            for span_id, name, t0, t1, parent, scenario in self.spans:
                fh.write(f"{span_id},{name},{t0:.9f},{t1:.9f},{parent},{scenario}\n")


def _require(namespace: dict, name: str, label: str):
    if name not in namespace:
        raise AttributeError(f"trace target {label} not found; was it renamed?")
    return namespace[name]


def _rebind(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out

