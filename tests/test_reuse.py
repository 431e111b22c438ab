"""Results of the space-independent checks are reused across the scenarios of a process.

``run_scenario`` keeps each result of a check declared ``shared`` under
(name, seed, tol_scale) and, unless it is shared by ``"all"`` n, n.
Reuse must not change a report: the bodies equal those of runs that start
with nothing kept, whatever the order of the scenarios.  The key is sound
only while those checks read neither the harness, nor the other config
fields, nor (for the n-free ones) n; the guards below fail as soon as one
does.
"""

import functools
from collections import Counter

import pytest

from sunflows.harness import build_harness
from sunflows.liecore import build_root_datum
from sunflows.scenario import (CHECKS, SPACE_FREE_RESULTS, CheckContext, ScenarioConfig,
                               SPACES, checks_for, emit_report, run_scenario)

_MODULI_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}

SHARED = {name for name, c in CHECKS.items() if c.shared}
N_FREE = {name for name, c in CHECKS.items() if c.shared == "all"}

# the scenarios of the desk-sweep benchmark workload
DESK_SWEEP = [
    dict(space="cotangent", n=3),
    dict(space="double", n=3),
    dict(space="sphere4", n=3),
    dict(space="moduli", n=2, m=2, holes=2, family=_MODULI_FAMILY),
]


def _body(fields) -> str:
    return emit_report(run_scenario(ScenarioConfig(**fields)))


def _count_calls(monkeypatch, names) -> Counter:
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)  # keeps the check's spaces and sharing
        def wrapper(ctx):
            calls[name] += 1
            return fn(ctx)
        return wrapper

    for name in names:
        monkeypatch.setitem(CHECKS, name, counted(name, CHECKS[name]))
    return calls


@pytest.fixture(scope="module")
def cleared_bodies():
    """The desk-sweep bodies, each from a run that starts with nothing kept."""
    bodies = []
    for fields in DESK_SWEEP:
        SPACE_FREE_RESULTS.clear()
        bodies.append(_body(fields))
    return bodies


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_desk_sweep_runs_each_space_free_check_once_per_key(order, cleared_bodies,
                                                             monkeypatch):
    calls = _count_calls(monkeypatch, list(CHECKS))
    indices = range(len(DESK_SWEEP)) if order == "forward" else reversed(range(len(DESK_SWEEP)))
    for k in indices:
        assert _body(DESK_SWEEP[k]) == cleared_bodies[k], DESK_SWEEP[k]
    # three scenarios at n=3 and one at n=2; the others run once in each space that has them
    runs = Counter(name for fields in DESK_SWEEP for name in checks_for(ScenarioConfig(**fields)))
    expected = {name: 1 if name in N_FREE else 2 if name in SHARED else runs[name]
                for name in runs}
    assert calls == expected


def test_shared_checks_run_in_every_space():
    assert N_FREE < SHARED < set(CHECKS)
    assert all(set(CHECKS[name].spaces) == set(SPACES) for name in SHARED)


def test_another_seed_tol_scale_or_n_misses(monkeypatch):
    checks = ["dual-basis", "root-datum-exact"]
    calls = _count_calls(monkeypatch, checks)
    reports = [run_scenario(ScenarioConfig(space="cotangent", checks=checks, **fields))
               for fields in ({}, {"seed": 43}, {"tol_scale": 2.0}, {"n": 3}, {})]
    # root-datum-exact reads no n, so n=3 reuses its n=2 result
    assert calls == {"dual-basis": 4, "root-datum-exact": 3}
    tols = [{c.name: c.tol for c in r.checks}["dual-basis"] for r in reports]
    assert tols == [1e-12, 1e-12, 2e-12, 1e-12, 1e-12]
    assert emit_report(reports[0]) == emit_report(reports[-1])


def test_editing_a_returned_result_does_not_leak():
    cfg = ScenarioConfig(space="cotangent", checks=["apposition-torus"])
    first = run_scenario(cfg).checks[0]
    kept = dict(first.detail)
    first.detail["orthogonality"] = "edited"
    first.detail["added"] = 1
    first.residual = -1.0
    again = run_scenario(ScenarioConfig(space="heisenberg", checks=["apposition-torus"]))
    assert again.checks[0].detail == kept
    assert again.checks[0].residual != -1.0
    assert again.checks[0].detail is not first.detail


def test_an_aborted_check_runs_again(monkeypatch):
    check = CHECKS["dual-basis"]
    calls = []

    @functools.wraps(check)
    def fails_once(ctx):
        calls.append(ctx.cfg.space)
        if len(calls) == 1:
            raise RuntimeError("planted failure")
        return check(ctx)

    monkeypatch.setitem(CHECKS, "dual-basis", fails_once)
    first, second, third = (run_scenario(ScenarioConfig(space=space, checks=["dual-basis"]))
                            for space in ("cotangent", "heisenberg", "double"))
    assert first.checks[0].detail == {"error": "RuntimeError: planted failure"}
    assert second.passed and third.passed
    assert calls == ["cotangent", "heisenberg"]


class _NoHarness:
    """A harness stand-in that fails any check that reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"a space-independent check read harness.{name}")


def _context(fields, harness=None) -> CheckContext:
    cfg = ScenarioConfig(**fields)
    datum = build_root_datum(cfg.n)
    if harness is None:
        harness = build_harness(cfg.space, cfg.n, datum, family=cfg.family, m=cfg.m,
                                holes=cfg.holes)
    return CheckContext(cfg, harness, datum)


@pytest.mark.parametrize("name", sorted(SHARED))
def test_space_free_check_reads_no_space(name):
    """Two spaces that differ in every config field but n, seed and tol_scale, each
    with its real harness and with one that raises on any read: one result."""
    results = []
    for fields in (dict(space="cotangent", n=2),
                   dict(space="moduli", n=2, m=2, holes=2, family=_MODULI_FAMILY, points=3)):
        real = CHECKS[name](_context(fields))
        assert CHECKS[name](_context(fields, _NoHarness())) == real
        results.append(real)
    assert results[0] == results[1]


@pytest.mark.parametrize("name", sorted(N_FREE))
def test_n_free_check_reads_no_n(name):
    results = [CHECKS[name](_context(dict(space="cotangent", n=n), _NoHarness()))
               for n in (2, 5)]
    assert results[0] == results[1]
