"""Spot checks at the upper end of the supported group sizes, and the margin to tolerance
of the benchmark's scenarios."""

import importlib.util
from pathlib import Path

import pytest

from sunflows.scenario import ScenarioConfig, run_scenario


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(space="cotangent", n=5, seed=1, points=2,
                   checks=["flow-bracket", "abelian-family", "conservation",
                           "torus-periodicity", "gradient-oracles"]),
    ScenarioConfig(space="double", n=4, seed=2, points=2,
                   checks=["flow-bracket", "abelian-family", "conservation",
                           "torus-vs-flows", "momentum-condition"]),
    ScenarioConfig(space="heisenberg", n=4, seed=8, points=2,
                   checks=["flow-bracket", "conservation",
                           "unitary-conjugation-law", "quasi-adjoint-law"]),
    ScenarioConfig(space="sphere4", n=4, seed=4, points=2,
                   checks=["flow-bracket", "conservation", "torus-periodicity",
                           "isotropy-crafted"]),
], ids=["cotangent-n5", "double-n4", "heisenberg-n4", "sphere4-n4"])
def test_upper_desk_scale(cfg):
    report = run_scenario(cfg)
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, failed


@pytest.mark.parametrize("seed", [42, 1, 2])
@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_oracles_keep_a_hundredfold_margin(n, seed):
    """gradient-oracles passes at every admitted n with tol / residual >= 100: along random
    directions its worst residual here, 2.1e-9 at n=2 and seed 2, is 476 times below 1e-6."""
    check, = run_scenario(ScenarioConfig(space="cotangent", n=n, seed=seed,
                                         checks=["gradient-oracles"])).checks
    assert check.passed and check.tol >= 100 * check.residual, check.residual


def _workloads():
    """The benchmark's workload definitions, ``benchmarks/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_scenarios(seed):
    """(workload, config) of every scenario of the benchmark workloads at ``seed``."""
    workloads = _workloads()
    return [(name, cfg) for name in workloads.WORKLOADS
            for cfg in workloads.scenario_configs(name, seed)]


@pytest.mark.parametrize("workload, cfg", _benchmark_scenarios(42),
                         ids=lambda v: v if isinstance(v, str) else v["space"])
def test_benchmark_scenarios_keep_a_tenfold_margin(workload, cfg):
    """Every check with a tolerance keeps tol / residual >= 10 on the benchmark's scenarios."""
    report = run_scenario(ScenarioConfig.from_dict(cfg))
    thin = {c.name: c.tol / c.residual for c in report.checks
            if c.tol > 0 and not c.tol >= 10 * c.residual}
    assert not thin, thin


SWEEP = {"cotangent": {}, "heisenberg": {}, "double": {}, "sphere4": {},
         "moduli": {"m": 2, "holes": 2, "family": _workloads().MODULI_FAMILY}}


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("space", sorted(SWEEP))
def test_every_space_reaches_a_verdict_at_every_n(space, n):
    """The sweep: every space at every admitted n, with points = 2 and seed 42 (the moduli
    space at m = holes = 2 with the benchmark's family), runs its whole suite to a verdict,
    no check aborted, and every check passes."""
    report = run_scenario(ScenarioConfig(space=space, n=n, seed=42, points=2, **SWEEP[space]))
    aborted = {c.name: c.detail["error"] for c in report.checks if c.claim == "check aborted"}
    assert not aborted, aborted
    failed = {c.name: c.residual for c in report.checks if not c.passed}
    assert not failed, failed
