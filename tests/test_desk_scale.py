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


def _benchmark_scenarios(seed):
    """(workload, config) of every scenario of the benchmark workloads at ``seed``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
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
