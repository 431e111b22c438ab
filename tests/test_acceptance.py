"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test prints one summary line; run with ``pytest -s tests/test_acceptance.py``
to see all lines, or rely on pytest output capture on failure.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from sunflows import liecore, probes
from sunflows import harness as harness_mod
from sunflows import observables as ob
from sunflows.scenario import (
    CheckContext,
    ScenarioConfig,
    all_generators,
    check_abelian,
    check_commutator_identity,
    check_commutator_solve,
    check_conservation,
    check_dressing,
    check_flow_commutation,
    check_gradient_oracles,
    check_heisenberg_conjugation_law,
    check_iwasawa,
    check_momentum_condition,
    check_permutations,
    check_quasi_adjoint_law,
    check_root_datum,
    check_shifting_trick,
    check_torus_additivity,
    check_torus_periodicity,
    check_torus_vs_flows,
    derived_rng,
    flow_bracket_worst,
    run_scenario,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _ctx(space, n, seed=202406, **kw) -> CheckContext:
    cfg = ScenarioConfig(space=space, n=n, seed=seed, **kw)
    cfg.validate()
    datum = liecore.build_root_datum(n)
    h = harness_mod.build_harness(cfg.space, n, datum, family=cfg.family,
                                  m=cfg.m, holes=cfg.holes)
    return CheckContext(cfg, h, datum)


FLOW_CONFIGS = [
    ("cotangent", dict(space="cotangent", n=3)),
    ("heisenberg", dict(space="heisenberg", n=2)),
    ("double-h", dict(space="double", n=2, family="h")),
    ("double-htilde", dict(space="double", n=2, family="htilde")),
    ("sphere4", dict(space="sphere4", n=2)),
    ("moduli-2-2", dict(space="moduli", n=2, m=2, holes=2,
                        family={"single": [1], "commutators": [2], "intervals": [[1, 2]]})),
]


def test_criterion_1_bracket_flow_consistency():
    """Every closed-form flow differentiates to the bracket, 20 points x 8+ probes."""
    worst = 0.0
    for label, kw in FLOW_CONFIGS:
        ctx = _ctx(**kw)
        h = ctx.harness
        rng = ctx.rng("acceptance-flow-bracket")
        gens = all_generators(h)
        obs = h.probes()
        assert len(obs) >= 8, label
        local = 0.0
        for _ in range(20):
            x = h.sample(rng)
            local = max(local, flow_bracket_worst(h, x, gens, obs))
        worst = max(worst, local)
    _report("criterion 1: bracket-flow consistency <= 1e-6 relative",
            worst <= 1e-6, f"worst residual {worst:.3e}")


MODULI_FAMILIES = [
    dict(space="moduli", n=2, m=1, holes=3, family={"single": [1], "intervals": [[2, 3]]}),
    dict(space="moduli", n=2, m=2, holes=0, family={"commutators": [1, 2]}),
    dict(space="moduli", n=2, m=0, holes=4,
         family={"intervals": [[1, 2]], "nested": [[[1, 3]]]}),
    dict(space="moduli", n=2, m=2, holes=2,
         family={"commutator_ranges": [[1, 2]], "intervals": [[1, 2]]}),
]


def test_criterion_2_abelian_families():
    """All family generator pairs commute; flows commute to 1e-8."""
    worst_bracket = 0.0
    worst_flow = 0.0
    configs = [kw for _, kw in FLOW_CONFIGS] + MODULI_FAMILIES
    for kw in configs:
        ctx = _ctx(**kw)
        res = check_abelian(ctx)
        worst_bracket = max(worst_bracket, res.residual)
        res = check_flow_commutation(ctx)
        worst_flow = max(worst_flow, res.residual)
    ok = worst_bracket <= 1e-6 and worst_flow <= 1e-8
    _report("criterion 2: Abelian families (brackets <= 1e-6, flows <= 1e-8)",
            ok, f"brackets {worst_bracket:.3e}, flows {worst_flow:.3e}")


def test_criterion_3_conservation():
    """Momentum maps and companion pairs constant to 1e-10; conjugation law to 1e-9."""
    worst = 0.0
    for _, kw in FLOW_CONFIGS:
        ctx = _ctx(**kw)
        res = check_conservation(ctx)
        worst = max(worst, res.residual)
    ok = worst <= 1e-10
    law = check_heisenberg_conjugation_law(_ctx(space="heisenberg", n=3))
    ok = ok and law.residual <= 1e-9
    _report("criterion 3: conservation (momenta 1e-10, conjugation law 1e-9)",
            ok, f"momenta {worst:.3e}, law {law.residual:.3e}")


def test_criterion_4_torus_structure():
    """Periodicity 1e-8, additivity 1e-9, equality with composed flows 1e-8."""
    w_per = w_add = w_cmp = 0.0
    for _, kw in FLOW_CONFIGS:
        ctx = _ctx(**kw)
        w_per = max(w_per, check_torus_periodicity(ctx).residual)
        w_add = max(w_add, check_torus_additivity(ctx).residual)
        w_cmp = max(w_cmp, check_torus_vs_flows(ctx).residual)
    ok = w_per <= 1e-8 and w_add <= 1e-9 and w_cmp <= 1e-8
    _report("criterion 4: torus structure",
            ok, f"period {w_per:.3e}, additivity {w_add:.3e}, composition {w_cmp:.3e}")


def test_criterion_5_isotropy():
    """Crafted points: trivial combined stabilizer; random points: full torus rank."""
    ok = True
    detail = []
    for n in (2, 3):
        datum = liecore.build_root_datum(n)
        for key in probes.PRINCIPAL_POINT_KEYS:
            rng = derived_rng(5, f"{key}:{n}")
            pp = probes.principal_test_point(key, n, datum, rng)
            rep = probes.stabilizer_dimension(pp.point, pp.action, n, key)
            if rep.infinitesimal_dim != 0 or not rep.center_fixes:
                ok = False
                detail.append(f"{key}@{n}")
    for _, kw in FLOW_CONFIGS:
        ctx = _ctx(**kw)
        h = ctx.harness
        rng = ctx.rng("acceptance-rank")
        for _ in range(20):
            x = h.sample(rng)
            for spec in h.torus_specs():
                curves = []
                for j in range(spec.dim):
                    def curve(p, t, j=j, spec=spec):
                        tau = np.zeros(spec.dim)
                        tau[j] = t
                        return spec.act(p, tau)
                    curves.append(curve)
                action = probes.ActionSpec(spec.name, tuple(curves), spec.dim)
                rank, _ = probes.rank_of(probes.generator_matrix(x, action))
                if rank != spec.dim:
                    ok = False
                    detail.append(f"rank@{kw['space']}")
    _report("criterion 5: principal isotropy and freeness ranks", ok,
            "; ".join(detail) if detail else "all crafted points trivial, all ranks full")


def test_criterion_6_commutator_identity():
    """Coxeter commutator identity and solver residuals below 1e-10."""
    ctx = _ctx(space="double", n=2)
    ident = check_commutator_identity(ctx)
    solve = check_commutator_solve(ctx)
    ok = ident.residual <= 1e-10 and solve.residual <= 1e-10
    _report("criterion 6: commutator identity <= 1e-10",
            ok, f"identity {ident.residual:.3e}, solve {solve.residual:.3e}")


def test_criterion_7_structural_exactness():
    """Rational inverse exact; factorizations, equivariances and the momentum
    condition at their stated tolerances."""
    ctx2 = _ctx(space="double", n=2)
    ctx3 = _ctx(space="heisenberg", n=3)
    ok = True
    parts = {}
    parts["rational"] = check_root_datum(ctx2).residual
    ok &= parts["rational"] == 0.0
    parts["iwasawa"] = check_iwasawa(ctx3).residual
    ok &= parts["iwasawa"] <= 1e-12
    parts["dressing"] = check_dressing(ctx3).residual
    ok &= parts["dressing"] <= 1e-10
    parts["quasi-adjoint"] = check_quasi_adjoint_law(ctx3).residual
    ok &= parts["quasi-adjoint"] <= 1e-9
    parts["momentum-condition"] = max(
        check_momentum_condition(ctx2).residual,
        check_momentum_condition(_ctx(space="sphere4", n=2)).residual)
    ok &= parts["momentum-condition"] <= 1e-6
    parts["shifting"] = check_shifting_trick(ctx2).residual
    ok &= parts["shifting"] <= 1e-6
    _report("criterion 7: structural exactness", bool(ok),
            ", ".join(f"{k}={v:.2e}" for k, v in parts.items()))


def test_criterion_8_gradient_oracles():
    """Closed-form gradients within 1e-6 relative of central differences."""
    worst = 0.0
    for n in (2, 3):
        ctx = _ctx(space="double", n=n)
        worst = max(worst, check_gradient_oracles(ctx).residual)
    _report("criterion 8: gradient oracles <= 1e-6 relative", worst <= 1e-6,
            f"worst {worst:.3e}")


def test_criterion_9_permutation_pushforward():
    """Adjacent-swap pushforwards preserve brackets; pulled-back families commute."""
    ctx = _ctx(space="moduli", n=2, m=2, holes=2,
               family={"single": [1], "commutators": [2], "intervals": [[1, 2]]})
    res = check_permutations(ctx)
    _report("criterion 9: permutation pushforward <= 1e-6", res.residual <= 1e-6,
            f"worst {res.residual:.3e}")


def test_criterion_10_cli(tmp_path):
    """Deterministic CLI reports; default double n=3 suite under 60 s;
    admissibility violations rejected with the offending clause named."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"space": "double", "n": 3, "family": "h", "seed": 42}))
    t0 = time.time()
    r1 = subprocess.run(
        [sys.executable, "-m", "sunflows.cli", "verify", str(cfg_path),
         "--out", str(tmp_path / "a")],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    ok = r1.returncode == 0 and elapsed < 60.0
    r2 = subprocess.run(
        [sys.executable, "-m", "sunflows.cli", "verify", str(cfg_path),
         "--out", str(tmp_path / "b")],
        capture_output=True, text=True)
    same = (tmp_path / "a" / "report.json").read_text() == \
           (tmp_path / "b" / "report.json").read_text()
    ok = ok and r2.returncode == 0 and same
    rejections = [
        ({"space": "moduli", "n": 2, "m": 0, "holes": 3,
          "family": {"intervals": [[1, 3]]}}, "m0-proper"),
        ({"space": "moduli", "n": 2, "m": 0, "holes": 2,
          "family": {"intervals": [[1, 2]]}}, "m0-size"),
        ({"space": "moduli", "n": 2, "m": 1, "holes": 0,
          "family": {"commutators": [1]}}, "m1n0-commutator"),
        ({"space": "moduli", "n": 2, "m": 2, "holes": 0,
          "family": {"single": [1], "commutators": [1]}}, "disjoint"),
        ({"space": "moduli", "n": 2, "m": 0, "holes": 5,
          "family": {"intervals": [[1, 2]], "nested": [[[2, 3]]]}}, "nesting"),
        ({"space": "moduli", "n": 2, "m": 2, "holes": 1,
          "family": {"single": [2], "tails": [[1, 1]]}}, "tail-start"),
    ]
    named = True
    for body, clause in rejections:
        body = dict(body)
        body["seed"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        r = subprocess.run(
            [sys.executable, "-m", "sunflows.cli", "verify", str(bad)],
            capture_output=True, text=True)
        if r.returncode == 0 or clause not in r.stderr:
            named = False
    ok = ok and named
    _report("criterion 10: CLI determinism, runtime and validation",
            bool(ok), f"default suite {elapsed:.1f}s, deterministic={same}, "
                      f"clauses named={named}")


def test_cotangent_n5_flow_bracket_passes_at_seed_6():
    """The flow derivative is Richardson-extrapolated: with plain central
    differences its h^4 truncation error gave 1.73e-6 here, over the 1e-6
    tolerance."""
    check, = run_scenario(ScenarioConfig(space="cotangent", n=5, seed=6,
                                         checks=["flow-bracket"])).checks
    _report("flow-bracket at cotangent n=5, seed 6", check.passed,
            f"residual {check.residual:.2e}, tol {check.tol:.0e}")
