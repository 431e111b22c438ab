"""Checks that can fail: each row plants one defect and names the check that must catch it.

A row monkeypatches one piece of the package, runs only the named checks on a
small suite and requires at least one of them to fail.  The same suite
without the defect must pass, so a row that fails is the defect's doing.
"""

import numpy as np
import pytest

from sunflows import brackets, flows, liecore
from sunflows.liecore import IM_FORM, TRACE_FORM, pair, project_borel, project_compact
from sunflows.observables import AlgebraFunction
from sunflows.scenario import ScenarioConfig, run_scenario

_half_difference = brackets._half_difference
_double_term = brackets._double_term
_cotangent_flow = flows.cotangent_flow
_coroot_torus_element = flows.coroot_torus_element
_expm_normal = liecore.expm_normal

# the (2, 2) moduli space with the family of the desk-sweep benchmark
_MODULI = dict(space="moduli", m=2, holes=2,
               family={"single": [1], "commutators": [2], "intervals": [[1, 2]]})


def _flip_half_difference(mp):
    mp.setattr(brackets, "_half_difference", lambda z: -_half_difference(z))


def _swap_right_factor_parts(mp):
    mp.setattr(brackets, "_RIGHT_FACTOR", {"b_right": (project_compact, IM_FORM),
                                           "u_right": (project_borel, TRACE_FORM)})


def _xh_cut_on_the_wrong_side(mp):
    # 'xh' adds C_(i+1)^H on the left and C_i^H on the right; offset 0 swaps them
    mp.setitem(brackets._HEISENBERG_LETTERS, "xh", (1, True, 0))


def _drop_double_cross_term(mp):
    # the term pair(aRF, bLH - bRH) - pair(aRH, bLF - bRF) of the double's bivector
    def term(tf, th, f):
        cross = (pair(tf[(f, 0, "lmul")], th[(f, 1, "rmul")] - th[(f, 1, "lmul")])
                 - pair(th[(f, 0, "lmul")], tf[(f, 1, "rmul")] - tf[(f, 1, "lmul")]))
        return _double_term(tf, th, f) - 0.5 * cross
    mp.setattr(brackets, "_double_term", term)


def _drop_double_a_self_term(mp):
    # the term pair(aRF, aLH) - pair(aRH, aLF) of the first letter
    def term(tf, th, f):
        own = pair(tf[(f, 0, "lmul")], th[(f, 0, "rmul")]) - pair(th[(f, 0, "lmul")],
                                                                   tf[(f, 0, "rmul")])
        return _double_term(tf, th, f) - 0.5 * own
    mp.setattr(brackets, "_double_term", term)


def _drop_double_b_self_term(mp):
    # the term -(pair(bRF, bLH) - pair(bRH, bLF)) of the second letter
    def term(tf, th, f):
        own = pair(tf[(f, 1, "lmul")], th[(f, 1, "rmul")]) - pair(th[(f, 1, "lmul")],
                                                                   tf[(f, 1, "rmul")])
        return _double_term(tf, th, f) + 0.5 * own
    mp.setattr(brackets, "_double_term", term)


def _drop_conjugation_term(mp):
    mp.setattr(brackets, "_conj_term", lambda tf, th, f: 0.0)


def _drop_fusion_cross_factor_terms(mp):
    def contraction(tf, th, point):
        return sum(brackets._double_term(tf, th, f) if t == "D" else brackets._conj_term(tf, th, f)
                   for f, t in enumerate(point.space.types))
    mp.setattr(brackets, "fusion_bracket_from_tables", contraction)


def _fiber_invariant_flow_backwards(mp):
    def flow(x, ham, tau):
        return _cotangent_flow(x, ham, -tau if isinstance(ham, AlgebraFunction) else tau)
    mp.setattr(flows, "cotangent_flow", flow)


def _coroot_torus_at_twice_the_angle(mp):
    # a doubled angle still closes at 2 pi, so torus-periodicity cannot see it
    mp.setattr(flows, "coroot_torus_element",
               lambda tau, datum: _coroot_torus_element(2 * np.asarray(tau), datum))


def _expm_normal_of_minus_a(mp):
    # every flow and torus curve built on the eigensolve kernel runs backwards
    mp.setattr(liecore, "expm_normal", lambda a: _expm_normal(-a))


# name -> (defect, config fields, checks that must not all pass)
MUTATIONS = {
    "heisenberg-half-difference-sign": (_flip_half_difference, dict(space="heisenberg", n=2),
                                        ["flow-bracket"]),
    "right-factor-projections-swapped": (_swap_right_factor_parts,
                                         dict(space="heisenberg", n=2), ["flow-bracket"]),
    "xh-cut-on-the-wrong-side": (_xh_cut_on_the_wrong_side, dict(space="heisenberg", n=3),
                                 ["flow-bracket"]),
    # at n=2 no check of the double catches this term (nor the two self-terms)
    "double-cross-term-dropped": (_drop_double_cross_term, dict(space="double", n=3),
                                  ["flow-bracket"]),
    "double-a-self-term-dropped": (_drop_double_a_self_term, dict(space="double", n=3),
                                   ["flow-bracket"]),
    "double-b-self-term-dropped": (_drop_double_b_self_term, dict(space="double", n=3),
                                   ["flow-bracket"]),
    "conjugation-term-dropped": (_drop_conjugation_term, dict(space="sphere4", n=2),
                                 ["flow-bracket"]),
    "fusion-cross-factor-terms-dropped": (_drop_fusion_cross_factor_terms, dict(_MODULI, n=2),
                                          ["permutation-brackets"]),
    "cotangent-fiber-invariant-flow-backwards": (_fiber_invariant_flow_backwards,
                                                 dict(space="cotangent", n=2),
                                                 ["flow-bracket"]),
    "coroot-torus-at-twice-the-angle": (_coroot_torus_at_twice_the_angle,
                                        dict(space="cotangent", n=2), ["torus-vs-flows"]),
    "expm-normal-of-minus-a": (_expm_normal_of_minus_a, dict(space="cotangent", n=2),
                               ["flow-bracket", "torus-vs-flows"]),
}


def _run(fields, checks):
    return run_scenario(ScenarioConfig(**fields, checks=checks))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_check(name, monkeypatch):
    defect, fields, checks = MUTATIONS[name]
    assert _run(fields, checks).passed
    defect(monkeypatch)
    report = _run(fields, checks)
    assert not report.passed, [(c.name, c.residual) for c in report.checks]
