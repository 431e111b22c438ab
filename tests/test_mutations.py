"""Checks that can fail: each row plants one defect and names the check that must catch it.

A row monkeypatches one piece of the package, runs only the named checks on a
small suite and requires at least one of them to fail by its residual: every
named check must still run to a finite residual, so a defect that only makes
a check abort does not count as caught.  The same suite without the defect
must pass, so a row that fails is the defect's doing.
"""

import math

import numpy as np
import pytest

from sunflows import brackets, flows, liecore, moduli, spaces
from sunflows.liecore import IM_FORM, TRACE_FORM, project_borel, project_compact
from sunflows.observables import (AlcoveCoroot, AlcoveCoweight, AlgebraFunction,
                                  BorelChamberCoroot, BorelFunction, BorelPower, ChamberCoroot,
                                  ClassFunction, inverse_word)
from sunflows.scenario import SPACE_FREE_RESULTS, ScenarioConfig, run_scenario

_half_difference = brackets._half_difference
_cotangent_flow = flows.cotangent_flow
_coroot_torus_element = flows.coroot_torus_element
_expm_normal = liecore.expm_normal
_cotangent_velocity = flows.cotangent_velocity
_heisenberg_velocity = flows.heisenberg_velocity
_double_velocity = flows.double_velocity
_moduli_velocity = moduli.moduli_velocity
_conjugation_velocity = spaces.conjugation_velocity
_swap_letters = moduli._swap_letters

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
    mp.setitem(brackets._LETTER_KINDS, "adjoint", (1, True, 0))


# 'xh~' adds -C_i^H on the left and -C_(i+1)^H on the right: one defect per entry of its kind
def _xh_inverse_sign_flipped(mp):
    mp.setitem(brackets._LETTER_KINDS, "inverse adjoint", (1, True, 0))


def _xh_inverse_not_adjoint(mp):
    mp.setitem(brackets._LETTER_KINDS, "inverse adjoint", (-1, False, 0))


def _xh_inverse_cut_on_the_wrong_side(mp):
    mp.setitem(brackets._LETTER_KINDS, "inverse adjoint", (-1, True, 1))


# The fusion bivector's terms, as entries of the factor sharp maps: the velocity of slot key
# (comp, side) reads sign * column key.  R is 'lmul', L is 'rmul'; a 'K' factor's c is slot 0.
aR, aL, bR, bL = (0, "lmul"), (0, "rmul"), (1, "lmul"), (1, "rmul")


def _drop_factor_terms(mp, kind, terms):
    """Drop each (velocity key, sign, column key) of ``terms`` from the factor's sharp map."""
    table = brackets._FACTOR_SHARP[kind]
    assert terms <= {(key, t[0], t[1:]) for key, col in table.items() for t in col}
    mp.setitem(brackets._FACTOR_SHARP, kind,
               {key: tuple(t for t in col if (key, t[0], t[1:]) not in terms)
                for key, col in table.items()})


def _drop_double_cross_term(mp):
    # pair(aRF, bLH - bRH) - pair(aRH, bLF - bRF) of the double's bivector
    _drop_factor_terms(mp, "D", {(aR, 1, bL), (aR, -1, bR), (bL, -1, aR), (bR, 1, aR)})


def _drop_double_a_self_term(mp):
    # pair(aRF, aLH) - pair(aRH, aLF), the term of the first letter
    _drop_factor_terms(mp, "D", {(aR, 1, aL), (aL, -1, aR)})


def _drop_double_b_self_term(mp):
    # -(pair(bRF, bLH) - pair(bRH, bLF)), the term of the second letter
    _drop_factor_terms(mp, "D", {(bR, -1, bL), (bL, 1, bR)})


def _drop_conjugation_term(mp):
    # pair(cRF, cLH) - pair(cRH, cLF), the whole bivector of a conjugation factor
    _drop_factor_terms(mp, "K", {(aR, 1, aL), (aL, -1, aR)})


def _drop_fusion_cross_factor_terms(mp):
    # the per-factor bivectors alone: the conjugation gradients enter only the cross terms
    mp.setattr(brackets, "conjugation_gradient", lambda table, slots: 0)


def _fiber_invariant_flow_backwards(mp):
    def flow(x, hams, tau):
        return _cotangent_flow(x, hams, -tau if isinstance(hams[0], AlgebraFunction) else tau)
    mp.setattr(flows, "cotangent_flow", flow)


def _coroot_torus_at_twice_the_angle(mp):
    # a doubled angle still closes at 2 pi, so torus-periodicity cannot see it
    mp.setattr(flows, "coroot_torus_element",
               lambda tau, datum: _coroot_torus_element(2 * np.asarray(tau), datum))


def _expm_normal_of_minus_a(mp):
    # every flow and torus curve built on the eigensolve kernel runs backwards
    mp.setattr(liecore, "expm_normal", lambda a: _expm_normal(-a))


# defects of the closed-form velocities, one per velocity kind the suites reach; each takes a
# run of Hamiltonians of one rule and stacks its velocities at axis -3, as the flows do

def _algebra_velocity_on_the_fiber(mp):
    def velocity(x, hams):
        if isinstance(hams[0], AlgebraFunction):
            return {"fiber": np.stack([ham.grad(x.j) for ham in hams], axis=-3)}
        return _cotangent_velocity(x, hams)
    mp.setattr(flows, "cotangent_velocity", velocity)


def _class_velocity_sign_flipped(mp):
    def velocity(x, hams):
        v = _cotangent_velocity(x, hams)
        return {"fiber": -v["fiber"]} if isinstance(hams[0], ClassFunction) else v
    mp.setattr(flows, "cotangent_velocity", velocity)


def _borel_velocity_sign_flipped(mp):
    def velocity(x, hams):
        v = _heisenberg_velocity(x, hams)
        return {"rmul": -v["rmul"]} if isinstance(hams[0], BorelFunction) else v
    mp.setattr(flows, "heisenberg_velocity", velocity)


def _borel_velocity_on_the_left(mp):
    # the velocity is unitary and every probe is invariant under unitary conjugation, so only
    # the comparison of ambient tangent vectors with P-sharp of the table sees this
    def velocity(x, hams):
        v = _heisenberg_velocity(x, hams)
        return {"lmul": v["rmul"]} if isinstance(hams[0], BorelFunction) else v
    mp.setattr(flows, "heisenberg_velocity", velocity)


def _class_velocity_compact_part(mp):
    # the first-order b_left of exp(i tau grad) is the Borel part of i grad, not the compact one
    def velocity(x, hams):
        if isinstance(hams[0], ClassFunction):
            grads = np.stack([ham.grad(x.factor("u_right")) for ham in hams], axis=-3)
            return {"rmul": project_compact(1j * grads)}
        return _heisenberg_velocity(x, hams)
    mp.setattr(flows, "heisenberg_velocity", velocity)


def _first_slot_velocity_on_a(mp):
    def velocity(x, hams, slot):
        v = _double_velocity(x, hams, slot)
        return {(0, 0, "rmul"): v[(0, 1, "rmul")]} if slot == "first" else v
    mp.setattr(flows, "double_velocity", velocity)


def _second_slot_velocity_sign_flipped(mp):
    def velocity(x, hams, slot):
        v = _double_velocity(x, hams, slot)
        return {key: -z for key, z in v.items()} if slot == "second" else v
    mp.setattr(flows, "double_velocity", velocity)


def _momentum_velocity_without_rmul(mp):
    def velocity(x, hams, slot):
        v = _double_velocity(x, hams, slot)
        return {key: z for key, z in v.items() if key[-1] != "rmul"} if slot == "momentum" else v
    mp.setattr(flows, "double_velocity", velocity)


def _single_block_velocity_sign_flipped(mp):
    def velocity(x, hams):
        v = _moduli_velocity(x, hams)
        return {key: -z for key, z in v.items()} if hams[0].block[0] == "single" else v
    mp.setattr(moduli, "moduli_velocity", velocity)


def _block_conjugation_velocity_one_sided(mp):
    # the moduli flow conjugates the letters of a momentum block: Z on the left only is wrong
    def velocity(slots, z):
        return {key: v for key, v in _conjugation_velocity(slots, z).items() if key[-1] == "lmul"}
    mp.setattr(moduli, "conjugation_velocity", velocity)


# defects of the exact chart and momentum pullbacks

def _twist_by_the_inverse_momentum(mp):
    # swap_adjacent conjugates the next factor's letters by phi_j, not by phi_j^-1
    def swap_letters(space, j):
        target, words = _swap_letters(space, j)
        phi = space.momentum_word(j)
        k = len(phi)
        return target, {name: inverse_word(phi) + word[k:-k] + phi if len(word) > 1 else word
                        for name, word in words.items()}
    mp.setattr(moduli, "_swap_letters", swap_letters)


def _s_letter_map_conjugated_the_wrong_way(mp):
    # the S-transform sends B to B^-1 A B, not to B A B^-1
    mp.setitem(flows.S_LETTERS, "b1", ("b1", "a1", "b1~"))


def _one_sided_momentum_gradient(mp):
    # the condition pairs with grad_L + grad_R = 2 grad of the class function
    mp.setattr(ClassFunction, "two_sided_grad", lambda self, g: self.grad(g))


# defects of the closed-form gradients of the action variables, each one rescaled or
# transposed gradient

def _alcove_coroot_gradient_scaled(mp):
    mp.setattr(AlcoveCoroot, "at", lambda self, form, at=AlcoveCoroot.at: 1.001 * at(self, form))


def _chamber_coroot_gradient_negated(mp):
    mp.setattr(ChamberCoroot, "at", lambda self, form, at=ChamberCoroot.at: -at(self, form))


def _borel_power_gradient_scaled(mp):
    mp.setattr(BorelPower, "grad", lambda self, b, grad=BorelPower.grad: 1.01 * grad(self, b))


def _transposed(cls):
    def defect(mp):
        mp.setattr(cls, "at", lambda self, form, at=cls.at: np.swapaxes(at(self, form), -1, -2))
    return defect


GRADIENT_DEFECTS = {
    "alcove-coroot-gradient-scaled": _alcove_coroot_gradient_scaled,
    "chamber-coroot-gradient-negated": _chamber_coroot_gradient_negated,
    "borel-power-gradient-scaled": _borel_power_gradient_scaled,
    "alcove-coweight-gradient-transposed": _transposed(AlcoveCoweight),
    "borel-chamber-coroot-gradient-transposed": _transposed(BorelChamberCoroot),
}

# name -> (defect, config fields, checks that must not all pass)
MUTATIONS = {
    "heisenberg-half-difference-sign": (_flip_half_difference, dict(space="heisenberg", n=2),
                                        ["flow-bracket"]),
    "right-factor-projections-swapped": (_swap_right_factor_parts,
                                         dict(space="heisenberg", n=2), ["flow-bracket"]),
    "xh-cut-on-the-wrong-side": (_xh_cut_on_the_wrong_side, dict(space="heisenberg", n=3),
                                 ["flow-bracket"]),
    "xh-inverse-sign-flipped": (_xh_inverse_sign_flipped, dict(space="heisenberg", n=2),
                                ["flow-bracket"]),
    "xh-inverse-not-adjoint": (_xh_inverse_not_adjoint, dict(space="heisenberg", n=2),
                               ["flow-bracket"]),
    "xh-inverse-cut-on-the-wrong-side": (_xh_inverse_cut_on_the_wrong_side,
                                         dict(space="heisenberg", n=2), ["flow-bracket"]),
    # at n=2 the probe pairings of flow-bracket miss these three terms; its tangent comparison
    # catches them
    "double-cross-term-dropped": (_drop_double_cross_term, dict(space="double", n=2),
                                  ["flow-bracket"]),
    "double-a-self-term-dropped": (_drop_double_a_self_term, dict(space="double", n=2),
                                   ["flow-bracket"]),
    "double-b-self-term-dropped": (_drop_double_b_self_term, dict(space="double", n=2),
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
    "cotangent-algebra-velocity-on-the-fiber": (_algebra_velocity_on_the_fiber,
                                                dict(space="cotangent", n=2), ["flow-bracket"]),
    "cotangent-class-velocity-sign-flipped": (_class_velocity_sign_flipped,
                                              dict(space="cotangent", n=2), ["flow-bracket"]),
    "heisenberg-borel-velocity-sign-flipped": (_borel_velocity_sign_flipped,
                                               dict(space="heisenberg", n=2), ["flow-bracket"]),
    "heisenberg-borel-velocity-on-the-left": (_borel_velocity_on_the_left,
                                              dict(space="heisenberg", n=2), ["flow-bracket"]),
    "heisenberg-class-velocity-compact-part": (_class_velocity_compact_part,
                                               dict(space="heisenberg", n=2), ["flow-bracket"]),
    "double-first-velocity-on-a": (_first_slot_velocity_on_a, dict(space="double", n=2),
                                   ["flow-bracket"]),
    "double-second-velocity-sign-flipped": (_second_slot_velocity_sign_flipped,
                                            dict(space="double", n=2, family="htilde"),
                                            ["flow-bracket"]),
    "double-momentum-velocity-without-rmul": (_momentum_velocity_without_rmul,
                                              dict(space="double", n=2), ["flow-bracket"]),
    "moduli-single-velocity-sign-flipped": (_single_block_velocity_sign_flipped,
                                            dict(_MODULI, n=2), ["flow-bracket"]),
    "moduli-block-conjugation-velocity-one-sided": (_block_conjugation_velocity_one_sided,
                                                    dict(_MODULI, n=2), ["flow-bracket"]),
    "permutation-twist-by-the-inverse-momentum": (_twist_by_the_inverse_momentum,
                                                  dict(_MODULI, n=2), ["permutation-brackets"]),
    "s-transform-letter-map-conjugated-the-wrong-way": (_s_letter_map_conjugated_the_wrong_way,
                                                        dict(space="double", n=2),
                                                        ["s-transform"]),
    "momentum-condition-one-sided-gradient": (_one_sided_momentum_gradient,
                                              dict(space="double", n=2),
                                              ["momentum-condition"]),
}


# gradient-oracles differences along two random directions per point: each defect must show
# at the small, the middle and the benchmark's n
MUTATIONS.update({f"{name}-n{n}": (defect, dict(space="cotangent", n=n), ["gradient-oracles"])
                  for name, defect in GRADIENT_DEFECTS.items() for n in (2, 3, 5)})


def _run(fields, checks):
    return run_scenario(ScenarioConfig(**fields, checks=checks))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_check(name, monkeypatch):
    defect, fields, checks = MUTATIONS[name]
    assert _run(fields, checks).passed
    defect(monkeypatch)
    SPACE_FREE_RESULTS.clear()  # results kept from the clean run predate the defect
    report = _run(fields, checks)
    summary = [(c.name, c.residual, c.detail.get("error")) for c in report.checks]
    assert [c.name for c in report.checks] == checks, summary
    assert all(math.isfinite(c.residual) and "error" not in c.detail for c in report.checks), \
        summary
    assert not report.passed, summary


# NaN defects: each row makes one value NaN at the second point (or pair) of a check,
# one row per way a check accumulates its residual


def _nan_at_second_call(fn, spoil):
    """``fn``, except that its second call returns ``spoil(result)``."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        out = fn(*args, **kwargs)
        return spoil(out) if calls[0] == 2 else out
    return wrapper


def _flow_bracket_nan_at_a_point(mp):
    """A NaN at the second point of the stacked pairing of the closed-form velocities (the
    second ``velocity_pairings`` call of flow-bracket's one stacked pass)."""
    def spoil(mat):
        mat = np.array(mat)
        assert mat.ndim == 3 and len(mat) > 1
        mat[1, 0, 0] = math.nan
        return mat
    mp.setattr(brackets, "velocity_pairings", _nan_at_second_call(brackets.velocity_pairings,
                                                                  spoil))


def _bracket_matrix_nan_above_the_diagonal(mp):
    def spoil(mat):
        mat = np.array(mat)
        mat[0, 1] = math.nan
        return mat
    mp.setattr(brackets, "bracket_matrix", _nan_at_second_call(brackets.bracket_matrix, spoil))


def _nan_displacement(mp):
    mp.setattr(spaces.Point, "distance",
               _nan_at_second_call(spaces.Point.distance, lambda d: math.nan))


# name -> (defect, config fields, the check that must fail with a NaN residual)
NAN_MUTATIONS = {
    "flow-bracket-point": (_flow_bracket_nan_at_a_point, dict(space="cotangent", n=2),
                           "flow-bracket"),
    "abelian-family-matrix": (_bracket_matrix_nan_above_the_diagonal,
                              dict(space="cotangent", n=2), "abelian-family"),
    "freeness-rank-min-displacement": (_nan_displacement, dict(space="cotangent", n=2),
                                       "freeness-rank"),
}


@pytest.mark.parametrize("name", sorted(NAN_MUTATIONS))
def test_nan_defect_fails_its_check(name, monkeypatch):
    defect, fields, check = NAN_MUTATIONS[name]
    assert _run(fields, [check]).passed
    defect(monkeypatch)
    [result] = _run(fields, [check]).checks
    summary = (result.name, result.residual, result.detail)
    assert math.isnan(result.residual) and "error" not in result.detail, summary
    assert result.detail["non_finite_residual"] == "nan", summary
    assert not result.passed, summary
