"""Checks that can fail: each row plants one defect and names the check that must catch it.

A row monkeypatches one piece of the package, runs only the named checks on a
small suite and requires at least one of them to fail.  The same suite
without the defect must pass, so a row that fails is the defect's doing.
"""

import pytest

from sunflows import brackets
from sunflows.liecore import IM_FORM, TRACE_FORM, project_borel, project_compact
from sunflows.scenario import ScenarioConfig, run_scenario

_half_difference = brackets._half_difference


def _flip_half_difference(mp):
    mp.setattr(brackets, "_half_difference", lambda z: -_half_difference(z))


def _swap_right_factor_parts(mp):
    mp.setattr(brackets, "_RIGHT_FACTOR", {"b_right": (project_compact, IM_FORM),
                                           "u_right": (project_borel, TRACE_FORM)})


def _xh_cut_on_the_wrong_side(mp):
    # 'xh' adds C_(i+1)^H on the left and C_i^H on the right; offset 0 swaps them
    mp.setitem(brackets._HEISENBERG_LETTERS, "xh", (1, True, 0))


# name -> (defect, space, n, checks that must not all pass)
MUTATIONS = {
    "heisenberg-half-difference-sign": (_flip_half_difference, "heisenberg", 2,
                                        ["flow-bracket"]),
    "right-factor-projections-swapped": (_swap_right_factor_parts, "heisenberg", 2,
                                         ["flow-bracket"]),
    "xh-cut-on-the-wrong-side": (_xh_cut_on_the_wrong_side, "heisenberg", 3, ["flow-bracket"]),
}


def _run(space, n, checks):
    return run_scenario(ScenarioConfig(space=space, n=n, checks=checks))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_check(name, monkeypatch):
    defect, space, n, checks = MUTATIONS[name]
    assert _run(space, n, checks).passed
    defect(monkeypatch)
    report = _run(space, n, checks)
    assert not report.passed, [(c.name, c.residual) for c in report.checks]
