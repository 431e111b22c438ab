"""The check registry: which checks each space runs and which results are shared.

Each check declares its name, spaces and sharing once, on its ``@check`` decorator.
The lists below are written out by hand, so a check that is dropped, added, or moved to
other spaces or another sharing fails here until the lists are changed on purpose.
"""

import pytest

from sunflows.scenario import CHECKS, ScenarioConfig, checks_for

# the checks that every space runs
EVERY_SPACE = [
    "abelian-family", "apposition-torus", "bracket-invariance", "commutator-solve",
    "conservation", "coxeter-commutator-identity", "differential-rank",
    "dressing-equivariance", "dual-basis", "flow-bracket", "flow-commutation",
    "flow-equivariance", "freeness-rank", "gradient-oracles", "isotropy-crafted",
    "iwasawa-roundtrip", "posdef-roundtrip", "root-datum-exact", "shifting-trick",
    "torus-additivity", "torus-periodicity", "torus-vs-flows",
]

_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}

# config fields -> the checks its space runs besides EVERY_SPACE
SPACE_CHECKS = [
    (dict(space="cotangent"), []),
    (dict(space="heisenberg"), ["quasi-adjoint-law", "unitary-conjugation-law"]),
    (dict(space="double", family="h"), ["momentum-condition", "s-transform"]),
    (dict(space="double", family="htilde"), ["momentum-condition", "s-transform"]),
    (dict(space="sphere4"), ["momentum-condition"]),
    (dict(space="moduli", m=2, holes=2, family=_FAMILY),
     ["momentum-condition", "permutation-brackets"]),
    (dict(space="moduli", m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     ["momentum-condition"]),
]

# results kept per (name, seed, tol_scale) and n, or without n for the n-free ones
SHARED = ["apposition-torus", "commutator-solve", "coxeter-commutator-identity",
          "dressing-equivariance", "dual-basis", "gradient-oracles", "iwasawa-roundtrip",
          "posdef-roundtrip", "root-datum-exact", "shifting-trick"]
N_FREE = ["commutator-solve", "coxeter-commutator-identity", "root-datum-exact"]


@pytest.mark.parametrize("fields, extra", SPACE_CHECKS, ids=[
    "cotangent", "heisenberg", "double-h", "double-htilde", "sphere4", "moduli-2-2", "moduli-1-3"])
def test_each_space_runs_its_checks(fields, extra):
    cfg = ScenarioConfig(**fields)
    cfg.validate()
    assert sorted(checks_for(cfg)) == sorted(EVERY_SPACE + extra)


def test_the_shared_and_n_free_checks():
    assert sorted(name for name, c in CHECKS.items() if c.shared) == SHARED
    assert sorted(name for name, c in CHECKS.items() if c.shared == "all") == N_FREE
    assert {c.shared for c in CHECKS.values()} == {None, "space", "all"}


def test_each_entry_is_filed_under_its_own_name():
    assert all(c.name == name for name, c in CHECKS.items())
    union = set().union(*(checks_for(ScenarioConfig(**fields)) for fields, _ in SPACE_CHECKS))
    assert union == set(CHECKS)
