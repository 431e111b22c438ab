"""Generators as a stack axis: a run of same-rule generators flows, differentiates and pairs in
one call, and every matrix of the stacked result has the bytes of its one-generator call.

Each stacked flow (also a second step on a stacked first step), velocity, gradient table and
generator matrix is compared byte for byte with the per-generator results stacked in
generator order, the per-generator side computed at a fresh copy of the point (no kept
forms).  A stacked velocity has the key order of the per-generator velocities (the pairing
sums keys in that order), and no two of its keys share memory: the flow-bracket check
subtracts into them in place.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from sunflows import brackets, flows, harness, liecore, probes
from sunflows.errors import UnsupportedBracket
from sunflows.scenario import SPACE_FREE_RESULTS, ScenarioConfig, all_generators, run_scenario

FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}
SPACES = {"cotangent": {}, "heisenberg": {}, "double": {}, "double-htilde": {"family": "htilde"},
          "sphere4": {}, "moduli": {"m": 2, "holes": 2, "family": FAMILY}}


def _harness(label, n):
    return harness.build_harness(label.split("-")[0], n, liecore.build_root_datum(n),
                                 **SPACES[label])


def _fresh(x):
    """x with copies of its matrices and none of its kept forms."""
    return x.map(np.copy)


def _bytes(point):
    return [m.tobytes() for _, m in point.matrices()]


def _assert_stacked(stacked, singles, what):
    """Entry k of the leading axis of every matrix of ``stacked`` has the bytes of
    ``singles[k]``'s."""
    assert [label for label, _ in stacked.matrices()] == [l for l, _ in singles[0].matrices()]
    for k, single in enumerate(singles):
        for (_, many), (_, one) in zip(stacked.matrices(), single.matrices()):
            assert many.shape[1:] == one.shape, what
            assert many[k].tobytes() == one.tobytes(), (what, k)


def _case(label, n):
    h = _harness(label, n)
    rng = np.random.default_rng(90 + n)
    return h, h.sample_stack(rng, 2), rng


CASES = [(label, n) for label in sorted(SPACES) for n in (2, 3)]


@pytest.mark.parametrize("label, n", CASES)
def test_a_run_flows_each_generator_in_one_call(label, n):
    h, x, rng = _case(label, n)
    taus = rng.uniform(-1, 1, 2)  # one time per point
    runs = harness.runs(all_generators(h))
    assert sum(len(run) for run in runs) == len(all_generators(h))
    for run in runs:
        for tau in (0.4, taus):
            _assert_stacked(run.flow(x, tau), [g.flow(_fresh(x), tau) for g in run],
                            f"{run[0].name} flow")
        # a second step on a stacked first step, by every run
        first = run.flow(x, 0.3)
        for other in runs:
            second = other.flow(first, 0.7)
            for k, g in enumerate(run):
                one = g.flow(_fresh(x), 0.3)
                _assert_stacked(second.map(lambda m: m[:, k]),
                                [o.flow(_fresh(one), 0.7) for o in other],
                                f"{other[0].name} after {g.name}")


@pytest.mark.parametrize("label, n", CASES)
def test_a_run_differentiates_each_generator_in_one_call(label, n):
    h, x, _ = _case(label, n)
    for run in harness.runs(all_generators(h)):
        stacked = run.velocity(x)
        singles = [g.velocity(_fresh(x)) for g in run]
        for single in singles:
            assert list(stacked) == list(single), run[0].name
        for k, single in enumerate(singles):
            for key, v in single.items():
                assert stacked[key][..., k, :, :].tobytes() == v.tobytes(), (run[0].name, key)
        for a, b in itertools.combinations(stacked.values(), 2):
            assert not np.shares_memory(a, b), run[0].name


@pytest.mark.parametrize("label, n", CASES)
def test_a_run_of_observables_builds_one_stacked_table(label, n):
    h, x, _ = _case(label, n)
    obs = h.probes()[:3] + [g.obs for g in all_generators(h)] + h.probes()[3:5]
    stacked = brackets.gradient_stack(obs, x)
    singles = brackets.stack_tables([o.grad_table(_fresh(x)) for o in obs])
    assert list(stacked) == list(singles)
    for key, s in singles.items():
        assert stacked[key].tobytes() == s.tobytes(), key


@pytest.mark.parametrize("label, n", CASES)
def test_generator_matrices_stack_the_basis_and_each_run(label, n):
    h, x, _ = _case(label, n)
    sym = probes.generator_matrix(x, probes.conjugation_action(n))
    one = np.stack([x.tangent(x.conjugation_velocity(z)) for z in liecore.su_basis(n)], -1)
    assert sym.tobytes() == one.tobytes()
    for spec in h.torus_specs():
        mat = probes.generator_matrix(x, [run.velocity for run in harness.runs(spec.generators)])
        one = np.stack([x.tangent(g.velocity(_fresh(x))) for g in spec.generators], -1)
        assert mat.tobytes() == one.tobytes(), spec.name
    # the center conjugates a point in one call, each element with its one-element bytes
    p = x.map(lambda m: m[0])
    center = liecore.special_elements(n).center
    moved = p.conjugate(np.array(center))
    _assert_stacked(moved, [p.conjugate(z) for z in center], "center")


@pytest.mark.parametrize("n", (2, 3))
def test_heisenberg_class_flows_stack_their_cofactors(n):
    h, x, _ = _case("heisenberg", n)
    [run] = harness.runs(h.families()["unitary-class"])
    hams = [g.obs for g in run]
    moved, gamma = flows.heisenberg_class_flow(x, hams, 0.6)
    for k, ham in enumerate(hams):
        one, cofactor = flows.heisenberg_class_flow(_fresh(x), [ham], 0.6)
        assert _bytes(moved.map(lambda m: m[k])) == _bytes(one.map(lambda m: m[0]))
        assert gamma[k].tobytes() == cofactor[0].tobytes()


def test_a_run_is_one_rule():
    """Runs split at every change of rule (``brackets.run_of``: the observable's class and what
    it reads, a block, a word or a right factor), and a flow refuses a list that mixes rules."""
    h = _harness("moduli", 2)
    gens = all_generators(h)
    runs = harness.runs(gens)
    assert [len(run) for run in runs] == [1] * 6
    assert [brackets.run_of(run[0].obs) for run in runs] == [
        (type(g.obs), g.obs.block) for g in gens]
    x = h.sample_stack(np.random.default_rng(3), 2)
    with pytest.raises(UnsupportedBracket):
        flows.flow(x, [gens[0].obs, gens[1].obs], 0.3)
    h = _harness("cotangent", 3)
    fams = h.families()
    assert [len(run) for run in harness.runs(all_generators(h))] == [4, 4]
    for flow in (flows.flow, flows.cotangent_flow):
        with pytest.raises(UnsupportedBracket):
            flow(h.sample(np.random.default_rng(4)),
                 [fams["fiber-invariants"][0].obs, fams["base-class"][0].obs], 0.3)


def _flow_commutation_peak(single) -> int:
    cfg = ScenarioConfig(space="moduli", n=4, m=4, holes=0, family={"single": single},
                         points=2, checks=["flow-commutation"])
    SPACE_FREE_RESULTS.clear()
    run_scenario(cfg)  # warm the caches
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.checks
    return peak


def test_flow_commutation_memory_is_linear_in_the_generators():
    """flow-commutation compares each run's pairs as it makes them, so it never holds a
    (generators, generators, ...) stack: doubling the generators (6 -> 12, one run of 3 per
    block) at most 2.5-folds its tracemalloc peak (a stack of every generator's second steps
    grew 3.5-fold)."""
    assert _flow_commutation_peak([1, 2, 3, 4]) <= 2.5 * _flow_commutation_peak([1, 2])

