"""Shared finite-difference stencils: one table, every point built and evaluated once.

Every stencil point comes from ``brackets._steps`` (powers of exp(hZ)) or an
additive shift.  The list forms of the gradient oracles, the per-generator
flow derivatives of ``flow_bracket_worst`` and ``momentum_condition_matrix``
must give exactly (bit for bit) what one call per observable, built from
that table, gives, so report bodies do not move.
"""

import numpy as np
import pytest
import scipy.linalg

from sunflows import brackets, decomp, harness, liecore, observables as ob
from sunflows.scenario import all_generators, flow_bracket_worst
from sunflows.spaces import CotangentPoint, double_space, moduli_space


def _group_case(n, rng):
    datum = liecore.build_root_datum(n)
    g = harness.sample_regular("group", 64, lambda: liecore.random_group_element(n, rng),
                               lambda g: decomp.alcove_diagonalize(g, 0.05))
    return g, [ob.PowerTrace(1), ob.PowerTrace(2), ob.AlcoveCoroot(0, datum),
               ob.AlcoveCoweight(datum.rank - 1, datum)]


def _algebra_case(n, rng):
    datum = liecore.build_root_datum(n)
    j_alg = harness.sample_regular("algebra", 64, lambda: liecore.random_algebra_element(n, rng),
                                   lambda j: decomp.chamber_diagonalize(j, 0.05))
    return j_alg, [ob.AlgebraPower(2), ob.AlgebraPower(3), ob.ChamberCoroot(0, datum)]


def _borel_case(n, rng):
    datum = liecore.build_root_datum(n)
    b = harness.sample_regular(
        "Borel", 64, lambda: decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right,
        lambda b: decomp.borel_chamber_diagonalize(b, 0.05))
    return b, [ob.BorelPower(1), ob.BorelPower(2), ob.BorelChamberCoroot(0, datum)]


def _reference(fn, m, kind, left=True):
    """One function's derivatives along every direction, from the rows of ``_steps``."""
    return np.array([brackets._central([fn(u @ m if left else m @ u) for u in row],
                                       brackets.STEP[kind])
                     for row in brackets._steps(kind, m.shape[0])])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("side", ["L", "R"])
def test_group_oracle_list_equals_single_calls(n, side):
    g, fns = _group_case(n, np.random.default_rng(100 + n))
    values = [fn.value for fn in fns]
    together = brackets.group_gradient_fd(values, g, side)
    assert len(together) == len(fns)
    for value, grad in zip(values, together):
        single, = brackets.group_gradient_fd([value], g, side)
        reference = np.zeros((n, n), dtype=complex)
        for d, e in zip(_reference(value, g, "su", side == "L"), brackets._basis("su", n)[1]):
            reference += d * e
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_oracle_list_equals_single_calls(n):
    j_alg, fns = _algebra_case(n, np.random.default_rng(200 + n))
    values = [fn.value for fn in fns]
    together = brackets.algebra_gradient_fd(values, j_alg)
    basis, dual = brackets._basis("su", n)
    for value, grad in zip(values, together):
        single, = brackets.algebra_gradient_fd([value], j_alg)
        reference = np.zeros((n, n), dtype=complex)
        for z, e in zip(basis, dual):
            reference += brackets.directional_derivative(
                value, lambda t, z=z: j_alg + t * z) * e
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_borel_oracle_list_equals_single_calls(n):
    b, fns = _borel_case(n, np.random.default_rng(300 + n))
    values = [fn.value for fn in fns]
    together = brackets.borel_gradient_fd(values, b)
    kb = liecore.su_basis(n)
    for value, grad in zip(values, together):
        single, = brackets.borel_gradient_fd([value], b)
        coeffs = brackets._basis("borel", n)[1] @ _reference(value, b, "borel")
        reference = sum(coeffs[s] * kb[s] for s in range(len(kb)))
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("kind", ["su", "sl", "borel"])
@pytest.mark.parametrize("n", [2, 3])
def test_step_table_entries_are_powers_of_expm(kind, n):
    directions = {"su": liecore.su_basis, "sl": liecore.sl_real_basis,
                  "borel": liecore.borel_basis}[kind](n)
    table = brackets._steps(kind, n)
    h = brackets.STEP[kind]
    assert len(table) == len(directions)
    for z, row in zip(directions, table):
        e = scipy.linalg.expm(h * z)
        ei = e.conj().T if kind == "su" else np.linalg.inv(e)
        powers = {1: e, -1: ei, 2: e @ e, -2: ei @ ei}
        for k, u in zip(brackets._STEPS, row):
            assert np.array_equal(u, powers[k])
            assert np.allclose(u, scipy.linalg.expm((k * h) * z), rtol=0, atol=1e-14)


def test_engines_oracles_and_differentials_share_the_table():
    """The cotangent engine's group gradient is the group oracle's, bit for bit, and the
    differential matrix holds the same central differences along the same stencils."""
    n = 3
    x = harness.build_harness("cotangent", n, liecore.build_root_datum(n)).sample(
        np.random.default_rng(19))
    obs = ob.word_observable(("g", "j", "j"))
    on_group = lambda g: obs(CotangentPoint(g, x.j))
    (group, fiber), = brackets.cotangent_gradients([obs], x)
    assert np.array_equal(group, brackets.group_gradient_fd([on_group], x.g, "L")[0])
    assert np.array_equal(fiber, brackets.algebra_gradient_fd(
        [lambda j: obs(CotangentPoint(x.g, j))], x.j)[0])
    row, = brackets.differentials([obs], x)
    assert np.array_equal(row[:n * n - 1], _reference(on_group, x.g, "su"))


def _per_probe_worst(x, gens, obs):
    mat = brackets.bracket_matrix(obs, [g.obs for g in gens], x)
    worst = 0.0
    for j, gen in enumerate(gens):
        for i, o in enumerate(obs):
            d_flow = brackets.directional_derivative(o, lambda t: gen.flow(x, t),
                                                     richardson=True)
            worst = max(worst, abs(d_flow - mat[i, j]) / (1.0 + abs(mat[i, j])))
    return worst


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double"])
def test_flow_bracket_worst_equals_per_probe_loop(space):
    h = harness.build_harness(space, 2, liecore.build_root_datum(2))
    x = h.sample(np.random.default_rng(17))
    gens, obs = all_generators(h), h.probes()
    assert flow_bracket_worst(h, x, gens, obs) == _per_probe_worst(x, gens, obs)


@pytest.mark.parametrize("space, words", [
    (double_space(2), [("a1", "b1"), ("a1",), ("b1", "a1", "b1")]),
    (moduli_space(1, 1, 2), [("a1", "c1"), ("c1",), ("b1", "c1", "a1"), ("a1", "b1")]),
])
def test_momentum_condition_matrix_entries_are_pairwise_residuals(space, words):
    x = space.random_point(np.random.default_rng(18))
    obs = [ob.word_observable(w) for w in words]
    kfns = [lambda g: float(np.trace(g).real), lambda g: float(np.trace(g @ g).imag),
            lambda g: 3.0]
    mat = brackets.momentum_condition_matrix(obs, kfns, x)
    assert mat.shape == (len(obs), len(kfns))
    for i, f_obs in enumerate(obs):
        for j, kfn in enumerate(kfns):
            assert mat[i, j] == brackets.momentum_condition_residual(f_obs, kfn, x)
