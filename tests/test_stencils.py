"""Shared finite-difference stencils: every point is built and evaluated once.

The list forms of the gradient oracles, the per-generator flow derivatives
of ``flow_bracket_worst`` and ``momentum_condition_matrix`` must give exactly
(bit for bit) what one call per observable gives, so report bodies do not move.
"""

import numpy as np
import pytest
import scipy.linalg

from sunflows import brackets, decomp, harness, liecore, observables as ob
from sunflows.scenario import all_generators, flow_bracket_worst
from sunflows.spaces import double_space, moduli_space


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


def _group_reference(fn, g, side, cfg):
    """The one-curve-per-direction oracle: expm(t Z) rebuilt at every stencil offset."""
    basis, dual = brackets._su_pair(g.shape[0])
    out = np.zeros(g.shape, dtype=complex)
    for z, e in zip(basis, dual):
        def curve(t, z=z):
            u = scipy.linalg.expm(t * z)
            return u @ g if side == "L" else g @ u
        out += brackets.directional_derivative(fn, curve, cfg) * e
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("side", ["L", "R"])
def test_group_oracle_list_equals_single_calls(n, side):
    g, fns = _group_case(n, np.random.default_rng(100 + n))
    values = [fn.value for fn in fns]
    together = brackets.group_gradient_fd(values, g, side)
    assert len(together) == len(fns)
    for value, grad in zip(values, together):
        single, = brackets.group_gradient_fd([value], g, side)
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, _group_reference(value, g, side, brackets.DEFAULT_DIFF))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_oracle_list_equals_single_calls(n):
    j_alg, fns = _algebra_case(n, np.random.default_rng(200 + n))
    values = [fn.value for fn in fns]
    together = brackets.algebra_gradient_fd(values, j_alg)
    basis, dual = brackets._su_pair(n)
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
    cfg = brackets.DiffConfig(h=3e-4)
    values = [fn.value for fn in fns]
    together = brackets.borel_gradient_fd(values, b, cfg)
    kb = liecore.su_basis(n)
    for value, grad in zip(values, together):
        single, = brackets.borel_gradient_fd([value], b, cfg)
        derivs = np.array([
            brackets.directional_derivative(
                value, lambda t, z=z: scipy.linalg.expm(t * z) @ b, cfg)
            for z in liecore.borel_basis(n)])
        coeffs = brackets._borel_to_su_inverse(n) @ derivs
        reference = sum(coeffs[s] * kb[s] for s in range(len(kb)))
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("basis", ["su", "borel"])
@pytest.mark.parametrize("h", [1e-3, 3e-4])
def test_oracle_table_entries_are_expm_at_each_offset(basis, h):
    n = 3
    directions = liecore.su_basis(n) if basis == "su" else liecore.borel_basis(n)
    table = brackets._expm_steps(basis, n, h)
    assert len(table) == len(directions)
    for z, row in zip(directions, table):
        for k, u in zip(brackets._STEPS, row):
            assert np.array_equal(u, scipy.linalg.expm((k * h) * z))


def _per_probe_worst(x, gens, obs):
    mat = brackets.bracket_matrix(obs, [g.obs for g in gens], x)
    worst = 0.0
    for j, gen in enumerate(gens):
        for i, o in enumerate(obs):
            d_flow = brackets.directional_derivative(o, lambda t: gen.flow(x, t))
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
