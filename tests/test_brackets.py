import numpy as np
import pytest
from curve_stencils import fd_observable

from sunflows import brackets, harness, liecore, observables as ob
from sunflows.errors import UnsupportedBracket
from sunflows.scenario import ScenarioConfig, run_scenario
from sunflows.spaces import (
    double_space,
    moduli_space,
    random_cotangent_point,
    random_heisenberg_point,
    stack,
)


def _one(point):
    """The flowed point of a one-generator run, its generator axis dropped."""
    return point.map(lambda m: m[0])


def test_class_gradient_vanishes_for_linear_trace_at_identity():
    # tr(Z) = 0 on the algebra, so the gradient of Re tr at e is zero
    fn = ob.PowerTrace(1)
    assert np.linalg.norm(fn.grad(np.eye(2, dtype=complex))) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_trace_gradient_matches_fd(k):
    rng = np.random.default_rng(k)
    g = liecore.random_group_element(3, rng)
    fn = ob.PowerTrace(k)
    fd, = brackets.group_gradient_fd([fn.value], g)
    assert np.linalg.norm(fn.grad(g) - fd) <= 1e-6


def test_class_gradient_equivariance():
    rng = np.random.default_rng(9)
    g = liecore.random_group_element(3, rng)
    eta = liecore.random_group_element(3, rng)
    datum = liecore.build_root_datum(3)
    for fn in (ob.PowerTrace(2), ob.AlcoveCoroot(0, datum), ob.AlcoveCoweight(1, datum)):
        lhs = fn.grad(eta @ g @ eta.conj().T)
        rhs = eta @ fn.grad(g) @ eta.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_alcove_gradient_on_torus_matches_paper_normal_form():
    # at a point of the exponentiated alcove the coroot gradient is -i h_j
    datum = liecore.build_root_datum(2)
    a = 0.9
    g = np.diag(np.exp(1j * np.array([a, -a])))
    assert np.linalg.norm(ob.AlcoveCoroot(0, datum).grad(g) + 1j * datum.coroots[0]) < 1e-12


def test_heisenberg_derivatives_constant_and_symmetric():
    x = random_heisenberg_point(2, np.random.default_rng(3))
    d, = brackets.heisenberg_derivatives_multi([lambda p: 1.0], x)
    assert np.linalg.norm(d["lmul"]) < 1e-12 and np.linalg.norm(d["rmul"]) < 1e-12
    # F = Re tr(X X^H) at the identity has equal left and right derivatives
    from sunflows.spaces import HeisenbergPoint
    e = HeisenbergPoint(np.eye(2, dtype=complex))
    obs = ob.word_observable(("x", "xh"))
    d, = brackets.heisenberg_derivatives_multi([obs], e)
    assert np.linalg.norm(d["lmul"] - d["rmul"]) < 1e-9


def test_heisenberg_derivatives_defining_property():
    # im-pair(Z1, DF) + im-pair(Z2, D'F) = d/dt F(exp(tZ1) X exp(tZ2))
    import scipy.linalg
    rng = np.random.default_rng(5)
    x = random_heisenberg_point(2, rng)
    obs = ob.word_observable(("x", "x", "xh"))
    d, = brackets.heisenberg_derivatives_multi([obs], x)
    for _ in range(3):
        z1 = sum(rng.standard_normal() * b for b in liecore.sl_real_basis(2))
        z2 = sum(rng.standard_normal() * b for b in liecore.sl_real_basis(2))
        lhs = (liecore.pair(z1, d["lmul"], liecore.IM_FORM)
               + liecore.pair(z2, d["rmul"], liecore.IM_FORM))

        def curve(t):
            from sunflows.spaces import HeisenbergPoint
            return obs(HeisenbergPoint(scipy.linalg.expm(t * z1) @ x.x @ scipy.linalg.expm(t * z2)))

        fd = brackets._central([curve(k * 1e-3) for k in (-2, -1, 1, 2)], 1e-3)
        assert abs(lhs - fd) < 1e-7


def test_derivative_linearity():
    rng = np.random.default_rng(6)
    x = random_heisenberg_point(2, rng)
    f1 = ob.word_observable(("x",))
    f2 = ob.word_observable(("x", "xh"))
    combo = lambda p: 2.0 * f1(p) - 0.7 * f2(p)
    d1, = brackets.heisenberg_derivatives_multi([f1], x)
    d2, = brackets.heisenberg_derivatives_multi([f2], x)
    dc, = brackets.heisenberg_derivatives_multi([combo], x)
    for side in ("lmul", "rmul"):
        assert np.linalg.norm(dc[side] - (2.0 * d1[side] - 0.7 * d2[side])) < 1e-9


def _bracket(f, h, x):
    """{f, h} at x: the one entry of the bracket matrix."""
    return float(brackets.bracket_matrix([f], [h], x)[0, 0])


def _product(g, h):
    """The pointwise product observable; it has no exact table, so it carries its FD table."""
    return fd_observable(lambda x: g(x) * h(x))


def _antisymmetry_and_leibniz(bracket, x, f, g, h):
    assert abs(bracket(f, f, x)) <= 1e-10
    lhs = bracket(f, _product(g, h), x)
    rhs = g(x) * bracket(f, h, x) + h(x) * bracket(f, g, x)
    assert abs(lhs - rhs) <= 1e-6
    assert abs(bracket(f, g, x) + bracket(g, f, x)) <= 1e-9


def test_cotangent_bracket_axioms():
    rng = np.random.default_rng(7)
    x = random_cotangent_point(2, rng)
    f = ob.word_observable(("g", "j"))
    g = ob.word_observable(("g",))
    h = ob.word_observable(("j", "j"))
    _antisymmetry_and_leibniz(_bracket, x, f, g, h)


def test_heisenberg_bracket_axioms():
    rng = np.random.default_rng(8)
    x = random_heisenberg_point(2, rng)
    f = ob.word_observable(("x", "xh"))
    g = ob.word_observable(("x",))
    h = ob.word_observable(("x", "x", "xh"), part="im")
    _antisymmetry_and_leibniz(_bracket, x, f, g, h)


def test_fusion_bracket_axioms():
    rng = np.random.default_rng(9)
    x = double_space(2).random_point(rng)
    f = ob.word_observable(("a1", "b1"))
    g = ob.word_observable(("a1",))
    h = ob.word_observable(("b1", "a1", "b1"))
    _antisymmetry_and_leibniz(brackets.fusion_bracket, x, f, g, h)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [7, 42])
def test_cotangent_bracket_satisfies_jacobi(n, seed):
    """{f,{g,h}} + cyclic vanishes for f = Re tr(jj), g = Re tr(gjj), h = Im tr(gj).

    The inner bracket is an opaque observable, so the outer bracket takes it
    through the finite-difference engine.  Two of the three carry J-gradients
    that do not commute with J, which makes the Lie-Poisson term
    pair(J, [grad f, grad h]) count: with its sign flipped the defect is 0.02
    to 0.6, against about 1e-13 here.  At n = 2, and with the word g j j
    replaced by j j g (the same trace), the term cannot show.
    """
    x = harness.CotangentHarness(n, liecore.build_root_datum(n)).sample(
        np.random.default_rng(seed))
    f = ob.word_observable(("j", "j"))
    g = ob.word_observable(("g", "j", "j"))
    h = ob.word_observable(("g", "j"), part="im")

    def inner(a, b):
        return fd_observable(lambda p: _bracket(a, b, p))

    terms = [_bracket(a, inner(b, c), x) for a, b, c in ((f, g, h), (g, h, f), (h, f, g))]
    assert abs(sum(terms)) / (1 + sum(abs(t) for t in terms)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [7, 42])
def test_heisenberg_bracket_satisfies_jacobi(n, seed):
    """{f,{g,h}} + cyclic vanishes on the Heisenberg double for three word probes.

    The inner brackets come from the exact (D, D') tables and the outer ones
    take them through the finite-difference engine.  With the half-difference
    (compact - Borel)/2 replaced by z/2 the defect is 0.15 to 0.75.
    """
    x = harness.HeisenbergHarness(n, liecore.build_root_datum(n)).sample(
        np.random.default_rng(seed))
    f = ob.word_observable(("x", "xh"))
    g = ob.word_observable(("x", "x", "xh"))
    h = ob.word_observable(("x",), part="im")

    def inner(a, b):
        return fd_observable(lambda p: _bracket(a, b, p))

    terms = [_bracket(a, inner(b, c), x) for a, b, c in ((f, g, h), (g, h, f), (h, f, g))]
    assert abs(sum(terms)) / (1 + sum(abs(t) for t in terms)) <= 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_heisenberg_flow_bracket_keeps_a_tenfold_margin(n):
    """Heisenberg ``flow-bracket`` stays 10x under its tolerance 1e-6 at seeds 1, 2, 5, 42.

    With finite-difference (D, D') the n = 4 residual at seed 5 was 3.3e-7;
    the exact tables give about 6e-12.
    """
    for seed in (1, 2, 5, 42):
        check, = run_scenario(ScenarioConfig(space="heisenberg", n=n, seed=seed,
                                             checks=["flow-bracket"])).checks
        assert check.residual <= 1e-7, (seed, check.residual)


def test_cotangent_fiber_family_is_abelian():
    rng = np.random.default_rng(10)
    datum = liecore.build_root_datum(3)
    worst = 0.0
    for _ in range(3):
        x = random_cotangent_point(3, rng)
        f = ob.WordFunction(ob.AlgebraPower(2), ("j",))
        h = ob.WordFunction(ob.AlgebraPower(3), ("j",))
        worst = max(worst, abs(_bracket(f, h, x)))
    assert worst <= 1e-8


def test_double_bracket_equals_flow_derivative_on_word():
    from sunflows import flows
    rng = np.random.default_rng(11)
    x = double_space(2).random_point(rng)
    ham = ob.PowerTrace(2)
    h_obs = ob.WordFunction(ham, ("a1",))
    word = ob.word_observable(("b1", "a1", "b1", "a1~"))
    bk = brackets.fusion_bracket(word, h_obs, x)
    d_flow = brackets.directional_derivative(
        word, lambda t: _one(flows.double_flow(stack([x] * len(t)), [ham], t, "first")))
    assert abs(d_flow - bk) <= 1e-6 * (1 + abs(bk))


def test_momentum_condition_identity_map():
    rng = np.random.default_rng(12)
    x = moduli_space(0, 1, 2).random_point(rng)
    f = ob.word_observable(("c1", "c1"))
    for kfn in (ob.PowerTrace(1), ob.PowerTrace(2, part="im")):
        assert brackets.momentum_condition_residual(f, kfn, x) <= 1e-6
    # Re tr(g^0) = n is constant
    assert brackets.momentum_condition_residual(f, ob.PowerTrace(0), x) <= 1e-12


def test_momentum_condition_double():
    rng = np.random.default_rng(13)
    x = double_space(2).random_point(rng)
    f = ob.word_observable(("a1", "b1"))
    assert brackets.momentum_condition_residual(f, ob.PowerTrace(1), x) <= 1e-6


def test_invariant_brackets_are_invariant():
    rng = np.random.default_rng(14)
    datum = liecore.build_root_datum(2)
    x = double_space(2).random_point(rng)
    eta = liecore.random_group_element(2, rng)
    f = ob.WordFunction(ob.PowerTrace(2), ("a1",))
    h = ob.WordFunction(ob.PowerTrace(1), ("a1", "b1"))
    v1 = brackets.fusion_bracket(f, h, x)
    v2 = brackets.fusion_bracket(f, h, x.conjugate(eta))
    assert abs(v1 - v2) <= 1e-8


_PAIRWISE_CASES = {
    "cotangent": (lambda rng: random_cotangent_point(2, rng), ("g", "j"), ("g",), ("j", "j")),
    "heisenberg": (lambda rng: random_heisenberg_point(2, rng), ("x",), ("x", "xh"),
                   ("x", "x", "xh")),
    "double": (lambda rng: double_space(2).random_point(rng), ("a1", "b1"), ("a1",),
               ("b1", "a1", "b1")),
    "moduli": (lambda rng: moduli_space(1, 2, 2).random_point(rng), ("a1", "c1"), ("c1", "c2"),
               ("b1", "c2", "a1")),
}


@pytest.mark.parametrize("space", sorted(_PAIRWISE_CASES))
def test_bracket_matrix_matches_pairwise(space):
    sample, *words = _PAIRWISE_CASES[space]
    x = sample(np.random.default_rng(15))
    obs = [ob.word_observable(w) for w in words]
    gens = [obs[2], obs[0]]
    mat = brackets.bracket_matrix(obs, gens, x)
    pairwise = np.array([[_bracket(f, h, x) for h in gens] for f in obs])
    assert mat.shape == (3, 2)
    assert np.array_equal(mat, pairwise)


def test_bracket_matrix_rejects_foreign_points():
    f = ob.word_observable(("g",))
    with pytest.raises(UnsupportedBracket):
        brackets.bracket_matrix([f], [f], np.eye(2, dtype=complex))
    with pytest.raises(UnsupportedBracket):
        brackets.bracket_matrix([f], [f], object())


def test_richardson_extrapolation_refines_derivative():
    rng = np.random.default_rng(16)
    x = random_cotangent_point(2, rng)
    obs = ob.word_observable(("g", "j"))
    ham = ob.AlgebraPower(2)
    from sunflows import flows
    curve = lambda t: _one(flows.cotangent_flow(stack([x] * len(t)), [ham], t))
    plain = brackets.directional_derivative(obs, curve)
    refined = brackets.directional_derivative(obs, curve, richardson=True)
    exact = _bracket(obs, ob.WordFunction(ham, ("j",)), x)
    assert abs(refined - exact) <= abs(plain - exact) + 1e-12
