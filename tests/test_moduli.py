import numpy as np
import pytest
import scipy.linalg

from sunflows import brackets, liecore, moduli, observables as ob
from sunflows.errors import AssumptionViolation, InvalidPlan, InvalidShape, UnsupportedWord
from sunflows.spaces import (
    double_space,
    embed_shift,
    moduli_point,
    moduli_space,
    sphere_space,
)


def _one(point):
    """The flowed point of a one-generator run, its generator axis dropped."""
    return point.map(lambda m: m[0])

DATUM2 = liecore.build_root_datum(2)
DATUM3 = liecore.build_root_datum(3)


def test_momentum_of_identity_components():
    space = moduli_space(1, 2, 2)
    e = np.eye(2, dtype=complex)
    x = moduli_point(space, [(e, e)], [e, e])
    assert np.linalg.norm(x.momentum() - e) < 1e-14


def test_momentum_of_commuting_pair_is_identity():
    space = double_space(3)
    a = np.diag(np.exp(1j * np.array([0.3, -0.1, -0.2])))
    b = np.diag(np.exp(1j * np.array([1.0, -0.4, -0.6])))
    x = moduli_point(space, [(a, b)], [])
    assert np.linalg.norm(x.momentum() - np.eye(3)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_block_momenta_are_the_left_to_right_products(n):
    """``momentum(positions)`` is bit-equal to the product of the factor momenta at
    ``positions`` taken left to right from the identity: the loop that ``block_value`` and
    the permutation-brackets sampler ran before, on each momentum block of the desk-sweep
    family and on the span of the first two factors."""
    space = moduli_space(2, 2, n)
    family = moduli.IntervalFamily(single=(1,), commutators=(2,), intervals=((1, 2),))
    blocks = [b for b in moduli.family_blocks(family) if b[0] != "single"] + [("span", 0, 1)]
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = space.random_point(rng)
        for block in blocks:
            positions = moduli.block_positions(space, block)
            old = np.eye(n, dtype=complex)
            for f in positions:
                old = old @ x.factor_momentum(f)
            assert np.array_equal(x.momentum(positions), old), block


def test_momentum_equivariance():
    rng = np.random.default_rng(0)
    space = moduli_space(1, 2, 3)
    x = space.random_point(rng)
    eta = liecore.random_group_element(3, rng)
    lhs = x.conjugate(eta).momentum()
    rhs = eta @ x.momentum() @ eta.conj().T
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_empty_space_rejected():
    with pytest.raises(InvalidShape):
        moduli_space(0, 0, 2)


def test_embed_shift_lands_on_unit_level():
    rng = np.random.default_rng(1)
    u = moduli_space(1, 1, 2).random_point(rng)
    big = embed_shift(u)
    assert big.space.num_conj == 2
    assert np.linalg.norm(big.momentum() - np.eye(2)) <= 1e-12
    # equivariance of the embedding
    eta = liecore.random_group_element(2, rng)
    lhs = embed_shift(u.conjugate(eta))
    rhs = big.conjugate(eta)
    assert lhs.distance(rhs) <= 1e-10
    # a point already on the level set gets the identity appended
    x0 = moduli_point(moduli_space(1, 0, 2),
                      [(np.diag([1j, -1j]), np.eye(2, dtype=complex))], [])
    assert np.linalg.norm(embed_shift(x0).letter("c1") - np.eye(2)) < 1e-12


def test_sphere_family_generates_product_class_functions():
    space = sphere_space(2)
    fam = moduli.sphere_family()
    hams = moduli.hamiltonian_family(space, fam, DATUM2)
    assert len(hams) == DATUM2.rank
    rng = np.random.default_rng(2)
    x = space.random_point(rng)
    c1, c2, _ = x.factors
    for h in hams:
        assert h(x) == pytest.approx(h.classfn.value(c1 @ c2))


def test_genus2_family_blocks():
    space = moduli_space(2, 0, 2)
    fam = moduli.IntervalFamily(single=(2,), commutators=(1,))
    hams = moduli.hamiltonian_family(space, fam, DATUM2)
    blocks = {h.block for h in hams}
    assert blocks == {("single", 2), ("commutator", 1)}
    rng = np.random.default_rng(3)
    x = space.random_point(rng)
    for h in hams:
        if h.block == ("commutator", 1):
            a, b = x.pair(1)
            expect = a @ b @ a.conj().T @ b.conj().T
            assert np.linalg.norm(h.block_value(x) - expect) < 1e-12
        else:
            assert np.linalg.norm(h.block_value(x) - x.pair(2)[0]) < 1e-12


@pytest.mark.parametrize("family,message", [
    (moduli.IntervalFamily(intervals=((1, 3),)), "m0-proper"),
    (moduli.IntervalFamily(), "nonempty"),
    (moduli.IntervalFamily(intervals=((2, 2),)), "interval-bounds"),
    (moduli.IntervalFamily(intervals=((1, 2), (2, 3))), "interval-order"),
])
def test_sphere_shape_violations(family, message):
    space = moduli_space(0, 3, 2)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(space, family)
    assert message in str(err.value)


def test_more_assumption_clauses():
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(moduli_space(1, 0, 2),
                               moduli.IntervalFamily(commutators=(1,)))
    assert "m1n0-commutator" in str(err.value)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(moduli_space(2, 0, 2),
                               moduli.IntervalFamily(single=(1,), commutators=(1,)))
    assert "disjoint" in str(err.value)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(moduli_space(0, 2, 2),
                               moduli.IntervalFamily(intervals=((1, 2),)))
    assert "m0-size" in str(err.value)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(
            moduli_space(0, 5, 2),
            moduli.IntervalFamily(intervals=((1, 2),), nested=(((2, 3),),)))
    assert "nesting" in str(err.value)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(
            moduli_space(3, 1, 2),
            moduli.IntervalFamily(single=(2,), commutator_ranges=((1, 2),)))
    assert "commutator-range-disjoint" in str(err.value)
    with pytest.raises(AssumptionViolation) as err:
        moduli.validate_family(
            moduli_space(2, 1, 2),
            moduli.IntervalFamily(single=(2,), tails=((1, 1),)))
    assert "tail-start" in str(err.value)


def test_nested_and_extras_are_admissible():
    fam = moduli.IntervalFamily(
        single=(1,),
        intervals=((2, 3),),
        nested=(((1, 4),),),
        tails=(),
    )
    space = moduli_space(1, 4, 2)
    moduli.validate_family(space, fam)
    hams = moduli.hamiltonian_family(space, fam, DATUM2)
    assert {h.block for h in hams} == {("single", 1), ("interval", 2, 3), ("interval", 1, 4)}


def test_commutator_range_and_tail_blocks_admissible():
    fam = moduli.IntervalFamily(commutator_ranges=((1, 2),), tails=())
    space = moduli_space(2, 1, 2)
    moduli.validate_family(space, fam)
    fam2 = moduli.IntervalFamily(single=(1,), tails=((2, 1),))
    moduli.validate_family(moduli_space(2, 1, 2), fam2)
    rng = np.random.default_rng(4)
    x = moduli_space(2, 1, 2).random_point(rng)
    h = moduli.WordHamiltonian(("tail", 2, 1), ob.PowerTrace(1))
    a, b = x.pair(2)
    expect = a @ b @ a.conj().T @ b.conj().T @ x.letter("c1")
    assert np.linalg.norm(h.block_value(x) - expect) < 1e-12


def test_sphere_flow_matches_explicit_conjugation():
    rng = np.random.default_rng(5)
    space = sphere_space(2)
    x = space.random_point(rng)
    c1, c2, c3 = x.factors
    chi = ob.PowerTrace(2)
    h = moduli.WordHamiltonian(("interval", 1, 2), chi)
    tau = 0.8
    y = _one(moduli.moduli_flow(x, [h], tau))
    u = scipy.linalg.expm(tau * chi.grad(c1 @ c2))
    assert np.linalg.norm(y.factors[0] - u @ c1 @ u.conj().T) < 1e-12
    assert np.linalg.norm(y.factors[1] - u @ c2 @ u.conj().T) < 1e-12
    assert np.linalg.norm(y.factors[2] - c3) == 0.0


def test_block_value_conserved_along_own_flow():
    rng = np.random.default_rng(6)
    space = moduli_space(1, 2, 2)
    x = space.random_point(rng)
    for block in (("commutator", 1), ("interval", 1, 2), ("tail", 1, 1)):
        h = moduli.WordHamiltonian(block, ob.PowerTrace(2))
        v0 = h.block_value(x)
        y = _one(moduli.moduli_flow(x, [h], 1.4))
        assert np.linalg.norm(h.block_value(y) - v0) <= 1e-10


def test_single_block_flow_translates_partner():
    rng = np.random.default_rng(7)
    space = moduli_space(1, 1, 2)
    x = space.random_point(rng)
    chi = ob.PowerTrace(2)
    h = moduli.WordHamiltonian(("single", 1), chi)
    a, b = x.pair(1)
    y = _one(moduli.moduli_flow(x, [h], 0.6))
    assert np.linalg.norm(y.pair(1)[0] - a) == 0.0
    assert np.linalg.norm(y.pair(1)[1] - b @ scipy.linalg.expm(-0.6 * chi.grad(a))) < 1e-13
    assert np.linalg.norm(y.letter("c1") - x.letter("c1")) == 0.0


def test_momentum_conserved_along_all_family_flows():
    rng = np.random.default_rng(8)
    space = moduli_space(1, 3, 2)
    fam = moduli.IntervalFamily(single=(1,), intervals=((2, 3),))
    x = space.random_point(rng)
    hams = moduli.hamiltonian_family(space, fam, DATUM2)
    phi0 = x.momentum()
    for h in hams:
        y = _one(moduli.moduli_flow(x, [h], 0.9))
        assert np.linalg.norm(y.momentum() - phi0) <= 1e-10


def test_unsupported_word_block():
    with pytest.raises(UnsupportedWord):
        moduli.WordHamiltonian(("free-word", 1), ob.PowerTrace(1)).block_value(
            moduli_space(1, 1, 2).random_point(np.random.default_rng(0)))


def test_torus_action_zero_and_periodicity():
    rng = np.random.default_rng(9)
    space = sphere_space(3)
    fam = moduli.sphere_family()
    hams = moduli.hamiltonian_family(space, fam, DATUM3)
    x = space.random_point(rng)
    zero = np.zeros((1, DATUM3.rank))
    assert moduli.moduli_torus_action(x, zero, hams, DATUM3).distance(x) < 1e-13
    full = np.zeros((1, DATUM3.rank))
    full[0, 0] = 2 * np.pi
    assert moduli.moduli_torus_action(x, full, hams, DATUM3).distance(x) <= 1e-8


def test_permutation_identity_and_explicit_form():
    rng = np.random.default_rng(10)
    space = moduli_space(2, 2, 2)
    x = space.random_point(rng)
    assert moduli.permutation_pushforward(x, []).distance(x) == 0.0
    # moving the first hole before the second handle twists it by that momentum
    y = moduli.permutation_pushforward(x, [1])
    (a1, b1), (a2, b2) = x.pair(1), x.pair(2)
    c1, c2 = x.letter("c1"), x.letter("c2")
    phi2 = a2 @ b2 @ a2.conj().T @ b2.conj().T
    assert y.space.types == ("D", "K", "D", "K")
    assert np.linalg.norm(y.factors[0][0] - a1) == 0.0
    assert np.linalg.norm(y.factors[1] - phi2 @ c1 @ phi2.conj().T) < 1e-13
    assert np.linalg.norm(y.factors[2][0] - a2) == 0.0
    assert np.linalg.norm(y.factors[3] - c2) == 0.0


def test_permutation_preserves_brackets():
    rng = np.random.default_rng(11)
    space = moduli_space(2, 2, 2)
    plan = [1]
    worst = 0.0
    for _ in range(2):
        x = space.random_point(rng)
        y = moduli.permutation_pushforward(x, plan)
        f = ob.word_observable(("a2", "c1"))
        h = ob.word_observable(("c1", "b2", "c2"))
        v_target = brackets.fusion_bracket(f, h, y)
        v_source = brackets.fusion_bracket(
            moduli.pullback_hamiltonian(f, plan),
            moduli.pullback_hamiltonian(h, plan), x)
        worst = max(worst, abs(v_target - v_source))
    assert worst <= 1e-6


def test_invalid_plan_rejected():
    rng = np.random.default_rng(12)
    x = moduli_space(1, 1, 2).random_point(rng)
    with pytest.raises(InvalidPlan):
        moduli.permutation_pushforward(x, [5])
    with pytest.raises(InvalidPlan):
        moduli.permutation_pushforward(x, ["a"])


def test_sphere_constants_of_motion():
    """Word traces of (C1, C2), of (C1 C2, C3) and of C3 are constant along the flows of the
    interval [1, 2], which conjugate C1 and C2 together and fix C3."""
    rng = np.random.default_rng(13)
    space = sphere_space(2)
    x = space.random_point(rng)
    h = moduli.WordHamiltonian(("interval", 1, 2), ob.PowerTrace(2))
    constants = [ob.word_observable(w) for w in (
        ("c1",), ("c2",), ("c1", "c2"), ("c1", "c2", "c3"), ("c3",),
        ("c1", "c2", "c3", "c1", "c2"), ("c1", "c2", "c2"))]
    for tau in (0.3, 1.1, 2.4):
        y = _one(moduli.moduli_flow(x, [h], tau))
        for f in constants:
            assert abs(f(x) - f(y)) <= 1e-10, f.__name__


def test_nested_flows_commute_with_inner():
    rng = np.random.default_rng(14)
    space = moduli_space(0, 4, 2)
    fam = moduli.IntervalFamily(intervals=((1, 2),), nested=(((1, 3),),))
    hams = moduli.hamiltonian_family(space, fam, DATUM2)
    x = space.random_point(rng)
    inner = [h for h in hams if h.block == ("interval", 1, 2)][0]
    outer = [h for h in hams if h.block == ("interval", 1, 3)][0]
    a = _one(moduli.moduli_flow(_one(moduli.moduli_flow(x, [inner], 0.3)), [outer], 0.7))
    b = _one(moduli.moduli_flow(_one(moduli.moduli_flow(x, [outer], 0.7)), [inner], 0.3))
    assert a.distance(b) <= 1e-8
    assert abs(brackets.fusion_bracket(inner, outer, x)) <= 1e-6
