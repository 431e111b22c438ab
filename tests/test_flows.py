import numpy as np
import scipy.linalg

from sunflows import brackets, decomp, flows, liecore, observables as ob
from sunflows.spaces import (
    CotangentPoint,
    cotangent_momentum,
    double_space,
    heisenberg_momentum,
    random_cotangent_point,
    random_heisenberg_point,
)


def _one(point):
    """The flowed point of a one-generator run, its generator axis dropped."""
    return point.map(lambda m: m[0])


def _regular_cotangent(rng, n=3):
    while True:
        x = random_cotangent_point(n, rng)
        try:
            decomp.alcove_diagonalize(x.g, 0.05)
            decomp.chamber_diagonalize(x.j, 0.05)
            return x
        except Exception:
            continue


def test_zero_time_is_identity():
    rng = np.random.default_rng(0)
    x = _regular_cotangent(rng)
    datum = liecore.build_root_datum(3)
    for ham in (ob.AlgebraPower(2), ob.PowerTrace(2), ob.ChamberCoroot(0, datum)):
        y = _one(flows.cotangent_flow(x, [ham], 0.0))
        assert x.distance(y) < 1e-13
    xh = random_heisenberg_point(3, rng)
    assert xh.distance(_one(flows.heisenberg_flow(xh, [ob.BorelPower(1)], 0.0))) < 1e-13


def test_cotangent_chamber_flow_matches_torus_translation():
    # the coroot chamber flow is the frame-conjugated torus translation
    rng = np.random.default_rng(1)
    datum = liecore.build_root_datum(3)
    x = _regular_cotangent(rng)
    tau = 0.7
    ham = ob.ChamberCoroot(1, datum)
    moved = _one(flows.cotangent_flow(x, [ham], tau))
    frame = decomp.chamber_diagonalize(x.j).frame
    t = frame.conj().T @ scipy.linalg.expm(-1j * tau * datum.coroots[1]) @ frame
    assert np.linalg.norm(moved.g - t @ x.g) < 1e-12
    e = np.zeros(datum.rank)
    e[1] = tau
    via_action = flows.cotangent_torus_action(x, e, "chamber", datum)
    assert moved.distance(via_action) < 1e-12


def test_cotangent_momentum_and_remark_pairs_conserved():
    rng = np.random.default_rng(2)
    datum = liecore.build_root_datum(3)
    x = _regular_cotangent(rng)
    phi0 = cotangent_momentum(x)
    for ham in (ob.AlgebraPower(2), ob.ChamberCoroot(0, datum)):
        y = _one(flows.cotangent_flow(x, [ham], 1.3))
        assert np.linalg.norm(cotangent_momentum(y) - phi0) <= 1e-10
        pair0 = x.g.conj().T @ x.j @ x.g
        pair1 = y.g.conj().T @ y.j @ y.g
        assert np.linalg.norm(pair1 - pair0) <= 1e-10
        assert np.linalg.norm(y.j - x.j) <= 1e-12
    for ham in (ob.PowerTrace(2), ob.AlcoveCoroot(0, datum)):
        y = _one(flows.cotangent_flow(x, [ham], 1.3))
        assert np.linalg.norm(cotangent_momentum(y) - phi0) <= 1e-10
        assert np.linalg.norm(y.g - x.g) <= 1e-12


def test_heisenberg_conserved_quantities():
    rng = np.random.default_rng(3)
    datum = liecore.build_root_datum(2)
    x = random_heisenberg_point(2, rng)
    f0 = decomp.iwasawa_decompose(x.x)
    lam0 = heisenberg_momentum(x)
    for ham in (ob.BorelPower(1), ob.BorelChamberCoroot(0, datum)):
        y = _one(flows.heisenberg_flow(x, [ham], 0.9))
        f1 = decomp.iwasawa_decompose(y.x)
        assert np.linalg.norm(f1.b_right - f0.b_right) <= 1e-10
        assert np.linalg.norm(heisenberg_momentum(y) - lam0) <= 1e-10
        pos0 = decomp.posdef_of_borel(f0.b_right)
        conj0 = f0.u_right.conj().T @ pos0 @ f0.u_right
        pos1 = decomp.posdef_of_borel(f1.b_right)
        conj1 = f1.u_right.conj().T @ pos1 @ f1.u_right
        assert np.linalg.norm(pos1 - pos0) <= 1e-10
        assert np.linalg.norm(conj1 - conj0) <= 1e-10


def test_heisenberg_unitary_factor_conjugation_law():
    rng = np.random.default_rng(4)
    datum = liecore.build_root_datum(2)
    x = random_heisenberg_point(2, rng)
    u0 = x.factor("u_right")
    for tau in (0.4, 1.5):
        ham = ob.AlcoveCoroot(0, datum)
        y = _one(flows.heisenberg_flow(x, [ham], tau))
        gamma = flows.heisenberg_class_flow(x, [ham], tau)[1][0]
        assert np.linalg.norm(y.factor("u_right") - gamma @ u0 @ gamma.conj().T) <= 1e-9


def test_heisenberg_torus_matches_flows_and_periodicity():
    rng = np.random.default_rng(5)
    datum = liecore.build_root_datum(2)
    x = random_heisenberg_point(2, rng)
    tau = np.array([0.8])
    via_action = flows.heisenberg_torus_action(x, tau, "dress", datum)
    via_flow = _one(flows.heisenberg_flow(x, [ob.BorelChamberCoroot(0, datum)], 0.8))
    assert via_action.distance(via_flow) <= 1e-8
    full = flows.heisenberg_torus_action(x, np.array([2 * np.pi]), "dress", datum)
    assert full.distance(x) <= 1e-8
    # the Borel translation direction is proper but not periodic
    trans = flows.heisenberg_torus_action(x, np.array([2 * np.pi]), "translate", datum)
    assert trans.distance(x) > 1e-2
    via_flow = _one(flows.heisenberg_flow(x, [ob.AlcoveCoroot(0, datum)], -0.6))
    via_action = flows.heisenberg_torus_action(x, np.array([-0.6]), "translate", datum)
    assert via_action.distance(via_flow) <= 1e-8


def test_double_flows_and_actions():
    rng = np.random.default_rng(6)
    datum = liecore.build_root_datum(2)
    x = double_space(2).random_point(rng)
    ham = ob.AlcoveCoroot(0, datum)
    via_flow = _one(flows.double_flow(x, [ham], 0.5, "first"))
    via_action = flows.double_torus_action(x, np.array([0.5]), "first", datum)
    assert via_flow.distance(via_action) <= 1e-9
    full = flows.double_torus_action(x, np.array([2 * np.pi]), "second", datum)
    assert full.distance(x) <= 1e-8
    phi0 = x.momentum()
    for slot in ("first", "second", "momentum"):
        y = _one(flows.double_flow(x, [ob.PowerTrace(2)], 1.1, slot))
        assert np.linalg.norm(y.momentum() - phi0) <= 1e-10


def test_double_flow_constant_pairs():
    rng = np.random.default_rng(7)
    x = double_space(3).random_point(rng)
    a0, b0 = x.pair(1)
    y = _one(flows.double_flow(x, [ob.PowerTrace(2)], 0.8, "first"))
    a1, b1 = y.pair(1)
    assert np.linalg.norm(a1 - a0) < 1e-12
    assert np.linalg.norm(b1 @ a1 @ b1.conj().T - b0 @ a0 @ b0.conj().T) <= 1e-10
    y = _one(flows.double_flow(x, [ob.PowerTrace(2)], 0.8, "second"))
    a2, b2 = y.pair(1)
    assert np.linalg.norm(b2 - b0) < 1e-12
    assert np.linalg.norm(a2 @ b2 @ a2.conj().T - a0 @ b0 @ a0.conj().T) <= 1e-10


def test_flow_equivariance_under_symmetry():
    rng = np.random.default_rng(8)
    datum = liecore.build_root_datum(2)
    eta = liecore.random_group_element(2, rng)
    x = _regular_cotangent(rng, 2)
    for ham in (ob.AlgebraPower(2), ob.PowerTrace(2)):
        a = _one(flows.cotangent_flow(x.conjugate(eta), [ham], 0.6))
        b = _one(flows.cotangent_flow(x, [ham], 0.6)).conjugate(eta)
        assert a.distance(b) <= 1e-9
    xh = random_heisenberg_point(2, rng)
    for ham in (ob.BorelPower(1), ob.PowerTrace(2)):
        a = _one(flows.heisenberg_flow(xh.conjugate(eta), [ham], 0.6))
        b = _one(flows.heisenberg_flow(xh, [ham], 0.6)).conjugate(eta)
        assert a.distance(b) <= 1e-9


def test_s_transform_values():
    rng = np.random.default_rng(9)
    a = liecore.random_group_element(2, rng)
    s1, s2 = flows.s_transform(a, np.eye(2, dtype=complex))
    assert np.linalg.norm(s1 - np.eye(2)) < 1e-14
    assert np.linalg.norm(s2 - a) < 1e-14
    b = liecore.random_group_element(2, rng)
    s1, s2 = flows.s_transform(a, b)
    assert np.linalg.norm(s1 - b.conj().T) < 1e-14
    # frozen 2x2 case: conjugating diag(i,-i) by the shift representative
    a = np.diag([1j, -1j])
    b = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    s1, s2 = flows.s_transform(a, b)
    assert np.allclose(s1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(s2, np.diag([-1j, 1j]))


def test_cotangent_translation_action_additivity():
    rng = np.random.default_rng(10)
    datum = liecore.build_root_datum(3)
    x = _regular_cotangent(rng)
    t1 = np.array([0.3, -0.4])
    t2 = np.array([0.9, 0.2])
    a = flows.cotangent_torus_action(
        flows.cotangent_torus_action(x, t1, "translate", datum), t2, "translate", datum)
    b = flows.cotangent_torus_action(x, t1 + t2, "translate", datum)
    assert a.distance(b) <= 1e-9


def test_rk4_bracket_flow_cross_checks_exact_flow():
    rng = np.random.default_rng(12)
    x = double_space(2).random_point(rng)
    ham = ob.PowerTrace(2)
    h_obs = ob.WordFunction(ham, ("a1",))
    tau = 0.25
    exact = _one(flows.double_flow(x, [ham], tau, "first"))
    numeric = flows.rk4_bracket_flow(x, h_obs, tau, steps=12)
    assert exact.distance(numeric) <= 2e-5


def test_rk4_bracket_flow_brackets_exact_tables(monkeypatch):
    """With a tabled Hamiltonian the oracle's vector field builds no finite-difference table:
    the matrix entries are exact ``entry_observable``s, and Re tr(A A) is a word trace."""
    def refuse(*args):
        raise AssertionError("rk4_bracket_flow built a finite-difference table")

    monkeypatch.setattr(brackets, "_fd_tables", refuse)
    x = double_space(2).random_point(np.random.default_rng(12))
    tau = 0.25
    exact = _one(flows.double_flow(x, [ob.PowerTrace(2)], tau, "first"))
    numeric = flows.rk4_bracket_flow(x, ob.word_observable(("a1", "a1")), tau, steps=12)
    assert exact.distance(numeric) <= 2e-5


def test_unitarity_drift_triggers_logged_reprojection(caplog):
    import logging
    rng = np.random.default_rng(14)
    x = _regular_cotangent(rng, 2)
    drifted = CotangentPoint(x.g * (1.0 + 1e-6), x.j)
    with caplog.at_level(logging.WARNING, logger="sunflows.flows"):
        moved = _one(flows.cotangent_flow(drifted, [ob.AlgebraPower(2)], 0.3))
    assert any("re-projecting" in rec.message for rec in caplog.records)
    assert liecore.unitarity_defect(moved.g) <= 1e-10
