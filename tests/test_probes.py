import numpy as np
import pytest
import scipy.linalg

from curve_stencils import (assert_columns_close, conjugation_curves, fd_observable, per_time,
                            stencil_generator_matrix, torus_curves)
from sunflows import brackets, flows, harness, liecore, moduli, probes
from sunflows.errors import RegularityViolation, ShapeError, Unsupported
from sunflows.observables import AlcoveCoroot
from sunflows.spaces import (CotangentPoint, FusionPoint, HeisenbergPoint, double_space,
                             moduli_point)


def test_conjugation_stabilizer_of_regular_torus_point():
    # the diagonal torus fixes a regular diagonal element: kernel dim = rank
    n = 2
    g = np.diag([np.exp(0.7j), np.exp(-0.7j)])
    x = moduli_point(double_space(n), [(g, g)], [])

    # conjugation action on a single group letter through the fusion wrapper
    action = probes.conjugation_action(n)
    rep = probes.stabilizer_dimension(x, action, n, "diag-double")
    assert rep.infinitesimal_dim == 1
    assert rep.center_fixes


class _FlatPoint:
    """A stand-in point whose velocities are already tangent vectors (key "columns", one row
    per generator), fixed by conjugation and by adding a generator axis."""

    def map(self, fn):
        return self

    def tangent(self, v):
        return v["columns"]

    def conjugate(self, eta):
        return self

    def distance(self, other):
        return 0.0


def test_a_singular_value_at_the_kernel_tolerance_is_counted_once():
    """The kernel dimension and the rank read one rule, so they sum to the number of
    columns even when a singular value equals SVD_KERNEL_TOL."""
    tol = probes.SVD_KERNEL_TOL
    columns = np.diag([1.0, tol, 0.0])
    action = [lambda p: {"columns": columns.T}]  # three generators
    mat = probes.generator_matrix(_FlatPoint(), action)
    assert np.array_equal(mat, columns)
    rank, svals = probes.rank_of(mat)
    assert tol in svals
    rep = probes.stabilizer_dimension(_FlatPoint(), action, 2)
    assert rep.infinitesimal_dim + rank == len(columns)
    assert rep.infinitesimal_dim == 2
    assert np.array_equal(rep.singular_values, svals)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", probes.PRINCIPAL_POINT_KEYS)
def test_crafted_points_have_trivial_combined_stabilizer(key, n):
    datum = liecore.build_root_datum(n)
    rng = np.random.default_rng(hash((key, n)) % (2**32))
    pp = probes.principal_test_point(key, n, datum, rng)
    rep = probes.stabilizer_dimension(pp.point, pp.action, n, key)
    assert rep.infinitesimal_dim == 0, (key, rep.singular_values)
    assert rep.center_fixes
    assert rep.singular_values.min() > 1e-3


def _old_torus_curves(act, mode, datum):
    """The former ``probes._torus_curves``: one curve per rank direction."""
    def make(j):
        e = np.zeros(datum.rank)
        e[j] = 1.0
        return lambda p, t: act(p, t * e, mode, datum)
    return [make(j) for j in range(datum.rank)]


def _old_family_curves(datum, hams):
    """The former ``probes.torus_curves_family``: one curve per block and direction."""
    blocks = []
    for h in hams:
        if h.block not in blocks:
            blocks.append(h.block)

    def make(bi, j):
        def curve(p, t):
            taus = np.zeros((len(blocks), datum.rank))
            taus[bi, j] = t
            return moduli.moduli_torus_action(p, taus, hams, datum)
        return curve
    return [make(bi, j) for bi in range(len(blocks)) for j in range(datum.rank)]


OLD_TORUS = {
    "cotangent-compact-torus": (flows.cotangent_torus_action, "chamber"),
    "cotangent-line-action": (flows.cotangent_torus_action, "translate"),
    "heisenberg-compact-torus": (flows.heisenberg_torus_action, "dress"),
    "heisenberg-line-action": (flows.heisenberg_torus_action, "translate"),
    "double-first-family": (flows.double_torus_action, "first"),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("key", probes.PRINCIPAL_POINT_KEYS)
def test_crafted_generator_matrix_matches_a_stencil_of_the_old_curves(key, n):
    """The velocity columns against the former stencil matrix of the symmetry and torus curves."""
    datum = liecore.build_root_datum(n)
    pp = probes.principal_test_point(key, n, datum, np.random.default_rng(5))
    if key in OLD_TORUS:
        torus = _old_torus_curves(*OLD_TORUS[key], datum)
    else:
        torus = _old_family_curves(datum, pp.family)
    assert pp.torus_dim == len(torus)
    assert_columns_close(probes.generator_matrix(pp.point, pp.action),
                         stencil_generator_matrix(pp.point, conjugation_curves(n) + torus))


HARNESSES = [
    dict(space="cotangent"), dict(space="heisenberg"), dict(space="double", family="h"),
    dict(space="double", family="htilde"), dict(space="sphere4"),
    dict(space="moduli", m=2, holes=2,
         family={"single": [1], "commutators": [2], "intervals": [[1, 2]]}),
]


def _harness_id(kw):
    return kw["space"] + str(kw.get("family", "")).replace(" ", "")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kw", HARNESSES, ids=_harness_id)
def test_harness_generator_matrices_match_stencils_of_the_actions(kw, n):
    """Every harness TorusSpec's velocities, and the symmetry action's, at sampled points."""
    h = harness.build_harness(n=n, datum=liecore.build_root_datum(n), **kw)
    x = h.sample(np.random.default_rng(80 + n))
    sym = probes.conjugation_action(n)
    assert_columns_close(probes.generator_matrix(x, sym),
                         stencil_generator_matrix(x, conjugation_curves(n)))
    for spec in h.torus_specs():
        action = [run.velocity for run in harness.runs(spec.generators)]
        assert_columns_close(probes.generator_matrix(x, action),
                             stencil_generator_matrix(x, torus_curves(spec)))


def test_unknown_crafted_key():
    with pytest.raises(Unsupported):
        probes.principal_test_point("no-such-point", 2, liecore.build_root_datum(2),
                                    np.random.default_rng(0))


def test_commutator_identity_small_cases():
    # rank-one case: the Coxeter element negates, so the preimage is -h/2
    h = np.array([0.8, -0.8])
    assert probes.commutator_identity_residual(h, 2) <= 1e-12
    assert probes.commutator_identity_residual(np.zeros(3), 3) <= 1e-14
    with pytest.raises(ShapeError):
        probes.commutator_identity_residual(np.array([1.0, 1.0]), 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_identity_random(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        h = rng.uniform(-2.5, 2.5, n)
        h -= h.mean()
        assert probes.commutator_identity_residual(h, n) <= 1e-10


def test_commutator_solve_values():
    # the zero target gives a commuting pair
    a, b = probes.commutator_solve(np.zeros(3), 3)
    assert np.linalg.norm(a @ b - b @ a) <= 1e-12
    # rank one: the diagonal solution is exp(-i xi / 2)
    xi = np.array([0.9, -0.9])
    a, b = probes.commutator_solve(xi, 2)
    assert np.allclose(b, np.diag(np.exp(-1j * xi / 2)))
    comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    assert np.linalg.norm(comm - np.diag(np.exp(1j * xi))) <= 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_commutator_solve_random_targets(n):
    rng = np.random.default_rng(n + 10)
    for _ in range(5):
        xi = liecore.gapped_spectrum(n, rng, probes.ALCOVE_MARGIN)
        for a, b in (probes.commutator_solve(xi, n),
                     probes.solve_commutator_in_torus(xi, n)):
            comm = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
            assert np.linalg.norm(comm - np.diag(np.exp(1j * xi))) <= 1e-10


def test_rank_report_at_crafted_points():
    n = 2
    datum = liecore.build_root_datum(n)
    rng = np.random.default_rng(5)
    def ranks(pp, n):
        """Ranks of the torus generators, of the symmetry orbit and of the family differentials."""
        symmetry, torus = pp.action[:1], pp.action[1:]  # the su(n) basis in one velocity
        return (probes.rank_of(probes.generator_matrix(pp.point, torus))[0],
                probes.rank_of(probes.generator_matrix(pp.point, symmetry))[0],
                probes.rank_of(probes.differential_matrix(pp.point, pp.family))[0]
                if pp.family else 0)

    pp = probes.principal_test_point("double-first-family", n, datum, rng)
    torus_rank, symmetry_rank, _ = ranks(pp, n)
    assert torus_rank == pp.torus_dim == datum.rank
    # symmetry orbit rank at a principal point: dim K minus center (= dim K here)
    assert symmetry_rank == n * n - 1

    pp = probes.principal_test_point("cotangent-compact-torus", 3,
                                     liecore.build_root_datum(3),
                                     np.random.default_rng(6))
    assert ranks(pp, 3)[0] == 2

    pp = probes.principal_test_point("sphere-adjoint-torus", n, datum, rng)
    torus_rank, _, differential_rank = ranks(pp, n)
    probe_rank, _ = probes.rank_of(probes.differential_matrix(pp.point, [
        fd_observable(lambda p: float(np.trace(p.letter("c1")).real)),
        fd_observable(lambda p: float(np.trace(p.letter("c1") @ p.letter("c2")).real)),
    ]))
    assert torus_rank == pp.torus_dim == datum.rank
    assert differential_rank == datum.rank
    assert probe_rank >= 1


def test_irregular_argument_raises():
    datum = liecore.build_root_datum(2)
    with pytest.raises(RegularityViolation):
        AlcoveCoroot(0, datum).grad(np.eye(2, dtype=complex))


def test_torus_displacement_at_crafted_points():
    n = 2
    datum = liecore.build_root_datum(n)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pp = probes.principal_test_point("sphere-adjoint-torus", n, datum, rng)
        tau = rng.uniform(0.1, 2 * np.pi - 0.1, pp.torus_dim)
        moved = harness.family_torus(pp.family, datum).act(pp.point,
                                                           tau[0] * np.eye(pp.torus_dim)[0])
        assert moved.distance(pp.point) >= 1e-4


def _old_tangent_curves(x):
    """The former ``probes.tangent_basis_curves``: one ``expm`` per stencil offset."""
    basis = liecore.su_basis(x.n)
    if isinstance(x, CotangentPoint):
        return ([lambda p, t, z=z: CotangentPoint(scipy.linalg.expm(t * z) @ p.g, p.j)
                 for z in basis]
                + [lambda p, t, z=z: CotangentPoint(p.g, p.j + t * z) for z in basis])
    if isinstance(x, HeisenbergPoint):
        return [lambda p, t, z=z: HeisenbergPoint(scipy.linalg.expm(t * z) @ p.x)
                for z in liecore.sl_real_basis(x.n)]
    return [lambda p, t, slot=slot, z=z:
            p.with_slots({slot: scipy.linalg.expm(t * z) @ p.slot(*slot)})
            for slot in x.space.slots for z in basis]


def _old_differential_matrix(x, functions):
    """The differentials along the old ``expm`` curves, Richardson-extrapolated so that the
    reference is closer to the exact tables than the plain h^4 error."""
    values = lambda p: np.array([fn(p) for fn in functions])
    cols = [brackets.directional_derivative(*per_time(values, lambda t, c=curve: c(x, t)),
                                            richardson=True)
            for curve in _old_tangent_curves(x)]
    return np.stack(cols, axis=1)


def _assert_same_rank(x, functions):
    new, old = probes.differential_matrix(x, functions), _old_differential_matrix(x, functions)
    assert new.shape == old.shape
    assert probes.rank_of(new)[0] == probes.rank_of(old)[0]
    assert np.allclose(new, old, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kw", HARNESSES, ids=_harness_id)
def test_differential_matrix_rank_equals_the_old_expm_curves_at_harness_points(kw, n):
    h = harness.build_harness(n=n, datum=liecore.build_root_datum(n), **kw)
    rng = np.random.default_rng(70 + n)
    fns = [g.obs for fam in h.families().values() for g in fam]
    for _ in range(2):
        x = h.sample(rng)
        _assert_same_rank(x, fns)
        _assert_same_rank(x, h.probes())


CRAFTED_PROBES = {CotangentPoint: "cotangent", HeisenbergPoint: "heisenberg",
                  FusionPoint: "double"}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", probes.PRINCIPAL_POINT_KEYS)
def test_differential_matrix_rank_equals_the_old_expm_curves_at_crafted_points(key, n):
    datum = liecore.build_root_datum(n)
    pp = probes.principal_test_point(key, n, datum, np.random.default_rng(5))
    fns = pp.family or harness.build_harness(
        CRAFTED_PROBES[type(pp.point)], n, datum).probes()
    _assert_same_rank(pp.point, fns)
