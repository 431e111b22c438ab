from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sunflows import decomp, liecore, probes, scenario
from sunflows.errors import DegenerateBasis, InvalidRank, ShapeError


def _is_special_unitary(u, tol=1e-10):
    return liecore.unitarity_defect(u) <= tol and abs(np.linalg.det(u) - 1.0) <= tol


def _is_algebra_element(z, tol=1e-10):
    """Anti-Hermitian and traceless to tolerance."""
    return np.linalg.norm(z + z.conj().T) <= tol and abs(np.trace(z)) <= tol


def test_coroot_su2_is_forced():
    datum = liecore.build_root_datum(2)
    assert np.allclose(datum.coroots[0], np.diag([1.0, -1.0]))


def test_coweight_su2_solves_defining_equations():
    # independently: alpha_1(w) = w_1 - w_2 = 1 and w_1 + w_2 = 0 force (1/2, -1/2)
    datum = liecore.build_root_datum(2)
    w = np.real(np.diag(datum.coweights[0]))
    assert abs((w[0] - w[1]) - 1.0) < 1e-15
    assert abs(w.sum()) < 1e-15
    assert np.allclose(w, [0.5, -0.5])


def test_q_matrix_su3_frozen():
    from fractions import Fraction
    datum = liecore.build_root_datum(3)
    assert datum.q_exact == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_q_inverts_transposed_cartan_exactly(n):
    datum = liecore.build_root_datum(n)
    r = datum.rank
    for j in range(r):
        for l in range(r):
            s = sum(datum.q_exact[j][k] * int(datum.cartan[k][l]) for k in range(r))
            assert s == (1 if j == l else 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_coweights_dual_to_simple_roots(n):
    datum = liecore.build_root_datum(n)
    for j, w in enumerate(datum.coweights):
        vals = decomp.coroot_values(np.real(np.diag(w)))
        expect = np.eye(datum.rank)[j]
        assert np.array_equal(vals, expect) or np.max(np.abs(vals - expect)) == 0.0


def test_coweights_expand_over_coroots():
    datum = liecore.build_root_datum(4)
    for j, w in enumerate(datum.coweights):
        recon = sum(float(datum.q_exact[j][k]) * datum.coroots[k]
                    for k in range(datum.rank))
        assert np.allclose(recon, w, atol=1e-14)


def test_build_root_datum_rejects_small_rank():
    with pytest.raises(InvalidRank):
        liecore.build_root_datum(1)


def test_trace_pairing_of_coroot():
    datum = liecore.build_root_datum(2)
    assert liecore.pair(datum.coroots[0], datum.coroots[0]) == pytest.approx(2.0)


def test_pairing_symmetry_and_shape_error():
    rng = np.random.default_rng(0)
    x = liecore.random_algebra_element(3, rng)
    y = liecore.random_algebra_element(3, rng)
    assert liecore.pair(x, y) == pytest.approx(liecore.pair(y, x), abs=1e-14)
    for left, right in ((x, np.eye(2, dtype=complex)), (x[0], y[0]),
                        (np.stack([x[:2, :2]] * 2), np.stack([y[:2, :2]] * 2))):
        with pytest.raises(ShapeError):
            liecore.pair(left, right)


def test_im_pairing_vanishes_on_real_trace():
    # anti-Hermitian arguments have real product trace
    rng = np.random.default_rng(1)
    z = liecore.random_algebra_element(3, rng)
    assert liecore.pair(z, z, liecore.IM_FORM) == pytest.approx(0.0, abs=1e-14)


def test_dual_of_negative_orthonormal_basis_is_negated():
    # su(2) basis scaled so each vector has trace-form square -1
    basis = [b / np.sqrt(abs(liecore.pair(b, b))) for b in liecore.su_basis(2)]
    dual = liecore.dual_basis(basis)
    for b, d in zip(basis, dual):
        assert np.allclose(d, -b, atol=1e-12)


def test_dual_basis_delta_property_all_bases():
    for n, pairing, basis in [
        (2, liecore.TRACE_FORM, liecore.su_basis(2)),
        (3, liecore.TRACE_FORM, liecore.su_basis(3)),
        (2, liecore.IM_FORM, liecore.sl_real_basis(2)),
    ]:
        dual = liecore.dual_basis(basis, pairing)
        for a in range(len(basis)):
            for b in range(len(basis)):
                v = liecore.pair(basis[a], dual[b], pairing)
                assert abs(v - (1.0 if a == b else 0.0)) < 1e-12


def test_realified_duals_reproduce_expansions():
    # an arbitrary realified element is recovered from its im-form coefficients
    rng = np.random.default_rng(2)
    basis = liecore.sl_real_basis(2)
    dual = liecore.dual_basis(basis, liecore.IM_FORM)
    z = sum(rng.standard_normal() * b for b in basis)
    recon = sum(liecore.pair(z, dual[a], liecore.IM_FORM) * basis[a]
                for a in range(len(basis)))
    assert np.linalg.norm(recon - z) < 1e-12


def test_dual_basis_rejects_degenerate_span():
    basis = liecore.su_basis(2)
    with pytest.raises(DegenerateBasis):
        liecore.dual_basis([basis[0], basis[0]])


def test_special_elements_su2_frozen():
    spec = liecore.special_elements(2)
    assert np.allclose(spec.coxeter_rep, np.array([[0.0, -1.0], [1.0, 0.0]]))
    # conjugation flips the coroot direction
    h = np.diag([1.0, -1.0]).astype(complex)
    flipped = spec.coxeter_rep @ h @ spec.coxeter_rep.conj().T
    assert np.allclose(flipped, -h)
    assert np.allclose(spec.principal, np.diag([1j, -1j]))
    assert spec.coxeter_number == 2
    assert np.allclose(spec.rho_coweight, np.diag([0.5, -0.5]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_special_elements_invariants(n):
    spec = liecore.special_elements(n)
    assert _is_special_unitary(spec.coxeter_rep)
    assert _is_special_unitary(spec.principal)
    assert _is_special_unitary(spec.apposition_conjugator, tol=1e-9)
    # the Coxeter representative normalizes the diagonal torus
    d = np.diag(np.arange(n, dtype=float)) + 0j
    d -= np.trace(d) / n * np.eye(n)
    conj = spec.coxeter_rep @ d @ spec.coxeter_rep.conj().T
    assert np.linalg.norm(conj - np.diag(np.diag(conj))) < 1e-12
    assert np.allclose(np.sort(np.real(np.diag(conj))), np.sort(np.real(np.diag(d))))
    # the principal element is a regular torus element
    phases = np.angle(np.diag(spec.principal))
    assert len(np.unique(np.round(phases, 9))) == n
    # center elements commute with everything
    rng = np.random.default_rng(n)
    g = liecore.random_group_element(n, rng)
    for z in spec.center:
        assert np.linalg.norm(z @ g @ z.conj().T - g) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_special_elements_are_built_once_with_read_only_arrays(n):
    spec = liecore.special_elements(n)
    assert liecore.special_elements(n) is spec
    for a in (spec.coxeter_rep, spec.principal, spec.rho_coweight, spec.apposition_conjugator,
              *spec.center):
        with pytest.raises(ValueError):
            a[0, 0] = 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_algebras_orthogonal(n):
    spec = liecore.special_elements(n)
    for j in range(n - 1):
        d1 = np.zeros(n)
        d1[j], d1[j + 1] = 1.0, -1.0
        for k in range(n - 1):
            d2 = np.zeros(n)
            d2[k], d2[k + 1] = 1.0, -1.0
            t2 = liecore.apposition_algebra_element(d2, spec)
            assert abs(liecore.pair(1j * np.diag(d1), t2)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_intersection_is_center(n):
    # sampled pairs of torus elements that coincide must be central
    spec = liecore.special_elements(n)
    rng = np.random.default_rng(n * 11)
    for _ in range(200):
        t = liecore.diagonal_torus_element(rng.uniform(0, 2 * np.pi, n))
        tp = liecore.apposition_torus_element(rng.uniform(0, 2 * np.pi, n), spec)
        if np.linalg.norm(t - tp) <= 1e-8:
            assert min(np.linalg.norm(t - z) for z in spec.center) <= 1e-8


def test_center_elements_fix_points_under_conjugation():
    spec = liecore.special_elements(3)
    rng = np.random.default_rng(5)
    g = liecore.random_group_element(3, rng)
    for z in spec.center:
        assert np.linalg.norm(z @ g @ np.linalg.inv(z) - g) < 1e-13


def test_projections_split_realified_algebra():
    rng = np.random.default_rng(4)
    n = 3
    z = np.zeros((n, n), dtype=complex)
    for b in liecore.sl_real_basis(n):
        z += rng.standard_normal() * b
    k_part = liecore.project_compact(z)
    b_part = liecore.project_borel(z)
    assert np.linalg.norm(k_part + b_part - z) < 1e-13
    assert _is_algebra_element(k_part, tol=1e-10)
    assert np.linalg.norm(np.tril(b_part, -1)) < 1e-13
    assert np.linalg.norm(np.imag(np.diag(b_part))) < 1e-13


def test_random_elements_land_in_their_sets():
    rng = np.random.default_rng(6)
    g = liecore.random_group_element(4, rng)
    assert _is_special_unitary(g, tol=1e-9)
    z = liecore.random_algebra_element(4, rng)
    assert _is_algebra_element(z)
    x = liecore.random_sl_element(4, rng)
    assert abs(np.linalg.det(x) - 1.0) < 1e-9
    assert _is_special_unitary(liecore.haar_unitary(4, rng))


# the (floor, total) of every caller: gradient-oracles, the crafted alcove points and
# commutator-solve targets, and the crafted algebra and Borel chamber vectors
_GAPPED_FLOORS = [(scenario.ORACLE_FLOOR, 2 * np.pi), (probes.ALCOVE_MARGIN, 2 * np.pi),
                  (0.2, 3.0), (0.2, 2.4)]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("floor, total", _GAPPED_FLOORS)
def test_gapped_spectrum_clears_every_wall_by_its_floor(floor, total, n):
    """A zero-sum decreasing vector whose gaps and slack total - (xi_1 - xi_n) are each at
    least ``floor``, up to the roundoff of the cumulative sums."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        xi = liecore.gapped_spectrum(n, rng, floor, total)
        assert xi.shape == (n,)
        assert abs(xi.sum()) <= 1e-12
        gaps = np.append(xi[:-1] - xi[1:], total - (xi[0] - xi[-1]))
        assert np.all(gaps >= floor - 1e-12), gaps


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_coweights_solve_defining_equations(n):
    from fractions import Fraction
    datum = liecore.build_root_datum(n)
    for j, w in enumerate(datum.coweights_exact):
        assert sum(w) == 0
        for k in range(datum.rank):
            assert w[k] - w[k + 1] == (1 if k == j else 0)
        assert np.allclose([float(v) for v in w], np.real(np.diag(datum.coweights[j])))


# ---------------------------------------------------------------------------
# the per-n constants: stacked, and bit for bit the per-pair and per-term formulas
# ---------------------------------------------------------------------------

_BASES = {"su": liecore.su_basis, "sl": liecore.sl_real_basis, "borel": liecore.borel_basis}


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", sorted(_BASES))
def test_gram_is_pair_on_the_bases(kind, n):
    """On the su, realified sl and Borel bases, under both forms, ``gram`` of a stack and
    of one row of it are ``pair`` entry by entry."""
    basis = np.array(_BASES[kind](n))
    for form in (liecore.TRACE_FORM, liecore.IM_FORM):
        want = np.array([[liecore.pair(a, b, form) for b in basis] for a in basis])
        assert liecore.gram(basis, basis, form).tobytes() == want.tobytes()
        for a, row in zip(basis, want):
            assert liecore.gram(a, basis, form).tobytes() == row.tobytes()


def _dual_basis_loops(basis, pairing):
    """``dual_basis`` as it was written with a double loop of ``pair``: the reference."""
    k = len(basis)
    gram = np.array([[liecore.pair(basis[a], basis[b], pairing) for b in range(k)]
                     for a in range(k)])
    ginv = np.linalg.inv(gram)
    return [sum(ginv[a, b] * basis[b] for b in range(k)) for a in range(k)]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind, form", [("su", liecore.TRACE_FORM), ("sl", liecore.IM_FORM)])
def test_dual_basis_is_the_double_loop_bit_for_bit(kind, form, n):
    basis = _BASES[kind](n)
    dual = liecore.dual_basis(basis, form)
    assert dual.tobytes() == np.array(_dual_basis_loops(basis, form)).tobytes()


def _random_sl_element_loop(n, rng):
    """``random_sl_element`` written out: one coefficient draw per Borel basis element, then
    the unitary draw times exp of the Hermitian part of the Borel element."""
    z = np.zeros((n, n), dtype=complex)
    for b in liecore.borel_basis(n):
        z += rng.standard_normal() * b
    hermitian = 0.35 / (n * n) * (z + z.conj().T)
    return liecore.random_group_element(n, rng) @ liecore.expm_normal(hermitian)


@pytest.mark.parametrize("n", range(2, 9))
def test_random_sl_element_keeps_its_bits_and_the_rng_state(n):
    fast, slow = np.random.default_rng(90 + n), np.random.default_rng(90 + n)
    for _ in range(3):
        x = liecore.random_sl_element(n, fast)
        assert x.tobytes() == _random_sl_element_loop(n, slow).tobytes()
        assert abs(np.linalg.det(x) - 1) <= 1e-13
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("n", range(2, 9))
def test_a_counted_random_sl_element_is_that_many_single_draws(n):
    """One (count, 3n^2 - 1) draw reads the generator as ``count`` single draws do."""
    stacked, single = np.random.default_rng(190 + n), np.random.default_rng(190 + n)
    x = liecore.random_sl_element(n, stacked, 7)
    assert x.shape == (7, n, n)
    assert x.tobytes() == np.array([_random_sl_element_loop(n, single) for _ in range(7)]).tobytes()
    assert stacked.bit_generator.state == single.bit_generator.state


def _project_borel_triangles(z):
    """``project_borel`` as the sum of the strict upper triangle, the adjoint of the strict
    lower triangle and the real diagonal."""
    upper, lower = np.triu(z, 1), np.tril(z, -1)
    return upper + np.swapaxes(lower, -1, -2).conj() + np.triu(np.tril(np.real(z)))


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (30, 5, 5), (4, 2, 8, 8)])
def test_project_borel_is_the_sum_of_its_triangles_bit_for_bit(shape):
    """Signed zeros included: a -0.0 entry comes out as 0.0, as from the triangle sum."""
    rng = np.random.default_rng(sum(shape))
    parts = rng.standard_normal((2,) + shape)
    parts[rng.random(parts.shape) < 0.3] = -0.0
    for z in (parts[0] + 1j * parts[1], np.full(shape, -0.0 - 0.0j)):
        assert liecore.project_borel(z).tobytes() == _project_borel_triangles(z).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_per_n_constants_are_built_once_and_read_only(n):
    datum = liecore.build_root_datum(n)
    assert liecore.build_root_datum(n) is datum
    assert liecore.borel_basis(n) is liecore.borel_basis(n)
    for a in (*datum.coroots, *datum.coweights, datum.cartan, datum.q_matrix,
              liecore.borel_basis(n)):
        assert not a.flags.writeable


def _norms_per_block(a, block):
    """The per-block np.linalg.norm loop that ``liecore.norms`` replaced."""
    flat = a.reshape((-1,) + a.shape[a.ndim - block:])
    return np.array([np.linalg.norm(m) for m in flat]).reshape(a.shape[:a.ndim - block])


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("layout", ["C", "adjoint"])
@pytest.mark.parametrize("shape", [(0, 3, 3), (5, 3, 3), (2, 4, 7, 7), (3, 0, 2, 2)])
def test_norms_is_bit_equal_to_the_per_block_norm_loop(block, complex_entries, layout, shape):
    rng = np.random.default_rng(sum(shape) + block)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    if complex_entries:
        a = a + 1j * rng.standard_normal(shape)
    if layout == "adjoint":
        a = liecore.adjoint(a)  # a swapaxes view: each block in transposed memory order
    got, want = liecore.norms(a, block), _norms_per_block(a, block)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_norms_of_one_block_is_the_float_norm():
    a = np.arange(9.0).reshape(3, 3) + 1j
    assert liecore.norms(a, 2) == float(np.linalg.norm(a))
    assert liecore.norms(a[0]) == float(np.linalg.norm(a[0]))


def _edited(field, n, edit):
    """build_root_datum, with ``edit`` applied to the rows of ``field`` at rank n."""
    build = liecore.build_root_datum

    def edited(m):
        datum = build(m)
        if m != n:
            return datum
        rows = [list(row) for row in getattr(datum, field)]
        edit(rows)
        return replace(datum, **{field: tuple(map(tuple, rows))})
    return edited


@pytest.mark.parametrize("field, n, j, k, delta", [
    ("q_exact", 4, 1, 2, Fraction(1, 4)),    # n q stays an integer, (n Q) C does not
    ("q_exact", 5, 0, 0, Fraction(1, 10)),   # n q is no integer
    ("q_exact", 8, 6, 6, Fraction(-1)),
    ("coweights_exact", 3, 0, 1, Fraction(1, 3)),
    ("coweights_exact", 7, 5, 6, Fraction(1, 14)),
    ("coweights_exact", 2, 0, 0, Fraction(-1, 2)),
])
def test_root_datum_exact_counts_a_perturbed_entry(monkeypatch, field, n, j, k, delta):
    run = scenario.check_root_datum.__wrapped__
    assert run(None) == 0

    def perturb(rows):
        rows[j][k] += delta
    monkeypatch.setattr(scenario, "build_root_datum", _edited(field, n, perturb))
    assert run(None) > 0


def test_root_datum_exact_counts_a_shifted_coweight(monkeypatch):
    """Shifting every entry of one coweight keeps its steps and breaks only its zero sum."""
    def shift(rows):
        rows[0] = [v + 1 for v in rows[0]]
    monkeypatch.setattr(scenario, "build_root_datum", _edited("coweights_exact", 3, shift))
    assert scenario.check_root_datum.__wrapped__(None) == 1
