import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sunflows import decomp, liecore
from sunflows.observables import AlcoveCoroot, AlcoveCoweight, BorelChamberCoroot, ChamberCoroot
from sunflows.errors import (
    NotPositiveDefinite,
    RegularityViolation,
    SingularMatrix,
    SunflowsError,
)


def test_chamber_of_diagonal_input():
    j = 1j * np.diag([1.0, -1.0])
    cd = decomp.chamber_diagonalize(j)
    assert np.allclose(cd.spectrum, [1.0, -1.0])
    assert np.allclose(cd.frame, np.eye(2))


def test_chamber_sorts_reversed_input():
    j = 1j * np.diag([-1.0, 1.0])
    cd = decomp.chamber_diagonalize(j)
    assert np.allclose(cd.spectrum, [1.0, -1.0])
    recon = cd.frame @ j @ cd.frame.conj().T
    assert np.linalg.norm(recon - 1j * np.diag(cd.spectrum)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_chamber_reconstruction_su4(seed):
    rng = np.random.default_rng(seed)
    j = liecore.random_algebra_element(4, rng)
    cd = decomp.chamber_diagonalize(j)
    recon = cd.frame @ j @ cd.frame.conj().T
    assert np.linalg.norm(recon - 1j * np.diag(cd.spectrum)) <= 1e-10
    assert abs(np.linalg.det(cd.frame) - 1) < 1e-10
    assert np.all(np.diff(cd.spectrum) < 0)


def test_chamber_rejects_degenerate_spectrum():
    with pytest.raises(RegularityViolation):
        decomp.chamber_diagonalize(1j * np.diag([1.0, 1.0, -2.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_borel_chamber_matches_logm_oracle(n):
    rng = np.random.default_rng(100 + n)
    datum = liecore.build_root_datum(n)
    done = 0
    while done < 40:
        b = decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right
        try:
            ref = decomp.chamber_diagonalize(
                1j * scipy.linalg.logm(decomp.posdef_of_borel(b)), 0.05)
        except RegularityViolation:
            continue
        done += 1
        cd = decomp.borel_chamber_diagonalize(b, 0.05)
        assert np.max(np.abs(cd.spectrum - ref.spectrum)) <= 1e-12
        # coroot gradients -Q^-1 i h_j Q do not depend on the frame phases
        for h in datum.coroots:
            g_new = -cd.frame.conj().T @ (1j * h) @ cd.frame
            g_ref = -ref.frame.conj().T @ (1j * h) @ ref.frame
            assert np.linalg.norm(g_new - g_ref) <= 1e-10


def test_borel_chamber_rejects_walls_and_non_positive_input():
    with pytest.raises(RegularityViolation):
        decomp.borel_chamber_diagonalize(np.eye(3, dtype=complex))
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_chamber_diagonalize(np.diag([1.0, 0.0]).astype(complex))
    b = np.eye(2, dtype=complex)
    b[0, 1] = np.nan
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_chamber_diagonalize(b)


def test_alcove_of_alcove_form_input():
    g = np.diag([1j, -1j])
    ad = decomp.alcove_diagonalize(g)
    assert np.allclose(ad.spectrum, [np.pi / 2, -np.pi / 2])
    assert np.allclose(ad.frame, np.eye(2))


def test_alcove_cyclic_shift_rule():
    g = np.diag([np.exp(3j * np.pi / 4), np.exp(-3j * np.pi / 4)])
    ad = decomp.alcove_diagonalize(g)
    assert np.allclose(ad.spectrum, [3 * np.pi / 4, -3 * np.pi / 4])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_alcove_reconstruction_batch(n):
    rng = np.random.default_rng(n)
    done = 0
    while done < 100:
        g = liecore.random_group_element(n, rng)
        try:
            ad = decomp.alcove_diagonalize(g, 1e-4)
        except RegularityViolation:
            continue
        done += 1
        recon = ad.frame @ g @ ad.frame.conj().T
        assert np.linalg.norm(recon - np.diag(np.exp(1j * ad.spectrum))) <= 1e-10
        xi = ad.spectrum
        assert abs(xi.sum()) < 1e-10
        assert np.all(np.diff(xi) < 0)
        assert xi[0] - xi[-1] < 2 * np.pi


def test_alcove_spectrum_conjugation_invariant():
    rng = np.random.default_rng(17)
    g = liecore.random_group_element(3, rng)
    eta = liecore.random_group_element(3, rng)
    xi1 = decomp.alcove_diagonalize(g).spectrum
    xi2 = decomp.alcove_diagonalize(eta @ g @ eta.conj().T).spectrum
    assert np.linalg.norm(xi1 - xi2) < 1e-9


def test_alcove_rejects_wall_points():
    with pytest.raises(RegularityViolation):
        decomp.alcove_diagonalize(np.eye(2, dtype=complex))


def test_frame_is_deterministic():
    rng = np.random.default_rng(23)
    g = liecore.random_group_element(3, rng)
    a1 = decomp.alcove_diagonalize(g)
    a2 = decomp.alcove_diagonalize(g)
    assert np.array_equal(a1.frame, a2.frame)


def test_torus_ambiguity_does_not_leak_into_gradients():
    # conjugating the frame formula by a torus element leaves outputs unchanged
    rng = np.random.default_rng(29)
    datum = liecore.build_root_datum(3)
    g = liecore.random_group_element(3, rng)
    ad = decomp.alcove_diagonalize(g)
    torus = np.diag(np.exp(1j * np.array([0.3, -0.8, 0.5])))
    other_frame = torus @ ad.frame
    for j in range(2):
        h = 1j * datum.coroots[j]
        v1 = ad.frame.conj().T @ h @ ad.frame
        v2 = other_frame.conj().T @ h @ other_frame
        assert np.linalg.norm(v1 - v2) < 1e-12


def test_gradient_matches_finite_differences():
    from sunflows import brackets
    rng = np.random.default_rng(31)
    datum = liecore.build_root_datum(3)
    g = liecore.random_group_element(3, rng)

    def val(gm, j=0):
        xi = decomp.alcove_diagonalize(gm).spectrum
        return float(xi[j] - xi[j + 1])

    exact = AlcoveCoroot(0, datum).grad(g)
    fd, = brackets.group_gradient_fd([val], g)
    assert np.linalg.norm(exact - fd) < 1e-6


def test_iwasawa_identity_and_triangular_inputs():
    f = decomp.iwasawa_decompose(np.eye(3, dtype=complex))
    for m in (f.u_left, f.u_right, f.b_left, f.b_right):
        assert np.linalg.norm(m - np.eye(3)) < 1e-14
    b = np.array([[2.0, 1.0 + 1j], [0.0, 0.5]], dtype=complex)
    f = decomp.iwasawa_decompose(b)
    assert np.linalg.norm(f.u_left - np.eye(2)) < 1e-14
    assert np.linalg.norm(f.b_right - np.linalg.inv(b)) < 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_iwasawa_roundtrip_and_uniqueness(seed):
    rng = np.random.default_rng(seed)
    x = liecore.random_sl_element(3, rng)
    f = decomp.iwasawa_decompose(x)
    assert np.linalg.norm(x - f.u_left @ np.linalg.inv(f.b_right)) <= 1e-12
    assert np.linalg.norm(x - f.b_left @ f.u_right.conj().T) <= 1e-12
    assert np.linalg.norm(np.tril(f.b_left, -1)) < 1e-14
    assert np.min(np.real(np.diag(f.b_right))) > 0
    f2 = decomp.iwasawa_decompose(f.u_left @ np.linalg.inv(f.b_right))
    assert np.linalg.norm(f2.u_left - f.u_left) <= 1e-11
    assert np.linalg.norm(f2.b_right - f.b_right) <= 1e-11


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iwasawa_factors_exact_structure(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(50):
        x = liecore.random_sl_element(n, rng)
        f = decomp.iwasawa_decompose(x)
        for b in (f.b_left, f.b_right):
            assert np.all(np.tril(b, -1) == 0)
            assert np.min(np.real(np.diag(b))) > 0
            assert np.max(np.abs(np.imag(np.diag(b)))) <= 1e-12
            assert abs(np.linalg.det(b) - 1) <= 1e-10
        assert np.linalg.norm(x - f.u_left @ np.linalg.inv(f.b_right)) <= 1e-10
        assert np.linalg.norm(x - f.b_left @ np.linalg.inv(f.u_right)) <= 1e-10


@pytest.mark.parametrize("where", [(2, 2), (0, 2)])
def test_iwasawa_rejects_non_finite_input(where):
    # a NaN off the diagonal can leave the QR diagonal finite
    x = np.eye(3, dtype=complex)
    x[where] = np.nan
    with pytest.raises(SunflowsError):
        decomp.iwasawa_decompose(x)


def test_iwasawa_rejects_singular():
    with pytest.raises(SingularMatrix):
        decomp.iwasawa_decompose(np.zeros((2, 2), dtype=complex))


HALVES = {"iwasawa_left": ("u_left", "b_right"), "iwasawa_right": ("b_left", "u_right")}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iwasawa_halves_are_bit_equal_to_the_decomposition(n):
    rng = np.random.default_rng(210 + n)
    for _ in range(10):
        x = liecore.random_sl_element(n, rng)
        whole = decomp.iwasawa_decompose(x)
        for name, fields in HALVES.items():
            for got, field in zip(getattr(decomp, name)(x.copy()), fields):
                assert np.array_equal(got, getattr(whole, field))


def _unitary_times_borel(n, seed, spread):
    """(U, B): U a Haar special unitary and B = borel_of_posdef(P), P positive with a gapped
    zero-sum log spectrum (gaps of at least 0.05) of spread up to ``spread``."""
    rng = np.random.default_rng(seed)
    pos = liecore.conjugated_spectrum(n, rng, np.exp, 0.05, spread)
    return liecore.haar_unitary(n, rng), decomp.borel_of_posdef(pos)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.3, 6.0))
def test_iwasawa_factors_of_unitary_times_borel(n, seed, spread):
    u, b = _unitary_times_borel(n, seed, spread)
    x = u @ b
    f = decomp.iwasawa_decompose(x)
    tol = 1e-12 * np.linalg.cond(x)
    scale = np.linalg.norm(x)
    # X = U B is already the left splitting
    assert np.linalg.norm(f.u_left - u) <= tol
    assert np.linalg.norm(f.b_right @ b - np.eye(n)) <= tol
    assert np.linalg.norm(f.u_left @ np.linalg.inv(f.b_right) - x) <= tol * scale
    assert np.linalg.norm(f.b_left @ np.linalg.inv(f.u_right) - x) <= tol * scale
    for b in (f.b_left, f.b_right):
        assert np.linalg.norm(np.tril(b, -1)) <= tol * np.linalg.norm(b)
        d = np.diagonal(b)
        assert np.all(d.real > 0) and np.all(np.abs(d.imag) <= tol * d.real)
    for u in (f.u_left, f.u_right):
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= tol
    for m in (f.u_left, f.b_right, f.b_left, f.u_right):
        assert abs(np.linalg.det(m) - 1) <= tol
    halves = [*decomp.iwasawa_left(x), *decomp.iwasawa_right(x)]
    for got, field in zip(halves, ("u_left", "b_right", "b_left", "u_right"), strict=True):
        assert got.tobytes() == getattr(f, field).tobytes()


def _mp_b_right(x):
    """b_right of X = u_left b_right^-1 from an mpmath QR at 40 digits: R with its diagonal
    made positive, inverted."""
    with mpmath.workdps(40):
        q, r = mpmath.qr(mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x]))
        n = x.shape[0]
        for i in range(n):
            phase = r[i, i] / abs(r[i, i])
            for k in range(n):
                r[i, k] /= phase
        inv = r ** -1
        return np.array([[complex(inv[i, k]) for k in range(n)] for i in range(n)])


@pytest.mark.parametrize("n, seed, spread", [(2, 11, 6.0), (3, 12, 3.0), (5, 13, 6.0)])
def test_iwasawa_b_right_matches_a_40_digit_qr(n, seed, spread):
    u, b = _unitary_times_borel(n, seed, spread)
    x = u @ b
    want = _mp_b_right(x)
    got = decomp.iwasawa_left(x)[1]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", HALVES)
def test_iwasawa_halves_raise_at_call_time_every_time(name):
    kernel = getattr(decomp, name)
    for _ in range(3):
        with pytest.raises(SingularMatrix):
            kernel(np.zeros((3, 3), dtype=complex))
        for where in [(2, 2), (0, 2)]:
            x = np.eye(3, dtype=complex)
            x[where] = np.nan
            with pytest.raises(SunflowsError):
                kernel(x)


def test_dressing_identity_and_torus_fixed_points():
    rng = np.random.default_rng(41)
    b = decomp.iwasawa_decompose(liecore.random_sl_element(3, rng)).b_right
    assert np.linalg.norm(decomp.dress(np.eye(3, dtype=complex), b) - b) < 1e-12
    # diagonal positive Borel elements are fixed by torus dressing
    xi = np.array([0.4, -0.1, -0.3])
    b_diag = np.diag(np.exp(xi)).astype(complex)
    eta = np.diag(np.exp(1j * np.array([1.0, 2.0, -3.0])))
    assert np.linalg.norm(decomp.dress(eta, b_diag) - b_diag) < 1e-12


def test_dressing_posdef_equivariance():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(10):
        b = decomp.iwasawa_decompose(liecore.random_sl_element(3, rng)).b_right
        eta = liecore.random_group_element(3, rng)
        lhs = decomp.posdef_of_borel(decomp.dress(eta, b))
        rhs = eta @ decomp.posdef_of_borel(b) @ eta.conj().T
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst <= 1e-10


def test_posdef_map_values_and_roundtrip():
    assert np.allclose(decomp.posdef_of_borel(np.eye(2, dtype=complex)), np.eye(2))
    b = np.diag([2.0, 0.5]).astype(complex)
    assert np.allclose(decomp.posdef_of_borel(b), np.diag([4.0, 0.25]))
    rng = np.random.default_rng(47)
    b = decomp.iwasawa_decompose(liecore.random_sl_element(3, rng)).b_right
    p = decomp.posdef_of_borel(b)
    assert np.linalg.norm(decomp.borel_of_posdef(p) - b) <= 1e-12


def test_posdef_unmap_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_of_posdef(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_of_posdef(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_alcove_phase_rule_recovers_known_representative():
    # feed shuffled eigenphases of a known alcove vector back through the rule
    rng = np.random.default_rng(53)
    for n in (2, 3, 5):
        gaps = 0.3 + rng.uniform(0.0, 0.6, n - 1)
        xi = np.concatenate([[0.0], -np.cumsum(gaps)])
        xi -= xi.mean()
        thetas = np.mod(xi, 2 * np.pi)
        perm = rng.permutation(n)
        recovered, order = decomp.alcove_phases(thetas[perm])
        assert np.allclose(recovered, xi, atol=1e-12)
        assert np.array_equal(np.sort(perm[order]), np.arange(n))


# kernel results, the margin of each call and the lazy frames
# ---------------------------------------------------------------------------

NORMAL_FORMS = ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize")
KERNELS = ("iwasawa_decompose", *HALVES, *NORMAL_FORMS)


def _kernel_args(name, rng, n=3):
    if name.startswith("iwasawa"):
        return (liecore.random_sl_element(n, rng),)
    if name == "alcove_diagonalize":
        return (liecore.random_group_element(n, rng), 1e-6)
    if name == "chamber_diagonalize":
        return (liecore.random_algebra_element(n, rng),)
    return (decomp.iwasawa_left(liecore.random_sl_element(n, rng))[1], 1e-6)


def _result_arrays(result):
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, decomp.IwasawaFactors):
        return [result.u_left, result.u_right, result.b_left, result.b_right]
    if isinstance(result, tuple):
        return list(result)
    return [result.spectrum, result.vectors, result.frame]


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_results_reject_writes(name):
    result = getattr(decomp, name)(*_kernel_args(name, np.random.default_rng(301)))
    for a in _result_arrays(result):
        with pytest.raises(ValueError):
            a[0] = 0


def _near_wall(name, gap):
    xi = np.array([1.0, 1.0 - gap, -2.0 + gap])
    if name == "alcove_diagonalize":
        return np.diag(np.exp(1j * xi))
    if name == "chamber_diagonalize":
        return 1j * np.diag(xi)
    return np.diag(np.exp(xi / 2)).astype(complex)  # log(b b^H) = diag(xi)


@pytest.mark.parametrize("name", NORMAL_FORMS)
def test_each_call_checks_its_own_margin(name):
    """A call inside its margin raises, every time, and leaves a later call with a smaller
    margin free to succeed."""
    kernel = getattr(decomp, name)
    x = _near_wall(name, 1e-3)
    data = kernel(x, 1e-8)
    for _ in range(2):
        with pytest.raises(RegularityViolation):
            kernel(x, 1e-2)
    assert np.array_equal(kernel(x).spectrum, data.spectrum)


# ---------------------------------------------------------------------------
# guard: decomp keeps no state
# ---------------------------------------------------------------------------

def test_decomp_keeps_no_module_level_cache():
    """decomp binds no dict or OrderedDict at module level and decorates nothing with
    lru_cache or cache: no kernel of it is memoized."""
    tree = ast.parse(Path(decomp.__file__).read_text())
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and value is not None:
            assert not isinstance(value, (ast.Dict, ast.DictComp)), ast.unparse(node)
            if isinstance(value, ast.Call):
                assert ast.unparse(value.func).split(".")[-1] not in ("dict", "OrderedDict")
    assert not [name for name, value in vars(decomp).items()
                if isinstance(value, dict) and not name.startswith("__")]
    for node in ast.walk(tree):
        assert getattr(node, "id", getattr(node, "attr", None)) != "OrderedDict"
        for deco in getattr(node, "decorator_list", []):
            target = deco.func if isinstance(deco, ast.Call) else deco
            assert ast.unparse(target).split(".")[-1] not in ("lru_cache", "cache"), node.name


# each spectra kernel, with the normal form whose input it reads
SPECTRA = {"alcove_spectra": "alcove_diagonalize", "chamber_spectra": "chamber_diagonalize",
           "borel_chamber_spectra": "borel_chamber_diagonalize"}


@pytest.mark.parametrize("name", KERNELS + tuple(SPECTRA))
def test_kernels_return_a_fresh_result_per_call(name):
    """Two calls on bit-equal input return two distinct objects with bit-equal arrays."""
    args = _kernel_args(SPECTRA.get(name, name), np.random.default_rng(300))
    args = args[:1] if name in SPECTRA else args
    kernel = getattr(decomp, name)
    first, second = kernel(*args), kernel(args[0].copy(), *args[1:])
    assert first is not second
    for a, b in zip(_result_arrays(first), _result_arrays(second), strict=True):
        assert a is not b
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", SPECTRA)
def test_the_two_kernels_of_each_form_agree(name, n):
    """spectra(m) reads the spectrum of diagonalize(m) to roundoff on a regular stack, and both
    refuse a matrix next to a wall with the same message."""
    form, spectra = getattr(decomp, SPECTRA[name]), getattr(decomp, name)
    rng = np.random.default_rng(306 + n)
    stack = np.stack([_kernel_args(SPECTRA[name], rng, n)[0] for _ in range(3)])
    assert np.allclose(spectra(stack), form(stack).spectrum, rtol=0, atol=1e-12)
    x = _near_wall(SPECTRA[name], 1e-9)
    messages = []
    for kernel in (form, spectra):
        with pytest.raises(RegularityViolation) as raised:
            kernel(x)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name", NORMAL_FORMS)
def test_lazy_frame_keeps_the_frame_convention(name):
    rng = np.random.default_rng(303)
    kernel = getattr(decomp, name)
    for _ in range(10):
        args = _kernel_args(name, rng, n=4)
        data = kernel(*args)
        assert "frame" not in vars(data)
        q = data.frame
        assert data.frame is q
        # columns of Q^-1 are the eigenvectors: largest entry positive real,
        # except the last, whose phase makes det Q = 1
        for col in q.conj()[:-1]:
            top = col[np.argmax(np.abs(col))]
            assert top.real > 0 and abs(top.imag) <= 1e-15
        assert abs(np.linalg.det(q) - 1) <= 1e-12
        m = args[0]
        if name == "borel_chamber_diagonalize":
            m = decomp.posdef_of_borel(m)
        d = q @ m @ q.conj().T
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-10 * np.linalg.norm(m)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lazy_alcove_frame_is_bit_equal_to_the_eager_one(n):
    rng = np.random.default_rng(305 + n)
    for _ in range(10):
        g = liecore.random_group_element(n, rng)
        data = decomp.alcove_diagonalize(g, 0.0)  # walls are never negative
        assert "vectors" not in vars(data)
        # the former eager frame: the QR of the eigenvectors in alcove order
        vals, vecs = np.linalg.eig(g)
        _, perm = decomp.alcove_phases(np.angle(vals))
        q, _ = np.linalg.qr(vecs[:, perm])
        assert np.array_equal(data.vectors, q)
        assert np.array_equal(data.frame, decomp._frame(q))


def test_values_build_no_normal_form(monkeypatch):
    """value reads the frame-free spectra kernels: no normal form, so no eigenvector solve,
    on one matrix or on a stack."""
    rng = np.random.default_rng(304)
    datum = liecore.build_root_datum(3)
    g = liecore.random_group_element(3, rng)
    j_alg = liecore.random_algebra_element(3, rng)
    b = decomp.iwasawa_left(liecore.random_sl_element(3, rng))[1]

    def refuse(*args, **kwargs):
        raise AssertionError("value built a normal form")

    for name in ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize"):
        monkeypatch.setattr(decomp, name, refuse)
    for fn, m in ((AlcoveCoroot(0, datum), g), (AlcoveCoweight(1, datum), g),
                  (ChamberCoroot(0, datum), j_alg), (BorelChamberCoroot(0, datum), b)):
        fn.value(m), fn.value(np.stack([m, m]))


# ---------------------------------------------------------------------------
# transport: the one Q^-1 d Q of every normal form
# ---------------------------------------------------------------------------

def _regular_inputs(n, seed):
    """A regular algebra element, group element and Borel element."""
    rng = np.random.default_rng(seed)
    j_alg = liecore.random_algebra_element(n, rng)
    g = liecore.random_group_element(n, rng)
    b = decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right
    return j_alg, g, b


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_transport_is_bit_equal_to_the_pasted_conjugation(n, seed):
    j_alg, g, b = _regular_inputs(n, seed)
    d = np.diag(np.exp(1j * np.arange(n)))
    for data in (decomp.chamber_diagonalize(j_alg), decomp.alcove_diagonalize(g),
                 decomp.borel_chamber_diagonalize(b)):
        frame = data.frame
        assert np.array_equal(data.transport(d), frame.conj().T @ d @ frame)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_normal_form_gradients_are_bit_equal_to_their_old_formulas(n, seed):
    datum = liecore.build_root_datum(n)
    j_alg, g, b = _regular_inputs(n, seed)
    alcove = decomp.alcove_diagonalize(g).frame
    chamber = decomp.chamber_diagonalize(j_alg).frame
    borel = decomp.borel_chamber_diagonalize(b).frame
    for j in range(datum.rank):
        assert np.array_equal(AlcoveCoroot(j, datum).grad(g),
                              -alcove.conj().T @ (1j * datum.coroots[j]) @ alcove)
        assert np.array_equal(AlcoveCoweight(j, datum).grad(g),
                              -alcove.conj().T @ (1j * datum.coweights[j]) @ alcove)
        assert np.array_equal(ChamberCoroot(j, datum).grad(j_alg),
                              -chamber.conj().T @ (1j * datum.coroots[j]) @ chamber)
        assert np.array_equal(BorelChamberCoroot(j, datum).grad(b),
                              borel.conj().T @ (1j * datum.coroots[j]) @ borel)
        # the values, on one matrix and on a stack, against their old read-offs
        for m in (g, np.stack([g, g])):
            xi = decomp.alcove_spectra(m)
            assert np.array_equal(AlcoveCoroot(j, datum).value(m),
                                  decomp.coroot_values(xi)[..., j])
            assert np.array_equal(AlcoveCoweight(j, datum).value(m),
                                  decomp.coweight_values(xi, datum)[..., j])
        for m in (j_alg, np.stack([j_alg, j_alg])):
            assert np.array_equal(ChamberCoroot(j, datum).value(m),
                                  decomp.coroot_values(decomp.chamber_spectra(m))[..., j])
        for m in (b, np.stack([b, b])):
            xi = decomp.borel_chamber_spectra(m)
            assert np.array_equal(BorelChamberCoroot(j, datum).value(m),
                                  0.5 * decomp.coroot_values(xi)[..., j])
    assert [fn(0, datum).name for fn in (AlcoveCoroot, AlcoveCoweight, ChamberCoroot,
                                         BorelChamberCoroot)] == [
        "coroot0", "coweight0", "chamber0", "borelchamber0"]
