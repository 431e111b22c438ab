"""The numpy matrix kernels against scipy and mpmath oracles.

``liecore.expm_normal`` (one Hermitian eigensolve) exponentiates the
anti-Hermitian and Hermitian generators of flows, torus curves and stencil
steps; ``liecore.expm`` (Pade with scaling and squaring) the sampling draws,
the nilpotent stencil steps and the diagonal torus elements; and
``decomp.alcove_diagonalize`` builds its frame from ``eig`` and ``qr``.  The
package itself imports no scipy.
"""

import json
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg

from sunflows import decomp, flows, liecore
from sunflows.errors import RegularityViolation

NORMS = [1e-3, 1e-2, 0.1, 1.0, 5.0]


def _exact_expm(a):
    """exp(a) at 40 digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a]))
        return np.array([[complex(e[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])])


def _generator(kind, n, norm, rng):
    """An anti-Hermitian, Hermitian or nearly anti-Hermitian matrix of Frobenius norm ``norm``.

    'transport' rebuilds an algebra element through its chamber frame, Q^-1 (i diag) Q,
    so it is anti-Hermitian only up to the roundoff of the frame products, as the
    gradients that flows exponentiate are.
    """
    z = liecore.random_algebra_element(n, rng)
    if kind == "transport":
        cd = decomp.chamber_diagonalize(z)
        z = cd.transport(1j * np.diag(cd.spectrum))
    z = z * (norm / np.linalg.norm(z))
    return 1j * z if kind == "hermitian" else z


@pytest.mark.parametrize("kind", ["anti-hermitian", "hermitian", "transport"])
@pytest.mark.parametrize("n", range(2, 9))
def test_expm_normal_matches_scipy(n, kind):
    """The error relative to exp(a) scales with the norm of a below 1, so the stencil
    steps (norm 1e-3) are exact far below the unit roundoff."""
    rng = np.random.default_rng(n)
    for norm in NORMS:
        a = _generator(kind, n, norm, rng)
        e, ref = liecore.expm_normal(a), scipy.linalg.expm(a)
        assert np.linalg.norm(e - ref) <= 1e-14 * min(norm, 1.0) * np.linalg.norm(ref), norm
        if kind != "hermitian":
            assert liecore.unitarity_defect(e) <= 1e-13, norm


@pytest.mark.parametrize("n", range(3, 9))
def test_expm_normal_is_as_unitary_as_pade(n):
    """With its Newton-Schulz step the eigensolve kernel's mean unitarity defect at the
    flows' norms is within 2x scipy's Pade; without it, about 3x.  (At n=2 both sit
    at a few units of roundoff, about 1e-15 against 5e-16.)"""
    rng = np.random.default_rng(20 + n)
    ours, pade = [], []
    for _ in range(50):
        a = _generator("anti-hermitian", n, 5.0, rng)
        ours.append(liecore.unitarity_defect(liecore.expm_normal(a)))
        pade.append(liecore.unitarity_defect(scipy.linalg.expm(a)))
    assert np.mean(ours) <= 2 * np.mean(pade)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kernels_against_mpmath(n):
    rng = np.random.default_rng(10 + n)
    # a stencil step: both kernels round the correction to I on its own scale
    a = _generator("anti-hermitian", n, 1e-3, rng)
    exact = _exact_expm(a)
    assert np.linalg.norm(liecore.expm_normal(a) - exact) <= 1e-17
    assert np.linalg.norm(liecore.expm(a) - exact) <= 1e-17
    # the sampling draws, Gaussian algebra elements of norm about n
    for _ in range(3):
        a = liecore.random_algebra_element(n, rng)
        assert np.linalg.norm(liecore.expm(a) - _exact_expm(a)) <= 5e-15


def test_expm_of_diagonal_input_is_bit_equal_to_scipy():
    rng = np.random.default_rng(0)
    for n in range(2, 7):
        datum = liecore.build_root_datum(n)
        tau = rng.uniform(-3, 3, n - 1)
        rho = liecore.special_elements(n).rho_coweight
        diagonals = [np.diag(rng.standard_normal(n)),
                     np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                     -1j * flows._weighted(tau, datum.coroots), 2j * np.pi * rho / n,
                     np.zeros((n, n), dtype=complex)]
        for d in diagonals:
            assert np.array_equal(liecore.expm(d), scipy.linalg.expm(d))
        assert np.array_equal(flows.coroot_torus_element(tau, datum),
                              scipy.linalg.expm(-1j * flows._weighted(tau, datum.coroots)))


@pytest.mark.parametrize("shape", ["upper-triangular", "general"])
@pytest.mark.parametrize("n", range(2, 7))
def test_expm_matches_scipy(n, shape):
    """Every Pade degree (3 to 13) and the scaled range; triangular input stays triangular."""
    rng = np.random.default_rng(n)
    for norm in [1e-3, 0.1, 0.5, 1.5, 4.0, 10.0]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if shape == "upper-triangular":
            a = np.triu(a)
        a *= norm / np.linalg.norm(a, 1)
        e, ref = liecore.expm(a), scipy.linalg.expm(a)
        assert np.linalg.norm(e - ref) <= 1e-13 * np.linalg.norm(ref), norm
        if shape == "upper-triangular":
            assert not np.any(np.tril(e, -1))


def _schur_spectrum(g):
    t, _ = scipy.linalg.schur(g, output="complex")
    return decomp.alcove_phases(np.angle(np.diag(t)))[0]


def _assert_alcove_form(g, ad):
    frame = ad.frame
    assert liecore.unitarity_defect(frame) <= 1e-14
    recon = frame @ g @ frame.conj().T
    assert np.linalg.norm(recon - np.diag(np.exp(1j * ad.spectrum))) <= 1e-14
    assert np.abs(ad.spectrum - _schur_spectrum(g)).max() <= 1e-14


@pytest.mark.parametrize("n", range(2, 7))
def test_alcove_frame_against_schur(n):
    rng = np.random.default_rng(n)
    for _ in range(100):
        g = liecore.random_group_element(n, rng)
        _assert_alcove_form(g, decomp.alcove_diagonalize(g))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_alcove_frame_near_a_wall(n):
    """Two phases 2e-8 apart are admitted and the frame is still exact; 1e-10 apart is a wall."""
    rng = np.random.default_rng(n)
    q = liecore.random_group_element(n, rng)
    for gap in [2e-8, 1e-10]:
        xi = np.linspace(1.0, -1.0, n)
        xi[1] = xi[0] - gap
        xi -= xi.mean()
        g = q @ np.diag(np.exp(1j * xi)) @ q.conj().T
        if gap < decomp.DEFAULT_REGULARITY_MARGIN:
            with pytest.raises(RegularityViolation):
                decomp.alcove_diagonalize(g)
        else:
            _assert_alcove_form(g, decomp.alcove_diagonalize(g))


def test_verify_runs_without_importing_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"space": "double", "n": 2, "family": "h", "seed": 42,
                                  "points": 2}))
    script = ("import json, sys\n"
              "from sunflows import cli\n"
              f"rc = cli.main(['verify', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
              "sys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
