"""The numpy matrix kernels against scipy and mpmath oracles.

``liecore.expm_normal`` (one Hermitian eigensolve) exponentiates the
anti-Hermitian and Hermitian generators of flows, torus curves, stencil steps
and the sampling draws; ``liecore.expm_diagonal`` (entrywise) the diagonal
torus elements, the principal element and the diagonal stencil steps, whose
square-zero ones are I + hZ; and ``decomp.alcove_diagonalize`` builds its frame
from ``eig`` and ``qr``.  The package itself imports no scipy.
"""

import hashlib
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
def test_expm_normal_against_mpmath(n):
    rng = np.random.default_rng(10 + n)
    # a stencil step: the correction to I is rounded on its own scale
    a = _generator("anti-hermitian", n, 1e-3, rng)
    assert np.linalg.norm(liecore.expm_normal(a) - _exact_expm(a)) <= 1e-17
    # the sampling draws, Gaussian algebra elements of norm about n
    for _ in range(3):
        a = liecore.random_algebra_element(n, rng)
        assert np.linalg.norm(liecore.expm_normal(a) - _exact_expm(a)) <= 5e-15


def test_expm_diagonal_is_bit_equal_to_scipy_on_diagonal_stacks():
    rng = np.random.default_rng(0)
    for n in range(2, 7):
        datum = liecore.build_root_datum(n)
        taus = rng.uniform(-3, 3, (4, n - 1))
        rho = liecore.special_elements(n).rho_coweight
        diagonals = np.array([np.diag(rng.standard_normal(n)),
                              np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                              2j * np.pi * rho / n, np.zeros((n, n), dtype=complex),
                              *(-1j * flows._weighted(taus, datum.coroots))])
        e = liecore.expm_diagonal(diagonals)
        assert e.tobytes() == np.array([scipy.linalg.expm(d) for d in diagonals]).tobytes()
        assert flows.coroot_torus_element(taus, datum).tobytes() == e[4:].tobytes()


def _exact_exponentials(n):
    """Every exponential the package takes of a diagonal matrix at n: the coroot and coweight
    torus elements (one by one and stacked), positive factorizations at Haar frames and the
    principal element.  The sl and Borel stencil exponentials are held to scipy's expm in
    ``tests/test_stencils.py``."""
    datum = liecore.build_root_datum(n)
    rng = np.random.default_rng(500 + n)
    taus = rng.uniform(-3, 3, (4, n - 1))
    gs = [liecore.haar_unitary(n, rng) for _ in range(3)]
    out = []
    for torus in (flows.coroot_torus_element, flows.coweight_torus_element):
        out += [torus(t, datum) for t in taus] + [torus(taus, datum)]
    out += [flows.positive_factorization(t, decomp.alcove_diagonalize(g), datum)
            for t, g in zip(taus, gs)]
    return out + [liecore.special_elements(n).principal]


# sha256 of _exact_exponentials(n) as the scaling-and-squaring Pade kernel built them
_PADE_DIGESTS = {
    2: "f76db7a45c1d77d027e409990599c9c5034a44aa41ba5b772afe6c6833dd27dc",
    3: "164c0a09eaa845921cbbc8938ee178d3ae4e26a1086020333b30ccc28e03b409",
    4: "d866a93aa2e4c1c07b12964453de044d9853d4192ac9d7289ea59c5aa5cb079e",
    5: "8fce06dca081e31cd16941ae6ae70695bc1b30a198ba2d27ec2405dc1ef98e74",
    6: "3fd4e52e57758b3deb2d8d0fc92d5706109f09ceeb449d594a256aa1e4f50853",
    7: "05532bdfb174ecf6859da1e518949aa3b5be51ec1ab2c7df707ff112e914ac2f",
    8: "d9223949506f113c592563ffefc67f35bab27d12f29d85af26c1096bb4cb23fa",
}


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_exponentials_keep_the_bytes_of_the_pade_kernel(n):
    """The torus elements, positive factorizations and principal element are exact, so the
    entrywise form gives the Pade kernel's bytes."""
    digest = hashlib.sha256()
    for a in _exact_exponentials(n):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == _PADE_DIGESTS[n]


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
