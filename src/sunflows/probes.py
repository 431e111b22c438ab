"""Numerical probes for the reduction structure.

Infinitesimal stabilizers are measured as kernels of the generator matrix of
an action at a point (the su(n) basis, each run of torus generators and the center each
stacked in one call), crafted points realize the principal-isotropy
constructions (torus pairs in apposition, Coxeter representatives, torus
commutator solutions), and rank checks compare generator spans against the
differentials of the action variables.  The alcove and chamber vectors of the
crafted points come from ``liecore.gapped_spectrum`` and are regular by
construction; only the torus commutator pairs are redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import brackets, decomp, harness, liecore, moduli
from .errors import ShapeError, Unsupported
from .liecore import RootDatum, special_elements, su_basis
from .observables import AlcoveCoweight
from .spaces import (
    CotangentPoint,
    FusionPoint,
    FusionSpace,
    HeisenbergPoint,
    double_space,
    moduli_space,
    sphere_space,
)

SVD_KERNEL_TOL = 1e-7
# wall margin of the crafted alcove points and of the commutator-solve targets; the crafted
# chamber vectors keep the same 0.2 gaps within totals of 3.0 (algebra) and 2.4 (Borel)
ALCOVE_MARGIN = 0.2


def conjugation_action(n: int) -> tuple:
    """The symmetry-group action as one velocity (point -> dict): the su(n) basis on a
    generator axis at -3, after the point's axes."""
    basis = np.array(su_basis(n))
    return (lambda p: p.map(lambda m: m[..., np.newaxis, :, :]).conjugation_velocity(basis),)


def generator_matrix(x, velocities) -> np.ndarray:
    """Columns are the tangent vectors of the action's ``velocities`` (point -> dict, a column
    per entry of its generator axis at -3) at x, in ``flat()`` order, per point of a stack."""
    at = x.map(lambda m: m[..., np.newaxis, :, :])  # x with a generator axis
    return np.concatenate([np.swapaxes(at.tangent(v(x)), -1, -2) for v in velocities], axis=-1)


@dataclass
class StabilizerReport:
    point_id: str
    infinitesimal_dim: int
    center_fixes: bool
    singular_values: np.ndarray = field(repr=False)


def stabilizer_dimension(x, action, n: int, point_id: str = "") -> StabilizerReport:
    """Kernel dimension of the infinitesimal action (its velocities) at a point x, plus the
    center check."""
    mat = generator_matrix(x, action)
    rank, svals = rank_of(mat)
    moved = x.distance(x.conjugate(np.array(special_elements(n).center)))
    return StabilizerReport(point_id, mat.shape[-1] - rank, not np.any(moved > 1e-8), svals)


# ---------------------------------------------------------------------------
# Coxeter commutator identity and torus commutator solutions
# ---------------------------------------------------------------------------

def _shift_matrix(n: int) -> np.ndarray:
    s = np.zeros((n, n))
    for j in range(n):
        s[(j + 1) % n, j] = 1.0
    return s


def _solve_coxeter(h: np.ndarray, sign: int) -> np.ndarray:
    """Traceless solution x of (sign*(w - id)) x = h for the cyclic Coxeter w, for each row of
    h (..., n): one least-squares solve whose right-hand sides are the rows."""
    n = h.shape[-1]
    m = sign * (_shift_matrix(n) - np.eye(n))
    x = np.linalg.lstsq(m, h.reshape(-1, n).T, rcond=None)[0].T.reshape(h.shape)
    return x - x.mean(axis=-1, keepdims=True)


def commutator_identity_residual(h: np.ndarray, n: int):
    """Defect of the Coxeter commutator identity on the diagonal torus, for h or each row of
    a stack (..., n).

    With g the Coxeter representative and x the preimage of h under
    (coxeter - id), the commutator of g and exp(i diag(x)) must reproduce
    exp(i diag(h)).
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1:] != (n,) or np.any(np.abs(h.sum(-1)) > 1e-9 * (1 + np.abs(h).max(-1))):
        raise ShapeError("argument must be a traceless real diagonal vector")
    g = special_elements(n).coxeter_rep
    b = liecore.diagonal_matrix(np.exp(1j * _solve_coxeter(h, +1)))
    lhs = g @ b @ g.conj().T @ liecore.adjoint(b)
    return liecore.norms(lhs - liecore.diagonal_matrix(np.exp(1j * h)), 2)


def commutator_solve(xi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with [A, B] = exp(i diag(xi)): A the Coxeter representative; B per row of xi."""
    x = _solve_coxeter(np.asarray(xi, dtype=float), +1)
    return special_elements(n).coxeter_rep, liecore.diagonal_matrix(np.exp(1j * x))


def solve_commutator_in_torus(xi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with [A, B] = exp(i diag(xi)), A in the diagonal torus (per row of xi), B
    Coxeter."""
    x = _solve_coxeter(np.asarray(xi, dtype=float), -1)
    return liecore.diagonal_matrix(np.exp(1j * x)), special_elements(n).coxeter_rep


# ---------------------------------------------------------------------------
# crafted sampling helpers
# ---------------------------------------------------------------------------

def alcove_torus_point(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(1j * liecore.gapped_spectrum(n, rng, ALCOVE_MARGIN)))


def apposition_regular_group(n: int, rng: np.random.Generator) -> np.ndarray:
    spec = special_elements(n)
    return liecore.apposition_torus_element(liecore.gapped_spectrum(n, rng, ALCOVE_MARGIN), spec)


def regular_torus_commutator_pair(n: int, rng: np.random.Generator):
    """Torus/Coxeter pair (A, B) with [A, B] in the alcove interior, A regular."""
    return harness.sample_regular(
        "torus commutator pair", 64,
        lambda: solve_commutator_in_torus(liecore.gapped_spectrum(n, rng, ALCOVE_MARGIN), n),
        lambda pair: decomp.alcove_diagonalize(pair[0], 0.05))


def apposition_regular_algebra(n: int, rng: np.random.Generator) -> np.ndarray:
    spec = special_elements(n)
    return liecore.apposition_algebra_element(liecore.gapped_spectrum(n, rng, 0.2, 3.0), spec)


# ---------------------------------------------------------------------------
# crafted principal points
# ---------------------------------------------------------------------------

@dataclass
class PrincipalPoint:
    key: str
    point: object
    action: tuple                    # the velocities of the symmetry and then the torus
    torus_dim: int
    family: list = field(default_factory=list)


PRINCIPAL_POINT_KEYS = (
    "cotangent-compact-torus",
    "cotangent-line-action",
    "heisenberg-compact-torus",
    "heisenberg-line-action",
    "double-first-family",
    "sphere-adjoint-torus",
    "genus2-mixed",
    "genus2-double-adjoint",
    "holed-sphere-intervals",
    "one-handle-intervals",
    "one-handle-commutator",
    "two-handles-with-holes",
    "alternating-blocks",
)


def principal_test_point(key: str, n: int, datum: RootDatum,
                         rng: np.random.Generator) -> PrincipalPoint:
    """Crafted point with principal (centre-only) combined stabilizer.

    Every construction follows the same pattern: one argument is placed in
    the interior of the alcove of the diagonal torus, the complementary data
    live in the apposition torus or are Coxeter representatives, and torus
    commutator solutions arrange the required block values.
    """
    spec = special_elements(n)
    fconj = spec.apposition_conjugator

    def conj_by_f(m):
        return fconj @ m @ fconj.conj().T

    fam = hams = None
    if key in ("cotangent-compact-torus", "cotangent-line-action"):
        # regular torus group part, fiber in the regular apposition algebra
        x = CotangentPoint(alcove_torus_point(n, rng), apposition_regular_algebra(n, rng))
        chamber, translate = harness.CotangentHarness(n, datum).torus_specs()
        torus = chamber if key == "cotangent-compact-torus" else translate
    elif key in ("heisenberg-compact-torus", "heisenberg-line-action"):
        g_right = alcove_torus_point(n, rng)
        d = liecore.gapped_spectrum(n, rng, 0.2, 2.4)
        pos_target = conj_by_f(np.diag(np.exp(d)))
        gram = g_right.conj().T @ np.linalg.inv(pos_target) @ g_right
        low = np.linalg.cholesky(gram)
        b_left = np.linalg.inv(low.conj().T)
        x = HeisenbergPoint(b_left @ g_right.conj().T)
        dress, translate = harness.HeisenbergHarness(n, datum).torus_specs()
        torus = dress if key == "heisenberg-compact-torus" else translate
    elif key == "double-first-family":
        a = alcove_torus_point(n, rng)
        b = fconj.copy()
        x = FusionPoint(double_space(n), ((a, b),))
        torus, = harness.DoubleHarness(n, datum, "h").torus_specs()
    elif key == "sphere-adjoint-torus":
        c2 = apposition_regular_group(n, rng)
        c3 = apposition_regular_group(n, rng)
        c1 = alcove_torus_point(n, rng) @ c2.conj().T
        x = FusionPoint(sphere_space(n), (c1, c2, c3))
        fam = moduli.sphere_family()
    elif key in ("genus2-mixed", "genus2-double-adjoint"):
        a1, b1 = regular_torus_commutator_pair(n, rng)
        if key == "genus2-mixed":
            a2 = alcove_torus_point(n, rng)
            b2 = fconj.copy()
            fam = moduli.IntervalFamily(single=(2,), commutators=(1,))
        else:
            a2p, b2p = regular_torus_commutator_pair(n, rng)
            a2, b2 = conj_by_f(a2p), conj_by_f(b2p)
            fam = moduli.IntervalFamily(commutators=(1, 2))
        x = FusionPoint(moduli_space(2, 0, n), ((a1, b1), (a2, b2)))
    elif key == "holed-sphere-intervals":
        fam = moduli.IntervalFamily(intervals=((1, 2),))
        c2 = apposition_regular_group(n, rng)
        c1 = alcove_torus_point(n, rng) @ c2.conj().T
        c3 = apposition_regular_group(n, rng)
        c4 = apposition_regular_group(n, rng)
        x = FusionPoint(moduli_space(0, 4, n), (c1, c2, c3, c4))
    elif key in ("one-handle-intervals", "one-handle-commutator"):
        if key == "one-handle-intervals":
            fam = moduli.IntervalFamily(single=(1,), intervals=((2, 3),))
            a = alcove_torus_point(n, rng)
            b = fconj.copy()
        else:
            fam = moduli.IntervalFamily(commutators=(1,), intervals=((2, 3),))
            ap, bp = regular_torus_commutator_pair(n, rng)
            a, b = conj_by_f(ap), conj_by_f(bp)
        c3 = apposition_regular_group(n, rng)
        c2 = alcove_torus_point(n, rng) @ c3.conj().T
        c1 = apposition_regular_group(n, rng)
        x = FusionPoint(moduli_space(1, 3, n), ((a, b), c1, c2, c3))
    elif key == "two-handles-with-holes":
        fam = moduli.IntervalFamily(single=(1,), commutators=(2,), intervals=((1, 2),))
        a1 = alcove_torus_point(n, rng)
        b1 = fconj.copy()
        a2p, b2p = regular_torus_commutator_pair(n, rng)
        a2, b2 = conj_by_f(a2p), conj_by_f(b2p)
        c2 = apposition_regular_group(n, rng)
        c1 = alcove_torus_point(n, rng) @ c2.conj().T
        x = FusionPoint(moduli_space(2, 2, n), ((a1, b1), (a2, b2), c1, c2))
    elif key == "alternating-blocks":
        # not a canonical space, so the family is spelled out block by block
        u1 = apposition_regular_group(n, rng)
        v1 = alcove_torus_point(n, rng)
        w1 = (u1 @ v1 @ u1.conj().T @ v1.conj().T).conj().T @ alcove_torus_point(n, rng)
        u2 = apposition_regular_group(n, rng)
        v2 = alcove_torus_point(n, rng)
        w2 = (u2 @ v2 @ u2.conj().T @ v2.conj().T).conj().T @ conj_by_f(alcove_torus_point(n, rng))
        x = FusionPoint(FusionSpace(n, ("D", "K", "D", "K")), ((u1, v1), w1, (u2, v2), w2))
        hams = [moduli.WordHamiltonian(("span", lo, hi), AlcoveCoweight(j, datum))
                for lo, hi in ((0, 1), (2, 3)) for j in range(datum.rank)]
    else:
        raise Unsupported(f"no crafted point for key {key!r}")

    if fam is not None:
        hams = moduli.hamiltonian_family(x.space, fam, datum)
    if hams is not None:
        torus = harness.family_torus(hams, datum)
    action = conjugation_action(n) + tuple(run.velocity for run in harness.runs(torus.generators))
    return PrincipalPoint(key, x, action, torus.dim, hams or [])


# ---------------------------------------------------------------------------
# rank checks
# ---------------------------------------------------------------------------

def differential_matrix(x, functions) -> np.ndarray:
    """Rows are the differentials of scalar functions along a tangent basis."""
    return brackets.differentials(functions, x)


def rank_of(mat: np.ndarray):
    """Numerical rank and singular values of a matrix, or of each of a stack."""
    svals = np.linalg.svd(mat, compute_uv=False)
    ranks = np.sum(svals > SVD_KERNEL_TOL, axis=-1)
    return (int(ranks) if ranks.ndim == 0 else ranks), svals
