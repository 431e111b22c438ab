"""Type-A root data, invariant pairings and special group elements.

Everything is realized concretely for K = SU(n): group elements are n-by-n
special unitary matrices, algebra elements are anti-Hermitian traceless
matrices, and the invariant bilinear form is normalized so that it coincides
with the matrix trace form.  With that normalization the pairing of opposite
root vectors equals one, which is the convention every bracket and gradient
formula in the package relies on.  ``gapped_spectrum`` builds every regular
spectrum the package does not rejection sample: alcove and chamber vectors
that clear every wall by a chosen floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateBasis, InvalidRank, ShapeError


# ---------------------------------------------------------------------------
# elementary checks and projections
# ---------------------------------------------------------------------------

def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack (..., n, n)."""
    return np.swapaxes(a.conj(), -1, -2)


def scaled(tau, m: np.ndarray) -> np.ndarray:
    """tau * m for a time tau that is one number, or one per matrix of a stack m."""
    return np.asarray(tau)[..., np.newaxis, np.newaxis] * m


def trace(a: np.ndarray) -> np.ndarray:
    """The trace of a matrix, or of each matrix of a stack, bit for bit as np.trace."""
    return np.trace(a, axis1=-2, axis2=-1)


def norms(a: np.ndarray, block: int = 1):
    """np.linalg.norm of each trailing ``block``-dimensional block of a (a float for one),
    one call each: a norm over stacked axes is not bit-equal to the one-block norm."""
    if a.ndim == block:
        return float(np.linalg.norm(a))
    flat = a.reshape((-1,) + a.shape[a.ndim - block:])
    return np.array([np.linalg.norm(m) for m in flat]).reshape(a.shape[:a.ndim - block])


def unitarity_defect(u: np.ndarray):
    """Frobenius norm of U^H U - I, per matrix of a stack."""
    n = u.shape[-1]
    return norms(adjoint(u) @ u - np.eye(n), 2)


def project_special_unitary(u: np.ndarray) -> np.ndarray:
    """Closest special unitary matrix (polar factor, det-corrected), per matrix of a stack."""
    w, _, vh = np.linalg.svd(u)
    q = w @ vh
    n = q.shape[-1]
    q = q * (np.linalg.det(q) ** (-1.0 / n))[..., np.newaxis, np.newaxis]
    return q


def traceless(m: np.ndarray) -> np.ndarray:
    """m minus tr(m)/n times the identity, per matrix of a stack."""
    return m - (trace(m) / m.shape[-1])[..., np.newaxis, np.newaxis] * np.eye(m.shape[-1])


def skew_traceless(m: np.ndarray) -> np.ndarray:
    """Project onto anti-Hermitian traceless matrices w.r.t. the trace form, per matrix."""
    return traceless(0.5 * (m - adjoint(m)))


def _add_identity(r: np.ndarray) -> np.ndarray:
    """r + I in place, on every matrix of a stack."""
    idx = np.arange(r.shape[-1])
    r[..., idx, idx] += 1
    return r


# ---------------------------------------------------------------------------
# matrix exponentials
# ---------------------------------------------------------------------------

def expm_normal(a: np.ndarray) -> np.ndarray:
    """exp(a) of an anti-Hermitian or Hermitian matrix, or of each of a stack, from one
    Hermitian eigensolve.

    The larger of the parts (a - a^H)/2 and (a + a^H)/2 is exponentiated and
    the other dropped, so a must be one of the two up to roundoff; the
    anti-Hermitian part is the larger exactly when Re tr(a^2) <= 0, and each
    matrix of a stack takes its own branch.  One Newton-Schulz step
    V (3I - V^H V)/2 makes the eigenvectors orthonormal to second order, which
    brings the unitarity defect of the result close to that of a Pade
    approximant.  The result is formed as I + V expm1(L) V^H, so at small norm
    (the stencil steps) its error scales with the norm of a instead of sitting
    at the unit roundoff.
    """
    ah = adjoint(a)
    skew = (np.swapaxes(a, -1, -2) * a).sum(axis=(-2, -1)).real <= 0
    lam, v = np.linalg.eigh(np.where(skew[..., np.newaxis, np.newaxis],
                                     0.5j * (ah - a), 0.5 * (a + ah)))
    d = np.where(skew[..., np.newaxis], np.expm1(1j * lam), np.expm1(lam))
    v = 1.5 * v - 0.5 * v @ (adjoint(v) @ v)
    return _add_identity((v * d[..., np.newaxis, :]) @ adjoint(v))


def diagonal_matrix(d: np.ndarray) -> np.ndarray:
    """The diagonal matrix of a vector, or of each vector of a stack (..., n), as np.diag."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=d.dtype)
    out[..., np.arange(n), np.arange(n)] = d
    return out


def expm_diagonal(a: np.ndarray) -> np.ndarray:
    """exp(a) of a diagonal matrix a, or of each of a stack: its diagonal entrywise."""
    return diagonal_matrix(np.exp(np.diagonal(a, axis1=-2, axis2=-1)))


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

# The invariant bilinear forms: Re tr(XY) on the compact algebra (and its complexification)
# and Im tr(XY) on the realified complex algebra.  The normalization constant is fixed once
# and for all at 1, which makes the form of two opposite root vectors equal to 1 = 2/|alpha|^2.
TRACE_FORM = "trace"
IM_FORM = "im"


def pair(x: np.ndarray, y: np.ndarray, pairing: str = TRACE_FORM) -> float:
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise ShapeError(f"incompatible shapes {x.shape} and {y.shape}")
    t = np.trace(x @ y)
    return float(t.imag if pairing == IM_FORM else t.real)


def gram(left: np.ndarray, right: np.ndarray, pairing: str = TRACE_FORM) -> np.ndarray:
    """pair(left[..., i], right[..., j], pairing) for every i and j, bit for bit (einsum
    reorders the sum): stacks (..., rows, n, n) and (..., cols, n, n) give (..., rows, cols).

    A single matrix as ``left`` gives one row: the per-n constants are built row
    by row, so that no (rows, columns, n, n) temporary is allocated.
    """
    if left.ndim == 2:
        return gram(left[np.newaxis], right, pairing)[0]
    t = trace(left[..., :, np.newaxis, :, :] @ right[..., np.newaxis, :, :, :])
    return t.imag if pairing == IM_FORM else t.real


def dual_basis(basis, pairing: str = TRACE_FORM) -> np.ndarray:
    """Dual basis w.r.t. the pairing: pair(basis[a], dual[b]) = delta_ab.

    Computed through the inverse Gram matrix, dual[a] = sum_b (G^-1)_ab basis[b],
    each sum taken in basis order.
    """
    basis = np.asarray(basis)
    g = np.array([gram(b, basis, pairing) for b in basis])
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateBasis(f"Gram matrix is singular (cond={cond:.3e})")
    return np.array([ordered_sum(row, basis) for row in np.linalg.inv(g)])


def ordered_sum(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a coeffs[..., a] stack[a], added in order (a BLAS contraction would reorder the
    sum); leading axes of coeffs give a stack of sums."""
    coeffs = np.asarray(coeffs)[(...,) + (np.newaxis,) * (stack.ndim - 1)]
    return np.add.reduce(coeffs * stack, axis=-stack.ndim, initial=0.0)


# ---------------------------------------------------------------------------
# standard bases
# ---------------------------------------------------------------------------

def su_basis(n: int) -> list[np.ndarray]:
    """Real basis of su(n): off-diagonal skew pairs plus i*coroot diagonals."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = -1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0j
            m[k, j] = 1.0j
            out.append(m)
    for j in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1.0j
        m[j + 1, j + 1] = -1.0j
        out.append(m)
    return out


def sl_complex_basis(n: int) -> list[np.ndarray]:
    """Complex basis of sl(n, C): elementary off-diagonals plus coroots."""
    out = []
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            out.append(m)
    for j in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1.0
        m[j + 1, j + 1] = -1.0
        out.append(m)
    return out


def sl_real_basis(n: int) -> list[np.ndarray]:
    """Basis of the realification of sl(n, C): {B, iB} over a complex basis."""
    cb = sl_complex_basis(n)
    return cb + [1.0j * b for b in cb]


@lru_cache(maxsize=None)
def borel_basis(n: int) -> np.ndarray:
    """Real basis of the Borel algebra, real coroot diagonals and upper pairs, as one
    read-only stack built once per n."""
    out = []
    for j in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1.0
        m[j + 1, j + 1] = -1.0
        out.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0j
            out.append(m)
    return read_only(np.array(out))


# ---------------------------------------------------------------------------
# k + b splitting of sl(n, C)
# ---------------------------------------------------------------------------

def project_borel(z: np.ndarray) -> np.ndarray:
    """Borel component of z, or of each matrix of a stack, in sl(n,C) = su(n) + borel.

    The Borel part keeps the strict upper triangle of z plus the adjoint of
    the strict lower triangle, and the real part of the diagonal; forced by
    the uniqueness of the anti-Hermitian / upper-real-diagonal decomposition.
    """
    upper = np.triu(z, 1)
    lower = np.tril(z, -1)
    return upper + np.swapaxes(lower, -1, -2).conj() + np.triu(np.tril(np.real(z)))


def project_compact(z: np.ndarray) -> np.ndarray:
    """Anti-Hermitian component of z, or of each matrix of a stack, in sl(n,C) = su(n) + borel."""
    return z - project_borel(z)


# ---------------------------------------------------------------------------
# root datum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootDatum:
    """Simple coroots, fundamental coweights and Cartan data for su(n).

    The coroots are h_j = E_jj - E_(j+1)(j+1) and the coweights are the
    unique traceless diagonal matrices with alpha_k(w_j) = delta_jk.  The
    rational matrix ``q_exact`` expands coweights over coroots and is the
    exact inverse of the transposed Cartan matrix.
    """

    n: int
    rank: int
    coroots: tuple[np.ndarray, ...]
    coweights: tuple[np.ndarray, ...]
    coweights_exact: tuple[tuple[Fraction, ...], ...]
    cartan: np.ndarray
    q_exact: tuple[tuple[Fraction, ...], ...]
    q_matrix: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def build_root_datum(n: int) -> RootDatum:
    """The root datum of SU(n), built once per n, with read-only arrays."""
    if n < 2:
        raise InvalidRank(f"need n >= 2, got {n}")
    rank = n - 1
    coroots = []
    for j in range(rank):
        d = np.zeros(n)
        d[j] = 1.0
        d[j + 1] = -1.0
        coroots.append(read_only(np.diag(d).astype(complex)))
    coweights = []
    coweights_exact = []
    for j in range(1, n):
        d = tuple([Fraction(n - j, n)] * j + [Fraction(-j, n)] * (n - j))
        coweights_exact.append(d)
        coweights.append(read_only(np.diag([float(v) for v in d]).astype(complex)))
    cartan = 2 * np.eye(rank, dtype=int) - np.eye(rank, dtype=int, k=1) - np.eye(rank, dtype=int, k=-1)
    # q_exact inverts the (symmetric) Cartan matrix of A_(n-1): min(j, k) - jk/n, 1-based
    q_rows = [[Fraction(min(j, k)) - Fraction(j * k, n) for k in range(1, n)] for j in range(1, n)]
    q_exact = tuple(tuple(row) for row in q_rows)
    q_matrix = np.array([[float(v) for v in row] for row in q_rows])
    return RootDatum(
        n=n,
        rank=rank,
        coroots=tuple(coroots),
        coweights=tuple(coweights),
        coweights_exact=tuple(coweights_exact),
        cartan=read_only(cartan),
        q_exact=q_exact,
        q_matrix=read_only(q_matrix),
    )


# ---------------------------------------------------------------------------
# special elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialElements:
    """Coxeter representative, principal element and apposition torus data.

    ``coxeter_rep`` is the det-corrected cyclic shift matrix, normalizing the
    diagonal torus and inducing the cyclic Coxeter permutation on diagonal
    entries.  ``apposition_conjugator`` is the det-corrected unitary DFT
    matrix F; the second torus F T F^-1 meets the diagonal torus exactly in
    the center and has trace-orthogonal Lie algebra.
    """

    n: int
    coxeter_rep: np.ndarray
    principal: np.ndarray
    coxeter_number: int
    rho_coweight: np.ndarray
    apposition_conjugator: np.ndarray
    center: tuple[np.ndarray, ...]

@lru_cache(maxsize=None)
def special_elements(n: int) -> SpecialElements:
    """The special elements of SU(n), built once per n, with read-only arrays."""
    if n < 2:
        raise InvalidRank(f"need n >= 2, got {n}")
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    # det of the cyclic shift is (-1)^(n-1); flip one entry when needed
    if n % 2 == 0:
        shift[0, n - 1] = -1.0
    rho = np.diag([(n - 1) / 2.0 - j for j in range(n)]).astype(complex)
    principal = expm_diagonal(2j * np.pi * rho / n)
    dft = np.array(
        [[np.exp(2j * np.pi * j * k / n) for k in range(n)] for j in range(n)]
    ) / np.sqrt(n)
    det = np.linalg.det(dft)
    dft[:, 0] *= np.conj(det) / abs(det)
    zeta = np.exp(2j * np.pi / n)
    center = tuple(read_only(zeta**k * np.eye(n, dtype=complex)) for k in range(n))
    return SpecialElements(
        n=n,
        coxeter_rep=read_only(shift),
        principal=read_only(principal),
        coxeter_number=n,
        rho_coweight=read_only(rho),
        apposition_conjugator=read_only(dft),
        center=center,
    )


def diagonal_torus_element(phases: np.ndarray) -> np.ndarray:
    """exp(i diag(phases)) with the phases shifted to zero sum, for phases or each row of a
    stack (..., n)."""
    phases = np.asarray(phases, dtype=float)
    phases = phases - phases.mean(axis=-1, keepdims=True)
    return diagonal_matrix(np.exp(1j * phases))


def apposition_torus_element(phases: np.ndarray, special: SpecialElements) -> np.ndarray:
    """The apposition torus element F exp(i diag(phases)) F^H, for each row of (..., n)."""
    f = special.apposition_conjugator
    return f @ diagonal_torus_element(phases) @ f.conj().T


def apposition_algebra_element(diag: np.ndarray, special: SpecialElements) -> np.ndarray:
    """Element of the apposition torus algebra from real diagonal coordinates, for each row
    of (..., n)."""
    diag = np.asarray(diag, dtype=float)
    diag = diag - diag.mean(axis=-1, keepdims=True)
    f = special.apposition_conjugator
    return f @ (1j * diagonal_matrix(diag)) @ f.conj().T


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def gapped_spectrum(n: int, rng: np.random.Generator, floor: float,
                    total: float = 2 * np.pi, count: int | None = None) -> np.ndarray:
    """Decreasing zero-sum vector xi whose n - 1 gaps and slack total - (xi_1 - xi_n) are each
    ``floor`` plus a uniform (Dirichlet) split of the rest of ``total``; with a ``count``,
    a (count, n) stack of them from one draw.

    With total = 2*pi the slack is the affine wall, so xi is an alcove vector and a chamber
    vector at once, clearing every wall by ``floor``; a smaller total bounds its spread.
    """
    gaps = floor + (total - n * floor) * rng.dirichlet(np.ones(n), count)
    xi = -np.concatenate([np.zeros(gaps.shape[:-1] + (1,)), np.cumsum(gaps[..., :-1], -1)], -1)
    return xi - xi.mean(axis=-1, keepdims=True)


def conjugated_spectrum(n: int, rng: np.random.Generator, fn, floor: float,
                        total: float = 2 * np.pi, count: int | None = None) -> np.ndarray:
    """V diag(fn(xi)) V^H for a gapped spectrum xi (``gapped_spectrum``) and then a Haar
    frame V (``haar_unitary``); with a ``count``, a stack of them from one draw of each."""
    d = fn(gapped_spectrum(n, rng, floor, total, count))
    v = haar_unitary(n, rng, count)
    return (v * d[..., np.newaxis, :]) @ adjoint(v)


def random_algebra_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian anti-Hermitian traceless matrix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return skew_traceless(a)


def haar_unitary(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random special unitary frame: the QR of a complex Gaussian with the phases of
    R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007), then det-corrected; with a
    ``count``, a (count, n, n) stack of them from one draw and one stacked QR."""
    shape = (n, n) if count is None else (count, n, n)
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., np.newaxis, :]
    return q * (np.linalg.det(q) ** (-1.0 / n))[..., np.newaxis, np.newaxis]


def random_group_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """exp of a Gaussian algebra element, which covers the group well."""
    return expm_normal(random_algebra_element(n, rng))


def random_sl_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random element of SL(n, C) in polar form: unitary times exp of a
    traceless Hermitian matrix, the Hermitian part of a Gaussian Borel element."""
    basis = borel_basis(n)
    z = ordered_sum(rng.standard_normal(len(basis)), basis)
    return random_group_element(n, rng) @ expm_normal(0.35 / (n * n) * (z + adjoint(z)))
