"""Matrix normal forms: chamber/alcove diagonalization and Iwasawa factors.

The chamber form of an anti-Hermitian J is the strictly decreasing real
spectrum xi with frame Q satisfying Q J Q^-1 = i diag(xi).  The alcove form
of a special unitary g picks the unique strictly decreasing, zero-sum phase
vector of range below 2*pi with Q g Q^-1 = exp(i diag(xi)).  Frames are made
deterministic by fixing eigenvector phases and correcting the determinant,
and all downstream formulas only use Q^-1 t Q with t diagonal (the normal
form's ``transport``), so the residual torus ambiguity of the frame never
leaks into results.

The three normal forms (with their frames and ``transport``), the Iwasawa
halves ``iwasawa_left``/``iwasawa_right`` (and ``iwasawa_decompose``, which
packs both), ``dress``, ``posdef_of_borel`` and ``borel_of_posdef`` take a
leading point axis, (..., n, n): each matrix of a stack gets the bytes of its
one-matrix call, and a regularity check fails if any matrix of the stack is
inside its margin.

Every kernel is a pure function that checks its own call's margin and returns read-only
arrays; the points keep the normal forms and Iwasawa halves of their matrices
(``spaces.Point.form``).  Each normal form is one eigensolve rule (``_alcove``, ``_chamber``,
``_borel_chamber``) from which ``_normal_form`` builds its framed kernel (``*_diagonalize``)
and its spectra kernel (``alcove_spectra``, ``chamber_spectra``, ``borel_chamber_spectra``),
with one wall check and message.  The spectra kernels serve the observables' ``value``: one
eigenvalue solve per stack without frames, with the phase normalization and the regularity
and positivity checks of the normal forms, applied to every matrix, but not bit-equal to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotPositiveDefinite,
    RegularityViolation,
    SingularMatrix,
)
from .liecore import RootDatum, adjoint, norms, read_only

DEFAULT_REGULARITY_MARGIN = 1e-8


@dataclass(frozen=True)
class NormalForm:
    """Spectrum and diagonalizing frame Q of a matrix.

    ``columns`` are eigenvector columns in spectrum order, ``vectors`` orthonormal
    ones and ``frame`` puts them in the frame convention, each on first access.
    """

    spectrum: np.ndarray
    columns: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        return self.columns

    @functools.cached_property
    def frame(self) -> np.ndarray:
        return _frame(self.vectors)

    def transport(self, d: np.ndarray) -> np.ndarray:
        """Q^-1 d Q: a matrix written in the diagonal frame, carried back (per matrix of a
        stack; one d serves every frame)."""
        frame = self.frame
        return adjoint(frame) @ d @ frame


class AlcoveData(NormalForm):
    """Alcove phase vector and frame of a group element."""

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        # g is normal: QR makes its eigenvectors unitary to roundoff over the wall margin
        return read_only(np.linalg.qr(self.columns)[0])


@dataclass(frozen=True)
class IwasawaFactors:
    """Both unitary/triangular splittings X = u_left b_right^-1 = b_left u_right^-1, in order."""

    u_left: np.ndarray
    b_right: np.ndarray
    b_left: np.ndarray
    u_right: np.ndarray


def _phase(z: np.ndarray) -> np.ndarray:
    """conj(z) / |z|, with |z| from hypot: the rounding of a scalar abs(z), which the
    vectorised np.abs does not always match."""
    return np.conj(z) / np.hypot(z.real, z.imag)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is positive real."""
    idx = np.argmax(np.abs(vectors), axis=-2)[..., np.newaxis, :]
    return vectors * _phase(np.take_along_axis(vectors, idx, axis=-2))


def _det_correct(vectors: np.ndarray) -> np.ndarray:
    """Scale the last column by a unit scalar so the determinant becomes 1."""
    out = vectors.copy()
    out[..., -1] *= _phase(np.linalg.det(out))[..., np.newaxis]
    return out


def _frame(vectors: np.ndarray) -> np.ndarray:
    """Frame convention: each vector's largest entry positive real, then unit determinant."""
    return read_only(adjoint(_det_correct(_fix_phases(vectors))))


def _require_gaps(gaps: np.ndarray, margin: float, message: str) -> None:
    """Raise RegularityViolation when any gap, of any matrix of a stack, is below the margin.

    ``message`` is formatted with the smallest gap and the margin.
    """
    if gaps.size and gaps.min() < margin:
        raise RegularityViolation(message.format(gaps.min(), margin))


def coroot_values(xi: np.ndarray) -> np.ndarray:
    """Pairings of the spectra on the last axis with the simple coroots: xi_j - xi_(j+1)."""
    xi = np.asarray(xi, dtype=float)
    return xi[..., :-1] - xi[..., 1:]


_CHAMBER_GAP = "eigenvalue gap {:.3e} below margin {:.1e}"
_ALCOVE_WALL = "alcove wall margin {:.3e} below {:.1e}"


def _finite_posdef(b: np.ndarray) -> np.ndarray:
    """b b^H of a Borel element or a stack; raises NotPositiveDefinite on a non-finite entry."""
    p = posdef_of_borel(b)
    if not np.all(np.isfinite(p)):
        raise NotPositiveDefinite("b b^H has non-finite entries")
    return p


def _log_spectrum(vals: np.ndarray) -> np.ndarray:
    """log of each increasing spectrum of b b^H on the last axis, in reverse order; raises
    NotPositiveDefinite unless every smallest eigenvalue is positive.  The log is taken on one
    reversed 1-D view of all the entries: that is the view a single spectrum's log reads, and
    numpy rounds a reversed view (libm) and a contiguous run (SIMD) differently."""
    smallest = vals[..., 0].min()
    if not smallest > 0:
        raise NotPositiveDefinite(f"smallest eigenvalue {smallest:.3e} of b b^H is not positive")
    return np.log(vals.reshape(-1)[::-1])[::-1].reshape(vals.shape)[..., ::-1]


def alcove_phases(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique alcove representative of each set of eigenphases on the last axis.

    The input phases live in [0, 2*pi) and sum to 2*pi*s for an integer s.
    Sorting them decreasingly, subtracting 2*pi from the s largest and moving
    those to the tail yields the decreasing, zero-sum vector of range < 2*pi.
    Returns the phase vectors together with the argsort orders used.
    """
    thetas = np.mod(np.asarray(thetas, dtype=float), 2 * np.pi)
    order = np.argsort(-thetas, axis=-1, kind="stable")
    sorted_phases = np.take_along_axis(thetas, order, axis=-1)
    s = np.round(sorted_phases.sum(axis=-1, keepdims=True) / (2 * np.pi)).astype(int)
    ranks = np.arange(thetas.shape[-1])
    wrapped = np.where(ranks < s, sorted_phases - 2 * np.pi, sorted_phases)
    # rotate each row left by its s, so its s wrapped phases move to the tail
    rotation = (ranks + s) % thetas.shape[-1]
    xi = np.take_along_axis(wrapped, rotation, axis=-1)
    perm = np.take_along_axis(order, rotation, axis=-1)
    xi = xi - xi.mean(axis=-1, keepdims=True)  # remove rounding drift in the zero-sum constraint
    return xi, perm


def alcove_walls(xi: np.ndarray) -> np.ndarray:
    """Distances of each alcove vector on the last axis to the alcove walls."""
    return np.concatenate([coroot_values(xi), 2 * np.pi - (xi[..., :1] - xi[..., -1:])], axis=-1)


def _alcove(g: np.ndarray, vectors: bool):
    """Alcove form of a special unitary matrix: xi decreasing, summing to zero, with
    xi_1 - xi_n < 2*pi and Q g Q^-1 = exp(i diag(xi)); RegularityViolation within the margin
    of an alcove wall."""
    vals, vecs = np.linalg.eig(g) if vectors else (np.linalg.eigvals(g), None)
    xi, perm = alcove_phases(np.angle(vals))
    return xi, vecs if vecs is None else np.take_along_axis(vecs, perm[..., np.newaxis, :], -1)


def _chamber(j: np.ndarray, vectors: bool):
    """Chamber form of an anti-Hermitian traceless matrix: xi strictly decreasing with
    Q j Q^-1 = i diag(xi); RegularityViolation when an eigenvalue gap is below the margin."""
    h = -1j * j
    vals, vecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    return vals[..., ::-1], vecs if vecs is None else vecs[..., ::-1]


def _borel_chamber(b: np.ndarray, vectors: bool):
    """Chamber form of i log(b b^H) from one eigensolve of b b^H.

    b b^H is Hermitian positive definite, so its matrix log has the same eigenvectors and the
    log of its eigenvalues as spectrum: the chamber form of i log(b b^H) without forming the
    log.  Raises NotPositiveDefinite when b b^H has a non-finite entry or an eigenvalue that
    is not positive, and RegularityViolation as the chamber form.
    """
    p = _finite_posdef(b)
    vals, vecs = np.linalg.eigh(p) if vectors else (np.linalg.eigvalsh(p), None)
    return _log_spectrum(vals), vecs if vecs is None else vecs[..., ::-1]


def _normal_form(data, solve, walls, message: str):
    """The framed kernel diagonalize(m, margin) and the frame-free spectra(m) of the normal form
    that solve(m, vectors) computes: (spectrum, eigenvector columns in spectrum order, or None
    without vectors).  Both raise RegularityViolation when walls(spectrum) of any matrix of the
    stack falls below the margin (the default one for spectra) and return read-only arrays."""
    def diagonalize(m: np.ndarray, margin: float = DEFAULT_REGULARITY_MARGIN) -> NormalForm:
        spectrum, columns = solve(m, True)
        _require_gaps(walls(spectrum), margin, message)
        return data(spectrum=read_only(spectrum), columns=read_only(columns))

    def spectra(m: np.ndarray) -> np.ndarray:
        spectrum = solve(m, False)[0]
        _require_gaps(walls(spectrum), DEFAULT_REGULARITY_MARGIN, message)
        return read_only(spectrum)

    for kernel in (diagonalize, spectra):
        kernel.__name__ = kernel.__qualname__ = f"{solve.__name__[1:]}_{kernel.__name__}"
        kernel.__doc__ = solve.__doc__
    return diagonalize, spectra


# The three normal forms, each as (diagonalize, spectra) on a matrix or a stack (..., n, n):
# the spectra kernel reads the same spectrum (one eigenvalue solve, no frames, not bit-equal)
# and checks it against the default margin.
alcove_diagonalize, alcove_spectra = _normal_form(AlcoveData, _alcove, alcove_walls,
                                                  _ALCOVE_WALL)
chamber_diagonalize, chamber_spectra = _normal_form(NormalForm, _chamber, coroot_values,
                                                    _CHAMBER_GAP)
borel_chamber_diagonalize, borel_chamber_spectra = _normal_form(NormalForm, _borel_chamber,
                                                                coroot_values, _CHAMBER_GAP)


# ---------------------------------------------------------------------------
# action variables
# ---------------------------------------------------------------------------

def coweight_values(xi: np.ndarray, datum: RootDatum) -> np.ndarray:
    """Pairings of the spectra on the last axis with the fundamental coweights."""
    xi = np.asarray(xi, dtype=float)
    return np.stack([np.real(np.sum(np.diag(w) * xi, axis=-1)) for w in datum.coweights],
                    axis=-1)


# ---------------------------------------------------------------------------
# Iwasawa decomposition and friends
# ---------------------------------------------------------------------------

def _positive_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with positive real diagonal on the triangular factor."""
    q, r = np.linalg.qr(x)
    if not np.all(np.isfinite(r)):
        raise SingularMatrix("matrix has non-finite entries")
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    if np.min(np.abs(d)) < 1e-14:
        raise SingularMatrix("matrix is numerically singular")
    ph = d / np.abs(d)
    return q * ph[..., np.newaxis, :], r * (1.0 / ph)[..., :, np.newaxis]


def iwasawa_left(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_left, b_right) of X = u_left b_right^-1, from the QR of X."""
    q, r = _positive_qr(x)
    return read_only(q), read_only(np.linalg.inv(r))


def iwasawa_right(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b_left, u_right) of X = b_left u_right^-1, from the QR of X^-1."""
    try:
        q, r = _positive_qr(np.linalg.inv(x))
    except np.linalg.LinAlgError:
        raise SingularMatrix("matrix is singular") from None
    return read_only(np.linalg.inv(r)), read_only(q)


def iwasawa_decompose(x: np.ndarray) -> IwasawaFactors:
    """Unique factorizations X = u_left b_right^-1 = b_left u_right^-1.

    The unitary factors are special unitary and the triangular factors are upper triangular
    with positive diagonal and unit determinant; both follow from det X = 1.  A caller that
    reads one splitting calls its half, ``iwasawa_left`` or ``iwasawa_right``, alone.
    """
    return IwasawaFactors(*iwasawa_left(x), *iwasawa_right(x))


def dress(eta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dressing action of a unitary on the Borel group: b_left factor of eta b."""
    return iwasawa_right(eta @ b)[0]


def posdef_of_borel(b: np.ndarray) -> np.ndarray:
    """The positive-definite image b b^H of a Borel element, or of each of a stack."""
    return b @ adjoint(b)


def borel_of_posdef(p: np.ndarray) -> np.ndarray:
    """Upper-triangular positive-diagonal b with b b^H = p, for p or each matrix of a stack.

    Obtained from the Cholesky factor of p^-1: with p^-1 = L L^H lower
    triangular, b = L^-H is upper triangular with positive diagonal.
    """
    if np.any(norms(p - adjoint(p), 2) > 1e-10 * (1 + norms(p, 2))):
        raise NotPositiveDefinite("argument is not Hermitian")
    try:
        low = np.linalg.cholesky(np.linalg.inv(p))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("argument is not positive definite") from exc
    return np.linalg.inv(adjoint(low))
