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
(``spaces.Point.form``).  The spectra kernels (``alcove_spectra``, ``chamber_spectra``,
``borel_chamber_spectra``) serve the observables' ``value``: one eigenvalue solve per stack
without frames, with the phase normalization and the regularity and positivity checks of
the normal forms, applied to every matrix, but not bit-equal to them.
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


def _regular(walls, message: str):
    """A margin-free normal form that checks walls(spectrum) against each call's margin."""
    def decorate(kernel):
        @functools.wraps(kernel)
        def wrapper(x, margin: float = DEFAULT_REGULARITY_MARGIN):
            out = kernel(x)
            _require_gaps(walls(out.spectrum), margin, message)
            return out

        return wrapper

    return decorate


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


class ChamberData(NormalForm):
    """Decreasing real spectrum and frame of an algebra element."""


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


def _chamber_data(vals: np.ndarray, vecs: np.ndarray) -> ChamberData:
    """Chamber data from a decreasing spectrum and its eigenvector columns."""
    return ChamberData(spectrum=read_only(vals.astype(float)), columns=read_only(vecs))


@_regular(coroot_values, _CHAMBER_GAP)
def chamber_diagonalize(j: np.ndarray) -> ChamberData:
    """Chamber normal form of an anti-Hermitian traceless matrix.

    Returns (xi, Q) with Q j Q^-1 = i diag(xi) and xi strictly decreasing.
    Raises RegularityViolation when eigenvalue gaps fall below the margin.
    """
    vals, vecs = np.linalg.eigh(-1j * j)
    return _chamber_data(vals[..., ::-1], vecs[..., ::-1])


@_regular(coroot_values, _CHAMBER_GAP)
def borel_chamber_diagonalize(b: np.ndarray) -> ChamberData:
    """Chamber normal form of i log(b b^H) from one eigensolve of b b^H.

    b b^H is Hermitian positive definite, so its matrix log has the same
    eigenvectors and the log of its eigenvalues as spectrum: the result is
    the chamber form of i log(b b^H) without forming the log.  Raises
    NotPositiveDefinite when b b^H has a non-finite entry or an eigenvalue
    that is not positive, and RegularityViolation as chamber_diagonalize.
    """
    vals, vecs = np.linalg.eigh(_finite_posdef(b))
    return _chamber_data(_log_spectrum(vals), vecs[..., ::-1])


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


def _alcove_walls(xi: np.ndarray) -> np.ndarray:
    """Distances of each alcove vector on the last axis to the alcove walls."""
    return np.concatenate([coroot_values(xi), 2 * np.pi - (xi[..., :1] - xi[..., -1:])], axis=-1)


@_regular(_alcove_walls, _ALCOVE_WALL)
def alcove_diagonalize(g: np.ndarray) -> AlcoveData:
    """Alcove normal form of a special unitary matrix.

    Returns (xi, Q) with Q g Q^-1 = exp(i diag(xi)), xi strictly decreasing,
    summing to zero, with xi_1 - xi_n < 2*pi.  Raises RegularityViolation
    when the point is within ``margin`` of an alcove wall.
    """
    vals, vecs = np.linalg.eig(g)
    xi, perm = alcove_phases(np.angle(vals))
    return AlcoveData(spectrum=read_only(xi),
                      columns=read_only(np.take_along_axis(vecs, perm[..., np.newaxis, :], -1)))


# ---------------------------------------------------------------------------
# spectra of stacks: one eigenvalue solve for a whole (..., n, n) stack
# ---------------------------------------------------------------------------

def alcove_spectra(gs: np.ndarray) -> np.ndarray:
    """Alcove phase vectors (..., n) of a special unitary matrix or a stack of them.

    The spectra of alcove_diagonalize, without frames.  Raises
    RegularityViolation when any matrix of the stack is within the default
    regularity margin of an alcove wall.
    """
    xi, _ = alcove_phases(np.angle(np.linalg.eigvals(gs)))
    _require_gaps(_alcove_walls(xi), DEFAULT_REGULARITY_MARGIN, _ALCOVE_WALL)
    return read_only(xi)


def chamber_spectra(js: np.ndarray) -> np.ndarray:
    """Decreasing chamber spectra (..., n) of an anti-Hermitian traceless matrix or a stack.

    The spectra of chamber_diagonalize.  Raises RegularityViolation when a
    gap of any matrix of the stack falls below the default regularity margin.
    """
    xi = np.linalg.eigvalsh(-1j * js)[..., ::-1]
    _require_gaps(coroot_values(xi), DEFAULT_REGULARITY_MARGIN, _CHAMBER_GAP)
    return read_only(xi)


def borel_chamber_spectra(bs: np.ndarray) -> np.ndarray:
    """Decreasing chamber spectra (..., n) of i log(b b^H) for a Borel element or a stack.

    The spectra of borel_chamber_diagonalize, with its finiteness check
    (``_finite_posdef``), its positivity check and log (``_log_spectrum``) and its gap check
    applied to every matrix of the stack.
    """
    xi = _log_spectrum(np.linalg.eigvalsh(_finite_posdef(bs)))
    _require_gaps(coroot_values(xi), DEFAULT_REGULARITY_MARGIN, _CHAMBER_GAP)
    return read_only(xi)


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
