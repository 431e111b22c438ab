"""Matrix normal forms: chamber/alcove diagonalization and Iwasawa factors.

The chamber form of an anti-Hermitian J is the strictly decreasing real
spectrum xi with frame Q satisfying Q J Q^-1 = i diag(xi).  The alcove form
of a special unitary g picks the unique strictly decreasing, zero-sum phase
vector of range below 2*pi with Q g Q^-1 = exp(i diag(xi)).  Frames are made
deterministic by fixing eigenvector phases and correcting the determinant,
and all downstream formulas only use Q^-1 t Q with t diagonal (the normal
form's ``transport``), so the residual torus ambiguity of the frame never
leaks into results.

The normal-form kernels remember their last few results, keyed on the
exact input, because flows and finite-difference stencils hand them the same
matrix many times in a row.  Their results hold read-only arrays.  The
spectra of whole stacks of matrices (``alcove_spectra``, ``chamber_spectra``,
``borel_chamber_spectra``) come from one eigenvalue solve per stack, with the
same phase normalization and the same regularity and positivity checks,
applied to every matrix, as the one-matrix kernels.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NotPositiveDefinite,
    RegularityViolation,
    ShapeError,
    SingularMatrix,
)
from .liecore import RootDatum

DEFAULT_REGULARITY_MARGIN = 1e-8
# results each kernel remembers; 4 catches as many repeats as 16 on the benchmark
MEMO_SIZE = 4


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _memoized(kernel):
    """Recency memo of a normal-form kernel ``kernel(x, *params)``.

    The key is the shape, dtype and bytes of x plus the parameters, with
    defaults filled in, so a hit returns the result computed from bit-equal
    input.  Errors are raised afresh on every call and never stored.
    """
    defaults = kernel.__defaults__ or ()
    memo: OrderedDict = OrderedDict()

    @functools.wraps(kernel)
    def wrapper(x, *params):
        a = np.asarray(x)
        key = (a.shape, a.dtype.str, a.tobytes(), params + defaults[len(params):])
        out = memo.get(key)
        if out is None:
            out = kernel(x, *params)
            memo[key] = out
            if len(memo) > MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return out

    return wrapper


@dataclass(frozen=True)
class NormalForm:
    """Spectrum and diagonalizing frame Q of a matrix.

    ``vectors`` are the eigen- or Schur vector columns in spectrum order;
    ``frame`` puts them in the frame convention on first access.
    """

    spectrum: np.ndarray
    vectors: np.ndarray

    @functools.cached_property
    def frame(self) -> np.ndarray:
        return _frame(self.vectors)

    def transport(self, d: np.ndarray) -> np.ndarray:
        """Q^-1 d Q: a matrix written in the diagonal frame, carried back."""
        frame = self.frame
        return frame.conj().T @ d @ frame


class ChamberData(NormalForm):
    """Decreasing real spectrum and frame of an algebra element."""

    @property
    def diagonal_form(self) -> np.ndarray:
        return 1j * np.diag(self.spectrum)


class AlcoveData(NormalForm):
    """Alcove phase vector and frame of a group element."""

    @property
    def diagonal_form(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.spectrum))


@dataclass(frozen=True)
class IwasawaFactors:
    """Both unitary/triangular splittings X = u_left b_right^-1 = b_left u_right^-1."""

    u_left: np.ndarray
    u_right: np.ndarray
    b_left: np.ndarray
    b_right: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is positive real."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, c])))
        z = out[idx, c]
        out[:, c] *= np.conj(z) / abs(z)
    return out


def _det_correct(vectors: np.ndarray) -> np.ndarray:
    """Scale the last column by a unit scalar so the determinant becomes 1."""
    out = vectors.copy()
    det = np.linalg.det(out)
    out[:, -1] *= np.conj(det) / abs(det)
    return out


def _frame(vectors: np.ndarray) -> np.ndarray:
    """Frame convention: each vector's largest entry positive real, then unit determinant."""
    return _read_only(_det_correct(_fix_phases(vectors)).conj().T)


def _require_gaps(gaps: np.ndarray, margin: float, message: str) -> None:
    """Raise RegularityViolation when any gap, of any matrix of a stack, is below the margin.

    ``message`` is formatted with the smallest gap and the margin.
    """
    if gaps.size and gaps.min() < margin:
        raise RegularityViolation(message.format(gaps.min(), margin))


_CHAMBER_GAP = "eigenvalue gap {:.3e} below margin {:.1e}"
_ALCOVE_WALL = "alcove wall margin {:.3e} below {:.1e}"


def _require_finite(p: np.ndarray) -> None:
    """Raise NotPositiveDefinite when b b^H (a matrix or a stack) has a non-finite entry."""
    if not np.all(np.isfinite(p)):
        raise NotPositiveDefinite("b b^H has non-finite entries")


def _require_positive(vals: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless every increasing spectrum on the last axis
    starts with a positive eigenvalue."""
    smallest = vals[..., 0].min()
    if not smallest > 0:
        raise NotPositiveDefinite(f"smallest eigenvalue {smallest:.3e} of b b^H is not positive")


def _chamber_data(vals: np.ndarray, vecs: np.ndarray, margin: float) -> ChamberData:
    """Chamber data from a decreasing spectrum and its eigenvector columns.

    Rejects gaps below the margin.
    """
    _require_gaps(coroot_values(vals), margin, _CHAMBER_GAP)
    return ChamberData(spectrum=_read_only(vals.astype(float)), vectors=_read_only(vecs))


@_memoized
def chamber_diagonalize(j: np.ndarray, margin: float = DEFAULT_REGULARITY_MARGIN) -> ChamberData:
    """Chamber normal form of an anti-Hermitian traceless matrix.

    Returns (xi, Q) with Q j Q^-1 = i diag(xi) and xi strictly decreasing.
    Raises RegularityViolation when eigenvalue gaps fall below the margin.
    """
    vals, vecs = np.linalg.eigh(-1j * j)
    return _chamber_data(vals[::-1], vecs[:, ::-1], margin)


@_memoized
def borel_chamber_diagonalize(b: np.ndarray,
                              margin: float = DEFAULT_REGULARITY_MARGIN) -> ChamberData:
    """Chamber normal form of i log(b b^H) from one eigensolve of b b^H.

    b b^H is Hermitian positive definite, so its matrix log has the same
    eigenvectors and the log of its eigenvalues as spectrum: the result is
    the chamber form of i log(b b^H) without forming the log.  Raises
    NotPositiveDefinite when b b^H has a non-finite entry or an eigenvalue
    that is not positive, and RegularityViolation as chamber_diagonalize.
    """
    p = posdef_of_borel(b)
    _require_finite(p)
    vals, vecs = np.linalg.eigh(p)
    _require_positive(vals)
    return _chamber_data(np.log(vals[::-1]), vecs[:, ::-1], margin)


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


@_memoized
def alcove_diagonalize(g: np.ndarray, margin: float = DEFAULT_REGULARITY_MARGIN) -> AlcoveData:
    """Alcove normal form of a special unitary matrix.

    Returns (xi, Q) with Q g Q^-1 = exp(i diag(xi)), xi strictly decreasing,
    summing to zero, with xi_1 - xi_n < 2*pi.  Raises RegularityViolation
    when the point is within ``margin`` of an alcove wall.
    """
    t, z = scipy.linalg.schur(g, output="complex")
    xi, perm = alcove_phases(np.angle(np.diag(t)))
    _require_gaps(_alcove_walls(xi), margin, _ALCOVE_WALL)
    return AlcoveData(spectrum=_read_only(xi), vectors=_read_only(z[:, perm]))


# ---------------------------------------------------------------------------
# spectra of stacks: one eigenvalue solve for a whole (..., n, n) stack
# ---------------------------------------------------------------------------

@_memoized
def alcove_spectra(gs: np.ndarray, margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Alcove phase vectors (..., n) of a stack of special unitary matrices.

    The spectra of alcove_diagonalize, without frames.  Raises
    RegularityViolation when any matrix of the stack is within ``margin``
    of an alcove wall.
    """
    xi, _ = alcove_phases(np.angle(np.linalg.eigvals(gs)))
    _require_gaps(_alcove_walls(xi), margin, _ALCOVE_WALL)
    return _read_only(xi)


@_memoized
def chamber_spectra(js: np.ndarray, margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Decreasing chamber spectra (..., n) of a stack of anti-Hermitian traceless matrices.

    The spectra of chamber_diagonalize.  Raises RegularityViolation when a
    gap of any matrix of the stack falls below the margin.
    """
    xi = np.linalg.eigvalsh(-1j * js)[..., ::-1]
    _require_gaps(coroot_values(xi), margin, _CHAMBER_GAP)
    return _read_only(xi)


@_memoized
def borel_chamber_spectra(bs: np.ndarray,
                          margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Decreasing chamber spectra (..., n) of i log(b b^H) for a stack of Borel elements.

    The spectra of borel_chamber_diagonalize, with its finiteness,
    positivity and gap checks applied to every matrix of the stack.
    """
    p = posdef_of_borel(bs)
    _require_finite(p)
    vals = np.linalg.eigvalsh(p)
    _require_positive(vals)
    xi = np.log(vals[..., ::-1])
    _require_gaps(coroot_values(xi), margin, _CHAMBER_GAP)
    return _read_only(xi)


# ---------------------------------------------------------------------------
# action variables and gradients
# ---------------------------------------------------------------------------

def coroot_values(xi: np.ndarray) -> np.ndarray:
    """Pairings of the spectra on the last axis with the simple coroots: xi_j - xi_(j+1)."""
    xi = np.asarray(xi, dtype=float)
    return xi[..., :-1] - xi[..., 1:]


def coweight_values(xi: np.ndarray, datum: RootDatum) -> np.ndarray:
    """Pairings of the spectra on the last axis with the fundamental coweights."""
    xi = np.asarray(xi, dtype=float)
    return np.stack([np.real(np.sum(np.diag(w) * xi, axis=-1)) for w in datum.coweights],
                    axis=-1)


def action_variables(data: ChamberData | AlcoveData, family: str, datum: RootDatum) -> np.ndarray:
    """Coroot ('chi'/'phi') or coweight ('xi') action variables of a normal form."""
    if family in ("chi", "phi"):
        return coroot_values(data.spectrum)
    if family == "xi":
        return coweight_values(data.spectrum, datum)
    raise ShapeError(f"unknown action-variable family {family!r}")


def grad_alcove_coroot(g: np.ndarray, j: int, datum: RootDatum,
                       margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Gradient of the j-th coroot alcove variable: -Q^-1 i h_j Q."""
    return alcove_diagonalize(g, margin).transport(-(1j * datum.coroots[j]))


def grad_alcove_coweight(g: np.ndarray, j: int, datum: RootDatum,
                         margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Gradient of the j-th coweight alcove variable: -Q^-1 i w_j Q."""
    return alcove_diagonalize(g, margin).transport(-(1j * datum.coweights[j]))


def grad_chamber_coroot(j_alg: np.ndarray, j: int, datum: RootDatum,
                        margin: float = DEFAULT_REGULARITY_MARGIN) -> np.ndarray:
    """Gradient of the j-th coroot chamber variable: -Q^-1 i h_j Q."""
    return chamber_diagonalize(j_alg, margin).transport(-(1j * datum.coroots[j]))


# ---------------------------------------------------------------------------
# Iwasawa decomposition and friends
# ---------------------------------------------------------------------------

def _positive_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR with positive real diagonal on the triangular factor."""
    q, r = np.linalg.qr(x)
    if not np.all(np.isfinite(r)):
        raise SingularMatrix("matrix has non-finite entries")
    d = np.diag(r)
    if np.min(np.abs(d)) < 1e-14:
        raise SingularMatrix("matrix is numerically singular")
    ph = d / np.abs(d)
    return q * ph[np.newaxis, :], r * (1.0 / ph)[:, np.newaxis]


@_memoized
def iwasawa_decompose(x: np.ndarray) -> IwasawaFactors:
    """Unique factorizations X = u_left b_right^-1 = b_left u_right^-1.

    The unitary factors are special unitary and the triangular factors are
    upper triangular with positive diagonal and unit determinant; both follow
    from det X = 1.
    """
    q1, r1 = _positive_qr(x)
    q2, r2 = _positive_qr(np.linalg.inv(x))
    return IwasawaFactors(u_left=_read_only(q1), u_right=_read_only(q2),
                          b_left=_read_only(np.linalg.inv(r2)),
                          b_right=_read_only(np.linalg.inv(r1)))


def borel_left(x: np.ndarray) -> np.ndarray:
    return iwasawa_decompose(x).b_left


def dress(eta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dressing action of a unitary on the Borel group: b_left factor of eta b."""
    return iwasawa_decompose(eta @ b).b_left


def posdef_of_borel(b: np.ndarray) -> np.ndarray:
    """The positive-definite image b b^H of a Borel element, or of each of a stack."""
    return b @ np.swapaxes(b.conj(), -1, -2)


def borel_of_posdef(p: np.ndarray) -> np.ndarray:
    """Upper-triangular positive-diagonal b with b b^H = p.

    Obtained from the Cholesky factor of p^-1: with p^-1 = L L^H lower
    triangular, b = L^-H is upper triangular with positive diagonal.
    """
    if np.linalg.norm(p - p.conj().T) > 1e-10 * (1 + np.linalg.norm(p)):
        raise NotPositiveDefinite("argument is not Hermitian")
    try:
        low = np.linalg.cholesky(np.linalg.inv(p))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("argument is not positive definite") from exc
    return np.linalg.inv(low.conj().T)
